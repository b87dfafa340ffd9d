"""Smoke profile of every workload: tiny corpora, one second, untraced
and traced. Builds perfbench/ first when needed (minutes when cold).

    python3 -m unittest perfbench.tests.test_smoke
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

import run  # noqa: E402


def smoke(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=os.path.dirname(ROOT), capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError(out.stderr[-2000:])
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stdout


class Smoke(unittest.TestCase):
    def check(self, workload):
        result, _ = smoke(workload, 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertEqual(list(result["metrics"]), [n for n, _ in run.END_TO_END])
        for name, m in result["metrics"].items():
            self.assertGreater(m["value"], 0, name)

        traced, text = smoke(workload, 1)
        self.assertTrue(traced["correct"], traced)
        self.assertEqual(list(traced["metrics"]), [n for n, _ in run.per_layer_spec()])
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        self.assertGreater(m["e2e.latency_p99_ms"], 0)
        self_sum = sum(v for k, v in m.items() if k.startswith("self_s."))
        self.assertAlmostEqual(self_sum, m["trace.wall_s"], delta=0.01 * m["trace.wall_s"])
        self.assertIn("self times add up", text)
        return m

    def test_gnn_kfold(self):
        m = self.check("gnn-kfold")
        self.assertGreater(m["ml.kernels.matmul.train.calls"], 0)
        self.assertGreater(m["ml.gnn.infer_batch_ms.b8"], 0)

    def test_paper_eval(self):
        m = self.check("paper-eval")
        self.assertGreater(m["verify.must-sweep.check_ms.p50"], 0)
        self.assertEqual(m["ml.kernels.matmul.train.calls"], 0)

    def test_serve_ir2vec(self):
        m = self.check("serve-ir2vec")
        self.assertGreater(m["serve.batch_size_mean"], 0)


if __name__ == "__main__":
    unittest.main()
