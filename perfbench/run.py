#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload gnn-kfold --seed 1 --seconds 30 --trace 0

Builds perfbench/ (the mpidetect library, mpiguardd and the workload
driver) into $CARGO_TARGET_DIR or .bench_build, runs one workload, checks
its outputs and prints every metric by name with its unit. The last line
of standard output is one JSON object: correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1). Run it from the root of a checkout. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("gnn-kfold", "paper-eval", "serve-gnn", "serve-ir2vec")
SERVE = ("serve-gnn", "serve-ir2vec")

END_TO_END = [
    ("setup_s", "s"),
    ("cases_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("max_rate_rps", "1/s"),
    ("peak_rss_mb", "MB"),
]

# glibc malloc settings for the batch workloads. With the defaults, glibc
# hands freed memory back to the kernel and maps large blocks afresh, so
# paper-eval took 5.6M minor page faults in 10 s (30% of its CPU time in
# the kernel) and its pass times swung 0.9-2.4 s with the host's load.
# Raising both thresholds keeps freed memory in the process: 14k faults,
# passes 0.8-0.9 s. Serve workloads keep the defaults. See
# perfbench/README.md.
MALLOC_TUNABLES = "glibc.malloc.trim_threshold=268435456:glibc.malloc.mmap_threshold=268435456"

OPS = ("matmul", "matmul_nt", "matmul_tn", "gather_rows", "segment_softmax",
       "bias_elu", "gatv2_scores", "scatter_add_scaled")
TOOLS = ("itac", "must", "must-sweep", "parcoach", "mpi-checker")
LAYERS = ("datasets", "progmodel", "passes", "ir2vec", "programl", "core",
          "ml", "verify", "mpisim", "io", "serve")


def per_layer_spec():
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    # The tail of the end-to-end latency (see README: too unsteady on a
    # shared box to carry a bound), from the traced run's untraced half.
    m = [("e2e.latency_p99_ms", "ms"), ("datasets.generate_s", "s")]
    for stage in ("progmodel.lower", "passes.optimize", "ir2vec.encode",
                  "programl.build"):
        m += [(stage + "_s", "s"), (stage + "_ms.p50", "ms"),
              (stage + "_ms.p99", "ms")]
    m += [("core.cache." + k, "count")
          for k in ("feature_sets", "graph_sets", "disk_hits", "disk_writes")]
    m += [("core.fold_fit_s.p50", "s"), ("core.fold_fit_s.max", "s"),
          ("core.pool_efficiency", "ratio")]
    m += [("ml.gnn.train_step_ms.p50", "ms"), ("ml.gnn.train_step_ms.p99", "ms"),
          ("ml.gnn.train_step_ms.count", "count"),
          ("ml.gnn.infer_batch_ms.b1", "ms"), ("ml.gnn.infer_batch_ms.b8", "ms")]
    for phase in ("train", "infer"):
        for op in OPS:
            k = "ml.kernels.%s.%s" % (op, phase)
            m += [(k + ".calls", "count"), (k + ".s", "s"), (k + ".gflops", "GF/s")]
        m.append(("ml.unattributed_s." + phase, "s"))
    m.append(("ml.dt.fit_s", "s"))
    for t in TOOLS:
        m += [("verify.%s.check_ms.p50" % t, "ms"), ("verify.%s.check_ms.p99" % t, "ms")]
    m += [("mpisim.run_ms.p50", "ms"), ("mpisim.run_ms.p99", "ms")]
    m += [("mpisim.outcome." + k, "count")
          for k in ("completed", "deadlock", "timeout", "crashed")]
    m.append(("io.bundle_load_s", "s"))
    m += [("serve.batch_size_mean", "count"), ("serve.max_queue_depth", "count"),
          ("serve.busy_rejected", "count"), ("serve.deadline_sheds", "count"),
          ("serve.io_timeouts", "count"), ("serve.service_ms", "ms"),
          ("serve.dispatch_ms", "ms"), ("serve.wire.encode_us", "us"),
          ("serve.wire.decode_us", "us"), ("serve.gen_late_ms", "ms")]
    m += [("trace.overhead_pct", "%"), ("trace.wall_s", "s")]
    m += [("self_s." + layer, "s") for layer in LAYERS + ("unattributed",)]
    return m


# ---- build -----------------------------------------------------------------


def build(build_dir):
    """Configures (once) and builds the benchmark package. Returns the
    driver and daemon paths, or exits 2 with the build log's tail."""
    log_path = os.path.join(build_dir, "perfbench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cfg = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cfg += ["-G", "Ninja"]
            steps.append(cfg)
        steps.append(["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                cache = os.path.join(build_dir, "CMakeCache.txt")
                if cmd is not steps[-1] and os.path.exists(cache):
                    os.remove(cache)  # reconfigure next time
                with open(log_path) as f:
                    sys.stderr.write("perfbench: build failed:\n" + "".join(f.readlines()[-30:]))
                sys.exit(2)
    return (os.path.join(build_dir, "perfbench_driver"),
            os.path.join(build_dir, "mpidetect", "mpiguardd"))


# ---- metrics ---------------------------------------------------------------


def ref_rung(raw, traced):
    rungs = [r for r in raw["rungs"] if bool(r.get("traced")) == traced]
    return min(rungs, key=lambda r: r["rate"]) if rungs else None


def end_to_end(raw):
    """End-to-end metrics plus the latency groups they were taken over.
    Batch workloads take medians over passes, serve workloads over
    windows of the reference rung, so one disturbed pass or window does
    not move a figure."""
    w = raw["workload"]
    m = {"setup_s": statistics.median(raw["setup_s"]),
         "peak_rss_mb": raw["peak_rss_mb"]}
    if w in SERVE:
        m["cases_per_s"] = raw["units"] / raw["timed_s"] if raw["timed_s"] > 0 else 0.0
        rung = ref_rung(raw, False)
        groups = latency_groups(raw)
        untraced = [r for r in raw["rungs"] if not r.get("traced")]
        best = stats.max_rate(untraced, raw["latency_limit_ms"])
        if best is None:  # even the lowest rate misses the limit
            best = stats.achieved_rate(rung) if rung else 0.0
        m["max_rate_rps"] = best
    else:
        passes = raw["samples"].get("pass_s", [])
        per_pass = raw["units"] / len(passes) if passes else 0.0
        m["cases_per_s"] = per_pass / statistics.median(passes) if passes else 0.0
        groups = latency_groups(raw)
        m["max_rate_rps"] = m["cases_per_s"]
    m["latency_p50_ms"] = stats.median_percentile(groups, 50)
    m["latency_p99_ms"] = stats.median_percentile(groups, 99)
    return m, groups


def latency_groups(raw):
    """Untraced latency groups: passes (batch) or reference-rung windows."""
    if raw["workload"] in SERVE:
        rung = ref_rung(raw, False)
        return stats.windows(stats.latencies_ms(rung), stats.WINDOW) if rung else []
    return raw["latency_passes"]


def per_layer(raw):
    layers = dict(raw["layers"])
    samples = raw["samples"]
    out = {name: 0.0 for name, _ in per_layer_spec()}
    out["e2e.latency_p99_ms"] = stats.median_percentile(latency_groups(raw), 99)
    for k, v in layers.items():
        if k in out:
            out[k] = v
    for key in ("progmodel.lower_ms", "passes.optimize_ms", "ir2vec.encode_ms",
                "programl.build_ms", "mpisim.run_ms", "ml.gnn.train_step_ms"):
        v = samples.get(key, [])
        if v:
            out[key + ".p50"] = stats.percentile(v, 50)
            out[key + ".p99"] = stats.percentile(v, 99)
    out["ml.gnn.train_step_ms.count"] = float(len(samples.get("ml.gnn.train_step_ms", [])))
    for t in TOOLS:
        v = samples.get("verify.%s.check_ms" % t, [])
        if v:
            out["verify.%s.check_ms.p50" % t] = stats.percentile(v, 50)
            out["verify.%s.check_ms.p99" % t] = stats.percentile(v, 99)
    fits = samples.get("core.fold_fit_s", [])
    if fits:
        out["core.fold_fit_s.p50"] = stats.percentile(fits, 50)
        out["core.fold_fit_s.max"] = max(fits)
    for b in ("b1", "b8"):
        v = samples.get("ml.gnn.infer_batch_ms." + b, [])
        if v:
            out["ml.gnn.infer_batch_ms." + b] = stats.percentile(v, 50)
    if raw["workload"] in SERVE:
        if layers.get("serve.batches"):
            out["serve.batch_size_mean"] = layers["serve.served"] / layers["serve.batches"]
        svc = samples.get("serve.service_ms", [])
        rung = ref_rung(raw, True)
        if svc:
            out["serve.service_ms"] = stats.percentile(svc, 50)
        if svc and rung and stats.latencies_ms(rung):
            out["serve.dispatch_ms"] = (stats.percentile(stats.latencies_ms(rung), 50)
                                        - out["serve.service_ms"])
        for k in ("serve.wire.encode_us", "serve.wire.decode_us"):
            if samples.get(k):
                out[k] = stats.percentile(samples[k], 50)
        late = [x for r in raw["rungs"] for x in stats.lateness_ms(r)]
        if late:
            out["serve.gen_late_ms"] = stats.percentile(late, 99)
    # Tracing overhead: traced vs untraced time per unit of work (serve:
    # reference-rung median latency).
    if raw["workload"] in SERVE:
        a, b = ref_rung(raw, False), ref_rung(raw, True)
        if a and b and stats.latencies_ms(a) and stats.latencies_ms(b):
            u = stats.percentile(stats.latencies_ms(a), 50)
            t = stats.percentile(stats.latencies_ms(b), 50)
            out["trace.overhead_pct"] = (t / u - 1.0) * 100.0
    elif raw["untraced_units"] > 0 and raw["traced_units"] > 0:
        u = raw["untraced_s"] / raw["untraced_units"]
        t = raw["traced_s"] / raw["traced_units"]
        out["trace.overhead_pct"] = (t / u - 1.0) * 100.0
    self_t = stats.self_times(raw["spans"], raw["root_span"])
    for layer, s in self_t.items():
        out["self_s." + layer] = s
    out["trace.wall_s"] = raw["traced_s"]
    return out, self_t


# ---- main ------------------------------------------------------------------


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)


def reference_key(raw):
    return "%s seed=%d seconds=%g%s" % (raw["workload"], raw["seed"], raw["seconds"],
                                        " smoke" if raw["smoke"] else "")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny corpora and request counts (tests)")
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's digest and confusion as the reference")
    a = ap.parse_args(argv)

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    driver, daemon = build(build_dir)
    work = ".bench_run"
    os.makedirs(work, exist_ok=True)
    out = os.path.join(work, "raw-%s.json" % a.workload)
    if os.path.exists(out):
        os.remove(out)
    cmd = [driver, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace), "--out", out,
           "--daemon", daemon]
    if a.smoke:
        cmd.append("--smoke")
    # Own session: on a timeout the driver and the daemon it spawned are
    # killed together and waited for.
    env = None if a.workload in SERVE else dict(os.environ, GLIBC_TUNABLES=MALLOC_TUNABLES)
    proc = subprocess.Popen(cmd, start_new_session=True, env=env)
    try:
        rc = proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("perfbench: driver timed out\n")
        return 2
    if rc != 0 or not os.path.exists(out):
        sys.stderr.write("perfbench: driver failed (exit %d)\n" % rc)
        return 2
    with open(out) as f:
        raw = json.load(f)

    problems = list(raw["problems"])
    ref = load_reference().get(reference_key(raw))
    if a.write_reference:
        refs = load_reference()
        refs[reference_key(raw)] = {"digest": raw["digest"], "confusion": raw["confusion"]}
        with open(os.path.join(HERE, "reference.json"), "w") as f:
            json.dump(refs, f, indent=1, sort_keys=True)
            f.write("\n")
    elif ref is not None and a.trace == 0:
        if ref["digest"] != raw["digest"]:
            problems.append("digest %s != reference %s" % (raw["digest"], ref["digest"]))
        if ref["confusion"] != raw["confusion"]:
            problems.append("confusion differs from the reference")
    attempted = max(1, int(raw["attempted"]))
    failed = int(raw["failed"]) + (len(problems) - len(raw["problems"]))
    correct = failed == 0 and not problems

    h = raw["host"]
    print("host: nproc=%d hardware_concurrency=%d isa=%s kernel_threads=%d "
          "pool_threads=%d build=%s malloc=%s" % (
              h["nproc"], h["hardware_concurrency"], h["isa"], h["kernel_threads"],
              h["pool_threads"], h["build_type"],
              "default" if a.workload in SERVE else MALLOC_TUNABLES))
    print("workload=%s seed=%d seconds=%g trace=%d digest=%s%s" % (
        a.workload, a.seed, a.seconds, a.trace, raw["digest"],
        " (reference checked)" if ref is not None and a.trace == 0 else ""))
    print("failed_ratio=%.6f (%d failed of %d attempted)" % (failed / attempted, failed,
                                                          attempted))
    for p in problems:
        print("problem: " + p)

    if a.trace == 0:
        metrics, groups = end_to_end(raw)
        sm = stats.summarize([x for g in groups for x in g])
        print("latency: p50=%.4f ms, p%s=%.4f ms over %d samples in %d %s; "
              "median of per-%s p99: %.4f ms" % (
                  sm["p50"], sm["tail_p"], sm["tail"], sm["n"], len(groups),
                  "windows" if a.workload in SERVE else "passes",
                  "window" if a.workload in SERVE else "pass", metrics["latency_p99_ms"]))
        if "pass_s" in raw["samples"]:
            print("passes: %s s" % " ".join("%.3f" % x for x in raw["samples"]["pass_s"]))
        s = stats.summarize(raw["setup_s"])
        print("setup: median of %d set-ups %.4f s" % (s["n"], s["p50"]))
        result = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    else:
        values, self_t = per_layer(raw)
        total = sum(self_t.values())
        print("self times add up to %.6f s of %.6f s traced wall (root span)" % (
            total, raw["traced_s"]))
        result = {name: {"value": values[name], "unit": unit}
                  for name, unit in per_layer_spec()}
    for name, v in result.items():
        print("%-44s %16.6f %s" % (name, v["value"], v["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
