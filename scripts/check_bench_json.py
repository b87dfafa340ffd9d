#!/usr/bin/env python3
"""Schema check for BENCH_*.json perf records (see docs/PERFORMANCE.md).

Usage: check_bench_json.py [--require-win] [--require-multithread] \\
           FILE [FILE ...]

Each record self-identifies through its "benchmark" key — "gnn_perf"
(written by perf_gnn) and "serve_throughput" (written by
serve_throughput) are understood. Validates structure only — a
malformed record fails (exit 1), slow numbers do not. CI runs this on
artifacts produced by the --quick bench modes so the smoke jobs gate on
"the harness still writes a well-formed record", never on machine
speed. The one exception is --require-win: applied to a
serve_throughput record it additionally requires
batched_vs_single_speedup >= 1, which CI asserts for the committed
BENCH_serve.json (the record exists to show batched admission beating
one-at-a-time dispatch) but not for throwaway smoke artifacts.
--require-multithread, applied to a gnn_perf record, requires
config.effective_threads >= 2 — the committed BENCH_gnn.json must be
recorded with a real multi-thread pool, never a requested-but-unused
--threads knob.

Every bench record must report config.effective_threads — the pool
width the run ACTUALLY used (ml::kernels::effective_threads), not the
requested --threads value; a record claiming threads it did not have is
malformed.

Correctness gates (prediction agreement, verdict mismatches) always
apply: a record whose speedup changed answers is
malformed, not fast.
"""
import json
import sys

REQUIRED_PHASES = (
    "encode",
    "train_baseline",
    "train_batched",
    "infer_baseline",
    "infer_batched",
)

# The per-op profiling counter names perf_gnn emits (ml/kernels.hpp),
# one row each.
OP_NAMES = (
    "matmul", "matmul_nt", "matmul_tn", "bias_elu", "gatv2_scores",
    "scatter_add_scaled", "gather_rows", "segment_softmax",
)


def fail(path, msg):
    print(f"{path}: MALFORMED: {msg}")
    return 1


def is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def check_file(path, require_win=False, require_multithread=False):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"unreadable or not JSON: {e}")

    if not isinstance(doc, dict):
        return fail(path, "top level is not an object")
    kind = doc.get("benchmark")
    # gnn_perf is at schema 3: schema 2 added effective-thread honesty
    # and op counters, schema 3 removed the int8 inference phase and its op row.
    # The other records are still at 1.
    expected_schema = 3 if kind == "gnn_perf" else 1
    if doc.get("schema_version") != expected_schema:
        return fail(path, f"unknown schema_version {doc.get('schema_version')!r}"
                          f" for {kind!r} (expected {expected_schema})")
    if kind == "gnn_perf":
        return check_gnn_perf(path, doc, require_multithread)
    if kind == "serve_throughput":
        return check_serve_throughput(path, doc, require_win)
    if kind == "corpus_stream":
        return check_corpus_stream(path, doc, require_win)
    return fail(path, f"unknown benchmark kind: {kind!r}")


def check_gnn_perf(path, doc, require_multithread):
    dataset = doc.get("dataset")
    if not isinstance(dataset, dict) or not isinstance(dataset.get("name"), str):
        return fail(path, "dataset.name missing")
    if not (is_number(dataset.get("cases")) and dataset["cases"] >= 1):
        return fail(path, "dataset.cases missing or < 1")

    config = doc.get("config")
    if not isinstance(config, dict):
        return fail(path, "config missing")
    for key in ("warmup", "reps", "train_batch", "infer_batch", "epochs"):
        if not is_number(config.get(key)):
            return fail(path, f"config.{key} missing or not a number")
    # Bench honesty: the record must report the pool width actually used.
    eff = config.get("effective_threads")
    if not (is_number(eff) and eff >= 1):
        return fail(path, "config.effective_threads missing or < 1")
    if not isinstance(config.get("simd"), str) or not config["simd"]:
        return fail(path, "config.simd missing")
    if require_multithread and eff < 2:
        return fail(path, f"config.effective_threads {eff} < 2 — the "
                          "committed record must be recorded on a "
                          "multi-thread pool (--require-multithread)")

    phases = doc.get("phases")
    if not isinstance(phases, list) or not phases:
        return fail(path, "phases missing or empty")
    seen = {}
    for i, phase in enumerate(phases):
        if not isinstance(phase, dict):
            return fail(path, f"phases[{i}] is not an object")
        name = phase.get("name")
        if not isinstance(name, str) or not name:
            return fail(path, f"phases[{i}].name missing")
        if phase.get("unit") != "ms":
            return fail(path, f"phase {name}: unit != 'ms'")
        samples = phase.get("samples")
        if not isinstance(samples, list) or not samples:
            return fail(path, f"phase {name}: samples missing or empty")
        if not all(is_number(s) and s >= 0 for s in samples):
            return fail(path, f"phase {name}: non-numeric or negative sample")
        if len(samples) != config["reps"]:
            return fail(
                path,
                f"phase {name}: {len(samples)} samples != reps {config['reps']}",
            )
        for stat in ("median", "p90"):
            if not (is_number(phase.get(stat)) and phase[stat] >= 0):
                return fail(path, f"phase {name}: {stat} missing or negative")
        if phase["p90"] + 1e-9 < phase["median"]:
            return fail(path, f"phase {name}: p90 < median")
        if not (min(samples) - 1e-9 <= phase["median"] <= max(samples) + 1e-9):
            return fail(path, f"phase {name}: median outside sample range")
        seen[name] = phase
    for name in REQUIRED_PHASES:
        if name not in seen:
            return fail(path, f"required phase '{name}' missing")

    speedup = doc.get("speedup")
    if not isinstance(speedup, dict):
        return fail(path, "speedup missing")
    for key in ("train", "infer"):
        if not (is_number(speedup.get(key)) and speedup[key] > 0):
            return fail(path, f"speedup.{key} missing or not positive")

    equivalence = doc.get("equivalence")
    if not isinstance(equivalence, dict):
        return fail(path, "equivalence missing")
    diff = equivalence.get("max_abs_proba_diff")
    if not is_number(diff):
        return fail(path, "equivalence.max_abs_proba_diff missing")
    agreement = equivalence.get("prediction_agreement")
    if not (is_number(agreement) and 0.0 <= agreement <= 1.0):
        return fail(path, "equivalence.prediction_agreement outside [0, 1]")
    # The invariant the record exists to prove: batching and kernel
    # blocking must not change predictions. This is a correctness gate,
    # not a speed gate.
    if agreement < 1.0:
        return fail(path, f"prediction_agreement {agreement} < 1.0 — "
                          "batched inference diverged from baseline")
    if diff > 1e-6:
        return fail(path, f"max_abs_proba_diff {diff} > 1e-6")

    counters = doc.get("op_counters")
    if not isinstance(counters, list) or len(counters) != len(OP_NAMES):
        return fail(path, f"op_counters missing or not {len(OP_NAMES)} rows")
    seen_ops = set()
    for i, c in enumerate(counters):
        if not isinstance(c, dict) or not isinstance(c.get("op"), str):
            return fail(path, f"op_counters[{i}].op missing")
        for key in ("calls", "flops", "ns"):
            if not (is_number(c.get(key)) and c[key] >= 0):
                return fail(path, f"op_counters[{i}].{key} missing or negative")
        seen_ops.add(c["op"])
    for name in OP_NAMES:
        if name not in seen_ops:
            return fail(path, f"op_counters missing op '{name}'")

    print(
        f"{path}: OK ({dataset['name']}, {dataset['cases']} cases, "
        f"train {speedup['train']:.2f}x, infer {speedup['infer']:.2f}x, "
        f"agreement {agreement:.3f}, "
        f"{eff:.0f} effective thread(s), simd {config['simd']})"
    )
    return 0


def check_serve_throughput(path, doc, require_win):
    dataset = doc.get("dataset")
    if not isinstance(dataset, dict) or not isinstance(dataset.get("spec"), str):
        return fail(path, "dataset.spec missing")
    if not (is_number(dataset.get("cases")) and dataset["cases"] >= 1):
        return fail(path, "dataset.cases missing or < 1")

    config = doc.get("config")
    if not isinstance(config, dict):
        return fail(path, "config missing")
    for key in ("clients", "requests_per_client", "queue_capacity", "reps"):
        if not (is_number(config.get(key)) and config[key] >= 1):
            return fail(path, f"config.{key} missing or < 1")
    if not isinstance(config.get("detector"), str) or not config["detector"]:
        return fail(path, "config.detector missing")
    if not (is_number(config.get("effective_threads"))
            and config["effective_threads"] >= 1):
        return fail(path, "config.effective_threads missing or < 1")

    sweep = doc.get("sweep")
    if not isinstance(sweep, list) or len(sweep) < 2:
        return fail(path, "sweep missing or has fewer than 2 points")
    expected = config["clients"] * config["requests_per_client"]
    seen_windows = set()
    single = None
    for i, point in enumerate(sweep):
        if not isinstance(point, dict):
            return fail(path, f"sweep[{i}] is not an object")
        for key in ("max_batch", "requests", "wall_ms", "throughput_rps",
                    "batches", "max_coalesced", "busy_retries"):
            if not (is_number(point.get(key)) and point[key] >= 0):
                return fail(path, f"sweep[{i}].{key} missing or negative")
        if point["max_batch"] < 1 or point["max_batch"] in seen_windows:
            return fail(path, f"sweep[{i}].max_batch invalid or duplicated")
        seen_windows.add(point["max_batch"])
        if point["requests"] != expected:
            return fail(
                path,
                f"sweep[{i}].requests {point['requests']} != "
                f"clients*requests_per_client {expected}",
            )
        if point["wall_ms"] <= 0 or point["throughput_rps"] <= 0:
            return fail(path, f"sweep[{i}]: wall_ms/throughput_rps not positive")
        if point["max_coalesced"] > point["max_batch"]:
            return fail(path, f"sweep[{i}]: max_coalesced exceeds max_batch")
        lat = point.get("latency_ms")
        if not isinstance(lat, dict):
            return fail(path, f"sweep[{i}].latency_ms missing")
        for q in ("p50", "p90", "p99"):
            if not (is_number(lat.get(q)) and lat[q] >= 0):
                return fail(path, f"sweep[{i}].latency_ms.{q} missing")
        if not (lat["p50"] <= lat["p90"] + 1e-9 and
                lat["p90"] <= lat["p99"] + 1e-9):
            return fail(path, f"sweep[{i}]: percentiles not monotone")
        if point["max_batch"] == 1:
            single = point
    if single is None:
        return fail(path, "sweep has no max_batch=1 baseline point")

    speedup = doc.get("batched_vs_single_speedup")
    if not (is_number(speedup) and speedup > 0):
        return fail(path, "batched_vs_single_speedup missing or not positive")
    best = max(p["throughput_rps"] / single["throughput_rps"]
               for p in sweep if p["max_batch"] > 1)
    # The emitter prints 6 significant digits, so compare loosely.
    if abs(speedup - best) > 1e-4 * max(speedup, best):
        return fail(
            path,
            f"batched_vs_single_speedup {speedup} does not match sweep "
            f"(best batched / single = {best})",
        )

    # Optional --fault-sweep axis: latency under injected recoverable
    # transport faults. Rates must ascend from a clean 0% baseline, and
    # a non-zero rate that fired no faults means the injection never
    # actually ran — a malformed record, not a resilient server.
    fault_sweep = doc.get("fault_sweep")
    if fault_sweep is not None:
        if not isinstance(fault_sweep, list) or len(fault_sweep) < 2:
            return fail(path, "fault_sweep present but has fewer than 2 points")
        prev_rate = -1.0
        for i, point in enumerate(fault_sweep):
            if not isinstance(point, dict):
                return fail(path, f"fault_sweep[{i}] is not an object")
            rate = point.get("fault_rate")
            if not (is_number(rate) and 0.0 <= rate <= 1.0):
                return fail(path, f"fault_sweep[{i}].fault_rate outside [0, 1]")
            if rate <= prev_rate:
                return fail(path, f"fault_sweep[{i}]: rates not ascending")
            prev_rate = rate
            for key in ("requests", "wall_ms", "throughput_rps",
                        "faults_fired", "busy_retries"):
                if not (is_number(point.get(key)) and point[key] >= 0):
                    return fail(path,
                                f"fault_sweep[{i}].{key} missing or negative")
            if point["requests"] != expected:
                return fail(
                    path,
                    f"fault_sweep[{i}].requests {point['requests']} != "
                    f"clients*requests_per_client {expected}",
                )
            if point["wall_ms"] <= 0 or point["throughput_rps"] <= 0:
                return fail(path, f"fault_sweep[{i}]: wall_ms/throughput_rps "
                                  "not positive")
            lat = point.get("latency_ms")
            if not isinstance(lat, dict):
                return fail(path, f"fault_sweep[{i}].latency_ms missing")
            for q in ("p50", "p90", "p99"):
                if not (is_number(lat.get(q)) and lat[q] >= 0):
                    return fail(path, f"fault_sweep[{i}].latency_ms.{q} missing")
            if not (lat["p50"] <= lat["p90"] + 1e-9 and
                    lat["p90"] <= lat["p99"] + 1e-9):
                return fail(path, f"fault_sweep[{i}]: percentiles not monotone")
            if rate == 0.0 and point["faults_fired"] != 0:
                return fail(path, f"fault_sweep[{i}]: clean baseline fired "
                                  f"{point['faults_fired']} faults")
            if rate > 0.0 and point["faults_fired"] == 0:
                return fail(path, f"fault_sweep[{i}]: rate {rate} fired no "
                                  "faults — injection never ran")
        if fault_sweep[0]["fault_rate"] != 0.0:
            return fail(path, "fault_sweep has no 0% baseline point")

    mismatches = doc.get("verdict_mismatches")
    if not is_number(mismatches):
        return fail(path, "verdict_mismatches missing")
    # The invariant the record exists to prove: coalescing must not
    # change answers. Correctness gate, not a speed gate.
    if mismatches != 0:
        return fail(path, f"verdict_mismatches {mismatches} != 0 — "
                          "batched serving diverged from the local bundle")
    if require_win and speedup < 1.0:
        return fail(path, f"batched_vs_single_speedup {speedup} < 1 — "
                          "the committed record must show batched admission "
                          "beating one-at-a-time dispatch")

    fault_note = (
        f", fault sweep {len(fault_sweep)} rates" if fault_sweep else ""
    )
    print(
        f"{path}: OK ({config['detector']} on {dataset['spec']}, "
        f"{len(sweep)} windows x {expected} requests, "
        f"batched vs single {speedup:.2f}x, 0 mismatches{fault_note})"
    )
    return 0


def check_corpus_stream(path, doc, require_win):
    config = doc.get("config")
    if not isinstance(config, dict):
        return fail(path, "config missing")
    for key in ("runs", "shard_mb", "window"):
        if not (is_number(config.get(key)) and config[key] >= 1):
            return fail(path, f"config.{key} missing or < 1")
    if not isinstance(config.get("detector"), str) or not config["detector"]:
        return fail(path, "config.detector missing")
    if not isinstance(config.get("quick"), bool):
        return fail(path, "config.quick missing or not a bool")

    ingest = doc.get("ingest")
    if not isinstance(ingest, dict):
        return fail(path, "ingest missing")
    for key in ("cases", "shards", "bytes", "wall_seconds",
                "cases_per_second"):
        if not (is_number(ingest.get(key)) and ingest[key] > 0):
            return fail(path, f"ingest.{key} missing or not positive")
    if ingest["cases"] < config["runs"]:
        return fail(path, f"ingest.cases {ingest['cases']} < config.runs "
                          f"{config['runs']}")

    verify = doc.get("verify")
    if not isinstance(verify, dict):
        return fail(path, "verify missing")
    for key in ("cases", "wall_seconds", "cases_per_second",
                "peak_rss_bytes", "rss_over_corpus"):
        if not (is_number(verify.get(key)) and verify[key] > 0):
            return fail(path, f"verify.{key} missing or not positive")
    if verify["cases"] != ingest["cases"]:
        return fail(path, f"verify.cases {verify['cases']} != ingest.cases "
                          f"{ingest['cases']} — the decode pass lost cases")

    eval_ = doc.get("eval")
    if not isinstance(eval_, dict):
        return fail(path, "eval missing")
    for key in ("cases", "in_memory_seconds", "streamed_seconds", "overhead"):
        if not (is_number(eval_.get(key)) and eval_[key] > 0):
            return fail(path, f"eval.{key} missing or not positive")
    # The invariant the record exists to prove: streaming must not
    # change a single verdict. Correctness gate, not a speed gate.
    if eval_.get("verdicts_identical") is not True:
        return fail(path, "eval.verdicts_identical != true — streamed sweep "
                          "diverged from the in-memory baseline")

    # The committed record's scale claim: the reader's peak residency is
    # bounded by a shard, so a corpus several times larger than the
    # window must not be matched by RSS. Meaningless for --quick runs,
    # where the process floor dwarfs the tiny corpus.
    if require_win:
        if config["quick"]:
            return fail(path, "--require-win on a --quick record (the RSS "
                              "ceiling only means something at full scale)")
        if ingest["cases"] < 50_000:
            return fail(path, f"ingest.cases {ingest['cases']} < 50000 — the "
                              "committed record must prove the 50k-case scale")
        if verify["rss_over_corpus"] >= 0.5:
            return fail(path, f"rss_over_corpus {verify['rss_over_corpus']} "
                              ">= 0.5 — peak RSS is not well below the "
                              "corpus size")

    print(
        f"{path}: OK ({ingest['cases']:.0f} cases / {ingest['shards']:.0f} "
        f"shards, ingest {ingest['cases_per_second']:.0f}/s, verify "
        f"{verify['cases_per_second']:.0f}/s, RSS "
        f"{verify['rss_over_corpus']:.2f}x corpus, eval overhead "
        f"{eval_['overhead']:.2f}x, verdicts identical)"
    )
    return 0


def main(argv):
    args = argv[1:]
    require_win = "--require-win" in args
    require_multithread = "--require-multithread" in args
    flags = ("--require-win", "--require-multithread")
    files = [a for a in args if a not in flags]
    if not files:
        print(__doc__)
        return 2
    return max(check_file(p, require_win, require_multithread) for p in files)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
