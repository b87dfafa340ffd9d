"""Pure statistics for the benchmark: percentiles, latency from the
scheduled send, the rate ladder's max_rate_rps, backlog growth and span
self times. Kept free of I/O so perfbench/tests can check each rule."""

import math

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)

# Serve latencies are summarized per window of this many requests (each
# window's p99 has 10 samples beyond it).
WINDOW = 1000


def percentile(values, p):
    """Nearest-rank percentile (p in [0, 100]) of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of no samples")
    s = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(s)))
    return s[min(rank, len(s)) - 1]


def tail_percentile(n):
    """The highest percentile with at least 10 samples beyond it, or None
    when there are fewer than 20 samples (not even p50 qualifies)."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


def summarize(values):
    """Median plus the highest qualifying tail percentile and the count."""
    if not values:
        return {"n": 0, "p50": 0.0, "tail_p": None, "tail": 0.0}
    tp = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": percentile(values, 50),
        "tail_p": tp,
        "tail": percentile(values, tp) if tp is not None else max(values),
    }


def windows(values, size):
    """Consecutive windows of `size` values (a short tail is dropped
    unless it is the only window)."""
    out = [values[i:i + size] for i in range(0, len(values) - size + 1, size)]
    return out or ([values] if values else [])


def median_percentile(groups, p):
    """Median over groups (passes or windows) of each group's percentile:
    one noisy pass or window cannot move the figure."""
    vals = sorted(percentile(g, p) for g in groups if g)
    if not vals:
        return 0.0
    mid = len(vals) // 2
    return vals[mid] if len(vals) % 2 else (vals[mid - 1] + vals[mid]) / 2.0


def latencies_ms(rung):
    """Per-request latency of the answered requests, measured from the
    scheduled send (not the actual send), in ms."""
    return [(r - s) / 1e6 for s, r in zip(rung["sched_ns"], rung["recv_ns"]) if r]


def lateness_ms(rung):
    """How late the generator sent each request relative to schedule."""
    return [(t - s) / 1e6 for s, t in zip(rung["sched_ns"], rung["sent_ns"]) if t]


def backlog_growing(rung):
    """True when requests outstanding at send time keep growing: the mean
    backlog over the last quarter of sends is more than twice that of the
    second quarter plus four requests."""
    sched, recv = rung["sched_ns"], rung["recv_ns"]
    n = len(sched)
    if n < 8:
        return False
    done = sorted(r if r else math.inf for r in recv)

    def outstanding(i):
        t = sched[i]
        # sent so far (i + 1) minus answered by t
        lo, hi = 0, len(done)
        while lo < hi:
            mid = (lo + hi) // 2
            if done[mid] <= t:
                lo = mid + 1
            else:
                hi = mid
        return (i + 1) - lo

    q = n // 4
    second = sum(outstanding(i) for i in range(q, 2 * q)) / q
    last = sum(outstanding(i) for i in range(3 * q, n)) / (n - 3 * q)
    return last > 2 * second + 4


def rung_passes(rung, limit_ms):
    """A rung meets the limit when every request was answered, the median
    over windows of WINDOW requests of each window's p99 latency from the
    scheduled send is within limit_ms, and the backlog does not grow. An
    unanswered request counts as missing the limit. The windows keep one
    host stall from failing a rung: on a shared 4-core VM, whole-rung p99
    let the selected rung flip between 500, 1000 and 1400/s across ten
    seeds, while the p99 of undisturbed windows stayed under 50 ms."""
    if not rung["sched_ns"] or not all(rung["recv_ns"]):
        return False
    lat = latencies_ms(rung)
    return (median_percentile(windows(lat, WINDOW), 99) <= limit_ms
            and not backlog_growing(rung))


def achieved_rate(rung):
    """Answers per second over the rung, first schedule to last answer."""
    recv = [r for r in rung["recv_ns"] if r]
    if not recv:
        return 0.0
    span = (max(recv) - min(rung["sched_ns"])) / 1e9
    return len(recv) / span if span > 0 else 0.0


def max_rate(rungs, limit_ms):
    """The highest ladder rung such that it and every lower rung meet the
    limit; reported as the throughput achieved on that rung (so the value
    is measured, not the nominal rate). None when even the first fails."""
    best = None
    for rung in sorted(rungs, key=lambda r: r["rate"]):
        if not rung_passes(rung, limit_ms):
            break
        best = rung
    return achieved_rate(best) if best is not None else None


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(spans, root_id):
    """Attributes the root span's wall time to layers.

    spans: iterable of (name, start, end, id, parent, request). At each
    instant the time is split evenly among the deepest open spans (open
    spans with no open child), so parallel children share the wall time
    and the per-layer figures add up to the root's duration exactly.
    Time when only the root is open goes to "unattributed". Returns
    {layer: seconds}."""
    by_id = {s[3]: s for s in spans}
    if root_id not in by_id:
        return {}
    root = by_id[root_id]

    def under_root(s):
        seen = 0
        while s is not None and seen < 64:
            if s[3] == root_id:
                return True
            s = by_id.get(s[4])
            seen += 1
        return False

    inside = [s for s in spans if under_root(s)]
    events = []
    for s in inside:
        a, b = max(s[1], root[1]), min(s[2], root[2])
        if b > a:
            events.append((a, 1, s[3]))
            events.append((b, 0, s[3]))
    events.sort()
    open_ids = set()
    child_count = {}
    out = {}
    prev = None
    for t, kind, sid in events:
        if prev is not None and t > prev and open_ids:
            leaves = [i for i in open_ids if child_count.get(i, 0) == 0]
            dt = (t - prev) / 1e9 / len(leaves)
            for i in leaves:
                layer = "unattributed" if i == root_id else layer_of(by_id[i][0])
                out[layer] = out.get(layer, 0.0) + dt
        prev = t
        parent = by_id[sid][4]
        if kind == 1:
            open_ids.add(sid)
            if parent in open_ids:
                child_count[parent] = child_count.get(parent, 0) + 1
        else:
            open_ids.discard(sid)
            if parent in child_count:
                child_count[parent] -= 1
    return out
