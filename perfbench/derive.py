"""Derivations the benchmark makes from the raw figures bench.exe prints.

Kept apart from run.py so that test_derive.py can check each rule on
small hand-made inputs."""

import math
import statistics

# Percentiles the tail rule may choose from, lowest first.
TAIL_LADDER = (0.5, 0.75, 0.9, 0.99, 0.999, 0.9999)
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank percentile with the convention of Report.percentile:
    index floor(q * (n - 1)) of the sorted samples."""
    if not values:
        raise ValueError("percentile of no samples")
    s = sorted(values)
    return s[int(q * (len(s) - 1))]


def beyond(n, q):
    """Samples that lie above the rank percentile(q) picks out of n."""
    return n - 1 - int(q * (n - 1))


def tail(values):
    """The highest ladder percentile with at least MIN_BEYOND samples
    beyond it: (q, value, n)."""
    n = len(values)
    fits = [q for q in TAIL_LADDER if beyond(n, q) >= MIN_BEYOND]
    if not fits:
        raise ValueError(f"{n} samples leave no percentile with {MIN_BEYOND} beyond it")
    q = fits[-1]
    return q, percentile(values, q), n


def mean_from_sum(total, count):
    """Histogram mean from its exact sum and count (not a bucket bound)."""
    if count <= 0:
        raise ValueError("mean of an empty histogram")
    return total / count


def ratio(num, den, name):
    """num / den; callers record both in the record's info as its base."""
    if den <= 0:
        raise ValueError(f"{name}: base is {den}")
    return num / den


def normalized(intervals, probes, full_speed_s, elasticity=1.0, smooth=2):
    """Seconds each (start, end) interval would take at full host speed.

    probes: (start, end, timed seconds) of the reference probe that ran
    inside and around the intervals.  Time spent in a probe is not counted.
    Each stretch between two probes is scaled by (full_speed_s / p) **
    elasticity, where p is the probe time there: the mean of its two
    neighbours, each the median of the probes within `smooth` of it.
    Before the first probe and after the last, the nearest one counts.
    elasticity < 1 when the timed code slows less than the probe does."""
    ps = sorted(probes)
    if not ps:
        raise ValueError("no reference probe")
    d = [p[2] for p in ps]
    speed = [statistics.median(d[max(0, i - smooth):i + smooth + 1]) for i in range(len(ps))]
    stretches = []
    for i in range(len(ps) + 1):
        lo = ps[i - 1][1] if i > 0 else -math.inf
        hi = ps[i][0] if i < len(ps) else math.inf
        s = (speed[max(0, i - 1)] + speed[min(i, len(ps) - 1)]) / 2
        stretches.append((lo, hi, (full_speed_s / s) ** elasticity))
    return [sum(max(0.0, min(b, hi) - max(a, lo)) * f for lo, hi, f in stretches)
            for a, b in intervals]


def failed_frac(submitted, applied):
    """Share of submitted payments that were never applied."""
    return ratio(submitted - applied, submitted, "tx_failed_frac")


# Outcome fields two runs of one seed must agree on, traced or not.
AGREE = ("ledgers_closed", "txs_applied", "bytes_out_node0", "head_node0")


def gate(runs, faults, traced):
    """Correctness checks over every scenario run of one benchmark call.

    runs: outcome dicts of all runs of one seed (measured and the other).
    faults: whether the workload injects faults.
    traced: telemetry of the traced run.
    Returns (failed_runs, problems)."""
    problems = []
    failed = 0
    for i, o in enumerate(runs):
        bad = []
        if o["diverged"]:
            bad.append("validators diverged")
        if o["txs_applied"] <= 0:
            bad.append("no transaction applied")
        if faults and not o["converged"]:
            bad.append("validators did not converge after the faults")
        if bad:
            failed += 1
            problems += [f"run {i}: {b}" for b in bad]
    for k in AGREE:
        if len({o[k] for o in runs}) > 1:
            problems.append(f"runs of one seed disagree on {k}: {[o[k] for o in runs]}")
    if faults:
        if traced["heals"] < 1:
            problems.append("the partition heal left no trace")
        if not traced["recover_s"] or any(r is None for r in traced["recover_s"]):
            problems.append("a node never resynced after a restart or heal")
    lat = traced["tx_latency_s"]
    if len(lat) != traced["e2e_n"] or (lat and percentile(lat, 0.5) != traced["e2e_p50_s"]):
        problems.append("tx latency samples disagree with Report.e2e_latency")
    return failed, problems
