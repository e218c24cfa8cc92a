#!/usr/bin/env python3
"""Wall-clock benchmark of the simulator.

    python3 perfbench/run.py --workload tiered|payments|faults \
        [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/bench.exe from the source tree it sits in, pins itself and
its children to one CPU, then, for one workload and seed:

  1. times the workload's set-up (topology, genesis ledger, bucket list),
     before the runs below and again after them;
  2. runs Scenario.run in fresh processes, back to back, for about S
     seconds (at least once, and no run started that would end past S):
     the measured runs;
  3. runs the same seed once more with tracing flipped (on for tiered and
     payments, off for faults, whose measured runs trace), and with
     --trace 1 times the per-layer probes on the traced process.

Every timed call runs beside the host-speed reference probe of bench.ml,
and its time is scaled to full host speed (derive.normalized).

Every run goes through the correctness gate in derive.gate.  The output is
one JSON record per call with every metric named and the seed and source
revision, then, on the last line, the result object: end-to-end metrics
with --trace 0, per-layer metrics with --trace 1.  See README.md there."""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import derive  # noqa: E402

BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "bench.exe")
SETUP_SECONDS = 1.5
# The reference probe's timed part at full host speed (2.1 GHz Xeon VM):
# normalized times are the seconds a call takes when the probe takes this.
FULL_SPEED_PROBE_S = 0.00109
# The simulator slows by the probe's slowdown to this power (fitted on
# fixed-seed runs of all three workloads; see README.md).
ELASTICITY = 0.8
RUN_TIMEOUT = 150

# measured runs trace only where tracing is part of the workload
WORKLOADS = {
    "tiered": {"observe": False, "faults": False, "seed": 1},
    "payments": {"observe": False, "faults": False, "seed": 1},
    "faults": {"observe": True, "faults": True, "seed": 17},
}

E2E_UNITS = {
    "setup_s": "s",
    "norm_wall_s": "s",
    "peak_heap_mib": "MiB",
    "tx_applied_frac": "frac",
    "close_latency_p50_ms": "ms",
    "bytes_per_ledger": "bytes",
}

# Printed in every record but not in the result: across seeds they spread
# too widely to gate (raw host times follow the host's speed), or read 0
# where nothing fails (see README.md).
RECORD_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "tx_failed_frac": "frac",
    "tx_latency_p50_ms": "ms",
    "tx_latency_tail_ms": "ms",
    "recover_max_ms": "ms",
}

LAYER_UNITS = {
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.event_ns": "ns",
    "overlay.deliveries": "count",
    "overlay.bytes": "bytes",
    "overlay.dup_frac": "frac",
    "overlay.straggler_helps": "count",
    "xdr.encode_ns_per_kib": "ns/KiB",
    "xdr.decode_ns_per_kib": "ns/KiB",
    "crypto.sha256_ns_per_kib": "ns/KiB",
    "crypto.sigverify_us": "us",
    "scp.statements": "count",
    "scp.timeouts": "count",
    "scp.quorum_check_us": "us",
    "herder.txq_add_us": "us",
    "herder.candidates_ms": "ms",
    "ledger.closes": "count",
    "ledger.apply_ms_mean": "ms",
    "ledger.apply_tx_set_ms": "ms",
    "bucket.merges": "count",
    "bucket.add_batch_ms": "ms",
    "archive.replayed_ledgers": "count",
    "fault.restarts": "count",
    "obs.trace_events": "count",
    "obs.report_s": "s",
    "obs.overhead_s": "s",
    "obs.heap_mib": "MiB",
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail(f"no simulator sources next to {HERE}")
    # --cache=disabled: dune's shared cache lives outside the checkout
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--cache=disabled",
         "./perfbench/bench.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def bench(*args):
    with subprocess.Popen([EXE, *map(str, args)], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as p:
        try:
            out, err = p.communicate(timeout=RUN_TIMEOUT)
        except BaseException:
            # a timeout, or run.py itself being stopped: stop the child too
            p.kill()
            p.wait()
            raise
    if p.returncode != 0:
        sys.stderr.write(err)
        fail(f"bench.exe {' '.join(map(str, args))} exited with {p.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def revision():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if r.returncode == 0:
            return "git:" + r.stdout.strip()
    except OSError:
        pass
    # not a git checkout: name the sources by their content
    h = hashlib.sha256()
    for top in ("lib", "perfbench", "dune-project"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if f.endswith((".ml", ".mli", "dune", "dune-project", ".py")):
                h.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return "src:" + h.hexdigest()[:16]


def norm_s(run):
    """Normalized seconds of one bench.exe run's timed interval."""
    return derive.normalized([run["interval"]], run["reference"], FULL_SPEED_PROBE_S, ELASTICITY)[0]


def setup_samples(name):
    r = bench("setup", "--workload", name, "--seconds", SETUP_SECONDS)
    return derive.normalized(r["setup_reps"], r["reference"], FULL_SPEED_PROBE_S, ELASTICITY)


def measure(name, seed, seconds, trace):
    wl = WORKLOADS[name]
    # set-up is timed before and after the runs, so that its median spans
    # the call rather than one moment of the shared host
    setup = setup_samples(name)
    observe = int(wl["observe"])
    # the traced process also times the probes; for faults that is the first measured run
    probe_first = trace and wl["observe"]
    measured = []
    t0 = time.monotonic()
    last = 0.0
    while not measured or time.monotonic() - t0 + last < seconds:
        extra = ["--probes"] if probe_first and not measured else []
        t1 = time.monotonic()
        measured.append(bench("run", "--workload", name, "--seed", seed, "--observe", observe, *extra))
        last = time.monotonic() - t1
    extra = ["--probes"] if trace and not wl["observe"] else []
    other = bench("run", "--workload", name, "--seed", seed, "--observe", 1 - observe, *extra)
    setup += setup_samples(name)
    traced_run = measured[0] if wl["observe"] else other
    untraced_run = other if wl["observe"] else measured[0]
    return setup, measured, other, traced_run, untraced_run


def metrics(name, setup, measured, other, traced_run, untraced_run):
    wl = WORKLOADS[name]
    tel = traced_run["telemetry"]
    c = tel["counters"]
    o = measured[0]["outcome"]
    walls = [m["wall_s"] for m in measured]
    cpus = [m["cpu_s"] for m in measured]
    norms = [norm_s(m) for m in measured]
    norm = statistics.median(norms)
    q_tail, tail_v, n_tail = derive.tail(tel["tx_latency_s"])
    e2e = {
        "setup_s": statistics.median(setup),
        "norm_wall_s": norm,
        "peak_heap_mib": statistics.median([m["peak_heap_mib"] for m in measured]),
        "tx_applied_frac": derive.ratio(o["txs_applied"], o["txs_submitted"], "tx_applied_frac"),
        "close_latency_p50_ms": 1e3 * derive.percentile(tel["close_latency_s"], 0.5),
        "bytes_per_ledger": derive.ratio(c["overlay.bytes.sent"], c["ledger.closed"], "bytes_per_ledger"),
    }
    recover = [r for r in tel["recover_s"] if r is not None]
    record = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "tx_failed_frac": derive.failed_frac(o["txs_submitted"], o["txs_applied"]),
        "tx_latency_p50_ms": 1e3 * derive.percentile(tel["tx_latency_s"], 0.5),
        "tx_latency_tail_ms": 1e3 * tail_v,
        # no fault, nothing to recover from: 0
        "recover_max_ms": 1e3 * max(recover) if recover else 0.0,
    }
    info = {
        "tx_failed": {"num": o["txs_submitted"] - o["txs_applied"], "den": o["txs_submitted"]},
        "tx_latency_tail_percentile": q_tail,
        "tx_latency_n": n_tail,
        "close_latency_n": len(tel["close_latency_s"]),
        "bytes_per_ledger_base": {"bytes": c["overlay.bytes.sent"], "closes": c["ledger.closed"]},
        "measured_runs": len(measured),
        "wall_s_runs": walls,
        "cpu_s_runs": cpus,
        "norm_wall_s_runs": norms,
        # host slowdown the reference read: median probe over full speed
        "host_slowdown_runs": [statistics.median(p[2] for p in m["reference"]) / FULL_SPEED_PROBE_S
                               for m in measured],
        "setup_s_reps": len(setup),
    }
    layer = None
    if "probes" in traced_run:
        p = traced_run["probes"]
        deliveries = c["overlay.msgs.received"]
        layer = {
            "sim.events": c["sim.events.fired"],
            "sim.events_per_s": c["sim.events.fired"] / norm,
            "sim.event_ns": p["sim.event_ns"],
            "overlay.deliveries": deliveries,
            "overlay.bytes": c["overlay.bytes.sent"],
            "overlay.dup_frac": derive.ratio(c["flood.dup_dropped"], deliveries, "overlay.dup_frac"),
            "overlay.straggler_helps": c["flood.straggler_helped"],
            "xdr.encode_ns_per_kib": p["xdr.encode_ns_per_kib"],
            "xdr.decode_ns_per_kib": p["xdr.decode_ns_per_kib"],
            "crypto.sha256_ns_per_kib": p["crypto.sha256_ns_per_kib"],
            "crypto.sigverify_us": p["crypto.sigverify_us"],
            "scp.statements": sum(c[k] for k in ("scp.nominate.recv", "scp.ballot.prepare",
                                                 "scp.ballot.confirm", "scp.ballot.externalize")),
            "scp.timeouts": c["scp.timeout.nomination"] + c["scp.timeout.ballot"],
            "scp.quorum_check_us": p["scp.quorum_check_us"],
            "herder.txq_add_us": p["herder.txq_add_us"],
            "herder.candidates_ms": p["herder.candidates_ms"],
            "ledger.closes": c["ledger.closed"],
            "ledger.apply_ms_mean": derive.mean_from_sum(tel["apply_ms_sum"], tel["apply_ms_count"]),
            "ledger.apply_tx_set_ms": p["ledger.apply_tx_set_ms"],
            "bucket.merges": c["bucket.merge"] + c["bucket.spill"],
            "bucket.add_batch_ms": p["bucket.add_batch_ms"],
            "archive.replayed_ledgers": tel["replayed_ledgers"],
            "fault.restarts": c["fault.restarts"],
            "obs.trace_events": tel["trace_events"],
            "obs.report_s": tel["report_s"],
            "obs.overhead_s": norm_s(traced_run) - norm_s(untraced_run),
            "obs.heap_mib": traced_run["peak_heap_mib"] - untraced_run["peak_heap_mib"],
        }
        info["dup_dropped"] = c["flood.dup_dropped"]
        info["probe_bytes"] = p["probe_bytes"]
        info["probe_depth"] = p["probe_depth"]
    runs = [m["outcome"] for m in measured] + [other["outcome"]]
    failed, problems = derive.gate(runs, wl["faults"], tel)
    return e2e, record, layer, info, len(runs), failed, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    seed = WORKLOADS[a.workload]["seed"] if a.seed is None else a.seed
    build()
    # Measure on one CPU: the host slows each CPU on its own, so runs that
    # migrate between CPUs vary more.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    setup, measured, other, traced_run, untraced_run = measure(a.workload, seed, a.seconds, a.trace == 1)
    e2e, record, layer, info, attempted, failed, problems = metrics(
        a.workload, setup, measured, other, traced_run, untraced_run)
    for p in problems:
        print(f"perfbench: INCORRECT: {p}", file=sys.stderr)
    named = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    named.update({k: {"value": v, "unit": RECORD_UNITS[k]} for k, v in record.items()})
    if layer is not None:
        named.update({k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layer.items()})
    print(json.dumps({"record": {"workload": a.workload, "seed": seed, "rev": revision(),
                                 "trace": a.trace, "metrics": named, "info": info}}))
    shown = layer if a.trace == 1 else e2e
    units = LAYER_UNITS if a.trace == 1 else E2E_UNITS
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items()},
    }))
    sys.exit(0 if not problems else 1)


if __name__ == "__main__":
    main()
