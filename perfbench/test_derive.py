"""Tests of the benchmark's own derivations.

    python3 -m unittest discover -s perfbench
"""

import copy
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import derive  # noqa: E402
import run  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank_matches_report_percentile(self):
        # Report.percentile picks index floor(q * (n - 1)) of the sorted samples
        v = [10, 1, 9, 2, 8, 3, 7, 4, 6, 5]
        self.assertEqual(derive.percentile(v, 0.5), 5)
        self.assertEqual(derive.percentile(v, 0.99), 9)
        self.assertEqual(derive.percentile(v, 1.0), 10)

    def test_tail_keeps_ten_samples_beyond(self):
        cases = {20: 0.5, 40: 0.75, 100: 0.9, 900: 0.9, 1000: 0.99, 10_000: 0.999}
        for n, q in cases.items():
            got_q, value, got_n = derive.tail(list(range(n)))
            self.assertEqual((got_q, got_n), (q, n), n)
            self.assertEqual(value, derive.percentile(list(range(n)), q))
            self.assertGreaterEqual(sum(1 for x in range(n) if x > value), derive.MIN_BEYOND)

    def test_tail_of_too_few_samples_fails(self):
        with self.assertRaises(ValueError):
            derive.tail(list(range(15)))


class Ratios(unittest.TestCase):
    def test_apply_mean_is_sum_over_count_not_a_bucket_bound(self):
        # three closes of 4.2, 4.4 and 4.9 ms all fall in the histogram's
        # (2.5, 5] bucket, whose p50 estimate is a bound, not a measurement
        self.assertAlmostEqual(derive.mean_from_sum(4.2 + 4.4 + 4.9, 3), 4.5)
        with self.assertRaises(ValueError):
            derive.mean_from_sum(0.0, 0)

    def test_failed_frac(self):
        self.assertAlmostEqual(derive.failed_frac(3789, 3277), 512 / 3789)
        self.assertEqual(derive.failed_frac(10, 10), 0.0)
        with self.assertRaises(ValueError):
            derive.failed_frac(0, 0)


class Normalized(unittest.TestCase):
    # probes of 1 ms at 0.0, 1.0 and 2.0 s
    @staticmethod
    def probes(d):
        return [(t, t + 0.001, d) for t in (0.0, 1.0, 2.0)]

    def test_full_speed_counts_time_outside_probes(self):
        got = derive.normalized([(0.0, 2.001), (0.5, 0.75)], self.probes(0.002), 0.002)
        self.assertAlmostEqual(got[0], 2.001 - 0.003)
        self.assertAlmostEqual(got[1], 0.25)

    def test_slow_probe_scales_by_elasticity(self):
        iv = [(0.001, 1.0)]
        self.assertAlmostEqual(derive.normalized(iv, self.probes(0.004), 0.002)[0], 0.999 / 2)
        self.assertAlmostEqual(derive.normalized(iv, self.probes(0.004), 0.002, elasticity=0.5)[0],
                               0.999 / 2 ** 0.5)

    def test_speed_is_a_median_of_neighbouring_probes(self):
        # one outlier probe among five does not move the scale
        ps = [(t, t + 0.001, 0.002) for t in (0.0, 1.0, 2.0, 3.0, 4.0)]
        ps[2] = (2.0, 2.001, 0.05)
        self.assertAlmostEqual(derive.normalized([(1.001, 2.0)], ps, 0.002)[0], 0.999)

    def test_time_before_and_after_probes_uses_the_nearest(self):
        got = derive.normalized([(-1.0, 0.0), (2.001, 3.001)], self.probes(0.004), 0.002)
        self.assertAlmostEqual(got[0], 0.5)
        self.assertAlmostEqual(got[1], 0.5)

    def test_no_probe_fails(self):
        with self.assertRaises(ValueError):
            derive.normalized([(0.0, 1.0)], [], 0.002)


def outcome(**kw):
    o = {"ledgers_closed": 8, "txs_submitted": 100, "txs_applied": 90, "bytes_out_node0": 5000,
         "head_node0": "ab", "diverged": False, "converged": True}
    o.update(kw)
    return o


def telemetry():
    lat = [float(i) for i in range(1, 101)]
    return {
        "counters": {"sim.events.fired": 1000, "overlay.msgs.received": 400, "overlay.bytes.sent": 64_000,
                     "flood.dup_dropped": 300, "flood.straggler_helped": 2, "scp.nominate.recv": 1,
                     "scp.ballot.prepare": 2, "scp.ballot.confirm": 3, "scp.ballot.externalize": 4,
                     "scp.timeout.nomination": 5, "scp.timeout.ballot": 6, "ledger.closed": 32,
                     "bucket.merge": 32, "bucket.spill": 4, "fault.restarts": 2},
        "apply_ms_count": 4, "apply_ms_sum": 10.0, "trace_events": 999,
        "replayed_ledgers": 3, "report_s": 0.5, "tx_latency_s": lat, "e2e_n": 100,
        "e2e_p50_s": derive.percentile(lat, 0.5), "close_latency_s": [0.5, 0.25, 1.0],
        "recover_s": [2.0, 4.0], "heals": 1,
    }


PROBES = {k: 1.0 for k in ("sim.event_ns", "xdr.encode_ns_per_kib", "xdr.decode_ns_per_kib",
                           "crypto.sha256_ns_per_kib", "crypto.sigverify_us", "scp.quorum_check_us",
                           "herder.txq_add_us", "herder.candidates_ms", "ledger.apply_tx_set_ms",
                           "bucket.add_batch_ms")}
PROBES.update(probe_bytes=1024, probe_depth=10)


class Gate(unittest.TestCase):
    def test_agreeing_runs_pass(self):
        self.assertEqual(derive.gate([outcome(), outcome()], True, telemetry()), (0, []))

    def test_each_failure_is_caught(self):
        cases = [
            ([outcome(), outcome(diverged=True)], False, telemetry(), 1),
            ([outcome(txs_applied=0)] * 2, False, telemetry(), 2),
            ([outcome(converged=False), outcome()], True, telemetry(), 1),
            ([outcome(), outcome(head_node0="cd")], False, telemetry(), 0),
            ([outcome(), outcome(bytes_out_node0=1)], False, telemetry(), 0),
        ]
        for runs, faults, tel, failed in cases:
            got_failed, problems = derive.gate(runs, faults, tel)
            self.assertEqual(got_failed, failed)
            self.assertTrue(problems)

    def test_fault_recovery_and_report_cross_checks(self):
        for change in ({"heals": 0}, {"recover_s": [2.0, None]}, {"e2e_p50_s": -1.0}, {"e2e_n": 7}):
            tel = telemetry()
            tel.update(change)
            self.assertTrue(derive.gate([outcome()], True, tel)[1], change)


class Metrics(unittest.TestCase):
    def test_every_ratio_reads_its_base(self):
        def timed(seconds):
            # probes at full speed, so normalized time is wall time
            ref = [(-1.0, -1.0, run.FULL_SPEED_PROBE_S), (seconds, seconds, run.FULL_SPEED_PROBE_S)]
            return {"wall_s": seconds, "interval": [0.0, seconds], "reference": ref}
        untraced = dict(timed(2.0), cpu_s=1.5, peak_heap_mib=100.0, outcome=outcome())
        traced = copy.deepcopy(untraced)
        traced.update(timed(2.5), cpu_s=2.0, peak_heap_mib=150.0, telemetry=telemetry(), probes=PROBES)
        measured = [untraced, dict(untraced, **timed(3.0), cpu_s=2.5), dict(untraced, **timed(4.0), cpu_s=3.5)]
        e2e, record, layer, info, attempted, failed, problems = run.metrics(
            "tiered", [0.5, 0.25, 1.0], measured, traced, traced, untraced)
        self.assertEqual((attempted, failed, problems), (4, 0, []))
        self.assertEqual(set(e2e), set(run.E2E_UNITS))
        self.assertEqual(set(record), set(run.RECORD_UNITS))
        self.assertEqual(set(layer), set(run.LAYER_UNITS))
        self.assertEqual(e2e["setup_s"], 0.5)
        self.assertAlmostEqual(e2e["norm_wall_s"], 3.0)
        self.assertEqual((record["wall_s"], record["cpu_s"]), (3.0, 2.5))
        self.assertEqual(e2e["tx_applied_frac"], 90 / 100)
        self.assertEqual(e2e["bytes_per_ledger"], 64_000 / 32)
        self.assertEqual(e2e["close_latency_p50_ms"], 1e3 * 0.5)
        self.assertEqual(record["tx_latency_p50_ms"], 1e3 * 50.0)
        self.assertEqual(record["tx_latency_tail_ms"], 1e3 * 90.0)
        self.assertEqual(record["tx_failed_frac"], 0.1)
        self.assertEqual(info["tx_failed"], {"num": 10, "den": 100})
        self.assertEqual(info["bytes_per_ledger_base"], {"bytes": 64_000, "closes": 32})
        self.assertEqual(info["dup_dropped"], 300)
        self.assertEqual(record["recover_max_ms"], 4000.0)
        self.assertAlmostEqual(layer["sim.events_per_s"], 1000 / 3.0)
        self.assertEqual(layer["overlay.dup_frac"], 300 / 400)
        self.assertEqual(layer["scp.statements"], 10)
        self.assertEqual(layer["scp.timeouts"], 11)
        self.assertEqual(layer["bucket.merges"], 36)
        self.assertEqual(layer["ledger.apply_ms_mean"], 2.5)
        self.assertAlmostEqual(layer["obs.overhead_s"], 0.5)
        self.assertEqual(layer["obs.heap_mib"], 50.0)


class Manifest(unittest.TestCase):
    def test_result_metrics_are_the_declared_ones(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            declared = json.load(f)
        for key, units in (("end_to_end", run.E2E_UNITS), ("per_layer", run.LAYER_UNITS)):
            self.assertEqual({m["name"]: m["unit"] for m in declared[key]}, units)
        self.assertEqual({w["name"] for w in declared["workloads"]}, set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
