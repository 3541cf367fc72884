"""Tests of perfbench's metric arithmetic and correctness gate.

    python3 -m unittest discover -s perfbench/tests

They run on synthetic measurement output, so they need no build.
"""

import copy
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import metrics  # noqa: E402
import run  # noqa: E402


def point(label, run_s, cycles=1000, status="ok", **counters):
    """A measured point record with fault-free audit results."""
    return {
        "label": label, "status": status, "error": "",
        "make_s": 0.001, "construct_s": 0.001, "init_s": 0.01,
        "setup_s": 0.012, "run_s": run_s, "audit_s": 0.005,
        "wall_s": run_s + 0.02, "total_s": run_s + 0.02,
        "warnings": 0, "arena_peak_slots": 10,
        "audit": {"sectors": 8, "corrected": 0, "uncorrectable": 0,
                  "silent": 0},
        "counters": dict({"cycles": cycles, "events": 50}, **counters),
    }


NOMINAL = metrics.REFERENCE_NOMINAL_S


def untraced_raw(rounds, warm=None):
    # Unless a test says otherwise, the workers ran all the wall time,
    # on a host at the reference speed, so metrics read as measured.
    for r in rounds:
        r.setdefault("cpu_s", r["wall_s"])
        r.setdefault("busy_s", r["wall_s"])
        r.setdefault("reference_s", [NOMINAL] * (len(r["points"]) + 1))
    return {
        "workload": "irregular-read", "seed": 1, "seconds": 1.0,
        "trace": False, "provenance": {},
        "warmup": warm or point("random/cachecraft", 1.0),
        "rounds": rounds, "peak_rss_kib": 2048, "reference_threads": 1,
    }


class TailTest(unittest.TestCase):
    def test_fewer_than_ten_beyond_falls_back_to_median(self):
        samples = [float(i) for i in range(1, 16)]  # 15 samples
        p, value, beyond, resolved = metrics.tail(samples)
        self.assertEqual(p, 50.0)
        self.assertEqual(value, 8.0)
        self.assertEqual(beyond, 7)
        self.assertFalse(resolved)

    def test_picks_highest_percentile_with_ten_beyond(self):
        samples = [float(i) for i in range(1, 201)]  # 200 samples
        p, value, beyond, resolved = metrics.tail(samples)
        # p99 leaves 2 samples beyond it, p95 leaves 10.
        self.assertEqual(p, 95.0)
        self.assertEqual(beyond, 10)
        self.assertTrue(resolved)
        self.assertAlmostEqual(value, metrics.percentile(samples, 95.0))

    def test_boundary_of_exactly_ten_beyond_the_median(self):
        samples = [float(i) for i in range(1, 22)]  # 21 samples
        p, _, beyond, resolved = metrics.tail(samples)
        self.assertEqual((p, beyond, resolved), (50.0, 10, True))

    def test_sweep_sample_counts_all_select_p75(self):
        for n in (72, 108, 144, 180):
            p, _, _, resolved = metrics.tail([float(i) for i in range(n)])
            self.assertEqual((p, resolved), (75.0, True), n)

    def test_single_sample(self):
        self.assertEqual(metrics.tail([2.5]), (50.0, 2.5, 0, False))


class GateTest(unittest.TestCase):
    PINS = {"random/cachecraft": {"cycles": 1000, "events": 50}}

    def test_pinned_counter_mismatch_fails_the_point(self):
        good = point("random/cachecraft", 1.0)
        bad = point("random/cachecraft", 1.0, cycles=999)
        failed, problems = metrics.gate([good, bad], self.PINS)
        self.assertEqual(failed, {id(bad)})
        self.assertTrue(any("cycles = 999 (pinned 1000)" in p
                            for p in problems))

    def test_mismatch_makes_the_run_incorrect(self):
        raw = untraced_raw([
            {"wall_s": 2.0, "points": [point("random/cachecraft", 1.0)]},
            {"wall_s": 2.0, "points": [point("random/cachecraft", 1.0,
                                             events=51)]},
        ])
        result, problems, details = run.evaluate(raw, self.PINS)
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (2, 1))
        self.assertEqual(details["failed_ratio"], 0.5)
        self.assertTrue(problems)

    def test_unpinned_seed_still_checks_repeats_against_warmup(self):
        raw = untraced_raw(
            [{"wall_s": 1.0, "points": [point("random/cachecraft", 1.0,
                                              cycles=7)]}])
        result, problems, _ = run.evaluate(raw, None)
        self.assertFalse(result["correct"])
        self.assertIn("differs from another run", problems[0])

    def test_silent_corruption_fails_the_point(self):
        p = point("random/cachecraft", 1.0)
        p["audit"]["silent"] = 3
        failed, problems = metrics.gate([p], self.PINS)
        self.assertEqual(failed, {id(p)})
        self.assertIn("silent", problems[0])

    def test_matching_run_is_correct(self):
        raw = untraced_raw([{"wall_s": 2.0, "points": [
            point("random/cachecraft", 1.0)]}])
        result, problems, _ = run.evaluate(raw, self.PINS)
        self.assertTrue(result["correct"])
        self.assertEqual(problems, [])


class SweepTest(unittest.TestCase):
    def sweep_raw(self):
        failed = point("p002_random_bogus", 0.0, status="failed")
        failed["error"] = "unknown scheme"
        rounds = [{"wall_s": 2.0, "points": [
            point("p000_gemm_no-ecc", 0.5, cycles=2_000_000),
            point("p001_gemm_cachecraft", 1.5, cycles=2_000_000),
            failed,
            point("p003_random_cachecraft", 1.0, cycles=1_000_000),
        ]}]
        for p in rounds[0]["points"]:
            p.pop("audit")  # campaign points are not audited
        raw = untraced_raw(rounds, warm=point("gemm/cachecraft", 0.1))
        raw["workload"] = "sweep"
        # Two setup passes: setup_s is the median of their means.
        raw["setup"] = [
            {"points": [{"label": "p000_gemm_no-ecc", "setup_s": 0.02},
                        {"label": "p001_gemm_cachecraft", "setup_s": 0.04}],
             "reference_s": [NOMINAL, NOMINAL]},
            {"points": [{"label": "p000_gemm_no-ecc", "setup_s": 0.04},
                        {"label": "p001_gemm_cachecraft", "setup_s": 0.06}],
             "reference_s": [NOMINAL, NOMINAL]}]
        return raw

    def test_setup_s_is_the_median_of_per_pass_means(self):
        result, _, details = run.evaluate(self.sweep_raw(), None)
        self.assertAlmostEqual(result["metrics"]["setup_s"]["value"], 0.04)
        self.assertEqual(details["setup_samples"], 2)

    def test_grid_audit_is_checked_against_its_campaign_point(self):
        raw = self.sweep_raw()
        raw["rounds"][0]["points"].pop(2)  # drop the failed point
        grid = [point("p000_gemm_no-ecc", 0.5, cycles=2_000_000),
                point("p001_gemm_cachecraft", 1.5, cycles=2_000_001),
                point("p003_random_cachecraft", 1.0, cycles=1_000_000)]
        grid[0]["counters"]["peak_queue_depth"] = 9  # not in a report
        grid[2]["audit"]["silent"] = 1
        raw["grid_audit"] = {"wall_s": 1.0, "points": grid}
        result, problems, details = run.evaluate(raw, None)
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (6, 2))
        self.assertEqual(details["failed_ratio"], 2 / 6)
        self.assertEqual(len(problems), 2)
        self.assertIn("grid audit p001_gemm_cachecraft: cycles", problems[0])
        self.assertIn("silent", problems[1])
        # With pins, the grid is checked against the pinned counters,
        # on the keys a grid-audit point reports.
        pins = {p["label"]: p["counters"]
                for p in raw["rounds"][0]["points"] + [raw["warmup"]]}
        for p in raw["rounds"][0]["points"]:
            p["counters"]["mem_instructions"] = 4
        grid[2]["audit"]["silent"] = 0
        result, problems, _ = run.evaluate(raw, pins)
        self.assertEqual(result["failed"], 1, problems)

    def test_points_per_s_counts_only_completed_points(self):
        result, _, details = run.evaluate(self.sweep_raw(), None)
        m = result["metrics"]
        self.assertEqual(m["points_per_s"]["value"], 3 / 2.0)
        self.assertEqual(details["failed_ratio"], 1 / 4)
        self.assertEqual((result["attempted"], result["failed"]), (4, 1))
        self.assertFalse(result["correct"])
        # The failed point has no run time: run_s covers the other three.
        self.assertEqual(details["run_samples"], 3)
        self.assertEqual(m["run_s.p50"]["value"], 1.0)
        self.assertEqual(m["sim_mcycles_per_s"]["value"], 5.0 / 3.0)

    def test_waits_for_a_cpu_are_left_out(self):
        raw = self.sweep_raw()
        # The workers were busy 4 s of wall time but ran only 2 s.
        raw["rounds"][0].update(cpu_s=2.0, busy_s=4.0)
        result, _, details = run.evaluate(raw, None)
        m = result["metrics"]
        self.assertEqual(details["cpu_share"], 0.5)
        self.assertEqual(m["run_s.p50"]["value"], 0.5)
        self.assertEqual(m["points_per_s"]["value"], 3.0)
        self.assertEqual(m["sim_mcycles_per_s"]["value"], 10.0 / 3.0)
        # CPU beyond the busy time (the runner's own threads) does not
        # make a round faster than its wall time.
        raw["rounds"][0].update(cpu_s=5.0, busy_s=4.0)
        result, _, details = run.evaluate(raw, None)
        self.assertEqual(details["cpu_share"], 1.0)
        self.assertEqual(result["metrics"]["run_s.p50"]["value"], 1.0)

    def test_each_point_is_scaled_by_the_samples_around_it(self):
        # The host slows to half the reference speed during the second
        # point: the samples around it average twice the nominal time.
        raw = untraced_raw([{"wall_s": 2.0, "cpu_s": 2.0, "points": [
            point("random/cachecraft", 1.0), point("spmv/cachecraft", 1.0)],
            "reference_s": [NOMINAL, NOMINAL, 3 * NOMINAL]}])
        result, _, details = run.evaluate(raw, None)
        m = result["metrics"]
        self.assertEqual(details["measured"]["run_s.p50"], 1.0)
        self.assertEqual(m["run_s.p50"]["value"], (1.0 + 0.5) / 2)
        self.assertAlmostEqual(m["setup_s"]["value"], 0.012 * 0.75)
        self.assertEqual(m["sim_mcycles_per_s"]["value"], 2000 / 1e6 / 1.5)
        # The round took its points' times, each scaled alike.
        self.assertAlmostEqual(m["points_per_s"]["value"],
                               2 / (1.02 + 1.02 * 0.5))

    def test_sweep_passes_are_scaled_to_the_reference_host_speed(self):
        raw = self.sweep_raw()
        # A host at half the reference speed: the kernel takes twice
        # its nominal time around every pass.
        for unit in raw["setup"] + raw["rounds"]:
            unit["reference_s"] = [1.5 * NOMINAL, 2.5 * NOMINAL]
        result, _, details = run.evaluate(raw, None)
        m = result["metrics"]
        self.assertEqual(details["host_scale"], 0.5)
        self.assertEqual(details["measured"]["run_s.p50"], 1.0)
        self.assertEqual(m["run_s.p50"]["value"], 0.5)
        self.assertEqual(m["run_s.tail"]["value"],
                         details["measured"]["run_s.tail"] / 2)
        self.assertAlmostEqual(m["setup_s"]["value"], 0.02)
        self.assertEqual(m["points_per_s"]["value"], 3.0)
        self.assertEqual(m["sim_mcycles_per_s"]["value"], 10.0 / 3.0)
        self.assertEqual(m["peak_rss_mib"]["value"], 2.0)

    def test_every_end_to_end_metric_is_reported_with_its_unit(self):
        result, _, _ = run.evaluate(self.sweep_raw(), None)
        self.assertEqual(
            {k: v["unit"] for k, v in result["metrics"].items()},
            metrics.END_TO_END_UNITS)


class PerLayerTest(unittest.TestCase):
    def entry(self):
        u = point("random/cachecraft", 2.0, cycles=1000, events=1_000_000,
                  peak_queue_depth=10, decode_clean=80,
                  decode_corrected=0, decode_uncorrectable=0,
                  decode_tag_mismatch=0, dram_data_writes=0,
                  dram_total_txns=100, dram_ecc_reads=10,
                  dram_ecc_writes=0, dram_ecc_rmw_reads=0,
                  l2_sector_hits=30, l2_sector_misses=70, mrc_hits=5,
                  mrc_misses=5, mrc_fetch_merges=3)
        u.update(cache_accesses=1000, cache_fills=100, row_hit_rate=0.5,
                 init_chunks=4)
        t = copy.deepcopy(u)
        t["run_s"] = 3.0
        return {
            "label": "random/cachecraft", "untraced": u, "traced": t,
            "zones": {"events.run_until": {"count": 9, "self_s": 1.0,
                                           "inclusive_s": 2.0},
                      "shard.barrier": {"count": 1000, "self_s": 0.1,
                                        "inclusive_s": 0.1}},
            "replay": {"queue_ns_per_event": 1000.0,
                       "cache_access_ns": 100.0, "cache_fill_ns": 200.0,
                       "cache_replay_accesses": 10, "cache_replay_fills": 2,
                       "dram_txn_ns": 3000.0, "dram_events_per_txn": 2.0,
                       "dram_replay_txns": 5, "ecc_encode_chunk_ns": 800.0,
                       "ecc_decode_chunk_ns": 800.0,
                       "ecc_replay_clean": True,
                       "barrier_ns": 100.0,
                       "barrier_ns_sharded": 5000.0},
        }

    def test_closure_multiplies_replay_cost_by_run_op_counts(self):
        raw = {"trace": True, "closure": [self.entry()]}
        values, closure = metrics.per_layer(raw)
        terms = closure["terms_s"]
        self.assertAlmostEqual(terms["events"], 1.0)       # 1e6 * 1000 ns
        self.assertAlmostEqual(terms["cache"], 1.2e-4)     # 1000*100+100*200
        self.assertAlmostEqual(terms["dram"], 1e-4)        # 100*(3000-2000)
        self.assertAlmostEqual(terms["ecc"], 8e-6)         # 80*800/8
        self.assertAlmostEqual(terms["barrier"], 1e-4)     # 1000*100
        self.assertAlmostEqual(values["attributed_fraction"],
                               sum(terms.values()) / 2.0)
        self.assertAlmostEqual(values["trace_overhead"], 1.5)
        self.assertEqual(values["ecc.encodes"], 32)
        # Events agree with their zone within the stated fraction;
        # the cache has no zone time at all, so it is flagged.
        self.assertNotIn("events", closure["flagged"])
        self.assertIn("cache", closure["flagged"])
        self.assertEqual(set(values), set(metrics.PER_LAYER_UNITS))

    def test_traced_run_is_gated_like_an_untraced_one(self):
        entry = self.entry()
        raw = {"workload": "irregular-read", "seed": 1, "seconds": 1.0,
               "trace": True, "warmup": copy.deepcopy(entry["untraced"]),
               "closure": [entry]}
        result, problems, _ = run.evaluate(raw, None)
        self.assertTrue(result["correct"], problems)
        self.assertEqual(result["attempted"], 2)

        entry["replay"]["ecc_replay_clean"] = False
        entry["traced"]["counters"]["events"] += 1
        result, problems, _ = run.evaluate(raw, None)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 2)
        self.assertEqual(len(problems), 2)


class BenchmarkFileTest(unittest.TestCase):
    """BENCHMARK.json must list exactly the metrics run.py prints."""

    def test_metric_lists_match(self):
        path = Path(run.ROOT) / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json beside perfbench/")
        doc = json.loads(path.read_text())
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]},
                         metrics.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]},
                         metrics.PER_LAYER_UNITS)
        self.assertLessEqual({w["name"] for w in doc["workloads"]},
                             set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
