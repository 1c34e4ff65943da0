"""Self-test of the benchmark, at tiny sizes (under a minute)::

    python3 perfbench/selftest.py

Checks that every workload runner works untraced and traced, that span
self-time arithmetic is right on a synthetic nest, that the oracle rejects
doctored outputs, and that BENCHMARK.json and ``moves.json`` name the same
per-layer metrics.
"""

from __future__ import annotations

import json
import unittest
from pathlib import Path

import oracle
import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class WorkloadRunners(unittest.TestCase):
    def test_every_workload_untraced_and_traced(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        per_layer = {m["name"] for m in bench["per_layer"]}
        for name in run.WORKLOADS:
            for traced in (False, True):
                with self.subTest(workload=name, traced=traced):
                    layers = sorted(per_layer) if traced else ()
                    rec = run.run_workload(name, seed=7, seconds=1, layer_names=layers, tiny=True)
                    failures = [f for p in rec["passes"] for f in p["failures"]]
                    self.assertEqual(failures, [])
                    self.assertGreater(rec["attempted"], 0)
                    self.assertEqual(rec["failed"], 0)
                    for metric in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s"):
                        self.assertGreater(rec["metrics"][metric], 0)
                    if traced:
                        self.assertLessEqual(per_layer, set(rec["metrics"]))
                        self.assertEqual(rec["trace_problems"], [])

    def test_relation_inputs_follow_the_seed(self):
        flags = oracle.prime_flags(2_000)
        first = workloads.removal_sets(3, 2, 2_000, flags)
        self.assertEqual(first, workloads.removal_sets(3, 2, 2_000, flags))
        self.assertNotEqual(first, workloads.removal_sets(4, 2, 2_000, flags))
        pi = flags.cumsum()
        for ks in first:
            self.assertTrue(all(pi[c] >= i + 2 for i, c in enumerate(ks, start=1)))
            self.assertGreaterEqual(ks[-1], 2_000 - 200)


class SelfTime(unittest.TestCase):
    def test_synthetic_nest(self):
        # a: 0..10 holds b: 1..5 (which holds c: 2..3) and d: 6..9; then a again: 20..21
        rec = tracer.Recorder(clock=FakeClock([0, 1, 2, 3, 5, 6, 9, 10, 20, 21]))
        rec.enter("a")
        rec.enter("b")
        rec.enter("c")
        rec.exit()
        rec.exit()
        rec.enter("d")
        rec.exit()
        rec.exit()
        rec.enter("a")
        rec.exit()
        got = {tuple(s["path"]): (s["calls"], s["total_s"], s["self_s"]) for s in rec.to_dict()["spans"]}
        self.assertEqual(
            got,
            {
                ("a",): (2, 11, 11 - 4 - 3),
                ("a", "b"): (1, 4, 3),
                ("a", "b", "c"): (1, 1, 1),
                ("a", "d"): (1, 3, 3),
            },
        )
        metric_of = {"a": "x.outer", "b": "y.inner", "c": "y.inner", "d": "x.outer"}
        self.assertEqual(
            tracer.layer_times(rec.to_dict(), metric_of), {"x.outer_s": 4 + 3, "y.inner_s": 3 + 1}
        )


class Oracle(unittest.TestCase):
    def test_rejects_doctored_counterexample(self):
        primes, odd = oracle.primes_from(3), oracle.odd_from(3)
        # the real refutation of primes>=3 ~(4,4)~ odd>=3: 9 is odd but not prime
        self.assertTrue(oracle.recheck_relation_counterexample(9, primes, odd, 4, 4, directed=True))
        # 11 is prime, odd, a product of itself, and no 4-fold sum on either side
        self.assertFalse(oracle.recheck_relation_counterexample(11, primes, odd, 4, 4, directed=True))
        comps = oracle.odd_composite
        self.assertTrue(oracle.recheck_relation_counterexample(6, comps, odd, 2, 2, directed=True))
        self.assertFalse(oracle.recheck_relation_counterexample(18, comps, odd, 2, 2, directed=True))

    def test_query_check_rejects_doctored_report(self):
        wl = workloads.build("relations", seed=7, tiny=True)
        step = wl.steps[2]  # primes>=3 ~(4,4)~ odd>=3
        verdict = {"status": "fails", "counterexample": 9, "certified_range": None, "witnesses": []}
        good = workloads.StepResult(1, json.dumps({"verdict": verdict}), HERE)
        self.assertEqual(step.check(good), [])
        doctored = workloads.StepResult(1, json.dumps({"verdict": {**verdict, "counterexample": 11}}), HERE)
        self.assertEqual(len(step.check(doctored)), 1)

    def test_missing_report_fails_every_check(self):
        step = workloads.build("battery", seed=7, tiny=True).steps[0]
        self.assertEqual(len(step.check(workloads.StepResult(0, "", HERE))), step.ops)

    def test_rejects_doctored_removal_witness(self):
        self.assertTrue(oracle.removal_witness_ok((21, 5, 19), {9, 15, 21}))
        self.assertFalse(oracle.removal_witness_ok((21, 9, 15), {9, 15, 21}))


class Catalogue(unittest.TestCase):
    def test_moves_names_every_layer_metric(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        moves = json.loads((HERE / "moves.json").read_text())
        self.assertEqual(set(moves), {m["name"] for m in bench["per_layer"]})
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
