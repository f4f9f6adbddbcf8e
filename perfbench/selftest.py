"""Self-tests of the benchmark harness (no program needed).

Run with ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
import unittest
from collections import namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    BenchmarkError,
    BestOf,
    Outcome,
    Rounds,
    beyond,
    partition_lanes,
    percentile,
    render,
    tail,
    validate_name,
)
from spans import Recorder, SpanIndex  # noqa: E402
from workloads import closed_form_count  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        self.assertEqual(percentile(samples, 0.5), 50)
        self.assertEqual(percentile(samples, 0.99), 99)
        self.assertEqual(percentile([7.0], 0.99), 7.0)

    def test_beyond_counts_the_samples_above_the_percentile(self):
        for count in (1, 9, 10, 99, 100, 101, 999, 1000, 1234):
            samples = list(range(count))
            for fraction in (0.5, 0.9, 0.99, 0.999):
                value = percentile(samples, fraction)
                self.assertEqual(beyond(count, fraction), sum(s > value for s in samples))

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(tail(list(range(99))))
        self.assertEqual(tail(list(range(100)))[0], 0.9)
        self.assertEqual(tail(list(range(999)))[0], 0.9)
        self.assertEqual(tail(list(range(1000)))[0], 0.99)
        self.assertEqual(tail(list(range(10000)))[0], 0.999)


class BestOfRounds(unittest.TestCase):
    def test_each_ops_fastest_round(self):
        rounds = Rounds(seconds=0.0)
        while rounds.more():
            for key, base in (("read", 0.002), ("count", 0.003), ("write", 0.010)):
                rounds.record(key, base * rounds.done)
        self.assertEqual(rounds.done, Rounds.MIN_ROUNDS)
        self.assertAlmostEqual(rounds.best_total(), 0.002 + 0.003 + 0.010)
        self.assertAlmostEqual(rounds.best_mean_ms(), 15.0 / 3)
        self.assertAlmostEqual(rounds.best_p50_ms(), 3.0)
        self.assertAlmostEqual(rounds.busy, 3 * (0.002 + 0.003 + 0.010))

    def test_step_records_the_body(self):
        setup = BestOf()
        for _ in range(3):
            with setup.step("sleep"):
                time.sleep(0.002)
        self.assertEqual(len(setup.latencies["sleep"]), 3)
        self.assertGreaterEqual(setup.best_total(), 0.002)

    def test_traced_runs_execute_a_fixed_number_of_rounds(self):
        rounds = Rounds(seconds=60.0, traced_rounds=3)
        while rounds.more():
            pass
        self.assertEqual(rounds.done, 3)
        with self.assertRaises(BenchmarkError):
            rounds.best_p50_ms()


class LanePartition(unittest.TestCase):
    databases = ["a", "b", "a", "c", "d", "a", "b", "c", "a", "e", "b", "a"]

    def test_every_database_stays_in_one_lane_in_stream_order(self):
        lanes = partition_lanes(self.databases, 2)
        self.assertEqual(sorted(i for lane in lanes for i in lane), list(range(len(self.databases))))
        owner = {}
        for number, lane in enumerate(lanes):
            self.assertEqual(lane, sorted(lane))
            for index in lane:
                self.assertEqual(owner.setdefault(self.databases[index], number), number)

    def test_busiest_databases_are_spread(self):
        lanes = partition_lanes(self.databases, 2)
        sizes = sorted(len(lane) for lane in lanes)
        self.assertLessEqual(sizes[1] - sizes[0], 2)

    def test_rejects_zero_lanes(self):
        with self.assertRaises(BenchmarkError):
            partition_lanes(self.databases, 0)


class MetricNames(unittest.TestCase):
    def test_legal_and_illegal_names(self):
        for name in ("setup_s", "cache.selectors-disk.hit_ratio", "a", "9lives"):
            self.assertEqual(validate_name(name), name)
        for name in ("", "engine-hot/read_p50_ms", "-x", "a b", "x" * 65, "ratio%"):
            with self.assertRaises(BenchmarkError):
                validate_name(name)

    def test_contract_names_are_legal_and_unique(self):
        contract = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
                 for entry in contract[section]]
        for name in names:
            validate_name(name)
        self.assertEqual(len(names), len(set(names)))

    def test_render_refuses_a_missing_end_to_end_metric(self):
        outcome = Outcome("w", 1, 0, True)
        outcome.add("setup_s", 1.0, "s", 1)
        with self.assertRaises(BenchmarkError):
            render(outcome, [("setup_s", "s"), ("best_mean_ms", "ms")], traced=False)
        last = render(outcome, [("setup_s", "s")], traced=False).splitlines()[-1]
        self.assertEqual(json.loads(last)["metrics"], {"setup_s": {"value": 1.0, "unit": "s"}})


class ClosedFormReference(unittest.TestCase):
    def test_matches_enumerating_every_repair(self):
        Fact = namedtuple("Fact", "relation arguments")
        facts = [
            Fact("R", ("r1", "a", "x")), Fact("R", ("r1", "b", "y")), Fact("R", ("r1", "a", "z")),
            Fact("R", ("r2", "b", "x")), Fact("R", ("r2", "a", "y")), Fact("R", ("r3", "c", "c")),
            Fact("S", ("s1", "c", "x")), Fact("S", ("s1", "a", "y")), Fact("S", ("s2", "c", "c")),
        ]
        blocks = {}
        for fact in facts:
            blocks.setdefault((fact.relation, fact.arguments[0]), []).append(fact)
        for atoms in ([("R", 1, "a")], [("R", 1, "a"), ("S", 1, "c")], [("R", 2, "y"), ("S", 1, "a")]):
            satisfying = 0
            repairs = list(itertools.product(*blocks.values()))
            for repair in repairs:
                satisfying += all(
                    any(f.relation == relation and f.arguments[position] == value for f in repair)
                    for relation, position, value in atoms
                )
            self.assertEqual(closed_form_count(facts, atoms), (satisfying, len(repairs)))


class Spans(unittest.TestCase):
    def test_self_time_and_restore(self):
        class Layer:
            def outer(self):
                time.sleep(0.002)
                return self.inner()

            def inner(self):
                time.sleep(0.004)
                return 7

        recorder = Recorder()
        recorder.wrap(Layer, "outer", "outer")
        recorder.wrap(Layer, "inner", "inner")
        with recorder.op(0):
            self.assertEqual(Layer().outer(), 7)
        recorder.restore()
        self.assertEqual(Layer.outer.__name__, "outer")
        self.assertFalse(hasattr(Layer.outer, "__wrapped__"))
        index = SpanIndex(recorder.spans)
        (outer,), (inner,) = index.named("outer"), index.named("inner")
        self.assertTrue(index.under(inner, ("outer",)))
        self.assertAlmostEqual(index.self_time[outer], index.duration(outer) - index.duration(inner))
        self.assertLess(index.unaccounted(), 0.10)


if __name__ == "__main__":
    unittest.main()
