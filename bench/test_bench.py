"""Tests of the benchmark itself, not of versalp.

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import math
import sys
import unittest

import checks
import run
import tracing
from workloads import WORKLOADS, queries, query_space

sys.path.insert(0, str(run.SRC))

from versalp import cli, versal  # noqa: E402

HOMOTOPY_CSV = ("homotopy", "--prime", "2", "--max-degree", "100", "--format", "csv")


class AcceptAll:
    def check(self, argv, status, stdout):
        return None if status == 0 else f"exit status {status!r}"


class QueryGeneratorTest(unittest.TestCase):
    def test_same_seed_gives_same_queries(self):
        for w in WORKLOADS.values():
            self.assertEqual(queries(w, 7), queries(w, 7))
            self.assertNotEqual(queries(w, 7), queries(w, 8))

    def test_every_drawable_query_has_a_recorded_hash(self):
        recorded = checks.load_expected(run.EXPECTED)[checks.SHA256]
        for w in WORKLOADS.values():
            space = set(query_space(w))
            self.assertTrue(all(checks.query_key(q) in recorded for q in space))
            for seed in range(5):
                self.assertTrue(set(queries(w, seed)) <= space)


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.expected = checks.load_expected(run.EXPECTED)
        _, status, cls.stdout = run.run_report(cli.main, HOMOTOPY_CSV)
        assert status == 0

    def changed(self, degree: int, value: int) -> bytes:
        lines = self.stdout.decode().split("\n")
        lines[degree + 1] = f"{degree},{value}"
        return "\n".join(lines).encode()

    def test_recorded_report_passes(self):
        self.assertIsNone(checks.Checker(self.expected).check(HOMOTOPY_CSV, 0, self.stdout))

    def test_one_changed_coefficient_fails(self):
        original = int(self.stdout.decode().split("\n")[51].split(",")[1])
        reason = checks.Checker(self.expected).check(HOMOTOPY_CSV, 0, self.changed(50, original + 1))
        self.assertEqual(reason, "stdout differs from the recorded bytes")

    def test_structure_is_checked_without_the_hash(self):
        homology = {}
        self.assertIsNone(checks.structural(HOMOTOPY_CSV, self.stdout.decode(), homology))
        self.assertIn("gap pattern", checks.structural(HOMOTOPY_CSV, self.changed(4, 0).decode(), homology))
        self.assertIn("negative", checks.structural(HOMOTOPY_CSV, self.changed(60, -1).decode(), homology))

    def test_failed_report_counts_as_failed_and_never_fast(self):
        tampered = self.changed(50, 0).decode()

        def main(argv):
            sys.stdout.write(tampered)
            return 0

        tally = run.Tally()
        run.run_cycle([HOMOTOPY_CSV], main, checks.Checker(self.expected), tally)
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        self.assertEqual(tally.latencies, [math.inf])
        self.assertEqual(tally.rate(), 0)


class TracingTest(unittest.TestCase):
    QUERIES = [
        ("homotopy", "--prime", "2", "--max-degree", "40", "--format", "table"),
        ("verify", "--prime", "3", "--max-degree", "30", "--format", "json"),
        ("basis", "--prime", "2", "--max-degree", "8", "--format", "csv"),
    ]

    def test_self_times_sum_to_traced_wall_time(self):
        tracer, tally = tracing.Tracer(), run.Tally()
        original = versal.enumerate_monomials
        with tracing.instrument(tracer) as main:
            run.run_cycle(self.QUERIES, main, AcceptAll(), tally)
        self.assertIs(versal.enumerate_monomials, original)
        self.assertEqual((tally.attempted, tally.failed, tracer.reports), (3, 0, 3))
        self_s, calls = tracer.self_times()
        self.assertAlmostEqual(sum(self_s.values()), tally.timed_s, delta=0.05 * tally.timed_s)
        self.assertTrue(all(s[2] is not None for s in tracer.spans))

    def test_calls_through_callers_bindings_are_traced(self):
        tracer = tracing.Tracer()
        with tracing.instrument(tracer) as main:
            run.run_cycle(self.QUERIES[2:], main, AcceptAll(), run.Tally())
        _, calls = tracer.self_times()
        # cli.basis binds both names itself; homology_series goes through versal's.
        self.assertEqual(calls["free_algebra.enumerate_monomials"], 1)
        self.assertEqual(calls["dyer_lashof.enumerate_generators"], 2)
        self.assertEqual(calls["versal.homology_series"], 1)


if __name__ == "__main__":
    unittest.main()
