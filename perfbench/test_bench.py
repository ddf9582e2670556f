"""The benchmark's own test.

    python3 perfbench/test_bench.py

Runs two decks of every workload untraced once and traced twice.  Every
count metric must repeat exactly between the traced runs, tracing must leave
each job's captured stdout byte-identical, no job may fail, and the metric
names must be the ones BENCHMARK.json declares.
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import jobs  # noqa: E402
import run  # noqa: E402
import streams  # noqa: E402

COUNTS = (
    "model.relations.count", "systems.operators.count",
    "weyl.apply.term_pairs", "exact.solve.cells", "exact.witness.bits.max",
    "membership.member_share", "systems.reuse_share",
    "periods.period_series.terms", "serialize.bytes",
    "exact.solve_exact.calls", "membership.membership_test.calls",
    "weyl.apply_operator.calls", "weyl.compose.calls", "weyl.fourier.calls",
    "series.add.calls", "series.derivative_a.calls",
) + tuple(f"weyl.apply_operator.{f}.calls"
          for f in ("toric", "symmetry", "grading", "bder", "mixed"))

SEED = 5
DECKS = 2


def _run(workload, trace):
    return run.run_workload(workload, SEED, seconds=0, trace=trace,
                            min_decks=DECKS, max_decks=DECKS,
                            probes=0 if trace else 1)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(jobs.ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as handle:
            cls.declared = json.load(handle)

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.declared["workloads"]],
                         list(streams.WORKLOADS))
        end_to_end = {m["name"] for m in self.declared["end_to_end"]}
        per_layer = {m["name"] for m in self.declared["per_layer"]}
        self.assertTrue(set(COUNTS) <= per_layer)
        for workload in streams.WORKLOADS:
            with self.subTest(workload=workload):
                plain, plain_records = _run(workload, False)
                first, first_records = _run(workload, True)
                second, _ = _run(workload, True)
                for line in (plain, first, second):
                    self.assertEqual(line["attempted"], DECKS * streams.DECK_SIZE)
                    self.assertEqual(line["failed"], 0)
                    self.assertTrue(line["correct"])
                self.assertEqual(set(plain["metrics"]), end_to_end)
                self.assertEqual(set(first["metrics"]), per_layer)
                for name in COUNTS:
                    self.assertEqual(first["metrics"][name],
                                     second["metrics"][name], name)
                self.assertEqual([r["digest"] for r in plain_records],
                                 [r["digest"] for r in first_records])

    def test_missing_program_is_refused(self):
        saved = jobs.SRC
        jobs.SRC = os.path.join(jobs.ROOT, "no-such-src")
        try:
            with self.assertRaises(jobs.ProgramMissing):
                jobs.load_program()
        finally:
            jobs.SRC = saved


if __name__ == "__main__":
    unittest.main()
