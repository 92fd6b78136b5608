"""Tests of the benchmark's own checks.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Each benchmark run here is a short one (``--items`` keeps a few items per
pass), started in a fresh interpreter like the real runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SMALL = {"suite": 16, "witness": 1, "certify": 12}


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """Run the benchmark once; return (run record, final result)."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--items", str(SMALL[workload])],
        capture_output=True, text=True, timeout=300, check=True,
    )
    lines = done.stdout.strip().splitlines()
    record = next(json.loads(line[len("run: "):]) for line in lines if line.startswith("run: "))
    return record, json.loads(lines[-1])


def counts(result: dict) -> dict:
    """Every per-layer metric that is not a time; the tracing overhead is a
    ratio of times."""
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] != "s" and name != "tracing.overhead_share"
    }


class TracedRunsRepeat(unittest.TestCase):
    def test_two_traced_runs_at_one_seed_give_identical_counts(self):
        for workload in SMALL:
            with self.subTest(workload=workload):
                first_record, first = bench(workload, 7, trace=1)
                second_record, second = bench(workload, 7, trace=1)
                self.assertTrue(first["correct"] and second["correct"])
                self.assertEqual(first["failed"], 0)
                self.assertEqual(counts(first), counts(second))
                self.assertEqual(first_record["results_digest"], second_record["results_digest"])
                self.assertTrue(first_record["deterministic"])

    def test_traced_run_reports_the_layers_it_exercises(self):
        _, result = bench("certify", 7, trace=1)
        values = counts(result)
        self.assertGreater(values["polynomials.normal_form.calls"], 0)
        self.assertGreater(values["groebner.buchberger.calls"], 0)
        self.assertGreater(values["unknown_share"], 0)


class RunRecord(unittest.TestCase):
    def test_a_run_records_its_settings(self):
        record, result = bench("suite", 3, trace=0)
        self.assertEqual(record["seed"], 3)
        self.assertEqual(record["python"], ".".join(map(str, sys.version_info[:3])))
        self.assertGreaterEqual(record["nproc"], 1)
        self.assertEqual((record["n_max"], record["k_max"]), (2, 4))
        self.assertEqual(
            set(result), {"correct", "attempted", "failed", "metrics"}
        )
        self.assertEqual(
            set(result["metrics"]),
            {"wall_s", "item_p50_s", "item_p90_s", "setup_s", "peak_rss_mb"},
        )


class AnswerChecks(unittest.TestCase):
    """A wrong verdict from the library must be caught by the item check."""

    def setUp(self):
        sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
        import workloads

        self.workloads = workloads

    def tearDown(self):
        del sys.path[:2]

    def test_a_missed_yes_is_wrong(self):
        from closure_lab import integrality

        items = [item for item in self.workloads.certify_items(5, 12) if item.kind == "yes"]
        original = integrality.is_integral_element
        try:
            for verdict in (integrality.NO, integrality.unknown(4)):
                integrality.is_integral_element = lambda *args, **kwargs: verdict
                for item in items:
                    outcome = self.workloads.run_certify_item(item)
                    self.assertTrue(outcome.wrong and outcome.failed, outcome.line)
        finally:
            integrality.is_integral_element = original

    def test_correct_items_pass(self):
        for item in self.workloads.certify_items(5, 12):
            outcome = self.workloads.run_certify_item(item)
            self.assertFalse(outcome.wrong, outcome.line)


if __name__ == "__main__":
    unittest.main()
