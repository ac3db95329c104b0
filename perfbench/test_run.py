"""Tests of run.py's check of the result line.

Run from the repository root:
    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def line(**over):
    res = {"correct": True, "attempted": 3, "failed": 0,
           "metrics": {"wall_s": {"value": 0.5, "unit": "s"},
                       "setup_s": {"value": 1, "unit": "s"}}}
    res.update(over)
    return json.dumps(res)


class CheckResult(unittest.TestCase):
    def test_well_formed_line_passes(self):
        self.assertEqual(run.check_result(line(), ["setup_s", "wall_s"]), [])
        self.assertEqual(run.check_result(line(), None), [])

    def test_needs_exactly_the_four_keys(self):
        res = json.loads(line())
        res["extra"] = 1
        self.assertTrue(run.check_result(json.dumps(res), None))
        del res["extra"], res["failed"]
        self.assertTrue(run.check_result(json.dumps(res), None))

    def test_counts_are_whole_numbers_and_something_was_attempted(self):
        self.assertTrue(run.check_result(line(attempted=0), None))
        self.assertTrue(run.check_result(line(failed=1.5), None))
        self.assertTrue(run.check_result(line(attempted=True), None))
        self.assertTrue(run.check_result(line(correct="yes"), None))

    def test_metric_shape_and_names(self):
        bad_name = {"bad name": {"value": 1, "unit": "s"}}
        self.assertTrue(run.check_result(line(metrics=bad_name), None))
        no_unit = {"x": {"value": 1}}
        self.assertTrue(run.check_result(line(metrics=no_unit), None))
        text_value = {"x": {"value": "1", "unit": "s"}}
        self.assertTrue(run.check_result(line(metrics=text_value), None))

    def test_metric_set_must_match_benchmark_json(self):
        problems = run.check_result(line(), ["wall_s", "setup_s", "cpu_s"])
        self.assertEqual(len(problems), 1)
        self.assertIn("cpu_s", problems[0])

    def test_not_json(self):
        self.assertTrue(run.check_result("build finished", None))

    def test_benchmark_json_lists_what_the_benchmark_prints(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for mode in (0, 1):
            names = run.expected_metrics(mode)
            self.assertEqual(len(names), len(set(names)))
            self.assertTrue(all(run.NAME.match(n) for n in names))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
