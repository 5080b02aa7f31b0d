"""Tests of perf_compare.py's verdicts: exit 0 (no regression), 1 (a
baseline workload slowed by more than the bound) and 2 (bad input).

    python3 -m unittest discover -s tools -p 'test_*.py'

Each test writes a baseline and perfbench-shaped run outputs to a
temporary directory and runs the script on them.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "perf_compare.py"

BASE = {"benign_fp": 1.0e6, "attack_detect": 2.0e6, "tracker_zoo": 3.0e6}


def run_output(workload, rate, correct=True):
    """The stdout of a perfbench --trace 0 run, in its real shape."""
    result = {"correct": correct, "attempted": 4, "failed": 0,
              "metrics": {"wall_s": {"value": 1.5, "unit": "s"},
                          "sim_accesses_per_s": {"value": rate,
                                                 "unit": "1/s"}}}
    return (f"report {workload} sweep=s master_seed=1 sha256=00\n"
            "run 0 host wall_s=1.5000 cpu_s=1.5000 setup_s=0.0100 "
            "sim_accesses=1000 host_scale=1.0000\n"
            "runs 1, checks ok\n" + json.dumps(result) + "\n")


class PerfCompare(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.dir = Path(tmp.name)

    def write(self, name, text):
        path = self.dir / name
        path.write_text(text)
        return str(path)

    def baseline(self, rates=BASE, raw=None):
        if raw is None:
            raw = json.dumps({"schema": "anvil-bench-v1", "benchmarks": [
                {"name": n, "sim_accesses_per_sec": r}
                for n, r in rates.items()]})
        return self.write("baseline.json", raw)

    def runs(self, rates):
        return [self.write(f"{n}.out", run_output(n, r))
                for n, r in rates.items()]

    def compare(self, baseline, runs, *flags):
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), baseline, *runs, *flags],
            capture_output=True, text=True, timeout=60)
        return proc.returncode, proc.stdout + proc.stderr

    def assert_bad_input(self, baseline, runs, *mentions):
        code, out = self.compare(baseline, runs)
        self.assertEqual(code, 2, out)
        self.assertNotIn("OK", out)
        for m in mentions:
            self.assertIn(m, out)

    # exit 0

    def test_runs_within_the_bound_pass(self):
        cur = dict(BASE, benign_fp=0.75e6, tracker_zoo=3.5e6)
        code, out = self.compare(self.baseline(), self.runs(cur))
        self.assertEqual(code, 0, out)
        self.assertIn("OK", out)

    def test_a_workload_only_in_the_runs_is_informational(self):
        code, out = self.compare(self.baseline(),
                                 self.runs(dict(BASE, extra=1.0)))
        self.assertEqual(code, 0, out)
        self.assertIn("(new)", out)

    # exit 1

    def test_a_drop_beyond_the_bound_fails(self):
        cur = dict(BASE, attack_detect=1.2e6)  # -40%
        code, out = self.compare(self.baseline(), self.runs(cur))
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSION", out)
        self.assertIn("attack_detect", out.split("FAIL")[1])

    def test_the_bound_is_a_flag(self):
        cur = dict(BASE, attack_detect=1.2e6)
        code, out = self.compare(self.baseline(), self.runs(cur),
                                 "--max-regression", "0.5")
        self.assertEqual(code, 0, out)

    # exit 2: nothing was compared

    def test_no_shared_workload_is_bad_input(self):
        self.assert_bad_input(self.baseline(), self.runs({"benign": 1e6}),
                              "baseline.json", "benign_fp")

    def test_a_baseline_workload_without_a_run_is_bad_input(self):
        cur = {n: r for n, r in BASE.items() if n != "tracker_zoo"}
        self.assert_bad_input(self.baseline(), self.runs(cur),
                              "baseline.json", "tracker_zoo")

    def test_two_runs_of_one_workload_are_bad_input(self):
        runs = self.runs(BASE) + [self.write("again.out",
                                             run_output("benign_fp", 1e6))]
        self.assert_bad_input(self.baseline(), runs, "again.out",
                              "benign_fp")

    # exit 2: a rate that is not a finite number > 0, or a run whose
    # checks failed

    def test_a_bad_baseline_rate_is_bad_input(self):
        for value in ("nan", 0, -1.0, "fast"):
            with self.subTest(value=value):
                self.assert_bad_input(
                    self.baseline(dict(BASE, attack_detect=value)),
                    self.runs(BASE), "baseline.json", "attack_detect")

    def test_a_bad_run_rate_is_bad_input(self):
        for value in (float("nan"), float("inf"), 0.0, -1.0):
            with self.subTest(value=value):
                self.assert_bad_input(
                    self.baseline(),
                    self.runs(dict(BASE, tracker_zoo=value)),
                    "tracker_zoo.out", "tracker_zoo")

    def test_a_run_that_is_not_correct_is_bad_input(self):
        for correct in (False, "true", None):
            with self.subTest(correct=correct):
                runs = self.runs(BASE)
                runs[0] = self.write("wrong.out", run_output(
                    "benign_fp", 1e6, correct=correct))
                self.assert_bad_input(self.baseline(), runs, "wrong.out",
                                      "benign_fp", "correct")

    # exit 2: a run or baseline that is not well-formed

    def test_a_run_without_a_report_line_is_bad_input(self):
        text = run_output("benign_fp", 1e6).split("\n", 1)[1]
        runs = self.runs(BASE)
        runs[0] = self.write("noreport.out", text)
        self.assert_bad_input(self.baseline(), runs, "noreport.out")

    def test_a_truncated_run_is_bad_input(self):
        text = run_output("benign_fp", 1e6)[:-20]
        runs = self.runs(BASE)
        runs[0] = self.write("cut.out", text)
        self.assert_bad_input(self.baseline(), runs, "cut.out", "benign_fp")

    def test_a_missing_run_file_is_bad_input(self):
        runs = self.runs(BASE) + [str(self.dir / "absent.out")]
        self.assert_bad_input(self.baseline(), runs, "absent.out")

    def test_a_malformed_baseline_is_bad_input(self):
        for raw in ('{"schema": "anvil-bench-v1"',
                    '{"schema": "other", "benchmarks": []}',
                    '{"schema": "anvil-bench-v1", "benchmarks": []}',
                    '{"schema": "anvil-bench-v1", "benchmarks": [{}]}',
                    '[]'):
            with self.subTest(raw=raw):
                self.assert_bad_input(self.baseline(raw=raw),
                                      self.runs(BASE), "baseline.json")


if __name__ == "__main__":
    unittest.main()
