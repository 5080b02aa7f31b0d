"""The benchmark's own tests: a smoke run of every workload at a tiny
length, and the seed handling later claims rely on.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root; each test drives perfbench/run.py exactly
as a benchmark run does, with --tiny.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

_runs = {}


def run(workload, seed, trace):
    """(exit code, report fields, result object, stderr), cached."""
    key = (workload, seed, trace)
    if key not in _runs:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
             "--tiny"],
            cwd=REPO, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        report = next(line for line in lines if line.startswith("report "))
        fields = dict(kv.split("=", 1) for kv in report.split()[2:])
        _runs[key] = (proc.returncode, fields, json.loads(lines[-1]),
                      proc.stderr)
    return _runs[key]


class Smoke(unittest.TestCase):
    def test_each_workload_completes_and_prints_the_declared_metrics(self):
        for workload in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, _, result, err = run(workload, 1, trace)
                    self.assertEqual(code, 0, err)
                    self.assertTrue(result["correct"], err)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = {m["name"]: m["unit"] for m in SPEC[section]}
                    printed = {name: m["unit"]
                               for name, m in result["metrics"].items()}
                    self.assertEqual(printed, declared)

    def test_fails_without_the_simulator_sources(self):
        # A directory holding only BENCHMARK.json and the benchmark must
        # refuse to run rather than print a result.
        alone = REPO / ".bench_build" / "isolated"
        shutil.rmtree(alone, ignore_errors=True)
        alone.mkdir(parents=True)
        try:
            shutil.copy(REPO / "BENCHMARK.json", alone)
            shutil.copytree(HERE, alone / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=alone, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(alone, ignore_errors=True)


class Seeds(unittest.TestCase):
    def test_seed_reaches_every_sweep(self):
        for workload in WORKLOADS:
            for seed in (1, 2):
                with self.subTest(workload=workload, seed=seed):
                    _, report, _, _ = run(workload, seed, 0)
                    self.assertEqual(report["master_seed"], str(seed))

    def test_same_seed_gives_the_same_digest(self):
        # Separate processes, one of them traced: neither the process nor
        # tracing may change the sweep's report.
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(run(workload, 1, 0)[1]["sha256"],
                                 run(workload, 1, 1)[1]["sha256"])

    def test_different_seed_gives_a_different_digest(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(run(workload, 1, 0)[1]["sha256"],
                                    run(workload, 2, 0)[1]["sha256"])


if __name__ == "__main__":
    unittest.main()
