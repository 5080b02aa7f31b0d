"""Tests of sweep_times.py against a stand-in anvil-sim: every listed
sweep runs once with the given --jobs and extra arguments, its wall and
CPU seconds are printed and summed, a failing sweep is exit 1 and bad
input exit 2.

    python3 -m unittest discover -s tools -p 'test_*.py'
"""

import os
import stat
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "sweep_times.py"

# A stand-in for anvil-sim: `--list` prints the registry in the real
# layout, `run NAME ...` logs its arguments, burns a little CPU, prints a
# table, and exits with the code the environment assigns to NAME.
FAKE_SIM = r'''#!/usr/bin/env python3
import os, sys, time
args = sys.argv[1:]
if args == ["--list"]:
    print("registered scenario sweeps:")
    for line in os.environ.get("FAKE_LIST", "").split(";"):
        if line:
            print("  " + line)
    sys.exit(0)
assert args[0] == "run", args
with open(os.environ["FAKE_LOG"], "a") as log:
    log.write(" ".join(args[1:]) + "\n")
end = time.process_time() + 0.05
while time.process_time() < end:
    pass
print("a table the timer must not echo")
print("[runner] progress", file=sys.stderr)
codes = dict(kv.split("=") for kv in
             os.environ.get("FAKE_EXIT", "").split(",") if kv)
sys.exit(int(codes.get(args[1], 0)))
'''

LIST = ("alpha                     First sweep;"
        "beta [run_seconds]        Second sweep, with a positional")


class SweepTimes(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.dir = Path(tmp.name)
        self.sim = self.dir / "anvil-sim"
        self.sim.write_text(FAKE_SIM)
        self.sim.chmod(self.sim.stat().st_mode | stat.S_IXUSR)
        self.log = self.dir / "runs.log"

    def run_script(self, *args, listing=LIST, exits=""):
        env = dict(os.environ, FAKE_LIST=listing, FAKE_LOG=str(self.log),
                   FAKE_EXIT=exits)
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "--sim", str(self.sim), *args],
            capture_output=True, text=True, env=env, timeout=60)
        return proc.returncode, proc.stdout, proc.stderr

    def rows(self, stdout):
        """{name: (wall_s, cpu_s)} of the printed table."""
        out = {}
        for line in stdout.splitlines()[1:]:
            name, wall, cpu = line.split()[:3]
            out[name] = (float(wall), float(cpu))
        return out

    def test_times_every_listed_sweep_and_sums_them(self):
        code, out, err = self.run_script("--jobs", "4", "--", "--trials",
                                         "1")
        self.assertEqual(code, 0, err)
        self.assertEqual(self.log.read_text().splitlines(),
                         ["alpha --jobs 4 --trials 1",
                          "beta --jobs 4 --trials 1"])
        self.assertNotIn("table", out)
        rows = self.rows(out)
        self.assertEqual(list(rows), ["alpha", "beta", "total"])
        for name in ("alpha", "beta"):
            wall, cpu = rows[name]
            self.assertGreaterEqual(cpu, 0.04, name)
            self.assertGreaterEqual(wall, cpu * 0.5, name)
        for i in (0, 1):
            self.assertAlmostEqual(rows["total"][i],
                                   rows["alpha"][i] + rows["beta"][i],
                                   delta=0.011)

    def test_default_is_one_job_and_no_extra_arguments(self):
        code, _, err = self.run_script()
        self.assertEqual(code, 0, err)
        self.assertEqual(self.log.read_text().splitlines(),
                         ["alpha --jobs 1", "beta --jobs 1"])

    def test_a_failing_sweep_is_marked_and_exit_1(self):
        code, out, err = self.run_script(exits="alpha=4")
        self.assertEqual(code, 1)
        alpha = next(l for l in out.splitlines() if l.startswith("alpha"))
        self.assertIn("FAILED (exit 4)", alpha)
        self.assertIn("[runner] progress", err)
        # The later sweeps still run and the totals still count alpha.
        self.assertEqual(len(self.log.read_text().splitlines()), 2)
        self.assertIn("total", out)

    def test_bad_input_is_exit_2(self):
        code, _, err = self.run_script(listing="")
        self.assertEqual(code, 2)
        self.assertIn("names no sweep", err)
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "--sim",
             str(self.dir / "missing")],
            capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("cannot list sweeps", proc.stderr)
        self.assertFalse(self.log.exists())


if __name__ == "__main__":
    unittest.main()
