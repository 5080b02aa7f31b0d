#!/usr/bin/env python3
"""Wall and CPU seconds of every registered sweep, one after another.

Usage:
    sweep_times.py [--sim build/tools/anvil-sim] [--jobs N] [-- ARGS...]

Runs `SIM run SWEEP --jobs N ARGS...` for each sweep that `SIM --list`
names, in list order, and prints one line per sweep with its wall seconds
and CPU seconds (user + system of the child process, all its threads),
then the totals. ARGS go to every sweep (`-- --trials 1` for a quick
pass); with none, each sweep runs at its default arguments, which is the
full reproduction. Tables and progress lines are discarded; a failing
sweep's stderr tail is printed.

Exit codes: 0 = every sweep exited 0; 1 = some sweep failed (its line
says so and the totals still count it); 2 = bad input (no runnable SIM,
or a --list that names no sweep).
"""
import argparse
import resource
import subprocess
import sys
import time

EXIT_FAILED = 1
EXIT_BAD_INPUT = 2


def list_sweeps(sim):
    """Sweep names from `SIM --list`: the first word of each indented line."""
    try:
        proc = subprocess.run([sim, "--list"], capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"sweep_times: cannot list sweeps with {sim}: {e}",
              file=sys.stderr)
        sys.exit(EXIT_BAD_INPUT)
    names = [line.split()[0] for line in proc.stdout.splitlines()
             if line.startswith("  ") and line.strip()]
    if not names:
        print(f"sweep_times: {sim} --list names no sweep", file=sys.stderr)
        sys.exit(EXIT_BAD_INPUT)
    return names


def child_cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_sweep(sim, name, jobs, args):
    """(wall_s, cpu_s, returncode, stderr) of one sweep run."""
    cpu0 = child_cpu_seconds()
    wall0 = time.monotonic()
    proc = subprocess.run([sim, "run", name, "--jobs", str(jobs), *args],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    return (time.monotonic() - wall0, child_cpu_seconds() - cpu0,
            proc.returncode, proc.stderr)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="Arguments after -- go to every sweep.")
    parser.add_argument("--sim", default="build/tools/anvil-sim",
                        help="the anvil-sim binary (default: %(default)s)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="--jobs for every sweep (default: 1)")
    argv = sys.argv[1:]
    extra = []
    if "--" in argv:
        extra = argv[argv.index("--") + 1:]
        argv = argv[:argv.index("--")]
    opts = parser.parse_args(argv)

    names = list_sweeps(opts.sim)
    width = max(len("sweep"), len("total"), *(len(n) for n in names))
    print(f"{'sweep':<{width}}  {'wall_s':>9}  {'cpu_s':>9}", flush=True)
    total_wall = total_cpu = 0.0
    failed = 0
    for name in names:
        wall, cpu, code, stderr = time_sweep(opts.sim, name, opts.jobs,
                                             extra)
        total_wall += wall
        total_cpu += cpu
        note = ""
        if code != 0:
            failed += 1
            note = f"  FAILED (exit {code})"
            for line in stderr.splitlines()[-5:]:
                print(f"    {line}", file=sys.stderr)
        print(f"{name:<{width}}  {wall:9.2f}  {cpu:9.2f}{note}", flush=True)
    print(f"{'total':<{width}}  {total_wall:9.2f}  {total_cpu:9.2f}")
    return EXIT_FAILED if failed else 0


if __name__ == "__main__":
    sys.exit(main())
