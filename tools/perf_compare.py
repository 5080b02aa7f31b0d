#!/usr/bin/env python3
"""Compare perfbench throughput against the committed baseline.

Usage:
    perf_compare.py BASELINE.json RUN.out [RUN.out ...] [--max-regression 0.30]

BASELINE.json is an anvil-bench-v1 report: one entry per perfbench
workload with its sim_accesses_per_sec. Each RUN.out is the stdout of one
`python3 perfbench/run.py --workload W --seed N --seconds S --trace 0`;
the workload is named by its `report W ...` line and the rate is
metrics.sim_accesses_per_s.value of its last line, which must also say
"correct": true.

Fails if any baseline workload's rate dropped by more than the threshold.
Every baseline workload must be among the runs; a run of a workload the
baseline lacks is printed but not judged.

CI runners are noisy; the default 30% threshold is deliberately loose —
this gate catches "accidentally reintroduced a per-access heap
allocation" scale regressions, not single-digit drift.

Exit codes: 0 = no regression, 1 = regression, 2 = bad input (a file that
is missing, truncated or malformed, a run whose checks failed, a baseline
workload with no run, or a rate that is not a finite number > 0), so CI
can tell "the code got slower" from "the comparison never happened".
"""
import argparse
import json
import math
import sys

EXIT_REGRESSION = 1
EXIT_BAD_INPUT = 2


def die_bad_input(path, why):
    print(f"perf_compare: {path}: {why}", file=sys.stderr)
    sys.exit(EXIT_BAD_INPUT)


def read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError as e:
        die_bad_input(path, f"cannot read: {e.strerror or e}")


def rate(path, name, value):
    """The rate as a float, or bad input unless it is finite and > 0."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        die_bad_input(path, f"{name}: rate {value!r} is not a number")
    if not math.isfinite(value) or value <= 0:
        die_bad_input(path, f"{name}: rate {value!r} is not a finite "
                            "number > 0")
    return value


def load_baseline(path):
    try:
        report = json.loads(read(path))
    except json.JSONDecodeError as e:
        die_bad_input(path, f"not valid JSON: {e}")
    if not isinstance(report, dict) or report.get("schema") != "anvil-bench-v1":
        die_bad_input(path, "not an anvil-bench-v1 report")
    out = {}
    for i, b in enumerate(report.get("benchmarks") or []):
        try:
            name, value = b["name"], b["sim_accesses_per_sec"]
        except (TypeError, KeyError) as e:
            die_bad_input(path, f"benchmarks[{i}] is malformed: {e!r}")
        out[name] = rate(path, name, value)
    if not out:
        die_bad_input(path, "report contains no benchmarks")
    return out


def load_run(path):
    """(workload, rate) from one perfbench stdout."""
    lines = [l for l in read(path).splitlines() if l.strip()]
    name = next((l.split()[1] for l in lines
                 if l.startswith("report ") and len(l.split()) > 1), None)
    if name is None:
        die_bad_input(path, "no `report <workload>` line (not perfbench "
                            "output, or the run died before its reference)")
    try:
        result = json.loads(lines[-1])
        value = result["metrics"]["sim_accesses_per_s"]["value"]
    except (json.JSONDecodeError, TypeError, KeyError) as e:
        die_bad_input(path, f"{name}: last line is not a perfbench result "
                            f"with metrics.sim_accesses_per_s: {e!r}")
    if result.get("correct") is not True:
        die_bad_input(path, f"{name}: run is not correct "
                            f"(correct={result.get('correct')!r})")
    return name, rate(path, name, value)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("runs", nargs="+", metavar="run")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="maximum allowed relative drop (default 0.30)")
    args = parser.parse_args()

    base = load_baseline(args.baseline)
    cur = {}
    for path in args.runs:
        name, value = load_run(path)
        if name in cur:
            die_bad_input(path, f"{name}: a second run of this workload")
        cur[name] = value
    missing = sorted(base.keys() - cur.keys())
    if missing:
        die_bad_input(args.baseline, f"{', '.join(missing)}: no run of "
                                     "this baseline workload among the inputs")

    failures = []
    print(f"{'workload':<20} {'baseline':>12} {'current':>12} {'delta':>8}")
    for name in sorted(cur):
        if name not in base:
            print(f"{name:<20} {'-':>12} {cur[name]:>12.3e}   (new)")
            continue
        delta = (cur[name] - base[name]) / base[name]
        flag = ""
        if delta < -args.max_regression:
            failures.append(name)
            flag = "  << REGRESSION"
        print(f"{name:<20} {base[name]:>12.3e} {cur[name]:>12.3e} "
              f"{delta:>+7.1%}{flag}")

    if failures:
        print(f"\nFAIL: {len(failures)} workload(s) regressed more than "
              f"{args.max_regression:.0%}: {', '.join(failures)}")
        return EXIT_REGRESSION
    print(f"\nOK: no workload regressed more than {args.max_regression:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
