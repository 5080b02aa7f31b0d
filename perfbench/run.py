#!/usr/bin/env python3
"""Reproduction benchmark: the cost of the sweeps that regenerate the paper.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one registered sweep at pinned arguments (WORKLOADS),
run in-process by perfbench-driver through the same entry points as
`anvil-sim run`. The script builds the driver and anvil-sim from the
sources in this checkout (perfbench/CMakeLists.txt) into .bench_build/,
runs `anvil-sim run` once as the reference report, then:

  --trace 0  repeats the untraced sweep while it fits in S seconds, each
             after the calibration kernel, and reports the median over
             the repeats of each cost, host times normalized for
             interference (see NOMINAL_CALIBRATION_S);
  --trace 1  runs the sweep once untraced and once traced, and reports
             the per-layer metrics, the runner's spans from the untraced
             run, and the tracing overhead.

Every sweep run is checked: exit code 0 and every trial ok, its report
byte-identical to the reference, every declared cell present, and the
workload's semantic checks. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. perfbench/README.md
explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent

# A sweep run may take at most this long before it counts as hung.
SWEEP_TIMEOUT_S = 150

# Host seconds perfbench-calibrate takes on a quiet 4-vCPU Intel Xeon
# (2.1 GHz) virtual machine. Each sweep's host times are multiplied by
# this over the kernel's time measured just before the sweep. Other
# tenants' memory traffic, which slows sweeps by 10-60% for tens of
# seconds at a time, slows the kernel too, so the products move far less
# from run to run than the raw times.
NOMINAL_CALIBRATION_S = 0.28


@dataclass(frozen=True)
class Workload:
    sweep: str
    args: tuple      # the sweep's own arguments, pinned
    tiny_args: tuple  # the same sweep at smoke-test size
    jobs: int
    # Cells protected by ANVIL must record zero bit flips.
    zero_flips: bool = False
    # No CLFLUSH and cold caches at run start: a fresh cache hierarchy
    # fed the recorded stream must reproduce the LLC misses exactly.
    exact_llc_replay: bool = False


WORKLOADS = {
    # Benign SPEC traffic under ANVIL-baseline, the path behind most of
    # the reproduction's wall time (Tables 4 and 5).
    "benign_fp": Workload("table4_false_positives", ("0.05",), ("0.002",),
                          jobs=1, exact_llc_replay=True),
    # The hammer path: CLFLUSH and CLFLUSH-free kernels near the flip
    # threshold, ANVIL stage-2 sampling and selective refresh.
    "attack_detect": Workload("table3_detection", ("--trials", "1"),
                              ("--trials", "1"), jobs=1, zero_flips=True),
    # The tracker zoo: many short trials with refresh storms driven from
    # DRAM activation hooks; the runner's per-trial cost is largest here.
    "tracker_zoo": Workload("mitigation_matrix", ("--trials", "1"),
                            ("--trials", "1"), jobs=2),
}

# End-to-end host times perfbench-driver measures per sweep.
HOST_TIMES = ("wall_s", "cpu_s", "setup_s")
RUNNER = ("runner.pool_busy_frac", "runner.report_s", "runner.trials")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not root.is_absolute():
        root = REPO / root
    return root / "perfbench"


def build(out):
    """Configures and builds the benchmark's programs and anvil-sim."""
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(out)],
             ["cmake", "--build", str(out), "-j", jobs, "--target",
              "perfbench-driver", "perfbench-calibrate", "anvil-sim"]]
    # The compiler's temporary files stay inside the checkout too.
    tmp = out / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(out / "build.log", "ab") as build_log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=build_log, stderr=build_log,
                              env=env, timeout=840).returncode != 0:
                log(f"build failed: {' '.join(cmd)} (see {out}/build.log)")
                return None
    return (out / "perfbench-driver", out / "anvil_tools" / "anvil-sim",
            out / "perfbench-calibrate")


def sweep_flags(w, seed, report, tiny):
    args = list(w.tiny_args if tiny else w.args)
    return [w.sweep, *args, "--jobs", str(w.jobs), "--master-seed",
            str(seed), "--json-out", str(report)]


def check_report(w, seed, report, reference, cells):
    """Problems with one sweep report, or an empty list."""
    if not report.exists():
        return ["no report written"]
    data = report.read_bytes()
    problems = []
    if data != reference:
        problems.append("report differs from anvil-sim run's")
    doc = json.loads(data)
    if doc.get("schema") != "anvil-sweep-v1":
        problems.append(f"schema {doc.get('schema')!r}")
    if doc.get("master_seed") != seed:
        problems.append(f"master_seed {doc.get('master_seed')} != {seed}")
    if doc.get("total_errors") != 0:
        problems.append(f"{doc.get('total_errors')} trial error(s)")
    present = {s["name"] for s in doc.get("scenarios", [])}
    for cell in cells:
        if cell not in present:
            problems.append(f"cell {cell!r} missing")
    if w.zero_flips:
        for s in doc.get("scenarios", []):
            flips = sum(c["sum"] for c in s.get("counters", [])
                        if c["name"] == "flips")
            if flips != 0:
                problems.append(f"{flips} flip(s) in {s['name']!r}")
    return problems


def host_scale(tools):
    """Nominal over current host speed, from one calibration run."""
    out = subprocess.run([str(tools[2])], stdout=subprocess.PIPE, text=True,
                         check=True, timeout=60).stdout
    return NOMINAL_CALIBRATION_S / float(out.split()[0])


def run_sweep(tools, w, seed, work, tiny, traced, reference):
    """One driver run: (measurements, trials attempted, problems)."""
    driver = tools[0]
    report = work / ("traced.json" if traced else "sweep.json")
    report.unlink(missing_ok=True)
    cmd = [str(driver)] + (["--trace"] if traced else []) + \
        sweep_flags(w, seed, report, tiny)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=SWEEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, 1, [f"driver ran over {SWEEP_TIMEOUT_S} s"]
    try:
        out = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return None, 1, [f"driver exited {proc.returncode} without output"]
    problems = []
    if proc.returncode != 0 or out["failed"] != 0 or out["skipped"] != 0:
        problems.append(f"driver exit {proc.returncode}, "
                        f"{out['failed']} failed trial(s)")
    problems += check_report(w, seed, report, reference, out["cells"])
    if traced:
        if out["rerun_mismatched"] != 0:
            problems.append(f"{out['rerun_mismatched']} traced rerun(s) "
                            "retired a different access count")
        if w.exact_llc_replay and (
                out["llc_replay_checked"] != out["trials"]
                or out["llc_replay_mismatched"] != 0):
            problems.append(
                f"fresh-hierarchy replay: {out['llc_replay_mismatched']} of "
                f"{out['llc_replay_checked']}/{out['trials']} trials "
                "missed the LLC differently")
    return out, max(1, out["trials"]), problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true",
                    help="run the sweep at smoke-test size")
    opts = ap.parse_args()
    w = WORKLOADS[opts.workload]

    out_dir = build_dir()
    tools = build(out_dir)
    if tools is None:
        return 1
    work = out_dir / "runs" / f"{opts.workload}-{opts.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(opts, w, tools, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(opts, w, tools, work):
    ref_path = work / "reference.json"
    ref = subprocess.run([str(tools[1]), "run",
                          *sweep_flags(w, opts.seed, ref_path, opts.tiny)],
                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                         timeout=SWEEP_TIMEOUT_S)
    if ref.returncode != 0 or not ref_path.exists():
        log(f"reference anvil-sim run exited {ref.returncode}")
        reference = b""
        master_seed = None
    else:
        reference = ref_path.read_bytes()
        master_seed = json.loads(reference).get("master_seed")
    # The digest shows that a speed-only change left every simulated
    # statistic of the sweep unchanged.
    print(f"report {opts.workload} sweep={w.sweep} master_seed={master_seed} "
          f"sha256={hashlib.sha256(reference).hexdigest()}", flush=True)

    runs = []  # (measurements, attempted, problems)
    if opts.trace:
        for traced in (False, True):
            runs.append(run_sweep(tools, w, opts.seed, work, opts.tiny,
                                  traced, reference))
    else:
        # Start another sweep only while it can end within the window.
        start = time.monotonic()
        last = 0.0
        while not runs or time.monotonic() - start + last <= opts.seconds:
            began = time.monotonic()
            scale = host_scale(tools)
            runs.append(run_sweep(tools, w, opts.seed, work, opts.tiny,
                                  False, reference))
            if runs[-1][0] is not None:
                runs[-1][0]["host_scale"] = scale
            last = time.monotonic() - began

    attempted = sum(a for _, a, _ in runs)
    failed = min(attempted, sum((m or {}).get("failed", 0) + bool(p)
                                for m, _, p in runs))
    problems = [p for _, _, ps in runs for p in ps]
    if len({m["sim_accesses"] for m, _, _ in runs if m is not None}) > 1:
        problems.append("repeats retired different access counts")
    if not reference:
        problems.append("no reference report")
    for p in problems:
        log(f"check failed: {p}")
    samples = [m for m, _, _ in runs if m is not None]
    for i, s in enumerate(samples):
        print(f"run {i} host wall_s={s['wall_s']:.4f} cpu_s={s['cpu_s']:.4f} "
              f"setup_s={s['setup_s']:.4f} sim_accesses={s['sim_accesses']} "
              f"host_scale={s.get('host_scale', 1.0):.4f}")
    print(f"runs {len(runs)}, checks "
          f"{'ok' if not problems else 'FAILED'}", flush=True)

    metrics = {}
    if samples and opts.trace:
        plain, traced = (runs[0][0] or {}), (runs[1][0] or {})
        for name, value in traced.get("layers", {}).items():
            metrics[name] = (value, unit_of(name))
        for name in RUNNER:
            if name in plain:
                metrics[name] = (plain[name], unit_of(name))
        if plain and traced:
            metrics["trace.overhead_frac"] = (
                traced["wall_s"] / plain["wall_s"] - 1.0, "ratio")
    elif samples:
        for name in HOST_TIMES:
            metrics[name] = (statistics.median(
                s[name] * s["host_scale"] for s in samples), unit_of(name))
        metrics["peak_rss_mb"] = (statistics.median(
            s["peak_rss_mb"] for s in samples), "MB")
        # The access count is a function of the seed alone.
        metrics["sim_accesses_per_s"] = (
            samples[0]["sim_accesses"] / metrics["wall_s"][0], "1/s")
        metrics["trial_ok_frac"] = (1.0 - failed / attempted, "ratio")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def unit_of(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ns"):
        return "ns"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_share", "_frac", "_yield")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
