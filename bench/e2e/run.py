#!/usr/bin/env python3
"""Build bench_e2e from source and run it.

    python3 bench/e2e/run.py --workload t9_fine --seed 3 --seconds 20 --trace 0

builds bench/e2e (CMake, Release, into .bench_build/e2e) and runs one
workload in its own process; the last stdout line is the JSON result. With
--trace 1 it runs the traced variant instead and prints the per-layer
metrics; the Chrome trace and the trace-summary metrics land next to the
binary. --workload all runs the four workloads one after another.

    python3 bench/e2e/run.py --record bench/e2e/BENCH_e2e.json
    python3 bench/e2e/run.py --compare OLD.json NEW.json

--record writes the trajectory file: two full untraced runs of every
workload (seeds 1 and 2), one traced run, host metadata, per-program rows
and the two-run agreement table. --compare checks every end-to-end metric
of NEW against OLD with the bounds of BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "bench_e2e"
WORKLOADS = ["t9_kernel", "t9_fine", "reduction_grid", "compile_large"]
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the bench; False on any failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("run.py: no src/ next to bench/e2e; cannot build bench_e2e")
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build step failed:", " ".join(cmd))
            return False
    return True


def run_workload(name, seed, seconds, trace, detail=None):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    cmd = [str(BINARY), f"--workload={name}", f"--seed={seed}",
           f"--seconds={seconds}"]
    if trace:
        cmd.append(f"--trace={BUILD / (name + '.trace.json')}")
    if detail is not None:
        cmd.append(f"--json={detail}")
    # libgomp reads its wait policy once, at load time. Its default spins
    # idle workers after every parallel region, which moved the t9_fine
    # pool_s median by more than 5% against runs without openmp cells.
    env = dict(os.environ, OMP_WAIT_POLICY="passive")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        log(f"run.py: {name} exceeded {RUN_TIMEOUT_S} s")
        return 1, ""
    return proc.returncode, proc.stdout


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def record(path, seconds):
    spec = benchmark_spec()
    runs, traced = [], {}
    for seed in (1, 2):
        run = {}
        for name in WORKLOADS:
            detail = BUILD / f"{name}.detail.json"
            code, out = run_workload(name, seed, seconds, False, detail)
            if code:
                log(out)
                return code
            run[name] = json.loads(detail.read_text())
            log(f"run {seed} {name}: done")
        runs.append(run)
    for name in WORKLOADS:
        detail = BUILD / f"{name}.detail.json"
        code, out = run_workload(name, 1, seconds, True, detail)
        if code:
            log(out)
            return code
        traced[name] = json.loads(detail.read_text())
        log(f"traced {name}: done")
    agreement = {}
    for name in WORKLOADS:
        rows = {}
        for metric in spec["end_to_end"]:
            m = metric["name"]
            a, b = (median_of(r[name], m) for r in runs)
            rows[m] = {"run1": a, "run2": b, "diff": (b - a) / a,
                       "bound": metric["bound"],
                       "within": abs(b - a) / a <= metric["bound"]}
        agreement[name] = rows
    out = {"host": runs[0][WORKLOADS[0]]["host"],
           "command": spec["command"], "seconds": seconds,
           "runs": runs, "traced": traced, "agreement": agreement}
    Path(path).write_text(json.dumps(out, indent=1) + "\n")
    log(f"run.py: wrote {path}")
    return 0


def median_of(detail, metric):
    """The value a run reported for an end-to-end metric."""
    return detail["result"][metric]["value"]


def compare(old_path, new_path):
    """Median of the recorded runs, per workload and end-to-end metric."""
    spec = benchmark_spec()
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    worse = 0
    print(f"{'workload':16} {'metric':12} {'old':>12} {'new':>12} "
          f"{'change':>8} {'bound':>6}  verdict")
    for name in WORKLOADS:
        for metric in spec["end_to_end"]:
            m = metric["name"]
            o = statistics.median(median_of(r[name], m) for r in old["runs"])
            n = statistics.median(median_of(r[name], m) for r in new["runs"])
            change = (n - o) / o
            if metric["better"] == "higher":
                change = -change
            verdict = "worse" if change > metric["bound"] else "ok"
            worse += verdict == "worse"
            print(f"{name:16} {m:12} {o:12.6g} {n:12.6g} {change:+8.1%} "
                  f"{metric['bound']:6.2f}  {verdict}")
    return 1 if worse else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    if not build():
        return 1
    seconds = args.seconds
    if seconds is None:
        seconds = benchmark_spec()["run_seconds"]
    if args.record:
        return record(args.record, seconds)
    if args.workload != "all":
        code, out = run_workload(args.workload, args.seed, seconds, args.trace)
        sys.stdout.write(out)
        return code
    results, status = {}, 0
    for name in WORKLOADS:
        code, out = run_workload(name, args.seed, seconds, args.trace)
        sys.stdout.write(out)
        status = status or code
        results[name] = last_json(out)
    print(json.dumps({"workloads": results}))
    return status


if __name__ == "__main__":
    sys.exit(main())
