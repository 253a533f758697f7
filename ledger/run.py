#!/usr/bin/env python3
"""Engine ledger entry point.

Builds the ledger (the bstc library from ../src plus ledger.cpp) into
.bench_build/ledger at the repository root, runs a workload and prints
its metrics with units and op counts; the last stdout line is the result
JSON.

    python3 ledger/run.py --workload abcd-fit --seed 1 --seconds 20 --trace 0
    python3 ledger/run.py --workload all --seed 1 --seconds 20

With --trace 0 the run is split over three processes of seconds/3 each,
because the autotuner tunes cold, and picks its kernels, once per
process: gflops is taken from the median of the pooled op times, setup_s
and peak_rss_mb are medians over the processes, and the last process
checks its result against the reference. With --trace 1 one process
measures for the full time and prints the per-layer metrics; the merged
trace goes to .bench_build/trace-<workload>.json. `--workload all` runs
the three workloads in turn and prefixes each metric with its workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ledger")
BINARY = os.path.join(BUILD, "bstc_ledger")
WORKLOADS = ["abcd-fit", "abcd-stream", "ccsd-doubles"]
PROCESSES = 3
RUN_TIMEOUT_S = 150


def build():
    """Configure once, then bring the binary up to date; output to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "bstc_ledger",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("ledger: build failed: " + " ".join(cmd))


def run_ledger(args):
    """Run the binary, echo its report and return its parsed result line."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("ledger: %s timed out after %d s"
                 % (" ".join(args), RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if result is None or proc.returncode not in (0, 1):
        sys.exit("ledger: %s gave no result (exit code %d)"
                 % (" ".join(args), proc.returncode))
    return result


def run_workload(workload, opts):
    args = ["--workload", workload, "--seed", str(opts.seed),
            "--shape-seed", str(opts.shape_seed), "--trace", str(opts.trace)]
    if opts.trace:
        result = run_ledger(args + [
            "--seconds", str(opts.seconds), "--trace-out",
            os.path.join(ROOT, ".bench_build", "trace-%s.json" % workload)])
        return {k: result[k]
                for k in ("correct", "attempted", "failed", "metrics")}

    runs = [run_ledger(args + ["--seconds", repr(opts.seconds / PROCESSES),
                               "--check", "1" if k == PROCESSES - 1 else "0"])
            for k in range(PROCESSES)]
    walls = [w for r in runs for w in r["op_walls_s"]]

    def process_median(name):
        return statistics.median(r["metrics"][name]["value"] for r in runs)

    print("pooled      %d timed ops over %d processes, median %.4f s"
          % (len(walls), PROCESSES, statistics.median(walls)))
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {
            "gflops": {"value": runs[0]["flops"] / statistics.median(walls)
                       / 1e9, "unit": "Gflop/s"},
            "setup_s": {"value": process_median("setup_s"), "unit": "s"},
            "peak_rss_mb": {"value": process_median("peak_rss_mb"),
                            "unit": "MB"},
        },
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--shape-seed", type=int, default=42)
    opts = ap.parse_args()
    if opts.seconds < 1:
        ap.error("--seconds must be at least 1")

    build()
    if opts.workload != "all":
        out = run_workload(opts.workload, opts)
    else:
        out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            result = run_workload(workload, opts)
            out["correct"] = out["correct"] and result["correct"]
            out["attempted"] += result["attempted"]
            out["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                out["metrics"][workload + "." + name] = metric

    print("result      %s: %d ops attempted, %d failed"
          % ("correct" if out["correct"] else "INCORRECT", out["attempted"],
             out["failed"]))
    for name, metric in sorted(out["metrics"].items()):
        print("  %-40s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(out))
    sys.exit(0 if out["correct"] else 1)


if __name__ == "__main__":
    main()
