#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and records a baseline.

    python3 perfbench/baseline.py [--runs 10] [--trace] [--out perfbench/BASELINE.json]

Run from the root of a checkout. Each workload runs once per seed
(1..runs) for BENCHMARK.json's run_seconds. For every metric the script
records the median and the quartiles of the runs, as
statistics.quantiles(values, n=4) gives them, and the spread: the
distance between the quartiles as a share of the median. It prints each
spread beside the metric's bound and writes the figures, with the
provenance of the measurement, to the output file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(args)}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[0], wall


def summarize(results, bounds):
    out = {}
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": spread, "values": values}
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <- above a third of the bound"
        print(f"    {name:36s} median {med:12.6g}  spread {spread:6.3f}"
              + (f"  bound {bound}" if bound is not None else "") + flag)
    return out


def git_commit():
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true", help="also run the traced runs")
    ap.add_argument("--workload", action="append", help="limit to these workloads")
    ap.add_argument("--out", default=None)
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    names = opts.workload or [w["name"] for w in bench["workloads"]]
    seeds = list(range(opts.first_seed, opts.first_seed + opts.runs))

    doc = {"provenance": {"commit": git_commit(), "machine": platform.machine(),
                          "nproc": os.cpu_count(), "run_seconds": seconds,
                          "seeds": seeds, "samples_per_metric": len(seeds)},
           "workloads": {}}
    for name in names:
        entry = {}
        for trace in ([0, 1] if opts.trace else [0]):
            results, walls = [], []
            for seed in seeds:
                res, header, wall = run_once(bench["command"], name, seed, seconds, trace)
                if not res["correct"] or res["failed"]:
                    sys.exit(f"{name} seed {seed}: {res['failed']} of {res['attempted']} jobs failed")
                results.append(res)
                walls.append(wall)
            print(f"{name} trace={trace}: {header}; run wall {min(walls):.1f}-{max(walls):.1f} s")
            doc["provenance"]["runtime"] = header.split("(", 1)[1].rstrip(")")
            entry["end_to_end" if trace == 0 else "per_layer"] = summarize(results, bounds)
            entry["attempted" if trace == 0 else "attempted_traced"] = [r["attempted"] for r in results]
        doc["workloads"][name] = entry
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
