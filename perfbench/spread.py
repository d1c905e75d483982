#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json several times per workload, each with
another seed, and prints for every end-to-end metric its median and its
quartile spread ((q3 - q1) / median, from statistics.quantiles(n=4)) next
to the metric's bound. With --save it writes the values and medians to a
file; with --compare it checks that this set's medians are not worse
than a saved set's by more than each bound.

    python3 perfbench/spread.py --runs 10
    python3 perfbench/spread.py --runs 5 --workloads cold_spec06 --save a.json
    python3 perfbench/spread.py --runs 5 --workloads cold_spec06 --compare a.json

Run from the repository root. Exits 1 if a run fails or reports
incorrect output, if a spread exceeds its bound, or
if a comparison finds a regression.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: incorrect output")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = opts.workloads.split(",")
    metrics = bench["end_to_end"]
    previous = {}
    if opts.compare:
        with open(opts.compare) as f:
            previous = json.load(f)

    ok = True
    saved = {}
    for w in workloads:
        values = {m["name"]: [] for m in metrics}
        for i in range(opts.runs):
            got = run_once(bench["command"], w, opts.seed_base + i, seconds, 0)
            for m in metrics:
                values[m["name"]].append(got[m["name"]])
        print(f"== {w} ({opts.runs} runs, {seconds}s each)")
        print(f"  {'metric':<20} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
        saved[w] = {}
        for m in metrics:
            v = values[m["name"]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            saved[w][m["name"]] = {"median": med, "values": v}
            if spread > m["bound"]:
                verdict, ok = "OVER BOUND", False
            elif spread > m["bound"] / 3:
                verdict = "over bound/3"
            else:
                verdict = "ok"
            line = f"  {m['name']:<20} {med:>12.6g} {spread:>8.4f} {m['bound']:>6}  {verdict}"
            if w in previous:
                before = previous[w][m["name"]]["median"]
                change = (med - before) / before if before else 0.0
                worse = change if m["better"] == "lower" else -change
                if worse > m["bound"]:
                    ok = False
                    line += f"  REGRESSED {change:+.2%} vs saved"
                else:
                    line += f"  {change:+.2%} vs saved"
            print(line)
    if opts.save:
        with open(opts.save, "w") as f:
            json.dump(saved, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
