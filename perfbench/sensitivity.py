#!/usr/bin/env python3
"""Shows that the benchmark catches a regression and counts failures.

Injects a public gm-bench FaultPlan into the runner of `cold_parsec`
(through the benchmark's --inject and --attempts flags; no program
source is touched):

* a `delay:*/*:80` plan, which sleeps 80 ms before every job: wall_s and
  the job_ms_* percentiles must come out worse than the clean runs' by
  more than their bounds in BENCHMARK.json;
* a `seed:7:10` panic plan (10% of jobs) with no retries: the run must
  report failed jobs (failed > 0, success_ratio < 1, correct = false).

Three clean and three delayed 10 s runs alternate, so a slow phase of
the host hits both.

    python3 perfbench/sensitivity.py

Run from the repository root. Exits 1 if either injection goes unnoticed.
"""

import json
import statistics
import subprocess
import sys

GATED = ["wall_s", "job_ms_p50", "job_ms_p80", "job_ms_p95"]
RUNS = 3
SECONDS = 10
DELAY_MS = 80
PANIC_PCT = 10


def run(cmd, seed, seconds, extra):
    args = cmd + ["--workload", "cold_parsec", "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"] + extra
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark exited {proc.returncode} with {extra}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    cmd = bench["command"]
    delay = ["--inject", f"delay:*/*:{DELAY_MS}"]

    clean, slow = {m: [] for m in GATED}, {m: [] for m in GATED}
    for i in range(RUNS):
        for values, extra in ((clean, []), (slow, delay)):
            result = run(cmd, i + 1, SECONDS, extra)
            for m in GATED:
                values[m].append(result["metrics"][m]["value"])

    ok = True
    print(f"delay plan {delay[1]!r}, {RUNS} alternating runs each:")
    for m in GATED:
        before, after = statistics.median(clean[m]), statistics.median(slow[m])
        worse = (after - before) / before
        caught = worse > bounds[m]
        ok &= caught
        print(f"  {m:<12} {before:10.4f} -> {after:10.4f}  {worse:+.1%} "
              f"(bound {bounds[m]:.0%}) {'caught' if caught else 'MISSED'}")

    plan = f"seed:7:{PANIC_PCT}"
    result = run(cmd, 1, SECONDS, ["--inject", plan, "--attempts", "1"])
    ratio = result["metrics"]["success_ratio"]["value"]
    caught = result["failed"] > 0 and not result["correct"] and ratio < 1.0
    ok &= caught
    print(f"panic plan {plan!r} with no retries: failed {result['failed']} of "
          f"{result['attempted']}, success_ratio {ratio:.4f}, correct "
          f"{result['correct']} {'caught' if caught else 'MISSED'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
