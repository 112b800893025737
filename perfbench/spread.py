#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, checked against their bounds.

Usage, from the repository root:

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S]

Runs perfbench/run.py once per (workload, seed), untraced, and prints for
every end-to-end metric in BENCHMARK.json its median and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound.  A spread above a third
of its bound is flagged: such a metric is too noisy to judge a change by.
setup_s is reported but, like its bound, judged on medians only.
Exits 1 when any run is incorrect or fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    ok = True
    for wl in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        print(f"\n{wl}: {'metric':<18} {'median':>12} {'iqr/median':>11} {'bound':>6}")
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= m["bound"] / 3 else "  <-- above bound/3"
            if m["name"] == "setup_s":
                flag = "  (median only)"
            print(f"{wl}: {m['name']:<18} {med:>12.5g} {spread:>11.3f} {m['bound']:>6}{flag}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
