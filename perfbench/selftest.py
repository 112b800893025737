#!/usr/bin/env python3
"""Self-test of the OASYS end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/selftest.py

Checks, in order:
  1. BENCHMARK.json has the expected shape: metric names match
     [A-Za-z0-9_.-]+, every metric has a unit, bounds are at most 0.25,
     setup_s is present.
  2. perfbench/layers.json maps every per-layer metric to one layer, and
     each layer to end-to-end metrics and workloads that BENCHMARK.json
     defines.
  3. A one-second smoke of every workload, untraced and traced: the last
     stdout line is the result object with exactly the declared metrics,
     all answers correct, and the traced run leaves a Perfetto-loadable
     trace file.
  4. A deliberately corrupted reference makes every workload fail
     (exit 1, correct false).
  5. A directory holding only BENCHMARK.json and perfbench/ makes the
     command exit nonzero without printing a result.
Exits 1 on any failure.
"""
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Where run.py writes records and traces.
OUT_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run_bench(workload, trace, extra=(), cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(ROOT, "perfbench", "layers.json")) as fh:
        layers = json.load(fh)["layers"]

    # 1. Shape of BENCHMARK.json.
    check(set(bench) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    per_layer = {m["name"]: m for m in bench["per_layer"]}
    names = workloads + list(e2e) + list(per_layer)
    check(len(names) == len(set(names)), "every name is used once")
    for m in bench["end_to_end"] + bench["per_layer"]:
        check(bool(NAME.match(m["name"])) and bool(UNIT.match(m.get("unit", ""))),
              f"metric {m['name']} has a valid name and unit")
    for w in bench["workloads"]:
        check(set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
              and "\n" not in w["why"], f"workload {w['name']} has one-line why")
    for m in bench["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25,
              f"end-to-end {m['name']} has a bound in (0, 0.25]")
    check(e2e.get("setup_s", {}).get("unit") == "s" and
          e2e["setup_s"]["better"] == "lower" and
          e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values()),
          "setup_s is present with the largest bound")

    # 2. Layer map.
    mapped = [m for layer in layers for m in layer["metrics"]]
    check(sorted(mapped) == sorted(per_layer), "layers.json covers each per-layer metric once")
    for layer in layers:
        moves = layer["moves"]
        check(bool(moves) or bool(layer.get("moves_nothing_because")),
              f"layer '{layer['layer']}' names what it moves")
        for mv in moves:
            check(mv["metric"] in e2e and mv["workload"] in workloads,
                  f"layer '{layer['layer']}' moves {mv['metric']} on {mv['workload']}")

    # 3 and 4. Smoke and corrupted reference per workload.
    for wl in workloads:
        for trace, declared in ((0, e2e), (1, per_layer)):
            proc, result = run_bench(wl, trace)
            good = (proc.returncode == 0 and result is not None and
                    set(result) == {"correct", "attempted", "failed", "metrics"} and
                    result["correct"] and result["failed"] == 0 and result["attempted"] >= 1 and
                    set(result["metrics"]) == set(declared) and
                    all(v["unit"] == declared[k]["unit"] for k, v in result["metrics"].items()))
            check(good, f"{wl} smoke, trace {trace}" +
                  ("" if good else f": exit {proc.returncode}\n{proc.stderr[-1500:]}"))
            if trace == 1 and good:
                path = os.path.join(OUT_ROOT, "traces", f"{wl}-seed7-trace1.trace.json")
                try:
                    with open(path) as fh:
                        events = json.load(fh)["traceEvents"]
                    check(any(e.get("ph") == "X" for e in events), f"{wl} trace opens as JSON")
                except (OSError, ValueError, KeyError):
                    check(False, f"{wl} trace file {path} is readable")
            if trace == 0 and good:
                check(all(v["value"] != 0 for v in result["metrics"].values()),
                      f"{wl} end-to-end metrics are nonzero")
        proc, result = run_bench(wl, 0, ["--corrupt-reference"])
        check(proc.returncode == 1 and result is not None and not result["correct"],
              f"{wl} fails on a corrupted reference")

    # 5. The benchmark alone, without the repository's sources.
    bare = os.path.join(OUT_ROOT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run_bench(workloads[0], 0, cwd=bare)
    check(proc.returncode != 0 and result is None,
          "without the sources the command fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
