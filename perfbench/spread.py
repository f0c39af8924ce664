#!/usr/bin/env python3
"""Checks that the benchmark is steady: run-to-run spread per metric.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1000] [--workload W ...]

Runs every workload of BENCHMARK.json (or the named ones) --runs times, each
with another seed, untraced, through perfbench/run.py. For each end-to-end
metric it prints the median and the spread: the distance between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of the
median. A spread above a third of the metric's bound is marked "WIDE", one
above the bound "OVER" (setup_s is exempt from the spread rule). Exits 1 when
a run fails or reports correct = false.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(cfg, workload, seed):
    cmd = [*cfg["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(cfg["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(done.stderr[-2000:], file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1000)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    cfg = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in cfg["workloads"]]
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in cfg["end_to_end"]}
        for i in range(args.runs):
            result = run_once(cfg, workload, args.first_seed + i)
            if result is None or not result["correct"]:
                print(f"{workload}: run {i} failed or incorrect: {result}")
                ok = False
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        for m in cfg["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("inf")
            mark = ""
            if m["name"] != "setup_s":
                if spread > m["bound"]:
                    mark = "OVER"
                elif spread > m["bound"] / 3:
                    mark = "WIDE"
            print(f"{workload:14s} {m['name']:8s} median {med:12.4f} "
                  f"{m['unit']:4s} spread {spread:6.3f} bound {m['bound']} {mark}",
                  flush=True)
            print("    runs: " + " ".join(f"{x:.5g}" for x in v), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
