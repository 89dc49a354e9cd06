#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the benchmark driver takes it.

Runs `benchmark/run.sh --workload W --seed S --seconds N --trace 0` for ten
seeds per workload and prints, per metric, the median and the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median, next to the bound in BENCHMARK.json. A spread above a third of the
bound is flagged: the driver accepts a benchmark only while spreads stay inside
the bound, and a third leaves room for a noisier host.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [workload ...]
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

here = pathlib.Path(__file__).resolve().parent
spec = json.loads((here.parent / "BENCHMARK.json").read_text())

ap = argparse.ArgumentParser()
ap.add_argument("--runs", type=int, default=10)
ap.add_argument("--first-seed", type=int, default=1)
ap.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
args = ap.parse_args()

flagged = 0
for workload in args.workloads:
    values = {m["name"]: [] for m in spec["end_to_end"]}
    started = time.time()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = ["bash", str(here / "run.sh"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
    print(f"{workload}  ({args.runs} runs, {(time.time() - started) / args.runs:.1f} s each)")
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        flag = ""
        if m["name"] != "setup_s" and spread > m["bound"] / 3:
            flag = "  > bound/3"
            flagged += 1
        print(f"  {m['name']:<14} median {med:14.4f} {m['unit']:<4} spread {100 * spread:5.1f} %  "
              f"bound {100 * m['bound']:.0f} %  min {min(xs):.4f} max {max(xs):.4f}{flag}")
sys.exit(1 if flagged else 0)
