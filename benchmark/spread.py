#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs the command of BENCHMARK.json N times (default 10) per workload, each
time with another --seed, and prints for each metric the distance between the
first and third quartile of the N values as a share of their median, next to
the metric's bound. Run it from the repo root:

    python3 benchmark/spread.py [--runs N] [--first-seed S] [--workload NAME] [--save FILE]

This is how the bounds in BENCHMARK.json were set and how to re-check them.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--save", help="write every run's values to this JSON file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    saved = {}
    worst = {}
    for w in workloads:
        values = {}
        for i in range(args.runs):
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(args.first_seed + i),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if out.returncode != 0:
                sys.exit(f"{w} seed {args.first_seed + i}: exit code {out.returncode}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {args.first_seed + i}: outputs incorrect: {result}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        saved[w] = values
        print(f"== {w}: {args.runs} runs ==", flush=True)
        for name, v in values.items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            worst[name] = max(worst.get(name, 0.0), spread)
            print(f"{name:<24} median {med:>14.4f}  spread {spread * 100:6.2f}%  bound {bounds[name] * 100:5.1f}%")
    print("== widest spread per metric ==")
    for name, s in worst.items():
        flag = "" if name == "setup_s" or s <= bounds[name] / 3 else (
            "  above a third of the bound" if s <= bounds[name] else "  ABOVE THE BOUND")
        print(f"{name:<24} {s * 100:6.2f}%  bound {bounds[name] * 100:5.1f}%{flag}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)


if __name__ == "__main__":
    main()
