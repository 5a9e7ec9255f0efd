#!/usr/bin/env python3
"""Check the benchmark's sim metrics against the newest archived run set.

Six end-to-end metrics of the benchmark come from its virtual-time
campaigns (`sim::run`), which take no run length: they are a pure function
of (workload, seed). This script runs every workload of BENCHMARK.json for
seeds 1-10 with `--seconds 1 --trace 0` and requires each of those six
values to equal, run for run, the value archived in the newest root
`BENCH_<n>.json` (written by `benchmark/spread.py --save`, seeds 1-10).
Run it from the repo root:

    python3 scripts/sim_metrics.py

It prints every (workload, seed, metric) that differs and exits 1 if any
does, or if a run fails.
"""
import glob
import json
import re
import subprocess
import sys

SIM_METRICS = [
    "detected_frac",
    "right_component_frac",
    "benign_clean_frac",
    "detect_mean_vms",
    "recovered_frac",
    "mttr_mean_vms",
]
SEEDS = range(1, 11)
COMMAND = [
    "cargo", "run", "--release", "--offline", "--quiet", "--locked",
    "--manifest-path", "benchmark/Cargo.toml", "--",
]


def newest_archive():
    found = [(int(m.group(1)), path) for path in glob.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", path))]
    if not found:
        sys.exit("no BENCH_<n>.json at the repo root")
    return max(found)[1]


def main():
    archive_path = newest_archive()
    with open(archive_path) as f:
        archive = json.load(f)
    with open("BENCHMARK.json") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    moved = []
    for w in workloads:
        for seed in SEEDS:
            cmd = COMMAND + ["--workload", w, "--seed", str(seed),
                             "--seconds", "1", "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit code {out.returncode}")
            metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
            for name in SIM_METRICS:
                want = archive[w][name][seed - 1]
                got = metrics[name]["value"]
                if got != want:
                    moved.append(f"{w} seed {seed} {name}: {got} != {want} in {archive_path}")
        print(f"    {w}: seeds {SEEDS.start}-{SEEDS.stop - 1} run", flush=True)
    if moved:
        print("\n".join(moved))
        sys.exit(f"{len(moved)} sim metric value(s) differ from {archive_path}")
    print(f"    all {len(SIM_METRICS)} sim metrics equal {archive_path}, run for run")


if __name__ == "__main__":
    main()
