#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics: for each workload, run
the benchmark once per seed and report each metric's median and
(Q3 - Q1) / median over the runs (quartiles from statistics.quantiles).

    python3 perfbench/spread.py --seeds 10 --workloads steady late [--seconds N] [--trace 1]

A metric whose spread is at or above a third of its bound is marked.
Results are also written as JSON to .bench_out/spread-<workloads>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report = {}
    for wl in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", args.trace],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if out.returncode != 0:
                sys.exit(f"{wl} seed {seed}: run.py exited with {out.returncode}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{wl} seed {seed}: INCORRECT {res['failed']}/{res['attempted']} failed")
            runs.append(res)
        report[wl] = {}
        print(f"== {wl} ({len(runs)} seeds, {args.seconds} s)")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds.get(name)
            flag = " <-- spread >= bound/3" if bound and spread >= bound / 3 else ""
            report[wl][name] = {"median": med, "spread": spread, "values": vals}
            print(f"  {name:<36} median {med:<14.6g} spread {spread:7.2%}{flag}")
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".bench_out", f"spread-{'-'.join(args.workloads)}-t{args.trace}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
