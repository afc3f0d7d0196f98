#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny input size (about a minute).

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that an untraced and a
traced run each pass the oracle check and print every metric of their
mode with its unit, and that a run fed a deliberately corrupted output
multiset (`--corrupt-output`) is reported as incorrect with every tuple
counted as failed. Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", trace, "--size", "tiny", *extra]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"FAIL {' '.join(cmd[1:])}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            res = run(name, trace)
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, f"{name} trace {trace}: metrics {sorted(set(got) ^ set(want))}"
            assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
            assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, (name, trace, res)
            print(f"ok   {name:<8} trace={trace}: {len(got)} metrics, {res['attempted']} tuples, correct")
        bad = run(name, "0", "--corrupt-output")
        assert not bad["correct"], f"{name}: corrupted output passed the oracle check"
        assert bad["failed"] == bad["attempted"] > 0, f"{name}: corrupted run not counted as failed: {bad}"
        print(f"ok   {name:<8} corrupted output: correct=false, {bad['failed']}/{bad['attempted']} failed")
    print("selftest passed")


if __name__ == "__main__":
    main()
