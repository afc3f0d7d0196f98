#!/usr/bin/env python3
"""The repository's benchmark: run one workload with one seed.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 25 --trace 0

Builds the `perfbench` package (release profile, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), then:

1. runs measured iterations, each in a fresh `perfbench iterate` process,
   until --seconds have passed (at least MIN_ITERS of them), each one
   preceded by a `perfbench calibrate` process that times a fixed
   hash-map churn; with --trace 1 every other iteration is traced, so the
   tracing overhead is measured against the untraced ones of the same run;
2. with --trace 1, runs the engine replay once (`perfbench replay`);
3. checks every output digest against the serial oracle's for the same
   inputs (`perfbench oracle`), aggregates, and
   prints one JSON line last: the `end_to_end` metrics of BENCHMARK.json
   with --trace 0, the `per_layer` metrics with --trace 1.

Exits non-zero without a result line when the build or a run fails, or
when the metrics differ from those BENCHMARK.json names.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Whole run, after the build: a run must end within 180 s.
RUN_LIMIT_S = 170
MIN_ITERS = {"0": 3, "1": 4}
# The timed end-to-end metrics are scaled to a host on which
# `perfbench calibrate` takes this long: raw figures drift with the
# shared host's speed, and the calibration's time drifts with them.
CALIBRATE_REF_S = 0.4


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def nearest_rank(sorted_vals, q):
    if not sorted_vals:
        return 0
    rank = min(max(1, math.ceil(q * len(sorted_vals) - 1e-9)), len(sorted_vals))
    return sorted_vals[rank - 1]


class Runner:
    def __init__(self, binary, base, deadline):
        self.binary, self.base, self.deadline = binary, base, deadline

    def __call__(self, mode, *extra):
        left = self.deadline - time.monotonic()
        if left <= 0:
            fail(f"run limit of {RUN_LIMIT_S} s reached")
        cmd = [self.binary, mode, *self.base, *extra]
        try:
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            fail(f"run limit of {RUN_LIMIT_S} s reached during {mode}")
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            fail(f"perfbench {mode} exited with {out.returncode}")
        return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--corrupt-output", action="store_true",
                    help="corrupt every output multiset (the self-test's negative case)")
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    started = time.monotonic()
    run = Runner(os.path.join(ROOT, env["CARGO_TARGET_DIR"], "release", "perfbench"),
                 ["--workload", args.workload, "--size", args.size],
                 started + RUN_LIMIT_S)
    traced_run = args.trace == "1"
    iters, cals = [], []
    measure_until = time.monotonic() + args.seconds
    while len(iters) < MIN_ITERS[args.trace] or time.monotonic() < measure_until:
        cals.append(run("calibrate")["calibrate_s"])
        extra = ["--seed", str(args.seed), "--id", str(len(iters))]
        if traced_run and len(iters) % 2 == 1:
            extra.append("--trace")
        if args.corrupt_output:
            extra.append("--corrupt-output")
        iters.append(run("iterate", *extra))
    replay = run("replay", "--seed", str(args.seed), "--id", "1") if traced_run else None

    # Correctness, outside the measured processes: every output against
    # the serial oracle of its inputs, and closed accounting.
    expected = run("oracle", "--seed", str(args.seed))["digest"]
    correct = replay is None or replay["digest"] == expected
    attempted = failed = lost = 0
    for it in iters:
        attempted += it["offered"]
        ok = it["digest"] == expected and it["accounting_ok"]
        correct = correct and ok and it["failed"] == 0
        failed += it["failed"] if ok else it["offered"]
        lost += it["failed"] + it["dropped_late"] if ok else it["offered"]

    tps = [it["offered"] / it["wall_s"] for it in iters]
    # > 1 when the host runs slower than the reference host.
    slowdown = statistics.median(cals) / CALIBRATE_REF_S
    print(f"run.py: {args.workload} seed {args.seed}: {len(iters)} iterations, correct={correct}, "
          f"raw tuples/s per iteration {[round(t) for t in tps]}, "
          f"calibration s {[round(c, 3) for c in cals]}, host slowdown {slowdown:.3f}",
          file=sys.stderr)

    if traced_run:
        traced = [it for it in iters if it["traced"]]
        untraced_tps = [t for t, it in zip(tps, iters) if not it["traced"]]
        traced_tps = [t for t, it in zip(tps, iters) if it["traced"]]
        layers = {name: (statistics.median(it["layers"][name][0] for it in traced), unit)
                  for name, (_, unit) in traced[0]["layers"].items()}
        layers.update({k: tuple(v) for k, v in replay["layers"].items()})
        layers["trace.overhead_pct"] = (
            100.0 * (statistics.median(untraced_tps) / statistics.median(traced_tps) - 1.0), "%")
        layers["host.calibrate_s"] = (statistics.median(cals), "s")
        group = "per_layer"
    else:
        # p90, not p99: over five seeds the p99 of `steady` spread by 24 %,
        # nearly the whole bound; that tail is the producer preempted by
        # two busy workers on two vCPUs, not work.
        calls = sorted(ns for it in iters for ns in it["push_ns"])
        beyond = len(calls) - min(len(calls), math.ceil(0.90 * len(calls) - 1e-9))
        raw = {
            "throughput_tps": statistics.median(tps),
            "ingest_call_p50_us": nearest_rank(calls, 0.50) / 1e3,
            "ingest_call_p90_us": nearest_rank(calls, 0.90) / 1e3,
            "setup_s": statistics.median(it["setup_s"] for it in iters),
        }
        print(f"run.py: ingest_call samples {len(calls)}, {beyond} beyond p90; raw {raw}",
              file=sys.stderr)
        layers = {
            "throughput_tps": (raw["throughput_tps"] * slowdown, "1/s"),
            "ingest_call_p50_us": (raw["ingest_call_p50_us"] / slowdown, "us"),
            "ingest_call_p90_us": (raw["ingest_call_p90_us"] / slowdown, "us"),
            "peak_rss_mb": (statistics.median(it["peak_rss_mb"] for it in iters), "MiB"),
            "setup_s": (raw["setup_s"] / slowdown, "s"),
            "delivered_frac": (1.0 - lost / attempted, "fraction"),
        }
        group = "end_to_end"

    want = [(m["name"], m["unit"]) for m in spec[group]]
    got = {name: unit for name, (_, unit) in layers.items()}
    if got != dict(want):
        fail(f"metrics differ from BENCHMARK.json {group}: "
             f"missing {sorted(set(dict(want)) - set(got))}, extra {sorted(set(got) - set(dict(want)))}, "
             f"units {sorted(k for k, u in want if k in got and got[k] != u)}")
    metrics = {name: {"value": layers[name][0], "unit": unit} for name, unit in want}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
