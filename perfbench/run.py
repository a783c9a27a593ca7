#!/usr/bin/env python3
"""Runs one workload of the Balsa end-to-end benchmark.

    python3 perfbench/run.py --workload learn_job|serve \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds perfbench/ (and the src/ libraries it links) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs
balsa_perf, and prints as its last stdout line one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics are
BENCHMARK.json's end_to_end set; with --trace 1 its per_layer set, where a
layer that does no work in the workload reads 0.

The traced run first makes an untraced run of the same workload and seed
with the same binary, then the traced one. It reports obs.trace_overhead,
the traced / untraced work_s ratio of the two, and checks that learn_job's
speedups are identical between them (the Learn loop is deterministic).

Exit status: 0 when every correctness and coverage check held, 1 when one
failed, 3 when the benchmark could not be built or run (no JSON then).
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(3)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    out = build_dir()
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j4", "--target", "balsa_perf",
              "perfbench_selftest"]]
    for step in steps:
        proc = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail("build failed: " + " ".join(step))


def run_binary(workload, seed, seconds, trace, deadline):
    cmd = [os.path.join(build_dir(), "balsa_perf"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        fail("%s timed out" % workload)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        fail("balsa_perf exited %d without a result" % proc.returncode)
    if (proc.returncode == 0) != result["correct"]:
        fail("exit status %d disagrees with correct=%s"
             % (proc.returncode, result["correct"]))
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    # The first run in a checkout also compiles; the run budget starts after.
    deadline = time.time() + RUN_TIMEOUT_S
    if args.self_test:
        sys.exit(subprocess.run(
            [os.path.join(build_dir(), "perfbench_selftest")]).returncode)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)

    if args.trace:
        untraced = run_binary(args.workload, args.seed, args.seconds, False,
                              deadline)
    result = run_binary(args.workload, args.seed, args.seconds,
                        bool(args.trace), deadline)
    measured = result["metrics"]
    correct = result["correct"]
    if args.trace:
        correct = correct and untraced["correct"]

    def check(condition, what):
        nonlocal correct
        if not condition:
            print("CHECK FAILED: " + what)
            correct = False

    if args.trace:
        base = untraced["metrics"]
        measured["obs.trace_overhead"] = {
            "value": measured["work_s"]["value"] / base["work_s"]["value"],
            "unit": "ratio"}
        for name in ("learn_train_speedup", "learn_test_speedup"):
            if name in measured:
                check(measured[name]["value"] ==
                      base.get(name, {}).get("value"),
                      "%s differs between traced and untraced runs" % name)
        selected = spec["per_layer"]
    else:
        selected = spec["end_to_end"]

    metrics = {}
    for m in selected:
        name = m["name"]
        got = measured.get(name)
        if got is None:
            # A layer the workload does not use did no work; an end-to-end
            # metric must always be measured.
            check(m in spec["per_layer"], "end-to-end metric %s missing" % name)
            got = {"value": 0, "unit": m["unit"]}
        check(got["unit"] == m["unit"], "%s unit %s, BENCHMARK.json says %s"
              % (name, got["unit"], m["unit"]))
        metrics[name] = {"value": got["value"], "unit": m["unit"]}
        if not args.trace:
            check(got["value"] > 0, "end-to-end metric %s is not positive"
                  % name)

    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
