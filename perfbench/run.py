#!/usr/bin/env python3
"""Benchmark entry point for cocheck.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload simcore|repro|served \
        --seed N --seconds S --trace 0|1

It builds perfbench/harness.exe from source with dune (release profile,
build directory .bench_build, dune cache off), runs one workload for S
seconds in a scratch directory under .bench_build, and prints the
harness's result as one JSON object on the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see BENCHMARK.json). Build output and diagnostics go to standard error.
The exit code is 0 only when a well-formed result was printed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("simcore", "repro", "served")
BUILD_DIR = ".bench_build"
HARNESS = os.path.join(BUILD_DIR, "default", "perfbench", "harness.exe")
BUILD_TIMEOUT_S = 850
# Set-up plus result checks after the measurement window.
RUN_SLACK_S = 120


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("not a cocheck checkout: %s is missing" % needed)
    dune = shutil.which("dune")
    if not dune:
        fail("dune not found on PATH")
    cmd = [
        dune, "build", "--root", ".", "--profile", "release",
        "--build-dir", BUILD_DIR, "--cache=disabled",
        "./perfbench/harness.exe",
    ]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0 or not os.path.exists(HARNESS):
        fail("build failed")


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected keys %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError("%s is not a count" % key)
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    manifest = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "BENCHMARK.json")
    with open(manifest) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise ValueError("metrics %s do not match BENCHMARK.json"
                         % sorted(metrics))
    for m in wanted:
        got = metrics[m["name"]]
        value = got["value"]
        if not isinstance(value, (int, float)) or value != value:
            raise ValueError("%s is not a number" % m["name"])
        if got["unit"] != m["unit"]:
            raise ValueError("%s has unit %s" % (m["name"], got["unit"]))
        got["value"] = float(value)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    scratch = os.path.join(BUILD_DIR, "run-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    # The harness runs inside its scratch directory and names it ".": Unix
    # socket paths are limited to about 100 bytes, which a deep checkout
    # path alone could exceed.
    cmd = [os.path.abspath(HARNESS), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", "."]
    proc = subprocess.Popen(cmd, cwd=scratch, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("harness timed out")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        fail("harness exited with code %d" % proc.returncode)
    lines = out.strip().splitlines()
    if not lines:
        fail("harness printed no result")
    try:
        result = check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError, TypeError) as e:
        fail("malformed result: %s" % e)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
