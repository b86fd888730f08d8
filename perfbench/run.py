#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source tree. Builds perfbench/bench.exe and
bin/mccd.exe with dune, runs the workload in its own process group
(which every daemon it spawns joins), relays its output, and checks
that the result line names exactly the metrics BENCHMARK.json declares.
Exits non-zero, without a result line, when the build, the run or that
check fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def stop_group(proc):
    """Kill the run's process group and wait until all of it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(200):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = dict(os.environ, DUNE_CACHE="disabled")
    targets = ["perfbench/bench.exe", "bin/mccd.exe"]
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet"] + targets,
            env=env, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join("_build", "default", "perfbench", "bench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--mccd", os.path.join("_build", "default", "bin", "mccd.exe")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        stop_group(proc)

    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        print("perfbench: run failed (exit %d)" % proc.returncode, file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared_metrics(args.trace == 1):
        sys.stderr.write(out)
        print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
