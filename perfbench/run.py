#!/usr/bin/env python3
"""Builds and runs the fleet serving benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload fleet_ticks --seed 1 --seconds 10 --trace 0

The benchmark is the cargo package in this directory. It depends on the
repository's crates by path, so it is built from source on first use, into
$CARGO_TARGET_DIR or else .bench_build at the repository root, and rebuilt
only when the sources change. The last line of standard output is the
result object the benchmark prints; on any failure nothing is printed
there and the exit code is not 0.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("fleet_ticks", "platform_incidents")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, **kwargs):
    """Runs `cmd` in a process group of its own; on timeout, kills the
    whole group and waits for it before re-raising."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description="Fleet serving benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    here = Path(__file__).resolve().parent
    target = Path(os.environ.get("CARGO_TARGET_DIR") or here.parent / ".bench_build")
    target = target.resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(here / "Cargo.toml")]
    bench = [str(target / "release" / "ix-perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        code, _ = run_group(build, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
        if code != 0:
            print(f"perfbench: build failed (exit code {code})", file=sys.stderr)
            return 1
        code, out = run_group(bench, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        print(f"perfbench: benchmark failed (exit code {code})", file=sys.stderr)
        return code or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print(f"perfbench: malformed result line: {lines[-1]!r}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
