#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload read_mix --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the `perfbench` package (release,
offline) into `$CARGO_TARGET_DIR` (default `perfbench/target`), runs the
named workload in a process of its own, pinned to one core, and prints,
last, one JSON line with the keys `correct`, `attempted`, `failed` and
`metrics`.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs the
workload untraced and then traced, and reports the per-layer metrics
plus `trace.overhead_frac`, the throughput the traced run lost against
the untraced one. A line before the result records the seed, `nproc`,
the pinned core, the build profile and the git revision.

Exits 0 only when every answer was correct. Exits non-zero without a
result when the build fails, e.g. outside a checkout of the repository.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("read_mix", "durable_ingest", "tenant_fanout")
# The core a workload's process is pinned to.
CORE = max(os.sched_getaffinity(0))
BUILD_TIMEOUT_S = 880
# A run must end within 180 s of its start, build excluded.
RUN_BUDGET_S = 170


def git_rev():
    # The ceiling keeps git from searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(HERE.parent.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(HERE.parent), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(target):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def run_once(binary, args, traced, data, deadline):
    """Runs the workload binary; returns (exit code, info, result)."""
    cmd = [
        str(binary), args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "1" if traced else "0",
        "--data", str(data),
    ]
    # Engines fork no threads: a workload runs on one thread, or on one
    # service worker next to one client thread. Both share one core, so
    # the client's gauge passes time the core the worker runs on.
    env = dict(os.environ, SPATIAL_THREADS="1")
    try:
        done = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, env=env,
            preexec_fn=lambda: os.sched_setaffinity(0, {CORE}),
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1, None, None
    finally:
        shutil.rmtree(data, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        return done.returncode or 1, None, None
    return done.returncode, json.loads(lines[-2])["info"], json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    target = Path(os.environ.get("CARGO_TARGET_DIR") or HERE / "target").resolve()
    if not build(target):
        return 1
    deadline = time.monotonic() + RUN_BUDGET_S
    binary = target / "release" / "perfbench"
    data = target / "perfbench-data" / f"{args.workload}-{args.seed}-{os.getpid()}"

    code, info, result = run_once(binary, args, False, data, deadline)
    if args.trace and result is not None and code == 0:
        untraced = result["metrics"]["throughput_rps"]["value"]
        code, info, result = run_once(binary, args, True, data, deadline)
        if result is not None:
            traced = result["metrics"].pop("trace.throughput_rps")["value"]
            result["metrics"]["trace.overhead_frac"] = {
                "value": 1.0 - traced / untraced,
                "unit": "frac",
            }
    if result is None:
        return code or 1

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "core": CORE,
        "profile": "release",
        "git_rev": git_rev(),
    }
    print(json.dumps({"meta": meta, "info": info}))
    print(json.dumps(result))
    return code if code != 0 else (0 if result["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
