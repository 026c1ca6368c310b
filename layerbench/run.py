#!/usr/bin/env python3
"""Builds layerbench and runs one workload with the given arguments.

    python3 layerbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The single-threaded batch-100k is pinned to the vCPU that a short probe
finds fastest. On a shared host the vCPUs often run at different speeds,
for example when a sibling hyperthread is busy, and an unpinned single
thread measures whichever vCPU the scheduler happened to pick.
serve-rounds (a client and a multi-threaded daemon) and assembly-2k
(two worker threads) use both vCPUs and stay unpinned. See WORKLOADS.md.
"""

import os
import subprocess
import sys
import time

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "Cargo.toml")
CARGO = ["cargo", "--quiet"]
BUILD = ["build", "--release", "--offline", "--manifest-path", MANIFEST]
RUN = ["run", "--release", "--offline", "--manifest-path", MANIFEST, "--"]
PINNED = {"batch-100k"}


def probe(cpu):
    """Median time of a fixed integer loop on `cpu`, in seconds."""
    os.sched_setaffinity(0, {cpu})
    times = []
    for _ in range(7):
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


def main():
    args = sys.argv[1:]
    build = subprocess.run(CARGO + BUILD)
    if build.returncode != 0:
        return build.returncode
    workload = args[args.index("--workload") + 1] if "--workload" in args[:-1] else None
    cpus = sorted(os.sched_getaffinity(0))
    if workload in PINNED and len(cpus) > 1:
        fastest = min(cpus, key=probe)
        os.sched_setaffinity(0, {fastest})
        print(f"layerbench: pinned to cpu {fastest} of {cpus}", file=sys.stderr)
    os.execvp("cargo", CARGO + RUN + args)


if __name__ == "__main__":
    sys.exit(main())
