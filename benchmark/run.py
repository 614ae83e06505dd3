#!/usr/bin/env python3
"""Benchmark of record for cbic: builds the program, runs one workload.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload cli_flat|cli_grid_t1|cli_grid_t2|serve \
        --seed N --seconds S --trace 0|1

Builds `cbic` and `cbic-serve` from the workspace and the measuring
harness in this directory (release profile, into $CARGO_TARGET_DIR or
.bench_build), then runs the harness, which writes its scratch files under
.bench_work and removes them. The last line on stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See src/main.rs for the workloads and metrics.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(msg):
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    steps = [
        ["--manifest-path", str(ROOT / "Cargo.toml"), "-p", "cbic", "--bin", "cbic",
         "-p", "cbic-server", "--bin", "cbic-serve"],
        ["--manifest-path", str(HERE / "Cargo.toml")],
    ]
    for step in steps:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + step
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"no cbic workspace at {ROOT}; run from a checkout of the repository")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    build(target)
    release = target / "release"
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    cmd = [str(release / "cbic-benchmark"), *sys.argv[1:],
           "--cbic", str(release / "cbic"), "--serve", str(release / "cbic-serve"),
           "--work", str(work)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    try:
        (ROOT / ".bench_work").rmdir()
    except OSError:
        pass
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"harness exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {lines[-1]}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
