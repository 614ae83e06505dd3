#!/usr/bin/env python3
"""Speed gate: the benchmark of record, a change against its parent.

Usage:

    python3 .github/perf_gate.py PARENT_DIR CHANGE_DIR

PARENT_DIR and CHANGE_DIR are two checkouts, for example the parent commit
unpacked with `git archive` and the change's tree. The parent's
`benchmark/` and `BENCHMARK.json` are replaced by the change's, so both
sides run the same harness. For each workload in WORKLOADS the gate runs
PAIRS pairs of

    python3 benchmark/run.py --workload W --seed i --seconds SECONDS --trace 0

one run on each side, alternating which side runs first. A run that is not
correct, or that failed an operation, fails the gate. Every end-to-end
metric of BENCHMARK.json is then judged by `regression`. The report gives,
per workload and metric, both medians, the parent's interquartile range
and the pairs the change lost and won. Exit status: 0 pass, 1 fail,
2 usage.
"""

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# `cli_flat` is the flat container, coded by one worker with the coder on
# the second CPU; `cli_grid_t2` is the v4 tile grid on two workers.
WORKLOADS = ("cli_flat", "cli_grid_t2")
PAIRS = 10
# Run length. At 4 s one of seven gate runs of unchanged code failed on a
# 2-vCPU host (CHANGES.md records the calibration).
SECONDS = 8
SIDES = ("parent", "change")


def quartiles(values):
    """The first and third quartiles (linear interpolation).

    >>> quartiles([1, 2, 3, 4, 5])
    (2.0, 4.0)
    """
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def failed_run(result):
    """Why one run's result line fails the gate, or None if it holds.

    >>> failed_run({"correct": True, "attempted": 8, "failed": 0, "metrics": {}})
    >>> failed_run({"correct": False, "attempted": 8, "failed": 0, "metrics": {}})
    'correct is False'
    >>> failed_run({"correct": True, "attempted": 8, "failed": 1, "metrics": {}})
    '1 of 8 operations failed'
    """
    if result["correct"] is not True:
        return f"correct is {result['correct']}"
    if result["failed"] > 0:
        return f"{result['failed']} of {result['attempted']} operations failed"
    return None


def lost_won(metric, parent, change):
    """The pairs in which the change reads worse and better; ties count for neither.

    >>> lost_won({"better": "lower"}, [1.0, 2.0, 3.0], [2.0, 1.0, 3.0])
    (1, 1)
    """
    sign = 1.0 if metric["better"] == "lower" else -1.0
    diffs = [sign * (c - p) for p, c in zip(parent, change)]
    return sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)


def regression(metric, parent, change):
    """Why `change` regresses `metric` against `parent`, or None if it holds.

    `metric` is an `end_to_end` entry of BENCHMARK.json; `parent[i]` and
    `change[i]` are pair i's readings. The change regresses if its median
    is worse than the parent's by more than the metric's bound, or if it
    is worse in at least nine tenths of the pairs and its median is worse
    by more than the parent's interquartile range.

    >>> ms = {"name": "encode_ms", "better": "lower", "bound": 0.25}
    >>> parent = [100.0, 104.0, 96.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0]
    >>> regression(ms, parent, parent)

    Worse in 10 of 10 pairs, by more than the parent's IQR (3.50) but
    inside the bound:

    >>> regression(ms, parent, [p + 10.0 for p in parent])
    'worse in 10 of 10 pairs and by 10.00 > parent IQR 3.50'

    Worse in 9 of 10 pairs, inside both the IQR and the bound:

    >>> regression(ms, parent, [p + 1.0 for p in parent[:9]] + [parent[9] - 1.0])

    Worse in only 8 of 10 pairs, but the median is over the bound:

    >>> regression(ms, parent, [p * 1.3 for p in parent[:8]] + [p * 0.9 for p in parent[8:]])
    'median 129.35 is 29.4% worse than 100.00, over the 25% bound'

    A higher-is-better metric is judged the other way round:

    >>> up = {"name": "mps", "better": "higher", "bound": 0.25}
    >>> regression(up, parent, [p - 10.0 for p in parent])
    'worse in 10 of 10 pairs and by 10.00 > parent IQR 3.50'
    """
    sign = 1.0 if metric["better"] == "lower" else -1.0
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    by = sign * (med_c - med_p)
    if by > metric["bound"] * abs(med_p):
        return (f"median {med_c:.2f} is {by / abs(med_p):.1%} worse than {med_p:.2f}, "
                f"over the {metric['bound']:.0%} bound")
    worse, _ = lost_won(metric, parent, change)
    if 10 * worse >= 9 * len(parent) and by > q3 - q1:
        return (f"worse in {worse} of {len(parent)} pairs and by {by:.2f} "
                f"> parent IQR {q3 - q1:.2f}")
    return None


def run(root, workload, seed):
    """One benchmark run in checkout `root`: (result line, wall seconds)."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    secs = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        return None, secs
    return json.loads(lines[-1]), secs


def main(argv):
    if len(argv) != 3:
        print("usage: perf_gate.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    dirs = dict(zip(SIDES, (Path(a).resolve() for a in argv[1:])))
    for side, root in dirs.items():
        if not (root / "Cargo.toml").is_file():
            print(f"perf_gate: {side} {root} is not a checkout", file=sys.stderr)
            return 2
    if dirs["parent"] == dirs["change"]:
        print("perf_gate: PARENT_DIR and CHANGE_DIR are the same directory", file=sys.stderr)
        return 2
    shutil.rmtree(dirs["parent"] / "benchmark", ignore_errors=True)
    shutil.copytree(dirs["change"] / "benchmark", dirs["parent"] / "benchmark")
    shutil.copy2(dirs["change"] / "BENCHMARK.json", dirs["parent"] / "BENCHMARK.json")
    metrics = json.loads((dirs["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    started = time.monotonic()
    readings = {}
    for workload in WORKLOADS:
        for seed in range(1, PAIRS + 1):
            for side in SIDES if seed % 2 else SIDES[::-1]:
                result, secs = run(dirs[side], workload, seed)
                why = "benchmark/run.py failed" if result is None else failed_run(result)
                if why:
                    print(f"FAIL: {workload} seed {seed} {side}: {why}")
                    return 1
                values = {m: v["value"] for m, v in result["metrics"].items()}
                readings.setdefault((workload, side), []).append(values)
                shown = " ".join(f"{m}={v:.4g}" for m, v in values.items())
                print(f"{workload} seed {seed:>2} {side:<6} {secs:5.1f} s  {shown}", flush=True)

    print(f"\n{PAIRS} alternating pairs of {SECONDS} s runs, "
          f"{time.monotonic() - started:.0f} s of wall time")
    print(f"{'workload':<12} {'metric':<10} {'parent':>10} {'change':>10} {'IQR':>8} "
          f"{'lost':>4} {'won':>4}  verdict")
    regressed = False
    for workload in WORKLOADS:
        for metric in metrics:
            name = metric["name"]
            parent = [r[name] for r in readings[(workload, "parent")]]
            change = [r[name] for r in readings[(workload, "change")]]
            lost, won = lost_won(metric, parent, change)
            q1, q3 = quartiles(parent)
            why = regression(metric, parent, change)
            regressed |= why is not None
            print(f"{workload:<12} {name:<10} {statistics.median(parent):>10.4g} "
                  f"{statistics.median(change):>10.4g} {q3 - q1:>8.3g} {lost:>4} {won:>4}  "
                  f"{'FAIL: ' + why if why else 'pass'}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
