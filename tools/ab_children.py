"""Alternate the benchmark's children between two checkouts and print paired medians.

    python tools/ab_children.py BASE CHANGE [--workload NAME|all] [--seed N] [--pairs P]

BASE and CHANGE are the roots of two checkouts (a `git clone` or `git
archive` of each commit).  Each pair runs one untraced `perfbench/child.py`
of each tree, one at a time, BASE first in even pairs and CHANGE first in
odd ones, so host drift falls on both sides alike; `perfbench/run.py`
instead times each side as one block of children.  Before the first child,
every `__pycache__` directory under each tree's `src` and `perfbench` is
removed, and every child runs with PYTHONDONTWRITEBYTECODE=1, so both sides
compile otplab from source in every child and neither gains a bytecode
cache along the way.  Each child runs in its own tree with that tree's
`src` and `perfbench` on PYTHONPATH and reads the workload's command line
from BASE's `perfbench/workloads.py`.  Every child must exit 0 and write the
same report bytes as BASE's first child.  `--workload all` runs the pairs
of each of BASE's workloads in turn, one table per workload, so a claim and
the rows of every other workload come from one command.

Prints, for `wall_s`, `setup_s` and `peak_rss_mb` (raw, not scaled to a
reference host): each side's median, then each side's lower quartile, upper
quartile and quartile distance, the median of the paired differences
CHANGE - BASE, the pairs in which CHANGE is lower, and whether a claim that
CHANGE lowers the metric holds.  It holds when CHANGE is lower in at least
nine tenths of the pairs (a tie counts for neither side) and BASE's median
exceeds CHANGE's by more than BASE's quartile distance.  Both sides'
quartiles show a side whose children fall into two groups (some paying a
cost that others do not), which two medians alone hide.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

METRICS = ("wall_s", "setup_s", "peak_rss_mb")
# A pause before each child, so the previous child's exit is over.
SETTLE_S = 0.2
SAMPLE_TIMEOUT_S = 60


def drop_bytecode(tree: str) -> int:
    """Remove every `__pycache__` under the tree's `src` and `perfbench`; returns how many."""
    removed = 0
    for top in ("src", "perfbench"):
        for directory, subdirs, _ in os.walk(os.path.join(tree, top)):
            if "__pycache__" in subdirs:
                shutil.rmtree(os.path.join(directory, "__pycache__"))
                subdirs.remove("__pycache__")
                removed += 1
    return removed


def run_child(tree: str, argv_json: bytes) -> tuple:
    """One untraced child in `tree`: its header and the report bytes it wrote."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]))
    time.sleep(SETTLE_S)
    spawn_ns = time.monotonic_ns()
    done = subprocess.run([sys.executable, os.path.join(tree, "perfbench", "child.py"),
                           str(spawn_ns), "0"], input=argv_json, capture_output=True, env=env,
                          cwd=tree, timeout=SAMPLE_TIMEOUT_S)
    head, _, report = done.stdout.partition(b"\n")
    if done.returncode != 0 or json.loads(head)["exit_code"] != 0:
        stderr = done.stderr.decode(errors="replace").strip().splitlines()[-1:]
        raise SystemExit(f"{tree}: the child failed: {stderr}")
    return json.loads(head), report


def quartiles(values: list) -> tuple:
    """(lower quartile, upper quartile, their distance)."""
    low, _, high = statistics.quantiles(values, n=4)
    return low, high, high - low


def run_pairs(trees: list, argv_json: bytes, pairs: int) -> tuple:
    """Each side's child headers over `pairs` alternated pairs; all reports must match."""
    samples, expected = ([], []), None
    for pair in range(pairs):
        for side in (0, 1) if pair % 2 == 0 else (1, 0):
            header, report = run_child(trees[side], argv_json)
            expected = report if expected is None else expected
            if report != expected:
                raise SystemExit(f"{trees[side]}: the report differs from the first child's")
            samples[side].append(header)
    return samples


def print_table(title: str, samples: tuple, pairs: int) -> None:
    print(title)
    spread = [f"{side} {column}" for side in ("base", "change") for column in ("Q1", "Q3", "IQR")]
    print(f"{'metric':<12} {'base':>10} {'change':>10} "
          + "".join(f"{column:>11}" for column in spread) + f" {'paired':>10}  lower  claim")
    for metric in METRICS:
        base, change = ([sample[metric] for sample in side] for side in samples)
        paired = [b - a for a, b in zip(base, change)]
        lower = sum(d < 0 for d in paired)
        gap = statistics.median(base) - statistics.median(change)
        claim = "holds" if 10 * lower >= 9 * pairs and gap > quartiles(base)[2] else "no"
        print(f"{metric:<12} {statistics.median(base):10.4f} {statistics.median(change):10.4f} "
              + "".join(f"{value:11.4f}" for value in (*quartiles(base), *quartiles(change)))
              + f" {statistics.median(paired):+10.4f}  {lower}/{pairs}  {claim}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", default="xor-chain-trials",
                        help="a workload name, or 'all' for each workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=20)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    trees = [os.path.abspath(args.base), os.path.abspath(args.change)]
    sys.path.insert(0, os.path.join(trees[0], "perfbench"))
    import workloads

    names = list(workloads.WHY) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads.WHY):
        parser.error(f"--workload must be 'all' or one of {', '.join(workloads.WHY)}")
    for tree in trees:
        print(f"{tree}: removed {drop_bytecode(tree)} __pycache__ directories")
    for name in names:
        argv_json = json.dumps(workloads.command_line(name, args.seed)).encode()
        samples = run_pairs(trees, argv_json, args.pairs)
        print_table(f"{name}, seed {args.seed}, {args.pairs} pairs, raw", samples, args.pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
