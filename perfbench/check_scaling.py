"""Check that the host-speed scaling in run.py follows the program's work.

    python3 perfbench/check_scaling.py --seed 1 --seconds 28

Run from the repository root.  Two checks:

1. Doubling.  A workload and the same workload at twice its trials run as
   run.py measures them: one command per block of --seconds, alternating,
   three blocks each.  The ratio of their scaled medians must stay within
   TOLERANCE of 2, since per-trial work dominates both commands.
2. Probe independence.  A short or small child and a long or large one
   alternate for four times --seconds.  The probe taken after each large
   child is compared with the probe taken after the small child before it.
   The check fails if their mean log ratio is both larger than TOLERANCE / 2
   and more than two standard errors from 0: a probe that absorbed the
   previous child's time or memory release would do that.

Exits 1 if a check fails.
"""

import argparse
import json
import math
import os
import statistics
import sys

import run
import workloads

TOLERANCE = 0.15


def doubled(argv: list) -> list:
    argv = list(argv)
    index = argv.index("--trials") + 1
    argv[index] = str(2 * int(argv[index]))
    return argv


def samples_of(plan: list, seconds: float, env: dict) -> list:
    samples = run.measure(plan, seconds, env)
    failures = [s["failures"] for s in samples if s["failures"]]
    if failures:
        raise RuntimeError(f"a sample failed: {failures[0]}")
    return samples


def doubling(name: str, seed: int, seconds: float, env: dict) -> bool:
    """Scaled and raw block medians of a workload at twice its trials over the workload's."""
    argv = workloads.command_line(name, seed)
    single, double = (json.dumps(line).encode() for line in (argv, doubled(argv)))
    medians = {single: {"raw": [], "scaled": []}, double: {"raw": [], "scaled": []}}
    for argv_json in (single, double) * 3:
        samples = samples_of([(argv_json, False)], seconds, env)
        medians[argv_json]["raw"].append(statistics.median(s["wall_s"] for s in samples))
        medians[argv_json]["scaled"].append(
            statistics.median(s["wall_s"] / s["slowdown"] for s in samples))
    ratio = {key: statistics.median(medians[double][key]) / statistics.median(medians[single][key])
             for key in ("raw", "scaled")}
    passed = abs(ratio["scaled"] / 2 - 1) <= TOLERANCE
    print(f"{name} at twice its trials: scaled ratio "
          f"{ratio['scaled']:.3f}, raw ratio {ratio['raw']:.3f} -> {'ok' if passed else 'FAILED'}",
          flush=True)
    return passed


def probe_independence(label: str, small: list, large: list, seconds: float, env: dict) -> bool:
    """Mean log ratio of the probe after each large child to the one after the small child."""
    plan = [(json.dumps(line).encode(), False) for line in (small, large)]
    samples = samples_of(plan, 4 * seconds, env)
    logs = [math.log(b["probe_after"] / a["probe_after"])
            for a, b in zip(samples[0::2], samples[1::2])]
    mean = statistics.fmean(logs)
    error = statistics.stdev(logs) / math.sqrt(len(logs))
    passed = abs(mean) <= TOLERANCE / 2 or abs(mean) <= 2 * error
    print(f"probe after {label}: mean log ratio {mean:+.3f} +- {error:.3f} over {len(logs)} pairs "
          f"-> {'ok' if passed else 'FAILED'}", flush=True)
    return passed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    args = parser.parse_args()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath("src"), run.HERE, env.get("PYTHONPATH")])
    )
    line = lambda name: workloads.command_line(name, args.seed)  # noqa: E731
    results = [
        doubling("es-qkd-200", args.seed, args.seconds, env),
        doubling("xor-chain-trials", args.seed, args.seconds, env),
        probe_independence("xor-chain-trials x2 vs x1 (twice the time)", line("xor-chain-trials"),
                           doubled(line("xor-chain-trials")), args.seconds, env),
        probe_independence("otp-baseline-12 vs xor-chain-16 (11x the memory)",
                           line("xor-chain-16"), line("otp-baseline-12"), args.seconds, env),
    ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
