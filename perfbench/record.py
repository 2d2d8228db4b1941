"""Record one trajectory point: every workload, untraced and traced.

    python3 perfbench/record.py --label seed --seed 1 --seconds 28

Run from the repository root.  Runs `run.py` on each workload with
--trace 0 and --trace 1 and writes `perfbench/BENCH_<label>.json` with the
end-to-end metrics, the per-layer metrics, each layer's share of the
traced wall time, the layer -> end-to-end mapping and the held-out seed.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    results = {}
    for workload in workloads.WORKLOADS:
        untraced = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        layers = {name: m["value"] for name, m in traced["metrics"].items()}
        results[workload] = {
            "argv": workloads.command_line(workload, args.seed),
            "correct": untraced["correct"] and traced["correct"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "end_to_end": {name: m["value"] for name, m in untraced["metrics"].items()},
            "per_layer": layers,
            "share_of_traced_wall": tracer.shares(layers),
        }
        print(f"{workload}: correct={results[workload]['correct']}", file=sys.stderr)

    point = {
        "label": args.label,
        "seed": args.seed,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "seconds": args.seconds,
        "machine": {
            "cpu": cpu_model(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "why": workloads.WHY,
        "layer_targets": workloads.LAYER_TARGETS,
        "workloads": results,
    }
    path = os.path.join(HERE, f"BENCH_{args.label}.json")
    with open(path, "w") as handle:
        json.dump(point, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(path)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
