"""otplab benchmark: cold CLI calls on four exact-analysis workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each sample is one cold `otplab.cli.main`
call in a fresh child process (`child.py`); children run one at a time, a
closed loop with one client, until S seconds have passed.  Every sample is
gated: exit code 0 and stdout bytes identical to the run's first report,
which must match `docs/report.schema.json` and state the workload's exact
figures.

--trace 0 reports the end-to-end metrics, each a median over the samples:
`wall_s` (the `cli.main` call, stdout captured in memory), `setup_s` (child
start until `otplab.cli` is imported) and `peak_rss_mb` (the child's peak
resident set, VmHWM).  `wall_s` and `setup_s` are scaled to a reference
host speed: on the 2-vCPU host this benchmark was written on, the same
command's time drifted by up to 2x within minutes.  Before each child,
after a pause that lets the previous child's exit settle, this process
times a fixed probe of benchmark-owned interpreter and numpy work
(`host_probe`); each sample's times are multiplied by REFERENCE_PROBE_S
over the mean of the probes taken before it and before the next child.
Raw medians are printed too.  `check_scaling.py` checks that the scaled
figures follow a known change in the work done.

--trace 1 alternates untraced and traced children and reports per-layer
self times (raw seconds) and exact counts from the traced ones; their
stdout must match the untraced stdout byte for byte and their counts must
equal the counts that follow from the inputs.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SCHEMA = os.path.join("docs", "report.schema.json")
PACKAGE = os.path.join("src", "otplab", "cli.py")
SPEC = "BENCHMARK.json"
MIN_SAMPLES = 4
SAMPLE_TIMEOUT_S = 60
# The probe's median duration on the 2-vCPU Intel Xeon (2.0 GHz) host the
# benchmark was written on; scaled times read as seconds on that host.
REFERENCE_PROBE_S = 0.06
# Traced counts that must equal the counts following from the inputs.
EXACT_COUNTS = tuple(f"{layer}.calls" for layer in tracer.LAYERS) + (
    "infotheory.enumerate_joint.entries",
    "infotheory.budget_fraction",
    "infotheory.posterior.entries_scanned",
    "otp.ciphertext_joint.entries",
    "otp.ciphertext_joint.bytes_computed",
    "quantum.swap_distribution_oracle.distinct_ratio",
)
# Pause before each probe, so the previous child's exit and memory release
# are over before the host is timed and the next child starts.
SETTLE_S = 0.2


def declared_metrics(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for a section."""
    with open(SPEC) as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[section]}


# The probe's inputs are built once, so the probe itself allocates no fresh
# memory: a fresh 16 MB numpy allocation ran about 30% faster right after an
# 800 MB child had exited than after a 70 MB one, so its time tracked the
# previous child's footprint.
_PROBE_WORDS = {format(i, "016b"): i for i in range(1 << 14)}
_PROBE_STATE = np.eye(4) * 0.5
_PROBE_CODES = np.arange(1 << 21, dtype=np.int64)
_PROBE_SCRATCH = np.empty_like(_PROBE_CODES)


def host_probe() -> float:
    """Seconds a fixed mix of dict/string, small numpy and large-array work takes now."""
    start = time.perf_counter()
    sum(_PROBE_WORDS[format(i, "016b")] for i in range(1 << 14))
    for _ in range(1500):
        product = np.kron(_PROBE_STATE, _PROBE_STATE)
        abs(np.vdot(product[0], product[1])) ** 2
    for _ in range(4):
        np.right_shift(_PROBE_CODES, 3, out=_PROBE_SCRATCH)
        np.bitwise_xor(_PROBE_SCRATCH, _PROBE_CODES, out=_PROBE_SCRATCH)
    return time.perf_counter() - start


def settled_probe() -> float:
    time.sleep(SETTLE_S)
    return host_probe()


def run_sample(argv_json: bytes, traced: bool, env: dict) -> dict:
    """Start one child, wait for it, and return its measurements."""
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, str(spawn_ns), "1" if traced else "0"],
            input=argv_json, capture_output=True, env=env, timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "failures": [f"timed out after {SAMPLE_TIMEOUT_S} s"]}
    stderr = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
    if proc.returncode != 0:
        return {"traced": traced, "failures": [f"sampler exited {proc.returncode}: {stderr}"]}
    head, _, report = proc.stdout.partition(b"\n")
    header = json.loads(head)
    sample = {
        "traced": traced,
        "failures": [],
        "wall_s": header["wall_s"],
        "setup_s": header["setup_s"],
        "peak_rss_mb": header["peak_rss_mb"],
        "sha256": hashlib.sha256(report).hexdigest(),
        "report_size": len(report),
        "report": report,
    }
    if header["exit_code"] != 0:
        sample["failures"].append(f"cli.main returned {header['exit_code']}: {stderr}")
    if traced:
        sample["layers"] = tracer.summarize(header["spans"])
    return sample


def measure(plan: list, seconds: float, env: dict) -> list:
    """Samples until `seconds` have passed, cycling through `plan`.

    `plan` is a list of (argv_json, traced) children; a traced run
    alternates an untraced and a traced child.  Each sample records which
    plan entry it ran, the probe taken before the next child, and its
    slowdown: the mean of the probes on either side over REFERENCE_PROBE_S.
    """
    samples = []
    probes = [settled_probe()]
    deadline = time.monotonic() + seconds
    while len(samples) < MIN_SAMPLES or time.monotonic() < deadline:
        entry = len(samples) % len(plan)
        argv_json, traced = plan[entry]
        sample = run_sample(argv_json, traced, env)
        probes.append(settled_probe())
        sample["entry"] = entry
        sample["probe_after"] = probes[-1]
        sample["slowdown"] = (probes[-2] + probes[-1]) / (2 * REFERENCE_PROBE_S)
        if any("sha256" in s for s in samples):
            sample.pop("report", None)  # only the first report is kept
        samples.append(sample)
    return samples


def report_failures(name: str, report: bytes, validator) -> list:
    """Schema and exact-figure failures of one report."""
    try:
        parsed = json.loads(report)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    errors = [f"schema: {error.message}" for error in validator.iter_errors(parsed)]
    if errors:
        return errors[:3]
    return [f"figure: {label}" for label in workloads.check_figures(name, parsed)]


def gate(name: str, seed: int, samples: list, validator) -> None:
    """Record each sample's correctness failures in place.

    The first report is the reference: it is validated, and every other
    sample must reproduce its bytes exactly.
    """
    reference = next((s for s in samples if "sha256" in s), None)
    if reference is None:
        return
    content = report_failures(name, reference.pop("report"), validator)
    expected = workloads.expected_counts(name, seed)
    for sample in samples:
        if "sha256" not in sample:
            continue
        if sample["sha256"] != reference["sha256"]:
            sample["failures"].append("stdout differs from the run's first report")
        else:
            sample["failures"].extend(content)
        if sample["traced"]:
            layers = sample["layers"]
            for metric in EXACT_COUNTS:
                want = expected.get(metric, 0)
                if layers[metric] != want:
                    sample["failures"].append(f"trace: {metric} = {layers[metric]}, expected {want}")
            if layers["cli.render_json.bytes"] != sample["report_size"]:
                sample["failures"].append("trace: cli.render_json.bytes differs from stdout size")


def end_to_end(plain: list, units: dict) -> dict:
    """Medians of the untraced samples: host-speed scaled times and peak RSS."""
    if not plain:
        return dict.fromkeys(units, 0.0)
    values = {
        key: statistics.median(s[key] / s["slowdown"] for s in plain)
        for key in ("wall_s", "setup_s")
    }
    values["peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in plain)
    for key, value in values.items():
        raw = "" if key == "peak_rss_mb" else f"; raw {statistics.median(s[key] for s in plain):.4f}"
        print(f"  {key:<12} {value:10.4f} {units[key]:<3} median of {len(plain)}{raw}")
    return values


def per_layer(layered: list, plain: list, units: dict) -> dict:
    """Medians of the traced samples' layer metrics, and the tracing overhead."""
    if not layered or not plain:
        return dict.fromkeys(units, 0.0)
    values = {name: statistics.median(layers[name] for layers in layered)
              for name in tracer.summarize([])}
    values["trace_overhead_s"] = (
        values["cli.main.wall_s"] - statistics.median(s["wall_s"] for s in plain)
    )
    shares = tracer.shares(values)
    for key, value in values.items():
        share = shares.get(key.removesuffix(".self_s"))
        share = "" if share is None else f"{share:7.1%}"
        print(f"  {key:<48} {value:14.6g} {units[key]:<6}{share}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < (1 << 64):
        parser.error("--seed must be an unsigned 64-bit integer")

    missing = [path for path in (PACKAGE, SCHEMA, SPEC) if not os.path.isfile(path)]
    if missing:
        print(f"error: run from the otplab repository root; missing {missing}", file=sys.stderr)
        return 2
    try:
        import jsonschema
    except ImportError:
        print("error: the correctness gate needs the jsonschema package", file=sys.stderr)
        return 2
    with open(SCHEMA) as handle:
        validator = jsonschema.Draft7Validator(json.load(handle))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath("src"), HERE, env.get("PYTHONPATH")])
    )
    argv_json = json.dumps(workloads.command_line(args.workload, args.seed)).encode()
    traced = bool(args.trace)
    units = declared_metrics("per_layer" if traced else "end_to_end")
    plan = [(argv_json, False), (argv_json, True)] if traced else [(argv_json, False)]
    samples = measure(plan, args.seconds, env)
    gate(args.workload, args.seed, samples, validator)

    failed = sum(1 for s in samples if s["failures"])
    for sample in samples:
        for failure in sample["failures"][:1]:
            print(f"sample failed: {failure}", file=sys.stderr)
    usable = [s for s in samples if not s["failures"]] or [s for s in samples if "sha256" in s]
    plain = [s for s in usable if not s["traced"]]
    layered = [s["layers"] for s in usable if s["traced"]]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(samples)} samples, {failed} failed, error_rate {failed / len(samples):.4g}")
    values = per_layer(layered, plain, units) if traced else end_to_end(plain, units)
    if set(values) != set(units):
        print(f"error: measured metrics differ from {SPEC}: "
              f"{sorted(set(values) ^ set(units))}", file=sys.stderr)
        return 2

    correct = failed == 0 and bool(plain) and (not traced or bool(layered))
    metrics = {key: {"value": value, "unit": units[key]} for key, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
