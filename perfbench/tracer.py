"""Outside-in tracer for otplab's public functions.

The program itself is not changed.  `install` replaces each traced function
at every `otplab` module binding that holds it (for example
`otplab.cli.enumerate_joint` and `otplab.cryptanalysis.enumerate_joint`,
or the `otplab.infotheory` module global that `mutual_information` calls
`conditional_entropy` through) with a wrapper that records a span.  Spans
carry their parent and stay in memory; the sampling process writes them
out when the traced call ends, and `summarize` turns them into per-layer
self times and counts.
"""

import importlib
import sys
import time

ROOT = "cli.main"
# Traced layers, named <module>.<function> after the defining module.
LAYERS = (
    "bits.random_bits",
    "infotheory.enumerate_joint",
    "infotheory.mutual_information",
    "infotheory.conditional_entropy",
    "infotheory.posterior",
    "otp.ciphertext_joint",
    "otp.encrypt",
    "quantum.swap_distribution_oracle",
    "cryptanalysis.attack_es_qkd_keyset",
    "cryptanalysis.attack_es_qkd_parity",
    "protocols.run_xor_chain",
    "protocols.run_es_qkd",
    "protocols.run_otp_baseline",
    "cli.render_json",
)
ENUMERATION_BUDGET = 1 << 24
# Bytes per joint entry the 2**24 builders compute: int64 secret code,
# int64 observation code and float64 probability.
JOINT_ENTRY_BYTES = 24

# Work recorded on a span, computed from the call's arguments and result.
_WORK = {
    "infotheory.enumerate_joint": lambda args, result: len(result),
    "otp.ciphertext_joint": lambda args, result: len(result),
    "infotheory.posterior": lambda args, result: len(args[0]),
    "cli.render_json": lambda args, result: len(result.encode()),
    "quantum.swap_distribution_oracle": lambda args, result: 4 * args[0].code + args[1].code,
}


class Tracer:
    """In-memory span recorder; a span is [layer, parent, start_ns, end_ns, work]."""

    def __init__(self):
        self.spans = []
        self._open = None

    def call(self, layer, fn, args, kwargs):
        parent = self._open
        span = [layer, parent, 0, 0, None]
        self._open = len(self.spans)
        self.spans.append(span)
        span[2] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter_ns()
            self._open = parent
        work = _WORK.get(layer)
        if work is not None:
            span[4] = work(args, result)
        return result


def _wrapper(tracer, layer, fn):
    def traced(*args, **kwargs):
        return tracer.call(layer, fn, args, kwargs)
    return traced


def install(tracer: Tracer) -> None:
    """Wrap every traced function at each `otplab` module binding that holds it."""
    for layer in LAYERS:
        module_name, function_name = layer.split(".")
        original = getattr(importlib.import_module(f"otplab.{module_name}"), function_name)
        wrapper = _wrapper(tracer, layer, original)
        for name, module in list(sys.modules.items()):
            if name != "otplab" and not name.startswith("otplab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def summarize(spans) -> dict:
    """Per-layer metrics from one traced call's spans.

    A layer's self time is its spans' duration minus the time their direct
    child spans cover; calls run on one thread, so children never overlap.
    Every layer reports, with zero calls if it was never entered.
    """
    child_ns = [0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    self_ns = dict.fromkeys((ROOT, *LAYERS), 0)
    calls = dict.fromkeys(LAYERS, 0)
    work = {layer: [] for layer in _WORK}
    root_ns = 0
    for index, (layer, parent, start, end, units) in enumerate(spans):
        self_ns[layer] += end - start - child_ns[index]
        if layer == ROOT:
            root_ns += end - start
            continue
        calls[layer] += 1
        if units is not None:
            work[layer].append(units)

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_ns[layer] / 1e9
        metrics[f"{layer}.calls"] = calls[layer]
    metrics["cli.other_self_s"] = self_ns[ROOT] / 1e9
    metrics["cli.main.wall_s"] = root_ns / 1e9
    builds = work["infotheory.enumerate_joint"] + work["otp.ciphertext_joint"]
    metrics["infotheory.enumerate_joint.entries"] = sum(work["infotheory.enumerate_joint"])
    metrics["infotheory.budget_fraction"] = max(builds, default=0) / ENUMERATION_BUDGET
    metrics["infotheory.posterior.entries_scanned"] = sum(work["infotheory.posterior"])
    metrics["otp.ciphertext_joint.entries"] = sum(work["otp.ciphertext_joint"])
    metrics["otp.ciphertext_joint.bytes_computed"] = (
        JOINT_ENTRY_BYTES * metrics["otp.ciphertext_joint.entries"]
    )
    oracle = work["quantum.swap_distribution_oracle"]
    metrics["quantum.swap_distribution_oracle.distinct_ratio"] = (
        len(set(oracle)) / len(oracle) if oracle else 0.0
    )
    metrics["cli.render_json.bytes"] = sum(work["cli.render_json"])
    return metrics


def shares(metrics: dict) -> dict:
    """Each layer's self time as a share of the traced `cli.main` wall time."""
    wall = metrics["cli.main.wall_s"]
    return {name.removesuffix(".self_s"): value / wall
            for name, value in metrics.items() if name.endswith("self_s")}
