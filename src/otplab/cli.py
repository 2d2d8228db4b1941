"""Command-line front end: scenario configuration, seeded runs, reports.

Three commands:

* simulate -- run a scenario and report transcripts plus the exact leakage
  accounting (the numbers never come from trial frequencies: xor-chain
  enumerates its joint, otp-baseline computes its joint from the one
  plaintext slice every ciphertext shares, es-qkd counts the key blocks
  the exact swap-outcome support allows).
* attack -- simulate and additionally mount the eavesdropper attack that
  matches the scenario, reporting what Eve recovers.
* audit -- print the claimed-vs-effective throughput table for the two
  flawed schemes and the correct baseline.

Every scheme is one `Scenario` record in `SCENARIOS`; the three commands
are loops over that registry.

Reports go to standard output (or --out PATH, written whole or not at
all); diagnostics to standard error.  Exit codes: 0 success, 1 internal
failure, 2 configuration error (a bad command line or an unwritable --out
or stdout included: one `error:` line).
Identical command lines, including the seed, produce byte-identical JSON.
The default seed can be overridden with the OTPLAB_SEED environment
variable.

Bell pairs on the command line use the tokens phi+, phi-, psi+, psi-,
joined by ':' within a pair and ',' between pairs, e.g.
--pairs phi+:psi+,phi-:phi-.
"""

import argparse
import itertools
import json
import os
import random
import sys
import traceback
from dataclasses import asdict, dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable

import numpy as np

from . import __version__
from .bits import check_bits, random_bits
from .cryptanalysis import (
    CARRIERS,
    attack_es_qkd_keyset,
    attack_es_qkd_parity,
    efficiency_audit,
    leakage_report,
    xor_chain_view,
)
from .infotheory import Distribution, enumerate_joint, mutual_information, posterior
from .otp import KeyMaterial, ciphertext_joint, derived_correlated, encrypt, random_key
from .protocols import eve_view, run_es_qkd, run_otp_baseline, run_xor_chain
from .quantum import BellLabel
from .tolerances import FLOAT_TOL

# The whole report is built in memory, once, before it is written.
# 100,000 16-bit xor-chain trials peak at about 359 MB resident as text
# and 642 MB as JSON; README.md's "Command line" section gives each
# scenario's text per trial and the cached runs' share.
MAX_TRIALS = 100_000
DEFAULT_MESSAGE_BITS = 2
DEFAULT_PAIRS = "phi+:psi+"


class ConfigError(Exception):
    """Invalid command line or scenario configuration; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as a `ConfigError`, so it prints one `error:` line."""

    def error(self, message):
        raise ConfigError(message)


@dataclass
class ScenarioConfig:
    scenario: str
    seed: int
    trials: int
    fmt: str
    message_bits: int | None = None
    pairs: list | None = None
    out: str | None = None
    plaintext: str | None = None

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "message_bits": self.message_bits,
            "pairs": None if self.pairs is None else [f"{a}:{b}" for a, b in self.pairs],
            "seed": self.seed,
            "trials": self.trials,
            "format": self.fmt,
            "plaintext": self.plaintext,
        }


def parse_pairs(text: str) -> list:
    """Parse "phi+:psi+,phi-:phi-" into a list of Bell label pairs."""
    pairs = []
    for chunk in text.split(","):
        parts = [part.strip() for part in chunk.split(":")]
        if len(parts) != 2:
            raise ConfigError(f"pair {chunk!r} must be two labels joined by ':'")
        try:
            pairs.append((BellLabel.from_token(parts[0]), BellLabel.from_token(parts[1])))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return pairs


def default_seed() -> int:
    raw = os.environ.get("OTPLAB_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"OTPLAB_SEED must be an integer, got {raw!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="otplab",
        description="Simulate flawed quantum-communication pads and measure their leakage.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", choices=tuple(SCENARIOS), required=True)
        p.add_argument(
            "--message-bits", type=int, default=None,
            help=f"xor-chain (even) and otp-baseline only: message length "
                 f"(default {DEFAULT_MESSAGE_BITS})",
        )
        p.add_argument(
            "--pairs", default=None,
            help=f"es-qkd only: initial Bell pairs, e.g. phi+:psi+,phi-:phi- "
                 f"(default {DEFAULT_PAIRS})",
        )
        p.add_argument("--seed", type=int, default=None, help="defaults to $OTPLAB_SEED or 0")
        p.add_argument("--trials", type=int, default=1)
        p.add_argument("--format", choices=("json", "text"), default="text", dest="fmt")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")

    sim = sub.add_parser("simulate", help="run a scenario and report exact leakage")
    add_common(sim)
    atk = sub.add_parser("attack", help="run a scenario and mount Eve's attack")
    add_common(atk)
    atk.add_argument(
        "--plaintext", default=None,
        help="es-qkd only: plaintext to encrypt with the run's key (4 bits per pair)",
    )
    aud = sub.add_parser("audit", help="print the claimed-vs-effective table")
    aud.add_argument("--format", choices=("json", "text"), default="text", dest="fmt")
    aud.add_argument("--out", default=None)
    return parser


def config_from_args(args) -> ScenarioConfig:
    seed = args.seed if args.seed is not None else default_seed()
    if not 0 <= seed < (1 << 64):
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed}")
    if not 1 <= args.trials <= MAX_TRIALS:
        raise ConfigError(f"trials must be between 1 and {MAX_TRIALS}, got {args.trials}")
    plaintext = getattr(args, "plaintext", None)
    sizes = scenario_sizes(args.scenario, args.message_bits, args.pairs)

    if plaintext is not None:
        if args.scenario != "es-qkd":
            raise ConfigError("--plaintext applies to the es-qkd scenario only")
        try:
            check_bits(plaintext, "plaintext")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        bits = 4 * len(sizes["pairs"])
        if len(plaintext) != bits:
            raise ConfigError(
                f"plaintext must cover 4 bits per pair ({bits}), got {len(plaintext)}"
            )

    return ScenarioConfig(
        scenario=args.scenario,
        seed=seed,
        trials=args.trials,
        fmt=args.fmt,
        out=args.out,
        plaintext=plaintext,
        **sizes,
    )


def scenario_sizes(name: str, message_bits: int | None = None,
                   pairs: str | None = None) -> dict:
    """The scenario's size fields of `ScenarioConfig`, defaults filled in and checked.

    A scenario with `message_lengths` takes a message length; the other,
    es-qkd, takes Bell pairs instead.
    """
    accepted = SCENARIOS[name].message_lengths
    if accepted is None:
        if message_bits is not None:
            raise ConfigError(f"--message-bits does not apply to the {name} scenario")
        return {"pairs": parse_pairs(DEFAULT_PAIRS if pairs is None else pairs)}
    if pairs is not None:
        raise ConfigError("--pairs applies to the es-qkd scenario only")
    message_bits = DEFAULT_MESSAGE_BITS if message_bits is None else message_bits
    if message_bits not in accepted:
        raise ConfigError(
            f"{name} message length must be one of {accepted[0]}, {accepted[1]}, ..., "
            f"{accepted[-1]}, got {message_bits}"
        )
    return {"message_bits": message_bits}


def _distributions_match(a: Distribution, b: Distribution) -> bool:
    """Same support, and probabilities equal within FLOAT_TOL."""
    same = a.bit_length == b.bit_length and np.array_equal(a.codes, b.codes)
    return same and bool(np.abs(a.probabilities - b.probabilities).max() <= FLOAT_TOL)


def _xor_chain(config: ScenarioConfig, with_attack: bool):
    joint = enumerate_joint(Distribution.uniform_bits(config.message_bits), xor_chain_view)
    eve_bits = mutual_information(joint)
    # (Eve's view, the report's trial dict) per distinct message, and the
    # report's posterior support list per distinct view.
    seen_messages, supports = {}, {}

    def trial(rng):
        run = run_xor_chain(random_bits(config.message_bits, rng))
        # A trial's view, records and attack block depend only on its message,
        # so trials that repeat a message share them.
        seen = seen_messages.get(run.message)
        view = eve_view(run.transcript) if seen is None else seen[0]
        # Computed in every trial, attack or not: perfbench's expected call
        # counts pin one posterior per xor-chain trial.
        post = posterior(joint, view)
        if seen is None:
            attack = None
            if with_attack:
                # Messages with one view share its posterior, and so its list.
                support = supports.get(view)
                if support is None:
                    support = supports[view] = list(post.support)
                attack = {"view": view, "posterior_support": support, "eve_bits": eve_bits}
            body = _trial(run.transcript.to_records(), run.message, attack)
            seen = seen_messages[run.message] = (view, body)
        return run, seen[1]

    return trial, eve_bits


def _es_qkd(config: ScenarioConfig, with_attack: bool):
    key_sets, key_entropy = attack_es_qkd_keyset(config.pairs)
    # The key sets as report lists, and the true parities: shared by every trial.
    key_sets = [list(blocks) for blocks in key_sets]
    true = None
    if config.plaintext is not None:
        p = [int(ch) for ch in config.plaintext]
        true = [[p[i] ^ p[i + 2], p[i + 1] ^ p[i + 3]] for i in range(0, len(p), 4)]

    def trial(rng):
        run = run_es_qkd(config.pairs, rng)
        attack = None
        if with_attack:
            attack = {"key_sets": key_sets, "key_entropy_given_eve": key_entropy}
            if true is not None:
                pad = KeyMaterial(run.key, derived_correlated("entanglement-swap outcomes"))
                ciphertext = encrypt(config.plaintext, pad).ciphertext
                recovered = [
                    list(attack_es_qkd_parity(ciphertext[4 * i:4 * i + 4], pair))
                    for i, pair in enumerate(config.pairs)
                ]
                attack.update({
                    "ciphertext": ciphertext,
                    "recovered_parities": recovered,
                    "true_parities": true,
                    "parities_match": recovered == true,
                })
        return run, _trial([], run.key, attack)

    return trial, key_entropy


def _otp_baseline(config: ScenarioConfig, with_attack: bool):
    prior = Distribution.uniform_bits(config.message_bits)
    joint = ciphertext_joint(prior)
    eve_bits = mutual_information(joint)

    def trial(rng):
        plaintext = random_bits(config.message_bits, rng)
        transcript = run_otp_baseline(plaintext, random_key(config.message_bits, rng))
        attack = None
        if with_attack:
            ciphertext = eve_view(transcript)
            attack = {
                "ciphertext": ciphertext,
                "eve_bits": eve_bits,
                "posterior_equals_prior": _distributions_match(posterior(joint, ciphertext),
                                                               prior),
            }
        return transcript, _trial(transcript.to_records(), plaintext, attack)

    return trial, eve_bits


def _trial(transcript: list, key_or_message: str, attack) -> dict:
    """One entry of a report's `trials` list."""
    return {"transcript": transcript, "key_or_message": key_or_message, "attack": attack}


@dataclass(frozen=True)
class Scenario:
    """One scheme as the CLI runs it.

    `start(config, with_attack)` runs the exact analysis, once per report,
    and returns (trial, figure): `figure` is the second element of
    `leakage_report`'s pair, and `trial(rng)` runs one seeded trial over
    the report's analysis and memos, returning (run, trial dict).  One
    dict object may serve several trials; the report lists it per trial.
    `message_lengths` is the range of message lengths the scheme accepts, or
    None for es-qkd, which is sized by its Bell pairs.

    Both look up the protocol, attack and enumeration functions as module
    globals at call time, so patching a module binding (as perfbench's
    tracer does) reaches every call.
    """

    start: Callable
    message_lengths: range | None


# The 2**24-entry budget sets the baseline's cap: 2**12 plaintexts x 2**12
# ciphertexts, stored as one 2**12-entry slice.  The chain's 16 bits is a
# chosen cap; its 2**16-message joint is well within the budget.
SCENARIOS = {
    "xor-chain": Scenario(start=_xor_chain, message_lengths=range(2, 17, 2)),
    "es-qkd": Scenario(start=_es_qkd, message_lengths=None),
    "otp-baseline": Scenario(start=_otp_baseline, message_lengths=range(1, 13)),
}


def build_report(config: ScenarioConfig, with_attack: bool) -> dict:
    trial, figure = SCENARIOS[config.scenario].start(config, with_attack)
    trials = []
    base = random.Random(config.seed)
    # One generator, reseeded per trial: `seed` resets the whole state, so
    # each trial's stream is that of a fresh Random(base.getrandbits(64)).
    rng = random.Random()
    for _ in range(config.trials):
        rng.seed(base.getrandbits(64))
        run, body = trial(rng)
        trials.append(body)
    # Every run of one config has the same scheme and carrier count.
    leakage = leakage_report(run, (None, figure))
    return {
        "scenario": config.scenario,
        "config": config.to_dict(),
        "trials": trials,
        "leakage": asdict(leakage),
        "efficiency": asdict(efficiency_audit(leakage)),
        "tool_version": __version__,
    }


def build_audit_rows() -> list:
    """Claimed-vs-effective table: each scheme's efficiency at its default size.

    Every row is the efficiency block of the report `simulate` builds
    without size flags.
    """
    table = []
    for name in SCENARIOS:
        config = ScenarioConfig(name, seed=0, trials=1, fmt="json", **scenario_sizes(name))
        verdict = build_report(config, with_attack=False)["efficiency"]
        claimed = verdict["claimed_bits_per_carrier"]
        effective = verdict["effective_bits_per_carrier"]
        if any(abs(rate - round(rate)) > FLOAT_TOL for rate in (claimed, effective)):
            raise AssertionError("audit table rates must be exact integers")
        table.append({
            "scenario": name,
            "carrier_unit": CARRIERS[name].unit,
            "claimed_bits_per_carrier": int(round(claimed)),
            "effective_bits_per_carrier": int(round(effective)),
            "effective_bits_per_qubit": verdict["effective_bits_per_qubit"],
            "holevo_ok": verdict["holevo_ok"],
        })
    return table


# The exact types `_indented` hands to the C encoder; others take `json.dumps`.
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _encode(obj, depth: int) -> str:
    """`obj` by the C encoder (`indent` is None), each item starting a line `depth` deep."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * depth, ": ")).encode(obj)


def _only(types, values) -> bool:
    return types.issuperset(map(type, values))


def _verbatim(text: str) -> bool:
    """True if the C encoder writes `text` unescaped: printable ASCII without `"` or `\\`."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def _indented(obj, depth: int, memo: dict) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)` with `depth` more indents after each newline.

    A non-empty list of exact `str` items that need no escaping is one
    `str.join`; another container of scalars is one `_encode` call; a list
    of non-empty scalar-only lists, or of such dicts, is one call plus one
    `replace` where the items meet, exact as a JSON string holds no raw
    newline and no scalar starts or ends with a bracket.  Other containers
    recurse; non-str keys and other types take `json.dumps`.

    `memo` holds list texts keyed by (identity, depth): a list is marked at
    its first sight and its text kept from its second on, so a list that
    several trial bodies share is rendered at most twice, and a list seen
    once holds no text beyond its parent's.  The caller keeps the payload,
    and so every keyed list, alive while the memo is in use.
    """
    if type(obj) is not list:
        return _fresh(obj, depth, memo)
    key = (id(obj), depth)
    text = memo.get(key)
    if text is None:
        text = _fresh(obj, depth, memo)
        memo[key] = text if key in memo else None
    return text


def _fresh(obj, depth: int, memo: dict) -> str:
    """`_indented` text of `obj`, built without reading its own memo entry."""
    kind, pad, inner = type(obj), "\n" + "  " * depth, "\n" + "  " * (depth + 1)
    if kind in _SCALARS:
        return _encode(obj, depth)
    if kind not in (dict, list, tuple) or kind is dict and not _only({str}, obj):
        return json.dumps(obj, indent=2, sort_keys=True).replace("\n", pad)
    if kind is list and obj and _only({str}, obj) and _verbatim("".join(obj)):
        items = ('",' + inner + '"').join(obj)
        return f'[{inner}"{items}"{pad}]'
    if _only(_SCALARS, obj.values() if kind is dict else obj):
        text = _encode(obj, depth + 1)
        return text[0] + inner + text[1:-1] + pad + text[-1] if obj else text
    if kind is dict:
        items = [encode_basestring_ascii(k) + ": " + _indented(obj[k], depth + 1, memo)
                 for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    kinds, flat = set(map(type, obj)), itertools.chain.from_iterable
    if all(obj) and (kinds <= {list, tuple} and _only(_SCALARS, flat(obj)) or kinds == {dict}
                     and _only({str}, flat(obj)) and _only(_SCALARS, flat(map(dict.values, obj)))):
        (opening, closing), innermost = "{}" if dict in kinds else "[]", inner + "  "
        text = _encode(obj, depth + 2).replace(closing + "," + innermost + opening,
                                               inner + closing + "," + inner + opening + innermost)
        return "[" + inner + opening + innermost + text[2:-2] + inner + closing + pad + "]"
    items = [_indented(v, depth + 1, memo) for v in obj]
    return "[" + inner + ("," + inner).join(items) + pad + "]"


def render_json(payload: dict) -> str:
    """`json.dumps(payload, indent=2, sort_keys=True)` plus a newline, byte for byte.

    Sorted keys put a report's `trials` last, so the text is a header (the
    other keys, as one object whose closing brace is cut off) and one body
    per trial.  Trials repeat, so each distinct trial object, keyed by its
    identity (the list keeps every trial alive), is rendered once, four
    spaces deep, and a list that several bodies share is rendered at most
    twice (`_indented`'s memo, kept for this call only).  The header, the
    bodies and the separators go into one list and the text is one join of
    it, so the whole text is built once and never copied.  Payloads without
    a nonempty `trials` list sorted last, such as the audit table, are
    rendered whole.  Every piece is `_indented` text: batched C-encoder
    calls, or `json.dumps` for non-str keys and values of types other than
    dict, list, tuple and the JSON scalars.
    """
    trials = payload.get("trials")
    keys = sorted(payload)
    memo = {}
    if not (isinstance(trials, list) and trials and len(keys) > 1 and keys[-1] == "trials"):
        return _indented(payload, 0, memo) + "\n"
    header = _indented({k: payload[k] for k in keys[:-1]}, 0, memo)
    bodies, parts = {}, [header[:-2], ',\n  "trials": [\n    ']
    for trial in trials:
        body = bodies.get(id(trial))
        if body is None:
            body = bodies[id(trial)] = _indented(trial, 2, memo)
        parts += (body, ",\n    ")
    parts[-1] = "\n  ]\n}\n"
    return "".join(parts)


def _trial_text(trial: dict) -> str:
    """The lines of a text report's trial after its `trial i:` line, each ending in a newline.

    `render_report_text` calls this once per distinct trial object, keyed by
    identity (the report's list keeps every trial alive), and lists the text
    under each `trial i:` line that holds that object.
    """
    if trial["transcript"]:
        lines = [f"  {event['sender']} {event['channel']} {event['payload']}\n"
                 for event in trial["transcript"]]
    else:
        lines = ["  (no channel events)\n"]
    lines.append(f"  key_or_message: {trial['key_or_message']}\n")
    attack = trial["attack"]
    if attack is not None:
        lines += [f"  attack.{k}: {attack[k]}\n" for k in sorted(attack)]
    return "".join(lines)


def render_report_text(report: dict) -> str:
    """The human-readable report: one line per fact, each trial under its `trial i:` line.

    Each distinct trial object is rendered once (`_trial_text`); its text and
    every other piece go into one list, and the report is one join of it.
    """
    cfg = report["config"]
    parts = [f"scenario: {report['scenario']}\n",
             "config: " + " ".join(f"{k}={cfg[k]}" for k in sorted(cfg)) + "\n"]
    bodies = {}
    for i, trial in enumerate(report["trials"], start=1):
        body = bodies.get(id(trial))
        if body is None:
            body = bodies[id(trial)] = _trial_text(trial)
        parts += (f"trial {i}:\n", body)
    leak = report["leakage"]
    parts.append(
        "leakage: claimed={claimed_bits} receiver={receiver_bits} eve={eve_bits} "
        "secure={secure_bits} carriers={c} qubits={q}\n".format(
            c=leak["resources"]["carrier_states"], q=leak["resources"]["qubits"], **leak
        )
    )
    eff = report["efficiency"]
    parts.append(
        "efficiency: claimed/carrier={claimed_bits_per_carrier} "
        "effective/carrier={effective_bits_per_carrier} "
        "effective/qubit={effective_bits_per_qubit} holevo_ok={holevo_ok}\n".format(**eff)
    )
    parts.append(f"tool_version: {report['tool_version']}\n")
    return "".join(parts)


def render_audit_text(rows: list) -> str:
    header = f"{'scenario':<14}{'claimed':>8}{'effective':>10}  per-carrier  bits/qubit  ceiling"
    lines = [header]
    for row in rows:
        lines.append(
            f"{row['scenario']:<14}{row['claimed_bits_per_carrier']:>8}"
            f"{row['effective_bits_per_carrier']:>10}  {row['carrier_unit']:<11}"
            f"  {row['effective_bits_per_qubit']:<10.4g}"
            f"  {'ok' if row['holevo_ok'] else 'VIOLATED'}"
        )
    return "\n".join(lines) + "\n"


def _discard_stdout() -> None:
    """Point stdout's descriptor, if it has one, at the null device after a failed write.

    The stream keeps the unwritten bytes, and the interpreter retries them at exit.
    """
    try:
        fd = sys.stdout.fileno()
    except OSError:
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            _discard_stdout()
            raise ConfigError(f"cannot write standard output: {exc.strerror or exc}") from None
        return
    # Write beside the target, then rename over it, so a failed write never
    # leaves a partial report behind.
    partial = f"{out}.{os.getpid()}.partial"
    try:
        handle = open(partial, "x")
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror or exc}") from None
    try:
        with handle:
            handle.write(text)
        os.replace(partial, out)
    except BaseException as exc:  # an interrupt too: remove the partial, then re-raise
        os.remove(partial)
        if not isinstance(exc, OSError):
            raise
        raise ConfigError(f"cannot write {out}: {exc.strerror or exc}") from None


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help; a bad command line raises ConfigError
            return exc.code
        if args.command == "audit":
            rows = build_audit_rows()
            if args.fmt == "json":
                text = render_json({"rows": rows, "tool_version": __version__})
            else:
                text = render_audit_text(rows)
            _emit(text, args.out)
            return 0
        config = config_from_args(args)
        report = build_report(config, with_attack=args.command == "attack")
        text = render_json(report) if config.fmt == "json" else render_report_text(report)
        _emit(text, config.out)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
