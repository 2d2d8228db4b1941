"""Command-line front end: scenario configuration, seeded runs, reports.

Three commands:

* simulate -- run a scenario and report transcripts plus the exact leakage
  accounting (the numbers come from full enumeration, never from trial
  frequencies).
* attack -- simulate and additionally mount the eavesdropper attack that
  matches the scenario, reporting what Eve recovers.
* audit -- print the claimed-vs-effective throughput table for the two
  flawed schemes and the correct baseline.

Every scheme is one `Scenario` record in `SCENARIOS`; the three commands
are loops over that registry.

Reports go to standard output (or --out PATH, written whole or not at
all); diagnostics to standard error.  Exit codes: 0 success, 2
configuration error (including an unwritable --out), 1 internal failure.
Identical command lines, including the seed, produce byte-identical JSON.
The default seed can be overridden with the OTPLAB_SEED environment
variable.

Bell pairs on the command line use the tokens phi+, phi-, psi+, psi-,
joined by ':' within a pair and ',' between pairs, e.g.
--pairs phi+:psi+,phi-:phi-.
"""

import argparse
import json
import os
import random
import sys
import traceback
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import __version__
from .bits import check_bits, random_bits
from .cryptanalysis import (
    attack_es_qkd_keyset,
    attack_es_qkd_parity,
    efficiency_audit,
    leakage_report,
    xor_chain_view,
)
from .infotheory import Distribution, enumerate_joint, mutual_information, posterior
from .otp import KeyMaterial, ciphertext_joint, derived_correlated, encrypt, random_key
from .protocols import eve_view, run_es_qkd, run_otp_baseline, run_xor_chain
from .quantum import PHI_PLUS, PSI_PLUS, BellLabel
from .tolerances import FLOAT_TOL

# Exact-analysis ceilings: 2**bits messages for the chain, and
# 2**bits plaintexts x 2**bits pads for the baseline (the 2**24 budget).
MAX_XOR_MESSAGE_BITS = 16
MAX_OTP_MESSAGE_BITS = 12
# The whole report is built in memory, about 5 KB per trial.
MAX_TRIALS = 100_000
DEFAULT_MESSAGE_BITS = 2
DEFAULT_PAIRS = "phi+:psi+"


class ConfigError(Exception):
    """Invalid scenario configuration; maps to exit code 2."""


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
        parts = chunk.strip().split(":")
        if len(parts) != 2:
            raise ConfigError(f"pair {chunk!r} must be two labels joined by ':'")
        try:
            pairs.append((BellLabel.from_token(parts[0]), BellLabel.from_token(parts[1])))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if not pairs:
        raise ConfigError("at least one Bell pair is required")
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
    parser = argparse.ArgumentParser(
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

    message_bits = None
    pairs = None
    if args.scenario == "es-qkd":
        if args.message_bits is not None:
            raise ConfigError("--message-bits does not apply to the es-qkd scenario")
        pairs = parse_pairs(DEFAULT_PAIRS if args.pairs is None else args.pairs)
    else:
        if args.pairs is not None:
            raise ConfigError("--pairs applies to the es-qkd scenario only")
        message_bits = DEFAULT_MESSAGE_BITS if args.message_bits is None else args.message_bits
    if args.scenario == "xor-chain":
        if message_bits < 2 or message_bits % 2 != 0:
            raise ConfigError(f"xor-chain needs an even message length >= 2, got {message_bits}")
        if message_bits > MAX_XOR_MESSAGE_BITS:
            raise ConfigError(
                f"xor-chain message length is capped at {MAX_XOR_MESSAGE_BITS} "
                "(exact enumeration over all messages)"
            )
    elif args.scenario == "otp-baseline":
        if message_bits < 1:
            raise ConfigError(f"otp-baseline needs a message length >= 1, got {message_bits}")
        if message_bits > MAX_OTP_MESSAGE_BITS:
            raise ConfigError(
                f"otp-baseline message length is capped at {MAX_OTP_MESSAGE_BITS} "
                "(exact enumeration over all plaintext/pad pairs)"
            )

    if plaintext is not None:
        if args.scenario != "es-qkd":
            raise ConfigError("--plaintext applies to the es-qkd scenario only")
        try:
            check_bits(plaintext, "plaintext")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if len(plaintext) != 4 * len(pairs):
            raise ConfigError(
                f"plaintext must cover 4 bits per pair ({4 * len(pairs)}), got {len(plaintext)}"
            )

    return ScenarioConfig(
        scenario=args.scenario,
        message_bits=message_bits,
        pairs=pairs,
        seed=seed,
        trials=args.trials,
        fmt=args.fmt,
        out=args.out,
        plaintext=plaintext,
    )


def _distributions_match(a: Distribution, b: Distribution) -> bool:
    """Same support, and probabilities equal within FLOAT_TOL."""
    same = a.bit_length == b.bit_length and np.array_equal(a.codes, b.codes)
    return same and bool(np.abs(a.probabilities - b.probabilities).max() <= FLOAT_TOL)


def _xor_chain_analysis(config: ScenarioConfig):
    joint = enumerate_joint(Distribution.uniform_bits(config.message_bits), xor_chain_view)
    return joint, mutual_information(joint)


def _xor_chain_trial(config: ScenarioConfig, analysis, rng, with_attack: bool):
    joint, eve_bits = analysis
    run = run_xor_chain(random_bits(config.message_bits, rng))
    view = eve_view(run.transcript)
    # Computed in every trial, attack or not: perfbench's expected call
    # counts pin one posterior per xor-chain trial.
    post = posterior(joint, view)
    attack = None
    if with_attack:
        attack = {"view": view, "posterior_support": list(post.support), "eve_bits": eve_bits}
    return run, run.transcript.to_records(), run.message, attack


def _es_qkd_trial(config: ScenarioConfig, analysis, rng, with_attack: bool):
    key_sets, key_entropy = analysis
    run = run_es_qkd(config.pairs, rng)
    attack = None
    if with_attack:
        attack = {
            "key_sets": [list(blocks) for blocks in key_sets],
            "key_entropy_given_eve": key_entropy,
        }
        if config.plaintext is not None:
            pad = KeyMaterial(run.key, derived_correlated("entanglement-swap outcomes"))
            ciphertext = encrypt(config.plaintext, pad).ciphertext
            recovered = [
                list(attack_es_qkd_parity(ciphertext[4 * i:4 * i + 4], pair))
                for i, pair in enumerate(config.pairs)
            ]
            p = [int(ch) for ch in config.plaintext]
            true = [[p[i] ^ p[i + 2], p[i + 1] ^ p[i + 3]] for i in range(0, len(p), 4)]
            attack.update({
                "ciphertext": ciphertext,
                "recovered_parities": recovered,
                "true_parities": true,
                "parities_match": recovered == true,
            })
    return run, [], run.key, attack


def _otp_baseline_analysis(config: ScenarioConfig):
    prior = Distribution.uniform_bits(config.message_bits)
    joint = ciphertext_joint(prior)
    return (prior, joint), mutual_information(joint)


def _otp_baseline_trial(config: ScenarioConfig, analysis, rng, with_attack: bool):
    (prior, joint), eve_bits = analysis
    plaintext = random_bits(config.message_bits, rng)
    transcript = run_otp_baseline(plaintext, random_key(config.message_bits, rng))
    attack = None
    if with_attack:
        ciphertext = eve_view(transcript)
        attack = {
            "ciphertext": ciphertext,
            "eve_bits": eve_bits,
            "posterior_equals_prior": _distributions_match(posterior(joint, ciphertext), prior),
        }
    return transcript, transcript.to_records(), plaintext, attack


@dataclass(frozen=True)
class Scenario:
    """One scheme as the CLI runs it.

    `analyze(config)` is the exact analysis, run once per report; its
    result is the second argument of `leakage_report`.
    `trial(config, analysis, rng, with_attack)` runs one seeded trial and
    returns (run, transcript records, key_or_message, attack).
    `audit_config` sizes the scheme's row of the audit table.

    Both callables look up the protocol, attack and enumeration functions
    as module globals at call time, so patching a module binding (as
    perfbench's tracer does) reaches every call.
    """

    analyze: Callable
    trial: Callable
    carrier_unit: str
    audit_config: dict


SCENARIOS = {
    "xor-chain": Scenario(
        analyze=_xor_chain_analysis,
        trial=_xor_chain_trial,
        carrier_unit="ghz-state",
        audit_config={"message_bits": 2},
    ),
    "es-qkd": Scenario(
        analyze=lambda config: attack_es_qkd_keyset(config.pairs),
        trial=_es_qkd_trial,
        carrier_unit="swap",
        audit_config={"pairs": [(PHI_PLUS, PSI_PLUS)]},
    ),
    "otp-baseline": Scenario(
        analyze=_otp_baseline_analysis,
        trial=_otp_baseline_trial,
        carrier_unit="pad-bit",
        audit_config={"message_bits": 2},
    ),
}


def build_report(config: ScenarioConfig, with_attack: bool) -> dict:
    scenario = SCENARIOS[config.scenario]
    analysis = scenario.analyze(config)
    trials = []
    leakage = None
    base = random.Random(config.seed)
    for _ in range(config.trials):
        rng = random.Random(base.getrandbits(64))
        run, transcript, key_or_message, attack = scenario.trial(
            config, analysis, rng, with_attack
        )
        if leakage is None:
            leakage = leakage_report(run, analysis)
        trials.append({
            "transcript": transcript,
            "key_or_message": key_or_message,
            "attack": attack,
        })
    return {
        "scenario": config.scenario,
        "config": config.to_dict(),
        "trials": trials,
        "leakage": asdict(leakage),
        "efficiency": asdict(efficiency_audit(leakage)),
        "tool_version": __version__,
    }


def build_audit_rows() -> list:
    """Claimed-vs-effective table: each scheme's efficiency at its audit size.

    Every row is the efficiency block of the same report `simulate` builds.
    """
    table = []
    for name, scenario in SCENARIOS.items():
        config = ScenarioConfig(name, seed=0, trials=1, fmt="json", **scenario.audit_config)
        verdict = build_report(config, with_attack=False)["efficiency"]
        claimed = verdict["claimed_bits_per_carrier"]
        effective = verdict["effective_bits_per_carrier"]
        if any(abs(rate - round(rate)) > FLOAT_TOL for rate in (claimed, effective)):
            raise AssertionError("audit table rates must be exact integers")
        table.append({
            "scenario": name,
            "carrier_unit": scenario.carrier_unit,
            "claimed_bits_per_carrier": int(round(claimed)),
            "effective_bits_per_carrier": int(round(effective)),
            "effective_bits_per_qubit": verdict["effective_bits_per_qubit"],
            "holevo_ok": verdict["holevo_ok"],
        })
    return table


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_report_text(report: dict) -> str:
    lines = [f"scenario: {report['scenario']}"]
    cfg = report["config"]
    lines.append("config: " + " ".join(f"{k}={cfg[k]}" for k in sorted(cfg)))
    for i, trial in enumerate(report["trials"], start=1):
        lines.append(f"trial {i}:")
        if trial["transcript"]:
            for event in trial["transcript"]:
                lines.append(f"  {event['sender']} {event['channel']} {event['payload']}")
        else:
            lines.append("  (no channel events)")
        lines.append(f"  key_or_message: {trial['key_or_message']}")
        attack = trial["attack"]
        if attack is not None:
            for k in sorted(attack):
                lines.append(f"  attack.{k}: {attack[k]}")
    leak = report["leakage"]
    lines.append(
        "leakage: claimed={claimed_bits} receiver={receiver_bits} eve={eve_bits} "
        "secure={secure_bits} carriers={c} qubits={q}".format(
            c=leak["resources"]["carrier_states"], q=leak["resources"]["qubits"], **leak
        )
    )
    eff = report["efficiency"]
    lines.append(
        "efficiency: claimed/carrier={claimed_bits_per_carrier} "
        "effective/carrier={effective_bits_per_carrier} "
        "effective/qubit={effective_bits_per_qubit} holevo_ok={holevo_ok}".format(**eff)
    )
    lines.append(f"tool_version: {report['tool_version']}")
    return "\n".join(lines) + "\n"


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


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
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
    except OSError as exc:
        os.remove(partial)
        raise ConfigError(f"cannot write {out}: {exc.strerror or exc}") from None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
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
