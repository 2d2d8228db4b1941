"""Command-line front end: scenario configuration, seeded runs, reports.

Three commands:

* simulate -- run a scenario and report transcripts plus the exact leakage
  accounting, never from trial frequencies: the scheme's `cryptanalysis`
  attack, set up once per report, computes it.
* attack -- simulate and additionally mount the eavesdropper attack that
  matches the scenario, reporting what Eve recovers.
* audit -- print the claimed-vs-effective throughput table of every scheme.

Every scheme is one `Scenario` in `SCENARIOS`, read when a line is, and is
priced by its `Analysis`'s accounting row; the three commands loop over
that registry.  A `ScenarioConfig`, an immutable `records.Record`, checks
and completes its own settings, so a config built directly is refused
where the command line would be; where the report goes is not part of it.

The command line is `otplab [-h] COMMAND [OPTION ...]`, read from one
option table per command (`COMMANDS`) in the grammar and words of the
argparse parser it replaced:

* an option is `--name VALUE` or `--name=VALUE`; a unique prefix of its
  name stands for it (`--scen`), and a later option overrides an earlier;
* a separate value may not look like an option: a negative number
  (`--seed -1`, left to the range check) or a token holding a space is a
  value; attached with '=', any text is;
* integer options take ASCII digits, after a '-' only for a negative
  number ("-0" is refused);
* an ambiguous prefix is refused before any token is taken; then tokens
  are taken left to right, so -h/--help prints help (the command's, or
  the top level's before the command) and exits 0 unless an earlier token
  was refused; a missing --scenario is refused after the last token, and
  tokens no option took (those after `--` included) last.

Reports go to standard output (or --out PATH: a regular file, or a
symlink's target, written whole or not at all; a FIFO or device in
place), a text file in 2**20-character slices; diagnostics to standard
error.  A JSON report is byte-identical to `json.dumps(report, indent=2,
sort_keys=True)`: `json.dumps` writes its header, and each trial body is
written directly from the one shape every report's trials have.  Exit
codes: 0 success, 1 internal failure, 2 configuration error (a bad
command line or an unwritable --out or stdout, closed included: one
`error:` line, its non-printable characters escaped, if standard error
takes it).
Identical command lines, including the seed, produce byte-identical JSON:
each trial draws from its own stream, that of `random.Random(s)` for the
trial's seed s, the next `getrandbits(64)` of `Random(seed)`.  One rule,
`bits.trial_streams`, hands each trial its stream: a reseeded generator, or
for a long report the bitstrings its stream draws, planned in bulk.
The default seed can be overridden with the OTPLAB_SEED environment
variable.

Bell pairs on the command line use the tokens phi+, phi-, psi+, psi-,
joined by ':' within a pair and ',' between pairs, e.g.
--pairs phi+:psi+,phi-:phi-.
"""

import errno
import gc
import io
import json
import math
import os
import re
import stat
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

# OpenBLAS starts its worker threads when numpy is imported, about half of
# that import's time, and no figure uses a threaded BLAS call.  So the
# process that runs a command loads numpy with one thread, unless the user
# set a count; a library import of otplab leaves the environment alone.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .bits import check_bits, random_bits, trial_streams
from .cryptanalysis import (
    attack_es_qkd_keyset,
    attack_es_qkd_parity,
    attack_otp_baseline,
    attack_xor_chain,
    leakage_report,
)
from .infotheory import Distribution
from .otp import KeyMaterial, encrypt, random_key
from .protocols import XOR_CHAIN_MEMO_BITS, eve_view, run_es_qkd, run_otp_baseline, run_xor_chain
from .quantum import BellLabel
from .records import Record
from .tolerances import FLOAT_TOL

# The whole report is built in memory, once, before it is written.
# 100,000 16-bit xor-chain trials peak at about 321 MB resident as text
# and 535 MB as JSON; README.md's "Command line" section gives each
# scenario's text per trial and the cached runs' share.
MAX_TRIALS = 100_000
# es-qkd's swaps (pairs x trials): the carriers of MAX_TRIALS 16-bit trials.
MAX_SWAPS = 8 * MAX_TRIALS
DEFAULT_MESSAGE_BITS = 2
DEFAULT_PAIRS = "phi+:psi+"


class ConfigError(Exception):
    """Invalid command line or scenario configuration; maps to exit code 2."""


class ScenarioConfig(Record):
    """One scenario's settings, checked and completed however the config is built.

    A sizing option the scheme's `SCENARIOS` row does not take is refused.
    `message_bits` defaults to `DEFAULT_MESSAGE_BITS`; `pairs`, a non-empty
    sequence of (BellLabel, BellLabel) tuples stored as a tuple, defaults to
    `DEFAULT_PAIRS`, and `plaintext` (for `attack`) has 4 bits per pair;
    pairs x trials are at most `MAX_SWAPS`.  The checks run in the command
    line's order, so both give the same first error.
    """

    __slots__ = ("scenario", "seed", "trials", "fmt", "message_bits", "pairs", "plaintext")

    def __init__(self, scenario: str, seed: int, trials: int, fmt: str,
                 message_bits: int | None = None, pairs: tuple | None = None,
                 plaintext: str | None = None):
        if not (isinstance(scenario, str) and scenario in SCENARIOS):
            raise ConfigError(f"scenario must be one of {', '.join(SCENARIOS)}, got {scenario!r}")
        if fmt not in ("json", "text"):
            raise ConfigError(f"format must be json or text, got {fmt!r}")
        accepted = SCENARIOS[scenario].message_lengths
        given = {"--message-bits": message_bits, "--pairs": pairs, "--plaintext": plaintext}
        for name in ("--message-bits",) if accepted is None else ("--pairs", "--plaintext"):
            if given[name] is not None:
                raise ConfigError(f"{name} does not apply to the {scenario} scenario")
        if accepted is None:
            completed = parse_pairs(DEFAULT_PAIRS) if pairs is None else pairs
            completed = tuple(completed) if isinstance(completed, (list, tuple)) else ()
            if not completed or not all(type(pair) is tuple and len(pair) == 2 and all(
                    isinstance(label, BellLabel) for label in pair) for pair in completed):
                raise ConfigError("pairs must be a non-empty sequence of (BellLabel, BellLabel) "
                                  f"tuples, got {pairs!r}")
            pairs = completed
        else:
            message_bits = DEFAULT_MESSAGE_BITS if message_bits is None else message_bits
            if type(message_bits) is not int or message_bits not in accepted:
                shown = [*accepted] if len(accepted) <= 2 else [*accepted[:2], "...", accepted[-1]]
                raise ConfigError(f"{scenario} message length must be one of "
                                  f"{', '.join(map(str, shown))}, got {message_bits}")
        if plaintext is not None:
            try:
                check_bits(plaintext, "plaintext")
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            if len(plaintext) != 4 * len(pairs):
                raise ConfigError(f"plaintext must cover 4 bits per pair ({4 * len(pairs)}), "
                                  f"got {len(plaintext)}")
        if type(seed) is not int or not 0 <= seed < (1 << 64):
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed}")
        if type(trials) is not int or not 1 <= trials <= MAX_TRIALS:
            raise ConfigError(f"trials must be between 1 and {MAX_TRIALS}, got {trials}")
        if pairs is not None and len(pairs) * trials > MAX_SWAPS:
            raise ConfigError(f"pairs x trials must be at most {MAX_SWAPS} swaps, "
                              f"got {len(pairs)} x {trials}")
        super().__init__(scenario, seed, trials, fmt, message_bits, pairs, plaintext)

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
    """$OTPLAB_SEED, default 0, read by `_integer`: an unsigned 64-bit integer.

    Every refusal, "-1" included, names the variable, as `--seed`'s would not.
    """
    raw = os.environ.get("OTPLAB_SEED", "0")
    try:
        if 0 <= (seed := _integer(raw)) < 1 << 64:
            return seed
    except ValueError:
        pass
    raise ConfigError(f"OTPLAB_SEED must be an unsigned 64-bit integer, got {raw!r}")


def _integer(text: str) -> int:
    """ASCII digits, after a '-' that makes them negative: each integer option and $OTPLAB_SEED.

    The '-' form reaches the range message; "-0", " 1_0 ", "+3", "1e3" and
    more than `int`'s 4,300 digits raise ValueError.
    """
    negative = text.startswith("-")
    digits = text[1:] if negative else text
    if not (digits.isascii() and digits.isdigit()) or negative and not digits.strip("0"):
        raise ValueError(text)
    return int(text)


def config_from_args(args) -> ScenarioConfig:
    """The config of parsed `simulate` or `attack` arguments; the config checks them."""
    return ScenarioConfig(
        scenario=args.scenario,
        seed=default_seed() if args.seed is None else args.seed,
        trials=args.trials,
        fmt=args.fmt,
        message_bits=args.message_bits,
        pairs=None if args.pairs is None else parse_pairs(args.pairs),
        plaintext=getattr(args, "plaintext", None),
    )


def _distributions_match(a: Distribution, b: Distribution) -> bool:
    """Same support, and probabilities equal within FLOAT_TOL."""
    same = a.bit_length == b.bit_length and np.array_equal(a.codes, b.codes)
    return same and bool(np.abs(a.probabilities - b.probabilities).max() <= FLOAT_TOL)


def _xor_chain(config: ScenarioConfig, with_attack: bool):
    analysis = attack_xor_chain(Distribution.uniform_bits(config.message_bits))
    # (Eve's view, the report's trial dict) per distinct message, and the
    # report's attack block per distinct view, shared by its messages' trials.
    seen_messages, blocks = {}, {}

    def trial(rng):
        run = run_xor_chain(random_bits(config.message_bits, rng))
        # A trial's view, records and attack block depend only on its message,
        # so trials that repeat a message share them.
        seen = seen_messages.get(run.message)
        view = eve_view(run.transcript) if seen is None else seen[0]
        # Computed in every trial, attack or not: perfbench's expected call
        # counts pin one posterior per xor-chain trial.
        post = analysis.attack(view)
        if seen is None:
            block = blocks.get(view) if with_attack else None
            if with_attack and block is None:
                block = blocks[view] = {"view": view, "posterior_support": list(post.support),
                                        "eve_bits": analysis.eve_bits}
            body = _trial(run.transcript.to_records(), run.message, block)
            seen = seen_messages[run.message] = (view, body)
        return run, seen[1]

    return trial, analysis


def _es_qkd(config: ScenarioConfig, with_attack: bool):
    analysis = attack_es_qkd_keyset(config.pairs)
    # The key sets as report lists and the true parities: shared by every trial.
    # The true parities are also kept as tuples, the form the parity attack
    # returns, beside each swap's (start, stop, pair) slice of the ciphertext.
    key_sets = [list(blocks) for blocks in analysis.attack]
    true = None
    if config.plaintext is not None:
        p = [int(ch) for ch in config.plaintext]
        true_tuples = [(p[i] ^ p[i + 2], p[i + 1] ^ p[i + 3]) for i in range(0, len(p), 4)]
        true = [list(parities) for parities in true_tuples]
        swaps = [(4 * i, 4 * i + 4, pair) for i, pair in enumerate(config.pairs)]

    def trial(rng):
        run = run_es_qkd(config.pairs, rng)
        key = run.key
        attack = None
        if with_attack:
            attack = {"key_sets": key_sets, "key_entropy_given_eve": analysis.secure_bits}
            if true is not None:
                pad = KeyMaterial(key, truly_random=False)  # swap outcomes, correlated
                ciphertext = encrypt(config.plaintext, pad).ciphertext
                recovered = [attack_es_qkd_parity(ciphertext[start:stop], pair)
                             for start, stop, pair in swaps]
                match = recovered == true_tuples
                # A trial that recovers every parity shares the report's list.
                attack.update(ciphertext=ciphertext, true_parities=true, parities_match=match,
                              recovered_parities=true if match else [list(pr) for pr in recovered])
        return run, _trial([], key, attack)

    return trial, analysis


def _otp_baseline(config: ScenarioConfig, with_attack: bool):
    prior = Distribution.uniform_bits(config.message_bits)
    analysis = attack_otp_baseline(prior)
    blocks = {}  # the report's attack block per distinct ciphertext, shared by its trials

    def trial(rng):
        plaintext = random_bits(config.message_bits, rng)
        transcript = run_otp_baseline(plaintext, random_key(config.message_bits, rng))
        block = None
        if with_attack:
            ciphertext = eve_view(transcript)
            # Computed in every attack trial: perfbench's expected call counts
            # pin one posterior per otp-baseline attack trial.
            post = analysis.attack(ciphertext)
            block = blocks.get(ciphertext)
            if block is None:
                block = blocks[ciphertext] = {
                    "ciphertext": ciphertext, "eve_bits": analysis.eve_bits,
                    "posterior_equals_prior": _distributions_match(post, prior)}
        return transcript, _trial(transcript.to_records(), plaintext, block)

    return trial, analysis


def _trial(transcript: list, key_or_message: str, attack) -> dict:
    """One entry of a report's `trials` list."""
    return {"transcript": transcript, "key_or_message": key_or_message, "attack": attack}


class Scenario(NamedTuple):
    """One scheme as the CLI runs it.

    `start(config, with_attack)` sets up the scheme's `cryptanalysis` attack
    once per report and returns (trial, analysis): `analysis` is the attack
    function's `Analysis`, and `trial(rng)` runs one seeded trial over it and
    the report's memos, returning (run, trial dict).  One dict object may
    serve several trials; the report lists it per trial.
    `message_lengths` is the range of message lengths the scheme accepts
    (`--message-bits`), or None for a scheme sized by Bell pairs (`--pairs`,
    `--plaintext`).  `bitstrings_drawn` is the number of message-length
    bitstrings a trial draws with `random_bits`, its only draws, or None
    for es-qkd, whose trials draw floats.

    Both look up the protocol and attack functions as module globals at
    call time, and the attacks look up `posterior` in theirs, so patching a
    module binding (as perfbench's tracer does) reaches every call.
    """

    start: Callable
    message_lengths: range | None
    bitstrings_drawn: int | None


# The 2**24-entry budget sets the baseline's cap: 2**12 plaintexts x 2**12
# ciphertexts, stored as one 2**12-entry slice.  The chain's 16 bits, its
# memo's, is a chosen cap; its 2**16-message joint is well within the budget.
SCENARIOS = {
    "xor-chain": Scenario(start=_xor_chain, message_lengths=range(2, XOR_CHAIN_MEMO_BITS + 1, 2),
                          bitstrings_drawn=1),  # the message
    "es-qkd": Scenario(start=_es_qkd, message_lengths=None, bitstrings_drawn=None),
    "otp-baseline": Scenario(start=_otp_baseline, message_lengths=range(1, 13),
                             bitstrings_drawn=2),  # the plaintext and the pad
}


class _Option(NamedTuple):
    """One row of a command's option table: `name VALUE`, stored as `dest`.

    `values` is `int` (`_integer`'s digits), `str` (any text) or the choices, read per line.
    """

    name: str
    dest: str
    values: type | tuple | dict
    default: object
    help: str
    required: bool = False


_OUTPUT_OPTIONS = (
    _Option("--format", "fmt", ("json", "text"), "text", "report format (default text)"),
    _Option("--out", "out", str, None, "write the report here instead of stdout"),
)
_SCENARIO_OPTIONS = (
    _Option("--scenario", "scenario", SCENARIOS, None, "the scheme to run", required=True),
    _Option("--message-bits", "message_bits", int, None, "message length in bits, for a "
            f"scenario sized by message length (default {DEFAULT_MESSAGE_BITS})"),
    _Option("--pairs", "pairs", str, None, "initial Bell pairs, for a scenario sized by Bell "
            f"pairs, e.g. phi+:psi+,phi-:phi- (default {DEFAULT_PAIRS})"),
    _Option("--seed", "seed", int, None, "defaults to $OTPLAB_SEED or 0"),
    _Option("--trials", "trials", int, 1, f"seeded trials, 1 to {MAX_TRIALS} (default 1)"),
) + _OUTPUT_OPTIONS
# Each command's help line and option table, in the order help lists them.
COMMANDS = {
    "simulate": ("run a scenario and report exact leakage", _SCENARIO_OPTIONS),
    "attack": ("run a scenario and mount Eve's attack", _SCENARIO_OPTIONS + (
        _Option("--plaintext", "plaintext", str, None,
                "plaintext to encrypt with the run's key, 4 bits per Bell pair"),)),
    "audit": ("print the claimed-vs-effective table", _OUTPUT_OPTIONS),
}
_HELP = ("-h", "--help")
# A token that is no option but looks like this is a value, so `--seed -1` reaches the range check.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _read_option(token: str, names: tuple):
    """`token` read against option `names`: None for a value, else (name, attached value or None).

    `name` is None for an option no name matches.  A unique prefix of a long
    name stands for it; what follows "-h" is attached to it.
    """
    if not token.startswith("-") or len(token) == 1:
        return None
    head, equals, attached = token.partition("=")
    if token in names:
        found = [(token, None)]
    elif equals and head in names:
        found = [(head, attached)]
    elif token[1] == "-":
        found = [(name, attached if equals else None) for name in names if name.startswith(head)]
    else:
        found = [("-h", token[2:])] if token.startswith("-h") else []
    if len(found) > 1:
        raise ConfigError(f"ambiguous option: {token} could match "
                          + ", ".join(name for name, _ in found))
    if found:
        return found[0]
    return None if _NEGATIVE_NUMBER.match(token) or " " in token else (None, None)


def _is_help(name: str | None, attached) -> bool:
    """Whether option `name` is -h/--help, which takes no value: "-hx" and "--help=" are refused."""
    if name == "-h" and attached:
        attached = attached.lstrip("h") or None  # "-hh" is -h twice
    if name in _HELP and attached is not None:
        raise ConfigError(f"argument -h/--help: ignored explicit argument {attached!r}")
    return name in _HELP


def _help(command: str | None) -> str:
    """The help text of `command`, or of the top level for None, built from the option tables."""
    if command is None:
        usage = f"[-h] {{{','.join(COMMANDS)}}} ..."
        about = "Simulate flawed quantum-communication pads and measure their leakage."
        rows = [(name, line) for name, (line, _) in COMMANDS.items()]
    else:
        usage, (about, options) = f"{command} [-h] [OPTION ...]", COMMANDS[command]
        rows = [(f"{option.name} " + (option.dest.upper() if isinstance(option.values, type)
                                      else f"{{{','.join(option.values)}}}"),
                 option.help + " (required)" * option.required) for option in options]
    return f"usage: otplab {usage}\n\n{about}\n\n" + "".join(
        f"  {name}\n      {text}\n" for name, text in [("-h, --help", "print this help and exit"), *rows])


def _parse_command(command: str, tokens: list, extras: list) -> SimpleNamespace | str:
    """`command`'s options in `tokens`, as `parse_command_line` returns them.

    `extras` are the tokens before the command that no option took.
    """
    options = {option.name: option for option in COMMANDS[command][1]}
    end = tokens.index("--") if "--" in tokens else len(tokens)
    # Every token is read before any is taken, so an ambiguous prefix is refused first.
    read = [_read_option(token, _HELP + tuple(options)) for token in tokens[:end]]
    values = {"command": command, **{option.dest: option.default for option in options.values()}}
    i = 0
    while i < end:
        name, attached = read[i] or (None, None)
        i += 1
        if _is_help(name, attached):
            return _help(command)
        if name is None:
            extras.append(tokens[i - 1])
            continue
        option = options[name]
        if attached is None:
            if i == end or read[i] is not None:
                raise ConfigError(f"argument {name}: expected one argument")
            attached, i = tokens[i], i + 1
        if option.values is int:
            try:
                values[option.dest] = _integer(attached)
            except ValueError:
                raise ConfigError(f"argument {name}: invalid int value: {attached!r}") from None
        elif option.values is str or attached in option.values:
            values[option.dest] = attached
        else:
            raise ConfigError(f"argument {name}: invalid choice: {attached!r} "
                              f"(choose from {', '.join(map(repr, option.values))})")
    missing = [name for name, option in options.items()
               if option.required and values[option.dest] is None]
    if missing:
        raise ConfigError(f"the following arguments are required: {', '.join(missing)}")
    if extras + tokens[end:]:
        raise ConfigError(f"unrecognized arguments: {' '.join(extras + tokens[end:])}")
    return SimpleNamespace(**values)


def parse_command_line(argv: list) -> SimpleNamespace | str:
    """`argv` (without the program name) as the namespace `main` runs, or the help text asked for.

    Options before the command are the top level's: -h/--help only.  The
    first value names the command, and every token after it is the
    command's.  A refusal raises `ConfigError` in argparse's words.
    """
    extras = []
    for i, token in enumerate(argv):
        if token == "--" and i + 1 == len(argv):
            break
        read = None if token == "--" else _read_option(token, _HELP)
        if read is None:
            if token not in COMMANDS:
                raise ConfigError(f"argument command: invalid choice: {token!r} "
                                  f"(choose from {', '.join(map(repr, COMMANDS))})")
            return _parse_command(token, list(argv[i + 1:]), extras)
        if _is_help(*read):
            return _help(None)
        extras.append(token)
    raise ConfigError("the following arguments are required: command")


def build_report(config: ScenarioConfig, with_attack: bool) -> dict:
    trial, analysis = SCENARIOS[config.scenario].start(config, with_attack)
    trials = []
    # Each trial draws from its own stream, Random(s) for its seed s.
    for rng in trial_streams(config.seed, config.trials, config.message_bits,
                             SCENARIOS[config.scenario].bitstrings_drawn):
        run, body = trial(rng)
        trials.append(body)
    # Every run of one config has the same scheme and carrier count.
    leakage = leakage_report(run, analysis)
    return {
        "scenario": config.scenario,
        "config": config.to_dict(),
        "trials": trials,
        "leakage": {
            "scenario": leakage.scenario, "claimed_bits": leakage.claimed_bits,
            "receiver_bits": leakage.receiver_bits, "eve_bits": leakage.eve_bits,
            "secure_bits": leakage.secure_bits, "resources": leakage.resources._asdict(),
        },
        "efficiency": leakage.efficiency._asdict(),
        "tool_version": __version__,
    }


def build_audit_rows() -> list:
    """Claimed-vs-effective table: each scheme's efficiency at its default size.

    Every row is the efficiency verdict of the `Analysis` that `simulate`
    sets up without size flags; no trial is drawn.
    """
    table = []
    for name in SCENARIOS:
        _, analysis = SCENARIOS[name].start(ScenarioConfig(name, 0, 1, "json"), False)
        verdict = analysis.efficiency
        claimed, effective = verdict.claimed_bits_per_carrier, verdict.effective_bits_per_carrier
        if any(abs(rate - round(rate)) > FLOAT_TOL for rate in (claimed, effective)):
            raise AssertionError("audit table rates must be exact integers")
        table.append({
            "scenario": name,
            "carrier_unit": analysis.accounting.unit,
            "claimed_bits_per_carrier": int(round(claimed)),
            "effective_bits_per_carrier": int(round(effective)),
            "effective_bits_per_qubit": verdict.effective_bits_per_qubit,
            "holevo_ok": verdict.holevo_ok,
        })
    return table


def _strings(items: list, depth: int) -> str:
    """A non-empty list of strings JSON leaves unescaped, as `json.dumps` writes it `depth` deep."""
    inner = "\n" + "  " * (depth + 1)
    return f'[{inner}"' + f'",{inner}"'.join(items) + f'"\n{"  " * depth}]'


def _pairs(pairs: list) -> str:
    """A non-empty list of int pairs (the parities of Bell pairs) as an attack block's value."""
    return "[\n          " + ",\n          ".join(
        f"[\n            {a},\n            {b}\n          ]" for a, b in pairs) + "\n        ]"


def _bitstrings(items) -> bool:
    """Whether `items` is a non-empty list of bitstrings, which `_strings` writes as JSON does."""
    try:  # a non-string item stops `join`, a non-ASCII one `encode`
        return type(items) is list and len(items) > 0 and not "".join(items).encode(
            "ascii").translate(None, b"01")
    except (TypeError, UnicodeEncodeError):
        return False


def _attack_value(value, texts: dict) -> str:
    """A value of a trial's attack block as `json.dumps` writes it, four indents deep.

    Bitstrings, finite floats, bools and non-empty lists of bitstrings, of
    such lists or of int pairs are written directly, any other value by
    `json.dumps`.  `texts` holds the others' texts by identity, marked at
    first sight and kept from the second on: a list that several trial
    bodies share (a posterior support, the key sets, the true parities) is
    written at most twice, and a value seen once keeps no text.
    """
    if type(value) is bool:
        return "true" if value else "false"
    if type(value) is str and _bitstrings([value]):
        return f'"{value}"'
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    text = texts.get(id(value))
    if text is None:
        listed = type(value) is list and len(value) > 0
        if _bitstrings(value):
            text = _strings(value, 4)
        elif listed and all(type(pair) is list and len(pair) == 2
                            and type(pair[0]) is type(pair[1]) is int for pair in value):
            text = _pairs(value)
        elif listed and all(map(_bitstrings, value)):
            text = "[\n          " + ",\n          ".join(
                _strings(blocks, 5) for blocks in value) + "\n        ]"
        else:
            text = json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n        ")
        texts[id(value)] = text if id(value) in texts else None
    return text


def _trial_json(trial: dict, texts: dict) -> str:
    """One trial as `json.dumps(report, indent=2, sort_keys=True)` writes it in `trials`.

    `_attack_value` writes its attack values; every other string is a checked
    bitstring, a `Channel` value, the sender constant or an attack key (a
    name), none of which JSON escapes.
    """
    events = trial["transcript"]
    transcript = "[]" if not events else "[\n        " + ",\n        ".join(
        f'{{\n          "channel": "{event["channel"]}",\n          "payload": '
        f'"{event["payload"]}",\n          "sender": "{event["sender"]}"\n        }}'
        for event in events) + "\n      ]"
    attack = trial["attack"]
    block = json.dumps(attack) if not attack else "{\n        " + ",\n        ".join(
        f'"{key}": {_attack_value(attack[key], texts)}' for key in sorted(attack)) + "\n      }"
    return (f'{{\n      "attack": {block},\n      "key_or_message": "{trial["key_or_message"]}",'
            f'\n      "transcript": {transcript}\n    }}')


def render_json(report: dict) -> str:
    """`json.dumps(report, indent=2, sort_keys=True)` plus a newline, byte for byte.

    A `build_report` report sorts its `trials` last, so the text is a header
    (the other keys, by `json.dumps`, as one object whose closing brace is
    cut off) and one body per trial.  The header holds the report's only
    outside input (es-qkd's pairs and plaintext), which `json.dumps` escapes.
    Trials repeat, so each distinct trial object, keyed by its identity
    (the list keeps every trial alive), is written once by `_trial_json`.
    The header, the bodies and the separators go into one list and the text
    is one join of it, so the whole text is built once and never copied.
    """
    header = json.dumps({k: v for k, v in report.items() if k != "trials"},
                        indent=2, sort_keys=True)
    if not report["trials"]:
        return header[:-2] + ',\n  "trials": []\n}\n'
    bodies, texts = {}, {}
    parts = [header[:-2], ',\n  "trials": [\n    ']
    for trial in report["trials"]:
        body = bodies.get(id(trial))
        if body is None:
            body = bodies[id(trial)] = _trial_json(trial, texts)
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


def _discard(stream) -> None:
    """Point `stream`'s descriptor, if it has one, at the null device after a failed write.

    The stream keeps the unwritten bytes, and the interpreter retries them at exit.
    """
    try:
        fd = stream.fileno()
    except OSError:
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


# A text file encodes each write whole: slices bound the bytes it holds at once.
WRITE_SLICE = 1 << 20


def _write(stream, text: str) -> None:
    """Write `text` to `stream`, in `WRITE_SLICE`-character slices if it is an `io.TextIOWrapper`.

    A stream that does not encode, such as `io.StringIO`, gets one write: it
    keeps a whole write without copying, but copies many small ones.
    """
    if not isinstance(stream, io.TextIOWrapper):
        stream.write(text)
        return
    for start in range(0, len(text), WRITE_SLICE):
        stream.write(text[start:start + WRITE_SLICE])


def _write_out(text: str, out: str) -> None:
    """Write `text` to the path `out`, as --out does; an I/O failure raises `OSError`.

    A FIFO or a device is written in place, as the shell's `>` writes it.
    A regular file (a symlink's target, so the link stays) is written whole
    beside itself, then renamed over, so a failed write never leaves a
    partial report behind; the new file keeps the old one's permission
    bits, and the old one's other hard links keep its bytes.
    """
    try:
        mode = os.stat(out).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(out, "w") as handle:
            _write(handle, text)
        return
    target = os.path.realpath(out) if os.path.islink(out) else out
    partial = f"{target}.{os.getpid()}.partial"
    handle = open(partial, "x")
    try:
        with handle:
            if mode is not None:
                os.chmod(partial, stat.S_IMODE(mode))
            _write(handle, text)
        os.replace(partial, target)
    except BaseException:  # an interrupt too: remove the partial, then re-raise
        os.remove(partial)
        raise


def _emit(text: str, out: str | None) -> None:
    if out is None:
        if sys.stdout is None:  # the interpreter started with its descriptor closed
            raise ConfigError(f"cannot write standard output: {os.strerror(errno.EBADF)}")
        try:
            _write(sys.stdout, text)
            sys.stdout.flush()
        except OSError as exc:
            _discard(sys.stdout)
            raise ConfigError(f"cannot write standard output: {exc.strerror or exc}") from None
        return
    try:
        _write_out(text, out)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror or exc}") from None


def _one_line(text: str) -> str:
    """`text` with each non-printable character escaped as `repr` does: a line break is `\\n`.

    A message quotes user text (a token, an --out path), which may hold any character.
    """
    return "".join(ch if ch.isprintable() else repr(ch)[1:-1] for ch in text)


def main(argv=None) -> int:
    # What exists before the run (numpy, the modules, the caller's objects) outlives it:
    # frozen, it is left out of the collector's passes, which then scan only the run's objects.
    # A caller that froze objects itself keeps its freeze, which `unfreeze` would undo.
    freeze = gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
    try:
        args = parse_command_line(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):
            _emit(args, None)
            return 0
        if args.command != "audit":
            report = build_report(config_from_args(args), with_attack=args.command == "attack")
            text = render_json(report) if args.fmt == "json" else render_report_text(report)
        elif args.fmt == "json":
            text = json.dumps({"rows": build_audit_rows(), "tool_version": __version__},
                              indent=2, sort_keys=True) + "\n"
        else:
            text = render_audit_text(build_audit_rows())
        _emit(text, args.out)
        return 0
    except ConfigError as exc:
        try:  # a refusal exits 2 whether or not its line can be written
            if sys.stderr is not None:
                print(f"error: {_one_line(str(exc))}", file=sys.stderr)
        except OSError:
            _discard(sys.stderr)
        return 2
    except Exception:
        import traceback  # only here: a run that succeeds never loads it
        traceback.print_exc(file=sys.stderr)
        return 1
    finally:
        if freeze:
            gc.unfreeze()


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
