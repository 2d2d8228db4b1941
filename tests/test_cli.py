import argparse
import collections
import contextlib
import errno
import gc
import io
import json
import os
import random
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import otplab
from otplab import bits, cli, cryptanalysis, otp, protocols
from otplab.bits import PlannedStream
from otplab.cli import (
    ScenarioConfig,
    build_audit_rows,
    build_report,
    config_from_args,
    main,
    parse_command_line,
    parse_pairs,
    render_json,
)
from otplab.cryptanalysis import CARRIERS, leakage_report
from otplab.quantum import PHI_MINUS, PHI_PLUS, PSI_MINUS, PSI_PLUS

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "report.schema.json").read_text())


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env() -> dict:
    """The environment of a fresh `python -m otplab.cli`: this source, stdout buffered."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_json(capsys, *args):
    code, out, err = run_cli(capsys, *args, "--format", "json")
    assert code == 0, err
    return json.loads(out)


class TestSimulate:
    def test_xor_chain_report(self, capsys):
        report = run_json(
            capsys, "simulate", "--scenario", "xor-chain", "--message-bits", "2", "--seed", "7"
        )
        assert report["leakage"]["eve_bits"] == pytest.approx(1.0, abs=1e-9)
        assert report["leakage"]["secure_bits"] == pytest.approx(1.0, abs=1e-9)
        assert report["trials"][0]["attack"] is None
        jsonschema.validate(report, SCHEMA)

    def test_es_qkd_key_is_reachable(self, capsys):
        report = run_json(
            capsys, "simulate", "--scenario", "es-qkd", "--pairs", "phi+:psi+", "--seed", "1"
        )
        assert report["trials"][0]["key_or_message"] in {"0010", "0111", "1000", "1101"}
        assert report["leakage"]["eve_bits"] == pytest.approx(2.0, abs=1e-9)
        jsonschema.validate(report, SCHEMA)

    def test_otp_baseline_leaks_nothing(self, capsys):
        report = run_json(
            capsys, "simulate", "--scenario", "otp-baseline", "--message-bits", "8", "--seed", "3"
        )
        assert report["leakage"]["eve_bits"] == pytest.approx(0.0, abs=1e-9)
        assert report["efficiency"]["holevo_ok"] is True
        jsonschema.validate(report, SCHEMA)

    def test_multiple_trials(self, capsys):
        report = run_json(
            capsys, "simulate", "--scenario", "xor-chain", "--message-bits", "4",
            "--seed", "5", "--trials", "3",
        )
        assert len(report["trials"]) == 3
        messages = {t["key_or_message"] for t in report["trials"]}
        assert all(len(m) == 4 for m in messages)
        jsonschema.validate(report, SCHEMA)

    def test_transcript_records_are_ordered(self, capsys):
        report = run_json(
            capsys, "simulate", "--scenario", "xor-chain", "--message-bits", "4", "--seed", "0"
        )
        channels = [e["channel"] for e in report["trials"][0]["transcript"]]
        assert channels == [
            "secure-primitive", "public-broadcast", "secure-primitive", "public-broadcast",
        ]


class TestAttack:
    def test_xor_chain_posterior(self, capsys):
        report = run_json(
            capsys, "attack", "--scenario", "xor-chain", "--message-bits", "2", "--seed", "7"
        )
        attack = report["trials"][0]["attack"]
        assert attack["view"] in {"0", "1"}
        if attack["view"] == "0":
            assert attack["posterior_support"] == ["00", "11"]
        else:
            assert attack["posterior_support"] == ["01", "10"]
        assert attack["eve_bits"] == pytest.approx(1.0, abs=1e-9)
        jsonschema.validate(report, SCHEMA)

    def test_es_qkd_parity_recovery_matches_direct_xor(self, capsys):
        plaintext = "1010"
        report = run_json(
            capsys, "attack", "--scenario", "es-qkd", "--pairs", "phi+:psi+",
            "--seed", "1", "--plaintext", plaintext,
        )
        attack = report["trials"][0]["attack"]
        p = [int(ch) for ch in plaintext]
        assert attack["recovered_parities"] == [[p[0] ^ p[2], p[1] ^ p[3]]]
        assert attack["parities_match"] is True
        assert attack["key_sets"] == [["0010", "0111", "1000", "1101"]]
        jsonschema.validate(report, SCHEMA)

    def test_es_qkd_multiple_pairs(self, capsys):
        report = run_json(
            capsys, "attack", "--scenario", "es-qkd", "--pairs", "phi+:psi+,phi-:phi-",
            "--seed", "4", "--plaintext", "10100110",
        )
        attack = report["trials"][0]["attack"]
        assert attack["key_entropy_given_eve"] == pytest.approx(4.0, abs=1e-9)
        assert attack["parities_match"] is True
        assert len(report["trials"][0]["key_or_message"]) == 8

    def test_otp_posterior_equals_prior(self, capsys):
        report = run_json(
            capsys, "attack", "--scenario", "otp-baseline", "--message-bits", "6", "--seed", "2"
        )
        attack = report["trials"][0]["attack"]
        assert attack["posterior_equals_prior"] is True
        assert attack["eve_bits"] == pytest.approx(0.0, abs=1e-9)
        jsonschema.validate(report, SCHEMA)

    @pytest.mark.parametrize("args", [
        ("--scenario", "xor-chain", "--message-bits", "2"),
        ("--scenario", "otp-baseline", "--message-bits", "2"),
        ("--scenario", "es-qkd", "--pairs", "phi+:psi+"),
        ("--scenario", "es-qkd", "--pairs", "phi+:psi+", "--plaintext", "1010"),
    ])
    def test_schema_states_each_attack_block(self, capsys, args):
        report = run_json(capsys, "attack", *args, "--seed", "1")
        jsonschema.validate(report, SCHEMA)
        attack = report["trials"][0]["attack"]
        first = sorted(attack)[0]
        for broken in ({**attack, "extra": 0}, {k: v for k, v in attack.items() if k != first}):
            report["trials"][0]["attack"] = broken
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(report, SCHEMA)


class TestDeterminism:
    def test_identical_command_lines_identical_json(self, capsys):
        args = (
            "attack", "--scenario", "es-qkd", "--pairs", "phi+:psi+,psi-:phi+",
            "--seed", "123", "--trials", "4", "--plaintext", "01101001",
        )
        first = run_cli(capsys, *args, "--format", "json")
        second = run_cli(capsys, *args, "--format", "json")
        assert first[0] == second[0] == 0
        assert first[1] == second[1]

    def test_seed_changes_output(self, capsys):
        base = ("simulate", "--scenario", "xor-chain", "--message-bits", "8", "--format", "json")
        a = run_cli(capsys, *base, "--seed", "1")[1]
        b = run_cli(capsys, *base, "--seed", "2")[1]
        assert a != b

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("OTPLAB_SEED", "7")
        from_env = run_cli(
            capsys, "simulate", "--scenario", "xor-chain", "--message-bits", "2",
            "--format", "json",
        )[1]
        monkeypatch.delenv("OTPLAB_SEED")
        explicit = run_cli(
            capsys, "simulate", "--scenario", "xor-chain", "--message-bits", "2",
            "--seed", "7", "--format", "json",
        )[1]
        assert from_env == explicit


class TestConfigErrors:
    @pytest.mark.parametrize("args", [
        ("simulate", "--scenario", "xor-chain", "--message-bits", "3"),
        ("simulate", "--scenario", "xor-chain", "--message-bits", "0"),
        ("simulate", "--scenario", "xor-chain", "--message-bits", "18"),
        ("simulate", "--scenario", "otp-baseline", "--message-bits", "13"),
        ("simulate", "--scenario", "es-qkd", "--pairs", "phi+:omega-"),
        ("simulate", "--scenario", "es-qkd", "--pairs", "phi+"),
        ("simulate", "--scenario", "xor-chain", "--trials", "0"),
        ("simulate", "--scenario", "xor-chain", "--seed", "-1"),
        ("attack", "--scenario", "es-qkd", "--pairs", "phi+:psi+", "--plaintext", "10"),
        ("attack", "--scenario", "es-qkd", "--pairs", "phi+:psi+", "--plaintext", "102x"),
        ("attack", "--scenario", "xor-chain", "--plaintext", "1010"),
        ("simulate", "--scenario", "es-qkd", "--message-bits", "4"),
        ("simulate", "--scenario", "xor-chain", "--pairs", "phi+:psi+"),
        ("attack", "--scenario", "otp-baseline", "--pairs", "phi+:psi+"),
        ("simulate", "--scenario", "xor-chain", "--trials", "100001"),
        ("simulate", "--scenario", "otp-baseline", "--message-bits", "0"),
    ])
    def test_invalid_configs_exit_2(self, capsys, args):
        code, _, err = run_cli(capsys, *args)
        assert code == 2
        assert err.strip()

    @pytest.mark.parametrize("name,value,message", [
        ("trials", 0, "trials must be between 1 and 100000, got 0"),
        ("trials", 100_001, "trials must be between 1 and 100000, got 100001"),
        ("seed", -1, "seed must be an unsigned 64-bit integer, got -1"),
        ("seed", 2**64, f"seed must be an unsigned 64-bit integer, got {2**64}"),
    ])
    def test_direct_config_checks_seed_and_trials(self, capsys, name, value, message):
        # `build_report` on a directly built trials=0 config used to raise UnboundLocalError.
        with pytest.raises(cli.ConfigError) as err:
            ScenarioConfig("xor-chain", **{"seed": 3, "trials": 1, name: value},
                           fmt="json", message_bits=2)
        assert str(err.value) == message
        assert run_cli(capsys, "simulate", "--scenario", "xor-chain", f"--{name}", str(value)) == (
            2, "", f"error: {message}\n")

    def test_config_cannot_be_changed_past_its_checks(self):
        config = ScenarioConfig("xor-chain", seed=3, trials=1, fmt="json", message_bits=2)
        with pytest.raises(AttributeError):
            config.trials = 0
        with pytest.raises(AttributeError):
            del config.trials
        assert config.trials == 1

    @pytest.mark.parametrize("args,settings,message", [
        (("--message-bits", "3"), {"message_bits": 3},
         "xor-chain message length must be one of 2, 4, ..., 16, got 3"),
        (("--message-bits", "18"), {"message_bits": 18},
         "xor-chain message length must be one of 2, 4, ..., 16, got 18"),
        (("--scenario", "otp-baseline", "--message-bits", "13"),
         {"scenario": "otp-baseline", "message_bits": 13},
         "otp-baseline message length must be one of 1, 2, ..., 12, got 13"),
        (("--scenario", "es-qkd", "--message-bits", "4"), {"scenario": "es-qkd", "message_bits": 4},
         "--message-bits does not apply to the es-qkd scenario"),
        (("--pairs", "phi+:psi+"), {"pairs": [(PHI_PLUS, PHI_PLUS)]},
         "--pairs applies to the es-qkd scenario only"),
        (("--plaintext", "1010"), {"plaintext": "1010"},
         "--plaintext applies to the es-qkd scenario only"),
        (("--scenario", "es-qkd", "--plaintext", "101"), {"scenario": "es-qkd", "plaintext": "101"},
         "plaintext must cover 4 bits per pair (4), got 3"),
        (("--scenario", "es-qkd", "--plaintext", "102x"),
         {"scenario": "es-qkd", "plaintext": "102x"},
         "plaintext must be a string of 0/1 characters, got '102x'"),
    ])
    def test_direct_config_refuses_what_the_command_line_refuses(self, capsys, args, settings,
                                                                 message):
        # A directly built config used to accept these sizes, or fail later with a traceback.
        with pytest.raises(cli.ConfigError) as err:
            ScenarioConfig(**{"scenario": "xor-chain", "seed": 3, "trials": 1, "fmt": "json",
                              **settings})
        assert str(err.value) == message
        assert run_cli(capsys, "attack", "--scenario", "xor-chain", *args) == (
            2, "", f"error: {message}\n")

    @pytest.mark.parametrize("settings,message", [
        ({"scenario": "nope"}, "scenario must be one of xor-chain, es-qkd, otp-baseline"),
        ({"fmt": "xml"}, "format must be json or text, got 'xml'"),
        ({"seed": True}, "seed must be an unsigned 64-bit integer, got True"),
        ({"trials": True}, "trials must be between 1 and 100000, got True"),
        ({"trials": 1.5}, "trials must be between 1 and 100000, got 1.5"),
        ({"message_bits": 2.0}, "xor-chain message length must be one of 2, 4, ..., 16, got 2.0"),
        ({"message_bits": True}, "xor-chain message length must be one of 2, 4, ..., 16, got True"),
        ({"scenario": "es-qkd", "pairs": []}, "pairs must be a non-empty sequence"),
        ({"scenario": "es-qkd", "pairs": [(PHI_PLUS,)]}, "pairs must be a non-empty sequence"),
        ({"scenario": "es-qkd", "pairs": ["phi+:psi+"]}, "pairs must be a non-empty sequence"),
        ({"scenario": "es-qkd", "pairs": "phi+:psi+"}, "pairs must be a non-empty sequence"),
    ])
    def test_direct_config_refuses_what_no_command_line_can_give(self, settings, message):
        with pytest.raises(cli.ConfigError) as err:
            ScenarioConfig(**{"scenario": "xor-chain", "seed": 3, "trials": 1, "fmt": "json",
                              **settings})
        assert str(err.value).startswith(message)

    def test_es_qkd_swaps_are_bounded_after_the_trials(self):
        pairs = [(PHI_PLUS, PHI_PLUS)] * 200
        assert cli.MAX_SWAPS == 8 * cli.MAX_TRIALS == 800_000
        config = ScenarioConfig("es-qkd", seed=3, trials=4000, fmt="json", pairs=pairs)
        assert len(config.pairs) * config.trials == cli.MAX_SWAPS
        with pytest.raises(cli.ConfigError) as err:
            ScenarioConfig("es-qkd", seed=3, trials=4001, fmt="json", pairs=pairs)
        assert str(err.value) == "pairs x trials must be at most 800000 swaps, got 200 x 4001"
        with pytest.raises(cli.ConfigError) as err:
            ScenarioConfig("es-qkd", seed=3, trials=100_001, fmt="json", pairs=pairs)
        assert str(err.value) == "trials must be between 1 and 100000, got 100001"

    def test_too_many_swaps_are_refused_before_any_run(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("an over-bound config ran")

        for name in ("attack_es_qkd_keyset", "run_es_qkd"):
            monkeypatch.setattr(cli, name, refuse)
        pairs = ",".join(["phi+:psi+"] * 9)
        assert run_cli(capsys, "simulate", "--scenario", "es-qkd", "--pairs", pairs,
                       "--trials", "100000") == (
            2, "", "error: pairs x trials must be at most 800000 swaps, got 9 x 100000\n")

    def test_config_completes_its_defaults_and_stores_pairs_as_a_tuple(self):
        assert ScenarioConfig("xor-chain", seed=3, trials=1, fmt="json").message_bits == 2
        default = ScenarioConfig("es-qkd", seed=3, trials=1, fmt="json")
        assert (default.message_bits, default.pairs) == (None, tuple(parse_pairs("phi+:psi+")))
        pairs = parse_pairs("phi+:psi+,phi-:phi-")
        config = ScenarioConfig("es-qkd", seed=3, trials=1, fmt="json", pairs=pairs)
        assert type(config.pairs) is tuple and config.pairs == tuple(pairs)
        pairs.append(pairs[0])  # the caller's list is not the config's
        assert len(config.pairs) == 2
        with pytest.raises(AttributeError):
            config.pairs.append(pairs[0])

    @pytest.mark.parametrize("scenario,bits", [("xor-chain", 16), ("otp-baseline", 12)])
    def test_largest_message_lengths_accepted(self, scenario, bits):
        args = parse_command_line(
            ["simulate", "--scenario", scenario, "--message-bits", str(bits), "--seed", "0"]
        )
        assert config_from_args(args).message_bits == bits

    def test_unknown_scenario_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--scenario", "bb84")
        assert code == 2

    def test_bad_env_seed_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("OTPLAB_SEED", "not-a-number")
        code, _, err = run_cli(capsys, "simulate", "--scenario", "xor-chain")
        assert code == 2
        assert "OTPLAB_SEED" in err

    @pytest.mark.parametrize("raw", ["not-a-number", " 1_0 ", "1_0", " 10", "-1", "+1",
                                     str(2**64), "1" + "0" * 30, "1.0", "", "\u0661"])
    def test_bad_env_seed_is_one_line_naming_the_variable(self, capsys, monkeypatch, raw):
        # " 1_0 " used to run as seed 10, and "-1" failed without naming the variable.
        monkeypatch.setenv("OTPLAB_SEED", raw)
        code, out, err = run_cli(capsys, "simulate", "--scenario", "xor-chain")
        assert (code, out) == (2, "")
        assert err == f"error: OTPLAB_SEED must be an unsigned 64-bit integer, got {raw!r}\n"

    @pytest.mark.parametrize("raw", ["-0", "1" * 4301, "0" * 4300 + "1"])
    def test_env_seed_follows_the_seed_options_digit_rule(self, capsys, monkeypatch, raw):
        # `int` reads at most 4,300 digits, leading zeros counted, as --seed does.
        monkeypatch.setenv("OTPLAB_SEED", raw)
        code, out, err = run_cli(capsys, "simulate", "--scenario", "xor-chain")
        assert (code, out) == (2, "")
        assert err == f"error: OTPLAB_SEED must be an unsigned 64-bit integer, got {raw!r}\n"
        code, _, err = run_cli(capsys, "simulate", "--scenario", "xor-chain", "--seed", raw)
        assert (code, err) == (2, f"error: argument --seed: invalid int value: {raw!r}\n")

    @pytest.mark.parametrize("raw, seed", [("0", 0), ("007", 7), ("0" * 30 + "5", 5),
                                           (str(2**64 - 1), 2**64 - 1)])
    def test_env_seed_of_ascii_digits_is_taken(self, monkeypatch, raw, seed):
        monkeypatch.setenv("OTPLAB_SEED", raw)
        args = parse_command_line(["simulate", "--scenario", "xor-chain"])
        assert config_from_args(args).seed == seed

    @pytest.mark.parametrize("option", ["--seed", "--trials", "--message-bits"])
    @pytest.mark.parametrize("raw", [" 1_0 ", "+3", "٣", "1e3", "-0", "-00", "-", ""])
    def test_integer_options_take_ascii_digits_only(self, capsys, option, raw):
        # `type=int` ran " 1_0 " as 10, "+3" as 3 and an Arabic-Indic three as 3;
        # "-0" ran as 0, though OTPLAB_SEED=-0 is refused.
        code, out, err = run_cli(capsys, "simulate", "--scenario", "xor-chain", option, raw)
        assert (code, out) == (2, "")
        assert err == f"error: argument {option}: invalid int value: {raw!r}\n"

    @pytest.mark.parametrize("option, raw, value", [
        ("--seed", "007", 7), ("--seed", str(2**64 - 1), 2**64 - 1),
        ("--trials", "0020", 20), ("--message-bits", "04", 4),
    ])
    def test_integer_options_of_ascii_digits_are_taken(self, option, raw, value):
        args = parse_command_line(["simulate", "--scenario", "xor-chain", option, raw])
        assert getattr(args, option[2:].replace("-", "_")) == value

    @pytest.mark.parametrize("option, message", [
        ("--seed", "seed must be an unsigned 64-bit integer, got -1"),
        ("--trials", "trials must be between 1 and 100000, got -1"),
        ("--message-bits", "xor-chain message length must be one of 2, 4, ..., 16, got -1"),
    ])
    def test_negative_integer_options_keep_the_range_message(self, capsys, option, message):
        code, _, err = run_cli(capsys, "simulate", "--scenario", "xor-chain", option, "-1")
        assert (code, err) == (2, f"error: {message}\n")

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_option_messages_are_unchanged(self, capsys, monkeypatch, seed):
        monkeypatch.setenv("OTPLAB_SEED", "bad")  # not read once --seed is given
        code, _, err = run_cli(capsys, "simulate", "--scenario", "xor-chain", "--seed", seed)
        assert code == 2
        assert err == f"error: seed must be an unsigned 64-bit integer, got {seed}\n"

    def test_internal_failure_exits_1(self, capsys, monkeypatch):
        import otplab.cli as cli

        def boom(config, with_attack):
            raise RuntimeError("forced failure")

        record = cli.SCENARIOS["xor-chain"]._replace(start=boom)
        monkeypatch.setitem(cli.SCENARIOS, "xor-chain", record)
        code, _, err = run_cli(capsys, "simulate", "--scenario", "xor-chain")
        assert code == 1
        # `traceback` is imported only on this path; it still prints the whole trace.
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.endswith("RuntimeError: forced failure\n")

    def test_help_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "simulate" in out and "attack" in out and "audit" in out

    @pytest.mark.parametrize("args,message", [
        (("simulate", "--scenario", "foo"), "invalid choice: 'foo'"),
        (("simulate", "--scenario", "xor-chain", "--trials", "x"), "invalid int value: 'x'"),
        (("attack", "--message-bits", "2"), "required: --scenario"),
        ((), "required: command"),
        (("simulate", "--s", "xor-chain"), "ambiguous option: --s could match --scenario, --seed"),
        (("simulate", "--scenario"), "argument --scenario: expected one argument"),
        (("simulate", "--scenario", "xor-chain", "--seed", "--trials", "2"),
         "argument --seed: expected one argument"),
        (("simulate", "--scenario", "xor-chain", "--trials", "x", "-h"),
         "argument --trials: invalid int value: 'x'"),
        (("simulate", "--bogus"), "required: --scenario"),
        (("--bogus", "simulate", "--scenario", "xor-chain", "x"), "unrecognized arguments: --bogus x"),
        (("simulate", "--scenario", "xor-chain", "--", "--seed", "1"),
         "unrecognized arguments: -- --seed 1"),
        (("simulate", "--scenario", "xor-chain", "-hx"), "argument -h/--help: ignored explicit argument 'x'"),
        (("bb84",), "argument command: invalid choice: 'bb84' (choose from 'simulate', 'attack', 'audit')"),
        (("simulate", "--scenario", "xor-chain", "x\ny"), "error: unrecognized arguments: x\\ny\n"),
        (("simulate", "--scenario", "xor-chain", "--out", "/nonexistent/a\nb"),
         "error: cannot write /nonexistent/a\\nb: No such file or directory\n"),
    ], ids=["invalid-choice", "non-integer", "missing-scenario", "missing-command", "ambiguous",
            "no-value", "option-for-value", "bad-value-before-help", "required-before-unrecognized",
            "unrecognized-last", "after-double-dash", "help-with-a-value", "unknown-command",
            "newline-token", "newline-out-path"])
    def test_bad_command_line_is_one_error_line(self, capsys, args, message):
        code, out, err = run_cli(capsys, *args)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert message in err

    @pytest.mark.parametrize("option, value", [("--pairs", "--"), ("--trials", "--")])
    def test_an_attached_double_dash_is_the_value(self, capsys, option, value):
        # argparse before 3.13 dropped it and stored [], so `--pairs=--` failed with exit 1.
        message = {"--pairs": "pair '--' must be two labels joined by ':'",
                   "--trials": "argument --trials: invalid int value: '--'"}[option]
        assert run_cli(capsys, "simulate", "--scenario", "es-qkd", f"{option}={value}") == (
            2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, values", [
        (["simulate", "--scen", "xor-chain", "--seed=3"], {"scenario": "xor-chain", "seed": 3}),
        (["attack", "--sc=es-qkd", "--pl", "0110", "--tr", "2", "--f", "json"],
         {"scenario": "es-qkd", "plaintext": "0110", "trials": 2, "fmt": "json"}),
        (["simulate", "--seed", "1", "--scenario", "otp-baseline", "--seed", "-5"],
         {"scenario": "otp-baseline", "seed": -5}),
        (["simulate", "--scenario", "es-qkd", "--pairs", "-x y", "--out=-"],
         {"scenario": "es-qkd", "pairs": "-x y", "out": "-"}),
        (["audit", "--out", "report.txt"], {"out": "report.txt"}),
    ], ids=["prefix-and-equals", "prefixes", "last-wins", "dash-values", "audit"])
    def test_accepted_command_lines(self, argv, values):
        defaults = {"command": argv[0], "fmt": "text", "out": None}
        if argv[0] != "audit":
            defaults.update(message_bits=None, pairs=None, seed=None, trials=1)
        if argv[0] == "attack":
            defaults["plaintext"] = None
        assert vars(parse_command_line(argv)) == {**defaults, **values}

    @pytest.mark.parametrize("pairs", ["", ","], ids=["empty", "comma"])
    def test_empty_pairs_are_one_error_line(self, capsys, pairs):
        code, out, err = run_cli(capsys, "simulate", "--scenario", "es-qkd", "--pairs", pairs)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "two labels joined by ':'" in err

    def test_pair_labels_may_be_spaced(self):
        tight = parse_pairs("phi+:psi+,phi-:phi-")
        assert parse_pairs(" phi+ : psi+ , phi-:phi- ") == tight
        assert parse_pairs("phi+ :psi+,  phi- :  phi-") == tight


def _argparse_int(text: str) -> int:
    return cli._integer(text)


_argparse_int.__name__ = "int"  # so argparse refuses a value as "invalid int value: '...'"


class _ArgparseParser(argparse.ArgumentParser):
    def error(self, message):
        raise cli.ConfigError(message)


def argparse_parser() -> argparse.ArgumentParser:
    """The command line as argparse read it: the table parser's oracle."""
    parser = _ArgparseParser(prog="otplab")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", choices=tuple(cli.SCENARIOS), required=True)
        p.add_argument("--message-bits", type=_argparse_int, default=None)
        p.add_argument("--pairs", default=None)
        p.add_argument("--seed", type=_argparse_int, default=None)
        p.add_argument("--trials", type=_argparse_int, default=1)
        p.add_argument("--format", choices=("json", "text"), default="text", dest="fmt")
        p.add_argument("--out", default=None)

    add_common(sub.add_parser("simulate"))
    atk = sub.add_parser("attack")
    add_common(atk)
    atk.add_argument("--plaintext", default=None)
    aud = sub.add_parser("audit")
    aud.add_argument("--format", choices=("json", "text"), default="text", dest="fmt")
    aud.add_argument("--out", default=None)
    return parser


def argparse_reading(argv: list) -> tuple:
    """("ok", namespace dict), ("help", the usage line's first three words) or ("error", message)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return "ok", vars(argparse_parser().parse_args(argv))
    except SystemExit as exc:
        assert exc.code == 0
        return "help", out.getvalue().split()[:3]
    except cli.ConfigError as exc:
        return "error", str(exc)


def table_reading(argv: list) -> tuple:
    """`argparse_reading`'s result for `parse_command_line`."""
    try:
        parsed = parse_command_line(argv)
    except cli.ConfigError as exc:
        return "error", str(exc)
    if isinstance(parsed, str):
        return "help", parsed.split()[:3]
    return "ok", vars(parsed)


# The wording argparse 3.10.13 to 3.12.1 give, which the table parser keeps.
# argparse 3.13 words choices without quotes, reads "-hx" as help and
# refuses an ambiguous prefix only when it reaches it.
PINNED_REFUSALS = {
    ("simulate", "--scenario", "x"):
        "argument --scenario: invalid choice: 'x' (choose from 'xor-chain', 'es-qkd', 'otp-baseline')",
    ("simulate", "-hx"): "argument -h/--help: ignored explicit argument 'x'",
    ("simulate", "--trials", "x", "--s"): "ambiguous option: --s could match --scenario, --seed",
}
ARGPARSE_KEEPS_THE_WORDING = all(argparse_reading(list(argv)) == ("error", message)
                                 for argv, message in PINNED_REFUSALS.items())

COMMAND_WORDS = st.sampled_from(list(cli.COMMANDS))
OPTION_NAMES = sorted({"--help", *(option.name for _, options in cli.COMMANDS.values()
                                   for option in options)})
VALUES = (
    st.sampled_from([*cli.SCENARIOS, "json", "text", "phi+:psi+", "0110", *cli.COMMANDS])
    | st.integers(-3, 2**64 + 3).map(str)
    | st.sampled_from(["007", "-0", "-00", "-01", "", " 1", "1_0", "+3", "1e3", "٣",
                       "-1.5", "-.5", "-1_0"])
    # Any character: argparse lists unrecognized tokens verbatim, and `main` escapes
    # the non-printable ones in the line it prints.
    | st.text(max_size=5)
)


@st.composite
def option_tokens(draw):
    name = draw(st.sampled_from(OPTION_NAMES))
    name = name[:draw(st.integers(3, len(name)))]
    if draw(st.booleans()):
        # argparse before 3.13 stores [] for an attached '--' (test_an_attached_double_dash_is_the_value).
        name += "=" + draw(VALUES.filter(lambda value: value != "--"))
    return name


TOKENS = (
    COMMAND_WORDS
    | option_tokens()
    | VALUES
    | st.sampled_from(["-h", "--help", "--", "-", "-x", "-s", "-hh", "-hx", "-hhx", "-h=", "-h=x", "-h=hx", "---",
                       "--=x", "--bogus", "-a b"])
)
COMMAND_LINES = st.tuples(st.lists(COMMAND_WORDS, max_size=1), st.lists(TOKENS, max_size=7)).map(
    lambda parts: parts[0] + parts[1])


class TestCommandLine:
    """`parse_command_line` reads every command line as the argparse parser it replaced did."""

    @pytest.mark.parametrize("argv, message", list(PINNED_REFUSALS.items()))
    def test_pinned_refusals(self, argv, message):
        assert table_reading(list(argv)) == ("error", message)

    @pytest.mark.skipif(not ARGPARSE_KEEPS_THE_WORDING,
                        reason="this argparse words refusals unlike 3.10.13 to 3.12.1")
    @settings(max_examples=400, deadline=None)
    @given(COMMAND_LINES)
    @example(["simulate", "-h", "--trials", "x"])
    @example(["simulate", "--trials", "x", "-h"])
    @example(["--", "simulate"])
    @example(["simulate", "--f", "-hx"])
    @example(["audit", "-h=hx"])
    @example(["simulate", "--scenario", "xor-chain", "--seed", "-1"])
    @example(["simulate", "--scenario", "xor-chain", "x\ny"])
    @example(["simulate", "--s=x\ny"])
    def test_the_table_parser_reads_as_argparse(self, argv):
        expected = argparse_reading(argv)
        assert table_reading(argv) == expected
        if expected[0] == "error":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert (code, out.getvalue(), err.getvalue()) == (
                2, "", f"error: {cli._one_line(expected[1])}\n")

    @pytest.mark.parametrize("argv", [["--help"], ["-h", "simulate"], ["--he"], *(
        [command, help_option] for command in cli.COMMANDS for help_option in ("-h", "--help"))])
    def test_help_goes_to_stdout_with_exit_0(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        command = argv[0] if argv[0] in cli.COMMANDS else None
        assert out.startswith(f"usage: otplab {command or '[-h]'} ")
        if command is None:
            assert all(f"\n  {name}\n" in out for name in cli.COMMANDS)
        else:
            # Help is built from the table, so it names every option in it.
            assert all(f"\n  {option.name} " in out for option in cli.COMMANDS[command][1])


def run_main(argv: list) -> tuple:
    """`main(argv)`'s exit code, standard output and standard error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# The kinds of --out path, each made in a fresh directory by `make_out`.
OUT_KINDS = ("new", "existing", "private", "directory", "symlink", "dangling", "fifo",
             "missing/report", "line\nbreak")
SEEDS = st.text(max_size=6).filter(lambda text: "\x00" not in text) | st.integers(-1, 2**64).map(str)


@st.composite
def runnable_command_lines(draw):
    """A command with a scenario and small settings where it takes them; a token after, at times."""
    argv = [draw(COMMAND_WORDS)]
    if argv[0] != "audit":
        scenario = draw(st.sampled_from(list(cli.SCENARIOS)))
        sizes = ["--pairs", "phi+:psi+,psi-:phi-"] if scenario == "es-qkd" else [
            "--message-bits", draw(st.sampled_from(["2", "4"]))]
        argv += ["--scenario", scenario, *sizes, "--trials", str(draw(st.integers(1, 3)))]
        argv += draw(st.sampled_from([[], ["--seed", "5"]]))  # else $OTPLAB_SEED, maybe refused
    argv += draw(st.sampled_from([[], ["--format", "json"]]))
    return argv + [draw(TOKENS)] * draw(st.sampled_from([0, 0, 0, 1]))


def make_out(directory: Path, kind: str) -> Path:
    """An --out path of `kind` in `directory`; a symlink's target is `directory / "target"`."""
    path = directory / kind
    if kind in ("existing", "private", "symlink"):
        file = directory / "target" if kind == "symlink" else path
        file.write_text("old")
        file.chmod(0o600 if kind == "private" else 0o644)
    if kind == "directory":
        path.mkdir()
    elif kind in ("symlink", "dangling"):
        path.symlink_to("target")
    elif kind == "fifo":
        os.mkfifo(path)
    return path


class TestWholeCommandLines:
    """Any command line, --out path and $OTPLAB_SEED: exit 0 or 2, and --out damages nothing."""

    KINDS = st.sampled_from((None, *OUT_KINDS))

    @settings(max_examples=200, deadline=None)
    @given(COMMAND_LINES | st.lists(TOKENS | st.binary(max_size=4).map(os.fsdecode), max_size=6),
           KINDS, st.none() | SEEDS, st.data())
    def test_any_command_line(self, argv, kind, seed, data):
        self.check(argv, kind, seed, data)

    @settings(max_examples=200, deadline=None)
    @given(runnable_command_lines(), KINDS, st.none() | SEEDS, st.data())
    def test_a_runnable_command_line(self, argv, kind, seed, data):
        self.check(argv, kind, seed, data)

    @staticmethod
    def check(argv, kind, seed, data):
        """Exit 0 or 2; --out gets the report if it is written, else keeps its bytes and mode."""
        with tempfile.TemporaryDirectory() as name, pytest.MonkeyPatch.context() as patch:
            directory = Path(name)
            patch.chdir(directory)  # a drawn relative --out path lands here
            patch.setattr(cli, "MAX_TRIALS", 8)  # small runs only
            patch.setattr(cli, "MAX_SWAPS", 16)
            if seed is None:
                patch.delenv("OTPLAB_SEED", raising=False)
            else:
                patch.setenv("OTPLAB_SEED", seed)
            out = at = None
            if kind is not None:
                out = make_out(directory, kind)
                # At the end half the time, where a runnable command line stays runnable.
                at = data.draw(st.just(len(argv)) | st.integers(0, len(argv)))
                argv = argv[:at] + ["--out", str(out)] + argv[at:]
            received = []
            if kind == "fifo":
                reader = threading.Thread(target=lambda: received.append(out.read_text()),
                                          daemon=True)
                reader.start()
            code, stdout, stderr = run_main(argv)
            assert code in (0, 2), stderr
            if code == 2:
                assert stdout == "" and stderr.startswith("error: ") and stderr.count("\n") == 1
            parsed = parse_command_line(argv) if code == 0 else None
            written = out is not None and getattr(parsed, "out", None) == str(out)
            if kind == "fifo":
                if not written:  # nothing opened the FIFO: open it, so its reader returns
                    os.close(os.open(out, os.O_WRONLY))
                reader.join(timeout=30)
                assert not reader.is_alive()
            assert not list(directory.rglob("*.partial"))
            file = directory / "target" if kind in ("symlink", "dangling") else out
            if written:
                # The same command line, with a fresh --out path in the same place.
                expected = directory / "expected"
                assert run_main(argv[:at + 1] + [str(expected)] + argv[at + 2:])[0] == 0
                assert stdout == ""
                assert (received or [file.read_text()]) == [expected.read_text()]
            elif kind in ("existing", "private", "symlink"):
                assert file.read_text() == "old"
            if kind in ("existing", "private", "symlink"):
                assert stat.S_IMODE(file.stat().st_mode) == (0o600 if kind == "private" else 0o644)
            if kind in ("symlink", "dangling"):
                assert out.is_symlink()


class TestOutput:
    def test_out_writes_file_and_stdout_stays_quiet(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", "xor-chain", "--message-bits", "2",
            "--seed", "1", "--format", "json", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        report = json.loads(target.read_text())
        jsonschema.validate(report, SCHEMA)

    def test_unwritable_out_exits_2_with_one_line(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", "xor-chain", "--out", str(target),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not target.parent.exists()

    def test_failed_out_write_leaves_no_file(self, capsys, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        code, _, err = run_cli(capsys, "audit", "--out", str(target))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert not any(target.iterdir())

    def test_interrupted_out_write_propagates_and_leaves_no_partial(self, monkeypatch, tmp_path):
        opened = []

        def interrupt(text):
            raise KeyboardInterrupt

        def interrupted_open(path, mode):
            handle = open(path, mode)
            handle.write = interrupt
            opened.append(path)
            return handle

        monkeypatch.setattr(cli, "open", interrupted_open, raising=False)
        with pytest.raises(KeyboardInterrupt):
            main(["audit", "--out", str(tmp_path / "r.json")])
        assert opened == [f"{tmp_path / 'r.json'}.{os.getpid()}.partial"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_failed_stdout_exits_2_with_one_line(self, capsys, monkeypatch, failing):
        class FullStdout(io.StringIO):
            def fail(self, *args):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        stub = FullStdout()
        monkeypatch.setattr(stub, failing, stub.fail)
        monkeypatch.setattr(sys, "stdout", stub)
        code = main(["audit"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.parametrize("target", ["/dev/full", "closed pipe"])
    def test_failed_stdout_in_a_fresh_interpreter_exits_2_with_one_line(self, target):
        # A buffered stdout keeps the bytes it failed to write and retries
        # them at interpreter exit, so this needs a process of its own.
        if target == "/dev/full" and not os.path.exists(target):
            pytest.skip("no /dev/full")
        if target == "/dev/full":
            stdout = os.open(target, os.O_WRONLY)
        else:
            reader, stdout = os.pipe()
            os.close(reader)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "otplab.cli", "audit"],
                stdout=stdout, stderr=subprocess.PIPE, env=child_env(), text=True, timeout=60,
            )
        finally:
            os.close(stdout)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: cannot write standard output: ")
        assert done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr

    def test_closed_stdout_exits_2_with_one_line(self, capsys, monkeypatch):
        # An interpreter started with descriptor 1 closed has no sys.stdout.
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["simulate", "--scenario", "xor-chain"]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write standard output: {os.strerror(errno.EBADF)}\n")

    def test_closed_stdout_in_a_fresh_interpreter_exits_2_with_one_line(self):
        done = subprocess.run(
            ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "otplab.cli", "simulate",
             "--scenario", "xor-chain"],
            stderr=subprocess.PIPE, env=child_env(), text=True, timeout=60,
        )
        assert (done.returncode, done.stderr) == (
            2, f"error: cannot write standard output: {os.strerror(errno.EBADF)}\n")

    @pytest.mark.parametrize("existing", [True, False], ids=["target", "dangling"])
    def test_out_through_a_symlink_writes_its_target_and_keeps_the_link(self, capsys, tmp_path,
                                                                        existing):
        target, link = tmp_path / "report.txt", tmp_path / "link"
        if existing:
            target.write_text("old")
        link.symlink_to(target.name)
        assert main(["audit", "--out", str(link)]) == 0
        assert main(["audit"]) == 0
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_text() == capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "report.txt"]

    def test_out_to_a_fifo_is_written_in_place(self, capsys, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        assert main(["audit", "--out", str(fifo)]) == 0
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert main(["audit"]) == 0
        assert received == [capsys.readouterr().out]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["fifo"]

    def test_replaced_file_keeps_its_mode_and_its_other_links_keep_the_old_bytes(
            self, capsys, tmp_path):
        target, other = tmp_path / "report.txt", tmp_path / "other-link"
        target.write_text("old")
        target.chmod(0o600)
        os.link(target, other)
        assert main(["audit", "--out", str(target)]) == 0
        assert main(["audit"]) == 0
        assert target.read_text() == capsys.readouterr().out
        assert stat.S_IMODE(target.stat().st_mode) == 0o600
        assert other.read_text() == "old"

    def test_refusal_exits_2_when_stderr_is_unwritable(self, capsys, monkeypatch):
        class FullStderr(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        for stderr in (None, FullStderr()):
            monkeypatch.setattr(sys, "stderr", stderr)
            assert main(["simulate", "--scenario", "nope"]) == 2
            assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("redirect", ["2>&-", "2>/dev/full"])
    def test_refusal_in_a_fresh_interpreter_exits_2_when_stderr_is_unwritable(self, redirect):
        if redirect == "2>/dev/full" and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        done = subprocess.run(
            ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "otplab.cli",
             "simulate", "--scenario", "nope"],
            stdout=subprocess.PIPE, env=child_env(), text=True, timeout=60,
        )
        assert (done.returncode, done.stdout) == (2, "")

    def test_text_mode_carries_the_same_numbers(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", "es-qkd", "--pairs", "phi+:psi+", "--seed", "1"
        )
        assert code == 0
        assert "claimed=4" in out
        assert "eve=2.0" in out
        assert "secure=2.0" in out


class TestAudit:
    def test_rows_reproduce_the_headline_numbers(self):
        rows = {row["scenario"]: row for row in build_audit_rows()}
        assert rows["xor-chain"]["claimed_bits_per_carrier"] == 2
        assert rows["xor-chain"]["effective_bits_per_carrier"] == 1
        assert rows["es-qkd"]["claimed_bits_per_carrier"] == 4
        assert rows["es-qkd"]["effective_bits_per_carrier"] == 2
        otp = rows["otp-baseline"]
        assert otp["claimed_bits_per_carrier"] == otp["effective_bits_per_carrier"]
        assert all(row["holevo_ok"] for row in rows.values())

    @pytest.mark.parametrize("scenario", ["xor-chain", "es-qkd", "otp-baseline"])
    def test_row_matches_simulate_at_default_size(self, capsys, scenario):
        row = {row["scenario"]: row for row in build_audit_rows()}[scenario]
        report = run_json(capsys, "simulate", "--scenario", scenario, "--seed", "0")
        assert row["carrier_unit"] == CARRIERS[scenario].unit
        for key, value in report["efficiency"].items():
            assert row[key] == value

    def test_rows_draw_no_trial(self, monkeypatch):
        rows = build_audit_rows()

        def refuse(*args):
            raise AssertionError("the audit ran a trial")

        for name in ("run_xor_chain", "run_es_qkd", "run_otp_baseline", "random_bits"):
            monkeypatch.setattr(cli, name, refuse)
        assert build_audit_rows() == rows

    def test_text_table(self, capsys):
        code, out, _ = run_cli(capsys, "audit")
        assert code == 0
        assert "xor-chain" in out and "es-qkd" in out and "otp-baseline" in out

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert {row["scenario"] for row in payload["rows"]} == {
            "xor-chain", "es-qkd", "otp-baseline",
        }
        assert out == stdlib_json({"rows": build_audit_rows(), "tool_version": otplab.__version__})


class TestFrozenObjects:
    """`main` freezes what exists before a run, unless its caller froze objects itself."""

    @pytest.mark.parametrize("caller_froze", [False, True])
    def test_main_leaves_the_freeze_count_as_it_found_it(self, capsys, caller_froze):
        assert main(["audit"]) == 0  # a first run's imports and caches outlive it
        gc.unfreeze()
        try:
            if caller_froze:
                gc.freeze()
            before = gc.get_freeze_count()
            assert (before > 0) == caller_froze
            assert main(["audit"]) == 0
            assert gc.get_freeze_count() == before
        finally:
            gc.unfreeze()


# `render_json` writes each distinct trial once; the oracle is one
# `json.dumps` of the whole report.

def stdlib_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


LABELS = st.sampled_from([PHI_PLUS, PHI_MINUS, PSI_PLUS, PSI_MINUS])


@st.composite
def report_configs(draw):
    """(config, with_attack): any scenario and size, 1-12 trials, es-qkd with 1-16 pairs."""
    scenario = draw(st.sampled_from(sorted(cli.SCENARIOS)))
    sizes = {}
    if scenario == "es-qkd":
        sizes["pairs"] = draw(st.lists(st.tuples(LABELS, LABELS), min_size=1, max_size=16))
        bits = 4 * len(sizes["pairs"])
        sizes["plaintext"] = draw(st.none() | st.text("01", min_size=bits, max_size=bits))
    else:
        sizes["message_bits"] = draw(st.sampled_from(cli.SCENARIOS[scenario].message_lengths))
    config = ScenarioConfig(scenario, seed=draw(st.integers(0, (1 << 64) - 1)),
                            trials=draw(st.integers(1, 12)), fmt="json", **sizes)
    return config, draw(st.booleans())


TRICKY_TEXT = st.text(alphabet='01ab "\\\n\t\u00e9\u2028\U0001f512{}[],:', max_size=8)
# Scalars that compare equal, or render alike somewhere, but whose JSON differs.
CONFUSABLE = st.sampled_from([True, 1, 1.0, False, 0, 0.0, -0.0, "1", "0"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TRICKY_TEXT | CONFUSABLE,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TRICKY_TEXT, inner, max_size=3),
    max_leaves=10,
)
# Header keys: every report's, and any other key that sorts before "trials".
HEADER_KEYS = ("config", "efficiency", "leakage", "scenario", "tool_version")
REPORT_KEYS = st.sampled_from(HEADER_KEYS) | TRICKY_TEXT.filter(lambda k: k < "trials")
# The values a trial's attack block holds: bitstrings, floats, bools, lists
# of bitstrings, lists of such lists (es-qkd's key sets) and of int pairs.
BITSTRINGS = st.text(alphabet="01", max_size=16)
KEY_SETS = st.lists(st.lists(BITSTRINGS, min_size=1, max_size=4), min_size=1, max_size=4)
PARITIES = st.lists(st.tuples(st.integers(), st.integers()).map(list), min_size=1, max_size=4)


def small_report(scenario="xor-chain", trials=3, **sizes) -> dict:
    """An attack report of a few trials, for a test to edit."""
    config = ScenarioConfig(scenario, seed=1, trials=trials, fmt="json", **sizes)
    return build_report(config, with_attack=True)


def with_attack(trial: dict, **values) -> dict:
    """A copy of `trial` whose attack block also holds `values`."""
    return {**trial, "attack": {**trial["attack"], **values}}


def workload_shaped_reports():
    """Reports shaped like the benchmark's, at a few trials."""
    tokens = ("phi+", "phi-", "psi+", "psi-")
    pairs = ",".join(f"{a}:{b}" for a in tokens for b in tokens)
    command_lines = [
        ["--scenario", "es-qkd", "--pairs", pairs, "--plaintext", "0110" * 16],
        ["--scenario", "xor-chain", "--message-bits", "16"],
        ["--scenario", "otp-baseline", "--message-bits", "6"],
    ]
    for argv in command_lines:
        args = parse_command_line(
            ["attack", *argv, "--seed", "1", "--trials", "3", "--format", "json"]
        )
        yield build_report(config_from_args(args), with_attack=True)


class TestBatchedRender:
    """Lists of lists, in trial bodies (written directly) and in the header (`json.dumps`)."""

    @settings(deadline=None)
    @given(KEY_SETS, PARITIES, st.booleans())
    def test_batched_list_as_a_trial_body_matches_stdlib(self, key_sets, parities, match):
        report = small_report("es-qkd", plaintext="0110")
        report["trials"] = [
            with_attack(trial, key_sets=key_sets, true_parities=parities,
                        recovered_parities=parities[::-1], parities_match=match)
            for trial in report["trials"]
        ]
        assert render_json(report) == stdlib_json(report)

    @settings(deadline=None)
    @given(st.lists(st.lists(JSON_VALUES, min_size=1, max_size=4)
                    | st.dictionaries(TRICKY_TEXT, JSON_VALUES, min_size=1, max_size=4),
                    min_size=1, max_size=5))
    def test_batched_list_in_the_header_matches_stdlib(self, items):
        report = small_report()
        report["config"] = {**report["config"], "pairs": items}
        report["leakage"] = items
        assert render_json(report) == stdlib_json(report)

    def test_workload_shaped_reports_match_stdlib_without_json_dumps(self, monkeypatch):
        """Only each report's header goes to `json.dumps`; no trial body does."""
        reports = list(workload_shaped_reports())
        dumps, dumped = json.dumps, []

        def counted(obj, **kwargs):
            dumped.append(sorted(obj))
            return dumps(obj, **kwargs)

        monkeypatch.setattr(cli.json, "dumps", counted)
        rendered = [render_json(report) for report in reports]
        monkeypatch.undo()
        assert dumped == [list(HEADER_KEYS)] * 3
        for report, text in zip(reports, rendered):
            assert text == stdlib_json(report)

    def test_values_of_other_types_fall_back_to_json_dumps(self):
        class Bits(str):
            pass

        report = small_report()
        for value in (np.float64(0.5), Bits("01"), {1: "a", 2: [2]}, {"x": {2: [{}]}}):
            report["scenario"] = [value, {"v": value}]
            assert render_json(report) == stdlib_json(report)


# Trials of one shape whose attack leaves are equal in Python, or render
# alike somewhere, but whose JSON differs.
ATTACK_FILLS = st.tuples(st.sampled_from([True, False, 1.0, 0.0, -0.0, 0.5]),
                         st.booleans(), st.sampled_from(["1", "0", "10"]))


@st.composite
def confusable_trials(draw):
    fills = draw(st.lists(ATTACK_FILLS, min_size=2, max_size=4))
    pool = [{"attack": {"eve_bits": a, "parities_match": b, "view": c},
             "key_or_message": c, "transcript": []} for a, b, c in fills]
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))


class TestRenderJson:
    @settings(deadline=None, max_examples=60)
    @given(report_configs())
    @example((ScenarioConfig("xor-chain", seed=7, trials=12, fmt="json", message_bits=16), True))
    @example((ScenarioConfig("otp-baseline", seed=7, trials=12, fmt="json", message_bits=12), True))
    def test_report_like_payloads_match_stdlib(self, config_and_attack):
        report = build_report(*config_and_attack)
        text = render_json(report)
        assert text == stdlib_json(report)
        jsonschema.validate(json.loads(text), SCHEMA)

    @settings(deadline=None)
    @given(st.dictionaries(REPORT_KEYS, JSON_VALUES, max_size=4))
    def test_any_keys_match_stdlib(self, header):
        report = {**small_report(), **header}
        assert render_json(report) == stdlib_json(report)

    def test_empty_trials_match_stdlib(self):
        for report in workload_shaped_reports():
            report["trials"] = []
            assert render_json(report) == stdlib_json(report)

    @given(confusable_trials())
    def test_trials_that_differ_only_in_scalar_type_match_stdlib(self, trials):
        report = {"scenario": "s", "trials": trials}
        assert render_json(report) == stdlib_json(report)

    def test_trials_equal_in_python_render_apart(self):
        trial = small_report()["trials"][0]
        trials = [with_attack(trial, eve_bits=x) for x in (True, 1.0, -0.0, 0.0, False, "1")]
        report = {"scenario": "s", "trials": [*trials, trials[0]]}
        assert render_json(report) == stdlib_json(report)

    def test_repeated_trials_with_quotes_newlines_and_non_ascii(self):
        """Trial strings are checked bitstrings; only the header holds text to escape."""
        report = small_report()
        trial = report["trials"][0]
        report["trials"] = [trial, report["trials"][1], trial, trial]
        report["scenario"] = 'a"\n\u00e9\U0001f512'
        report["config"] = {**report["config"], "pairs": ["1\n}", "\\", "\u2028"]}
        assert render_json(report) == stdlib_json(report)

    def test_one_shared_trial_object_matches_stdlib(self):
        trial = {"attack": None, "key_or_message": "10",
                 "transcript": [{"channel": "public-broadcast", "payload": "1", "sender": "alice"}]}
        payload = {"scenario": "xor-chain", "trials": [trial] * 5}
        assert render_json(payload) == stdlib_json(payload)

    def test_equal_but_distinct_trial_objects_match_stdlib(self):
        def trial():
            return {"attack": {"eve_bits": 1.0, "view": "0"}, "key_or_message": "11",
                    "transcript": [{"channel": "secure-primitive", "payload": "1",
                                    "sender": "alice"}]}
        payload = {"scenario": "xor-chain", "trials": [trial() for _ in range(5)]}
        assert render_json(payload) == stdlib_json(payload)

    def test_a_list_shared_at_several_depths_matches_stdlib(self):
        report = small_report("es-qkd", pairs=parse_pairs("phi+:psi+,psi-:phi-"))
        key_sets = report["trials"][0]["attack"]["key_sets"]
        # One list as a key set (five indents deep), an attack value (four)
        # and a header value.
        report["config"] = {**report["config"], "pairs": key_sets}
        first, *rest = report["trials"]
        report["trials"] = [with_attack(first, posterior_support=key_sets[0]), *rest, first]
        assert render_json(report) == stdlib_json(report)

    def test_a_list_shared_by_trial_bodies_is_rendered_at_most_twice(self, monkeypatch):
        es_qkd = ScenarioConfig("es-qkd", seed=1, trials=6, fmt="json",
                                pairs=parse_pairs("phi+:psi+,psi-:phi-"), plaintext="10110010")
        xor_chain = ScenarioConfig("xor-chain", seed=3, trials=40, fmt="json", message_bits=4)
        reports = [build_report(es_qkd, with_attack=True), build_report(xor_chain, True)]
        written = collections.Counter()

        def counted(write):
            def count(items, *args):
                written[id(items)] += 1
                return write(items, *args)
            return count

        monkeypatch.setattr(cli, "_strings", counted(cli._strings))
        monkeypatch.setattr(cli, "_pairs", counted(cli._pairs))
        texts = [render_json(report) for report in reports]
        monkeypatch.undo()
        assert texts == [stdlib_json(report) for report in reports]
        attacks = [trial["attack"] for trial in reports[0]["trials"]]
        assert [written[id(blocks)] for blocks in attacks[0]["key_sets"]] == [2, 2]
        # Every trial recovers the true parities and holds the report's list,
        # so the parities are written twice per report, not once per trial.
        true = attacks[0]["true_parities"]
        assert all(attack["recovered_parities"] is true for attack in attacks)
        assert written[id(true)] == 2
        bodies = {id(trial): trial for trial in reports[1]["trials"]}.values()
        assert len(bodies) < 40
        holders = collections.Counter(id(body["attack"]["posterior_support"]) for body in bodies)
        assert max(holders.values()) > 1
        assert {key: written[key] for key in holders} == {
            key: min(count, 2) for key, count in holders.items()}


class BitString(str):
    pass


# Lists of strings for the header, which `json.dumps` writes: bitstrings,
# strings that must be escaped and strings that are not exactly `str`.
STRING_ITEMS = (
    BITSTRINGS
    | st.sampled_from(['"', "\\", "\n", "\x7f", "\u00e9", "\u2028", "\ud800", "", " ~",
                       "0\\1", 'a"b'])
    | st.text(alphabet="01", max_size=4).map(BitString)
)


class TestStringListRender:
    @settings(deadline=None)
    @given(st.lists(BITSTRINGS, min_size=1, max_size=6))
    def test_string_list_as_a_trial_field_matches_stdlib(self, items):
        report = small_report()
        trial = with_attack(report["trials"][0], posterior_support=items)
        report["trials"] = [trial, report["trials"][1], trial]
        assert render_json(report) == stdlib_json(report)

    @settings(deadline=None)
    @given(st.lists(STRING_ITEMS, max_size=6))
    def test_string_list_in_the_header_matches_stdlib(self, items):
        report = small_report()
        report["config"] = {**report["config"], "pairs": items}
        report["leakage"] = items
        assert render_json(report) == stdlib_json(report)

    def test_bitstring_lists_skip_the_encoder(self, monkeypatch):
        support = [format(code, "016b") for code in range(256)]
        expected = json.dumps(support, indent=2).replace("\n", "\n" + "  " * 4)
        report = small_report()
        report["trials"] = [with_attack(trial, posterior_support=support)
                            for trial in report["trials"]]

        def no_encoder(*args, **kwargs):
            raise AssertionError("a list of bitstrings went through json.dumps")

        monkeypatch.setattr(cli.json, "dumps", no_encoder)
        text = cli._attack_value(support, {})
        monkeypatch.undo()
        assert text == expected
        assert render_json(report) == stdlib_json(report)


class TestWriteSlices:
    TEXT = "0123456789\n" * 300_000

    def recorded_emit(self, monkeypatch, stream_type, *args) -> tuple:
        """`_emit` of TEXT to a `stream_type` stdout: (stream, the length of each write)."""
        sizes = []

        class Recording(stream_type):
            def write(self, piece):
                sizes.append(len(piece))
                return super().write(piece)

        stream = Recording(*args)
        monkeypatch.setattr(sys, "stdout", stream)
        cli._emit(self.TEXT, None)
        monkeypatch.undo()
        return stream, sizes

    def test_a_text_file_gets_slices_of_at_most_2_to_the_20_characters(self, monkeypatch):
        stream, sizes = self.recorded_emit(monkeypatch, io.TextIOWrapper, io.BytesIO(), "ascii")
        assert stream.buffer.getvalue().decode() == self.TEXT
        assert len(sizes) > 1 and max(sizes) <= 1 << 20

    def test_a_string_buffer_gets_one_write(self, monkeypatch):
        stream, sizes = self.recorded_emit(monkeypatch, io.StringIO)
        assert stream.getvalue() == self.TEXT
        assert sizes == [len(self.TEXT)]


def reference_text(report) -> str:
    """The text report built line by line, each trial rendered where it is listed."""
    cfg, leak, eff = report["config"], report["leakage"], report["efficiency"]
    lines = [f"scenario: {report['scenario']}",
             "config: " + " ".join(f"{k}={cfg[k]}" for k in sorted(cfg))]
    for i, trial in enumerate(report["trials"], start=1):
        lines.append(f"trial {i}:")
        for event in trial["transcript"] or [None]:
            lines.append("  (no channel events)" if event is None else
                         f"  {event['sender']} {event['channel']} {event['payload']}")
        lines.append(f"  key_or_message: {trial['key_or_message']}")
        for k in sorted(trial["attack"] or {}):
            lines.append(f"  attack.{k}: {trial['attack'][k]}")
    resources = leak["resources"]
    lines.append(f"leakage: claimed={leak['claimed_bits']} receiver={leak['receiver_bits']} "
                 f"eve={leak['eve_bits']} secure={leak['secure_bits']} "
                 f"carriers={resources['carrier_states']} qubits={resources['qubits']}")
    lines.append(f"efficiency: claimed/carrier={eff['claimed_bits_per_carrier']} "
                 f"effective/carrier={eff['effective_bits_per_carrier']} "
                 f"effective/qubit={eff['effective_bits_per_qubit']} "
                 f"holevo_ok={eff['holevo_ok']}")
    lines.append(f"tool_version: {report['tool_version']}")
    return "\n".join(lines) + "\n"


class TestRenderText:
    SIZES = {
        "xor-chain": {"message_bits": 2},
        "es-qkd": {"pairs": cli.parse_pairs("phi+:psi+,psi-:phi-"), "plaintext": "10110010"},
        "otp-baseline": {"message_bits": 3},
    }

    @pytest.mark.parametrize("with_attack", [False, True])
    @pytest.mark.parametrize("scenario", sorted(SIZES))
    def test_reports_match_the_line_by_line_reference(self, scenario, with_attack):
        config = ScenarioConfig(scenario, seed=5, trials=12, fmt="text", **self.SIZES[scenario])
        report = build_report(config, with_attack)
        assert cli.render_report_text(report) == reference_text(report)

    def test_repeated_trial_objects_keep_their_numbering(self):
        config = ScenarioConfig("xor-chain", seed=3, trials=40, fmt="text", message_bits=2)
        report = build_report(config, with_attack=True)
        assert len({id(trial) for trial in report["trials"]}) < len(report["trials"])
        text = cli.render_report_text(report)
        assert text == reference_text(report)
        numbered = [line for line in text.splitlines() if line.startswith("trial ")]
        assert numbered == [f"trial {i}:" for i in range(1, 41)]
        a = {"transcript": [], "key_or_message": "01", "attack": None}
        b = {"transcript": [{"sender": "alice", "channel": "c", "payload": "1"}],
             "key_or_message": "10", "attack": {"view": "1"}}
        report["trials"] = [a, b, a, a, b]
        lines = cli.render_report_text(report).splitlines()
        start = lines.index("trial 1:")
        assert lines[start:start + 13] == [
            "trial 1:", "  (no channel events)", "  key_or_message: 01",
            "trial 2:", "  alice c 1", "  key_or_message: 10", "  attack.view: 1",
            "trial 3:", "  (no channel events)", "  key_or_message: 01",
            "trial 4:", "  (no channel events)", "  key_or_message: 01",
        ]
        assert lines[start + 13:start + 17] == [
            "trial 5:", "  alice c 1", "  key_or_message: 10", "  attack.view: 1",
        ]


@pytest.fixture(scope="module")
def twenty_thousand_trials():
    config = ScenarioConfig("xor-chain", seed=3, trials=20_000, fmt="json", message_bits=2)
    return build_report(config, with_attack=True)


class TestRenderMemory:
    """Each renderer builds its text once, not a second full copy."""

    @pytest.mark.parametrize("render,bound", [
        (render_json, 1.25),
        (cli.render_report_text, 2.5),
    ])
    def test_traced_peak_is_bounded_by_the_text_length(self, twenty_thousand_trials,
                                                        render, bound):
        tracemalloc.start()
        try:
            text = render(twenty_thousand_trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * len(text), (peak, len(text))


class TestRepeatedTrials:
    def config(self, trials):
        return ScenarioConfig("xor-chain", seed=3, trials=trials, fmt="json", message_bits=2)

    def test_two_bit_attack_holds_at_most_four_trial_objects(self):
        report = build_report(self.config(64), with_attack=True)
        assert len(report["trials"]) == 64
        assert len({id(trial) for trial in report["trials"]}) <= 4
        by_message = {}
        for trial in report["trials"]:
            assert by_message.setdefault(trial["key_or_message"], trial) is trial

    def test_repeated_messages_reuse_the_run_and_the_view(self, monkeypatch):
        calls = collections.Counter()

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(protocols, "XorChainRun", counting("build", protocols.XorChainRun))
        monkeypatch.setattr(protocols, "_xor_chain_runs", {})
        for name in ("run_xor_chain", "eve_view"):
            monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
        monkeypatch.setattr(cryptanalysis, "posterior",
                            counting("posterior", cryptanalysis.posterior))
        report = build_report(self.config(64), with_attack=True)
        messages = {trial["key_or_message"] for trial in report["trials"]}
        assert calls["run_xor_chain"] == calls["posterior"] == 64
        assert calls["build"] == calls["eve_view"] == len(messages) <= 4

    def test_es_qkd_trials_share_the_config_only_attack_fields(self):
        config = ScenarioConfig("es-qkd", seed=3, trials=4, fmt="json",
                                pairs=parse_pairs("phi+:psi+,psi-:phi-"), plaintext="10110010")
        attacks = [trial["attack"] for trial in build_report(config, with_attack=True)["trials"]]
        assert attacks[0]["true_parities"] == [[0, 1], [1, 0]]
        for name in ("key_sets", "true_parities"):
            assert all(attack[name] is attacks[0][name] for attack in attacks)

    ALL_PAIRS = ",".join(f"{a}:{b}" for a in ("phi+", "phi-", "psi+", "psi-")
                         for b in ("phi+", "phi-", "psi+", "psi-"))

    def es_qkd_report(self, fmt="json"):
        config = ScenarioConfig("es-qkd", seed=5, trials=5, fmt=fmt,
                                pairs=parse_pairs(self.ALL_PAIRS), plaintext="0110" * 4 + "1" * 48)
        return build_report(config, with_attack=True)

    def test_es_qkd_trials_that_recover_every_parity_share_the_true_list(self):
        report = self.es_qkd_report()
        attacks = [trial["attack"] for trial in report["trials"]]
        true = attacks[0]["true_parities"]
        assert true == [[1, 1]] * 4 + [[0, 0]] * 12
        for attack in attacks:
            assert attack["parities_match"] is True
            assert attack["recovered_parities"] is true
        assert render_json(report) == stdlib_json(report)

    def test_an_es_qkd_trial_that_misses_a_parity_gets_its_own_list(self, monkeypatch):
        calls = []

        def one_flipped(block, pair):
            parities = cryptanalysis.attack_es_qkd_parity(block, pair)
            calls.append(pair)
            # Trial 3 (0-based 2), swap 5: the first parity comes back flipped.
            return (1 - parities[0], parities[1]) if len(calls) == 2 * 16 + 6 else parities

        monkeypatch.setattr(cli, "attack_es_qkd_parity", one_flipped)
        reports = {}
        for fmt in ("json", "text"):
            calls.clear()
            reports[fmt] = self.es_qkd_report(fmt)
            assert len(calls) == 5 * 16
        for report in reports.values():
            attacks = [trial["attack"] for trial in report["trials"]]
            true = attacks[0]["true_parities"]
            missed = attacks[2]["recovered_parities"]
            assert missed is not true and attacks[2]["parities_match"] is False
            assert missed[:5] + missed[6:] == true[:5] + true[6:]
            assert missed[5] == [1 - true[5][0], true[5][1]]
            for i, attack in enumerate(attacks):
                if i != 2:
                    assert attack["recovered_parities"] is true and attack["parities_match"]
        assert render_json(reports["json"]) == stdlib_json(reports["json"])
        assert cli.render_report_text(reports["text"]) == reference_text(reports["text"])

    def test_xor_chain_trials_with_one_view_share_one_support_list(self):
        config = ScenarioConfig("xor-chain", seed=3, trials=64, fmt="json", message_bits=4)
        trials = build_report(config, with_attack=True)["trials"]
        by_view = {}
        for attack in [trial["attack"] for trial in trials]:
            support = attack["posterior_support"]
            assert by_view.setdefault(attack["view"], support) is support
        assert len(by_view) < len({trial["key_or_message"] for trial in trials})

    def test_otp_baseline_trials_with_one_ciphertext_share_one_attack_block(self, monkeypatch):
        calls = collections.Counter()

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(cryptanalysis, "posterior",
                            counting("posterior", cryptanalysis.posterior))
        monkeypatch.setattr(cli, "_distributions_match",
                            counting("match", cli._distributions_match))
        config = ScenarioConfig("otp-baseline", seed=3, trials=64, fmt="json", message_bits=2)
        attacks = [trial["attack"] for trial in build_report(config, with_attack=True)["trials"]]
        by_ciphertext = {}
        for attack in attacks:
            assert by_ciphertext.setdefault(attack["ciphertext"], attack) is attack
        # One posterior per trial still; one comparison with the prior per ciphertext.
        assert calls["posterior"] == 64
        assert calls["match"] == len(by_ciphertext) == len({id(a) for a in attacks}) <= 4


class TestAttacksAreTheOnlyPath:
    """A report's analysis is its scheme's attack from `cryptanalysis`, set up once."""

    ATTACKS = {"xor-chain": "attack_xor_chain", "es-qkd": "attack_es_qkd_keyset",
               "otp-baseline": "attack_otp_baseline"}

    @pytest.mark.parametrize("with_attack", [False, True])
    @pytest.mark.parametrize("scenario", sorted(ATTACKS))
    def test_one_attack_set_up_per_report(self, monkeypatch, scenario, with_attack):
        calls = collections.Counter()

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        for name in self.ATTACKS.values():
            counted = counting(name, getattr(cryptanalysis, name))
            for module in (cli, cryptanalysis):
                monkeypatch.setattr(module, name, counted)
        report = build_report(ScenarioConfig(scenario, seed=3, trials=5, fmt="json"), with_attack)
        assert len(report["trials"]) == 5
        assert calls == {self.ATTACKS[scenario]: 1}

    def test_cli_builds_no_joint_of_its_own(self):
        names = ("enumerate_joint", "ciphertext_joint", "mutual_information", "posterior",
                 "xor_chain_view")
        assert [name for name in names if hasattr(cli, name)] == []


def fresh_generator_trials(config, with_attack):
    """`build_report`'s trials and leakage, with a new Random(base.getrandbits(64)) per trial."""
    trial, analysis = cli.SCENARIOS[config.scenario].start(config, with_attack)
    base = random.Random(config.seed)
    runs, trials = [], []
    for _ in range(config.trials):
        run, body = trial(random.Random(base.getrandbits(64)))
        runs.append(run)
        trials.append(body)
    leakage = leakage_report(runs[0], analysis)
    fields = {name: getattr(leakage, name) for name in (
        "scenario", "claimed_bits", "receiver_bits", "eve_bits", "secure_bits")}
    return trials, {**fields, "resources": leakage.resources._asdict()}


def config_streams(config):
    """The streams `build_report` hands a config's trials."""
    return bits.trial_streams(config.seed, config.trials, config.message_bits,
                              cli.SCENARIOS[config.scenario].bitstrings_drawn)


class TestReseededGenerator:
    """One reseeded trial generator gives the streams of a fresh one per trial."""

    CONFIGS = {
        "xor-chain": {"message_bits": 4},
        "es-qkd": {"pairs": cli.parse_pairs("phi+:psi+,psi-:phi-"), "plaintext": "10110010"},
        "otp-baseline": {"message_bits": 3},
    }

    @pytest.mark.parametrize("with_attack", [False, True])
    @pytest.mark.parametrize("trials", range(1, 6))
    @pytest.mark.parametrize("scenario", sorted(CONFIGS))
    def test_report_matches_a_fresh_generator_per_trial(self, scenario, trials, with_attack):
        config = ScenarioConfig(scenario, seed=11, trials=trials, fmt="json",
                                **self.CONFIGS[scenario])
        report = build_report(config, with_attack)
        assert (report["trials"], report["leakage"]) == fresh_generator_trials(config, with_attack)

    @pytest.mark.parametrize("kept_words", [None, 1, 9])
    @pytest.mark.parametrize("with_attack", [False, True])
    @pytest.mark.parametrize("trials", [1, 3, 4, 5, 9])
    @pytest.mark.parametrize("scenario", sorted(CONFIGS))
    def test_bulk_streams_match_a_fresh_generator_per_trial(self, monkeypatch, scenario, trials,
                                                            with_attack, kept_words):
        # Bulk above one trial, in chunks of 4: one trial under, at and over a
        # chunk, and two chunks and a part.  One kept word makes every row run
        # out, so its bitstrings are planned from Random(s); with nine, some
        # rows run out and some do not.
        monkeypatch.setattr(bits, "BULK_TRIALS", 1)
        monkeypatch.setattr(bits, "SEED_CHUNK", 4)
        chunks = []

        def seeded_words(seeds, count):
            chunks.append(len(seeds))
            return bits_seeded_words(seeds, count)[:, :kept_words]

        bits_seeded_words = bits.seeded_words
        monkeypatch.setattr(bits, "seeded_words", seeded_words)
        config = ScenarioConfig(scenario, seed=11, trials=trials, fmt="json",
                                **self.CONFIGS[scenario])
        report = build_report(config, with_attack)
        bulk = scenario != "es-qkd" and trials > 1  # es-qkd's trials draw floats
        assert chunks == ([min(4, trials - start) for start in range(0, trials, 4)] if bulk else [])
        assert (report["trials"], report["leakage"]) == fresh_generator_trials(config, with_attack)

    @pytest.mark.parametrize("kept_words", [None, 1])
    def test_xor_chain_16_counts_hold_through_the_planned_streams(self, monkeypatch, kept_words):
        # perfbench pins one random_bits, run_xor_chain and posterior call per
        # trial, counted at every module binding; a row short of words (one
        # kept word) is planned from Random(s) without a random_bits call.
        monkeypatch.setattr(bits, "BULK_TRIALS", 1)
        monkeypatch.setattr(bits, "SEED_CHUNK", 4)
        calls, streams = collections.Counter(), set()

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        def random_bits(width, rng):
            streams.add(type(rng))
            return bits_random_bits(width, rng)

        bits_random_bits, bits_seeded_words = bits.random_bits, bits.seeded_words
        for module in (bits, cli, otp):
            monkeypatch.setattr(module, "random_bits", counting("random_bits", random_bits))
        monkeypatch.setattr(bits, "seeded_words",
                            lambda seeds, count: bits_seeded_words(seeds, count)[:, :kept_words])
        monkeypatch.setattr(cli, "run_xor_chain", counting("run_xor_chain", cli.run_xor_chain))
        monkeypatch.setattr(cryptanalysis, "posterior",
                            counting("posterior", cryptanalysis.posterior))
        config = ScenarioConfig("xor-chain", seed=11, trials=6, fmt="json", message_bits=16)
        report = build_report(config, with_attack=True)
        assert calls == {"random_bits": 6, "run_xor_chain": 6, "posterior": 6}
        assert streams == {PlannedStream}
        assert (report["trials"], report["leakage"]) == fresh_generator_trials(config, True)

    @pytest.mark.parametrize("scenario,settings,trials,bulk", [
        ("xor-chain", {"message_bits": 2}, bits.BULK_TRIALS + 1, True),
        ("xor-chain", {"message_bits": 2}, bits.BULK_TRIALS, False),
        ("xor-chain", {"message_bits": 6}, bits.BULK_TRIALS + 1, True),
        ("xor-chain", {"message_bits": 16}, bits.BULK_TRIALS + 1, True),
        ("xor-chain", {"message_bits": 16}, bits.BULK_TRIALS, False),
        ("otp-baseline", {"message_bits": 2}, bits.BULK_TRIALS + 1, True),
        ("otp-baseline", {"message_bits": 3}, bits.BULK_TRIALS + 1, True),
        ("otp-baseline", {"message_bits": 12}, bits.BULK_TRIALS + 1, True),
        ("otp-baseline", {"message_bits": 12}, bits.BULK_TRIALS, False),
        ("es-qkd", {}, bits.BULK_TRIALS + 1, False),
    ])
    def test_the_config_alone_chooses_the_bulk_path(self, scenario, settings, trials, bulk):
        config = ScenarioConfig(scenario, seed=11, trials=trials, fmt="json", **settings)
        first = next(config_streams(config))
        assert isinstance(first, PlannedStream if bulk else random.Random)

    def test_a_plan_wider_than_a_uint32_reseeds_per_trial(self, monkeypatch):
        # A 17-bit otp-baseline trial draws 34 bits, more than a planned row holds.
        wider = cli.SCENARIOS["otp-baseline"]._replace(message_lengths=range(1, 18))
        monkeypatch.setitem(cli.SCENARIOS, "otp-baseline", wider)
        monkeypatch.setattr(bits, "BULK_TRIALS", 1)
        config = ScenarioConfig("otp-baseline", seed=11, trials=3, fmt="json", message_bits=17)
        base, trials = random.Random(11), 0
        for stream in config_streams(config):
            assert isinstance(stream, random.Random)
            reference = random.Random(base.getrandbits(64))
            assert [bits.random_bits(17, stream) for _ in range(2)] == [
                bits.random_bits(17, reference) for _ in range(2)]
            trials += 1
        assert trials == 3
