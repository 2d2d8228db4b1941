import collections
import dataclasses
import errno
import functools
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otplab import cli, protocols
from otplab.cli import (
    ScenarioConfig,
    build_audit_rows,
    build_parser,
    build_report,
    config_from_args,
    main,
    parse_pairs,
    render_json,
)
from otplab.cryptanalysis import CARRIERS, leakage_report

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "report.schema.json").read_text())


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    @pytest.mark.parametrize("scenario,bits", [("xor-chain", 16), ("otp-baseline", 12)])
    def test_largest_message_lengths_accepted(self, scenario, bits):
        args = build_parser().parse_args(
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

    def test_internal_failure_exits_1(self, capsys, monkeypatch):
        import otplab.cli as cli

        def boom(config, with_attack):
            raise RuntimeError("forced failure")

        record = dataclasses.replace(cli.SCENARIOS["xor-chain"], start=boom)
        monkeypatch.setitem(cli.SCENARIOS, "xor-chain", record)
        code, _, err = run_cli(capsys, "simulate", "--scenario", "xor-chain")
        assert code == 1
        assert "forced failure" in err

    def test_help_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "simulate" in out and "attack" in out and "audit" in out

    @pytest.mark.parametrize("args,message", [
        (("simulate", "--scenario", "foo"), "invalid choice: 'foo'"),
        (("simulate", "--scenario", "xor-chain", "--trials", "x"), "invalid int value: 'x'"),
        (("attack", "--message-bits", "2"), "required: --scenario"),
        ((), "required: command"),
    ], ids=["invalid-choice", "non-integer", "missing-scenario", "missing-command"])
    def test_bad_command_line_is_one_error_line(self, capsys, args, message):
        code, out, err = run_cli(capsys, *args)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert message in err

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
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        if target == "/dev/full":
            stdout = os.open(target, os.O_WRONLY)
        else:
            reader, stdout = os.pipe()
            os.close(reader)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "otplab.cli", "audit"],
                stdout=stdout, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
            )
        finally:
            os.close(stdout)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: cannot write standard output: ")
        assert done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr

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


# `render_json` renders each distinct trial once; the oracle is one
# `json.dumps` of the whole payload.

TRICKY_TEXT = st.text(alphabet='01ab "\\\n\t\u00e9\u2028\U0001f512{}[],:', max_size=8)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TRICKY_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TRICKY_TEXT, inner, max_size=3),
    max_leaves=10,
)
# Report-like keys sort before "trials"; arbitrary keys may sort after it.
REPORT_KEYS = TRICKY_TEXT.filter(lambda k: k < "trials")


@st.composite
def payloads(draw, keys=TRICKY_TEXT, trials=True):
    payload = draw(st.dictionaries(keys, JSON_VALUES, max_size=4))
    payload.pop("trials", None)
    if trials:
        pool = draw(st.lists(JSON_VALUES, min_size=1, max_size=4))
        payload["trials"] = draw(st.lists(st.sampled_from(pool), max_size=12))
    return payload


def stdlib_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# Scalars that compare equal, or render alike somewhere, but whose JSON differs.
CONFUSABLE = st.sampled_from([True, 1, 1.0, False, 0, 0.0, -0.0, "1", "0"])


@st.composite
def confusable_trials(draw):
    """Trials of one shape that differ only in which confusable scalar each leaf holds."""
    fills = draw(st.lists(st.tuples(*[CONFUSABLE] * 4), min_size=2, max_size=4))
    pool = [{"attack": {"eve_bits": a, "flags": [b, {"ok": c}]}, "key_or_message": d}
            for a, b, c, d in fills]
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))


# Strings that look like the text where two batched items meet, or like a
# bracket, quote or escape; the renderer's boundary `replace` must not touch them.
BOUNDARY_TEXT = st.sampled_from(
    ["],\n  [", "},\n    {", "]", "}", "[", "{", '"]', "\n", "\u00e9\U0001f512"]
) | TRICKY_TEXT
BATCH_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | BOUNDARY_TEXT
SCALAR_LISTS = st.lists(BATCH_SCALARS, min_size=1, max_size=4)
SCALAR_DICTS = st.dictionaries(BOUNDARY_TEXT, BATCH_SCALARS, min_size=1, max_size=4)
EMPTY_CONTAINERS = st.sampled_from([[], (), {}])
# Lists of non-empty scalar-only lists (some of them tuples) or dicts, the
# shapes rendered by one encoder call, and lists that mix in empty inner
# containers or the other shape, which are rendered item by item.
BATCHED_LISTS = st.one_of(
    st.lists(SCALAR_LISTS | SCALAR_LISTS.map(tuple), min_size=1, max_size=5),
    st.lists(SCALAR_DICTS, min_size=1, max_size=5),
    st.lists(SCALAR_LISTS | SCALAR_LISTS.map(tuple) | SCALAR_DICTS | EMPTY_CONTAINERS,
             min_size=1, max_size=5),
)


def workload_shaped_reports():
    """Reports shaped like the benchmark's, at a few trials, and the audit table."""
    tokens = ("phi+", "phi-", "psi+", "psi-")
    pairs = ",".join(f"{a}:{b}" for a in tokens for b in tokens)
    command_lines = [
        ["--scenario", "es-qkd", "--pairs", pairs, "--plaintext", "0110" * 16],
        ["--scenario", "xor-chain", "--message-bits", "16"],
        ["--scenario", "otp-baseline", "--message-bits", "6"],
    ]
    for argv in command_lines:
        args = build_parser().parse_args(
            ["attack", *argv, "--seed", "1", "--trials", "3", "--format", "json"]
        )
        yield build_report(config_from_args(args), with_attack=True)
    yield {"rows": build_audit_rows(), "tool_version": "0"}


class TestBatchedRender:
    @settings(deadline=None)
    @given(BATCHED_LISTS)
    def test_batched_list_as_a_trial_body_matches_stdlib(self, items):
        trial = {"attack": {"key_sets": items, "ok": True}, "transcript": items}
        for payload in ({"scenario": "s", "trials": [trial, items, trial]},
                        {"trials": [items]}):
            assert render_json(payload) == stdlib_json(payload)

    @settings(deadline=None)
    @given(BATCHED_LISTS)
    def test_batched_list_in_the_header_matches_stdlib(self, items):
        for payload in ({"config": {"pairs": items}, "leakage": items, "trials": [1]},
                        {"rows": items}):
            assert render_json(payload) == stdlib_json(payload)

    def test_workload_shaped_reports_match_stdlib_without_json_dumps(self, monkeypatch):
        reports = list(workload_shaped_reports())

        def no_fallback(*args, **kwargs):
            raise AssertionError("a report value fell back to json.dumps")

        monkeypatch.setattr(cli.json, "dumps", no_fallback)
        rendered = [render_json(report) for report in reports]
        monkeypatch.undo()
        for report, text in zip(reports, rendered):
            assert text == stdlib_json(report)

    def test_values_of_other_types_fall_back_to_json_dumps(self):
        class Bits(str):
            pass

        for value in (np.float64(0.5), Bits("01"), {1: "a", 2: [2]}, {"x": {2: [{}]}}):
            payload = {"scenario": [value, {"v": value}], "trials": [[value], value]}
            assert render_json(payload) == stdlib_json(payload)


class TestRenderJson:
    @settings(deadline=None)
    @given(payloads(keys=REPORT_KEYS))
    def test_report_like_payloads_match_stdlib(self, payload):
        assert render_json(payload) == stdlib_json(payload)

    @settings(deadline=None)
    @given(payloads())
    def test_any_keys_match_stdlib(self, payload):
        assert render_json(payload) == stdlib_json(payload)

    @given(payloads(trials=False))
    def test_payloads_without_trials_match_stdlib(self, payload):
        assert render_json(payload) == stdlib_json(payload)

    @given(payloads(keys=REPORT_KEYS))
    def test_empty_trials_match_stdlib(self, payload):
        payload["trials"] = []
        assert render_json(payload) == stdlib_json(payload)

    @given(confusable_trials())
    def test_trials_that_differ_only_in_scalar_type_match_stdlib(self, trials):
        payload = {"scenario": "s", "trials": trials}
        assert render_json(payload) == stdlib_json(payload)

    def test_trials_equal_in_python_render_apart(self):
        payload = {"scenario": "s", "trials": [{"x": True}, {"x": 1}, {"x": 1.0}, {"x": -0.0},
                                               {"x": 0.0}, {"x": "1"}, {"x": True}]}
        assert render_json(payload) == stdlib_json(payload)

    def test_repeated_trials_with_quotes_newlines_and_non_ascii(self):
        trial = {"attack": None, "key_or_message": 'a"\n\u00e9\U0001f512',
                 "transcript": [{"payload": "1\n}", "sender": "alice"}], "x": {}}
        payload = {"scenario": "s", "trials": [trial, [], trial, {"a": [1, 2.5]}, trial]}
        assert render_json(payload) == stdlib_json(payload)
        assert render_json({"trials": [trial]}) == stdlib_json({"trials": [trial]})

    def test_one_shared_trial_object_matches_stdlib(self):
        trial = {"attack": None, "key_or_message": "10",
                 "transcript": [{"channel": "public-broadcast", "payload": "1", "sender": "alice"}]}
        payload = {"scenario": "xor-chain", "trials": [trial] * 5}
        assert render_json(payload) == stdlib_json(payload)

    def test_equal_but_distinct_trial_objects_match_stdlib(self):
        def trial():
            return {"attack": {"eve_bits": 1.0, "view": "0"}, "key_or_message": "11",
                    "transcript": [{"channel": "secure-primitive", "payload": "1"}]}
        payload = {"scenario": "xor-chain", "trials": [trial() for _ in range(5)]}
        assert render_json(payload) == stdlib_json(payload)

    def test_a_list_shared_at_several_depths_matches_stdlib(self):
        shared = [["00", "01"], ["10"]]
        trial = {"attack": {"key_sets": shared}, "transcript": shared}
        payload = {"config": {"pairs": shared}, "trials": [trial, shared, {"x": trial}, trial]}
        assert render_json(payload) == stdlib_json(payload)

    def test_a_list_shared_by_trial_bodies_is_rendered_at_most_twice(self, monkeypatch):
        shared, once = [["00", "01"], ["10", "11"]], [[1, 2], [3]]
        payload = {"scenario": "s", "trials": [
            {"attack": {"key_sets": shared}, "transcript": once if i == 0 else [[i]]}
            for i in range(6)
        ]}
        rendered = collections.Counter()
        fresh = cli._fresh

        def counted(obj, depth, memo):
            rendered[id(obj)] += 1
            return fresh(obj, depth, memo)

        monkeypatch.setattr(cli, "_fresh", counted)
        text = render_json(payload)
        monkeypatch.undo()
        assert text == stdlib_json(payload)
        assert rendered[id(shared)] == 2
        assert rendered[id(once)] == 1


class BitString(str):
    pass


# Lists of strings: bitstrings, which take the renderer's one-join path, and
# strings that must be escaped or are not exactly `str`, which must not.
STRING_ITEMS = (
    st.text(alphabet="01", max_size=16)
    | st.sampled_from(['"', "\\", "\n", "\x7f", "\u00e9", "\u2028", "\ud800", "", " ~",
                       "0\\1", 'a"b'])
    | st.text(alphabet="01", max_size=4).map(BitString)
)
STRING_LISTS = st.lists(STRING_ITEMS, max_size=6)


class TestStringListRender:
    @settings(deadline=None)
    @given(STRING_LISTS)
    def test_string_list_as_a_trial_field_matches_stdlib(self, items):
        trial = {"attack": {"posterior_support": items, "view": "01"}, "transcript": []}
        for payload in ({"scenario": "s", "trials": [trial, trial, {"x": items}]},
                        {"trials": [items]}):
            assert render_json(payload) == stdlib_json(payload)

    @settings(deadline=None)
    @given(STRING_LISTS)
    def test_string_list_in_the_header_matches_stdlib(self, items):
        for payload in ({"config": {"pairs": items}, "leakage": items, "trials": [1]},
                        {"rows": items}):
            assert render_json(payload) == stdlib_json(payload)

    def test_bitstring_lists_skip_the_encoder(self, monkeypatch):
        support = [format(code, "016b") for code in range(256)]
        payload = {"scenario": "s", "trials": [{"posterior_support": support}, support]}

        def no_encoder(*args, **kwargs):
            raise AssertionError("a list of bitstrings went through the C encoder")

        monkeypatch.setattr(cli, "_encode", no_encoder)
        text = cli._fresh(support, 3, {})
        monkeypatch.undo()
        assert text == json.dumps(support, indent=2).replace("\n", "\n" + "  " * 3)
        assert render_json(payload) == stdlib_json(payload)


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

        build = counting("build", protocols._xor_chain_run.__wrapped__)
        monkeypatch.setattr(protocols, "_xor_chain_run", functools.cache(build))
        for name in ("run_xor_chain", "posterior", "eve_view"):
            monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
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

    def test_xor_chain_trials_with_one_view_share_one_support_list(self):
        config = ScenarioConfig("xor-chain", seed=3, trials=64, fmt="json", message_bits=4)
        trials = build_report(config, with_attack=True)["trials"]
        by_view = {}
        for attack in [trial["attack"] for trial in trials]:
            support = attack["posterior_support"]
            assert by_view.setdefault(attack["view"], support) is support
        assert len(by_view) < len({trial["key_or_message"] for trial in trials})


def fresh_generator_trials(config, with_attack):
    """`build_report`'s trials and leakage, with a new Random(base.getrandbits(64)) per trial."""
    trial, figure = cli.SCENARIOS[config.scenario].start(config, with_attack)
    base = random.Random(config.seed)
    runs, trials = [], []
    for _ in range(config.trials):
        run, body = trial(random.Random(base.getrandbits(64)))
        runs.append(run)
        trials.append(body)
    return trials, dataclasses.asdict(leakage_report(runs[0], (None, figure)))


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
