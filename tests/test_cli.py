import dataclasses
import json
from pathlib import Path

import jsonschema
import pytest

from otplab.cli import build_audit_rows, main

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report.schema.json").read_text()
)


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
    ])
    def test_invalid_configs_exit_2(self, capsys, args):
        code, _, err = run_cli(capsys, *args)
        assert code == 2
        assert err.strip()

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

        def boom(config, analysis, rng, with_attack):
            raise RuntimeError("forced failure")

        record = dataclasses.replace(cli.SCENARIOS["xor-chain"], trial=boom)
        monkeypatch.setitem(cli.SCENARIOS, "xor-chain", record)
        code, _, err = run_cli(capsys, "simulate", "--scenario", "xor-chain")
        assert code == 1
        assert "forced failure" in err

    def test_help_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "simulate" in out and "attack" in out and "audit" in out


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
