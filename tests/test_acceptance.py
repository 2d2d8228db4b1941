"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s` to see
them inline)."""

import contextlib
import io
import itertools
import json
import random

import pytest

from otplab.bits import codes_to_bits, xor_bits
from otplab.cli import build_audit_rows, main
from otplab.cryptanalysis import (
    ES_QKD,
    attack_es_qkd_keyset,
    attack_es_qkd_parity,
    attack_otp_baseline,
    attack_xor_chain,
    leakage_report,
)
from otplab.infotheory import Distribution, mutual_information
from otplab.otp import KeyMaterial, ciphertext_joint, random_key
from otplab.protocols import (
    ConditionViolationError,
    eve_view,
    run_es_qkd,
    run_otp_baseline,
    run_xor_chain,
)
from otplab.quantum import (
    BELL_LABELS,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    swap_distribution_oracle,
    swap_distribution_rule,
)

ALL_PAIRS = list(itertools.product(BELL_LABELS, BELL_LABELS))


def as_dict(dist: Distribution) -> dict:
    """{bitstring: probability} of a distribution: its support beside its probability column."""
    return dict(zip(dist.support, dist.probabilities.tolist()))


def _verdict(number: int, label: str):
    """Context manager printing one PASS/FAIL line per criterion."""
    class _Verdict:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"criterion {number:02d} {status}  {label}")
            return False

    return _Verdict()


def test_criterion_01_swap_outcome_distribution():
    with _verdict(1, "swap oracle reproduces the four-outcome distribution"):
        dist = swap_distribution_oracle(PHI_PLUS, PSI_PLUS)
        expected = {
            x.bits + y.bits: 0.25
            for x, y in [
                (PHI_PLUS, PSI_PLUS),
                (PHI_MINUS, PSI_MINUS),
                (PSI_PLUS, PHI_PLUS),
                (PSI_MINUS, PHI_MINUS),
            ]
        }
        assert set(dist.support) == set(expected)
        for outcome, p in expected.items():
            assert abs(as_dict(dist).get(outcome, 0.0) - p) <= 1e-9


def test_criterion_02_rule_matches_oracle_everywhere():
    with _verdict(2, "closed-form rule equals the state-vector oracle on all 16 pairs"):
        for initial in ALL_PAIRS:
            oracle = swap_distribution_oracle(*initial)
            rule = swap_distribution_rule(*initial)
            outcomes = set(as_dict(oracle)) | set(as_dict(rule))
            for outcome in outcomes:
                assert abs(as_dict(oracle).get(outcome, 0.0)
                           - as_dict(rule).get(outcome, 0.0)) <= 1e-9


def test_criterion_03_xor_chain_leakage_law():
    with _verdict(3, "xor-chain leaks exactly half of a uniform message"):
        for n_bits in (2, 4, 8, 16):
            eve_bits = attack_xor_chain(Distribution.uniform_bits(n_bits)).eve_bits
            assert abs(eve_bits - n_bits / 2) <= 1e-9
        run = run_xor_chain("11")  # broadcast 0
        post = attack_xor_chain(Distribution.uniform_bits(2)).attack(eve_view(run.transcript))
        assert eve_view(run.transcript) == "0"
        assert set(post.support) == {"00", "11"}
        for p in as_dict(post).values():
            assert abs(p - 0.5) <= 1e-9


def test_criterion_04_xor_chain_throughput_per_carrier():
    with _verdict(4, "xor-chain delivers 2.0 bits, leaks 1.0, secures 1.0 per carrier"):
        run = run_xor_chain("11")
        report = leakage_report(run, attack_xor_chain(Distribution.uniform_bits(2)))
        assert report.resources.carrier_states == 1
        assert abs(report.receiver_bits - 2.0) <= 1e-9
        assert abs(report.eve_bits - 1.0) <= 1e-9
        assert abs(report.secure_bits - 1.0) <= 1e-9


def test_criterion_05_es_qkd_reachable_key_set():
    with _verdict(5, "es-qkd key blocks are exactly {0010,0111,1000,1101}, entropy 2.0"):
        analysis = attack_es_qkd_keyset([(PHI_PLUS, PSI_PLUS)])
        assert analysis.attack == (("0010", "0111", "1000", "1101"),)
        # The key entropy Eve leaves: the bits claimed less hers.
        total_entropy = ES_QKD.claimed_bits * analysis.carriers - analysis.eve_bits
        assert abs(total_entropy - 2.0) <= 1e-9


def test_criterion_06_worked_key_example():
    with _verdict(6, "initial (phi+, psi+) with Alice outcome psi+ yields key 1000"):
        pair = (PHI_PLUS, PSI_PLUS)
        seed = next(
            s for s in range(1000)
            if run_es_qkd([pair], random.Random(s)).alice_results[0] == PSI_PLUS
        )
        run = run_es_qkd([pair], random.Random(seed))
        assert run.alice_results[0] == PSI_PLUS
        assert run.bob_results[0] == PHI_PLUS
        assert run.key == "1000"


def test_criterion_07_parity_attack_soundness():
    with _verdict(7, "parity attack recovers (p1^p3, p2^p4) in all 1024 cases"):
        successes = 0
        total = 0
        for pair in ALL_PAIRS:
            for key in swap_distribution_oracle(*pair).support:
                for plaintext in codes_to_bits(range(1 << 4), 4):
                    ciphertext = xor_bits(plaintext, key)
                    p = [int(ch) for ch in plaintext]
                    truth = (p[0] ^ p[2], p[1] ^ p[3])
                    total += 1
                    if attack_es_qkd_parity(ciphertext, pair) == truth:
                        successes += 1
        assert total == 1024
        assert successes == total
        assert attack_es_qkd_parity("0000", (PHI_PLUS, PSI_PLUS)) == (1, 0)


def test_criterion_08_efficiency_audit_table():
    with _verdict(8, "audit table shows 2/1 per carrier (xor-chain) and 4/2 per swap (es-qkd)"):
        rows = {row["scenario"]: row for row in build_audit_rows()}
        assert rows["xor-chain"]["claimed_bits_per_carrier"] == 2
        assert rows["xor-chain"]["effective_bits_per_carrier"] == 1
        assert rows["es-qkd"]["claimed_bits_per_carrier"] == 4
        assert rows["es-qkd"]["effective_bits_per_carrier"] == 2
        otp = rows["otp-baseline"]
        assert otp["effective_bits_per_carrier"] == otp["claimed_bits_per_carrier"]


def test_criterion_09_baseline_perfect_secrecy():
    with _verdict(9, "uniform fresh pads leak zero bits up to length 12; misuse is refused"):
        for length in range(1, 13):
            joint = ciphertext_joint(Distribution.uniform_bits(length))
            assert abs(mutual_information(joint)) <= 1e-9
        reused = KeyMaterial("10", truly_random=True)
        run_otp_baseline("01", reused)
        with pytest.raises(ConditionViolationError):
            run_otp_baseline("11", reused)
        with pytest.raises(ConditionViolationError):
            run_otp_baseline("0101", KeyMaterial("01", truly_random=True))


def test_criterion_10_holevo_ceiling_everywhere():
    with _verdict(10, "every scenario stays at or below one secure bit per qubit"):
        verdicts = []

        run = run_xor_chain("10110100")
        verdicts.append(
            leakage_report(run, attack_xor_chain(Distribution.uniform_bits(8))).efficiency
        )

        es = run_es_qkd([(PHI_PLUS, PSI_PLUS), (PSI_MINUS, PSI_MINUS)], random.Random(3))
        verdicts.append(leakage_report(es, attack_es_qkd_keyset(es.initial_pairs)).efficiency)

        rng = random.Random(4)
        transcript = run_otp_baseline("101101", random_key(6, rng))
        prior = Distribution.uniform_bits(6)
        verdicts.append(leakage_report(transcript, attack_otp_baseline(prior)).efficiency)

        for verdict in verdicts:
            assert verdict.effective_bits_per_qubit <= 1.0 + 1e-9
            assert verdict.holevo_ok


def test_criterion_11_byte_identical_reports():
    with _verdict(11, "identical command lines produce byte-identical JSON reports"):
        args = [
            "attack", "--scenario", "es-qkd", "--pairs", "phi+:psi+,phi-:phi-",
            "--seed", "99", "--trials", "3", "--plaintext", "10100110",
            "--format", "json",
        ]

        def capture():
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                assert main(args) == 0
            return buffer.getvalue()

        first = capture()
        second = capture()
        assert first == second
        json.loads(first)  # well-formed
