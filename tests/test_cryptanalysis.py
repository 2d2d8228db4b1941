import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otplab.bits import bits_to_int, codes_to_bits, int_to_bits, xor_bits
from otplab.cryptanalysis import (
    EfficiencyVerdict,
    LeakageReport,
    ResourceCount,
    attack_es_qkd_keyset,
    attack_es_qkd_parity,
    attack_otp_baseline,
    attack_xor_chain,
    efficiency_audit,
    leakage_report,
    xor_chain_view,
)
from otplab.infotheory import Distribution, entropy, enumerate_joint, posterior
from otplab.otp import random_key
from otplab.protocols import (
    Channel,
    Transcript,
    eve_view,
    run_es_qkd,
    run_otp_baseline,
    run_xor_chain,
)
from otplab.quantum import (
    BELL_LABELS,
    PHI_PLUS,
    PSI_PLUS,
    swap_distribution_oracle,
    swap_distribution_rule,
)
from otplab.tolerances import FLOAT_TOL

ALL_PAIRS = list(itertools.product(BELL_LABELS, BELL_LABELS))


class TestAttackXorChain:
    def test_two_bit_posterior_and_gain(self):
        run = run_xor_chain("11")  # broadcast is 0
        post, eve_bits = attack_xor_chain(run, Distribution.uniform_bits(2))
        assert set(post.support) == {"00", "11"}
        assert post.probability("00") == pytest.approx(0.5, abs=1e-9)
        assert eve_bits == pytest.approx(1.0, abs=1e-9)

    def test_two_bit_throughput(self):
        run = run_xor_chain("11")
        result = attack_xor_chain(run, Distribution.uniform_bits(2))
        report = leakage_report(run, result)
        assert report.receiver_bits == pytest.approx(2.0, abs=1e-9)
        assert report.eve_bits == pytest.approx(1.0, abs=1e-9)
        assert report.secure_bits == pytest.approx(1.0, abs=1e-9)

    def test_eight_bit_gain(self):
        run = run_xor_chain("10110100")
        _, eve_bits = attack_xor_chain(run, Distribution.uniform_bits(8))
        assert eve_bits == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("n_bits", [2, 4, 6, 8, 10, 12, 14, 16])
    def test_leakage_is_half_the_message(self, n_bits):
        run = run_xor_chain("01" * (n_bits // 2))
        _, eve_bits = attack_xor_chain(run, Distribution.uniform_bits(n_bits))
        assert eve_bits == pytest.approx(n_bits / 2, abs=1e-9)

    def test_view_function_matches_protocol(self):
        for message in codes_to_bits(range(1 << 6), 6):
            assert xor_chain_view(message) == eve_view(run_xor_chain(message).transcript)

    def test_posterior_is_consistent_with_view(self):
        run = run_xor_chain("0110")
        post, _ = attack_xor_chain(run, Distribution.uniform_bits(4))
        view = eve_view(run.transcript)
        assert all(xor_chain_view(m) == view for m in post.support)
        assert run.message in post.support

    def test_prior_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            attack_xor_chain(run_xor_chain("11"), Distribution.uniform_bits(4))

    @pytest.mark.parametrize("width", [1, 3, 5])
    def test_odd_length_messages_rejected(self, width):
        with pytest.raises(ValueError, match="even length"):
            xor_chain_view("1" * width)
        with pytest.raises(ValueError, match="even length"):
            enumerate_joint(Distribution.uniform_bits(width), xor_chain_view)
        with pytest.raises(ValueError, match="even length"):
            xor_chain_view.codes(np.arange(1 << width), width)

    @settings(deadline=None)
    @given(st.integers(0, 31).map(lambda pairs: 2 * pairs), st.data())
    def test_integer_form_matches_string_form(self, width, data):
        codes = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=20))
        view_codes, view_bits = xor_chain_view.codes(np.array(codes, dtype=np.int64), width)
        assert view_bits == width // 2
        assert view_codes.tolist() == [
            bits_to_int(xor_chain_view(int_to_bits(c, width))) for c in codes
        ]


class TestAttackEsQkdKeyset:
    def test_phi_plus_psi_plus_key_set(self):
        key_sets, total = attack_es_qkd_keyset([(PHI_PLUS, PSI_PLUS)])
        assert key_sets == [("0010", "0111", "1000", "1101")]
        assert total == pytest.approx(2.0, abs=1e-9)

    def test_equal_labels_key_set(self):
        key_sets, total = attack_es_qkd_keyset([(PHI_PLUS, PHI_PLUS)])
        assert key_sets == [("0000", "0101", "1010", "1111")]
        assert total == pytest.approx(2.0, abs=1e-9)

    def test_two_swaps_add(self):
        _, total = attack_es_qkd_keyset([(PHI_PLUS, PSI_PLUS), (PHI_PLUS, PHI_PLUS)])
        assert total == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("pair", ALL_PAIRS)
    def test_every_initial_pair_leaves_two_bits(self, pair):
        key_sets, total = attack_es_qkd_keyset([pair])
        assert len(key_sets[0]) == 4
        assert total == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("pair", ALL_PAIRS)
    def test_key_set_size_is_the_rule_entropy(self, pair):
        # The figure assumes equally likely blocks: log2 of the set size is
        # exactly the entropy of the dyadic rule.  The oracle's quarters are
        # rounded, so its entropy only comes within FLOAT_TOL of 2 bits.
        key_sets, total = attack_es_qkd_keyset([pair])
        assert math.log2(len(key_sets[0])) == entropy(swap_distribution_rule(*pair)) == total
        assert abs(entropy(swap_distribution_oracle(*pair)) - 2.0) <= FLOAT_TOL

    def test_residual_half_of_key_is_uniform(self):
        # What Eve cannot pin down -- Alice's result label -- runs over all
        # four values exactly once inside the reachable key set.
        for pair in ALL_PAIRS:
            key_sets, _ = attack_es_qkd_keyset([pair])
            prior = Distribution.uniform(key_sets[0])
            joint = enumerate_joint(prior, lambda key: "")
            post = posterior(joint, "")
            first_halves = {key[:2] for key in post.support}
            assert first_halves == {"00", "01", "10", "11"}
            marginal = {}
            for key, p in post.entries.items():
                marginal[key[:2]] = marginal.get(key[:2], 0.0) + p
            for p in marginal.values():
                assert p == pytest.approx(0.25, abs=1e-9)

    @settings(deadline=None)
    @given(st.lists(st.sampled_from(ALL_PAIRS), min_size=1, max_size=20),
           st.integers(0, 2**32 - 1))
    def test_key_sets_are_the_rule_blocks(self, pairs, seed):
        key_sets, _ = attack_es_qkd_keyset(pairs)
        assert key_sets == [swap_distribution_rule(*pair).support for pair in pairs]
        run = run_es_qkd(pairs, random.Random(seed))
        for i, blocks in enumerate(key_sets):
            assert run.key[4 * i:4 * i + 4] in blocks


class TestAttackEsQkdParity:
    def test_zero_ciphertext_reveals_key_parities(self):
        assert attack_es_qkd_parity("0000", (PHI_PLUS, PSI_PLUS)) == (1, 0)

    def test_substitution_example(self):
        assert attack_es_qkd_parity("1010", (PHI_PLUS, PSI_PLUS)) == (1, 0)

    def test_equal_labels_pass_ciphertext_parities_through(self):
        assert attack_es_qkd_parity("1100", (PHI_PLUS, PHI_PLUS)) == (1, 1)
        assert attack_es_qkd_parity("0100", (PHI_PLUS, PHI_PLUS)) == (0, 1)

    def test_sound_on_all_1024_cases(self):
        failures = 0
        cases = 0
        for pair in ALL_PAIRS:
            for key in swap_distribution_oracle(*pair).support:
                for plaintext in codes_to_bits(range(1 << 4), 4):
                    ciphertext = xor_bits(plaintext, key)
                    recovered = attack_es_qkd_parity(ciphertext, pair)
                    p = [int(ch) for ch in plaintext]
                    if recovered != (p[0] ^ p[2], p[1] ^ p[3]):
                        failures += 1
                    cases += 1
        assert cases == 1024
        assert failures == 0

    def test_rejects_wrong_block_size(self):
        with pytest.raises(ValueError):
            attack_es_qkd_parity("00", (PHI_PLUS, PSI_PLUS))


class TestAttackOtpBaseline:
    def test_posterior_equals_prior(self):
        prior = Distribution.uniform_bits(4)
        post, eve_bits = attack_otp_baseline(prior, "1011")
        assert eve_bits == pytest.approx(0.0, abs=1e-9)
        for outcome in prior.entries:
            assert post.probability(outcome) == pytest.approx(0.0625, abs=1e-9)


class TestLeakageReport:
    def test_xor_chain_accounting(self):
        run = run_xor_chain("11")
        report = leakage_report(run, attack_xor_chain(run, Distribution.uniform_bits(2)))
        assert report.scenario == "xor-chain"
        assert report.claimed_bits == 2
        assert report.secure_bits == pytest.approx(1.0, abs=1e-9)
        assert report.resources == ResourceCount(carrier_states=1, qubits=3)

    def test_es_qkd_accounting(self):
        run = run_es_qkd([(PHI_PLUS, PSI_PLUS)], random.Random(1))
        report = leakage_report(run, attack_es_qkd_keyset(run.initial_pairs))
        assert report.claimed_bits == 4
        assert report.eve_bits == pytest.approx(2.0, abs=1e-9)
        assert report.secure_bits == pytest.approx(2.0, abs=1e-9)
        assert report.resources == ResourceCount(carrier_states=1, qubits=4)

    def test_otp_baseline_accounting(self):
        rng = random.Random(9)
        transcript = run_otp_baseline("110100", random_key(6, rng))
        prior = Distribution.uniform_bits(6)
        report = leakage_report(transcript, attack_otp_baseline(prior, eve_view(transcript)))
        assert report.eve_bits == pytest.approx(0.0, abs=1e-9)
        assert report.secure_bits == pytest.approx(6.0, abs=1e-9)

    @pytest.mark.parametrize("channels", [
        (), (Channel.SECURE_PRIMITIVE,), (Channel.PUBLIC_BROADCAST,) * 2,
    ], ids=["none", "secure-only", "two-broadcasts"])
    def test_otp_baseline_needs_exactly_one_broadcast(self, channels):
        transcript = Transcript(("alice",) * len(channels), channels, ("01",) * len(channels))
        with pytest.raises(ValueError, match="exactly one broadcast"):
            leakage_report(transcript, (None, 0.0))

    def test_unknown_run_type_raises(self):
        with pytest.raises(TypeError):
            leakage_report(object(), (None, 0.0))

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            LeakageReport("x", 2, 1.0, 2.0, ResourceCount(1, 3))


class TestEfficiencyAudit:
    def test_xor_chain_rates(self):
        run = run_xor_chain("11")
        report = leakage_report(run, attack_xor_chain(run, Distribution.uniform_bits(2)))
        verdict = efficiency_audit(report)
        assert verdict.claimed_bits_per_carrier == pytest.approx(2.0, abs=1e-9)
        assert verdict.effective_bits_per_carrier == pytest.approx(1.0, abs=1e-9)
        assert verdict.holevo_ok

    def test_es_qkd_rates(self):
        run = run_es_qkd([(PHI_PLUS, PSI_PLUS)], random.Random(2))
        verdict = efficiency_audit(
            leakage_report(run, attack_es_qkd_keyset(run.initial_pairs))
        )
        assert verdict.claimed_bits_per_carrier == pytest.approx(4.0, abs=1e-9)
        assert verdict.effective_bits_per_carrier == pytest.approx(2.0, abs=1e-9)
        assert verdict.effective_bits_per_qubit == pytest.approx(0.5, abs=1e-9)
        assert verdict.holevo_ok

    def test_ceiling_violation_is_flagged(self):
        impossible = LeakageReport("x", 8, 8.0, 0.0, ResourceCount(1, 4))
        verdict = efficiency_audit(impossible)
        assert not verdict.holevo_ok

    def test_rejects_empty_resources(self):
        report = LeakageReport("x", 2, 2.0, 1.0, ResourceCount(1, 3))
        broken = LeakageReport("x", 2, 2.0, 1.0, ResourceCount(0, 0))
        assert isinstance(efficiency_audit(report), EfficiencyVerdict)
        with pytest.raises(ValueError):
            efficiency_audit(broken)
