import itertools
import math
import random

import numpy as np
import pytest

from otplab.quantum import (
    BELL_LABELS,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    BellLabel,
    StateVector,
    SwapDistribution,
    bell_state_vector,
    sample_swap,
    swap_distribution_oracle,
    swap_distribution_rule,
)

SQ = 1.0 / math.sqrt(2.0)
ALL_PAIRS = list(itertools.product(BELL_LABELS, BELL_LABELS))


class TestBellLabel:
    def test_two_bit_encoding_convention(self):
        assert PHI_PLUS.bits == "00"
        assert PHI_MINUS.bits == "01"
        assert PSI_PLUS.bits == "10"
        assert PSI_MINUS.bits == "11"

    @pytest.mark.parametrize("label", BELL_LABELS)
    def test_code_roundtrip(self, label):
        assert BellLabel.from_code(label.code) == label
        assert BellLabel.from_token(label.token) == label
        assert str(label) == label.token

    def test_codes_cover_0_to_3(self):
        assert [label.code for label in BELL_LABELS] == [0, 1, 2, 3]

    @pytest.mark.parametrize("bad", [(2, 0), (0, -1), (1, 2)])
    def test_rejects_non_bits(self, bad):
        with pytest.raises(ValueError):
            BellLabel(*bad)

    def test_rejects_bad_code_and_token(self):
        with pytest.raises(ValueError):
            BellLabel.from_code(4)
        with pytest.raises(ValueError):
            BellLabel.from_token("phi*")


class TestBellStateVectors:
    def test_phi_plus_amplitudes(self):
        amps = bell_state_vector(PHI_PLUS).amplitudes
        assert np.allclose(amps, [SQ, 0, 0, SQ], atol=1e-12)

    def test_psi_plus_amplitudes(self):
        amps = bell_state_vector(PSI_PLUS).amplitudes
        assert np.allclose(amps, [0, SQ, SQ, 0], atol=1e-12)

    def test_phi_minus_amplitudes(self):
        amps = bell_state_vector(PHI_MINUS).amplitudes
        assert np.allclose(amps, [SQ, 0, 0, -SQ], atol=1e-12)

    def test_mutually_orthonormal(self):
        for a, b in ALL_PAIRS:
            ip = bell_state_vector(a).inner(bell_state_vector(b))
            expected = 1.0 if a == b else 0.0
            assert abs(ip - expected) < 1e-12


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 1.0]), (1,))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 0.0, 0.0]), (1, 2))

    def test_tensor_requires_disjoint_particles(self):
        v = bell_state_vector(PHI_PLUS, (1, 2))
        with pytest.raises(ValueError):
            v.tensor(bell_state_vector(PHI_PLUS, (2, 3)))

    def test_regrouping_permutation(self):
        # |b1 b2 b3 b4> = |0100> (index 4) must land at (b1,b3,b2,b4) =
        # (0,0,1,0), index 2, under the (1,3),(2,4) regrouping.
        amps = np.zeros(16, dtype=complex)
        amps[4] = 1.0
        v = StateVector(amps, (1, 2, 3, 4)).permuted((1, 3, 2, 4))
        assert v.amplitudes[2] == 1.0
        assert np.count_nonzero(v.amplitudes) == 1

    def test_permutation_roundtrip(self):
        rng = np.random.default_rng(5)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        v = StateVector(amps, (1, 2, 3, 4))
        back = v.permuted((1, 3, 2, 4)).permuted((1, 2, 3, 4))
        assert np.allclose(back.amplitudes, v.amplitudes, atol=1e-12)

    def test_amplitudes_read_only(self):
        v = bell_state_vector(PHI_PLUS)
        with pytest.raises(ValueError):
            v.amplitudes[0] = 0.0


class TestSwapDistributionOracle:
    def test_phi_plus_psi_plus_support(self):
        dist = swap_distribution_oracle(PHI_PLUS, PSI_PLUS)
        expected = {
            (PHI_PLUS, PSI_PLUS),
            (PHI_MINUS, PSI_MINUS),
            (PSI_PLUS, PHI_PLUS),
            (PSI_MINUS, PHI_MINUS),
        }
        assert set(dist.support) == expected
        for p in dist.entries.values():
            assert abs(p - 0.25) < 1e-9

    def test_equal_initial_labels(self):
        dist = swap_distribution_oracle(PHI_PLUS, PHI_PLUS)
        assert set(dist.support) == {(x, x) for x in BELL_LABELS}

    def test_psi_minus_psi_minus_xor_zero(self):
        dist = swap_distribution_oracle(PSI_MINUS, PSI_MINUS)
        for x, y in dist.support:
            assert x.code ^ y.code == 0

    @pytest.mark.parametrize("initial", ALL_PAIRS)
    def test_support_size_and_weights(self, initial):
        dist = swap_distribution_oracle(*initial)
        assert len(dist.support) == 4
        assert abs(math.fsum(dist.entries.values()) - 1.0) < 1e-12
        for p in dist.entries.values():
            assert abs(p - 0.25) < 1e-9

    @pytest.mark.parametrize("initial", ALL_PAIRS)
    def test_parity_conservation(self, initial):
        a, b = initial
        for x, y in swap_distribution_oracle(a, b).support:
            assert x.code ^ y.code == a.code ^ b.code


class TestSwapDistributionRule:
    def test_phi_plus_psi_plus_target(self):
        dist = swap_distribution_rule(PHI_PLUS, PSI_PLUS)
        for x, y in dist.support:
            assert x.code ^ y.code == 0b10

    def test_equal_labels_contain_identity_outcome(self):
        for label in BELL_LABELS:
            dist = swap_distribution_rule(label, label)
            assert (PHI_PLUS, PHI_PLUS) in dist.entries

    @pytest.mark.parametrize("initial", ALL_PAIRS)
    def test_matches_oracle_entrywise(self, initial):
        oracle = swap_distribution_oracle(*initial)
        rule = swap_distribution_rule(*initial)
        outcomes = set(oracle.entries) | set(rule.entries)
        for outcome in outcomes:
            assert abs(oracle.probability(outcome) - rule.probability(outcome)) < 1e-9


class TestSwapDistributionType:
    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError):
            SwapDistribution({(PHI_PLUS, PHI_PLUS): -0.5, (PHI_MINUS, PHI_MINUS): 1.5})

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            SwapDistribution({(PHI_PLUS, PHI_PLUS): 0.5})

    def test_dump_is_label_sorted(self):
        dist = swap_distribution_rule(PHI_PLUS, PSI_PLUS)
        assert [(str(x), str(y)) for x, y in dist.support] == [
            ("phi+", "psi+"),
            ("phi-", "psi-"),
            ("psi+", "phi+"),
            ("psi-", "phi-"),
        ]


class TestSampleSwap:
    def test_point_mass(self):
        dist = SwapDistribution({(PSI_PLUS, PHI_PLUS): 1.0})
        assert sample_swap(dist, random.Random(3)) == (PSI_PLUS, PHI_PLUS)

    def test_frequencies_near_quarter(self):
        dist = swap_distribution_oracle(PHI_PLUS, PSI_PLUS)
        rng = random.Random(12345)
        counts = {}
        n = 40000
        for _ in range(n):
            outcome = sample_swap(dist, rng)
            counts[outcome] = counts.get(outcome, 0) + 1
        assert set(counts) == set(dist.support)
        for c in counts.values():
            assert abs(c / n - 0.25) < 0.01

    def test_same_seed_same_sequence(self):
        dist = swap_distribution_oracle(PHI_MINUS, PSI_MINUS)
        rng_a, rng_b = random.Random(7), random.Random(7)
        seq_a = [sample_swap(dist, rng_a) for _ in range(50)]
        seq_b = [sample_swap(dist, rng_b) for _ in range(50)]
        assert seq_a == seq_b
