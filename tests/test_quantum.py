import itertools
import math
import random

import numpy as np
import pytest

from otplab import quantum
from otplab.infotheory import Distribution
from otplab.quantum import (
    BELL_LABELS,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    BellLabel,
    bell_state_vector,
    sample_swap,
    swap_distribution_oracle,
    swap_distribution_rule,
)
from otplab.tolerances import FLOAT_TOL, PROB_CLAMP

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

    @pytest.mark.parametrize("code", range(4))
    def test_from_code_returns_the_interned_label(self, code):
        assert BellLabel.from_code(code) is BELL_LABELS[code]

    @pytest.mark.parametrize(
        "bad", [(2, 0), (0, -1), (1, 2), (True, False), (0, True), (1.0, 0), (0, 1.0)]
    )
    def test_rejects_non_bits(self, bad):
        with pytest.raises(ValueError):
            BellLabel(*bad)

    def test_code_and_bits_are_fixed_when_the_label_is_made(self):
        label = BellLabel(1, 0)
        assert (label.code, label.bits) == (PSI_PLUS.code, PSI_PLUS.bits) == (2, "10")
        assert label == PSI_PLUS and hash(label) == hash(PSI_PLUS)
        assert repr(label) == "BellLabel(bitflip=1, phase=0)"
        with pytest.raises(AttributeError):
            label.code = 3

    def test_rejects_bad_code_and_token(self):
        with pytest.raises(ValueError):
            BellLabel.from_code(4)
        with pytest.raises(ValueError):
            BellLabel.from_token("phi*")

    @pytest.mark.parametrize("code", [True, False, 1.0, -1, 4, "1"])
    def test_from_code_accepts_only_an_int_0_to_3(self, code):
        with pytest.raises(ValueError):
            BellLabel.from_code(code)


class TestBellStateVectors:
    def test_phi_plus_amplitudes(self):
        assert np.allclose(bell_state_vector(PHI_PLUS), [SQ, 0, 0, SQ], atol=1e-12)

    def test_psi_plus_amplitudes(self):
        assert np.allclose(bell_state_vector(PSI_PLUS), [0, SQ, SQ, 0], atol=1e-12)

    def test_phi_minus_amplitudes(self):
        assert np.allclose(bell_state_vector(PHI_MINUS), [SQ, 0, 0, -SQ], atol=1e-12)

    def test_mutually_orthonormal(self):
        for a, b in ALL_PAIRS:
            ip = complex(np.vdot(bell_state_vector(a), bell_state_vector(b)))
            expected = 1.0 if a == b else 0.0
            assert abs(ip - expected) < 1e-12

    @pytest.mark.parametrize("label", BELL_LABELS)
    def test_amplitudes_read_only(self, label):
        amps = bell_state_vector(label)
        assert amps.shape == (4,) and amps.dtype == complex
        with pytest.raises(ValueError):
            amps[0] = 0.0


def bell_amplitude(label, first, second):
    """<first second|label>: nonzero where the two bits differ by `bitflip`,
    negative on the first-bit-1 term of a minus-phase state."""
    if first ^ second != label.bitflip:
        return 0.0
    return -SQ if label.phase and first else SQ


def regrouped_index(b1, b2, b3, b4):
    """Basis index of |b1 b2 b3 b4> with its bits read in the order (1,3,2,4)."""
    return 8 * b1 + 4 * b3 + 2 * b2 + b4


def reference_projection(initial_12, initial_34):
    """Swap key-block probabilities with every amplitude built by index arithmetic."""
    regrouped = np.zeros(16, dtype=complex)
    basis = {(x, y): np.zeros(16, dtype=complex) for x, y in ALL_PAIRS}
    for b1, b2, b3, b4 in itertools.product((0, 1), repeat=4):
        index = regrouped_index(b1, b2, b3, b4)
        regrouped[index] = bell_amplitude(initial_12, b1, b2) * bell_amplitude(initial_34, b3, b4)
        for (x, y), state in basis.items():
            state[index] = bell_amplitude(x, b1, b3) * bell_amplitude(y, b2, b4)
    entries = {}
    for (x, y), state in basis.items():
        p = abs(complex(np.vdot(state, regrouped))) ** 2
        if p > PROB_CLAMP:
            entries[x.bits + y.bits] = p
    return entries


def outcome_pair(block):
    """The label pair (x on particles 1,3 ; y on 2,4) behind a 4-bit key block."""
    return BellLabel.from_code(int(block[:2], 2)), BellLabel.from_code(int(block[2:], 2))


class FixedDraws:
    """A stand-in for `random.Random` whose `random()` returns the given values in turn."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestSwapOracle:
    def test_phi_plus_psi_plus_support(self):
        dist = swap_distribution_oracle(PHI_PLUS, PSI_PLUS)
        assert isinstance(dist, Distribution)
        assert dist.bit_length == 4
        assert dist.support == ("0010", "0111", "1000", "1101")
        assert [outcome_pair(block) for block in dist.support] == [
            (PHI_PLUS, PSI_PLUS),
            (PHI_MINUS, PSI_MINUS),
            (PSI_PLUS, PHI_PLUS),
            (PSI_MINUS, PHI_MINUS),
        ]
        for p in dist.entries.values():
            assert abs(p - 0.25) < 1e-9

    def test_equal_initial_labels(self):
        dist = swap_distribution_oracle(PHI_PLUS, PHI_PLUS)
        assert set(dist.support) == {x.bits + x.bits for x in BELL_LABELS}

    def test_psi_minus_psi_minus_xor_zero(self):
        dist = swap_distribution_oracle(PSI_MINUS, PSI_MINUS)
        for block in dist.support:
            x, y = outcome_pair(block)
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
        for block in swap_distribution_oracle(a, b).support:
            x, y = outcome_pair(block)
            assert x.code ^ y.code == a.code ^ b.code


class TestSwapRule:
    def test_phi_plus_psi_plus_target(self):
        dist = swap_distribution_rule(PHI_PLUS, PSI_PLUS)
        for block in dist.support:
            x, y = outcome_pair(block)
            assert x.code ^ y.code == 0b10

    def test_equal_labels_contain_identity_outcome(self):
        for label in BELL_LABELS:
            dist = swap_distribution_rule(label, label)
            assert PHI_PLUS.bits + PHI_PLUS.bits in dist.entries

    @pytest.mark.parametrize("initial", ALL_PAIRS)
    def test_matches_oracle_entrywise(self, initial):
        oracle = swap_distribution_oracle(*initial)
        rule = swap_distribution_rule(*initial)
        outcomes = set(oracle.entries) | set(rule.entries)
        for outcome in outcomes:
            assert abs(oracle.probability(outcome) - rule.probability(outcome)) < 1e-9


class TestSwapOracleCache:
    @pytest.mark.parametrize("initial", ALL_PAIRS)
    def test_cached_result_matches_fresh_projection_and_rule(self, initial):
        cached = swap_distribution_oracle(*initial)
        fresh = swap_distribution_oracle.__wrapped__(*initial)
        assert cached is not fresh
        assert cached.support == fresh.support
        for outcome in fresh.support:
            assert cached.probability(outcome) == fresh.probability(outcome)
        rule = swap_distribution_rule(*initial)
        assert cached.support == rule.support
        for outcome in rule.support:
            assert abs(cached.probability(outcome) - rule.probability(outcome)) < FLOAT_TOL

    def test_reference_regroups_0100_to_index_2(self):
        # |b1 b2 b3 b4> = |0100> (index 4) lands at (b1,b3,b2,b4) = (0,0,1,0).
        assert regrouped_index(0, 1, 0, 0) == 2
        assert regrouped_index(1, 0, 1, 1) == 0b1101
        assert sorted(
            regrouped_index(*bits) for bits in itertools.product((0, 1), repeat=4)
        ) == list(range(16))

    @pytest.mark.parametrize("initial", ALL_PAIRS)
    def test_projection_equals_one_onto_freshly_built_basis_states(self, initial):
        # Independent of the cached basis and of kron/transpose: every
        # amplitude is built afresh from its basis index for every configuration.
        assert dict(swap_distribution_oracle.__wrapped__(*initial).entries) == (
            reference_projection(*initial)
        )

    def test_cached_basis_is_read_only(self):
        basis = quantum._bell_basis()
        assert [block for block, _ in basis] == [format(code, "04b") for code in range(16)]
        for _, state in basis:
            with pytest.raises(ValueError):
                state[0] = 1.0

    @pytest.mark.parametrize("initial", ALL_PAIRS)
    def test_second_call_returns_the_same_object(self, initial):
        assert swap_distribution_oracle(*initial) is swap_distribution_oracle(*initial)

    @pytest.mark.parametrize("initial", ALL_PAIRS)
    def test_shared_entries_are_read_only(self, initial):
        dist = swap_distribution_oracle(*initial)
        with pytest.raises(TypeError):
            dist.entries["0000"] = 1.0
        with pytest.raises(ValueError):
            dist.probabilities[0] = 1.0


class TestSwapKeyBlocks:
    def test_support_ascends_by_block(self):
        dist = swap_distribution_rule(PHI_PLUS, PSI_PLUS)
        assert dist.support == ("0010", "0111", "1000", "1101")

    @pytest.mark.parametrize("initial", ALL_PAIRS)
    def test_block_order_is_label_pair_order(self, initial):
        # Ascending block code is the (bitflip, phase) order of x, then of y.
        for dist in (swap_distribution_oracle(*initial), swap_distribution_rule(*initial)):
            pairs = [outcome_pair(block) for block in dist.support]
            assert list(dist.support) == sorted(dist.support)
            assert pairs == sorted(pairs)


class TestSampleSwap:
    def test_point_mass(self):
        dist = Distribution({"1000": 1.0})
        assert sample_swap(dist, random.Random(3)) == (PSI_PLUS, PHI_PLUS)

    @pytest.mark.parametrize("initial", ALL_PAIRS)
    def test_kth_quarter_draws_kth_block(self, initial):
        rule = swap_distribution_rule(*initial)
        oracle = swap_distribution_oracle(*initial)
        for k, block in enumerate(rule.support):
            expected = outcome_pair(block)
            for u in (k / 4, (k + 0.5) / 4, math.nextafter((k + 1) / 4, 0.0)):
                assert sample_swap(rule, FixedDraws(u)) == expected
            # The oracle's quarters fall short of 0.25 by rounding, so probe
            # well inside each one, and past its total on the last block.
            assert sample_swap(oracle, FixedDraws((k + 0.5) / 4)) == expected
        assert sample_swap(oracle, FixedDraws(math.nextafter(1.0, 0.0))) == expected

    @pytest.mark.parametrize("bits", [1, 2, 5])
    def test_rejects_outcomes_not_over_four_bits(self, bits):
        with pytest.raises(ValueError, match="4-bit"):
            sample_swap(Distribution.uniform_bits(bits), FixedDraws(0.5))

    def test_frequencies_near_quarter(self):
        dist = swap_distribution_oracle(PHI_PLUS, PSI_PLUS)
        rng = random.Random(12345)
        counts = {}
        n = 40000
        for _ in range(n):
            x, y = sample_swap(dist, rng)
            counts[x.bits + y.bits] = counts.get(x.bits + y.bits, 0) + 1
        assert set(counts) == set(dist.support)
        for c in counts.values():
            assert abs(c / n - 0.25) < 0.01

    def test_same_seed_same_sequence(self):
        dist = swap_distribution_oracle(PHI_MINUS, PSI_MINUS)
        rng_a, rng_b = random.Random(7), random.Random(7)
        seq_a = [sample_swap(dist, rng_a) for _ in range(50)]
        seq_b = [sample_swap(dist, rng_b) for _ in range(50)]
        assert seq_a == seq_b
