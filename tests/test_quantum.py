import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def as_dict(dist: Distribution) -> dict:
    """{bitstring: probability} of a distribution: its support beside its probability column."""
    return dict(zip(dist.support, dist.probabilities.tolist()))


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

    def test_a_fresh_label_keys_the_interned_labels_entry(self):
        # The hash is the code; equal labels must still share one dict entry.
        table = {PSI_PLUS: "psi+"}
        assert table[BellLabel(1, 0)] == "psi+"
        table[BellLabel(1, 0)] = "fresh"
        assert table == {PSI_PLUS: "fresh"}
        assert {BellLabel(b, p) for b in (0, 1) for p in (0, 1)} == set(BELL_LABELS)
        assert [hash(label) for label in BELL_LABELS] == [0, 1, 2, 3]
        fresh = swap_distribution_oracle(BellLabel(1, 0), BellLabel(0, 0))
        assert fresh is swap_distribution_oracle(PSI_PLUS, PHI_PLUS)

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

    @pytest.mark.parametrize("token", [None, 3, [], {}, "PHI+"])
    def test_from_token_refuses_any_other_object_with_value_error(self, token):
        # An unhashable token, [] or {}, used to raise TypeError from the lookup.
        with pytest.raises(ValueError, match="unknown Bell label"):
            BellLabel.from_token(token)

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
        for p in as_dict(dist).values():
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
        assert abs(math.fsum(as_dict(dist).values()) - 1.0) < 1e-12
        for p in as_dict(dist).values():
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
            assert PHI_PLUS.bits + PHI_PLUS.bits in dist.support

    @pytest.mark.parametrize("initial", ALL_PAIRS)
    def test_matches_oracle_entrywise(self, initial):
        oracle = swap_distribution_oracle(*initial)
        rule = swap_distribution_rule(*initial)
        oracle, rule = as_dict(oracle), as_dict(rule)
        outcomes = set(oracle) | set(rule)
        for outcome in outcomes:
            assert abs(oracle.get(outcome, 0.0) - rule.get(outcome, 0.0)) < 1e-9


class TestSwapOracleCache:
    @pytest.mark.parametrize("initial", ALL_PAIRS)
    def test_cached_result_matches_fresh_projection_and_rule(self, initial):
        cached = swap_distribution_oracle(*initial)
        fresh = swap_distribution_oracle.__wrapped__(*initial)
        assert cached is not fresh
        assert cached.support == fresh.support
        for outcome in fresh.support:
            assert as_dict(cached).get(outcome, 0.0) == as_dict(fresh).get(outcome, 0.0)
        rule = swap_distribution_rule(*initial)
        assert cached.support == rule.support
        for outcome in rule.support:
            assert abs(as_dict(cached).get(outcome, 0.0)
                       - as_dict(rule).get(outcome, 0.0)) < FLOAT_TOL

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
        assert as_dict(swap_distribution_oracle.__wrapped__(*initial)) == (
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
        with pytest.raises(ValueError):
            dist.codes[0] = 0
        with pytest.raises(ValueError):
            dist.probabilities[0] = 1.0
        assert type(dist.support) is tuple


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


def linear_walk(dist: Distribution, u: float):
    """Reference draw: walk the blocks in stored order, `acc += p`, stop once u < acc."""
    acc = 0.0
    for block, p in as_dict(dist).items():
        acc += p
        if u < acc:
            break
    return outcome_pair(block)


def walk_totals(dist: Distribution) -> list:
    acc, totals = 0.0, []
    for p in as_dict(dist).values():
        acc += p
        totals.append(acc)
    return totals


def probes(totals) -> list:
    """Each running total, its neighbouring floats on both sides, and just below 1."""
    near = [math.nextafter(1.0, 0.0)]
    for total in totals:
        near += [math.nextafter(total, 0.0), total, math.nextafter(total, 2.0)]
    return [u for u in near if 0.0 <= u < 1.0]


@st.composite
def four_bit_distributions(draw):
    """Any distribution over 4-bit blocks: 1 to 16 blocks with positive integer weights."""
    codes = draw(st.lists(st.integers(0, 15), min_size=1, max_size=16, unique=True))
    weights = draw(st.lists(st.integers(1, 1000), min_size=len(codes), max_size=len(codes)))
    total = sum(weights)
    return Distribution({format(c, "04b"): w / total for c, w in zip(codes, weights)})


class TestSampleSwapAgainstLinearWalk:
    """The bisect draw against the walk it replaced, at every interval edge."""

    @pytest.mark.parametrize("initial", ALL_PAIRS)
    def test_oracle_totals_are_the_walks_floats(self, initial):
        oracle = swap_distribution_oracle(*initial)
        assert list(oracle.cumulative) == walk_totals(oracle)
        assert oracle.cumulative[-1] < 1.0  # so the cap on the last block is reachable

    @pytest.mark.parametrize("initial", ALL_PAIRS)
    def test_oracle_draws_at_every_total_and_its_neighbours(self, initial):
        oracle = swap_distribution_oracle(*initial)
        us = probes(walk_totals(oracle))
        assert len(us) == 1 + 3 * 4  # the last total is below 1, so all 12 probes stay
        for u in us:
            assert sample_swap(oracle, FixedDraws(u)) == linear_walk(oracle, u), u

    @settings(deadline=None)
    @given(four_bit_distributions(), st.floats(0.0, 1.0, exclude_max=True))
    @example(Distribution({"1011": 1.0}), 0.5)
    @example(Distribution({"0011": 0.5, "1100": 0.5}), 0.5)
    @example(Distribution({"0001": 1 / 3, "0100": 1 / 3, "1110": 1 / 3}), 2 / 3)
    def test_any_distribution_any_draw(self, dist, u):
        assert list(dist.cumulative) == walk_totals(dist)
        for v in (u, *probes(walk_totals(dist))):
            assert sample_swap(dist, FixedDraws(v)) == linear_walk(dist, v), v
