import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otplab.bits import int_to_bits, random_bits, xor_bits
from otplab.infotheory import (
    Distribution,
    EnumerationBudgetError,
    TiledJoint,
    conditional_entropy,
    entropy,
    enumerate_joint,
    mutual_information,
    posterior,
)
from otplab.otp import (
    KeyExhaustedError,
    KeyMaterial,
    KeyMismatchError,
    ReuseViolationError,
    ciphertext_joint,
    decrypt,
    encrypt,
    random_key,
    shannon_audit,
)
from otplab.quantum import BELL_LABELS, PHI_PLUS, PSI_PLUS, swap_distribution_rule
from otplab.tolerances import FLOAT_TOL

ALL_PAIRS = list(itertools.product(BELL_LABELS, BELL_LABELS))


@st.composite
def priors(draw, max_width):
    """A prior of 1 to `max_width` bits with any nonempty support and positive weights."""
    width = draw(st.integers(1, max_width))
    support = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, unique=True))
    weights = draw(st.lists(st.floats(1e-6, 1.0), min_size=len(support), max_size=len(support)))
    total = sum(weights)
    return Distribution({int_to_bits(c, width): w / total for c, w in zip(support, weights)})


@st.composite
def dyadic_priors(draw, max_width):
    """A prior of 1 to `max_width` bits whose every probability is a power of 1/2.

    The probabilities are the leaves of a binary tree grown by splitting
    leaves at most 8 deep, so every entropy term is a multiple of 2**-14
    and every sum of them is exact in float64, in any order.
    """
    width = draw(st.integers(1, max_width))
    support = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, unique=True))
    depths = [0]
    while len(depths) < len(support):
        splittable = [i for i, d in enumerate(depths) if d < 8]
        depth = depths.pop(draw(st.sampled_from(splittable)))
        depths += [depth + 1, depth + 1]
    return Distribution({int_to_bits(c, width): 2.0 ** -d for c, d in zip(support, depths)})


def uniform_pad_joint(prior):
    """`enumerate_joint` of the prior with a uniform pad as the view."""
    keys = Distribution.uniform_bits(prior.bit_length).support

    def pad_view(plaintext):
        return Distribution.uniform(xor_bits(plaintext, key) for key in keys)

    return enumerate_joint(prior, pad_view)


def assert_same_figures(tiled, reference, atol):
    """Equal widths and sizes, both marginals, the entropies and every posterior.

    Codes must be equal; probabilities and bits may differ by `atol` (0 for exact).
    """
    def same(a, b):
        return np.allclose(a, b, rtol=0, atol=atol)

    assert (tiled.secret_bits, tiled.observation_bits) == (
        reference.secret_bits, reference.observation_bits)
    assert len(tiled) == len(reference)
    for ours, theirs in ((tiled.secret_marginal(), reference.secret_marginal()),
                         (tiled.observation_marginal(), reference.observation_marginal())):
        assert ours.bit_length == theirs.bit_length
        assert np.array_equal(ours.codes, theirs.codes)
        assert same(ours.probabilities, theirs.probabilities)
    assert same(conditional_entropy(tiled), conditional_entropy(reference))
    assert same(mutual_information(tiled), mutual_information(reference))
    for c in range(1 << tiled.observation_bits):
        ciphertext = int_to_bits(c, tiled.observation_bits)
        ours, theirs = posterior(tiled, ciphertext), posterior(reference, ciphertext)
        assert np.array_equal(ours.codes, theirs.codes)
        assert same(ours.probabilities, theirs.probabilities)


def assert_matches_generic_enumeration(prior):
    """`ciphertext_joint` has the figures of `enumerate_joint` with a uniform pad as the view."""
    assert_same_figures(ciphertext_joint(prior), uniform_pad_joint(prior), atol=1e-12)


def fresh_key(bits: str) -> KeyMaterial:
    return KeyMaterial(bits, truly_random=True)


class TestEncryptDecrypt:
    def test_xor_example(self):
        block = encrypt("10", fresh_key("11"))
        assert block.ciphertext == "01"

    def test_zero_key_identity(self):
        assert encrypt("0000", fresh_key("0000")).ciphertext == "0000"

    def test_decrypt_example(self):
        key = fresh_key("11")
        block = encrypt("10", key)
        assert decrypt(block, key) == "10"

    def test_ciphertext_equal_to_key_gives_zeros(self):
        key = fresh_key("1011")
        block = encrypt("1011", key)
        assert block.ciphertext == "0000"
        assert decrypt(block, key) == "1011"

    def test_roundtrip_random_16_bits(self):
        rng = random.Random(2024)
        for _ in range(25):
            plaintext = random_bits(16, rng)
            key = random_key(16, rng)
            assert decrypt(encrypt(plaintext, key), key) == plaintext

    @settings(deadline=None)
    @given(st.text("01", min_size=1, max_size=64), st.integers(0, 16),
           st.integers(0, 2**32 - 1))
    def test_roundtrip_property(self, plaintext, extra_pad_bits, seed):
        key = random_key(len(plaintext) + extra_pad_bits, random.Random(seed))
        assert decrypt(encrypt(plaintext, key), key) == plaintext

    def test_sequential_use_of_long_pad(self):
        key = fresh_key("110100")
        first = encrypt("10", key)
        second = encrypt("01", key)
        assert first.key_offset == 0 and second.key_offset == 2
        assert decrypt(first, key) == "10" and decrypt(second, key) == "01"

    def test_reuse_violation_on_second_encryption(self):
        key = fresh_key("11")
        encrypt("10", key)
        with pytest.raises(ReuseViolationError):
            encrypt("01", key)

    def test_exhausted_on_short_fresh_key(self):
        with pytest.raises(KeyExhaustedError):
            encrypt("1010", fresh_key("10"))

    def test_key_mismatch(self):
        key_a, key_b = fresh_key("11"), fresh_key("11")
        block = encrypt("10", key_a)
        with pytest.raises(KeyMismatchError):
            decrypt(block, key_b)


class TestPadIdentity:
    """A pad is identified by the object itself, not by a process-wide name."""

    @staticmethod
    def observed():
        block = encrypt("10", KeyMaterial("11", truly_random=True))
        with pytest.raises(KeyExhaustedError) as exhausted:
            encrypt("1010", fresh_key("10"))
        spent = fresh_key("11")
        encrypt("1", spent)
        with pytest.raises(ReuseViolationError) as reused:
            encrypt("01", spent)
        return repr(block), str(exhausted.value), str(reused.value)

    def test_repr_and_messages_do_not_depend_on_earlier_pads(self):
        before = self.observed()
        for width in range(1, 50):
            fresh_key("1" * width)
        assert self.observed() == before
        assert before == (
            "CipherBlock(ciphertext='01', key_offset=0)",
            "pad holds 2 bits, 4 needed",
            "pad already spent 1 bits; 2 more would reuse key material",
        )


class TestLedger:
    def test_flags_advance_monotonically(self):
        key = fresh_key("1101")
        assert (key.unused_count, key.is_fresh) == (4, True)
        encrypt("10", key)
        assert (key.unused_count, key.is_fresh) == (2, False)
        encrypt("01", key)
        assert (key.unused_count, key.is_fresh) == (0, False)

    def test_decrypt_does_not_touch_ledger(self):
        key = fresh_key("1101")
        block = encrypt("10", key)
        before = (key.unused_count, key.is_fresh)
        decrypt(block, key)
        assert (key.unused_count, key.is_fresh) == before

    def test_origin_is_immutable(self):
        key = fresh_key("01")
        with pytest.raises(AttributeError):
            key.truly_random = False

    @pytest.mark.parametrize("flag", ["yes", 1, 0, None, "truly-random"])
    def test_truly_random_must_be_a_bool(self, flag):
        with pytest.raises(ValueError, match="truly_random must be a bool"):
            KeyMaterial("01", truly_random=flag)

    def test_truly_random_is_keyword_only(self):
        with pytest.raises(TypeError):
            KeyMaterial("01", True)


class TestShannonAudit:
    @pytest.mark.parametrize("initial", ALL_PAIRS)
    def test_correlated_key_distribution_fails_randomness(self, initial):
        # A pad keyed by one swap's 4-bit block: the rule is dyadic, so its
        # 2 bits of entropy, and the 2 missing, are exact.
        dist = swap_distribution_rule(*initial)
        key = KeyMaterial(dist.support[0], truly_random=False)
        report = shannon_audit(key, 4, key_distribution=dist)
        assert not report.randomness_ok
        assert report.key_entropy_bits == 2.0
        assert report.deficiency_bits == 2.0

    def test_uniform_key_distribution_passes_randomness(self):
        key = fresh_key("0110")
        report = shannon_audit(key, 4, key_distribution=Distribution.uniform_bits(4))
        assert report.randomness_ok
        assert report.deficiency_bits == pytest.approx(0.0, abs=1e-12)

    def test_short_key_fails_length(self):
        report = shannon_audit(fresh_key("01"), 4)
        assert not report.length_ok
        assert report.failures == ("length",)

    def test_origin_mode_uses_provenance(self):
        assert shannon_audit(fresh_key("01"), 2).randomness_ok
        derived = KeyMaterial("01", truly_random=False)
        report = shannon_audit(derived, 2)
        assert not report.randomness_ok
        assert report.key_entropy_bits is None

    def test_spent_pad_fails_reuse(self):
        key = fresh_key("0101")
        encrypt("01", key)
        report = shannon_audit(key, 2)
        assert not report.reuse_ok
        assert "reuse" in report.failures

    def test_all_ok_on_fresh_adequate_uniform_pad(self):
        report = shannon_audit(fresh_key("010110"), 4)
        assert report.all_ok and report.failures == ()

    def test_distribution_width_must_match_key(self):
        with pytest.raises(ValueError):
            shannon_audit(fresh_key("01"), 2, key_distribution=Distribution.uniform_bits(4))


class TestPerfectSecrecy:
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 6, 8])
    def test_uniform_pad_leaks_nothing(self, length):
        joint = ciphertext_joint(Distribution.uniform_bits(length))
        assert mutual_information(joint) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("prior", [
        *(Distribution.uniform_bits(length) for length in (1, 2, 3, 5)),
        Distribution({"00": 0.4, "01": 0.3, "10": 0.2, "11": 0.1}),
        Distribution({"00": 0.75, "11": 0.25}),
    ], ids=["1", "2", "3", "5", "biased-2", "strict-subset-2"])
    def test_ciphertext_joint_matches_generic_enumeration(self, prior):
        assert_matches_generic_enumeration(prior)

    @settings(deadline=None)
    @given(priors(max_width=6))
    def test_ciphertext_joint_matches_generic_enumeration_on_any_prior(self, prior):
        assert_matches_generic_enumeration(prior)

    def test_biased_prior_still_secret(self):
        prior = Distribution({"00": 0.7, "01": 0.1, "10": 0.1, "11": 0.1})
        assert mutual_information(ciphertext_joint(prior)) == pytest.approx(0.0, abs=1e-9)

    def test_correlated_key_leaks(self):
        # Keying a 4-bit pad from the constrained swap-outcome set leaves
        # only 2 bits of key entropy; the ciphertext then reveals the rest.
        prior = Distribution.uniform_bits(4)
        key_dist = swap_distribution_rule(PHI_PLUS, PSI_PLUS)

        def view(plaintext):
            return Distribution(
                {xor_bits(plaintext, key): p
                 for key, p in zip(key_dist.support, key_dist.probabilities.tolist())}
            )

        mi = mutual_information(enumerate_joint(prior, view))
        assert mi == pytest.approx(2.0, abs=1e-9)
        assert entropy(key_dist) < 4.0

    def test_budget_guard(self):
        with pytest.raises(EnumerationBudgetError):
            ciphertext_joint(Distribution.uniform_bits(13))


class TestTiledJoint:
    """The one-slice uniform-pad joint against joints that store every entry."""

    def check(self, prior, exact):
        tiled = ciphertext_joint(prior)
        assert isinstance(tiled, TiledJoint)
        assert_same_figures(tiled, uniform_pad_joint(prior), atol=0.0 if exact else FLOAT_TOL)

    @settings(deadline=None)
    @given(dyadic_priors(max_width=6))
    def test_dyadic_priors_match_exactly(self, prior):
        self.check(prior, exact=True)

    @settings(deadline=None)
    @given(priors(max_width=6))
    def test_any_prior_matches_within_tolerance(self, prior):
        self.check(prior, exact=False)

