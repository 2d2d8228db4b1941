import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from otplab.bits import all_bitstrings, int_to_bits, xor_bits
from otplab.infotheory import (
    Distribution,
    EnumerationBudgetError,
    JointDistribution,
    ZeroProbabilityObservationError,
    conditional_entropy,
    entropy,
    enumerate_joint,
    mutual_information,
    posterior,
)
from otplab.tolerances import FLOAT_TOL


def xor_chain_view(message: str) -> str:
    """Broadcast string of the chaining scheme: XOR of each bit pair."""
    return "".join(
        xor_bits(message[i], message[i + 1]) for i in range(0, len(message), 2)
    )


def chain_joint(n_bits: int) -> JointDistribution:
    return enumerate_joint(Distribution.uniform_bits(n_bits), xor_chain_view)


class TestDistribution:
    def test_uniform_entropy_examples(self):
        assert entropy(Distribution.uniform_bits(2)) == pytest.approx(2.0, abs=1e-12)
        assert entropy(Distribution.uniform(["0", "1"])) == pytest.approx(1.0, abs=1e-12)
        assert entropy(Distribution.point("0110")) == 0.0

    @pytest.mark.parametrize("width", [1, 2, 3, 6])
    def test_entropy_bounds(self, width):
        skewed = {o: 2.0 ** -(i + 1) for i, o in enumerate(all_bitstrings(width))}
        last = format((1 << width) - 1, f"0{width}b")
        skewed[last] = skewed[last] * 2  # top up so the tail sums to 1
        d = Distribution(skewed)
        assert 0.0 <= entropy(d) <= math.log2(len(d.entries)) + 1e-12

    def test_zero_probability_outcomes_dropped(self):
        d = Distribution({"00": 1.0, "01": 0.0})
        assert d.support == ("00",)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Distribution({"0": 1.5, "1": -0.5})

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            Distribution({"0": 0.4, "1": 0.4})

    def test_rejects_mixed_widths(self):
        with pytest.raises(ValueError):
            Distribution({"0": 0.5, "11": 0.5})

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Distribution({})
        with pytest.raises(ValueError):
            Distribution.uniform([])

    def test_entries_are_read_only(self):
        d = Distribution.uniform_bits(1)
        with pytest.raises(TypeError):
            d.entries["0"] = 0.7


class TestPosterior:
    def test_chain_observation_zero(self):
        post = posterior(chain_joint(2), "0")
        assert post.entries == {"00": pytest.approx(0.5), "11": pytest.approx(0.5)}

    def test_observation_independent_of_secret(self):
        prior = Distribution({"00": 0.125, "01": 0.125, "10": 0.25, "11": 0.5})
        noise = Distribution.uniform_bits(1)
        joint = enumerate_joint(prior, lambda s: noise)
        post = posterior(joint, "1")
        for outcome, p in prior.entries.items():
            assert post.probability(outcome) == pytest.approx(p, abs=1e-12)

    def test_observation_equals_secret(self):
        joint = enumerate_joint(Distribution.uniform_bits(3), lambda s: s)
        assert posterior(joint, "101").entries == {"101": pytest.approx(1.0)}

    def test_zero_probability_observation_raises(self):
        joint = enumerate_joint(Distribution.uniform_bits(2), lambda s: "0")
        with pytest.raises(ZeroProbabilityObservationError):
            posterior(joint, "1")

    def test_wrong_width_raises(self):
        with pytest.raises(ValueError):
            posterior(chain_joint(2), "00")


class TestConditionalEntropy:
    def test_chain_two_bits(self):
        assert conditional_entropy(chain_joint(2)) == pytest.approx(1.0, abs=1e-12)

    def test_constant_observation_gives_prior_entropy(self):
        prior = Distribution({"00": 0.5, "01": 0.25, "10": 0.25})
        joint = enumerate_joint(prior, lambda s: "1")
        assert conditional_entropy(joint) == pytest.approx(entropy(prior), abs=1e-12)

    def test_observation_equals_secret_gives_zero(self):
        joint = enumerate_joint(Distribution.uniform_bits(4), lambda s: s)
        assert conditional_entropy(joint) == pytest.approx(0.0, abs=1e-12)


class TestMutualInformation:
    def test_chain_two_bits(self):
        assert mutual_information(chain_joint(2)) == pytest.approx(1.0, abs=1e-9)

    def test_independent_coordinates(self):
        noise = Distribution.uniform_bits(2)
        joint = enumerate_joint(Distribution.uniform_bits(3), lambda s: noise)
        assert mutual_information(joint) == pytest.approx(0.0, abs=1e-12)

    def test_chain_eight_bits(self):
        # Full enumeration over all 256 messages.
        assert mutual_information(chain_joint(8)) == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("n_bits", [2, 4, 6])
    def test_bounded_by_marginal_entropies(self, n_bits):
        joint = chain_joint(n_bits)
        mi = mutual_information(joint)
        assert mi >= -1e-12
        assert mi <= entropy(joint.secret_marginal()) + 1e-9
        assert mi <= entropy(joint.observation_marginal()) + 1e-9


class TestEnumerateJoint:
    def test_parity_view_expands_to_four_pairs(self):
        joint = enumerate_joint(Distribution.uniform_bits(2), xor_chain_view)
        assert len(joint) == 4
        for _, p in joint.items():
            assert p == pytest.approx(0.25, abs=1e-12)

    def test_view_ignoring_secret_is_product(self):
        prior = Distribution({"0": 0.25, "1": 0.75})
        noise = Distribution({"00": 0.5, "11": 0.5})
        joint = enumerate_joint(prior, lambda s: noise)
        expected = {
            (s, o): ps * po
            for s, ps in prior.entries.items()
            for o, po in noise.entries.items()
        }
        assert joint.entries == pytest.approx(expected)

    def test_constrained_key_view(self):
        # Four reachable 4-bit key blocks, observation fixed by public data:
        # residual uncertainty is 2 bits.
        prior = Distribution.uniform(["0010", "0111", "1000", "1101"])
        joint = enumerate_joint(prior, lambda key: "0010")
        assert conditional_entropy(joint) == pytest.approx(2.0, abs=1e-9)

    def test_marginals_reconstruct_prior(self):
        prior = Distribution({"00": 0.125, "01": 0.375, "10": 0.5})
        joint = enumerate_joint(prior, xor_chain_view)
        marginal = joint.secret_marginal()
        for outcome, p in prior.entries.items():
            assert marginal.probability(outcome) == pytest.approx(p, abs=1e-9)

    def test_posterior_mixture_reconstructs_marginal(self):
        joint = chain_joint(4)
        obs_marginal = joint.observation_marginal()
        mixture = {}
        for obs, p_obs in obs_marginal.entries.items():
            for secret, p in posterior(joint, obs).entries.items():
                mixture[secret] = mixture.get(secret, 0.0) + p_obs * p
        secret_marginal = joint.secret_marginal()
        for secret, p in secret_marginal.entries.items():
            assert mixture[secret] == pytest.approx(p, abs=1e-9)

    def test_repeated_calls_bit_identical(self):
        a = chain_joint(6)
        b = chain_joint(6)
        assert np.array_equal(a.secret_codes, b.secret_codes)
        assert np.array_equal(a.observation_codes, b.observation_codes)
        assert np.array_equal(a.probabilities, b.probabilities)

    def test_budget_exceeded_raises(self):
        shared = Distribution.uniform_bits(12)
        prior = Distribution.uniform_bits(13)
        with pytest.raises(EnumerationBudgetError):
            enumerate_joint(prior, lambda s: shared)  # 2**13 * 2**12 > 2**24

    def test_mixed_observation_widths_raise(self):
        prior = Distribution.uniform_bits(1)
        with pytest.raises(ValueError):
            enumerate_joint(prior, lambda s: "0" if s == "0" else "00")


class TestJointDistributionType:
    def test_from_entries_roundtrip(self):
        entries = {("0", "1"): 0.25, ("1", "0"): 0.75}
        joint = JointDistribution.from_entries(entries)
        assert joint.entries == pytest.approx(entries)
        assert joint.secret_bits == 1 and joint.observation_bits == 1

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            JointDistribution.from_entries({("0", "0"): 0.25})

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            JointDistribution.from_entries({("0", "0"): 1.25, ("1", "1"): -0.25})


# Exact-rational oracle: small joints rebuilt with fractions.Fraction.  The
# library's figures must agree with entropies taken of exact probabilities,
# through formulas other than the ones the library uses.

@st.composite
def dyadic_weights(draw, n):
    """n positive Fractions with a power-of-two denominator, summing to 1."""
    weights = draw(st.lists(st.integers(1, 7), min_size=n, max_size=n))
    scale = 1 << (sum(weights) - 1).bit_length()
    weights[draw(st.integers(0, n - 1))] += scale - sum(weights)
    return [Fraction(w, scale) for w in weights]


@st.composite
def exact_distributions(draw, max_bits):
    """(width, {code: Fraction}) with a drawn support, generally non-uniform."""
    width = draw(st.integers(1, max_bits))
    codes = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1,
                          max_size=1 << width, unique=True))
    weights = draw(dyadic_weights(len(codes)))
    assume(len(codes) == 1 or len(set(weights)) > 1)
    return width, dict(zip(codes, weights))


def as_distribution(width, exact):
    return Distribution({int_to_bits(c, width): float(p) for c, p in exact.items()})


@st.composite
def exact_joints(draw):
    """(prior, view_fn, sb, ob, {(s, o): Fraction}) with 4-bit secrets, 3-bit views.

    Each secret's view is either one observation bitstring or a
    `Distribution` over observations.
    """
    sb, prior = draw(exact_distributions(4))
    ob = draw(st.integers(1, 3))
    views, exact = {}, {}
    for s, p_s in prior.items():
        if draw(st.booleans()):
            o = draw(st.integers(0, (1 << ob) - 1))
            views[int_to_bits(s, sb)] = int_to_bits(o, ob)
            exact[(s, o)] = p_s
        else:
            codes = draw(st.lists(st.integers(0, (1 << ob) - 1), min_size=1,
                                  max_size=1 << ob, unique=True))
            weights = draw(dyadic_weights(len(codes)))
            views[int_to_bits(s, sb)] = as_distribution(ob, dict(zip(codes, weights)))
            exact.update({(s, o): p_s * q for o, q in zip(codes, weights)})
    return as_distribution(sb, prior), views.__getitem__, sb, ob, exact


def exact_entropy(probabilities) -> float:
    """Entropy of exact rationals; only the logarithms are taken in floats."""
    return -math.fsum(
        float(p) * (math.log2(p.numerator) - math.log2(p.denominator)) for p in probabilities
    )


def exact_marginal(exact, axis):
    totals = {}
    for pair, p in exact.items():
        totals[pair[axis]] = totals.get(pair[axis], Fraction(0)) + p
    return totals


def assert_matches(dist, width, exact):
    assert set(dist.entries) == {int_to_bits(c, width) for c in exact}
    for code, p in exact.items():
        assert dist.probability(int_to_bits(code, width)) == pytest.approx(float(p), abs=FLOAT_TOL)


class TestExactRationalOracle:
    @settings(deadline=None)
    @given(exact_joints())
    def test_figures_match_exact_rationals(self, case):
        prior, view_fn, sb, ob, exact = case
        joint = enumerate_joint(prior, view_fn)
        secrets, observations = exact_marginal(exact, 0), exact_marginal(exact, 1)
        assert_matches(joint.secret_marginal(), sb, secrets)
        assert_matches(joint.observation_marginal(), ob, observations)

        h_secret = exact_entropy(secrets.values())
        h_observation = exact_entropy(observations.values())
        # H(S|O) as the p(o)-weighted entropy of exact posteriors.
        h_conditional = 0.0
        for o, p_o in observations.items():
            exact_post = {s: p / p_o for (s, oo), p in exact.items() if oo == o}
            post = posterior(joint, int_to_bits(o, ob))
            assert_matches(post, sb, exact_post)
            assert math.fsum(post.entries.values()) == pytest.approx(1.0, abs=FLOAT_TOL)
            h_conditional += float(p_o) * exact_entropy(exact_post.values())
        # I(S;O) = H(S) + H(O) - H(S,O), not the library's H(S) - H(S|O).
        mi = h_secret + h_observation - exact_entropy(exact.values())

        assert entropy(prior) == pytest.approx(h_secret, abs=FLOAT_TOL)
        assert entropy(joint.secret_marginal()) == pytest.approx(h_secret, abs=FLOAT_TOL)
        assert conditional_entropy(joint) == pytest.approx(h_conditional, abs=FLOAT_TOL)
        got = mutual_information(joint)
        assert got == pytest.approx(mi, abs=FLOAT_TOL)
        assert -FLOAT_TOL <= got <= min(h_secret, h_observation) + FLOAT_TOL


@st.composite
def bit_mappings(draw):
    """{bitstring: p} in drawn order, dyadic, with some zero-probability outcomes."""
    width, exact = draw(exact_distributions(4))
    zeros = draw(st.sets(st.integers(0, (1 << width) - 1))) - set(exact)
    items = [(c, float(p)) for c, p in exact.items()] + [(c, 0.0) for c in zeros]
    order = draw(st.permutations(range(len(items))))
    return {int_to_bits(items[i][0], width): items[i][1] for i in order}


class TestBoundaryRoundTrip:
    @settings(deadline=None)
    @given(bit_mappings())
    def test_entries_are_the_mapping_without_zeros(self, mapping):
        dist = Distribution(mapping)
        nonzero = {k: p for k, p in mapping.items() if p != 0.0}
        assert dist.entries == nonzero
        assert dist.support == tuple(sorted(nonzero))
        assert list(dist.entries) == sorted(nonzero)

    @settings(deadline=None)
    @given(bit_mappings(), st.randoms(use_true_random=False))
    def test_code_order_does_not_matter(self, mapping, rnd):
        dist = Distribution(mapping)
        order = list(range(len(dist.codes)))
        rnd.shuffle(order)
        shuffled = Distribution._from_codes(
            dist.codes[order], dist.probabilities[order], dist.bit_length
        )
        assert np.array_equal(shuffled.codes, dist.codes)
        assert np.array_equal(shuffled.probabilities, dist.probabilities)
        assert shuffled.entries == dist.entries

    @settings(deadline=None)
    @given(bit_mappings(), st.data())
    def test_duplicate_codes_rejected(self, mapping, data):
        dist = Distribution(mapping)
        i = data.draw(st.integers(0, len(dist.codes) - 1))
        probs = list(dist.probabilities)
        probs[i] /= 2  # split one outcome in two; the total stays 1
        with pytest.raises(ValueError):
            Distribution._from_codes(
                [*dist.codes, dist.codes[i]], [*probs, probs[i]], dist.bit_length
            )

    @settings(deadline=None)
    @given(exact_joints())
    def test_joint_entries_round_trip(self, case):
        prior, view_fn, *_ = case
        joint = enumerate_joint(prior, view_fn)
        assert JointDistribution.from_entries(joint.entries).entries == joint.entries
