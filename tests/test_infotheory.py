import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from otplab import cli, cryptanalysis, infotheory
from otplab.bits import bits_to_int, codes_to_bits, int_to_bits, xor_bits
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
from otplab.otp import ciphertext_joint
from otplab.tolerances import FLOAT_TOL


def xor_chain_view(message: str) -> str:
    """Broadcast string of the chaining scheme: XOR of each bit pair.

    A plain callable with no integer form, so `enumerate_joint` calls it
    once per secret: the reference for the library's integer view.
    """
    return "".join(
        xor_bits(message[i], message[i + 1]) for i in range(0, len(message), 2)
    )


def chain_joint(n_bits: int) -> JointDistribution:
    return enumerate_joint(Distribution.uniform_bits(n_bits), xor_chain_view)


def joint_of(entries: dict) -> JointDistribution:
    """The joint of a {(secret, observation): probability} mapping, widths from its first key."""
    (secret, observation), *_ = entries
    return JointDistribution([bits_to_int(s) for s, _ in entries],
                             [bits_to_int(o) for _, o in entries],
                             list(entries.values()), len(secret), len(observation))


def entries_of(joint: JointDistribution) -> dict:
    """{(secret, observation): probability} of a joint's columns, in their stored order."""
    sb, ob = joint.secret_bits, joint.observation_bits
    columns = (joint.secret_codes.tolist(), joint.observation_codes.tolist(),
               joint.probabilities.tolist())
    return {(int_to_bits(s, sb), int_to_bits(o, ob)): p for s, o, p in zip(*columns)}


def as_dict(dist: Distribution) -> dict:
    """{bitstring: probability} of a distribution: its support beside its probability column."""
    return dict(zip(dist.support, dist.probabilities.tolist()))


class TestDistribution:
    def test_uniform_entropy_examples(self):
        assert entropy(Distribution.uniform_bits(2)) == pytest.approx(2.0, abs=1e-12)
        assert entropy(Distribution.uniform(["0", "1"])) == pytest.approx(1.0, abs=1e-12)
        assert entropy(Distribution({"0110": 1.0})) == 0.0

    @pytest.mark.parametrize("width", [1, 2, 3, 6])
    def test_entropy_bounds(self, width):
        outcomes = codes_to_bits(range(1 << width), width)
        skewed = {o: 2.0 ** -(i + 1) for i, o in enumerate(outcomes)}
        last = format((1 << width) - 1, f"0{width}b")
        skewed[last] = skewed[last] * 2  # top up so the tail sums to 1
        d = Distribution(skewed)
        assert 0.0 <= entropy(d) <= math.log2(len(as_dict(d))) + 1e-12

    def test_uniform_bits_keeps_the_budget(self, monkeypatch):
        with pytest.raises(EnumerationBudgetError):
            Distribution.uniform_bits(25)  # checked before 2**25 outcomes are allocated
        monkeypatch.setattr(infotheory, "ENUMERATION_BUDGET", 16)
        assert len(Distribution.uniform_bits(4).codes) == 16
        with pytest.raises(EnumerationBudgetError):
            Distribution.uniform_bits(5)

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
        with pytest.raises(ValueError):
            d.probabilities[0] = 0.7
        with pytest.raises(ValueError):
            d.codes[0] = 1
        assert type(d.support) is tuple


class TestPosterior:
    def test_chain_observation_zero(self):
        post = posterior(chain_joint(2), "0")
        assert as_dict(post) == {"00": pytest.approx(0.5), "11": pytest.approx(0.5)}

    def test_observation_independent_of_secret(self):
        prior = Distribution({"00": 0.125, "01": 0.125, "10": 0.25, "11": 0.5})
        noise = Distribution.uniform_bits(1)
        joint = enumerate_joint(prior, lambda s: noise)
        post = posterior(joint, "1")
        for outcome, p in as_dict(prior).items():
            assert as_dict(post).get(outcome, 0.0) == pytest.approx(p, abs=1e-12)

    def test_observation_equals_secret(self):
        joint = enumerate_joint(Distribution.uniform_bits(3), lambda s: s)
        assert as_dict(posterior(joint, "101")) == {"101": pytest.approx(1.0)}

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


class TestPointMassGivesPositiveZero:
    """A figure that is exactly zero is +0.0, never -0.0, which would render as `-0.0`."""

    @pytest.mark.parametrize("width", range(5))
    def test_entropies_of_a_point_mass_are_positive_zero(self, width):
        prior = Distribution({"1" * width: 1.0})
        figures = [entropy(prior)]
        for joint in (enumerate_joint(prior, lambda s: s), enumerate_joint(prior, lambda s: "1"),
                      ciphertext_joint(prior)):
            figures += [conditional_entropy(joint), mutual_information(joint)]
        assert figures == [0.0] * 7
        assert [math.copysign(1.0, figure) for figure in figures] == [1.0] * 7

    def test_zero_width_uniform_prior_has_positive_zero_entropy(self):
        assert math.copysign(1.0, entropy(Distribution.uniform_bits(0))) == 1.0


class TestEnumerateJoint:
    def test_parity_view_expands_to_four_pairs(self):
        joint = enumerate_joint(Distribution.uniform_bits(2), xor_chain_view)
        assert len(joint) == 4
        for p in joint.probabilities.tolist():
            assert p == pytest.approx(0.25, abs=1e-12)

    def test_view_ignoring_secret_is_product(self):
        prior = Distribution({"0": 0.25, "1": 0.75})
        noise = Distribution({"00": 0.5, "11": 0.5})
        joint = enumerate_joint(prior, lambda s: noise)
        expected = {
            (s, o): ps * po
            for s, ps in as_dict(prior).items()
            for o, po in as_dict(noise).items()
        }
        assert entries_of(joint) == pytest.approx(expected)

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
        for outcome, p in as_dict(prior).items():
            assert as_dict(marginal).get(outcome, 0.0) == pytest.approx(p, abs=1e-9)

    def test_posterior_mixture_reconstructs_marginal(self):
        joint = chain_joint(4)
        obs_marginal = joint.observation_marginal()
        mixture = {}
        for obs, p_obs in as_dict(obs_marginal).items():
            for secret, p in as_dict(posterior(joint, obs)).items():
                mixture[secret] = mixture.get(secret, 0.0) + p_obs * p
        secret_marginal = joint.secret_marginal()
        for secret, p in as_dict(secret_marginal).items():
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
        joint = joint_of(entries)
        assert entries_of(joint) == pytest.approx(entries)
        assert joint.secret_bits == 1 and joint.observation_bits == 1

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            joint_of({("0", "0"): 0.25})

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            joint_of({("0", "0"): 1.25, ("1", "1"): -0.25})

    def test_rejects_repeated_pairs(self):
        with pytest.raises(ValueError, match="distinct"):
            JointDistribution([0, 0], [1, 1], [0.5, 0.5], 1, 1)
        with pytest.raises(ValueError, match="distinct"):
            JointDistribution([1, 0, 1], [0, 1, 0], [0.25, 0.5, 0.25], 1, 1)

    def test_accepts_distinct_pairs_in_any_order(self):
        joint = JointDistribution([1, 0, 1], [1, 1, 0], [0.25, 0.5, 0.25], 1, 1)
        assert entries_of(joint) == {("1", "1"): 0.25, ("0", "1"): 0.5, ("1", "0"): 0.25}

    def test_constructor_checks_total_and_range(self):
        with pytest.raises(ValueError):
            JointDistribution([0, 1], [0, 1], [0.5, 0.25], 1, 1)
        with pytest.raises(ValueError):
            JointDistribution([0, 2], [0, 1], [0.5, 0.5], 1, 1)


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
    assert set(as_dict(dist)) == {int_to_bits(c, width) for c in exact}
    for code, p in exact.items():
        assert as_dict(dist).get(int_to_bits(code, width), 0.0) == pytest.approx(
            float(p), abs=FLOAT_TOL)


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
            assert math.fsum(as_dict(post).values()) == pytest.approx(1.0, abs=FLOAT_TOL)
            h_conditional += float(p_o) * exact_entropy(exact_post.values())
        # I(S;O) = H(S) + H(O) - H(S,O), not the library's H(S) - H(S|O).
        mi = h_secret + h_observation - exact_entropy(exact.values())

        assert entropy(prior) == pytest.approx(h_secret, abs=FLOAT_TOL)
        assert entropy(joint.secret_marginal()) == pytest.approx(h_secret, abs=FLOAT_TOL)
        assert conditional_entropy(joint) == pytest.approx(h_conditional, abs=FLOAT_TOL)
        got = mutual_information(joint)
        assert got == pytest.approx(mi, abs=FLOAT_TOL)
        assert -FLOAT_TOL <= got <= min(h_secret, h_observation) + FLOAT_TOL

    @settings(deadline=None)
    @given(exact_joints())
    def test_posterior_of_an_absent_observation_raises(self, case):
        # Every code outside the support: before the first stored
        # observation, between two of them and after the last.
        prior, view_fn, _, ob, exact = case
        joint = enumerate_joint(prior, view_fn)
        observed = set(exact_marginal(exact, 1))
        for o in set(range(1 << ob)) - observed:
            with pytest.raises(ZeroProbabilityObservationError):
                posterior(joint, int_to_bits(o, ob))


@st.composite
def wide_exact_joints(draw):
    """(sb, ob, {(s, o): Fraction}) with a column wider than the dense marginal's buffer.

    Secrets are always that wide; observations are narrow or as wide.  A few
    codes of each column, each paired with one or more of the other's, so
    both marginals sum several entries per code.
    """
    wide = st.integers(infotheory._DENSE_MARGINAL_MAX_BITS + 1, 63)
    sb, ob = draw(wide), draw(st.integers(1, 3) | wide)
    secrets = draw(st.lists(st.integers(0, (1 << sb) - 1), min_size=1, max_size=6, unique=True))
    observations = draw(st.lists(st.integers(0, (1 << ob) - 1), min_size=1, max_size=6,
                                 unique=True))
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(secrets), st.sampled_from(observations)),
        min_size=1, max_size=12, unique=True,
    ))
    return sb, ob, dict(zip(pairs, draw(dyadic_weights(len(pairs)))))


class TestWideMarginals:
    """Codes over `_DENSE_MARGINAL_MAX_BITS` are grouped by `np.unique`, not a dense buffer."""

    @settings(deadline=None)
    @given(wide_exact_joints())
    @example((40, 1, {(0, 0): Fraction(1, 2), ((1 << 40) - 1, 1): Fraction(1, 2)}))
    @example((40, 63, {(0, (1 << 63) - 1): Fraction(1, 2), ((1 << 40) - 1, 0): Fraction(1, 4),
                       (1, (1 << 63) - 1): Fraction(1, 4)}))
    def test_figures_match_exact_rationals(self, case):
        sb, ob, exact = case
        joint = joint_of({
            (int_to_bits(s, sb), int_to_bits(o, ob)): float(p) for (s, o), p in exact.items()
        })
        secrets, observations = exact_marginal(exact, 0), exact_marginal(exact, 1)
        assert_matches(joint.secret_marginal(), sb, secrets)
        assert_matches(joint.observation_marginal(), ob, observations)
        mi = (exact_entropy(secrets.values()) + exact_entropy(observations.values())
              - exact_entropy(exact.values()))
        assert mutual_information(joint) == pytest.approx(mi, abs=FLOAT_TOL)


@st.composite
def marginal_columns(draw):
    """(codes, probabilities, width): a column with at least one entry per code of its width.

    Codes repeat, and the weights are integers over a general total, so a
    total's last bit depends on the order its entries are summed in.
    """
    width = draw(st.integers(1, 5))
    n = draw(st.integers(1 << width, (1 << width) + 40))
    codes = np.array(draw(st.lists(st.integers(0, (1 << width) - 1), min_size=n, max_size=n)),
                     dtype=np.int64)
    weights = np.array(draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n)),
                       dtype=np.float64)
    return codes, weights / weights.sum(), width


class TestMarginalPaths:
    """A marginal sums into a dense buffer only if the column has an entry per code of its width."""

    @settings(deadline=None)
    @given(marginal_columns())
    def test_dense_and_grouped_totals_are_equal(self, column):
        dense = infotheory._marginal(*column)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(infotheory, "_DENSE_MARGINAL_MAX_BITS", 0)
            grouped = infotheory._marginal(*column)
        assert dense.bit_length == grouped.bit_length == column[2]
        assert np.array_equal(dense.codes, grouped.codes)
        assert np.array_equal(dense.probabilities, grouped.probabilities)

    def test_a_small_joint_with_a_wide_column_allocates_no_dense_buffer(self):
        width = infotheory._DENSE_MARGINAL_MAX_BITS
        joint = JointDistribution([0, 1, 2, 3], [0, 5, 5, (1 << width) - 1], [0.25] * 4, 2, width)
        tracemalloc.start()
        try:
            marginal = joint.observation_marginal()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert as_dict(marginal) == {int_to_bits(0, width): 0.25, int_to_bits(5, width): 0.5,
                                     int_to_bits((1 << width) - 1, width): 0.25}
        # Its 2**20 dense totals would take 8 MiB.
        assert peak < 1 << 20


@st.composite
def bit_mappings(draw):
    """{bitstring: p} in drawn order, dyadic, with some zero-probability outcomes."""
    width, exact = draw(exact_distributions(4))
    zeros = draw(st.sets(st.integers(0, (1 << width) - 1))) - set(exact)
    items = [(c, float(p)) for c, p in exact.items()] + [(c, 0.0) for c in zeros]
    order = draw(st.permutations(range(len(items))))
    return {int_to_bits(items[i][0], width): items[i][1] for i in order}


def assert_stored_order(joint):
    """Entries strictly ascending by (observation, secret), observation first."""
    keys = list(zip(joint.observation_codes.tolist(), joint.secret_codes.tolist()))
    assert all(a < b for a, b in zip(keys, keys[1:]))


class TestBoundaryRoundTrip:
    @settings(deadline=None)
    @given(bit_mappings())
    def test_entries_are_the_mapping_without_zeros(self, mapping):
        dist = Distribution(mapping)
        nonzero = {k: p for k, p in mapping.items() if p != 0.0}
        assert as_dict(dist) == nonzero
        assert dist.support == tuple(sorted(nonzero))
        assert list(as_dict(dist)) == sorted(nonzero)

    @settings(deadline=None)
    @given(st.integers(0, 63).flatmap(
        lambda width: st.sets(
            st.integers(0, (1 << width) - 1) | st.sampled_from([0, (1 << width) - 1]),
            min_size=1, max_size=64,
        ).map(lambda codes: (width, sorted(codes)))
    ))
    def test_entries_keys_are_int_to_bits(self, width_codes):
        # The support is formatted once: a second read is the same tuple,
        # and the entries' keys are its strings.
        width, codes = width_codes
        dist = Distribution._from_codes(codes, [1.0 / len(codes)] * len(codes), width)
        reference = [format(code, f"0{width}b") if width else "" for code in codes]
        assert dist.support == tuple(reference) == tuple(int_to_bits(c, width) for c in codes)
        assert as_dict(dist) == dict.fromkeys(reference, 1.0 / len(codes))
        assert dist.support is dist.support
        assert all(key is outcome for key, outcome in zip(as_dict(dist), dist.support))

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
        assert as_dict(shuffled) == as_dict(dist)

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
    @given(exact_joints(), st.randoms(use_true_random=False))
    def test_joint_column_order_does_not_matter(self, case, rnd):
        prior, view_fn, sb, ob, _ = case
        joint = enumerate_joint(prior, view_fn)
        order = list(range(len(joint)))
        rnd.shuffle(order)
        shuffled = JointDistribution(
            joint.secret_codes[order], joint.observation_codes[order],
            joint.probabilities[order], sb, ob,
        )
        for column in ("secret_codes", "observation_codes", "probabilities"):
            assert np.array_equal(getattr(shuffled, column), getattr(joint, column))
        assert_stored_order(shuffled)

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_ciphertext_joint_is_in_stored_order(self, width):
        # Observation by observation, the tiled joint's one slice ascends by secret.
        joint = ciphertext_joint(Distribution.uniform_bits(width))
        keys = [(o, s) for o in range(1 << width)
                for s in posterior(joint, int_to_bits(o, width)).codes.tolist()]
        assert len(keys) == len(joint)
        assert all(a < b for a, b in zip(keys, keys[1:]))

    @settings(deadline=None)
    @given(exact_joints())
    def test_joint_entries_round_trip(self, case):
        prior, view_fn, *_ = case
        joint = enumerate_joint(prior, view_fn)
        assert entries_of(joint_of(entries_of(joint))) == entries_of(joint)


@st.composite
def even_width_priors(draw):
    """Non-uniform dyadic priors on a strict subset of 2-, 4-, 6- or 8-bit messages."""
    width = draw(st.sampled_from([2, 4, 6, 8]))
    codes = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1,
                          max_size=(1 << width) - 1, unique=True))
    weights = draw(dyadic_weights(len(codes)))
    assume(len(codes) == 1 or len(set(weights)) > 1)
    return as_distribution(width, dict(zip(codes, weights)))


def assert_same_joint(a, b):
    assert (a.secret_bits, a.observation_bits) == (b.secret_bits, b.observation_bits)
    for column in ("secret_codes", "observation_codes", "probabilities"):
        assert np.array_equal(getattr(a, column), getattr(b, column))


class TestIntegerView:
    """The integer-view builder against the per-secret loop over a plain callable."""

    @pytest.mark.parametrize("width", range(2, 17, 2))
    def test_uniform_priors_match_the_loop(self, width):
        prior = Distribution.uniform_bits(width)
        assert_same_joint(enumerate_joint(prior, cryptanalysis.xor_chain_view),
                          enumerate_joint(prior, xor_chain_view))

    @settings(deadline=None)
    @given(even_width_priors())
    def test_subset_priors_match_the_loop(self, prior):
        assert_same_joint(enumerate_joint(prior, cryptanalysis.xor_chain_view),
                          enumerate_joint(prior, xor_chain_view))

    def test_view_without_codes_is_called_per_secret(self):
        calls = []

        def view(message):
            calls.append(message)
            return xor_chain_view(message)

        prior = Distribution({"0001": 0.25, "0110": 0.25, "1011": 0.5})
        joint = enumerate_joint(prior, view)
        assert calls == ["0001", "0110", "1011"]
        assert entries_of(joint) == {
            ("0001", "01"): 0.25, ("1011", "10"): 0.5, ("0110", "11"): 0.25
        }

    def test_view_with_codes_is_not_called(self):
        def view(message):
            raise AssertionError("the string form was called")

        view.codes = cryptanalysis.xor_chain_view.codes
        prior = Distribution.uniform_bits(6)
        assert_same_joint(enumerate_joint(prior, view), enumerate_joint(prior, xor_chain_view))

    @settings(deadline=None)
    @given(st.sampled_from([8, 16, 17, 32, 33, 63]), st.data())
    def test_the_narrow_sort_gives_the_int64_stable_order(self, observation_bits, data):
        """8 and 16 bits radix-sort, 17 and more fall back; each gives the stored order.

        Few distinct observations, both ends of the range among them, so many
        secrets tie; the constructor's own sort is made to raise, so the
        columns come from `enumerate_joint`'s one sort.
        """
        prior = Distribution.uniform_bits(data.draw(st.integers(1, 8)))
        top = (1 << observation_bits) - 1
        pool = [0, top] + data.draw(st.lists(st.integers(0, top), max_size=3))
        observations = np.array(data.draw(st.lists(
            st.sampled_from(pool), min_size=prior.codes.size, max_size=prior.codes.size)),
            dtype=np.int64)

        def view(message):
            raise AssertionError("the string form was called")

        view.codes = lambda codes, width: (observations, observation_bits)
        order = np.argsort(observations, kind="stable")

        def unsorted(keys):
            raise AssertionError("enumerate_joint's sort missed the stored order")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "lexsort", unsorted)
            joint = enumerate_joint(prior, view)
        assert joint.observation_bits == observation_bits
        assert np.array_equal(joint.observation_codes, observations[order])
        assert np.array_equal(joint.secret_codes, prior.codes[order])
        assert np.array_equal(joint.probabilities, prior.probabilities[order])

    @pytest.mark.parametrize("view", [cryptanalysis.xor_chain_view, xor_chain_view],
                             ids=["integer", "loop"])
    def test_both_builders_keep_the_budget(self, view, monkeypatch):
        prior = Distribution.uniform_bits(4)
        monkeypatch.setattr(infotheory, "ENUMERATION_BUDGET", 16)
        assert len(enumerate_joint(prior, view)) == 16
        monkeypatch.setattr(infotheory, "ENUMERATION_BUDGET", 15)
        with pytest.raises(EnumerationBudgetError):
            enumerate_joint(prior, view)


# Chunked reductions against the whole-array formulas they replaced.  The
# library reduces a joint's columns one window of `infotheory._CHUNK`
# entries at a time; with the chunk patched down to 1, 2 or 3 entries,
# small joints take the multi-window paths and put window boundaries
# between every kind of neighbour.

CHUNKS = [1, 2, 3]


def reference_ascending(columns) -> bool:
    """One whole-array comparison per key column."""
    *major, minor = columns
    up = minor[1:] > minor[:-1]
    for c in reversed(major):
        up = (c[1:] > c[:-1]) | ((c[1:] == c[:-1]) & up)
    return bool(up.all())


def reference_marginal(codes, probs, width):
    """(codes, totals) of the nonzero totals of a weighted `bincount`."""
    totals = np.bincount(codes, weights=probs, minlength=1 << width)
    return np.flatnonzero(totals), totals[totals > 0]


def reference_entropy(probs) -> float:
    return -math.fsum(p * math.log2(p) for p in probs.tolist())


def reference_conditional_entropy(joint) -> float:
    """H(S,O) - H(O) by `math.fsum`, with observation totals by `reduceat` over run starts."""
    probs, observations = joint.probabilities, joint.observation_codes
    starts = np.flatnonzero(np.concatenate(([True], observations[1:] != observations[:-1])))
    totals = np.add.reduceat(probs, starts)
    return max(reference_entropy(probs) - reference_entropy(totals), 0.0)


def reference_mutual_information(joint) -> float:
    _, secret_totals = reference_marginal(joint.secret_codes, joint.probabilities,
                                          joint.secret_bits)
    return max(reference_entropy(secret_totals) - reference_conditional_entropy(joint), 0.0)


@st.composite
def power_of_two_joints(draw):
    """Joints whose entries and both marginals are all powers of two.

    The secrets are the leaves of a random full binary tree, each with
    probability 2**-depth, written as codes padded with zeros.  The
    observation is a drawn-length prefix of the secret followed by up to
    two bits of uniform noise, so every observation's total is the mass
    of one tree node times a power of two.  Every term p * log2(p) is then
    exact, and so is every sum of such terms in any order.
    """
    sb = draw(st.integers(1, 5))
    leaves = [""]
    for _ in range(draw(st.integers(0, 12))):
        splittable = [leaf for leaf in leaves if len(leaf) < sb]
        if not splittable:
            break
        leaf = draw(st.sampled_from(splittable))
        leaves.remove(leaf)
        leaves += [leaf + "0", leaf + "1"]
    depth, noise = draw(st.integers(1, sb)), draw(st.integers(0, 2))
    secrets, observations, probs = [], [], []
    for leaf in leaves:
        code = int(leaf.ljust(sb, "0"), 2)
        for n in range(1 << noise):
            secrets.append(code)
            observations.append((code >> (sb - depth)) << noise | n)
            probs.append(2.0 ** -(len(leaf) + noise))
    order = draw(st.permutations(range(len(probs))))
    return JointDistribution(np.array(secrets)[order], np.array(observations)[order],
                             np.array(probs)[order], sb, depth + noise)


@st.composite
def non_dyadic_joints(draw):
    """Joints over distinct drawn pairs with integer weights over a general total."""
    sb, ob = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    pairs = draw(st.lists(st.tuples(st.integers(0, (1 << sb) - 1), st.integers(0, (1 << ob) - 1)),
                          min_size=1, max_size=40, unique=True))
    weights = np.array(draw(st.lists(st.integers(1, 1000), min_size=len(pairs),
                                     max_size=len(pairs))), dtype=np.float64)
    secrets, observations = zip(*pairs)
    return JointDistribution(secrets, observations, weights / weights.sum(), sb, ob)


@st.composite
def key_columns(draw):
    """(observation, secret) columns: sorted distinct keys, then maybe one defect.

    The defect swaps two neighbours (a descent) or repeats one key, at a
    drawn position, so it falls on both sides of every window boundary.
    """
    keys = sorted(draw(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                               min_size=1, max_size=16)))
    defect, i = draw(st.sampled_from(["none", "swap", "repeat"])), draw(st.integers(0, 15))
    i %= len(keys)
    if defect == "swap" and i + 1 < len(keys):
        keys[i], keys[i + 1] = keys[i + 1], keys[i]
    elif defect == "repeat":
        keys.insert(i, keys[i])
    observations, secrets = (np.array(column, dtype=np.int64) for column in zip(*keys))
    return observations, secrets


class TestPosteriorMemo:
    """Each joint's stored posteriors against a fresh slice-and-normalize oracle."""

    def test_repeated_observation_returns_the_same_object(self):
        joint = chain_joint(4)
        first = posterior(joint, "01")
        assert posterior(joint, "01") is first
        assert posterior(joint, "10") is not first
        # Stored per joint: an equal joint computes its own.
        other = chain_joint(4)
        assert posterior(other, "01") is not first
        assert as_dict(posterior(other, "01")) == as_dict(first)

    @settings(deadline=None)
    @given(non_dyadic_joints())
    def test_stored_posteriors_equal_fresh_ones(self, joint):
        ob, sb = joint.observation_bits, joint.secret_bits
        for o in sorted(set(joint.observation_codes.tolist())):
            observation = int_to_bits(o, ob)
            rows = [(s, p) for (s, oo), p in entries_of(joint).items() if oo == observation]
            probs = np.array([p for _, p in rows])
            fresh = Distribution({s: p for (s, _), p in zip(rows, probs / probs.sum())})
            first = posterior(joint, observation)
            assert posterior(joint, observation) is first
            assert first.bit_length == fresh.bit_length == sb
            assert np.array_equal(first.codes, fresh.codes)
            assert np.array_equal(first.probabilities, fresh.probabilities)
            assert not first.probabilities.flags.writeable
            assert not first.codes.flags.writeable

    @pytest.mark.parametrize("observation", ["1", "01", "", "2", "x", " 0", None, 0, ["0"]])
    def test_bad_observations_raise_every_time_and_are_never_stored(self, observation):
        joint = enumerate_joint(Distribution.uniform_bits(2), lambda s: "0")
        for _ in range(3):
            with pytest.raises(ValueError):
                posterior(joint, observation)
        assert joint._posteriors == {}
        assert as_dict(posterior(joint, "0")) == {s: 0.25 for s in ("00", "01", "10", "11")}
        assert list(joint._posteriors) == ["0"]


class TestChunkedReductions:
    @pytest.mark.parametrize("chunk", CHUNKS)
    @settings(deadline=None)
    @given(key_columns())
    def test_order_check_matches_the_whole_array_check(self, chunk, columns):
        observations, secrets = columns
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(infotheory, "_CHUNK", chunk)
            assert infotheory._ascending([observations, secrets]) == reference_ascending(
                [observations, secrets])
            assert infotheory._ascending([secrets]) == reference_ascending([secrets])
            n = len(secrets)
            pairs = set(zip(observations.tolist(), secrets.tolist()))
            if len(pairs) < n:
                with pytest.raises(ValueError, match="distinct"):
                    JointDistribution(secrets, observations, np.full(n, 1.0 / n), 2, 2)
            else:
                assert_stored_order(
                    JointDistribution(secrets, observations, np.full(n, 1.0 / n), 2, 2))

    @pytest.mark.parametrize("chunk", CHUNKS)
    @settings(deadline=None)
    @given(power_of_two_joints())
    def test_power_of_two_joints_match_the_references_exactly(self, chunk, joint):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(infotheory, "_CHUNK", chunk)
            for marginal, codes, width in (
                (joint.secret_marginal(), joint.secret_codes, joint.secret_bits),
                (joint.observation_marginal(), joint.observation_codes, joint.observation_bits),
            ):
                ref_codes, ref_totals = reference_marginal(codes, joint.probabilities, width)
                assert np.array_equal(marginal.codes, ref_codes)
                assert np.array_equal(marginal.probabilities, ref_totals)
                assert entropy(marginal) == reference_entropy(ref_totals)
            assert conditional_entropy(joint) == reference_conditional_entropy(joint)
            assert mutual_information(joint) == reference_mutual_information(joint)

    @pytest.mark.parametrize("chunk", CHUNKS)
    @settings(deadline=None)
    @given(non_dyadic_joints())
    def test_non_dyadic_joints_match_the_references_within_tolerance(self, chunk, joint):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(infotheory, "_CHUNK", chunk)
            secret_codes, secret_totals = reference_marginal(
                joint.secret_codes, joint.probabilities, joint.secret_bits)
            marginal = joint.secret_marginal()
            # Both sum each code's entries in entry order from zero.
            assert np.array_equal(marginal.codes, secret_codes)
            assert np.array_equal(marginal.probabilities, secret_totals)
            observation_codes, observation_totals = reference_marginal(
                joint.observation_codes, joint.probabilities, joint.observation_bits)
            marginal = joint.observation_marginal()
            assert np.array_equal(marginal.codes, observation_codes)
            assert np.array_equal(marginal.probabilities, observation_totals)
            assert entropy(marginal) == pytest.approx(
                reference_entropy(observation_totals), abs=FLOAT_TOL)
            assert conditional_entropy(joint) == pytest.approx(
                reference_conditional_entropy(joint), abs=FLOAT_TOL)
            assert mutual_information(joint) == pytest.approx(
                reference_mutual_information(joint), abs=FLOAT_TOL)


# OpenBLAS hands a dot of more than 10,000 entries to a worker thread; the
# largest size here also spans two `_CHUNK` windows.
WIDE_SIZES = [1 << 14, 1 << 16, (1 << 18) + 1]


def dyadic_depths(size: int, rng) -> np.ndarray:
    """Leaf depths of a random full binary tree with `size` leaves, in random order.

    Each round splits min(leaves, size - leaves) distinct leaves, so no
    depth exceeds ceil(log2 size): every term 2**-d * d, and every sum of
    such terms in any order, is then exact.
    """
    depths = np.zeros(1, dtype=np.int64)
    while depths.size < size:
        split = rng.choice(depths.size, size=min(depths.size, size - depths.size), replace=False)
        depths[split] += 1
        depths = np.concatenate((depths, depths[split]))
    return rng.permutation(depths)


class TestWideEntropies:
    """`_entropy` at sizes whose dot product OpenBLAS would thread."""

    @pytest.mark.parametrize("width", [14, 16, 18, 19])
    def test_uniform_gives_its_width(self, width):
        assert infotheory._entropy(np.full(1 << width, 2.0 ** -width)) == float(width)

    @pytest.mark.parametrize("size", WIDE_SIZES)
    @settings(deadline=None, max_examples=5)
    @given(st.integers(0, 2**32 - 1))
    def test_dyadic_gives_its_exact_value(self, size, seed):
        depths = dyadic_depths(size, np.random.default_rng(seed))
        counts = np.bincount(depths)
        exact = sum(Fraction(int(c) * d, 1 << d) for d, c in enumerate(counts))
        assert infotheory._entropy(np.ldexp(1.0, -depths)) == float(exact)

    @pytest.mark.parametrize("size", WIDE_SIZES)
    @settings(deadline=None, max_examples=5)
    @given(st.integers(0, 2**32 - 1))
    def test_random_agrees_with_fsum(self, size, seed):
        weights = 1.0 - np.random.default_rng(seed).random(size)  # in (0, 1]
        probs = weights / weights.sum()
        assert infotheory._entropy(probs) == pytest.approx(reference_entropy(probs),
                                                           abs=FLOAT_TOL)


class TestNoBlas:
    """With numpy's BLAS entry points made to raise, every exact figure still comes out."""

    @pytest.fixture(autouse=True)
    def refuse_blas(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a BLAS routine was called")

        for name in ("dot", "vdot", "inner", "matmul"):
            monkeypatch.setattr(np, name, refuse)

    @pytest.mark.parametrize("size", [1 << 16, (1 << 18) + 1])
    def test_entropy(self, size):
        assert infotheory._entropy(np.full(size, 1.0 / size)) == pytest.approx(
            math.log2(size), abs=FLOAT_TOL)

    def test_mutual_information_of_the_16_bit_chain(self):
        joint = enumerate_joint(Distribution.uniform_bits(16), cryptanalysis.xor_chain_view)
        assert mutual_information(joint) == 8.0

    @pytest.mark.parametrize("scenario, bits", [("xor-chain", "16"), ("otp-baseline", "12")])
    def test_attack_reports(self, scenario, bits, capsys):
        code = cli.main(["attack", "--scenario", scenario, "--message-bits", bits,
                         "--trials", "3"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert out


class TestMemoryBound:
    """A 2**20-entry joint (24 MiB of columns) is reduced in about one chunk."""

    def test_reductions_hold_little_beyond_the_columns(self):
        mib = 1 << 20
        prior = Distribution.uniform_bits(10)
        n = 1 << prior.bit_length
        tracemalloc.start()
        try:
            # The uniform-pad joint's columns, stored explicitly.
            joint = JointDistribution(
                np.tile(prior.codes, n),
                np.repeat(np.arange(n), prior.codes.size),
                np.tile(prior.probabilities / n, n),
                prior.bit_length,
                prior.bit_length,
            )
            columns, build_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            assert mutual_information(joint) == 0.0
            _, reduce_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert columns >= 24 * mib
        # Whole-array order checks, bincount copies of the read-only
        # columns and a full-size log2 array took 3 MiB and 16 MiB here.
        assert build_peak - columns <= 2 * mib
        assert reduce_peak - columns <= 4 * mib

    def test_uniform_pad_joint_holds_one_slice(self):
        prior = Distribution.uniform_bits(12)
        ciphertexts = [int_to_bits(c, 12) for c in range(10)]
        tracemalloc.start()
        try:
            joint = ciphertext_joint(prior)
            assert mutual_information(joint) == 0.0
            posteriors = [posterior(joint, ciphertext) for ciphertext in ciphertexts]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(joint) == 1 << 24
        for result in posteriors:
            assert np.array_equal(result.codes, prior.codes)
            assert np.array_equal(result.probabilities, prior.probabilities)
        # Its 2**24-entry columns would take 384 MiB.
        assert peak < 1 << 20

    def test_every_observation_of_a_uniform_pad_joint_shares_one_posterior(self):
        width = 10
        prior = Distribution.uniform_bits(width)
        joint = ciphertext_joint(prior)
        observations = [int_to_bits(o, width) for o in range(1 << width)]
        tracemalloc.start()
        try:
            posteriors = [posterior(joint, observation) for observation in observations]
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(joint._posteriors) == len(observations)
        assert all(result is posteriors[0] for result in posteriors)
        assert np.array_equal(posteriors[0].probabilities, prior.probabilities)
        # One 8 KiB probability vector per observation held 8 MiB; the list,
        # the memo's dict and one vector take under 64 KiB.
        assert held < 16 * posteriors[0].probabilities.nbytes

    def test_integer_view_build_holds_one_column_beyond_the_result(self):
        mib = 1 << 20

        def view(secret):
            raise AssertionError("the string form was called")

        view.codes = lambda codes, width: (codes ^ 1, width)
        prior = Distribution.uniform_bits(20)
        tracemalloc.start()
        try:
            joint = enumerate_joint(prior, view)
            columns, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(joint) == 1 << 20
        assert columns >= 24 * mib
        # The sort order is the one 8 MiB column beyond the result's three.
        # Gathering all three columns while the unsorted observations were
        # alive peaked at 41 MiB here.
        assert peak - columns <= 8 * mib + mib // 2
