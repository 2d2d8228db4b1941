"""Exact discrete information theory over bitstring ensembles.

Every figure is exact: there is no sampling and no estimation error.
Outcomes are fixed-width bitstrings.  All the ensembles this package
produces are dyadic (probabilities are multiples of a power of 1/2), so
float64 arithmetic is exact in practice; assertions still allow the
tolerances in `tolerances`.

Logarithms are base 2 throughout, and 0 * log 0 is taken to be 0.

Both distribution classes store columns: int64 outcome codes (a
bitstring's value), float64 probabilities and the width in bits, checked
by one routine, so enumerations up to the 2**24-entry budget run in
seconds.  Both keep one stored order: entries strictly ascending by their
key, the outcome code of a `Distribution` and (observation, secret),
observation first, of a `JointDistribution`.  So outcomes never repeat,
and a posterior is one contiguous slice.  Each joint keeps the posteriors
it has returned, one per distinct observation queried, so a repeated
observation is a dict lookup; their probabilities total at most one copy
of the joint's probability column.  Bitstrings appear only at the
API boundary: the `Distribution` constructor, `support`, and the secret
handed to an `enumerate_joint` view.  A distribution formats its support
once, in bulk from its codes (`bits.codes_to_bits`), when `support` is
first read; it is read beside `probabilities`, entry for entry.

A deterministic view may also carry an integer form, a `codes` attribute
mapping the array of secret codes to one observation code per secret;
`enumerate_joint` then builds the joint, one entry per secret, in one
numpy call instead of one call of the view per secret.

A `TiledJoint` is a joint whose observation is as wide as the secret,
uniform and independent of it, as a ciphertext is under a fresh uniform
pad.  Every observation has the same slice, so it stores only that slice
and works out its marginals, entropies and its one posterior, which every
observation shares, from it; it has no columns.

Memory bound: the reductions over a joint's columns (the order check,
the marginals and the entropies) hold at most one chunk of `_CHUNK`
entries beyond the columns themselves and their result.  The one
exception is a marginal of a column wider than `_DENSE_MARGINAL_MAX_BITS`,
or with fewer entries than its width has codes, which groups codes by a
sort that copies the column.  Building a joint from an integer view holds
the result's columns plus one sort order.
"""

from functools import cached_property
from itertools import accumulate
from typing import Callable, Union

import numpy as np

from .bits import bits_to_int, check_bits, codes_to_bits
from .tolerances import FLOAT_TOL, PROB_SUM_TOL

ENUMERATION_BUDGET = 1 << 24
# Sum a marginal into a dense buffer of 2**width totals up to this width,
# when the buffer holds no more totals than the column has entries; other
# codes are first grouped by a sort, so the buffer stays small.
_DENSE_MARGINAL_MAX_BITS = 20
# Entries per window of a pass over the columns: about 2 MB of float64
# temporaries, whatever the joint's size.
_CHUNK = 1 << 18


class ZeroProbabilityObservationError(ValueError):
    """Conditioning on an observation whose marginal probability is zero."""


class EnumerationBudgetError(ValueError):
    """An exact enumeration would exceed the 2**24-entry budget."""


def check_budget(entries: int) -> None:
    """Raise `EnumerationBudgetError` if a joint of this many entries is over budget."""
    if entries > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(f"enumeration exceeds {ENUMERATION_BUDGET} joint entries")


def _ascending(columns) -> bool:
    """Whether entries are strictly ascending by their key columns, the first major.

    Compares each entry i with entry i + 1, `_CHUNK` pairs at a time: the
    windows [lo, hi] overlap by one entry, so every pair lies in one window.
    """
    *major, minor = columns
    n = len(minor)
    for lo in range(0, n - 1, _CHUNK):
        hi = min(lo + _CHUNK, n - 1)
        up = minor[lo + 1:hi + 1] > minor[lo:hi]
        for c in reversed(major):
            later, earlier = c[lo + 1:hi + 1], c[lo:hi]
            up = (later > earlier) | ((later == earlier) & up)
        if not up.all():
            return False
    return True


def _validated(probabilities, columns):
    """Checked read-only (probabilities, [codes per column]) for both classes.

    Each column is a (codes, width) pair, and together they form each
    entry's key, the first column major.  Probabilities must be nonnegative
    and sum to 1; zero entries are dropped; codes must lie in [0, 2**width).
    Entries are sorted by key (a `lexsort` only when they are not already
    in order) and a repeated key is rejected, so the first column's range
    check reads its ends.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    codes = [np.asarray(c, dtype=np.int64) for c, _ in columns]
    if any(c.shape != probs.shape for c in codes):
        raise ValueError("code and probability arrays must have identical shapes")
    low = probs.min() if probs.size else 0.0
    if low < 0.0:
        raise ValueError(f"negative probability {low}")
    if low == 0.0:
        keep = probs > 0.0
        probs, codes = probs[keep], [c[keep] for c in codes]
        if probs.size == 0:
            raise ValueError("distribution has empty support")
    if not _ascending(codes):
        order = np.lexsort(codes[::-1])
        probs, codes = probs[order], [c[order] for c in codes]
        if not _ascending(codes):
            raise ValueError("outcomes must be distinct")
    for i, (c, (_, width)) in enumerate(zip(codes, columns)):
        first, last = (c[0], c[-1]) if i == 0 else (c.min(), c.max())
        if first < 0 or last >= 1 << width:
            raise ValueError(f"codes out of range for width {width}")
    total = float(probs.sum())
    if not abs(total - 1.0) <= PROB_SUM_TOL:
        raise ValueError(f"probabilities sum to {total}, not 1 within {PROB_SUM_TOL}")
    for arr in (probs, *codes):
        arr.setflags(write=False)
    return probs, codes


def _encode(outcomes):
    """Integer codes of equal-width bitstrings (at most 63 bits), and the width."""
    if not outcomes:
        raise ValueError("distribution has empty support")
    codes = [bits_to_int(check_bits(outcome, "outcome")) for outcome in outcomes]
    widths = {len(outcome) for outcome in outcomes}
    if len(widths) > 1 or max(widths) > 63:
        raise ValueError(f"outcomes must share one bit length of at most 63, got {sorted(widths)}")
    return codes, widths.pop()


class Distribution:
    """Exact distribution over equal-width bitstrings, from a {bitstring: p} mapping.

    Stored as columns: ascending distinct int64 `codes`, their positive
    float64 `probabilities` (zero entries are dropped) and `bit_length`.
    """

    def __init__(self, entries):
        codes, width = _encode(list(entries))
        self._init(codes, list(entries.values()), width)

    def _init(self, codes, probabilities, bit_length: int) -> None:
        self.probabilities, (self.codes,) = _validated(probabilities, [(codes, bit_length)])
        self.bit_length = bit_length

    @classmethod
    def _from_codes(cls, codes, probabilities, bit_length: int) -> "Distribution":
        """Build from integer codes in any order; duplicates raise ValueError."""
        dist = cls.__new__(cls)
        dist._init(codes, probabilities, bit_length)
        return dist

    @classmethod
    def uniform(cls, outcomes) -> "Distribution":
        codes, width = _encode(list(outcomes))
        return cls._from_codes(codes, np.full(len(codes), 1.0 / len(codes)), width)

    @classmethod
    def uniform_bits(cls, width: int) -> "Distribution":
        """Uniform distribution over all bitstrings of the given width, within the budget."""
        n = 1 << width
        check_budget(n)
        return cls._from_codes(np.arange(n), np.full(n, 1.0 / n), width)

    @cached_property
    def support(self) -> tuple:
        """The outcome bitstrings in ascending order, formatted once, in bulk, from `codes`."""
        return tuple(codes_to_bits(self.codes.tolist(), self.bit_length))

    @cached_property
    def cumulative(self) -> tuple:
        """Running totals of `probabilities` in stored order, as Python floats.

        Summed one entry at a time, left to right, so each total equals
        the `acc += p` of a walk over `probabilities`: the k-th outcome owns
        [cumulative[k - 1], cumulative[k]).
        """
        return tuple(accumulate(self.probabilities.tolist()))

    @cached_property
    def int_codes(self) -> tuple:
        """`codes` as Python ints in stored order, read beside `cumulative`, entry for entry."""
        return tuple(self.codes.tolist())


class JointDistribution:
    """Exact joint distribution over (secret, observation) bitstring pairs.

    Stored as parallel arrays of integer codes and probabilities, strictly
    ascending by (observation, secret), observation first: the constructor
    sorts its input into that order and rejects a repeated pair.  The
    order serves posteriors alone: each observation's entries form one
    slice, ascending by secret, which `_posterior` normalizes.  Both
    marginals sum per code through `_marginal`, in entry order.
    """

    def __init__(self, secret_codes, observation_codes, probabilities,
                 secret_bits: int, observation_bits: int):
        self.probabilities, (self.observation_codes, self.secret_codes) = _validated(
            probabilities, [(observation_codes, observation_bits), (secret_codes, secret_bits)]
        )
        self.secret_bits = secret_bits
        self.observation_bits = observation_bits
        # `posterior`'s results, keyed by observation bitstring.
        self._posteriors = {}

    def __len__(self) -> int:
        return int(self.secret_codes.size)

    def secret_marginal(self) -> Distribution:
        return _marginal(self.secret_codes, self.probabilities, self.secret_bits)

    def observation_marginal(self) -> Distribution:
        return _marginal(self.observation_codes, self.probabilities, self.observation_bits)

    def _joint_entropy(self) -> float:
        """H(secret, observation)."""
        return _entropy(self.probabilities)

    def _posterior(self, observation: str) -> Distribution:
        """The observation's slice of the stored order, normalized; its secret codes are a view.

        Two scalar searches: one array search costs about twice as much on
        the tiny joints that are queried once per trial.
        """
        code, observations = bits_to_int(observation), self.observation_codes
        lo, hi = observations.searchsorted(code), observations.searchsorted(code, "right")
        probs = self.probabilities[lo:hi]
        total = float(probs.sum())
        if total <= 0.0:
            raise ZeroProbabilityObservationError(
                f"observation {observation!r} has zero marginal probability"
            )
        return Distribution._from_codes(self.secret_codes[lo:hi], probs / total, self.secret_bits)


class TiledJoint:
    """Joint of a secret and an independent uniform observation of its width.

    Each entry is p(s, o) = p(s) * 2**-width, so every observation's slice
    is the same, the prior's codes with `probabilities / 2**width`, and
    only that slice is kept.  It has every member of a `JointDistribution`
    that `conditional_entropy` and `mutual_information` read: both
    marginals and the joint entropy come from the slice, and so does the
    one posterior that `posterior` returns for every observation.
    """

    def __init__(self, secret_prior: Distribution):
        self.secret_prior = secret_prior
        self.secret_bits = self.observation_bits = secret_prior.bit_length
        self._slice_probabilities = secret_prior.probabilities / float(1 << self.secret_bits)
        self._slice_probabilities.setflags(write=False)
        self._posteriors = {}

    def __len__(self) -> int:
        return self.secret_prior.codes.size << self.observation_bits

    def secret_marginal(self) -> Distribution:
        return self.secret_prior

    def observation_marginal(self) -> Distribution:
        n = 1 << self.observation_bits
        total = float(self._slice_probabilities.sum())
        return Distribution._from_codes(np.arange(n), np.full(n, total), self.observation_bits)

    def _posterior(self, observation: str) -> Distribution:
        """The one posterior that every observation shares."""
        return self._shared_posterior

    @cached_property
    def _shared_posterior(self) -> Distribution:
        """The one slice, normalized once."""
        probs = self._slice_probabilities
        return Distribution._from_codes(self.secret_prior.codes, probs / float(probs.sum()),
                                        self.secret_bits)

    def _joint_entropy(self) -> float:
        return (1 << self.observation_bits) * _entropy(self._slice_probabilities)


def _marginal(codes: np.ndarray, probs: np.ndarray, width: int) -> Distribution:
    """Distribution of the per-code probability totals (zero totals are dropped).

    `np.add.at` sums in entry order into the totals buffer, reading the
    read-only columns in place, so both paths give the same floats.
    """
    if width <= _DENSE_MARGINAL_MAX_BITS and 1 << width <= codes.size:
        values, index = np.arange(1 << width), codes
    else:
        values, index = np.unique(codes, return_inverse=True)
    totals = np.zeros(values.size)
    np.add.at(totals, index, probs)
    return Distribution._from_codes(values, totals, width)


def _entropy(probs: np.ndarray) -> float:
    """-sum(p * log2 p) over positive probabilities, one chunk of terms at a time.

    Each chunk's terms p * log2 p are formed in one reused buffer and added
    by numpy's own pairwise `sum`, never by a BLAS `dot`: OpenBLAS hands a dot
    longer than about 10,000 entries to a worker thread, whose wake-up took
    3-8 ms per call on a 2-vCPU host, and a threaded dot's partial sums,
    hence its rounding, depend on the thread count and on the CPU's BLAS
    kernel.
    """
    logs = np.empty(min(probs.size, _CHUNK))
    total = 0.0
    for start in range(0, probs.size, _CHUNK):
        chunk = probs[start:start + _CHUNK]
        terms = np.log2(chunk, out=logs[:chunk.size])
        np.multiply(chunk, terms, out=terms)
        total += float(terms.sum())
    return 0.0 - total  # not -total: a point mass gives 0.0, not -0.0


def entropy(dist: Distribution) -> float:
    """Shannon entropy in bits; zero-probability terms contribute 0."""
    return _entropy(dist.probabilities)


def posterior(joint: JointDistribution | TiledJoint, observation: str) -> Distribution:
    """Bayes-normalized distribution over secrets given one observation.

    The joint's own `_posterior` answers: a `JointDistribution` normalizes
    the observation's slice of its stored order, and a `TiledJoint` returns
    the one posterior that all its observations share.  Each joint keeps the
    posteriors it has returned, keyed by observation, and returns the same
    read-only `Distribution` when asked again.  An observation that raises
    is never stored, so it raises on every call.  The stored probabilities
    are at most one copy of the joint's probability column (each entry
    belongs to one observation; a `TiledJoint`'s are one slice), and the
    secret codes are views of the joint's column (of a `TiledJoint`'s
    prior).
    """
    if isinstance(observation, str):
        cached = joint._posteriors.get(observation)
        if cached is not None:
            return cached
    check_bits(observation, "observation")
    if len(observation) != joint.observation_bits:
        raise ValueError(
            f"observation width {len(observation)} != joint width {joint.observation_bits}"
        )
    result = joint._posteriors[observation] = joint._posterior(observation)
    return result


def conditional_entropy(joint: JointDistribution | TiledJoint) -> float:
    """H(secret | observation) = H(secret, observation) - H(observation)."""
    value = joint._joint_entropy() - entropy(joint.observation_marginal())
    return max(value, 0.0)


def mutual_information(joint: JointDistribution | TiledJoint) -> float:
    """I(secret; observation) = H(secret) - H(secret | observation)."""
    value = entropy(joint.secret_marginal()) - conditional_entropy(joint)
    if value < -FLOAT_TOL:
        raise AssertionError(f"mutual information {value} is negative beyond tolerance")
    return max(value, 0.0)


ViewFn = Callable[[str], Union[str, Distribution]]


def enumerate_joint(secret_prior: Distribution, view_fn: ViewFn) -> JointDistribution:
    """Exact joint of (secret, observation) under a view function.

    `view_fn` maps each secret either to one observation bitstring
    (deterministic view) or to a `Distribution` over observations (the
    view's internal randomness, enumerated exactly).  The result is exact
    and bit-identical across repeated calls; the total enumeration size is
    capped at 2**24 entries.  Entries are collected secret-major and put in
    the joint's stored order by one stable sort on the observations, read
    in the narrowest unsigned dtype that holds `observation_bits` (numpy's
    radix sort up to 16 bits); a stable order is unique, so the dtype
    never changes it.

    A deterministic view may carry an integer form: a `codes` attribute,
    called as `view_fn.codes(secret_codes, secret_bits)`, that returns
    `(observation_codes, observation_bits)` with one observation code per
    secret code.  It is used instead of calling `view_fn` once per secret;
    each secret then gives one entry, carrying the secret's probability.
    Randomized views have no integer form.
    """
    secret_bits = secret_prior.bit_length
    codes_fn = getattr(view_fn, "codes", None)
    if codes_fn is not None:
        check_budget(len(secret_prior.codes))
        secrets, probabilities = secret_prior.codes, secret_prior.probabilities
        observations, observation_bits = codes_fn(secrets, secret_bits)
    else:
        observation_chunks, probability_chunks = [], []
        observation_bits, total_entries = None, 0
        secret_strings = codes_to_bits(secret_prior.codes.tolist(), secret_bits)
        for secret, p_secret in zip(secret_strings, secret_prior.probabilities.tolist()):
            view = view_fn(secret)
            if isinstance(view, str):
                width = len(check_bits(view, "observation"))
                codes = [bits_to_int(view)]
                probs = [p_secret]
            elif isinstance(view, Distribution):
                width = view.bit_length
                codes = view.codes
                probs = p_secret * view.probabilities
            else:
                raise TypeError(
                    f"view_fn must return a bitstring or Distribution, got {type(view)}"
                )

            if observation_bits is None:
                observation_bits = width
            elif width != observation_bits:
                raise ValueError(
                    f"observation widths differ across secrets: {width} vs {observation_bits}"
                )
            total_entries += len(codes)
            check_budget(total_entries)
            observation_chunks.append(codes)
            probability_chunks.append(probs)
        secrets = np.repeat(secret_prior.codes, [len(codes) for codes in observation_chunks])
        observations = np.concatenate(observation_chunks, dtype=np.int64)
        probabilities = np.concatenate(probability_chunks, dtype=np.float64)

    # The columns are secret-major with ascending secrets, and each
    # secret's observations ascend.  A stable sort by observation keeps the
    # secrets ascending within each observation, so the constructor finds
    # the stored order and skips its lexsort.  The sort reads the
    # observations in the narrowest unsigned dtype that holds their width,
    # which numpy radix-sorts up to 16 bits; a stable order is unique, so it
    # is the int64 sort's.  The columns are gathered one at a time and the
    # unsorted observations dropped first, so with an integer view (secrets
    # and probabilities are the prior's) the peak is the result's columns
    # plus the sort order.
    narrow = observations.astype(np.min_scalar_type((1 << observation_bits) - 1))
    order = np.argsort(narrow, kind="stable")
    del narrow
    observations = observations[order]
    secrets = secrets[order]
    probabilities = probabilities[order]
    del order  # before the constructor's order check adds its window
    return JointDistribution(secrets, observations, probabilities, secret_bits, observation_bits)
