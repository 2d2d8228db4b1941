"""Exact discrete information theory over bitstring ensembles.

Everything here is computed by full enumeration; there is no sampling and
no estimation error.  Outcomes are fixed-width bitstrings.  All the
ensembles this package produces are dyadic (probabilities are multiples of
a power of 1/2), so float64 arithmetic is exact in practice; assertions
still allow the tolerances in `tolerances`.

Logarithms are base 2 throughout, and 0 * log 0 is taken to be 0.

Both distribution classes store columns: int64 outcome codes (a
bitstring's value), float64 probabilities and the width in bits, checked
by one routine, so enumerations up to the 2**24-entry budget run in
seconds.  Bitstrings appear only at the API boundary: the mapping
constructors, `entries`, `support`, `probability`, and the secret handed
to an `enumerate_joint` view.
"""

import math
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Union

import numpy as np

from .bits import bits_to_int, check_bits, int_to_bits
from .tolerances import FLOAT_TOL, PROB_SUM_TOL

ENUMERATION_BUDGET = 1 << 24
# Group by code via bincount up to this outcome width; fall back to a sort
# for wider codes so the count buffer stays small.
_BINCOUNT_MAX_BITS = 20


class ZeroProbabilityObservationError(ValueError):
    """Conditioning on an observation whose marginal probability is zero."""


class EnumerationBudgetError(ValueError):
    """An exact enumeration would exceed the 2**24-entry budget."""


def _validated(probabilities, columns, distinct: bool = False):
    """Checked read-only (probabilities, [codes per column]) for both classes.

    Each column is a (codes, width) pair.  Probabilities must be
    nonnegative and sum to 1; zero entries are dropped; codes must lie in
    [0, 2**width).  With `distinct` (a `Distribution`), the one column is
    sorted and must not repeat, so its range check reads its ends; a joint's
    pairs are distinct by construction, as checking would sort 2**24 entries.
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
    if distinct:
        (c,) = codes
        if c.size > 1 and not (c[1:] > c[:-1]).all():
            order = np.argsort(c)
            probs, c = probs[order], c[order]
            if not (c[1:] > c[:-1]).all():
                raise ValueError("outcomes must be distinct")
            codes = [c]
    for c, (_, width) in zip(codes, columns):
        first, last = (c[0], c[-1]) if distinct else (c.min(), c.max())
        if first < 0 or last >= 1 << width:
            raise ValueError(f"codes out of range for width {width}")
    total = float(probs.sum())
    if not abs(total - 1.0) <= PROB_SUM_TOL:
        raise ValueError(f"probabilities sum to {total}, not 1 within {PROB_SUM_TOL}")
    for arr in (probs, *codes):
        arr.setflags(write=False)
    return probs, codes


def _encode(outcomes, name: str):
    """Integer codes of equal-width bitstrings (at most 63 bits), and the width."""
    if not outcomes:
        raise ValueError("distribution has empty support")
    codes = [bits_to_int(check_bits(outcome, name)) for outcome in outcomes]
    widths = {len(outcome) for outcome in outcomes}
    if len(widths) > 1 or max(widths) > 63:
        raise ValueError(f"{name}s must share one bit length of at most 63, got {sorted(widths)}")
    return codes, widths.pop()


class Distribution:
    """Exact distribution over equal-width bitstrings, from a {bitstring: p} mapping.

    Stored as columns: ascending distinct int64 `codes`, their positive
    float64 `probabilities` (zero entries are dropped) and `bit_length`.
    """

    def __init__(self, entries):
        codes, width = _encode(list(entries), "outcome")
        self._init(codes, list(entries.values()), width)

    def _init(self, codes, probabilities, bit_length: int) -> None:
        self.probabilities, (self.codes,) = _validated(
            probabilities, [(codes, bit_length)], distinct=True
        )
        self.bit_length = bit_length

    @classmethod
    def _from_codes(cls, codes, probabilities, bit_length: int) -> "Distribution":
        """Build from integer codes in any order; duplicates raise ValueError."""
        dist = cls.__new__(cls)
        dist._init(codes, probabilities, bit_length)
        return dist

    @classmethod
    def uniform(cls, outcomes) -> "Distribution":
        codes, width = _encode(list(outcomes), "outcome")
        return cls._from_codes(codes, np.full(len(codes), 1.0 / len(codes)), width)

    @classmethod
    def uniform_bits(cls, width: int) -> "Distribution":
        """Uniform distribution over all bitstrings of the given width."""
        n = 1 << width
        return cls._from_codes(np.arange(n), np.full(n, 1.0 / n), width)

    @classmethod
    def point(cls, outcome: str) -> "Distribution":
        return cls({outcome: 1.0})

    @cached_property
    def entries(self) -> MappingProxyType:
        """Read-only {bitstring: probability} view, in ascending outcome order."""
        width = self.bit_length
        return MappingProxyType({
            int_to_bits(c, width): p
            for c, p in zip(self.codes.tolist(), self.probabilities.tolist())
        })

    @property
    def support(self) -> tuple:
        return tuple(self.entries)

    def probability(self, outcome: str) -> float:
        return self.entries.get(outcome, 0.0)


class JointDistribution:
    """Exact joint distribution over (secret, observation) bitstring pairs.

    Stored as parallel arrays of integer codes and probabilities.  The
    (secret, observation) pairs must be distinct; both public constructors
    (`from_entries` and `enumerate_joint`) guarantee that.
    """

    def __init__(self, secret_codes, observation_codes, probabilities,
                 secret_bits: int, observation_bits: int):
        self.probabilities, (self.secret_codes, self.observation_codes) = _validated(
            probabilities, [(secret_codes, secret_bits), (observation_codes, observation_bits)]
        )
        self.secret_bits = secret_bits
        self.observation_bits = observation_bits

    @classmethod
    def from_entries(cls, entries: dict) -> "JointDistribution":
        """Build from a {(secret, observation): probability} mapping."""
        keys = sorted(entries)
        secrets, secret_bits = _encode([s for s, _ in keys], "secret")
        observations, observation_bits = _encode([o for _, o in keys], "observation")
        return cls(secrets, observations, [entries[k] for k in keys],
                   secret_bits, observation_bits)

    def __len__(self) -> int:
        return int(self.secret_codes.size)

    def items(self):
        """Iterate ((secret, observation), probability); renders strings lazily."""
        sb, ob = self.secret_bits, self.observation_bits
        for s, o, p in zip(self.secret_codes, self.observation_codes, self.probabilities):
            yield (int_to_bits(int(s), sb), int_to_bits(int(o), ob)), float(p)

    @property
    def entries(self) -> dict:
        """Materialized mapping view; intended for small joints only."""
        return {pair: p for pair, p in self.items()}

    def secret_marginal(self) -> Distribution:
        return _marginal(self.secret_codes, self.probabilities, self.secret_bits)

    def observation_marginal(self) -> Distribution:
        return _marginal(self.observation_codes, self.probabilities, self.observation_bits)


def _grouped(codes: np.ndarray, probs: np.ndarray, width: int):
    """Per-code probability totals, as (values, totals, index).

    `totals[i]` sums the probabilities of code `values[i]` (0.0 if no entry
    has it); `totals[index]` gives each entry its code's total.
    """
    if width <= _BINCOUNT_MAX_BITS:
        return np.arange(1 << width), np.bincount(codes, weights=probs, minlength=1 << width), codes
    values, index = np.unique(codes, return_inverse=True)
    return values, np.bincount(index, weights=probs), index


def _marginal(codes: np.ndarray, probs: np.ndarray, width: int) -> Distribution:
    values, totals, _ = _grouped(codes, probs, width)
    return Distribution._from_codes(values, totals, width)


def entropy(dist: Distribution) -> float:
    """Shannon entropy in bits; zero-probability terms contribute 0."""
    return -math.fsum(p * math.log2(p) for p in dist.probabilities.tolist())


def posterior(joint: JointDistribution, observation: str) -> Distribution:
    """Bayes-normalized distribution over secrets given one observation."""
    check_bits(observation, "observation")
    if len(observation) != joint.observation_bits:
        raise ValueError(
            f"observation width {len(observation)} != joint width {joint.observation_bits}"
        )
    mask = joint.observation_codes == bits_to_int(observation)
    probs = joint.probabilities[mask]
    total = float(probs.sum())
    if total <= 0.0:
        raise ZeroProbabilityObservationError(
            f"observation {observation!r} has zero marginal probability"
        )
    return Distribution._from_codes(joint.secret_codes[mask], probs / total, joint.secret_bits)


def conditional_entropy(joint: JointDistribution) -> float:
    """H(secret | observation) = sum_obs p(obs) * entropy(posterior given obs)."""
    probs = joint.probabilities
    _, totals, index = _grouped(joint.observation_codes, probs, joint.observation_bits)
    # Equivalent single pass: -sum p * log2(p / p(obs)).
    value = float(np.sum(probs * (np.log2(totals[index]) - np.log2(probs))))
    return max(value, 0.0)


def mutual_information(joint: JointDistribution) -> float:
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
    capped at 2**24 entries.
    """
    observation_chunks = []
    probability_chunks = []
    observation_bits = None
    total_entries = 0
    secret_bits = secret_prior.bit_length

    for code, p_secret in zip(secret_prior.codes.tolist(), secret_prior.probabilities.tolist()):
        view = view_fn(int_to_bits(code, secret_bits))
        if isinstance(view, str):
            width = len(check_bits(view, "observation"))
            codes = [bits_to_int(view)]
            probs = [p_secret]
        elif isinstance(view, Distribution):
            width = view.bit_length
            codes = view.codes
            probs = p_secret * view.probabilities
        else:
            raise TypeError(f"view_fn must return a bitstring or Distribution, got {type(view)}")

        if observation_bits is None:
            observation_bits = width
        elif width != observation_bits:
            raise ValueError(
                f"observation widths differ across secrets: {width} vs {observation_bits}"
            )
        total_entries += len(codes)
        if total_entries > ENUMERATION_BUDGET:
            raise EnumerationBudgetError(
                f"enumeration exceeds {ENUMERATION_BUDGET} joint entries"
            )
        observation_chunks.append(codes)
        probability_chunks.append(probs)

    return JointDistribution(
        np.repeat(secret_prior.codes, [len(codes) for codes in observation_chunks]),
        np.concatenate(observation_chunks, dtype=np.int64),
        np.concatenate(probability_chunks, dtype=np.float64),
        secret_bits,
        observation_bits,
    )
