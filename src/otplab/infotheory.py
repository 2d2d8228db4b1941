"""Exact discrete information theory over bitstring ensembles.

Everything here is computed by full enumeration; there is no sampling and
no estimation error.  Outcomes are fixed-width bitstrings.  All the
ensembles this package produces are dyadic (probabilities are multiples of
a power of 1/2), so float64 arithmetic is exact in practice; assertions
still allow the tolerances in `tolerances`.

Logarithms are base 2 throughout, and 0 * log 0 is taken to be 0.

`Distribution` is a plain sorted mapping.  `JointDistribution` stores its
entries columnar (integer-coded outcomes plus a weight vector) so that
enumerations up to the 2**24-entry budget run in seconds; the mapping view
`entries` materializes on demand and is only meant for small joints.
"""

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Union

import numpy as np

from .bits import all_bitstrings, bits_to_int, check_bits, int_to_bits
from .tolerances import FLOAT_TOL, PROB_SUM_TOL

ENUMERATION_BUDGET = 1 << 24
# Marginalize via bincount up to this outcome width; fall back to a sort
# for wider codes so the count buffer stays small.
_BINCOUNT_MAX_BITS = 20


class ZeroProbabilityObservationError(ValueError):
    """Conditioning on an observation whose marginal probability is zero."""


class EnumerationBudgetError(ValueError):
    """An exact enumeration would exceed the 2**24-entry budget."""


@dataclass(frozen=True)
class Distribution:
    """Exact probability map over equal-width bitstring outcomes.

    Entries are stored in ascending outcome order; zero-probability
    outcomes are dropped, so the support is exactly the key set.
    """

    entries: dict

    def __post_init__(self):
        cleaned = {}
        for outcome in sorted(self.entries):
            p = self.entries[outcome]
            check_bits(outcome, "outcome")
            if p < 0.0:
                raise ValueError(f"negative probability {p} for outcome {outcome!r}")
            if p > 0.0:
                cleaned[outcome] = float(p)
        if not cleaned:
            raise ValueError("distribution has empty support")
        widths = {len(outcome) for outcome in cleaned}
        if len(widths) != 1:
            raise ValueError(f"outcomes must share one bit length, got lengths {sorted(widths)}")
        total = math.fsum(cleaned.values())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1 within {PROB_SUM_TOL}")
        object.__setattr__(self, "entries", MappingProxyType(cleaned))

    @classmethod
    def uniform(cls, outcomes) -> "Distribution":
        outcomes = list(outcomes)
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("uniform outcomes must be distinct")
        p = 1.0 / len(outcomes)
        return cls({outcome: p for outcome in outcomes})

    @classmethod
    def uniform_bits(cls, width: int) -> "Distribution":
        """Uniform distribution over all bitstrings of the given width."""
        return cls.uniform(all_bitstrings(width))

    @classmethod
    def point(cls, outcome: str) -> "Distribution":
        return cls({outcome: 1.0})

    @property
    def bit_length(self) -> int:
        return len(next(iter(self.entries)))

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
        secret_codes = np.asarray(secret_codes, dtype=np.int64)
        observation_codes = np.asarray(observation_codes, dtype=np.int64)
        probabilities = np.asarray(probabilities, dtype=np.float64)
        if not (secret_codes.shape == observation_codes.shape == probabilities.shape):
            raise ValueError("code and probability arrays must have identical shapes")
        if np.any(probabilities < 0.0):
            raise ValueError("probabilities must be nonnegative")
        keep = probabilities > 0.0
        if not np.all(keep):
            secret_codes = secret_codes[keep]
            observation_codes = observation_codes[keep]
            probabilities = probabilities[keep]
        if secret_codes.size == 0:
            raise ValueError("joint distribution has empty support")
        if np.any(secret_codes < 0) or np.any(secret_codes >= (1 << secret_bits)):
            raise ValueError(f"secret codes out of range for width {secret_bits}")
        if np.any(observation_codes < 0) or np.any(observation_codes >= (1 << observation_bits)):
            raise ValueError(f"observation codes out of range for width {observation_bits}")
        total = float(np.sum(probabilities))
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1 within {PROB_SUM_TOL}")
        for arr in (secret_codes, observation_codes, probabilities):
            arr.setflags(write=False)
        self.secret_codes = secret_codes
        self.observation_codes = observation_codes
        self.probabilities = probabilities
        self.secret_bits = secret_bits
        self.observation_bits = observation_bits

    @classmethod
    def from_entries(cls, entries: dict) -> "JointDistribution":
        """Build from a {(secret, observation): probability} mapping."""
        if not entries:
            raise ValueError("joint distribution has empty support")
        keys = sorted(entries)
        secret_bits = len(keys[0][0])
        observation_bits = len(keys[0][1])
        for secret, observation in keys:
            check_bits(secret, "secret")
            check_bits(observation, "observation")
            if len(secret) != secret_bits or len(observation) != observation_bits:
                raise ValueError("outcomes must share one bit length per coordinate")
        return cls(
            [bits_to_int(s) for s, _ in keys],
            [bits_to_int(o) for _, o in keys],
            [entries[k] for k in keys],
            secret_bits,
            observation_bits,
        )

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


def _totals_by_code(codes: np.ndarray, probs: np.ndarray, width: int):
    """Per-entry marginal totals: totals[i] = sum of probs sharing codes[i]."""
    if width <= _BINCOUNT_MAX_BITS:
        sums = np.bincount(codes, weights=probs, minlength=1 << width)
        return sums[codes]
    _, inverse = np.unique(codes, return_inverse=True)
    sums = np.bincount(inverse, weights=probs)
    return sums[inverse]


def _marginal(codes: np.ndarray, probs: np.ndarray, width: int) -> Distribution:
    if width <= _BINCOUNT_MAX_BITS:
        sums = np.bincount(codes, weights=probs, minlength=1 << width)
        support = np.nonzero(sums)[0]
        return Distribution({int_to_bits(int(c), width): float(sums[c]) for c in support})
    values, inverse = np.unique(codes, return_inverse=True)
    sums = np.bincount(inverse, weights=probs)
    return Distribution({int_to_bits(int(c), width): float(p) for c, p in zip(values, sums)})


def entropy(dist: Distribution) -> float:
    """Shannon entropy in bits; zero-probability terms contribute 0."""
    return -math.fsum(p * math.log2(p) for p in dist.entries.values() if p > 0.0)


def posterior(joint: JointDistribution, observation: str) -> Distribution:
    """Bayes-normalized distribution over secrets given one observation."""
    check_bits(observation, "observation")
    if len(observation) != joint.observation_bits:
        raise ValueError(
            f"observation width {len(observation)} != joint width {joint.observation_bits}"
        )
    mask = joint.observation_codes == bits_to_int(observation)
    total = float(np.sum(joint.probabilities[mask]))
    if total <= 0.0:
        raise ZeroProbabilityObservationError(
            f"observation {observation!r} has zero marginal probability"
        )
    secrets = joint.secret_codes[mask]
    probs = joint.probabilities[mask] / total
    width = joint.secret_bits
    return Distribution({int_to_bits(int(s), width): float(p) for s, p in zip(secrets, probs)})


def conditional_entropy(joint: JointDistribution) -> float:
    """H(secret | observation) = sum_obs p(obs) * entropy(posterior given obs)."""
    probs = joint.probabilities
    totals = _totals_by_code(joint.observation_codes, probs, joint.observation_bits)
    # Equivalent single pass: -sum p * log2(p / p(obs)).
    value = float(np.sum(probs * (np.log2(totals) - np.log2(probs))))
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
    secret_chunks = []
    observation_chunks = []
    probability_chunks = []
    observation_bits = None
    total_entries = 0
    cache = {}  # id(view Distribution) -> (view, codes, probs); keeps views alive

    for secret, p_secret in secret_prior.entries.items():
        view = view_fn(secret)
        if isinstance(view, str):
            check_bits(view, "observation")
            width = len(view)
            codes = np.array([bits_to_int(view)], dtype=np.int64)
            probs = np.array([p_secret], dtype=np.float64)
        elif isinstance(view, Distribution):
            width = view.bit_length
            cached = cache.get(id(view))
            if cached is None:
                codes = np.fromiter(
                    (bits_to_int(o) for o in view.entries), dtype=np.int64, count=len(view.entries)
                )
                base = np.fromiter(view.entries.values(), dtype=np.float64, count=len(view.entries))
                cache[id(view)] = (view, codes, base)
            else:
                _, codes, base = cached
            probs = p_secret * base
        else:
            raise TypeError(f"view_fn must return a bitstring or Distribution, got {type(view)}")

        if observation_bits is None:
            observation_bits = width
        elif width != observation_bits:
            raise ValueError(
                f"observation widths differ across secrets: {width} vs {observation_bits}"
            )
        total_entries += codes.size
        if total_entries > ENUMERATION_BUDGET:
            raise EnumerationBudgetError(
                f"enumeration exceeds {ENUMERATION_BUDGET} joint entries"
            )
        secret_chunks.append(np.full(codes.size, bits_to_int(secret), dtype=np.int64))
        observation_chunks.append(codes)
        probability_chunks.append(probs)

    return JointDistribution(
        np.concatenate(secret_chunks),
        np.concatenate(observation_chunks),
        np.concatenate(probability_chunks),
        secret_prior.bit_length,
        observation_bits,
    )
