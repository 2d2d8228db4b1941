"""Bell-state algebra and a dense four-qubit oracle for entanglement swapping.

The four Bell states are labelled by two bits.  The first bit separates the
correlated (Phi) states from the anticorrelated (Psi) ones, the second bit
is the relative phase:

    phi+ -> 00    phi- -> 01    psi+ -> 10    psi- -> 11

with the amplitude conventions

    |Phi+-> = (|00> +- |11>) / sqrt(2)
    |Psi+-> = (|01> +- |10>) / sqrt(2)

Entanglement swapping starts from Bell pairs on particles (1,2) and (3,4)
and Bell-measures the regrouped pairs (1,3) and (2,4).  The outcome pair
(x, y) is uniform over the four label pairs satisfying

    label(x) XOR label(y) = label(initial 12) XOR label(initial 34)

componentwise.  `swap_distribution_oracle` derives this by brute-force
state-vector projection in the 16-dimensional space;
`swap_distribution_rule` states the same distribution in closed form.  The
two must agree entrywise, which the test suite checks for all 16 initial
pairs.  The oracle's result is memoized per initial configuration, so each
of the 16 is projected once per process; the tests compare the uncached
projection (`swap_distribution_oracle.__wrapped__`) with the rule.

Basis-index convention: bit k of a basis index corresponds to the (k+1)-th
entry of `qubit_order`, most significant bit first.
"""

import functools
import math
import random
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .tolerances import FLOAT_TOL, PROB_CLAMP, PROB_SUM_TOL

_SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True, order=True)
class BellLabel:
    """Two-bit label of a Bell state: (bitflip, phase) with Phi+ = (0, 0)."""

    bitflip: int
    phase: int

    def __post_init__(self):
        if self.bitflip not in (0, 1) or self.phase not in (0, 1):
            raise ValueError(f"Bell label bits must be 0 or 1, got {(self.bitflip, self.phase)}")

    @property
    def code(self) -> int:
        """Integer encoding 0..3, bitflip bit first."""
        return 2 * self.bitflip + self.phase

    @property
    def bits(self) -> str:
        """Two-bit string form, e.g. psi+ -> "10"."""
        return f"{self.bitflip}{self.phase}"

    @property
    def token(self) -> str:
        return ("phi" if self.bitflip == 0 else "psi") + ("+" if self.phase == 0 else "-")

    @classmethod
    def from_code(cls, code: int) -> "BellLabel":
        if code not in (0, 1, 2, 3):
            raise ValueError(f"Bell label code must be in 0..3, got {code}")
        return BELL_LABELS[code]

    @classmethod
    def from_token(cls, token: str) -> "BellLabel":
        try:
            return _TOKEN_TO_LABEL[token]
        except KeyError:
            raise ValueError(
                f"unknown Bell label {token!r}; expected one of phi+, phi-, psi+, psi-"
            ) from None

    def __str__(self) -> str:
        return self.token


PHI_PLUS = BellLabel(0, 0)
PHI_MINUS = BellLabel(0, 1)
PSI_PLUS = BellLabel(1, 0)
PSI_MINUS = BellLabel(1, 1)
BELL_LABELS = (PHI_PLUS, PHI_MINUS, PSI_PLUS, PSI_MINUS)
_TOKEN_TO_LABEL = {label.token: label for label in BELL_LABELS}


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitudes over the computational basis.

    `qubit_order` declares which particle each basis-index bit belongs to,
    most significant bit first.  Instances are immutable; the amplitude
    array is marked read-only.
    """

    amplitudes: np.ndarray
    qubit_order: tuple

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "qubit_order", tuple(self.qubit_order))
        n = len(self.qubit_order)
        if amps.ndim != 1 or amps.size != (1 << n):
            raise ValueError(f"expected 2**{n} amplitudes, got shape {amps.shape}")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > FLOAT_TOL:
            raise ValueError(f"state vector norm {norm} deviates from 1 beyond {FLOAT_TOL}")

    @property
    def n_qubits(self) -> int:
        return len(self.qubit_order)

    def tensor(self, other: "StateVector") -> "StateVector":
        """Tensor product; this state's qubits become the more significant bits."""
        if set(self.qubit_order) & set(other.qubit_order):
            raise ValueError("tensor factors must act on disjoint particles")
        return StateVector(
            np.kron(self.amplitudes, other.amplitudes),
            self.qubit_order + other.qubit_order,
        )

    def permuted(self, new_order) -> "StateVector":
        """Same state re-indexed so basis bits follow `new_order`."""
        new_order = tuple(new_order)
        if sorted(new_order) != sorted(self.qubit_order):
            raise ValueError(f"{new_order} is not a permutation of {self.qubit_order}")
        axes = [self.qubit_order.index(q) for q in new_order]
        tensor = self.amplitudes.reshape((2,) * self.n_qubits)
        amps = np.ascontiguousarray(tensor.transpose(axes)).reshape(-1)
        return StateVector(amps, new_order)

    def inner(self, other: "StateVector") -> complex:
        """<self|other>; both states must use the same qubit order."""
        if self.qubit_order != other.qubit_order:
            raise ValueError("inner product requires identical qubit orders")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class SwapDistribution:
    """Probability map over ordered Bell-measurement outcome pairs.

    Keys are (result on particles 1,3 ; result on particles 2,4).  Only
    outcomes with nonzero probability are stored, so `support` is exact.
    `entries` is a read-only mapping, so one instance can be shared.
    """

    entries: MappingProxyType

    def __post_init__(self):
        for (x, y), p in self.entries.items():
            if not isinstance(x, BellLabel) or not isinstance(y, BellLabel):
                raise ValueError(f"outcome keys must be BellLabel pairs, got {(x, y)!r}")
            if p < 0.0:
                raise ValueError(f"negative probability {p} for outcome ({x}, {y})")
        total = math.fsum(self.entries.values())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1 within {PROB_SUM_TOL}")
        entries = {pair: p for pair, p in sorted(self.entries.items()) if p > 0.0}
        object.__setattr__(self, "entries", MappingProxyType(entries))

    @property
    def support(self) -> tuple:
        return tuple(self.entries)

    def probability(self, outcome) -> float:
        return self.entries.get(outcome, 0.0)


def bell_state_vector(label: BellLabel, particles=(1, 2)) -> StateVector:
    """The two-qubit Bell state for a label, on the given particle pair."""
    amps = np.zeros(4, dtype=complex)
    amps[label.bitflip] = _SQRT_HALF  # |0, a>
    amps[2 + (1 - label.bitflip)] = (-1.0) ** label.phase * _SQRT_HALF  # +- |1, 1-a>
    return StateVector(amps, tuple(particles))


@functools.cache
def swap_distribution_oracle(initial_12: BellLabel, initial_34: BellLabel) -> SwapDistribution:
    """Outcome distribution of entanglement swapping, by state-vector projection.

    Builds the product state on particles (1,2,3,4), regroups to
    (1,3),(2,4), and projects onto all 16 Bell x Bell basis states.  The
    result is memoized per (initial_12, initial_34) and shared by every
    caller; `__wrapped__` projects afresh.
    """
    product = bell_state_vector(initial_12, (1, 2)).tensor(bell_state_vector(initial_34, (3, 4)))
    regrouped = product.permuted((1, 3, 2, 4))
    entries = {}
    for x in BELL_LABELS:
        for y in BELL_LABELS:
            basis = bell_state_vector(x, (1, 3)).tensor(bell_state_vector(y, (2, 4)))
            p = abs(basis.inner(regrouped)) ** 2
            if p > PROB_CLAMP:
                entries[(x, y)] = p
    return SwapDistribution(entries)


def swap_distribution_rule(initial_12: BellLabel, initial_34: BellLabel) -> SwapDistribution:
    """Closed form of the swap outcome distribution.

    Uniform over the four ordered pairs (x, y) with
    code(x) XOR code(y) = code(initial_12) XOR code(initial_34).
    """
    target = initial_12.code ^ initial_34.code
    entries = {(x, BellLabel.from_code(x.code ^ target)): 0.25 for x in BELL_LABELS}
    return SwapDistribution(entries)


def sample_swap(dist: SwapDistribution, rng: random.Random):
    """Draw one outcome pair; deterministic given the caller's seeded stream."""
    u = rng.random()
    acc = 0.0
    items = list(dist.entries.items())
    for pair, p in items:
        acc += p
        if u < acc:
            return pair
    return items[-1][0]
