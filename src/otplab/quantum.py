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

componentwise.  Both parties write down the 4-bit key block
`x.bits + y.bits`, so the swap's outcome is stated as an
`infotheory.Distribution` over that block: uniform over 4 of the 16
blocks, it carries 2 bits of entropy, not 4.  Ascending block code is the
order of the label pairs, x first.  `swap_distribution_oracle` derives the
distribution by brute-force state-vector projection in the 16-dimensional
space; `swap_distribution_rule` states it in closed form.  The two must
agree entrywise, which the test suite checks for all 16 initial pairs.
`sample_swap` draws an outcome pair with one bisect over the
distribution's running totals, so the k-th block in ascending code order
owns the k-th interval of [0, 1).
A `BellLabel` is an immutable `records.Record`, hashed and ordered by its
code within its own class.
The basis is built, and each configuration projected, once per process;
the tests compare the uncached projection (`swap_distribution_oracle.__wrapped__`)
with the rule, and with a projection whose amplitudes are built afresh by
index arithmetic.

Basis-index convention: a state on particles (p1, ..., pn) is an array of
2**n complex amplitudes whose index holds p1's bit most significant.  The
product state is on (1,2,3,4); the measured basis is on (1,3,2,4).
"""

import functools
import math
import random
from bisect import bisect_right

import numpy as np

from .infotheory import Distribution
from .records import Record
from .tolerances import PROB_CLAMP

_SQRT_HALF = 1.0 / math.sqrt(2.0)


@functools.total_ordering
class BellLabel(Record):
    """Two-bit label of a Bell state: (bitflip, phase) with Phi+ = (0, 0).

    Labels of one class order by their code, which is also the hash.  The
    repr shows the two bits.
    """

    # code is 0..3, bitflip bit first; bits is e.g. "10" for psi+.
    __slots__ = ("bitflip", "phase", "code", "bits")

    def __init__(self, bitflip: int, phase: int):
        if not all(type(bit) is int and bit in (0, 1) for bit in (bitflip, phase)):
            raise ValueError(f"Bell label bits must be 0 or 1, got {(bitflip, phase)}")
        super().__init__(bitflip, phase, 2 * bitflip + phase, f"{bitflip}{phase}")

    def __lt__(self, other):
        return self.code < other.code if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return self.code

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(bitflip={self.bitflip!r}, phase={self.phase!r})"

    @property
    def token(self) -> str:
        return ("phi" if self.bitflip == 0 else "psi") + ("+" if self.phase == 0 else "-")

    @classmethod
    def from_code(cls, code: int) -> "BellLabel":
        if type(code) is not int or code not in (0, 1, 2, 3):
            raise ValueError(f"Bell label code must be in 0..3, got {code}")
        return BELL_LABELS[code]

    @classmethod
    def from_token(cls, token: str) -> "BellLabel":
        try:
            return _TOKEN_TO_LABEL[token]
        except (KeyError, TypeError):  # TypeError: an unhashable token
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
# The outcome pair (x, y) of each 4-bit key block, indexed by the block's code.
_SWAP_OUTCOMES = tuple((x, y) for x in BELL_LABELS for y in BELL_LABELS)


def _read_only(amplitudes: np.ndarray) -> np.ndarray:
    amplitudes.setflags(write=False)
    return amplitudes


def bell_state_vector(label: BellLabel) -> np.ndarray:
    """The Bell state's 4 read-only complex amplitudes, first qubit most significant."""
    amps = np.zeros(4, dtype=complex)
    amps[label.bitflip] = _SQRT_HALF  # |0, a>
    amps[2 + (1 - label.bitflip)] = (-1.0) ** label.phase * _SQRT_HALF  # +- |1, 1-a>
    return _read_only(amps)


@functools.cache
def _bell_basis() -> tuple:
    """The 16 (key block, Bell x Bell basis state on (1,3),(2,4)) pairs, x major."""
    return tuple(
        (x.bits + y.bits, _read_only(np.kron(bell_state_vector(x), bell_state_vector(y))))
        for x in BELL_LABELS for y in BELL_LABELS
    )


@functools.cache
def swap_distribution_oracle(initial_12: BellLabel, initial_34: BellLabel) -> Distribution:
    """Key-block distribution of entanglement swapping, by state-vector projection.

    Builds the product state on particles (1,2,3,4), regroups its basis bits
    to (1,3,2,4), and projects onto all 16 Bell x Bell basis states on
    (1,3),(2,4) (built once per process by `_bell_basis`); outcome (x, y) is
    the key block `x.bits + y.bits`.  The result is memoized per
    (initial_12, initial_34) and shared by every caller; `__wrapped__`
    projects afresh.
    """
    product = np.kron(bell_state_vector(initial_12), bell_state_vector(initial_34))
    regrouped = product.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(-1)
    entries = {}
    for block, basis in _bell_basis():
        p = abs(complex(np.vdot(basis, regrouped))) ** 2
        if p > PROB_CLAMP:
            entries[block] = p
    return Distribution(entries)


def swap_distribution_rule(initial_12: BellLabel, initial_34: BellLabel) -> Distribution:
    """Closed form of the swap key-block distribution.

    Uniform over the four blocks `x.bits + y.bits` with
    code(x) XOR code(y) = code(initial_12) XOR code(initial_34).
    """
    target = initial_12.code ^ initial_34.code
    return Distribution.uniform(
        x.bits + BellLabel.from_code(x.code ^ target).bits for x in BELL_LABELS
    )


def sample_swap(dist: Distribution, rng: random.Random):
    """Draw one outcome pair (x, y); deterministic given the caller's seeded stream.

    One bisect of the draw over the distribution's running totals: the k-th
    block in ascending code order owns the k-th interval of [0, 1), and a
    draw past the last total lands on the last block.  The block's code is
    read from the distribution's `int_codes`, a tuple formed once per
    distribution, so a memoized oracle distribution pays one `tolist` for
    all its swaps.
    """
    if dist.bit_length != 4:
        raise ValueError(f"a swap outcome is a 4-bit key block, got {dist.bit_length} bits")
    totals = dist.cumulative
    k = bisect_right(totals, rng.random())
    return _SWAP_OUTCOMES[dist.int_codes[k if k < len(totals) else k - 1]]
