"""One-time-pad primitives and an auditor for the perfect-secrecy conditions.

A pad is information-theoretically secure only when all three of the
classic conditions hold: (i) the key is truly random, (ii) the key is as
long as the message, (iii) the key is never reused.  `KeyMaterial` keeps a
per-bit usage ledger so condition (iii) is enforced mechanically, and
`shannon_audit` checks all three before a pad is committed to a message.

Randomness auditing is analytic: when the distribution the key was drawn
from is known, condition (i) holds iff that distribution's entropy equals
the key length.  Every scenario in this package has an exactly known key
distribution, so this is a computation, not a statistical test.
"""

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .bits import check_bits, random_bits, xor_bits
from .infotheory import (
    ENUMERATION_BUDGET,
    Distribution,
    EnumerationBudgetError,
    JointDistribution,
    entropy,
)
from .tolerances import FLOAT_TOL


class OtpError(Exception):
    """Base class for pad handling errors."""


class KeyExhaustedError(OtpError):
    """The pad never had enough bits for the requested message."""


class ReuseViolationError(OtpError):
    """Serving the request would reuse pad bits that were already spent."""


class KeyMismatchError(OtpError):
    """A cipher block was presented against a pad it was not made from."""


@dataclass(frozen=True)
class KeyOrigin:
    """Provenance of key material; immutable after creation."""

    kind: str  # "truly-random" or "derived-correlated"
    description: str = ""


TRULY_RANDOM = KeyOrigin("truly-random")


def derived_correlated(description: str) -> KeyOrigin:
    return KeyOrigin("derived-correlated", description)


_KEY_IDS = itertools.count(1)


class KeyMaterial:
    """A pad of key bits with a per-bit usage ledger.

    Bits are consumed as a strictly advancing prefix; a used flag never
    reverts.  Single-writer: encryptions against one pad must be serialized
    by the caller.
    """

    def __init__(self, bits: str, origin: KeyOrigin):
        self._bits = check_bits(bits, "key bits")
        self._origin = origin
        self._key_id = f"pad-{next(_KEY_IDS):06d}"
        self._cursor = 0

    @property
    def bits(self) -> str:
        return self._bits

    @property
    def origin(self) -> KeyOrigin:
        return self._origin

    @property
    def key_id(self) -> str:
        return self._key_id

    def __len__(self) -> int:
        return len(self.bits)

    @property
    def used_flags(self) -> tuple:
        """Snapshot of the per-bit ledger."""
        return tuple(i < self._cursor for i in range(len(self._bits)))

    @property
    def used_count(self) -> int:
        return self._cursor

    @property
    def unused_count(self) -> int:
        return len(self.bits) - self._cursor

    @property
    def is_fresh(self) -> bool:
        return self._cursor == 0

    def consume(self, n: int) -> tuple:
        """Mark the next n bits used; returns (offset, bits).

        Raises `KeyExhaustedError` when a fresh pad is simply too short and
        `ReuseViolationError` when the pad was already (partly) spent, since
        serving the request would amount to reusing it.
        """
        if n < 0:
            raise ValueError("cannot consume a negative number of bits")
        if n > self.unused_count:
            if self._cursor > 0:
                raise ReuseViolationError(
                    f"pad {self.key_id} already spent {self._cursor} bits; "
                    f"{n} more would reuse key material"
                )
            raise KeyExhaustedError(
                f"pad {self.key_id} holds {len(self.bits)} bits, {n} needed"
            )
        offset = self._cursor
        self._cursor = offset + n
        return offset, self.bits[offset:offset + n]


@dataclass(frozen=True)
class CipherBlock:
    """Ciphertext plus the identity and offset of the pad bits it consumed."""

    ciphertext: str
    key_id: str
    key_offset: int


def random_key(width: int, rng: random.Random) -> KeyMaterial:
    """Fresh pad of uniform bits drawn from the caller's seeded stream."""
    return KeyMaterial(random_bits(width, rng), TRULY_RANDOM)


def encrypt(plaintext: str, key: KeyMaterial) -> CipherBlock:
    """XOR the plaintext with the next unused pad bits, marking them used."""
    check_bits(plaintext, "plaintext")
    offset, pad = key.consume(len(plaintext))
    return CipherBlock(xor_bits(plaintext, pad), key.key_id, offset)


def decrypt(block: CipherBlock, key: KeyMaterial) -> str:
    """Invert `encrypt`; the pad identity must match the block's."""
    if key.key_id != block.key_id:
        raise KeyMismatchError(
            f"block was made from pad {block.key_id}, not {key.key_id}"
        )
    pad = key.bits[block.key_offset:block.key_offset + len(block.ciphertext)]
    return xor_bits(block.ciphertext, pad)


@dataclass(frozen=True)
class AuditReport:
    """Verdicts for the three pad conditions (randomness, length, reuse).

    `key_entropy_bits` and `deficiency_bits` are filled in analytic mode
    (when the key's generating distribution is supplied); in origin mode
    the entropy is unknown and reported as None.
    """

    randomness_ok: bool
    length_ok: bool
    reuse_ok: bool
    key_entropy_bits: float | None = None
    deficiency_bits: float | None = None

    @property
    def failures(self) -> tuple:
        checks = (
            ("randomness", self.randomness_ok),
            ("length", self.length_ok),
            ("reuse", self.reuse_ok),
        )
        return tuple(name for name, ok in checks if not ok)

    @property
    def all_ok(self) -> bool:
        return not self.failures


def shannon_audit(key: KeyMaterial, intended_message_len: int,
                  key_distribution: Distribution | None = None) -> AuditReport:
    """Audit a pad against the three perfect-secrecy conditions.

    Randomness passes iff the supplied generating distribution has entropy
    equal to the key length within `FLOAT_TOL` (analytic mode) or, absent a
    distribution, iff the pad's origin is truly random.  Length passes iff
    enough unused bits remain for the intended message.  Reuse passes iff
    the pad has never been committed to an encryption before.
    """
    if key_distribution is not None:
        if key_distribution.bit_length != len(key.bits):
            raise ValueError(
                f"key distribution is over {key_distribution.bit_length}-bit values, "
                f"pad holds {len(key.bits)} bits"
            )
        ent = entropy(key_distribution)
        deficiency = max(0.0, len(key.bits) - ent)
        randomness_ok = deficiency <= FLOAT_TOL
    else:
        ent = None
        randomness_ok = key.origin.kind == TRULY_RANDOM.kind
        deficiency = 0.0 if randomness_ok else None
    return AuditReport(
        randomness_ok=randomness_ok,
        length_ok=key.unused_count >= intended_message_len,
        reuse_ok=key.is_fresh,
        key_entropy_bits=ent,
        deficiency_bits=deficiency,
    )


def ciphertext_joint(message_prior: Distribution) -> JointDistribution:
    """Exact joint of (plaintext, ciphertext) under a fresh uniform pad.

    Enumerates every key of the message width for every plaintext in the
    prior (vectorized over integer codes: ciphertext = plaintext XOR key).
    Subject to the same 2**24-entry budget as `enumerate_joint`, which this
    matches entrywise wherever both are affordable.
    """
    width = message_prior.bit_length
    n_keys = 1 << width
    plaintexts = message_prior.codes
    if plaintexts.size * n_keys > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"enumeration exceeds {ENUMERATION_BUDGET} joint entries"
        )
    keys = np.arange(n_keys, dtype=np.int64)
    secret = np.repeat(plaintexts, n_keys)
    observation = secret ^ np.tile(keys, plaintexts.size)
    probabilities = np.repeat(message_prior.probabilities, n_keys) / float(n_keys)
    return JointDistribution(secret, observation, probabilities, width, width)
