"""One-time-pad primitives and an auditor for the perfect-secrecy conditions.

A pad is information-theoretically secure only when all three of the
classic conditions hold: (i) the key is truly random, (ii) the key is as
long as the message, (iii) the key is never reused.  `KeyMaterial` keeps a
usage ledger so condition (iii) is enforced mechanically, and
`shannon_audit` checks all three before a pad is committed to a message.

Randomness is audited without statistical tests, in one of two modes.  By
origin (what the protocol runners use): condition (i) holds iff the pad is
marked truly random.  Analytically, when the distribution the key was
drawn from is supplied: condition (i) holds iff that distribution's
entropy equals the key length.

`CipherBlock` (its repr leaves out the pad) and `AuditReport` are
immutable `records.Record`s.
"""

import random

from .bits import check_bits, random_bits, xor_bits
from .infotheory import Distribution, TiledJoint, check_budget, entropy
from .records import Record
from .tolerances import FLOAT_TOL


class OtpError(Exception):
    """Base class for pad handling errors."""


class KeyExhaustedError(OtpError):
    """The pad never had enough bits for the requested message."""


class ReuseViolationError(OtpError):
    """Serving the request would reuse pad bits that were already spent."""


class KeyMismatchError(OtpError):
    """A cipher block was presented against a pad it was not made from."""


class KeyMaterial:
    """A pad of key bits with a usage ledger.

    Bits are consumed as a strictly advancing prefix; a used bit never
    becomes unused.  Single-writer: encryptions against one pad must be
    serialized by the caller.  A pad is identified by the object itself,
    not its bits.  `truly_random`, a keyword-only `bool`, says whether the
    bits were drawn truly at random; any other value raises `ValueError`.
    """

    def __init__(self, bits: str, *, truly_random: bool):
        if type(truly_random) is not bool:
            raise ValueError(f"truly_random must be a bool, got {truly_random!r}")
        self._bits = check_bits(bits, "key bits")
        self._truly_random = truly_random
        self._cursor = 0

    @property
    def bits(self) -> str:
        return self._bits

    @property
    def truly_random(self) -> bool:
        return self._truly_random

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
                    f"pad already spent {self._cursor} bits; "
                    f"{n} more would reuse key material"
                )
            raise KeyExhaustedError(f"pad holds {len(self.bits)} bits, {n} needed")
        offset = self._cursor
        self._cursor = offset + n
        return offset, self.bits[offset:offset + n]


class CipherBlock(Record):
    """Ciphertext plus the pad object it was made from (not in the repr) and the bit offset."""

    __slots__ = ("ciphertext", "pad", "key_offset")

    def __init__(self, ciphertext: str, pad: KeyMaterial, key_offset: int):
        super().__init__(ciphertext, pad, key_offset)

    def __repr__(self) -> str:
        return f"CipherBlock(ciphertext={self.ciphertext!r}, key_offset={self.key_offset!r})"


def random_key(width: int, rng: random.Random) -> KeyMaterial:
    """Fresh pad of uniform bits drawn from the caller's seeded stream."""
    return KeyMaterial(random_bits(width, rng), truly_random=True)


def encrypt(plaintext: str, key: KeyMaterial) -> CipherBlock:
    """XOR the plaintext with the next unused pad bits, marking them used."""
    check_bits(plaintext, "plaintext")
    offset, pad = key.consume(len(plaintext))
    return CipherBlock(xor_bits(plaintext, pad), key, offset)


def decrypt(block: CipherBlock, key: KeyMaterial) -> str:
    """Invert `encrypt`; `key` must be the pad object the block was made from."""
    if block.pad is not key:
        raise KeyMismatchError("block was made from a different pad")
    pad = key.bits[block.key_offset:block.key_offset + len(block.ciphertext)]
    return xor_bits(block.ciphertext, pad)


class AuditReport(Record):
    """Verdicts for the three pad conditions (randomness, length, reuse).

    `key_entropy_bits` and `deficiency_bits` are filled in analytic mode
    (when the key's generating distribution is supplied); in origin mode
    (the pad's `truly_random` flag) the entropy is unknown, reported as None.
    """

    __slots__ = ("randomness_ok", "length_ok", "reuse_ok", "key_entropy_bits", "deficiency_bits")

    def __init__(self, randomness_ok: bool, length_ok: bool, reuse_ok: bool,
                 key_entropy_bits: float | None = None, deficiency_bits: float | None = None):
        super().__init__(randomness_ok, length_ok, reuse_ok, key_entropy_bits, deficiency_bits)

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
    distribution, iff the pad's `truly_random` flag is set.  Length passes iff
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
        randomness_ok = key.truly_random
        deficiency = 0.0 if randomness_ok else None
    return AuditReport(
        randomness_ok=randomness_ok,
        length_ok=key.unused_count >= intended_message_len,
        reuse_ok=key.is_fresh,
        key_entropy_bits=ent,
        deficiency_bits=deficiency,
    )


def ciphertext_joint(message_prior: Distribution) -> TiledJoint:
    """Exact joint of (plaintext, ciphertext) under a fresh uniform pad.

    The ciphertext c = s XOR k has probability p(s) * 2**-width for every
    plaintext s and every c, the probability of the one key s XOR c, so c
    is uniform and independent of s (Shannon's perfect secrecy).  The joint
    is a `TiledJoint`: it stores that one slice, not a copy per ciphertext.
    Subject to the same 2**24-entry budget as `enumerate_joint`, which this
    matches entrywise wherever both are affordable.
    """
    check_budget(message_prior.codes.size << message_prior.bit_length)
    return TiledJoint(message_prior)
