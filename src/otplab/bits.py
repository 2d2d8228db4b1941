"""Bitstring helpers.

Bitstrings are plain strings of '0'/'1' characters, most significant bit
first, so a key written k1 k2 k3 k4 reads left to right.
"""

import functools
import itertools
import random


def check_bits(s: str, name: str = "bitstring") -> str:
    """Validate that `s` is a string over {0,1}; returns it unchanged."""
    # strip leaves a character other than 0/1 exactly when there is one.
    if not isinstance(s, str) or s.strip("01"):
        raise ValueError(f"{name} must be a string of 0/1 characters, got {s!r}")
    return s


def xor_bits(a: str, b: str) -> str:
    """Bitwise XOR of two equal-length bitstrings, computed on their integer codes."""
    check_bits(a)
    check_bits(b)
    if len(a) != len(b):
        raise ValueError(f"bitstring length mismatch: {len(a)} vs {len(b)}")
    return int_to_bits(bits_to_int(a) ^ bits_to_int(b), len(a))


def bits_to_int(s: str) -> int:
    """Integer code of a bitstring; the empty string codes to 0."""
    return int(s, 2) if s else 0


def int_to_bits(code: int, width: int) -> str:
    """Bitstring of `width` bits for an integer code (width 0 gives "")."""
    if width == 0:
        return ""
    return format(code, f"0{width}b")


@functools.cache
def _table(width: int) -> tuple:
    """Every bitstring of `width` bits (at most 8), indexed by its code."""
    return tuple(int_to_bits(code, width) for code in range(1 << width))


def codes_to_bits(codes, width: int) -> list:
    """`[int_to_bits(c, width) for c in codes]` for int codes in [0, 2**width), in bulk.

    Up to 8 bits each code is one lookup in a cached table of every
    string; up to 16 bits, two lookups joined, the high bits' string and
    the low byte's; wider codes take `format`.
    """
    if width <= 8:
        return list(map(_table(width).__getitem__, codes))
    if width <= 16:
        high, low = _table(width - 8), _table(8)
        return [high[c >> 8] + low[c & 255] for c in codes]
    return list(map(format, codes, itertools.repeat(f"0{width}b")))


def random_bits(width: int, rng: random.Random) -> str:
    """A uniformly random bitstring drawn from the caller's stream.

    Each bit is `getrandbits(2)`, drawn again while it is 2 or more: the
    draws `rng.choice("01")` makes, so the bits and the stream's final
    state are the same as one `choice` call per bit.
    """
    if width < 0:
        raise ValueError(f"bit width must be >= 0, got {width}")
    getrandbits = rng.getrandbits
    bits = []
    for _ in range(width):
        r = getrandbits(2)
        while r > 1:
            r = getrandbits(2)
        bits.append("01"[r])
    return "".join(bits)
