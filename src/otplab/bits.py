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


def random_bits(width: int, rng) -> str:
    """A uniformly random bitstring drawn from the caller's stream.

    `rng` is a `random.Random` or a `PlannedStream`, whose next bitstring
    may be drawn already.  Each bit is `getrandbits(2)`, drawn again while
    it is 2 or more: the draws `rng.choice("01")` makes, so the bits and the
    stream's final state are the same as one `choice` call per bit.
    """
    if width < 0:
        raise ValueError(f"bit width must be >= 0, got {width}")
    if isinstance(rng, PlannedStream) and (planned := rng.planned(width)) is not None:
        return planned
    getrandbits = rng.getrandbits
    bits = []
    for _ in range(width):
        r = getrandbits(2)
        while r > 1:
            r = getrandbits(2)
        bits.append("01"[r])
    return "".join(bits)


# CPython's `random.Random` is MT19937 (Matsumoto & Nishimura, ACM TOMACS 8,
# 1998): 624 state words; the first 227 words of a twist read only the state
# that seeding leaves.
_MT_WORDS = 624
MAX_SEEDED_WORDS = 227


@functools.cache
def _init_genrand() -> tuple:
    """MT19937's `init_genrand(19650218)`: the state every seeding starts from."""
    state = [19650218]
    for i in range(1, _MT_WORDS):
        state.append((1812433253 * (state[-1] ^ (state[-1] >> 30)) + i) & 0xFFFFFFFF)
    return tuple(state)


def seeded_words(seeds, count: int):
    """The first `count` words of `random.Random(s).getrandbits(32)` for each seed, in bulk.

    `seeds` are integers in [0, 2**64), others refused, and `count` is at
    most `MAX_SEEDED_WORDS`; the result is a (len(seeds), count) numpy uint32
    array.  CPython seeds `Random(s)` by `init_by_array` over the 32-bit
    words of s, low word first, sets word 0 to 0x80000000, and draws the
    tempered words of one twist.  Those steps are the same for every seed,
    so they run in uint32 lanes, one per seed.  `init_by_array`'s second
    loop reads the words its first loop wrote, so the first loop runs twice:
    to its end, then again in step with the second loop; only the words the
    twist reads are kept, so memory is O(len(seeds) x count).  Every scalar
    is an `np.uint32`, so numpy 1.x and 2.x promote alike, and numpy is
    imported here, so importing this module loads none.
    """
    import numpy as np

    if not 0 <= count <= MAX_SEEDED_WORDS:
        raise ValueError(f"count must be between 0 and {MAX_SEEDED_WORDS}, got {count}")
    if not (seeds.dtype.kind in "ui" and seeds.min(initial=0) >= 0 if isinstance(seeds, np.ndarray)
            else all(isinstance(seed, int) and 0 <= seed < 2**64 for seed in seeds)):
        raise ValueError("seeds must be integers in [0, 2**64)")
    u32 = np.uint32
    genrand = [u32(word) for word in _init_genrand()]
    seeds = np.asarray(seeds, dtype=np.uint64)
    low = (seeds & np.uint64(0xFFFFFFFF)).astype(u32)
    high = (seeds >> np.uint64(32)).astype(u32)
    # The key word (plus its index) that the first loop adds at even and at
    # odd steps: a seed below 2**32 is a one-word key, so both add its low word.
    keys = (low, np.where(high == u32(0), low, high + u32(1)))
    shift, first, second = u32(30), u32(1664525), u32(1566083941)
    mixed = np.empty_like(low)

    def step(previous, base, multiplier, out):
        """`base ^ ((previous ^ (previous >> 30)) * multiplier)` into `out`."""
        np.right_shift(previous, shift, out=mixed)
        np.bitwise_xor(mixed, previous, out=mixed)
        np.multiply(mixed, multiplier, out=mixed)
        np.bitwise_xor(mixed, base, out=out)

    def first_loop(a, i):
        """The first loop's word i, from its word i - 1 in `a`, into `a`."""
        step(a, genrand[i], first, a)
        np.add(a, keys[(i - 1) & 1], out=a)

    a = np.full_like(low, genrand[0])
    first_loop(a, 1)
    a1 = a.copy()
    for i in range(2, _MT_WORDS):
        first_loop(a, i)
    # The first loop's last step writes word 1 again, after word 623.
    b1 = np.empty_like(low)
    step(a, a1, first, b1)
    np.add(b1, keys[1], out=b1)
    # The second loop, words 2 to 623 and then word 1, each from the first
    # loop's word i (recomputed in `a`) and its own previous word (in `c`).
    head = np.empty((count + 1, len(low)), dtype=u32)  # words 0 to count
    tail = np.empty((count, len(low)), dtype=u32)  # words 397 to 396 + count
    a[:] = a1
    c = b1.copy()
    for i in range(2, _MT_WORDS):
        first_loop(a, i)
        step(c, a, second, c)
        np.subtract(c, u32(i), out=c)
        if i <= count:
            head[i] = c
        elif 397 <= i < 397 + count:
            tail[i - 397] = c
    if count:
        step(c, b1, second, head[1])
        np.subtract(head[1], u32(1), out=head[1])
    head[0] = u32(0x80000000)
    # The twist's first `count` words, tempered, each in place of the word
    # 397 on that it reads.
    for k, word in enumerate(tail):
        y = (head[k] & u32(0x80000000)) | (head[k + 1] & u32(0x7FFFFFFF))
        word ^= (y >> u32(1)) ^ ((y & u32(1)) * u32(0x9908B0DF))
        word ^= word >> u32(11)
        word ^= (word << u32(7)) & u32(0x9D2C5680)
        word ^= (word << u32(15)) & u32(0xEFC60000)
        word ^= word >> u32(18)
    return tail.T


def planned_bits(words, width: int, drawn: int):
    """`drawn` calls of `random_bits(width, Random(s))` in a row, for each row of `seeded_words`.

    A word is taken iff its top bit is 0 (`getrandbits(2) < 2`); bit 30 is the bit.
    Returns the codes (a row's share a uint32: `width * drawn` <= 32) and the words drawn
    when each ends, (rows, drawn) uint32s, partial in rows out of words, and those rows.
    """
    import numpy as np

    u32, total = np.uint32, width * drawn
    if total > 32:
        raise ValueError(f"width * drawn must be at most 32 bits, got {total}")
    code, taken, *used = np.zeros((2 + drawn, len(words)), dtype=u32)  # code: the bits taken
    for column in words.T:
        for k, count in enumerate(used):  # a word is drawn while bitstring k is short
            count += taken < u32((k + 1) * width)
        taken += (take := (column < u32(1 << 31)) & (taken < u32(total)))
        code = (code << take) | ((column >> u32(30)) & take)
    codes = [(code >> u32(width * k)) & u32((1 << width) - 1) for k in reversed(range(drawn))]
    return np.stack(codes, axis=1), np.stack(used, axis=1), taken < u32(total)


def planned_streams(seeds, width: int, drawn: int):
    """A `PlannedStream` per seed, its first `drawn` bitstrings of `width` bits planned.

    A bit takes two words on average; four per bit plus 8 (104 for 24 bits)
    run out in under 3 in 10,000 rows of 2 bits, which then build `Random(s)`.
    """
    codes, used, short = planned_bits(seeded_words(seeds, 4 * width * drawn + 8), width, drawn)
    strings = codes_to_bits(codes.ravel().tolist(), width)
    for row in short.nonzero()[0].tolist():  # a row short of words plans nothing
        strings[row * drawn:(row + 1) * drawn] = [None] * drawn
    plan = (seeds, strings, used.ravel(), width, drawn)
    return map(PlannedStream, itertools.repeat(plan), range(0, len(strings), drawn))


class PlannedStream:
    """The stream of `random.Random(seed)`, its first bitstrings drawn in bulk.

    `random_bits(width, stream)` takes the next planned bitstring, if its width
    is the plan's; any other draw, and every later one, is `Random(seed)`'s.
    """

    __slots__ = ("_plan", "_next", "_end", "_rng")

    def __init__(self, plan: tuple, first: int):
        self._plan, self._next, self._end, self._rng = plan, first, first + plan[4], None

    def planned(self, width: int):
        """Takes the next planned bitstring, if one is left and `width` is the plan's; else None."""
        i, (_, strings, _, plan_width, _) = self._next, self._plan
        if i < self._end and width == plan_width and strings[i] is not None:
            self._next = i + 1
            return strings[i]

    getrandbits = property(lambda self: self._random().getrandbits)
    random = property(lambda self: self._random().random)

    def _random(self):
        """`Random(seed)` past the words the bitstrings taken used; from here on, every draw's."""
        if self._rng is None:
            seeds, _, used, _, drawn = self._plan
            skip = int(used[self._next - 1]) if self._next > self._end - drawn else 0
            self._rng = random.Random(int(seeds[self._end // drawn - 1]))
            self._rng.getrandbits(32 * skip)  # draws `skip` words
            self._next = self._end
        return self._rng
