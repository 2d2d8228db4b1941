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

    `rng` is a `random.Random` or a `PlannedStream` (of `trial_streams`),
    whose next bitstring is drawn already.
    """
    if width < 0:
        raise ValueError(f"bit width must be >= 0, got {width}")
    if isinstance(rng, PlannedStream):
        return rng.planned(width)
    return _choice_bits(width, rng.getrandbits)


def _choice_bits(width: int, getrandbits) -> str:
    """`width` bits from a generator's `getrandbits`.

    Each bit is `getrandbits(2)`, drawn again while it is 2 or more: the
    draws `choice("01")` makes, so the bits and the generator's final state
    are the same as one `choice` call per bit.
    """
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
# The most bits a row of `planned_bits` holds: one uint32 of codes.
PLANNED_BITS = 32
# More than BULK_TRIALS trials draw their bitstrings in bulk, SEED_CHUNK trials
# at a time.  Bulk over reseeding, `build_report` in a fresh process at 1,000,
# 1,700 and 20,000 trials (2-vCPU host): 2-bit xor-chain 1.08, 0.86, 0.32;
# 16-bit 1.02, 0.94, 0.84; 12-bit otp-baseline 1.15, 0.94, 0.72.
BULK_TRIALS = 1_700
SEED_CHUNK = 32_768


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
    Returns the codes, (rows, drawn) uint32s (a row's share a uint32: `width * drawn` <=
    `PLANNED_BITS`), and the rows that run out of words, whose codes are partial.
    """
    import numpy as np

    u32, total = np.uint32, width * drawn
    if total > PLANNED_BITS:
        raise ValueError(f"width * drawn must be at most {PLANNED_BITS} bits, got {total}")
    code, taken = np.zeros((2, len(words)), dtype=u32)  # code: the bits taken
    for column in words.T:
        taken += (take := (column < u32(1 << 31)) & (taken < u32(total)))
        code = (code << take) | ((column >> u32(30)) & take)
    codes = [(code >> u32(width * k)) & u32((1 << width) - 1) for k in reversed(range(drawn))]
    return np.stack(codes, axis=1), taken < u32(total)


def trial_streams(seed: int, trials: int, width: int | None, drawn: int | None):
    """Each trial's stream: `random.Random(base.getrandbits(64))`'s, base = Random(seed).

    A trial draws `drawn` bitstrings of `width` bits with `random_bits`, or
    anything (`drawn` None).  Reseeding one generator per trial gives every
    trial's stream.  Past `BULK_TRIALS` trials that draw at most `PLANNED_BITS`
    bits, each chunk of `SEED_CHUNK` trials draws its seeds in one call, in the
    same order, and plans their bitstrings at once: a bit takes two words on
    average, and a row that runs out of four per bit plus 8 (under 3 in 10,000
    rows of 2 bits) draws its bitstrings from `Random(s)`.  Either way one
    stream object serves every trial, so a stream is valid until the next is drawn.
    """
    base = random.Random(seed)
    if drawn is None or trials <= BULK_TRIALS or width * drawn > PLANNED_BITS:
        rng = random.Random()
        for _ in range(trials):
            rng.seed(base.getrandbits(64))
            yield rng
        return
    import numpy as np

    for start in range(0, trials, SEED_CHUNK):
        n = min(SEED_CHUNK, trials - start)
        # One getrandbits(64 * n) is n getrandbits(64) draws, the first lowest.
        seeds = np.frombuffer(base.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u8")
        codes, short = planned_bits(seeded_words(seeds, 4 * width * drawn + 8), width, drawn)
        strings = codes_to_bits(codes.ravel().tolist(), width)
        for row in short.nonzero()[0].tolist():
            getrandbits = random.Random(int(seeds[row])).getrandbits
            strings[row * drawn:(row + 1) * drawn] = [
                _choice_bits(width, getrandbits) for _ in range(drawn)]
        stream = PlannedStream(strings, width, drawn)
        yield from map(stream.point, range(0, len(strings), drawn))


class PlannedStream:
    """The bitstrings `random_bits` draws from a row of seeds' streams, planned in bulk.

    `point` moves the stream to a row; `random_bits(width, stream)` then takes
    the row's next bitstring.  A draw of another width, or past the row, is refused.
    """

    __slots__ = ("_strings", "_width", "_drawn", "_next", "_end")

    def __init__(self, strings: list, width: int, drawn: int):
        self._strings, self._width, self._drawn, self._next, self._end = strings, width, drawn, 0, 0

    def point(self, first: int) -> "PlannedStream":
        """This stream, moved to the row whose bitstrings start at `first`."""
        self._next, self._end = first, first + self._drawn
        return self

    def planned(self, width: int) -> str:
        """Takes the row's next bitstring; ValueError if none is left or `width` is not its."""
        i = self._next
        if i >= self._end or width != self._width:
            raise ValueError(f"a planned stream draws {self._drawn} bitstrings of "
                             f"{self._width} bits, not another of {width}")
        self._next = i + 1
        return self._strings[i]
