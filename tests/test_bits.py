import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from otplab import bits
from otplab.bits import (
    MAX_SEEDED_WORDS,
    PlannedStream,
    check_bits,
    codes_to_bits,
    int_to_bits,
    planned_bits,
    planned_streams,
    random_bits,
    seeded_words,
    xor_bits,
)
from otplab.otp import random_key


def old_verdict(s) -> bool:
    """The per-character definition `check_bits` replaced: True means reject."""
    return not isinstance(s, str) or any(ch not in "01" for ch in s)


class TestCheckBits:
    """`check_bits`'s strip test against the per-character definition."""

    @given(st.one_of(
        st.text(),
        st.text(alphabet="01"),
        st.text(alphabet="01 \n\t2x١¹"),
        st.none(),
        st.integers(),
        st.binary(),
        st.lists(st.sampled_from("01")),
        st.tuples(st.sampled_from("01")),
    ))
    @example("")
    @example("0110")
    @example(" 01")
    @example("0 1")
    @example("01\n")
    @example("٠")
    @example(b"01")
    @example(["0"])
    @example(1)
    def test_same_verdict_and_message_as_the_old_definition(self, s):
        if old_verdict(s):
            with pytest.raises(ValueError) as caught:
                check_bits(s, "key")
            assert str(caught.value) == f"key must be a string of 0/1 characters, got {s!r}"
        else:
            assert check_bits(s, "key") is s


def char_xor(a: str, b: str) -> str:
    """The character-wise XOR `xor_bits` replaced."""
    return "".join("1" if x != y else "0" for x, y in zip(a, b))


EQUAL_LENGTH_BITS = st.integers(0, 200).flatmap(lambda width: st.tuples(
    st.text(alphabet="01", min_size=width, max_size=width),
    st.text(alphabet="01", min_size=width, max_size=width),
))


class TestXorBits:
    """`xor_bits` on integer codes against the character-wise XOR, and its checks."""

    @given(EQUAL_LENGTH_BITS)
    @example(("", ""))  # the empty strings give the empty string
    @example(("0", "1"))
    @example(("0011", "0101"))
    def test_same_result_as_the_character_wise_xor(self, pair):
        a, b = pair
        assert xor_bits(a, b) == char_xor(a, b)

    # The bad payloads of tests/test_protocols.py, plus the cases the
    # character-wise XOR accepted.
    @pytest.mark.parametrize("bad", ["2", "0x", " ", 1, None, b"01", ["0"], "ab"],
                             ids=["digit", "letter", "space", "int", "none", "bytes", "list",
                                  "letters"])
    def test_non_bits_raise_in_either_position(self, bad):
        partner = "0" * len(bad) if isinstance(bad, (str, bytes, list)) else "0"
        with pytest.raises(ValueError, match="0/1 characters"):
            xor_bits(bad, partner)
        with pytest.raises(ValueError, match="0/1 characters"):
            xor_bits(partner, bad)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length mismatch"):
            xor_bits("01", "011")


def choice_bits(width: int, rng: random.Random) -> str:
    """The per-bit `choice` draw `random_bits` replaced."""
    return "".join(rng.choice("01") for _ in range(width))


class TestRandomBits:
    """`random_bits` against one `rng.choice("01")` call per bit."""

    @given(st.integers(0, 2**64 - 1), st.integers(0, 128))
    @example(0, 0)
    @example(1, 1)
    def test_same_bits_and_final_state_as_choice(self, seed, width):
        fast, reference = random.Random(seed), random.Random(seed)
        assert random_bits(width, fast) == choice_bits(width, reference)
        assert fast.getstate() == reference.getstate()

    def test_successive_draws_stay_in_step(self):
        fast, reference = random.Random(3), random.Random(3)
        for width in (5, 0, 17, 2, 64):
            assert random_bits(width, fast) == choice_bits(width, reference)
        assert fast.getstate() == reference.getstate()

    @pytest.mark.parametrize("width", [-1, -3])
    def test_negative_width_rejected(self, width):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match="bit width"):
            random_bits(width, rng)
        assert rng.getstate() == state

    def test_random_key_rejects_negative_width(self):
        with pytest.raises(ValueError, match="bit width"):
            random_key(-1, random.Random(0))


def ends(width: int) -> list:
    """The two lowest and two highest codes of a width (one code at width 0)."""
    top = (1 << width) - 1
    return sorted({0, min(1, top), max(top - 1, 0), top})


WIDTH_AND_CODES = st.integers(0, 63).flatmap(lambda width: st.tuples(
    st.just(width),
    st.lists(st.integers(0, (1 << width) - 1) | st.sampled_from(ends(width)), max_size=40),
))


class TestCodesToBits:
    """`codes_to_bits`'s table lookups against `int_to_bits`, code for code."""

    @given(WIDTH_AND_CODES)
    @example((0, [0, 0]))
    @example((8, [0, 1, 254, 255]))
    @example((9, [0, 1, 255, 256, 510, 511]))
    @example((16, [0, 1, 255, 256, 65534, 65535]))
    @example((17, [0, 1, 65535, 65536, 131070, 131071]))
    @example((63, [0, 2**63 - 1]))
    @example((5, []))
    def test_same_strings_as_int_to_bits(self, case):
        width, codes = case
        assert codes_to_bits(codes, width) == [int_to_bits(c, width) for c in codes]

    @pytest.mark.parametrize("width", range(64))
    def test_every_width_at_both_ends(self, width):
        codes = ends(width)
        assert codes_to_bits(iter(codes), width) == [int_to_bits(c, width) for c in codes]

    @pytest.mark.parametrize("width", [0, 3, 8, 12])
    def test_every_code_of_a_table_width(self, width):
        codes = range(1 << width)
        assert codes_to_bits(codes, width) == [int_to_bits(c, width) for c in codes]


SEEDS = st.integers(0, 2**64 - 1) | st.integers(0, 2**32 - 1)
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def reference_words(seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(count)]


class TestSeededWords:
    """`seeded_words`' uint32 lanes against a fresh `random.Random(s)` per seed."""

    @settings(deadline=None)
    @given(st.lists(SEEDS, min_size=1, max_size=8), st.integers(0, MAX_SEEDED_WORDS))
    @example([0], 16)
    @example([1], 16)
    @example([2**32 - 1], 16)
    @example([2**32], 16)
    @example([2**64 - 1], 16)
    @example(EDGE_SEEDS, MAX_SEEDED_WORDS)  # one-word and two-word keys side by side
    def test_words_equal_a_fresh_generators(self, seeds, count):
        words = seeded_words(seeds, count)
        assert words.shape == (len(seeds), count)
        assert words.tolist() == [reference_words(seed, count) for seed in seeds]

    def test_no_seeds_give_no_rows(self):
        assert seeded_words([], 4).shape == (0, 4)

    @pytest.mark.parametrize("count", [-1, MAX_SEEDED_WORDS + 1])
    def test_count_outside_the_first_twist_is_refused(self, count):
        with pytest.raises(ValueError, match="count must be between 0 and 227"):
            seeded_words([1], count)

    @pytest.mark.parametrize("seeds", [
        np.array([-1]),  # as int64 it would wrap to the words of Random(2**64 - 1)
        [-1],
        [1.5],  # read as Random(1), which Random(1.5) is not
        np.array([1.5]),
        ["3"],  # read as Random(3), which Random("3") is not
        [2**64],  # past uint64
        [1, 2**64],
    ])
    def test_seeds_it_does_not_model_are_refused(self, seeds):
        with pytest.raises(ValueError, match=r"seeds must be integers in \[0, 2\*\*64\)"):
            seeded_words(seeds, 2)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.uint32])
    def test_integer_arrays_are_read_by_value(self, dtype):
        seeds = np.array([0, 1, 7919], dtype=dtype)
        assert seeded_words(seeds, 3).tolist() == [reference_words(s, 3) for s in (0, 1, 7919)]


class CountedWords:
    """`Random(seed)` that counts the words its `getrandbits(k <= 32)` calls draw."""

    def __init__(self, seed: int):
        self.rng, self.words = random.Random(seed), 0

    def getrandbits(self, k: int) -> int:
        self.words += 1
        return self.rng.getrandbits(k)


def plans(max_count: int = MAX_SEEDED_WORDS):
    """(width, drawn, count): `drawn` bitstrings of `width` bits, at most 32 in all, from `count` words."""
    return st.integers(1, 3).flatmap(lambda drawn: st.tuples(
        st.integers(0, 32 // drawn), st.just(drawn), st.integers(0, max_count)))


class TestPlannedBits:
    """`planned_bits`' columns against `random_bits` on a fresh `random.Random(s)` per seed."""

    @settings(deadline=None)
    @given(st.lists(SEEDS, min_size=1, max_size=6), plans())
    @example(EDGE_SEEDS, (2, 1, 16))
    @example(EDGE_SEEDS, (12, 2, 104))
    @example(EDGE_SEEDS, (16, 1, 5))  # every row runs out of words
    @example([1], (0, 2, 0))  # empty bitstrings draw no word
    def test_codes_and_words_used_equal_random_bits(self, seeds, plan):
        width, drawn, count = plan
        codes, used, short = planned_bits(seeded_words(seeds, count), width, drawn)
        assert codes.shape == used.shape == (len(seeds), drawn)
        for seed, row_codes, row_used, row_short in zip(seeds, codes, used, short):
            counted, expected = CountedWords(seed), []
            for _ in range(drawn):
                drawn_bits = random_bits(width, counted)
                expected.append((int(drawn_bits, 2) if drawn_bits else 0, counted.words))
            assert row_short == (counted.words > count)
            if not row_short:
                assert list(zip(row_codes.tolist(), row_used.tolist())) == expected

    @pytest.mark.parametrize("width,drawn", [(33, 1), (17, 2), (11, 3)])
    def test_more_bits_than_a_uint32_holds_are_refused(self, width, drawn):
        with pytest.raises(ValueError, match="width \\* drawn must be at most 32 bits"):
            planned_streams(np.array([1], dtype=np.uint64), width, drawn)


DRAWS = st.lists(st.sampled_from(["planned", "random"]) | st.tuples(
    st.sampled_from(["bits", "getrandbits"]), st.integers(0, 70)), max_size=12)


def draw_from(rng, draw, width: int):
    """One draw: the plan's bitstring width, another width, `getrandbits(k)` or `random()`."""
    if draw == "planned":
        return random_bits(width, rng)
    if draw == "random":
        return rng.random()
    kind, k = draw
    return random_bits(k % 20, rng) if kind == "bits" else rng.getrandbits(k)


def planned_from_words(seeds: list, width: int, drawn: int, kept) -> list:
    """`planned_streams`' streams, each row planned from its first `kept` words (None: all)."""
    lanes = np.array(seeds, dtype=np.uint64)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bits, "seeded_words", lambda seeds, count: seeded_words(seeds, count)[:, :kept])
        return list(planned_streams(lanes, width, drawn))


class TestPlannedStream:
    """A `PlannedStream` draws exactly what `random.Random(seed)` draws, planned bits or not."""

    @settings(deadline=None)
    @given(st.lists(SEEDS, min_size=1, max_size=4), plans(max_count=40) | st.tuples(
        st.integers(0, 12), st.integers(1, 2), st.none()), DRAWS)
    @example(EDGE_SEEDS, (2, 1, None), ["planned", "planned", ("getrandbits", 32)])
    @example([2**64 - 1, 7], (3, 2, 3), ["planned", ("getrandbits", 64), "random", "planned"])
    @example([7, 2**32], (4, 2, None), ["planned", ("bits", 5), "planned"])
    @example([7], (4, 2, None), ["planned", "planned", "planned", ("getrandbits", 1)])
    def test_every_draw_equals_a_fresh_generators(self, seeds, plan, draws):
        width, drawn, kept = plan
        streams = planned_from_words(seeds, width, drawn, kept)
        assert len(streams) == len(seeds)
        for seed, stream in zip(seeds, streams):
            reference = random.Random(seed)
            for draw in draws:
                assert draw_from(stream, draw, width) == draw_from(reference, draw, width)

    def test_planned_bitstrings_build_no_generator(self, monkeypatch):
        streams = planned_from_words([1, 2, 3], 4, 2, None)
        generator = random.Random
        monkeypatch.setattr(random, "Random", None)  # building one would fail
        drawn = [[random_bits(4, stream) for _ in range(2)] for stream in streams]
        monkeypatch.undo()
        assert drawn == [[random_bits(4, rng) for _ in range(2)] for rng in map(generator, (1, 2, 3))]

    @pytest.mark.parametrize("seed", [1, 2**32 + 5, 7919])
    def test_too_few_words_fall_back_in_step(self, seed):
        # Three words cannot cover 20 bits (at least 20 draws), so the stream
        # builds Random(seed) and draws the whole bitstring from it.
        [stream] = planned_from_words([seed], 20, 1, 3)
        reference = random.Random(seed)
        assert random_bits(20, stream) == random_bits(20, reference)
        assert stream.getrandbits(32) == reference.getrandbits(32)

    def test_negative_bit_count_is_refused_as_random_refuses_it(self):
        [stream] = planned_from_words([1], 1, 1, None)
        assert isinstance(stream, PlannedStream)
        with pytest.raises(ValueError, match="negative"):
            stream.getrandbits(-1)
