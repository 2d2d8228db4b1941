import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from otplab.bits import (
    MAX_SEEDED_WORDS,
    SeededStream,
    check_bits,
    codes_to_bits,
    int_to_bits,
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


DRAWS = st.lists(st.integers(0, 70) | st.just("random"), max_size=24)


class TestSeededStream:
    """A `SeededStream` draws exactly what `random.Random(seed)` draws, words or no words left."""

    @settings(deadline=None)
    @given(SEEDS, st.integers(0, 8), DRAWS)
    @example(2**64 - 1, 0, [2, 64, "random", 0, 32])
    @example(7, 3, [2, 2, 2, 2, 33, 1])
    def test_every_draw_equals_a_fresh_generators(self, seed, given_words, draws):
        stream = SeededStream(seed, seeded_words([seed], given_words)[0].tolist())
        reference = random.Random(seed)
        for draw in draws:
            if draw == "random":
                assert stream.random() == reference.random()
            else:
                assert stream.getrandbits(draw) == reference.getrandbits(draw)

    @pytest.mark.parametrize("seed", [1, 2**32 + 5, 7919])
    def test_too_few_words_fall_back_in_step(self, seed):
        # Three words cannot cover 20 bits (at least 20 draws), so the stream
        # builds Random(seed) part way through the bitstring.
        stream, reference = SeededStream(seed, reference_words(seed, 3)), random.Random(seed)
        assert random_bits(20, stream) == random_bits(20, reference)
        assert stream.getrandbits(32) == reference.getrandbits(32)

    def test_negative_bit_count_is_refused_as_random_refuses_it(self):
        with pytest.raises(ValueError, match="negative"):
            SeededStream(1, reference_words(1, 2)).getrandbits(-1)
