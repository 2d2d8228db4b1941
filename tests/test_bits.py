import itertools
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
    random_bits,
    seeded_words,
    trial_streams,
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


def plans():
    """(width, drawn, count): `drawn` bitstrings of `width` bits, at most 32 in all, from `count` words."""
    return st.integers(1, 3).flatmap(lambda drawn: st.tuples(
        st.integers(0, 32 // drawn), st.just(drawn), st.integers(0, MAX_SEEDED_WORDS)))


class TestPlannedBits:
    """`planned_bits`' columns against `random_bits` on a fresh `random.Random(s)` per seed."""

    @settings(deadline=None)
    @given(st.lists(SEEDS, min_size=1, max_size=6), plans())
    @example(EDGE_SEEDS, (2, 1, 16))
    @example(EDGE_SEEDS, (12, 2, 104))
    @example(EDGE_SEEDS, (16, 1, 5))  # every row runs out of words
    @example([1], (0, 2, 0))  # empty bitstrings draw no word
    def test_codes_equal_random_bits(self, seeds, plan):
        width, drawn, count = plan
        codes, short = planned_bits(seeded_words(seeds, count), width, drawn)
        assert codes.shape == (len(seeds), drawn)
        for seed, row_codes, row_short in zip(seeds, codes, short):
            counted = CountedWords(seed)
            expected = [int(random_bits(width, counted) or "0", 2) for _ in range(drawn)]
            assert row_short == (counted.words > count)
            if not row_short:
                assert row_codes.tolist() == expected

    @pytest.mark.parametrize("width,drawn", [(33, 1), (17, 2), (11, 3)])
    def test_more_bits_than_a_uint32_holds_are_refused(self, width, drawn):
        with pytest.raises(ValueError, match="width \\* drawn must be at most 32 bits"):
            planned_bits(seeded_words([1], 4), width, drawn)


def fresh_trial_bitstrings(seed: int, trials: int, width: int, drawn: int) -> list:
    """Each trial's bitstrings drawn from `Random(base.getrandbits(64))`, base = Random(seed)."""
    base = random.Random(seed)
    return [[random_bits(width, rng) for _ in range(drawn)]
            for rng in (random.Random(base.getrandbits(64)) for _ in range(trials))]


class TestTrialStreams:
    """`trial_streams` against a fresh `random.Random` per trial, either side of each crossover."""

    @settings(deadline=None)
    @given(SEEDS, st.integers(1, 3).flatmap(lambda drawn: st.tuples(
        st.integers(0, 36 // drawn), st.just(drawn))), st.sampled_from([2, 3, 4, 5, 9]),
        st.none() | st.integers(0, 40))
    @example(7, (2, 1), 9, None)
    @example(7, (16, 1), 5, 1)  # every row runs out of words
    @example(7, (12, 2), 4, 12)
    @example(7, (3, 2), 3, 9)
    @example(7, (0, 2), 5, 0)  # empty bitstrings draw no word
    @example(7, (17, 2), 5, None)  # 34 bits, more than a row holds: reseeded
    def test_every_draw_equals_a_fresh_generators(self, seed, plan, trials, kept):
        # Bulk past 3 trials, in chunks of 4: trials 2 to 5 are one either
        # side of both, 9 is two chunks and a part.  Each row is planned from
        # its first `kept` words (None: all), so some rows run short; each
        # stream is drawn from before the next is taken.
        width, drawn = plan
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bits, "BULK_TRIALS", 3)
            patch.setattr(bits, "SEED_CHUNK", 4)
            patch.setattr(bits, "seeded_words",
                          lambda seeds, count: seeded_words(seeds, count)[:, :kept])
            drawn_bits = [[random_bits(width, stream) for _ in range(drawn)]
                          for stream in trial_streams(seed, trials, width, drawn)]
        assert drawn_bits == fresh_trial_bitstrings(seed, trials, width, drawn)

    def test_trials_that_draw_floats_reseed_a_generator(self):
        base, trials = random.Random(7), 0
        for stream in trial_streams(7, bits.BULK_TRIALS + 1, None, None):
            assert stream.random() == random.Random(base.getrandbits(64)).random()
            trials += 1
        assert trials == bits.BULK_TRIALS + 1


class TestPlannedStream:
    """A `PlannedStream` holds only its row's planned bitstrings."""

    @staticmethod
    def first_stream(width: int, drawn: int) -> PlannedStream:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bits, "BULK_TRIALS", 1)
            stream = next(trial_streams(7, 2, width, drawn))
        assert isinstance(stream, PlannedStream)
        return stream

    def test_a_third_draw_is_refused(self):
        stream = self.first_stream(4, 2)
        assert [random_bits(4, stream) for _ in range(2)] == fresh_trial_bitstrings(7, 1, 4, 2)[0]
        with pytest.raises(ValueError, match="draws 2 bitstrings of 4 bits, not another of 4"):
            random_bits(4, stream)

    @pytest.mark.parametrize("width", [0, 3, 5])
    def test_a_draw_of_another_width_is_refused(self, width):
        stream = self.first_stream(4, 2)
        with pytest.raises(ValueError, match=f"of 4 bits, not another of {width}"):
            random_bits(width, stream)
        assert random_bits(4, stream) == fresh_trial_bitstrings(7, 1, 4, 2)[0][0]

    def test_planned_bitstrings_build_no_generator(self, monkeypatch):
        monkeypatch.setattr(bits, "BULK_TRIALS", 1)
        streams = trial_streams(7, 3, 4, 2)
        first = next(streams)  # the chunk is planned when its first stream is taken
        monkeypatch.setattr(random, "Random", None)  # building one would fail
        drawn = [[random_bits(4, stream) for _ in range(2)]
                 for stream in itertools.chain([first], streams)]
        monkeypatch.undo()
        assert drawn == fresh_trial_bitstrings(7, 3, 4, 2)
