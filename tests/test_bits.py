import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from otplab.bits import check_bits, random_bits
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
