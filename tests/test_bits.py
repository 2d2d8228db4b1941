import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from otplab.bits import check_bits


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
