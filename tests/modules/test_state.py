"""Unit tests for wire encoding helpers."""

from hypothesis import given
from hypothesis import strategies as st

from repro.modules.state import (
    INT32_MAX,
    INT32_MIN,
    from_u32,
    from_u32_block,
    saturate32,
    to_u32,
)


def test_positive_roundtrip():
    for value in (0, 1, 1000, INT32_MAX):
        assert from_u32(to_u32(value)) == value


def test_negative_roundtrip():
    for value in (-1, -1000, INT32_MIN):
        assert from_u32(to_u32(value)) == value


def test_to_u32_wraps():
    assert to_u32(-1) == 0xFFFFFFFF
    assert to_u32(1 << 33) == 0


def test_from_u32_sign_bit():
    assert from_u32(0x80000000) == INT32_MIN
    assert from_u32(0x7FFFFFFF) == INT32_MAX


def test_saturate():
    assert saturate32(INT32_MAX + 5) == INT32_MAX
    assert saturate32(INT32_MIN - 5) == INT32_MIN
    assert saturate32(123) == 123


@given(
    st.lists(
        st.one_of(
            st.integers(0, 2**32 - 1),
            st.sampled_from([0, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF]),
            st.integers(-(2**40), 2**40),
        )
    )
)
def test_from_u32_block_is_from_u32_per_word(words):
    """The C reinterpretation for FIFO words, the arithmetic for any other
    int: the same values either way."""
    assert from_u32_block(words) == [from_u32(word) for word in words]
