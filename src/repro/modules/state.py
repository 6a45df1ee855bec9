"""Wire encoding for 32-bit signed samples and state registers.

Streaming channels, FSLs and state-register transfers all carry 32-bit
words; module arithmetic uses Python integers.  These helpers convert
between the two with two's-complement semantics.
"""

from __future__ import annotations

from array import array
from typing import List, Sequence

WORD_BITS = 32
WORD_MASK = (1 << WORD_BITS) - 1
#: ``from_u32(w) == ((w + SIGN_BIT) & WORD_MASK) - SIGN_BIT`` for every
#: int ``w``: the one-expression decode that block loops inline
SIGN_BIT = 1 << (WORD_BITS - 1)

INT32_MIN = -SIGN_BIT
INT32_MAX = SIGN_BIT - 1


def to_u32(value: int) -> int:
    """Encode a (possibly negative) integer as an unsigned 32-bit word."""
    return value & WORD_MASK


def from_u32(word: int) -> int:
    """Decode an unsigned 32-bit word as a signed integer."""
    word &= WORD_MASK
    return word - (1 << WORD_BITS) if word & SIGN_BIT else word


def from_u32_block(words: Sequence[int]) -> List[int]:
    """``[from_u32(w) for w in words]``.  Words already in ``[0, 2**32)``,
    as every FIFO holds, are reinterpreted as 32-bit C ints with no Python
    step per word; any other int sends the block through the arithmetic,
    so ``words`` is read twice and must be a sequence."""
    try:
        return array("i", array("I", words).tobytes()).tolist()
    except OverflowError:
        return [((word + SIGN_BIT) & WORD_MASK) - SIGN_BIT for word in words]


def saturate32(value: int) -> int:
    """Clamp to the signed 32-bit range (DSP-style saturation)."""
    if value > INT32_MAX:
        return INT32_MAX
    if value < INT32_MIN:
        return INT32_MIN
    return value
