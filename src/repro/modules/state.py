"""Wire encoding for 32-bit signed samples and state registers.

Streaming channels, FSLs and state-register transfers all carry 32-bit
words; module arithmetic uses Python integers.  These helpers convert
between the two with two's-complement semantics.
"""

from __future__ import annotations

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


def saturate32(value: int) -> int:
    """Clamp to the signed 32-bit range (DSP-style saturation)."""
    if value > INT32_MAX:
        return INT32_MAX
    if value < INT32_MIN:
        return INT32_MIN
    return value
