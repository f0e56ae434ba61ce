"""Arithmetic on fixed-point values in the round-bit encoding.

Addition, subtraction and multiplication are exact: they widen the result
word instead of rounding, and any rounding is left to an explicit
``core.truncate_at``.  Division rounds once, to the same number of digits as
its operands, by truncating the quotient of :func:`long_divide`, the
library's one divider; like every float op it returns ``(result, inexact)``.
"""

from __future__ import annotations

from .core import RnFixed, negate


def _require_aligned(a: RnFixed, b: RnFixed) -> None:
    if a.lsb_exp != b.lsb_exp:
        raise ValueError("operands must share an lsb exponent; align them first")


def add(a: RnFixed, b: RnFixed) -> RnFixed:
    """Sum with the conjunction of round bits as carry-in.

    Result is ``(a + b + (ra & rb)*u, ra | rb)`` one bit wider than the wider
    operand, so it is always exact: the two round bits contribute
    ``ra + rb = (ra & rb) + (ra | rb)`` ulps between carry-in and result
    round bit.
    """
    _require_aligned(a, b)
    width = max(a.width, b.width) + 1
    return RnFixed(
        a.bits + b.bits + (a.round & b.round),
        width,
        a.round | b.round,
        a.lsb_exp,
    )


def add_alt(a: RnFixed, b: RnFixed) -> RnFixed:
    """Variant summing with the disjunction as carry-in.

    Same value as :func:`add`, dual encoding: here ``x - x`` gives the
    all-zero word and the neutral element is ``(-u, 1)``.
    """
    _require_aligned(a, b)
    width = max(a.width, b.width) + 1
    return RnFixed(
        a.bits + b.bits + (a.round | b.round),
        width,
        a.round & b.round,
        a.lsb_exp,
    )


def sub(a: RnFixed, b: RnFixed) -> RnFixed:
    """Subtraction as addition of the complemented operand."""
    return add(a, negate(b))


def shift_left(x: RnFixed, k: int) -> RnFixed:
    """Scale by ``2**k`` at an unchanged lsb weight.

    Copies of the round bit are shifted in at the low end; shifting by one
    reproduces ``add(x, x)``.
    """
    if k < 0:
        raise ValueError("shift count must be nonnegative")
    if k == 0:
        return x
    return RnFixed(
        (x.bits << k) | (x.round * ((1 << k) - 1)),
        x.width + k,
        x.round,
        x.lsb_exp,
    )


def mul(a: RnFixed, b: RnFixed) -> RnFixed:
    """Exact product at lsb exponent ``2*l``, round bit ``ra & rb``.

    For nonnegative operands the word is ``a*b + a*rb + b*ra``; general
    signs are handled sign-magnitude style, multiplying absolute values and
    complementing the result, since complementing is exact.  Dispatching on
    the word's sign bit makes ``mul(negate(a), b) == negate(mul(a, b))``
    hold bit-for-bit, zero spellings included.
    """
    _require_aligned(a, b)
    if a.lsb_exp > 0:
        raise ValueError("multiplication requires an ulp of at most 1")
    neg = (a.bits < 0) ^ (b.bits < 0)
    pa = negate(a) if a.bits < 0 else a
    pb = negate(b) if b.bits < 0 else b
    word = pa.bits * pb.bits + pa.bits * pb.round + pb.bits * pa.round
    out = RnFixed(word, a.width + b.width - 1, pa.round & pb.round, 2 * a.lsb_exp)
    return negate(out) if neg else out


def long_divide(n: int, d: int, bits: int) -> tuple[int, int]:
    """``(2*q + sticky, k)`` with ``q = floor(n * 2**k / d)`` of exactly
    ``bits`` bits (0 when ``n`` is) for ``n >= 0``, ``d > 0``; ``sticky`` is
    1 exactly when the remainder is nonzero.  ``k`` follows from the bit
    lengths, with at most one renormalizing shift."""
    k = bits - 1 - n.bit_length() + d.bit_length()
    if k >= 0:
        n <<= k
    else:
        d <<= -k
    if n < d << (bits - 1):  # quotient one bit short: shift once more
        n <<= 1
        k += 1
    q, rem = divmod(n, d)
    return 2 * q + (rem != 0), k


def div(x: RnFixed, y: RnFixed) -> tuple[RnFixed, bool]:
    """Divide operands that share an lsb exponent ``-p`` (``p >= 1``) and
    are nonnegative with word value in [1, 2): ``(quotient, inexact)``.

    The quotient of the extended words (round bits appended) is cut to
    ``p + 2`` bits by :func:`long_divide`: the word keeps ``p`` fractional
    bits, or ``p + 1`` when the quotient is below one, and the next bit
    becomes the round bit, consistent with the sign of what was dropped (1:
    value rounded up, tail nonpositive; 0: rounded down).  It is inexact
    when the division left a remainder below the round bit.
    """
    _require_aligned(x, y)
    p = -x.lsb_exp
    if p < 1:
        raise ValueError("need at least one fractional bit")
    for name, op in (("dividend", x), ("divisor", y)):
        if op.bits >> p != 1:
            raise ValueError(f"{name} word must lie in [1, 2)")
    q2, k = long_divide(2 * x.bits + x.round, 2 * y.bits + y.round, p + 2)
    return RnFixed(q2 >> 2, p + 2, (q2 >> 1) & 1, 1 - k), q2 & 1 == 1
