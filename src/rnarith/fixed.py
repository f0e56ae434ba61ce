"""Arithmetic on fixed-point encodings, read as one integer
``x = 2*bits + round`` (see ``core``) that carries no width or lsb.

Addition, subtraction and multiplication are exact, and any rounding is
left to an explicit ``core.truncate_at``.  Division rounds once, to the same
number of digits as its operands, by truncating the quotient of
:func:`long_divide`, the library's one divider; like every float op it
returns ``(result, inexact)``.  :func:`apply` is the op on ``RnFixed``
literals: their only guard, and what gives a result its width and lsb.
"""

from __future__ import annotations

from .core import RnFixed


def add(xa: int, xb: int) -> int:
    """Sum with the conjunction of round bits as carry-in.

    The round bits contribute ``ra + rb = (ra & rb) + (ra | rb)`` ulps: the
    conjunction is carried into the word and the disjunction is the result's
    round bit, so the sum is exact.
    """
    return xa + xb + (xa & xb & 1)


def add_alt(xa: int, xb: int) -> int:
    """Variant summing with the disjunction as carry-in.

    Same value as :func:`add`, dual encoding: here ``x - x`` gives the
    all-zero word and the neutral element is ``(-u, 1)``.
    """
    return xa + xb + ((xa | xb) & 1)


def sub(xa: int, xb: int) -> int:
    """Subtraction as addition of the complemented operand."""
    return add(xa, ~xb)


def shift_left(x: int, k: int) -> int:
    """Scale by ``2**k`` at an unchanged lsb weight.

    Copies of the round bit are shifted in at the low end; shifting by one
    reproduces ``add(x, x)``.
    """
    return (x << k) + (x & 1) * ((1 << k) - 1)


def mul(xa: int, xb: int) -> int:
    """Exact product at twice the operands' lsb exponent, round bit
    ``ra & rb``: for nonnegative operands the word is the product of the
    values less that round bit.  General signs are handled sign-magnitude
    style, complementing the product of the absolute values, since
    complementing is exact; so ``mul(~xa, xb) == ~mul(xa, xb)`` holds
    bit-for-bit, zero spellings included."""
    neg = (xa < 0) ^ (xb < 0)
    if xa < 0:
        xa = ~xa
    if xb < 0:
        xb = ~xb
    x = 2 * ((xa + 1) >> 1) * ((xb + 1) >> 1) - (xa & xb & 1)
    return ~x if neg else x


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


def div(x: int, y: int) -> tuple[int, bool]:
    """Divide encodings whose words lie in [1, 2) at lsb exponent ``-p``,
    ``p = x.bit_length() - 2 >= 1``: ``(quotient, inexact)``.

    The quotient of the encodings (round bits appended) is cut to ``p + 2``
    bits by :func:`long_divide`: the word keeps ``p`` fractional bits, or
    ``p + 1`` when the quotient is below one, and the next bit becomes the
    round bit, consistent with the sign of what was dropped (1: value
    rounded up, tail nonpositive; 0: rounded down).  It is inexact when the
    division left a remainder below the round bit.
    """
    q2, _ = long_divide(x, y, x.bit_length())
    return q2 >> 1, q2 & 1 == 1


def apply(op: str, a: RnFixed, b: RnFixed) -> tuple[RnFixed, bool]:
    """``a op b`` for ``op`` in ``+ - * /``, and whether it is inexact.

    The operands must share an lsb exponent; mul needs an ulp of at most 1,
    and div at least one fractional bit and words in [1, 2).  A sum or
    difference is one bit wider than the wider operand, a product has
    ``wa + wb - 1`` bits at twice the lsb exponent, and a quotient ``p + 2``
    bits at lsb exponent ``-p``, or ``-p - 1`` when it is below one.
    """
    lsb = a.lsb_exp
    if lsb != b.lsb_exp:
        raise ValueError("operands must share an lsb exponent; align them first")
    xa, xb = 2 * a.bits + a.round, 2 * b.bits + b.round
    inexact = False
    if op == "/":
        if lsb >= 0:
            raise ValueError("need at least one fractional bit")
        for name, w in (("dividend", a), ("divisor", b)):
            if w.bits >> -lsb != 1:
                raise ValueError(f"{name} word must lie in [1, 2)")
        x, inexact = div(xa, xb)
        width, lsb = 2 - lsb, lsb - (xa < xb)
    elif op == "*":
        if lsb > 0:
            raise ValueError("multiplication requires an ulp of at most 1")
        x, width, lsb = mul(xa, xb), a.width + b.width - 1, 2 * lsb
    else:
        x, width = {"+": add, "-": sub}[op](xa, xb), max(a.width, b.width) + 1
    return RnFixed(x >> 1, width, x & 1, lsb), inexact
