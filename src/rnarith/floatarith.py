"""Floating-point add, multiply and divide on round-bit encoded words.

Words in, ``(word, inexact)`` out: ``fadd_words``, ``fmul_words`` and
``fdiv_words`` take a format and two int words and return the result word
and a bool that says whether it is inexact; ``round_to_format`` rounds an
exact rational into the same shape, and ``far_shortcut`` maps two words to
one.  Callers holding ``RnFloat``s pass ``.word`` and wrap the result only
to print it.

Every op forms its exact result and rounds it once, in ``_deliver``: the
magnitude is truncated (so results are within half an ulp of the exact
value and the round bit reports the rounding direction), and a negative
result is the complement of the positive one, word and round bit.

Each operand is read once, from its raw fields (``floatfmt.decode``): a
finite one is the integer ``w + r`` of its significand word and round bit
times a power of two, and the result word is written directly from its
fields.  Add and multiply are exact on these integer significands: add
aligns them by shifting, multiply multiplies them.  Division's reference
value is the quotient of the operands' round-bit-extended words (the
midpoints of their half-ulp intervals), cut by ``fixed.long_divide``, the
library's one divider, to ``p + 3`` bits and a sticky bit.

Directed roundings never increment: when the truncated tail was nonzero the
round bit is simply replaced according to the mode.

The ``RnFloat`` shims at the end of the module serve only the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .core import DyadicRational
from .fixed import long_divide
from .floatfmt import _INFINITY, _NAN, FloatFormat, RnFloat, _assemble, decode


class RoundingMode(Enum):
    NEAREST = "rn"          # truncation; no adjustment
    UPWARD = "ru"           # toward +inf
    DOWNWARD = "rd"         # toward -inf
    TOWARD_ZERO = "rz"
    AWAY_FROM_ZERO = "ra"


def directed_round_bit(rbit: int, sign_bit: int, mode: RoundingMode) -> int:
    """Round-bit substitution table for the directed modes, for a result
    whose truncated tail was nonzero (exact results never reach it)."""
    if mode is _NEAREST:
        return rbit
    if mode is _UPWARD:
        return 1
    if mode is _DOWNWARD:
        return 0
    if mode is _TOWARD_ZERO:
        return sign_bit
    return 1 - sign_bit


# read once: a member read through its enum class is a slow lookup (about
# 0.1 us on CPython 3.11), and the sink tests the mode on every result
_NEAREST, _UPWARD = RoundingMode.NEAREST, RoundingMode.UPWARD
_DOWNWARD, _TOWARD_ZERO = RoundingMode.DOWNWARD, RoundingMode.TOWARD_ZERO


def _deliver(num: int, g: int, fmt: FloatFormat, mode: RoundingMode) -> tuple[int, bool]:
    """Round the value ``num * 2**g`` into the format: the result word and
    whether it differs from the value.

    One truncation, a shift, puts the magnitude onto the target grid, giving
    word and round bit (a quotient's lowest bit, its sticky bit, always
    drops).  A negative result is then the complement of both, as negation
    is in the encoding: nearest ties round away from zero and exact negative
    results carry the round bit.  Overflow saturates to
    infinity, except that the exactly representable edge magnitude
    2**(e_max+1) is the all-ones word with the round bit set at e_max.
    """
    if num == 0:
        return 0, False
    p = fmt.precision
    sign = 1 if num < 0 else 0
    mag = -num if sign else num
    e_val = mag.bit_length() - 1 + g
    e_max = fmt.e_max
    if e_val > e_max + 1:
        return fmt.inf_word(sign), True
    if e_val < fmt.e_min:
        e_tgt = fmt.e_min
    elif e_val > e_max:
        e_tgt = e_max
    else:
        e_tgt = e_val
    s = g + p - e_tgt  # the round bit's source position weighs 2**(e_tgt - p)
    if s >= 0:
        t2, rem = mag << s, 0
    else:
        t2 = mag >> -s
        rem = mag - (t2 << -s)  # t2 is 0 whenever -s is past the top bit
    inexact = t2 & 1 == 1 or rem != 0
    if e_val > e_max:
        # beyond e_max only the exact edge is finite: all-ones word, r=1
        if t2 != 1 << (p + 1) or inexact:
            return fmt.inf_word(sign), True
        t2 -= 1
    w, r = t2 >> 1, t2 & 1
    if sign:
        w, r = ~w, 1 - r
    if inexact and mode is not _NEAREST:
        r = directed_round_bit(r, sign, mode)
    if w + r == 0:  # only a subnormal result can truncate to zero
        return 0, inexact
    biased_exp = 0 if e_val < fmt.e_min else e_tgt + fmt.bias
    return _assemble(fmt, sign, biased_exp, w & ((1 << (p - 1)) - 1), r), inexact


def round_to_format(value: Fraction | DyadicRational, fmt: FloatFormat, mode: RoundingMode = RoundingMode.NEAREST) -> tuple[int, bool]:
    """An exact rational rounded into ``fmt``: the word and whether it is
    inexact.

    A ``DyadicRational`` reaches the sink as ``mantissa * 2**exp``, so a huge
    exponent is never expanded into an integer."""
    if isinstance(value, DyadicRational):
        return _deliver(value.mantissa, value.exp, fmt, mode)
    n = value.numerator
    q2, k = long_divide(abs(n), value.denominator, fmt.precision + 3)
    return _deliver(-q2 if n < 0 else q2, -k - 1, fmt, mode)


def fadd_words(fmt: FloatFormat, a: int, b: int, mode: RoundingMode = RoundingMode.NEAREST) -> tuple[int, bool]:
    """Sum of two words of ``fmt``: the result word and whether it is inexact."""
    ca, sa, wa, ra, ea = decode(fmt, a)
    cb, sb, wb, rb, eb = decode(fmt, b)
    if ca is _NAN or cb is _NAN:
        return fmt.nan_word(), False
    if ca is _INFINITY and cb is _INFINITY:
        if sa != sb:
            return fmt.nan_word(), False
        return fmt.inf_word(sa), False
    if ca is _INFINITY:
        return fmt.inf_word(sa), False
    if cb is _INFINITY:
        return fmt.inf_word(sb), False
    ma, mb = wa + ra, wb + rb
    if ma == 0 and mb == 0:
        return 0, False
    if ma == 0:
        return b, False
    if mb == 0:
        return a, False
    e = min(ea, eb)
    return _deliver((ma << (ea - e)) + (mb << (eb - e)), e + 1 - fmt.precision, fmt, mode)


def far_shortcut(fmt: FloatFormat, a: int, b: int) -> int:
    """Huge-gap sum of two words of ``fmt`` without forming it: keep the
    larger operand's word ``a`` and force its round bit to the complement
    of the smaller operand's sign.

    Sound in the interval sense: the result's half-ulp interval stays inside
    the sum of the operand intervals.  Requires the gap to exceed the
    significand digit count, with the smaller operand finite and nonzero.
    """
    ca, _, _, _, ea = decode(fmt, a)
    cb, sb, wb, rb, eb = decode(fmt, b)
    if _NAN in (ca, cb) or _INFINITY in (ca, cb):
        raise ValueError("shortcut expects finite operands")
    if wb + rb == 0:
        raise ValueError("shortcut expects a nonzero smaller operand")
    if ea <= eb + fmt.precision:
        raise ValueError("shortcut requires the gap to exceed the precision")
    return (a & ~1) | (1 - sb)


def fmul_words(fmt: FloatFormat, a: int, b: int, mode: RoundingMode = RoundingMode.NEAREST) -> tuple[int, bool]:
    """Product of two words of ``fmt``: the result word and whether it is inexact."""
    ca, sa, wa, ra, ea = decode(fmt, a)
    cb, sb, wb, rb, eb = decode(fmt, b)
    if ca is _NAN or cb is _NAN:
        return fmt.nan_word(), False
    sign = sa ^ sb
    ma, mb = wa + ra, wb + rb
    if ca is _INFINITY or cb is _INFINITY:
        other_cls, other_m = (cb, mb) if ca is _INFINITY else (ca, ma)
        if other_cls is not _INFINITY and other_m == 0:
            return fmt.nan_word(), False
        return fmt.inf_word(sign), False
    if ma == 0 or mb == 0:
        return 0, False
    return _deliver(ma * mb, ea + eb + 2 - 2 * fmt.precision, fmt, mode)


def _divider_word(w: int, r: int, e: int, p: int) -> tuple[int, int]:
    """Round-bit-extended word ``2*w + r`` of a nonzero finite operand's
    absolute value, rescaled so the word ``w`` lies in [1, 2), and its scale.

    ``w``, ``r`` and ``e`` are the operand's significand word, round bit and
    scale as ``decode`` gives them, ``p`` the precision.  Value-preserving:
    negation complements word and round bit, shifts append round-bit
    copies, and the two boundary spellings of an exact power (all-ones word
    with round bit set) become the power's plain word.
    """
    if w + r < 0:
        w, r = ~w, 1 - r
    v = w + r
    if v == 1 << p:
        return 1 << p, e + 1
    k = p - v.bit_length()
    if k > 0:
        e -= k
        w = (w << k) | (r * ((1 << k) - 1))
    if w == (1 << (p - 1)) - 1:
        w, r = 1 << (p - 1), 0
    return 2 * w + r, e


def fdiv_words(fmt: FloatFormat, a: int, b: int, mode: RoundingMode = RoundingMode.NEAREST) -> tuple[int, bool]:
    """Quotient of two words of ``fmt``: the result word and whether it is inexact."""
    ca, sa, wa, ra, ea = decode(fmt, a)
    cb, sb, wb, rb, eb = decode(fmt, b)
    if ca is _NAN or cb is _NAN:
        return fmt.nan_word(), False
    sign = sa ^ sb
    if ca is _INFINITY:
        if cb is _INFINITY:
            return fmt.nan_word(), False
        return fmt.inf_word(sign), False
    if cb is _INFINITY:
        return 0, False
    a_zero, b_zero = wa + ra == 0, wb + rb == 0
    if a_zero and b_zero:
        return fmt.nan_word(), False
    if b_zero:
        return fmt.inf_word(sign), False
    if a_zero:
        return 0, False
    p = fmt.precision
    na, ea = _divider_word(wa, ra, ea, p)
    nb, eb = _divider_word(wb, rb, eb, p)
    # reference value: quotient of the round-bit-extended operand words
    q2, k = long_divide(na, nb, p + 3)
    return _deliver(-q2 if sign else q2, ea - eb - k - 1, fmt, mode)


# ---------------------------------------------------------------------------
# RnFloat shims.  Nothing in the package calls them; they stay only because
# the benchmark under ``perfbench/`` calls, traces and pins them.  Once the
# benchmark calls the word ops (ROADMAP item 3, step 1), this block goes.


@dataclass(frozen=True)
class StickyTail:
    """Whether anything nonzero was discarded by the final truncation.

    ``nonzero`` False means the delivered value equals the exact result.
    """

    nonzero: bool


# every result shares one of these two; StickyTail is frozen
_EXACT = StickyTail(False)
_INEXACT = StickyTail(True)


def _require_same_format(a: RnFloat, b: RnFloat) -> FloatFormat:
    if a.fmt is not b.fmt and a.fmt != b.fmt:
        raise ValueError("operands must share a format")
    return a.fmt


def _wrap(fmt: FloatFormat, result: tuple[int, bool]) -> tuple[RnFloat, StickyTail]:
    word, inexact = result
    return RnFloat(fmt, word), _INEXACT if inexact else _EXACT


def fadd_with_sticky(a: RnFloat, b: RnFloat, mode: RoundingMode = RoundingMode.NEAREST) -> tuple[RnFloat, StickyTail]:
    fmt = _require_same_format(a, b)
    return _wrap(fmt, fadd_words(fmt, a.word, b.word, mode))


def fmul_with_sticky(a: RnFloat, b: RnFloat, mode: RoundingMode = RoundingMode.NEAREST) -> tuple[RnFloat, StickyTail]:
    fmt = _require_same_format(a, b)
    return _wrap(fmt, fmul_words(fmt, a.word, b.word, mode))


def fdiv_with_sticky(a: RnFloat, b: RnFloat, mode: RoundingMode = RoundingMode.NEAREST) -> tuple[RnFloat, StickyTail]:
    fmt = _require_same_format(a, b)
    return _wrap(fmt, fdiv_words(fmt, a.word, b.word, mode))
