"""Floating-point add, multiply and divide on round-bit encoded words.

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
midpoints of their half-ulp intervals), which is what the fixed-point
divider sees.  The fixed-point layer (``fixed``) serves the CLI's
fixed-point operators and their sweeps, not these ops.

Directed roundings never increment: when the truncated tail was nonzero the
round bit is simply replaced according to the mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .core import DyadicRational
from .floatfmt import FloatClass, FloatFormat, RnFloat, _assemble, decode


class RoundingMode(Enum):
    NEAREST = "rn"          # truncation; no adjustment
    UPWARD = "ru"           # toward +inf
    DOWNWARD = "rd"         # toward -inf
    TOWARD_ZERO = "rz"
    AWAY_FROM_ZERO = "ra"


@dataclass(frozen=True)
class StickyTail:
    """Whether anything nonzero was discarded by the final truncation.

    ``nonzero`` False means the delivered value equals the exact result.
    """

    nonzero: bool


# every result shares one of these two; StickyTail is frozen
_EXACT = StickyTail(False)
_INEXACT = StickyTail(True)


def directed_round_bit(rbit: int, sign_bit: int, t: StickyTail, mode: RoundingMode) -> int:
    """Round-bit substitution table for the directed modes.

    Applies only when the truncated tail was nonzero; exact results pass
    through every mode unchanged.
    """
    if not t.nonzero or mode is RoundingMode.NEAREST:
        return rbit
    if mode is RoundingMode.UPWARD:
        return 1
    if mode is RoundingMode.DOWNWARD:
        return 0
    if mode is RoundingMode.TOWARD_ZERO:
        return sign_bit
    return 1 - sign_bit


def _require_same_format(a: RnFloat, b: RnFloat) -> FloatFormat:
    if a.fmt is not b.fmt and a.fmt != b.fmt:
        raise ValueError("operands must share a format")
    return a.fmt


def _floor_log2_ratio(num: int, den: int) -> int:
    """floor(log2(num/den)) for positive num, den."""
    k = num.bit_length() - den.bit_length()
    if k >= 0:
        return k if num >= (den << k) else k - 1
    return k if (num << -k) >= den else k - 1


def _deliver(num: int, den: int, g: int, fmt: FloatFormat, mode: RoundingMode) -> tuple[RnFloat, StickyTail]:
    """Round the exact value ``num/den * 2**g`` (den > 0) into the format.

    One floor division truncates the magnitude onto the target grid, giving
    word and round bit.  A negative result is then the complement of both,
    as negation is in the encoding: nearest ties round away from zero and
    exact negative results carry the round bit.  Overflow saturates to
    infinity, except that the exactly representable edge magnitude
    2**(e_max+1) is the all-ones word with the round bit set at e_max.
    """
    p = fmt.precision
    if num == 0:
        return fmt.zero(), _EXACT
    sign = 1 if num < 0 else 0
    mag = -num if sign else num
    e_val = _floor_log2_ratio(mag, den) + g
    if e_val > fmt.e_max + 1:
        return fmt.inf(sign), _INEXACT
    e_tgt = min(max(e_val, fmt.e_min), fmt.e_max)
    s = g + p - e_tgt  # the round bit's source position weighs 2**(e_tgt - p)
    if s >= 0:
        t2, rem = divmod(mag << s, den)
    else:
        # any shift past the magnitude's top bit truncates it to 0 alike
        t2, rem = divmod(mag, den << min(-s, mag.bit_length() + 1))
    sticky = _INEXACT if t2 & 1 or rem else _EXACT
    if e_val > fmt.e_max:
        # beyond e_max only the exact edge is finite: all-ones word, r=1
        if t2 != 1 << (p + 1) or sticky.nonzero:
            return fmt.inf(sign), _INEXACT
        t2 -= 1
    w, r = t2 >> 1, t2 & 1
    if sign:
        w, r = ~w, 1 - r
    r = directed_round_bit(r, sign, sticky, mode)
    if w + r == 0:  # only a subnormal result can truncate to zero
        return fmt.zero(), sticky
    biased_exp = 0 if e_val < fmt.e_min else e_tgt + fmt.bias
    return _assemble(fmt, sign, biased_exp, w & ((1 << (p - 1)) - 1), r), sticky


def round_to_format(value: Fraction | DyadicRational, fmt: FloatFormat, mode: RoundingMode = RoundingMode.NEAREST) -> tuple[RnFloat, StickyTail]:
    """Round an exact rational into a packed word, reporting inexactness.

    A ``DyadicRational`` reaches the sink as ``mantissa * 2**exp``, so a huge
    exponent is never expanded into an integer."""
    if isinstance(value, DyadicRational):
        return _deliver(value.mantissa, 1, value.exp, fmt, mode)
    return _deliver(value.numerator, value.denominator, 0, fmt, mode)


def fadd_with_sticky(a: RnFloat, b: RnFloat, mode: RoundingMode = RoundingMode.NEAREST) -> tuple[RnFloat, StickyTail]:
    fmt = _require_same_format(a, b)
    ca, sa, wa, ra, ea = decode(fmt, a.word)
    cb, sb, wb, rb, eb = decode(fmt, b.word)
    if ca is FloatClass.NAN or cb is FloatClass.NAN:
        return fmt.nan(), _EXACT
    if ca is FloatClass.INFINITY and cb is FloatClass.INFINITY:
        if sa != sb:
            return fmt.nan(), _EXACT
        return fmt.inf(sa), _EXACT
    if ca is FloatClass.INFINITY:
        return fmt.inf(sa), _EXACT
    if cb is FloatClass.INFINITY:
        return fmt.inf(sb), _EXACT
    ma, mb = wa + ra, wb + rb
    if ma == 0 and mb == 0:
        return fmt.zero(), _EXACT
    if ma == 0:
        return b, _EXACT
    if mb == 0:
        return a, _EXACT
    e = min(ea, eb)
    return _deliver((ma << (ea - e)) + (mb << (eb - e)), 1, e + 1 - fmt.precision, fmt, mode)


def fadd(a: RnFloat, b: RnFloat, mode: RoundingMode = RoundingMode.NEAREST) -> RnFloat:
    """Correctly truncation-rounded sum; commutative bit-for-bit."""
    return fadd_with_sticky(a, b, mode)[0]


def far_shortcut(a: RnFloat, b: RnFloat) -> RnFloat:
    """Huge-gap sum without forming it: keep the larger operand's word and
    force its round bit to the complement of the smaller operand's sign.

    Sound in the interval sense: the result's half-ulp interval stays inside
    the sum of the operand intervals.  Requires the gap to exceed the
    significand digit count, with the smaller operand finite and nonzero.
    """
    fmt = _require_same_format(a, b)
    ca, _, _, _, ea = decode(fmt, a.word)
    cb, sb, wb, rb, eb = decode(fmt, b.word)
    if FloatClass.NAN in (ca, cb) or FloatClass.INFINITY in (ca, cb):
        raise ValueError("shortcut expects finite operands")
    if wb + rb == 0:
        raise ValueError("shortcut expects a nonzero smaller operand")
    if ea <= eb + fmt.precision:
        raise ValueError("shortcut requires the gap to exceed the precision")
    return RnFloat(fmt, (a.word & ~1) | (1 - sb))


def fmul_with_sticky(a: RnFloat, b: RnFloat, mode: RoundingMode = RoundingMode.NEAREST) -> tuple[RnFloat, StickyTail]:
    fmt = _require_same_format(a, b)
    ca, sa, wa, ra, ea = decode(fmt, a.word)
    cb, sb, wb, rb, eb = decode(fmt, b.word)
    if ca is FloatClass.NAN or cb is FloatClass.NAN:
        return fmt.nan(), _EXACT
    sign = sa ^ sb
    ma, mb = wa + ra, wb + rb
    if ca is FloatClass.INFINITY or cb is FloatClass.INFINITY:
        other_cls, other_m = (cb, mb) if ca is FloatClass.INFINITY else (ca, ma)
        if other_cls is not FloatClass.INFINITY and other_m == 0:
            return fmt.nan(), _EXACT
        return fmt.inf(sign), _EXACT
    if ma == 0 or mb == 0:
        return fmt.zero(), _EXACT
    return _deliver(ma * mb, 1, ea + eb + 2 - 2 * fmt.precision, fmt, mode)


def fmul(a: RnFloat, b: RnFloat, mode: RoundingMode = RoundingMode.NEAREST) -> RnFloat:
    """Correctly truncation-rounded product; commutative bit-for-bit."""
    return fmul_with_sticky(a, b, mode)[0]


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


def fdiv_with_sticky(a: RnFloat, b: RnFloat, mode: RoundingMode = RoundingMode.NEAREST) -> tuple[RnFloat, StickyTail]:
    fmt = _require_same_format(a, b)
    ca, sa, wa, ra, ea = decode(fmt, a.word)
    cb, sb, wb, rb, eb = decode(fmt, b.word)
    if ca is FloatClass.NAN or cb is FloatClass.NAN:
        return fmt.nan(), _EXACT
    sign = sa ^ sb
    if ca is FloatClass.INFINITY:
        if cb is FloatClass.INFINITY:
            return fmt.nan(), _EXACT
        return fmt.inf(sign), _EXACT
    if cb is FloatClass.INFINITY:
        return fmt.zero(), _EXACT
    a_zero, b_zero = wa + ra == 0, wb + rb == 0
    if a_zero and b_zero:
        return fmt.nan(), _EXACT
    if b_zero:
        return fmt.inf(sign), _EXACT
    if a_zero:
        return fmt.zero(), _EXACT
    p = fmt.precision
    na, ea = _divider_word(wa, ra, ea, p)
    nb, eb = _divider_word(wb, rb, eb, p)
    # reference value: quotient of the round-bit-extended operand words
    return _deliver(-na if sign else na, nb, ea - eb, fmt, mode)


def fdiv(a: RnFloat, b: RnFloat, mode: RoundingMode = RoundingMode.NEAREST) -> RnFloat:
    """Quotient of the normalized, round-bit-extended significands."""
    return fdiv_with_sticky(a, b, mode)[0]
