"""Floating-point add, multiply and divide on round-bit encoded words.

Words in, ``(word, inexact)`` out: ``fadd_words``, ``fmul_words`` and
``fdiv_words`` take a format and two int words and return the result word
and a bool that says whether it is inexact; ``round_to_format`` rounds an
exact rational into the same shape, and ``far_shortcut`` maps two words to
one.  Callers holding ``RnFloat``s pass ``.word`` and wrap the result only
to print it.

Every op forms its exact result and rounds it once, in ``_deliver``, on
the encoding integer ``x = 2*w + r`` of word and round bit: the magnitude
is truncated by one shift (so results are within half an ulp of the exact
value and the round bit reports the rounding direction), a negative result
is the complement ``~x`` of the positive one, and the result word's low p
bits are those of ``x``.

Each operand is read once, from its raw fields (``floatfmt.decode``), as
the same encoding integer ``x``: a finite operand's value is ``(x + 1) >>
1`` times a power of two, and the result word is written directly from its
fields.  Each public op decodes its words and passes them with their
``decode`` tuples to its body (``_fadd``, ``_fmul``, ``_fdiv``), which the
verifier's sweeps call on one decode list per format.  Add and multiply
are exact on these integer values: add aligns them by shifting, multiply
multiplies them.  Division's reference value is the quotient of the
operands' ``x`` themselves (the midpoints of their half-ulp intervals),
each complemented when negative and scaled by ``fixed.shift_left`` into
one binade; ``round_to_format`` cuts it, as every rational, by
``fixed.long_divide`` to ``p + 3`` bits and a sticky bit.

Directed roundings never increment: when the truncated tail was nonzero
bit 0 of ``x``, the round bit, is simply replaced according to the mode.

The ``RnFloat`` shims at the end of the module serve only the benchmark.
"""

from __future__ import annotations

from enum import Enum

from .core import _set, _Value
from .fixed import long_divide, shift_left
from .floatfmt import _INFINITY, _NAN, FloatFormat, RnFloat, _assemble, decode


class RoundingMode(Enum):
    NEAREST = "rn"          # truncation; no adjustment
    UPWARD = "ru"           # toward +inf
    DOWNWARD = "rd"         # toward -inf
    TOWARD_ZERO = "rz"
    AWAY_FROM_ZERO = "ra"

    # hashed by identity, as members compare: a mode-keyed lookup then skips
    # Enum.__hash__, which hashes the member's name on every call
    __hash__ = object.__hash__


# read once: a member read through its enum class is a slow lookup (about
# 0.1 us on CPython 3.11), and the sink tests the mode on every result
_NEAREST = RoundingMode.NEAREST

# the round bit of an inexact result in each directed mode, by sign bit
_DIRECTED_BIT = {RoundingMode.UPWARD: (1, 1), RoundingMode.DOWNWARD: (0, 0),
                 RoundingMode.TOWARD_ZERO: (0, 1), RoundingMode.AWAY_FROM_ZERO: (1, 0)}


def _deliver(num: int, g: int, fmt: FloatFormat, mode: RoundingMode) -> tuple[int, bool]:
    """Round the value ``num * 2**g`` into the format: the result word and
    whether it differs from the value.

    One truncation, a shift, puts the magnitude onto the target grid as the
    encoding integer ``x = 2*w + r``, word and round bit in one (a
    quotient's lowest bit, its sticky bit, always drops).  A negative result
    is then ``~x``, as negation is in the encoding: nearest ties round away
    from zero and exact negative results carry the round bit.  A directed
    mode replaces bit 0 of ``x``.  A zero keeps this spelling too, the
    all-ones zero ``~0`` when negative; only an exact zero is the word 0.
    Overflow saturates to infinity, except that the exactly representable
    edge magnitude 2**(e_max+1) is the all-ones word with the round bit set
    at e_max.
    """
    if num == 0:
        return 0, False
    p = fmt.precision
    sign = 1 if num < 0 else 0
    mag = -num if sign else num
    e_val = mag.bit_length() - 1 + g
    e_max = fmt.e_max
    if e_val > e_max + 1:
        return fmt.inf_words[sign], True
    if e_val < fmt.e_min:
        e_tgt = fmt.e_min
    elif e_val > e_max:
        e_tgt = e_max
    else:
        e_tgt = e_val
    s = g + p - e_tgt  # the round bit's source position weighs 2**(e_tgt - p)
    if s >= 0:
        x, rem = mag << s, 0
    else:
        x = mag >> -s
        rem = mag - (x << -s)  # x is 0 whenever -s is past the top bit
    inexact = x & 1 == 1 or rem != 0
    if e_val > e_max:
        # beyond e_max only the exact edge is finite: all-ones word, r=1
        if x != 1 << (p + 1) or inexact:
            return fmt.inf_words[sign], True
        x -= 1
    if sign:
        x = ~x
    if inexact and mode is not _NEAREST:
        x = (x & ~1) | _DIRECTED_BIT[mode][sign]
    biased_exp = 0 if e_val < fmt.e_min else e_tgt + fmt.bias
    return _assemble(fmt, sign, biased_exp, x & fmt.low_mask), inexact


def round_to_format(exact: tuple[int, int, int], fmt: FloatFormat, mode: RoundingMode = RoundingMode.NEAREST) -> tuple[int, bool]:
    """``exact = (n, d, k)``, the value ``n/d * 2**k`` with ``d > 0``, rounded
    into ``fmt``: the word and whether it is inexact.  ``long_divide`` hands
    the sink ``p + 3`` bits of ``|n|/d`` and a sticky bit; ``k`` is a shift."""
    n, d, k = exact
    q2, j = long_divide(abs(n), d, fmt.precision + 3)
    return _deliver(-q2 if n < 0 else q2, k - j - 1, fmt, mode)


def fadd_words(fmt: FloatFormat, a: int, b: int, mode: RoundingMode = RoundingMode.NEAREST) -> tuple[int, bool]:
    """Sum of two words of ``fmt``: the result word and whether it is inexact."""
    return _fadd(fmt, a, b, mode, decode(fmt, a), decode(fmt, b))


def _fadd(fmt: FloatFormat, a: int, b: int, mode: RoundingMode, da: tuple, db: tuple) -> tuple[int, bool]:
    """``fadd_words`` on words ``a`` and ``b`` whose ``decode`` tuples are
    ``da`` and ``db``; a zero operand returns the other word unchanged."""
    ca, sa, xa, ea = da
    cb, sb, xb, eb = db
    if ca is _NAN or cb is _NAN:
        return fmt.nan_word, False
    if ca is _INFINITY and cb is _INFINITY:
        if sa != sb:
            return fmt.nan_word, False
        return fmt.inf_words[sa], False
    if ca is _INFINITY:
        return fmt.inf_words[sa], False
    if cb is _INFINITY:
        return fmt.inf_words[sb], False
    ma, mb = (xa + 1) >> 1, (xb + 1) >> 1
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
    ca, _, _, ea = decode(fmt, a)
    cb, sb, xb, eb = decode(fmt, b)
    if _NAN in (ca, cb) or _INFINITY in (ca, cb):
        raise ValueError("shortcut expects finite operands")
    if xb in (0, -1):
        raise ValueError("shortcut expects a nonzero smaller operand")
    if ea <= eb + fmt.precision:
        raise ValueError("shortcut requires the gap to exceed the precision")
    return (a & ~1) | (1 - sb)


def fmul_words(fmt: FloatFormat, a: int, b: int, mode: RoundingMode = RoundingMode.NEAREST) -> tuple[int, bool]:
    """Product of two words of ``fmt``: the result word and whether it is inexact."""
    return _fmul(fmt, a, b, mode, decode(fmt, a), decode(fmt, b))


def _fmul(fmt: FloatFormat, a: int, b: int, mode: RoundingMode, da: tuple, db: tuple) -> tuple[int, bool]:
    """``fmul_words`` on words whose ``decode`` tuples are ``da`` and ``db``."""
    ca, sa, xa, ea = da
    cb, sb, xb, eb = db
    if ca is _NAN or cb is _NAN:
        return fmt.nan_word, False
    ma, mb = (xa + 1) >> 1, (xb + 1) >> 1
    if ca is _INFINITY or cb is _INFINITY:
        other_cls, other_m = (cb, mb) if ca is _INFINITY else (ca, ma)
        if other_cls is not _INFINITY and other_m == 0:
            return fmt.nan_word, False
        return fmt.inf_words[sa ^ sb], False
    return _deliver(ma * mb, ea + eb + 2 - 2 * fmt.precision, fmt, mode)


def _divider_word(x: int, e: int, p: int) -> tuple[int, int]:
    """The significand integer of a nonzero finite operand's absolute value
    in ``[2**p, 2**(p+1))``, and its scale, from ``x`` and ``e`` as
    ``decode`` gives them and the precision ``p``.

    Value-preserving: a negative ``x`` is complemented, a subnormal one
    scaled up by ``fixed.shift_left``, and one whose successor is a power of
    two (all ones: the boundary spelling of an exact power) becomes that
    power, halved at the next scale when it reaches ``2**(p+1)``.
    """
    if x < 0:
        x = ~x
    k = p + 1 - (x + 1).bit_length()
    if k > 0:
        x, e = shift_left(x, k), e - k
    if x & (x + 1) == 0:
        x += 1
        if x >> (p + 1):
            return x >> 1, e + 1
    return x, e


def fdiv_words(fmt: FloatFormat, a: int, b: int, mode: RoundingMode = RoundingMode.NEAREST) -> tuple[int, bool]:
    """Quotient of two words of ``fmt``: the result word and whether it is inexact."""
    return _fdiv(fmt, a, b, mode, decode(fmt, a), decode(fmt, b))


def _fdiv(fmt: FloatFormat, a: int, b: int, mode: RoundingMode, da: tuple, db: tuple) -> tuple[int, bool]:
    """``fdiv_words`` on words whose ``decode`` tuples are ``da`` and ``db``."""
    ca, sa, xa, ea = da
    cb, sb, xb, eb = db
    if ca is _NAN or cb is _NAN:
        return fmt.nan_word, False
    sign = sa ^ sb
    if ca is _INFINITY:
        if cb is _INFINITY:
            return fmt.nan_word, False
        return fmt.inf_words[sign], False
    if cb is _INFINITY:
        return 0, False
    a_zero, b_zero = xa in (0, -1), xb in (0, -1)
    if a_zero and b_zero:
        return fmt.nan_word, False
    if b_zero:
        return fmt.inf_words[sign], False
    if a_zero:
        return 0, False
    p = fmt.precision
    na, ea = _divider_word(xa, ea, p)
    nb, eb = _divider_word(xb, eb, p)
    # reference value: quotient of the operands' encoding integers
    return round_to_format((-na if sign else na, nb, ea - eb), fmt, mode)


# ---------------------------------------------------------------------------
# RnFloat shims.  Nothing in the package calls them; they stay only because
# the benchmark under ``perfbench/`` calls, traces and pins them.  Once the
# benchmark calls the word ops (ROADMAP item 1, step 2), this block goes.


class StickyTail(_Value):
    """Whether anything nonzero was discarded by the final truncation.

    ``nonzero`` False means the delivered value equals the exact result.
    """

    __slots__ = _fields = ("nonzero",)

    def __init__(self, nonzero: bool) -> None:
        _set(self, "nonzero", nonzero)


# every result shares one of these two; StickyTail is immutable
_EXACT = StickyTail(False)
_INEXACT = StickyTail(True)


def _shim(op, a: RnFloat, b: RnFloat, mode: RoundingMode) -> tuple[RnFloat, StickyTail]:
    """``op``, a word op, on two floats of one format, its result wrapped."""
    fmt = a.fmt
    if fmt is not b.fmt and fmt != b.fmt:
        raise ValueError("operands must share a format")
    word, inexact = op(fmt, a.word, b.word, mode)
    return RnFloat(fmt, word), _INEXACT if inexact else _EXACT


def fadd_with_sticky(a: RnFloat, b: RnFloat, mode: RoundingMode = RoundingMode.NEAREST) -> tuple[RnFloat, StickyTail]:
    return _shim(fadd_words, a, b, mode)


def fmul_with_sticky(a: RnFloat, b: RnFloat, mode: RoundingMode = RoundingMode.NEAREST) -> tuple[RnFloat, StickyTail]:
    return _shim(fmul_words, a, b, mode)


def fdiv_with_sticky(a: RnFloat, b: RnFloat, mode: RoundingMode = RoundingMode.NEAREST) -> tuple[RnFloat, StickyTail]:
    return _shim(fdiv_words, a, b, mode)
