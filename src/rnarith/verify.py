"""Verification sweeps: exhaustive checks of the library against the oracle.

Each sweep runs an operation over an enumerated space, judges its contract
in integer arithmetic on the raw fields (the float rounding contract is
:func:`rounding_fault` on the exact ``(n, d, k)`` triple of
:func:`_float_exact`), and returns a :class:`~rnarith.oracle.VerifyReport`.
No sweep builds a Fraction except to print a failure.  The fixed sweeps
call the ``fixed`` and ``core`` ops on the encoding integers
``x = 2*bits + round`` and build an ``RnFixed`` only to print a failure;
the divider sweep calls ``fixed.apply`` on literals, which it judges whole.
The float sweeps call the word ops (``floatarith.fadd_words`` and its
twins) on int words; the nearest add and mul sweeps call them once per
ordered pair and judge commutativity from the two results of each
unordered pair.  These back the tests and the ``verify`` command.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from . import fixed, floatarith as fa
from .core import (
    RnFixed,
    booth_recode,
    canonical_of_sd,
    negate,
    sd_of_canonical,
    truncate_at,
    validate_rn,
)
from .floatfmt import (
    RNF8,
    RNF16,
    FloatClass,
    FloatFormat,
    float_negate,
    pack,
    unpack,
    value_of_float,
)
from .oracle import (
    VerifyReport,
    check_space,
    enumerate_div_operands,
    enumerate_fixed,
    enumerate_format,
)

# ---------------------------------------------------------------------------
# independent float helpers (integers from raw fields; Fractions only for callers)


def _sig(fmt: FloatFormat, word: int) -> tuple[int, int, int]:
    """Two's complement significand word, round bit and scale of a word.

    The word's value is ``(w + r) * 2**(scale + 1 - p)``.  A normal word has
    its hidden bit (the complement of the sign) restored and scale
    ``e - bias``; a word with a zero exponent field has scale ``e_min``.
    """
    p = fmt.precision
    s = (word >> (fmt.total_bits - 1)) & 1
    e = (word >> p) & fmt.exp_mask
    f = (word >> 1) & ((1 << fmt.frac_bits) - 1)
    if e == 0:
        return f - (s << (p - 1)), word & 1, fmt.e_min
    return f + ((1 << (p - 1)) if s == 0 else -(1 << p)), word & 1, e - fmt.bias


def float_value(fmt: FloatFormat, word: int) -> Fraction | None:
    """Exact value of a finite word straight from the layout; None for
    infinities and NaNs."""
    units = _units(fmt, word)
    return None if units is None else _fraction((units, 1, fmt.e_min + 1 - fmt.precision))


def _units(fmt: FloatFormat, word: int) -> int | None:
    """A finite word's value as an integer in units of ``2**(e_min+1-p)``;
    None for infinities and NaNs."""
    w, r, scale = _sig(fmt, word)
    return None if scale > fmt.e_max else (w + r) << (scale - fmt.e_min)


def float_ulp(fmt: FloatFormat, word: int) -> Fraction:
    return Fraction(2) ** (_sig(fmt, word)[2] + 1 - fmt.precision)


def _value_class(fmt: FloatFormat, word: int) -> str:
    """nan, +inf, -inf, zero (any zero-valued spelling) or finite."""
    w, r, scale = _sig(fmt, word)
    if scale > fmt.e_max:  # all-ones exponent field: fraction and round bit tell NaN
        if word & ((1 << fmt.precision) - 1):
            return "nan"
        return "-inf" if (word >> (fmt.total_bits - 1)) & 1 else "+inf"
    return "zero" if w + r == 0 else "finite"


def representable(x: Fraction, fmt: FloatFormat) -> bool:
    """Can the format hold x exactly?"""
    n, d = abs(x.numerator), x.denominator  # a Fraction is already reduced
    if n == 0:
        return True
    if d & (d - 1):  # an odd factor is left in the denominator
        return False
    t = (n & -n).bit_length() - 1  # trailing zero bits of n
    n, k = n >> t, t - (d.bit_length() - 1)  # now |x| = n * 2**k, n odd
    e = n.bit_length() - 1 + k  # floor(log2(|x|))
    if e > fmt.e_max:
        return e == fmt.e_max + 1 and n == 1
    return k >= max(e, fmt.e_min) + 1 - fmt.precision


def _half_interval(fmt: FloatFormat, word: int) -> tuple[int, int]:
    """Low end and width (half the word's ulp) of a finite word's half-ulp
    interval, in units of ``2**(e_min-p)``."""
    w, r, scale = _sig(fmt, word)
    return (2 * w + r) << (scale - fmt.e_min), 1 << (scale - fmt.e_min)


def _div_exact(fmt: FloatFormat, word_a: int, word_b: int) -> tuple[int, int, int]:
    """``(n, d, k)`` with ``d > 0``: the quotient ``n/d * 2**k`` of the
    round-bit-extended, divider-normalized operands."""
    p = fmt.precision

    def prep(word: int) -> tuple[int, int]:
        """Signed extended word of the operand, normalized, and its scale."""
        w, r, scale = _sig(fmt, word)
        if w + r == 0:  # either spelling of zero, all ones included
            return 0, scale
        sign = 1
        if w + r < 0:
            w, r, sign = -w - 1, 1 - r, -1
        v = w + r
        if v == 1 << p:
            return sign * (1 << p), scale + 1  # extended word of the plain power
        k = p - v.bit_length()
        if k > 0:
            w = (w << k) | (r * ((1 << k) - 1))
            scale -= k
        if w == (1 << (p - 1)) - 1:
            w, r = 1 << (p - 1), 0
        return sign * (2 * w + r), scale

    na, ea = prep(word_a)
    nb, eb = prep(word_b)
    return (na, nb, ea - eb) if nb > 0 else (-na, -nb, ea - eb)


def _div_reference(fmt: FloatFormat, word_a: int, word_b: int) -> Fraction:
    """Quotient of the round-bit-extended, divider-normalized operands."""
    return _fraction(_div_exact(fmt, word_a, word_b))


def _fraction(exact: tuple[int, int, int] | None) -> Fraction | None:
    """The value of an exact ``(n, d, k)`` triple; None stays None."""
    return None if exact is None else Fraction(*exact[:2]) * Fraction(2) ** exact[2]


# ---------------------------------------------------------------------------
# fixed-point sweeps


def _text(x: int, width: int, lsb: int = 0) -> str:
    """The literal of encoding ``x``, for a failure line: at ``width`` bits,
    or wider when a faulty result does not fit them."""
    return str(RnFixed(x >> 1, max(width, (x >> 1).bit_length() + 1), x & 1, lsb))


def fixed_add_sweep(width: int, variant: str = "add") -> VerifyReport:
    """Value exactness and interval inclusion for add, add_alt and sub.

    Checks run on the encodings ``x = 2*bits + round``: values as
    ``(x + 1) >> 1`` ulps and half-ulp intervals as ``[x, x + 1]`` half
    ulps; ``-b``'s interval is ``[-b - 1, -b]``.
    """
    op = {"add": fixed.add, "add_alt": fixed.add_alt, "sub": fixed.sub}[variant]
    rep = VerifyReport(variant, f"width={width}")
    check_space(f"{rep.op} {rep.space}", 1, 2 * width + 2)
    encs = list(enumerate_fixed(width))
    sub = variant == "sub"
    for a in encs:
        va = (a + 1) >> 1
        for b in encs:
            rep.cases += 1
            out = op(a, b)
            vb = (b + 1) >> 1
            want = va - vb if sub else va + vb
            lo = a + (-b - 1 if sub else b)  # the operands' intervals add up to [lo, lo + 2]
            if (out + 1) >> 1 != want:
                fault = str(want)
            elif not lo <= out <= lo + 1:
                fault = "interval inclusion"
            else:
                continue
            rep.record(f"{_text(a, width)},{_text(b, width)}", fault, _text(out, width + 1))
    return rep.done()


def fixed_mul_sweep(width: int) -> VerifyReport:
    """Value exactness for all sign combinations; for nonnegative
    encodings, the result's ``[2*x, 2*x + 2]`` inside ``[a*b, (a+1)*(b+1)]``
    (quarter ulps), except for the all-zero pair: no zero encoding's
    interval fits inside [0, u*u/4]."""
    rep = VerifyReport("mul", f"width={width}")
    check_space(f"{rep.op} {rep.space}", 1, 2 * width + 2)
    encs = list(enumerate_fixed(width))
    for a in encs:
        va = (a + 1) >> 1
        for b in encs:
            rep.cases += 1
            out = fixed.mul(a, b)
            want = va * ((b + 1) >> 1)
            inside = a * b <= 2 * out and 2 * out + 2 <= (a + 1) * (b + 1)
            if (out + 1) >> 1 != want:
                fault = str(want)
            elif a >= 0 and b >= 0 and (a or b) and not inside:
                fault = "interval inclusion"
            else:
                continue
            rep.record(f"{_text(a, width)},{_text(b, width)}", fault, _text(out, 2 * width - 1))
    return rep.done()


def fixed_mul_sign_sweep(width: int) -> VerifyReport:
    """mul(a, b) == negate(mul(negate(a), b)) over every pair."""
    rep = VerifyReport("mul-sign", f"width={width}")
    check_space(f"{rep.op} {rep.space}", 1, 2 * width + 2)
    encs = list(enumerate_fixed(width))
    for a in encs:
        na = negate(a)
        for b in encs:
            rep.cases += 1
            lhs = fixed.mul(a, b)
            rhs = negate(fixed.mul(na, b))
            if lhs != rhs:
                rep.record(f"{_text(a, width)},{_text(b, width)}", _text(lhs, 2 * width - 1),
                           _text(rhs, 2 * width - 1))
    return rep.done()


def fixed_div_sweep(p: int) -> VerifyReport:
    """Divider contract over every scaled operand pair, through
    ``fixed.apply``.

    The delivered word and round bit must be the truncation of the exact
    quotient at the delivered grid, with the delivered width and lsb
    exponent (``quot == expect``), and the inexact flag must say whether
    the division left a remainder.  The paper's claim about a two-extra-bit
    approximation judges no library result, so it is tested on its own
    (acceptance criterion 3)."""
    rep = VerifyReport("div", f"p={p}")
    pairs = enumerate_div_operands(p)  # refuses an oversized p before 2**p is built
    g = 1 << (p + 2)  # the quotient is floored to steps of 1/g = u/4, u = 2**-p
    for x, y in pairs:
        rep.cases += 1
        # operands are n and d half-ulps; their quotient is q = n/d
        n = 2 * x.bits + x.round
        d = 2 * y.bits + y.round
        t_ref, rem_ref = divmod(n * g, d)
        quot, inexact = fixed.apply("/", x, y)
        s = int(n >= d)  # a quotient of at least one keeps one fractional bit fewer
        expect = RnFixed(t_ref >> (1 + s), p + 2, (t_ref >> s) & 1, s - p - 1)
        if quot != expect or inexact != (rem_ref != 0):
            rep.record(f"{x},{y}", "divider contract", str(quot))
    return rep.done()


def double_rounding_sweep(width: int) -> VerifyReport:
    """Truncating twice lands on the same bits as truncating once."""
    rep = VerifyReport("double-rounding", f"width={width}")
    # each encoding has width * (width + 1) / 2 pairs of truncation points
    check_space(f"{rep.op} {rep.space}", width * (width + 1), width)
    for x in enumerate_fixed(width):
        once = [truncate_at(x, k) for k in range(width)]  # each target, and each inner grid
        for j in range(width):
            for k in range(j, width):
                rep.cases += 1
                twice = truncate_at(once[j], k - j)
                if twice != once[k]:
                    rep.record(f"{_text(x, width)},j={j},k={k}", _text(once[k], width - k, k),
                               _text(twice, width - k, k))
    return rep.done()


def negation_sweep(max_width: int) -> VerifyReport:
    """Negation is an exact involution at every width."""
    rep = VerifyReport("negate", f"width<={max_width}")
    if max_width > 1:  # widths 2..max_width hold 2**(max_width + 2) - 8 encodings
        check_space(f"{rep.op} {rep.space}", 1, max_width + 2)
    for width in range(2, max_width + 1):
        for x in enumerate_fixed(width):
            rep.cases += 1
            nx = negate(x)
            if negate(nx) != x or (nx + 1) >> 1 != -((x + 1) >> 1):
                rep.record(_text(x, width), "negation", _text(nx, width))
    return rep.done()


def roundtrip_sweep(width: int) -> VerifyReport:
    """Every encoding's signed-digit view is a valid recoding of its value
    that converts back and carries its round bit.

    The digits sum to ``bits + round``; ``canonical_of_sd`` gives the
    encoding back (the plain zero word for either spelling of zero); and a
    nonzero value's round bit is 1 exactly when its last nonzero digit is
    +1."""
    rep = VerifyReport("roundtrip", f"width={width}")
    for e in enumerate_fixed(width):
        rep.cases += 1
        x = RnFixed(e >> 1, width, e & 1)
        sd = sd_of_canonical(x)
        value = x.bits + x.round
        ok = (
            validate_rn(sd)
            and sum(d << i for i, d in enumerate(reversed(sd.digits))) == value
            and canonical_of_sd(sd) == (x if value else RnFixed(0, width))
            and (value == 0 or x.round == (next(d for d in reversed(sd.digits) if d) == 1))
        )
        if not ok:
            rep.record(str(x), "round trip", str(sd))
    return rep.done()


# ---------------------------------------------------------------------------
# floating-point sweeps

_FLOAT_OPS = {
    "add": (fa.fadd_words, "fadd"),
    "mul": (fa.fmul_words, "fmul"),
    "div": (fa.fdiv_words, "fdiv"),
}


def _float_exact(fmt: FloatFormat, op: str, wa: int, wb: int,
                 va: int | None, vb: int | None) -> tuple[int, int, int] | None:
    """Exact ``a op b`` from the operands' ``_units`` as ``(n, d, k)``, meaning
    ``n/d * 2**k`` with ``d > 0``; None if not finite or divided by zero."""
    if va is None or vb is None:
        return None
    u = fmt.e_min + 1 - fmt.precision
    if op == "add":
        return va + vb, 1, u
    if op == "mul":
        return va * vb, 1, 2 * u
    return None if vb == 0 else _div_exact(fmt, wa, wb)


_NEAREST = fa.RoundingMode.NEAREST  # read once, as in floatarith

# whether each directed mode rounds up from an exact value, read as
# _ROUNDS_UP[mode][negative]: rz rounds toward zero, ra away from it
_ROUNDS_UP = {
    fa.RoundingMode.UPWARD: (True, True),
    fa.RoundingMode.DOWNWARD: (False, False),
    fa.RoundingMode.TOWARD_ZERO: (False, True),
    fa.RoundingMode.AWAY_FROM_ZERO: (True, False),
}
_DIRECTED_MODES = tuple(_ROUNDS_UP)  # ru, rd, rz, ra


def rounding_fault(fmt: FloatFormat, exact: tuple[int, int, int], mode: fa.RoundingMode,
                   word: int, inexact: bool) -> str | None:
    """The float rounding contract: None if ``word``, flagged ``inexact``,
    correctly rounds the ``_float_exact`` triple ``exact`` in ``mode``, else
    the first clause it breaks.  Every clause compares integers.

    Overflow: only the infinity of exact's sign, flagged inexact, and only
    when ``|exact| >= 2**(e_max+1)``.  Sticky flag: ``value != exact``, in
    every mode.  Nearest: within half an ulp, and the round bit set exactly
    when the value lies above ``exact``.  Directed: on the mode's side and
    less than an ulp away.

    The nearest clauses return a representable ``exact`` exactly
    (``tests/test_oracle.py::TestImpliedClauses``).
    """
    n, d, k = exact
    w, r, scale = _sig(fmt, word)
    if scale > fmt.e_max:  # all-ones exponent field
        ok = _value_class(fmt, word) == ("-inf" if n < 0 else "+inf") and inexact
        t = k - fmt.e_max - 1  # |exact| >= 2**(e_max+1) as |n| * 2**t >= d
        return None if ok and abs(n) << max(t, 0) >= d << max(-t, 0) else "overflow"
    # value - exact and the word's ulp 2**(k + s), as integers over d * 2**min(k, k + s)
    s = scale + 1 - fmt.precision - k
    ulp = d << s if s >= 0 else d
    diff = (w + r) * ulp - (n if s >= 0 else n << -s)
    if inexact != (diff != 0):
        return "sticky flag"
    if diff == 0:
        return None
    if mode is _NEAREST:
        if 2 * abs(diff) > ulp:
            return "half ulp"
        return "round-bit direction" if w + r != 0 and (r == 1) != (diff > 0) else None
    if (diff > 0) != _ROUNDS_UP[mode][n < 0]:  # n carries exact's sign
        return "directed side"
    return "one ulp" if abs(diff) >= ulp else None


def _operand_values(fmt: FloatFormat) -> list[int | None]:
    """Every operand word's ``_units`` value (None when not finite), indexed
    by the word; refuses a format whose operand pairs cannot be enumerated."""
    check_space(f"{fmt.name or 'format'} operand pairs", 1, 2 * fmt.total_bits)
    return [_units(fmt, w) for w in range(1 << fmt.total_bits)]


def _operand_pairs(fmt: FloatFormat) -> Iterator[tuple[int, int, int | None, int | None]]:
    """Every pair of operand words with both ``_units`` values (None when
    not finite)."""
    values = _operand_values(fmt)
    return (
        (wa, wb, va, vb)
        for wa, va in enumerate(values)
        for wb, vb in enumerate(values)
    )


def float_nearest_sweep(fmt: FloatFormat, op: str) -> VerifyReport:
    """Nearest mode over every operand pair: the rounding contract
    (``rounding_fault``) on every finite exact value, and commutativity for
    add and mul.

    Add and mul walk the unordered pairs ``a <= b`` and call the op once in
    each order, so ``n`` words cost ``n*n + n`` calls.  Each ordered pair is
    its own case, judged on its own word and sticky flag; both orders fail
    ``"commutative"`` when their words differ.  The exact value is the same
    in either order, so two equal results share one verdict."""
    func, name = _FLOAT_OPS[op]
    rep = VerifyReport(name, f"format={fmt.name}")
    if op == "div":
        for a, b, va, vb in _operand_pairs(fmt):
            if vb == 0:
                continue
            rep.cases += 1
            out, inexact = func(fmt, a, b)
            exact = _float_exact(fmt, op, a, b, va, vb)
            if exact is not None and (fault := rounding_fault(fmt, exact, _NEAREST, out, inexact)):
                rep.record(f"{a:#x},{b:#x}", f"{fault} ({_fraction(exact)})", f"{out:#x}")
        return rep.done()
    values = _operand_values(fmt)
    for a, va in enumerate(values):
        for b in range(a, len(values)):
            ab, ba = func(fmt, a, b), func(fmt, b, a)
            exact = _float_exact(fmt, op, a, b, va, values[b])
            if ab[0] != ba[0]:
                fault = fault_ba = "commutative"
            elif exact is None:
                fault = fault_ba = None
            else:
                fault = rounding_fault(fmt, exact, _NEAREST, *ab)
                fault_ba = fault if ba == ab else rounding_fault(fmt, exact, _NEAREST, *ba)
            rep.cases += 1
            if fault:
                rep.record(f"{a:#x},{b:#x}", f"{fault} ({_fraction(exact)})", f"{ab[0]:#x}")
            if a != b:
                rep.cases += 1
                if fault_ba:
                    rep.record(f"{b:#x},{a:#x}", f"{fault_ba} ({_fraction(exact)})", f"{ba[0]:#x}")
    return rep.done()


def float_directed_sweep(fmt: FloatFormat, op: str) -> VerifyReport:
    """Directed modes over every pair with a finite exact value: the
    rounding contract (``rounding_fault``) in each mode, and round-bit
    substitution.  The directed word is the nearest word when that is exact
    or not finite (overflow saturates in every mode); else the nearest word
    with bit 0 set when the mode rounds up (``_ROUNDS_UP``), starting from
    the all-ones zero for a nearest zero of a negative exact value, and a
    spelling of value 0 is the canonical zero."""
    func, name = _FLOAT_OPS[op]
    rep = VerifyReport(f"{name}-directed", f"format={fmt.name}")
    ones = (1 << (fmt.total_bits - 1)) | ((1 << fmt.precision) - 1)  # zero: all ones but the exponent
    # bit 0 of the substituted word in each directed mode, indexed by whether
    # the exact value is negative
    ups = [[_ROUNDS_UP[mode][negative] for mode in _DIRECTED_MODES] for negative in (False, True)]
    for a, b, va, vb in _operand_pairs(fmt):
        exact = _float_exact(fmt, op, a, b, va, vb)
        if exact is None:
            continue
        near, inexact = func(fmt, a, b)
        wants = (near,) * 4
        if inexact and (near >> fmt.precision) & fmt.exp_mask != fmt.exp_mask:
            base = ones - 1 if exact[0] < 0 and near in (0, ones) else near & ~1
            words = (base | up for up in ups[exact[0] < 0])
            wants = tuple(0 if word == ones else word for word in words)
        for mode, want in zip(_DIRECTED_MODES, wants):
            rep.cases += 1
            out, out_inexact = func(fmt, a, b, mode)
            fault = ("substitution" if out != want
                     else rounding_fault(fmt, exact, mode, out, out_inexact))
            if fault:
                rep.record(f"{a:#x},{b:#x},{mode.value}", f"{fault} ({_fraction(exact)})", f"{out:#x}")
    return rep.done()


# negation swaps ru and rd; rn, rz and ra map to themselves
_MIRROR = {fa.RoundingMode.UPWARD: fa.RoundingMode.DOWNWARD,
           fa.RoundingMode.DOWNWARD: fa.RoundingMode.UPWARD}


def float_sign_symmetry_sweep(fmt: FloatFormat, op: str,
                              mode: fa.RoundingMode = fa.RoundingMode.NEAREST) -> VerifyReport:
    """Negating the result is negating an operand, over every pair.

    ``add(-a, -b, m)`` and ``mul/div(-a, b, m)`` are compared with
    ``op(a, b, mirror(m))``, where the mirror swaps ru and rd.  A nonzero
    finite result must be the complement (``float_negate``) of the other bit
    for bit; a zero stays zero, an infinity flips its sign, a NaN stays a
    NaN, and the sticky flags agree.
    """
    func, name = _FLOAT_OPS[op]
    rep = VerifyReport(f"{name}-symmetry", f"format={fmt.name} mode={mode.value}")
    neg = [float_negate(fmt, w) for w in range(1 << fmt.total_bits)]
    mirror = _MIRROR.get(mode, mode)  # fixed for the sweep; an enum-keyed lookup costs ~0.2 us
    for a, b, _, _ in _operand_pairs(fmt):
        rep.cases += 1
        out, inexact = func(fmt, neg[a], neg[b] if op == "add" else b, mode)
        ref, ref_inexact = func(fmt, a, b, mirror)
        want = neg[ref]
        if _units(fmt, ref) in (None, 0):
            ok = _value_class(fmt, out) == _value_class(fmt, want)
        else:
            ok = out == want
        if not ok or inexact != ref_inexact:
            rep.record(f"{a:#x},{b:#x}", f"{want:#x}", f"{out:#x}")
    return rep.done()


def far_shortcut_sweep(fmt: FloatFormat) -> VerifyReport:
    """Shortcut soundness on every huge-gap pair.

    The result interval must stay inside the larger operand's interval plus
    the half-ulp bounding interval of the smaller side ([0, u/2] for a
    positive smaller operand, [-u/2, 0] for a negative one, u the larger
    operand's ulp).  Both bounds put the value within one ulp of the exact
    sum (``tests/test_oracle.py::TestImpliedClauses``).
    """
    rep = VerifyReport("far-shortcut", f"format={fmt.name}")
    for a, b, va, vb in _operand_pairs(fmt):
        if va in (None, 0) or vb in (None, 0):
            continue
        if _sig(fmt, a)[2] <= _sig(fmt, b)[2] + fmt.precision:
            continue
        rep.cases += 1
        out = fa.far_shortcut(fmt, a, b)
        # half is u/2 in the intervals' units of 2**(e_min-p)
        lo_r, width_r = _half_interval(fmt, out)
        lo_a, half = _half_interval(fmt, a)
        lo_b, hi_b = (0, half) if vb > 0 else (-half, 0)
        if not (lo_a + lo_b <= lo_r and lo_r + width_r <= lo_a + half + hi_b):
            rep.record(f"{a:#x},{b:#x}", "shortcut soundness", f"{out:#x}")
    return rep.done()


def float_negate_sweep(fmt: FloatFormat) -> VerifyReport:
    """Negation by bit inversion: value antisymmetry, involution up to the
    canonical zero."""
    rep = VerifyReport("float-negate", f"format={fmt.name}")
    flipped = {"nan": "nan", "+inf": "-inf", "-inf": "+inf"}
    for word in enumerate_format(fmt):
        rep.cases += 1
        v = _units(fmt, word)
        out = float_negate(fmt, word)
        if v is None:
            ok = _value_class(fmt, out) == flipped[_value_class(fmt, word)]
        else:
            ok = _units(fmt, out) == -v
            if ok:
                back = float_negate(fmt, out)
                ok = back == word if v != 0 else _units(fmt, back) == 0
        if not ok:
            rep.record(f"{word:#x}", "negation", f"{out:#x}")
    return rep.done()


def pack_unpack_sweep(fmt: FloatFormat) -> VerifyReport:
    """Bit-exact pack/unpack round trip and value-formula agreement over the
    whole word space."""
    rep = VerifyReport("pack-unpack", f"format={fmt.name}")
    for word in enumerate_format(fmt):
        rep.cases += 1
        u = unpack(fmt, word)
        if pack(u) != word:
            rep.record(f"{word:#x}", "round trip", str(u))
            continue
        v = value_of_float(fmt, word)
        units = _units(fmt, word)
        e = fmt.e_min + 1 - fmt.precision  # units count 2**e; compare at the lower exponent
        if units is None:
            want = FloatClass.NAN if _value_class(fmt, word) == "nan" else FloatClass.INFINITY
            if v is not want:
                rep.record(f"{word:#x}", str(want), str(v))
        elif isinstance(v, FloatClass) or v.mantissa << max(v.exp - e, 0) != units << max(e - v.exp, 0):
            rep.record(f"{word:#x}", str(float_value(fmt, word)), str(v))
    return rep.done()


# ---------------------------------------------------------------------------
# pinned worked examples


def pinned_examples() -> VerifyReport:
    """The worked conversion, truncation, product and identity vectors."""
    rep = VerifyReport("examples", "pinned")

    def check(name: str, ok: bool, got: str = "") -> None:
        rep.cases += 1
        if not ok:
            rep.record(name, "pinned vector", got)

    sd = booth_recode(-718, 12)
    check("booth-recode", sd.digits == (0, -1, 1, -1, 0, 1, 0, -1, 0, 1, -1, 0), str(sd))

    # encodings x = 2*bits + round: value (x + 1) >> 1 ulps, interval [x, x + 1] half ulps
    trunc = truncate_at(2 * -718, 2)
    check("truncate", trunc == 2 * -180 + 1, _text(trunc, 10, 2))
    check("truncate-value", ((trunc + 1) >> 1) << 2 == -716, _text(trunc, 10, 2))

    a, b = 2 * 11 + 1, 2 * 9 + 1  # 12 and 10, each with its round bit set
    prod = fixed.mul(a, b)
    check("product", prod == 2 * 119 + 1, _text(prod, 9))
    check("product-interval", (prod, prod + 1) == (239, 240), _text(prod, 9))
    # quarter ulps: [2*prod, 2*prod + 2] inside [a*b, (a+1)*(b+1)]
    check("product-inclusion", a * b <= 2 * prod and 2 * prod + 2 <= (a + 1) * (b + 1))

    for x in enumerate_fixed(8):
        s = fixed.add(x, 0)
        check("add-zero", s == x, _text(s, 9))
        d = fixed.sub(x, x)
        check("sub-self", d == -1, _text(d, 9))
    return rep.done()


SUITES = {
    "paper-examples": lambda: [pinned_examples()],
    "fixed-add": lambda width=8: [fixed_add_sweep(width, "add")],
    "fixed-add-alt": lambda width=8: [fixed_add_sweep(width, "add_alt")],
    "fixed-sub": lambda width=8: [fixed_add_sweep(width, "sub")],
    "fixed-mul": lambda width=6: [fixed_mul_sweep(width), fixed_mul_sign_sweep(width)],
    "fixed-div": lambda width=3: [fixed_div_sweep(width)],
    "fixed-roundtrip": lambda width=10: [roundtrip_sweep(width)],
    "fixed-truncate": lambda width=12: [double_rounding_sweep(width)],
    "fixed-negate": lambda width=12: [negation_sweep(width)],
    "float-add": lambda fmt=RNF8: [float_nearest_sweep(fmt, "add")],
    "float-mul": lambda fmt=RNF8: [float_nearest_sweep(fmt, "mul")],
    "float-div": lambda fmt=RNF8: [float_nearest_sweep(fmt, "div")],
    "float-directed": lambda fmt=RNF8: [
        float_directed_sweep(fmt, op) for op in ("add", "mul", "div")
    ],
    "float-symmetry": lambda fmt=RNF8: [
        float_sign_symmetry_sweep(fmt, op) for op in ("add", "mul", "div")
    ],
    "float-shortcut": lambda fmt=RNF8: [far_shortcut_sweep(fmt)],
    "float-negate": lambda fmt=RNF8: [float_negate_sweep(fmt)],
    "float-roundtrip": lambda fmt=RNF16: [pack_unpack_sweep(fmt)],
}
# every other float-* suite, on one format
SUITES["float-all"] = lambda fmt=RNF8: [
    rep for name, run in SUITES.items()
    if name.startswith("float-") and name != "float-all"
    for rep in run(fmt=fmt)
]
