"""Verification sweeps: exhaustive checks of the library against the oracle.

Each sweep runs an operation over an enumerated space, judges its contract
in integer arithmetic on the raw fields (the float rounding contract is
:func:`rounding_fault` on the exact ``(n, d, k)`` triple of
:func:`_float_exact`), and returns a :class:`~rnarith.oracle.VerifyReport`.
No sweep builds a Fraction except to print a failure.  The fixed sweeps,
the divider and the signed-digit views included, call the ``fixed`` and
``core`` ops on the encoding integers ``x = 2*bits + round`` and build an
``RnFixed`` only to print a failure.  Their inner loops do only per-case
work, one op call and its checks: the add and mul sweeps read operand
values from a list built once per sweep, and the pair and grid sweeps count
their cases once per row.  The float sweeps call the word ops'
bodies (``floatarith._fadd`` and its twins) on int words and their
``decode`` tuples, from one list per sweep of every word's; the nearest
add and mul sweeps call them once per ordered pair and judge
commutativity from the two results of each unordered pair.  Each float
sweep that judges values also decodes each word once, by its own field
reading, into the same kind of integer ``x = 2*w + r`` (``_sig``): it
builds ``_word_table`` (value, ``_sig`` pair, divider operand) when it
starts, judges each result through ``_judge`` on its entry, and forms a
quotient from two entries; the symmetry sweep compares words and builds no
``_word_table``.  These back the tests and the ``verify`` command.
"""

from __future__ import annotations

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
    decode,
    float_negate,
    pack,
    unpack,
    value_of_float,
)
from .oracle import (
    VerifyReport,
    check_inclusion,
    check_space,
    enumerate_div_operands,
    enumerate_fixed,
    enumerate_format,
)

# ---------------------------------------------------------------------------
# independent float helpers (integers from raw fields; Fractions only for callers)


def _sig(fmt: FloatFormat, word: int) -> tuple[int, int]:
    """Significand integer ``x = 2*w + r`` (word and round bit) and scale.

    The word's value is ``((x + 1) >> 1) * 2**(scale + 1 - p)``.  A normal
    word has its hidden bit (the complement of the sign) restored and scale
    ``e - bias``; a word with a zero exponent field has scale ``e_min``.
    """
    p = fmt.precision
    s = (word >> (fmt.total_bits - 1)) & 1
    e = (word >> p) & fmt.exp_mask
    low = word & ((1 << p) - 1)  # fraction and round bit
    if e == 0:
        return low - (s << p), fmt.e_min
    return low + ((1 << p) if s == 0 else -(2 << p)), e - fmt.bias


def float_value(fmt: FloatFormat, word: int) -> Fraction | None:
    """Exact value of a finite word straight from the layout; None for
    infinities and NaNs."""
    units = _units(fmt, word)
    return None if units is None else _fraction((units, 1, fmt.e_min + 1 - fmt.precision))


def _units(fmt: FloatFormat, word: int) -> int | None:
    """A finite word's value as an integer in units of ``2**(e_min+1-p)``;
    None for infinities and NaNs."""
    return _sig_units(fmt, _sig(fmt, word))


def _sig_units(fmt: FloatFormat, sig: tuple[int, int]) -> int | None:
    """``_units`` of the word whose ``_sig`` pair is ``sig``."""
    x, scale = sig
    return None if scale > fmt.e_max else ((x + 1) >> 1) << (scale - fmt.e_min)


def float_ulp(fmt: FloatFormat, word: int) -> Fraction:
    from fractions import Fraction  # here and in _fraction only: importing the verifier loads no fractions
    return Fraction(2) ** (_sig(fmt, word)[1] + 1 - fmt.precision)


def _value_class(fmt: FloatFormat, word: int) -> str:
    """nan, +inf, -inf, zero (any zero-valued spelling) or finite."""
    x, scale = _sig(fmt, word)
    if scale > fmt.e_max:  # all-ones exponent field: fraction and round bit tell NaN
        if word & ((1 << fmt.precision) - 1):
            return "nan"
        return "-inf" if (word >> (fmt.total_bits - 1)) & 1 else "+inf"
    return "zero" if (x + 1) >> 1 == 0 else "finite"


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


def _half_interval(fmt: FloatFormat, sig: tuple[int, int]) -> tuple[int, int]:
    """Low end and width (half the word's ulp) of the half-ulp interval of a
    finite word whose ``_sig`` pair is ``sig``, in units of
    ``2**(e_min-p)``."""
    x, scale = sig
    return x << (scale - fmt.e_min), 1 << (scale - fmt.e_min)


def _div_operand(fmt: FloatFormat, sig: tuple[int, int]) -> tuple[int, int]:
    """The divider's operand for a word whose ``_sig`` pair is ``sig``: its
    signed significand integer, normalized, and its scale."""
    p = fmt.precision
    x, scale = sig
    v = (x + 1) >> 1
    if v == 0:  # either spelling of zero, all ones included
        return 0, scale
    sign = 1
    if v < 0:
        x, v, sign = -x - 1, -v, -1
    if v == 1 << p:
        return sign * (1 << p), scale + 1  # the plain power's integer
    k = p - v.bit_length()
    if k > 0:  # the word moves up k bits, copies of the round bit fill in
        x = ((x >> 1) << (k + 1)) | ((x & 1) * ((2 << k) - 1))
        scale -= k
    if x == (1 << p) - 1:
        x = 1 << p
    return sign * x, scale


def _div_quotient(da: tuple[int, int], db: tuple[int, int]) -> tuple[int, int, int]:
    """``(n, d, k)`` with ``d > 0``: the quotient ``n/d * 2**k`` of two
    ``_div_operand``s, the second nonzero."""
    (na, ea), (nb, eb) = da, db
    return (na, nb, ea - eb) if nb > 0 else (-na, -nb, ea - eb)


def _div_reference(fmt: FloatFormat, word_a: int, word_b: int) -> Fraction:
    """Quotient of the round-bit-extended, divider-normalized operands."""
    return _fraction(_div_quotient(_div_operand(fmt, _sig(fmt, word_a)), _div_operand(fmt, _sig(fmt, word_b))))


def _fraction(exact: tuple[int, int, int] | None) -> Fraction | None:
    """The value of an exact ``(n, d, k)`` triple; None stays None."""
    from fractions import Fraction
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
    encs = [(x, (x + 1) >> 1) for x in enumerate_fixed(width)]  # each encoding and its value
    sign = -1 if variant == "sub" else 1
    # each b with the value and the interval's low end of the operand added: b, or -b for sub
    bs = [(b, sign * vb, b if sign > 0 else -b - 1) for b, vb in encs]
    for a, va in encs:
        rep.cases += len(bs)
        for b, vb, lb in bs:
            out = op(a, b)
            lo = a + lb  # the operands' intervals add up to [lo, lo + 2]
            if (out + 1) >> 1 != va + vb:
                fault = str(va + vb)
            elif not lo <= out <= lo + 1:
                fault = "interval inclusion"
            else:
                continue
            rep.record(f"{_text(a, width)},{_text(b, width)}", fault, _text(out, width + 1))
    return rep.done()


def fixed_mul_sweep(width: int) -> VerifyReport:
    """Value exactness for all sign combinations; for nonnegative
    encodings, the result's interval inside the operands' product
    (``check_inclusion``), except for the all-zero pair: no zero encoding's
    interval fits inside [0, u*u/4]."""
    rep = VerifyReport("mul", f"width={width}")
    check_space(f"{rep.op} {rep.space}", 1, 2 * width + 2)
    encs = [(x, (x + 1) >> 1) for x in enumerate_fixed(width)]  # each encoding and its value
    for a, va in encs:
        rep.cases += len(encs)
        for b, vb in encs:
            out = fixed.mul(a, b)
            want = va * vb
            if (out + 1) >> 1 != want:
                fault = str(want)
            elif a >= 0 and b >= 0 and (a or b) and not check_inclusion(out, a, b):
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
        rep.cases += len(encs)
        for b in encs:
            lhs = fixed.mul(a, b)
            rhs = negate(fixed.mul(na, b))
            if lhs != rhs:
                rep.record(f"{_text(a, width)},{_text(b, width)}", _text(lhs, 2 * width - 1),
                           _text(rhs, 2 * width - 1))
    return rep.done()


def fixed_div_sweep(p: int) -> VerifyReport:
    """Divider contract over every scaled operand pair.

    The quotient encoding must be the truncation of the exact quotient at
    its grid, lsb exponent ``-p``, or ``-p - 1`` when it is below one, and
    the inexact flag must say whether the division left a remainder.  The
    paper's claim about a two-extra-bit approximation judges no library
    result, so it is tested on its own (acceptance criterion 3)."""
    rep = VerifyReport("div", f"p={p}")
    pairs = enumerate_div_operands(p)  # refuses an oversized p before 2**p is built
    g = 1 << (p + 2)  # the quotient is floored to steps of 1/g = u/4, u = 2**-p
    for n, d in pairs:  # operands of n and d half-ulps; their quotient is q = n/d
        rep.cases += 1
        t_ref, rem_ref = divmod(n * g, d)
        quot, inexact = fixed.div(n, d)
        s = int(n >= d)  # a quotient of at least one keeps one fractional bit fewer
        if quot != t_ref >> s or inexact != (rem_ref != 0):
            rep.record(f"{_text(n, p + 2, -p)},{_text(d, p + 2, -p)}", "divider contract",
                       _text(quot, p + 2, s - p - 1))
    return rep.done()


def double_rounding_sweep(width: int) -> VerifyReport:
    """Truncating twice lands on the same bits as truncating once."""
    rep = VerifyReport("double-rounding", f"width={width}")
    # each encoding has width * (width + 1) / 2 pairs of truncation points
    check_space(f"{rep.op} {rep.space}", width * (width + 1), width)
    for x in enumerate_fixed(width):
        once = [truncate_at(x, k) for k in range(width)]  # each target, and each inner grid
        for j, inner in enumerate(once):
            rep.cases += width - j
            for i, target in enumerate(once[j:]):  # the target at grid k = j + i
                twice = truncate_at(inner, i)
                if twice != target:
                    k = j + i
                    rep.record(f"{_text(x, width)},j={j},k={k}", _text(target, width - k, k),
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

    The digits sum to the value ``(x + 1) >> 1``; ``canonical_of_sd`` gives
    the encoding back (the plain zero word for either spelling of zero); and
    a nonzero value's round bit is 1 exactly when its last nonzero digit is
    +1."""
    rep = VerifyReport("roundtrip", f"width={width}")
    for x in enumerate_fixed(width):
        rep.cases += 1
        sd = sd_of_canonical(x, width)
        value = (x + 1) >> 1
        ok = (
            validate_rn(sd)
            and sum(d << i for i, d in enumerate(reversed(sd))) == value
            and canonical_of_sd(sd) == (x if value else 0)
            and (value == 0 or x & 1 == (next(d for d in reversed(sd) if d) == 1))
        )
        if not ok:
            rep.record(_text(x, width), "round trip", " ".join(map(str, sd)))
    return rep.done()


# ---------------------------------------------------------------------------
# floating-point sweeps

# each op's body, called as func(fmt, a, b, mode, decode(fmt, a), decode(fmt, b))
_FLOAT_OPS = {
    "add": (fa._fadd, "fadd"),
    "mul": (fa._fmul, "fmul"),
    "div": (fa._fdiv, "fdiv"),
}


def _float_exact(fmt: FloatFormat, op: str, wa: int, wb: int, va: int | None, vb: int | None,
                 divs: list[tuple[int, int]]) -> tuple[int, int, int] | None:
    """Exact ``a op b`` from the operands' ``_units`` as ``(n, d, k)``, meaning
    ``n/d * 2**k`` with ``d > 0``; None if not finite or divided by zero.
    A quotient composes the operands' ``divs`` entries, a ``_word_table``'s
    divider operands."""
    if va is None or vb is None:
        return None
    u = fmt.e_min + 1 - fmt.precision
    if op == "add":
        return va + vb, 1, u
    if op == "mul":
        return va * vb, 1, 2 * u
    if vb == 0:
        return None
    return _div_quotient(divs[wa], divs[wb])


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
    when ``|exact| > 2**(e_max+1)``: the edge itself has a finite word.
    Sticky flag: ``value != exact``, in every mode.  Nearest: within half an
    ulp, and the round bit set exactly when the value lies above ``exact``,
    at zero too.  Directed: on the mode's side and less than an ulp away.

    The nearest clauses return a representable ``exact`` exactly
    (``tests/test_oracle.py::TestImpliedClauses``).  The clauses are
    ``_judge``'s, on the decoded word; the sweeps call it with the ``_sig``
    pair from their per-word table.
    """
    return _judge(fmt, exact, mode, _sig(fmt, word), inexact)


def _judge(fmt: FloatFormat, exact: tuple[int, int, int], mode: fa.RoundingMode,
           sig: tuple[int, int], inexact: bool) -> str | None:
    """``rounding_fault``'s clauses, on the word's ``_sig`` pair ``sig``."""
    n, d, k = exact
    x, scale = sig
    if scale > fmt.e_max:  # all-ones exponent field
        # the infinity of exact's sign: fraction and round bit zero, so x is
        # the hidden bit alone, 2**p, or with the sign, -2**(p+1)
        p = fmt.precision
        ok = inexact and x == (-(2 << p) if n < 0 else 1 << p)
        t = k - fmt.e_max - 1  # |exact| > 2**(e_max+1) as |n| * 2**t > d
        return None if ok and abs(n) << max(t, 0) > d << max(-t, 0) else "overflow"
    # value - exact and the word's ulp 2**(k + s), as integers over d * 2**min(k, k + s)
    s = scale + 1 - fmt.precision - k
    ulp = d << s if s >= 0 else d
    v = (x + 1) >> 1
    diff = v * ulp - (n if s >= 0 else n << -s)
    if inexact != (diff != 0):
        return "sticky flag"
    if diff == 0:
        return None
    if mode is _NEAREST:
        if 2 * abs(diff) > ulp:
            return "half ulp"
        return "round-bit direction" if (x & 1 == 1) != (diff > 0) else None
    if (diff > 0) != _ROUNDS_UP[mode][n < 0]:  # n carries exact's sign
        return "directed side"
    return "one ulp" if abs(diff) >= ulp else None


def _word_table(fmt: FloatFormat) -> tuple[list[int | None], list[tuple[int, int]], list[tuple[int, int]]]:
    """Each word's ``_units`` value (None when not finite), ``_sig`` pair and
    divider operand (``_div_operand``), indexed by the word: a sweep decodes
    each word once, here, and reads operands and results from these lists.
    Refuses a format whose operand pairs cannot be enumerated."""
    check_space(f"{fmt.name or 'format'} operand pairs", 1, 2 * fmt.total_bits)
    sigs = [_sig(fmt, w) for w in range(1 << fmt.total_bits)]
    values = [_sig_units(fmt, sig) for sig in sigs]
    return values, sigs, [_div_operand(fmt, sig) for sig in sigs]


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
    values, sigs, divs = _word_table(fmt)
    dec = [decode(fmt, w) for w in range(fmt.word_end)]
    if op == "div":
        for a, va in enumerate(values):
            for b, vb in enumerate(values):
                if vb == 0:
                    continue
                rep.cases += 1
                out, inexact = func(fmt, a, b, _NEAREST, dec[a], dec[b])
                exact = _float_exact(fmt, op, a, b, va, vb, divs)
                if exact is not None and (fault := _judge(fmt, exact, _NEAREST, sigs[out], inexact)):
                    rep.record(f"{a:#x},{b:#x}", f"{fault} ({_fraction(exact)})", f"{out:#x}")
        return rep.done()
    for a, va in enumerate(values):
        for b in range(a, len(values)):
            ab, ba = func(fmt, a, b, _NEAREST, dec[a], dec[b]), func(fmt, b, a, _NEAREST, dec[b], dec[a])
            exact = _float_exact(fmt, op, a, b, va, values[b], divs)
            if ab[0] != ba[0]:
                fault = fault_ba = "commutative"
            elif exact is None:
                fault = fault_ba = None
            else:
                out, inexact = ab
                fault = _judge(fmt, exact, _NEAREST, sigs[out], inexact)
                fault_ba = fault if ba == ab else _judge(fmt, exact, _NEAREST, sigs[out], ba[1])
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
    with bit 0 set when the mode rounds up (``_ROUNDS_UP``) and cleared when
    it rounds down, either spelling of zero included."""
    func, name = _FLOAT_OPS[op]
    rep = VerifyReport(f"{name}-directed", f"format={fmt.name}")
    values, sigs, divs = _word_table(fmt)
    dec = [decode(fmt, w) for w in range(fmt.word_end)]
    # each directed mode and whether it sets bit 0 of the substituted word,
    # indexed by whether the exact value is negative
    ups = [[(mode, _ROUNDS_UP[mode][negative]) for mode in _DIRECTED_MODES] for negative in (False, True)]
    for a, va in enumerate(values):
        for b, vb in enumerate(values):
            exact = _float_exact(fmt, op, a, b, va, vb, divs)
            if exact is None:
                continue
            da, db = dec[a], dec[b]
            near, inexact = func(fmt, a, b, _NEAREST, da, db)
            substituted = inexact and sigs[near][1] <= fmt.e_max  # finite: overflow saturates
            for mode, rounds_up in ups[exact[0] < 0]:
                rep.cases += 1
                out, out_inexact = func(fmt, a, b, mode, da, db)
                if out != ((near & ~1) | rounds_up if substituted else near):
                    fault = "substitution"
                else:
                    fault = _judge(fmt, exact, mode, sigs[out], out_inexact)
                if fault:
                    rep.record(f"{a:#x},{b:#x},{mode.value}", f"{fault} ({_fraction(exact)})", f"{out:#x}")
    return rep.done()


# negation swaps ru and rd; rn, rz and ra map to themselves
_MIRROR = {fa.RoundingMode.UPWARD: fa.RoundingMode.DOWNWARD,
           fa.RoundingMode.DOWNWARD: fa.RoundingMode.UPWARD}


def float_sign_symmetry_sweep(fmt: FloatFormat, op: str) -> VerifyReport:
    """Negating the result is negating an operand, over every pair in
    every mode.

    ``add(-a, -b, m)`` and ``mul/div(-a, b, m)`` must give the complement
    (``float_negate``) of ``op(a, b, mirror(m))`` word for word, where the
    mirror swaps ru and rd, with the same sticky flag: a NaN is the
    canonical NaN word.  The one exception is a reference that is exactly
    the word 0, which stays the word 0.
    """
    func, name = _FLOAT_OPS[op]
    rep = VerifyReport(f"{name}-symmetry", f"format={fmt.name}")
    check_space(f"{rep.op} {rep.space}", len(fa.RoundingMode), 2 * fmt.total_bits)
    words = range(fmt.word_end)
    neg = [float_negate(fmt, w) for w in words]
    dec = [decode(fmt, w) for w in words]
    second = neg if op == "add" else words  # add negates both operands
    for mode in fa.RoundingMode:
        mirror = _MIRROR.get(mode, mode)
        for a in words:
            na = neg[a]
            for b in words:
                rep.cases += 1
                nb = second[b]
                out = func(fmt, na, nb, mode, dec[na], dec[nb])
                ref, inexact = func(fmt, a, b, mirror, dec[a], dec[b])
                want = (neg[ref] if ref or inexact else 0), inexact
                if out != want:
                    rep.record(f"{a:#x},{b:#x},{mode.value}", f"{want[0]:#x} sticky={want[1]:d}",
                               f"{out[0]:#x} sticky={out[1]:d}")
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
    values, sigs, _ = _word_table(fmt)
    for a, va in enumerate(values):
        if va in (None, 0):
            continue
        for b, vb in enumerate(values):
            if vb in (None, 0) or sigs[a][1] <= sigs[b][1] + fmt.precision:
                continue
            rep.cases += 1
            out = fa.far_shortcut(fmt, a, b)
            # half is u/2 in the intervals' units of 2**(e_min-p)
            lo_r, width_r = _half_interval(fmt, sigs[out])
            lo_a, half = _half_interval(fmt, sigs[a])
            lo_b, hi_b = (0, half) if vb > 0 else (-half, 0)
            if not (lo_a + lo_b <= lo_r and lo_r + width_r <= lo_a + half + hi_b):
                rep.record(f"{a:#x},{b:#x}", "shortcut soundness", f"{out:#x}")
    return rep.done()


def float_negate_sweep(fmt: FloatFormat) -> VerifyReport:
    """Negation by bit inversion: a finite word's result has the mirror image
    of its half-ulp interval (so it is finite, has the negated value, and
    negates back, zero's two spellings included); a NaN stays a NaN and an
    infinity flips its sign."""
    rep = VerifyReport("float-negate", f"format={fmt.name}")
    flipped = {"nan": "nan", "+inf": "-inf", "-inf": "+inf"}
    for word in enumerate_format(fmt):
        rep.cases += 1
        sig = _sig(fmt, word)
        out = float_negate(fmt, word)
        if sig[1] > fmt.e_max:  # all-ones exponent field
            ok = _value_class(fmt, out) == flipped[_value_class(fmt, word)]
        else:
            lo, width = _half_interval(fmt, sig)  # a non-finite word's width is wider
            ok = _half_interval(fmt, _sig(fmt, out)) == (-lo - width, width)
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
        elif isinstance(v, FloatClass) or v[0] << max(v[2] - e, 0) != units << max(e - v[2], 0):
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
    check("booth-recode", sd == (0, -1, 1, -1, 0, 1, 0, -1, 0, 1, -1, 0), " ".join(map(str, sd)))

    # encodings x = 2*bits + round: value (x + 1) >> 1 ulps, interval [x, x + 1] half ulps
    trunc = truncate_at(2 * -718, 2)
    check("truncate", trunc == 2 * -180 + 1, _text(trunc, 10, 2))
    check("truncate-value", ((trunc + 1) >> 1) << 2 == -716, _text(trunc, 10, 2))

    a, b = 2 * 11 + 1, 2 * 9 + 1  # 12 and 10, each with its round bit set
    prod = fixed.mul(a, b)
    check("product", prod == 2 * 119 + 1, _text(prod, 9))
    check("product-interval", (prod, prod + 1) == (239, 240), _text(prod, 9))
    check("product-inclusion", check_inclusion(prod, a, b))

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
