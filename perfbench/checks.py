"""Output checks for the benchmark, computed from raw word fields.

Values come from ``rnarith.verify``'s Fraction helpers (``float_value``,
``float_ulp``, ``representable`` and the division reference), which read the
packed layout directly and call no arithmetic routine of the library.  Every
check returns ``None`` when the output meets its contract and a short reason
otherwise.
"""

from __future__ import annotations

from fractions import Fraction

from rnarith.verify import _div_reference, float_ulp, float_value, representable

MODES = ("rn", "ru", "rd", "rz", "ra")


def fields(fmt, word: int) -> tuple[int, int, int, int]:
    s = (word >> (fmt.total_bits - 1)) & 1
    e = (word >> fmt.precision) & fmt.exp_mask
    f = (word >> 1) & ((1 << fmt.frac_bits) - 1)
    return s, e, f, word & 1


def word_class(fmt, word: int) -> str:
    """nan, inf, zero (any zero-valued spelling), subnormal or normal."""
    s, e, f, r = fields(fmt, word)
    if e == fmt.exp_mask:
        return "inf" if f == 0 and r == 0 else "nan"
    if e == 0:
        return "zero" if f - (s << (fmt.precision - 1)) + r == 0 else "subnormal"
    return "normal"


def scale_of(fmt, word: int) -> int:
    _, e, _, _ = fields(fmt, word)
    return fmt.e_min if e == 0 else e - fmt.bias


def decimal(x: Fraction) -> str:
    """Exact decimal text of a dyadic rational, as the CLI prints it."""
    n, d = x.numerator, x.denominator
    if d == 1:
        return str(n)
    k = d.bit_length() - 1
    if d != 1 << k:
        raise ValueError(f"{x} is not dyadic")
    text = str(abs(n) * 5**k).rjust(k + 1, "0")
    return f"{'-' if n < 0 else ''}{text[:-k]}.{text[-k:]}"


def shown_value(fmt, word: int) -> str:
    """What the CLI prints for a float word's value."""
    v = float_value(fmt, word)
    if v is None:
        return word_class(fmt, word)
    return decimal(v)


def _special(fmt, op: str, wa: int, wb: int):
    """Expected outcome when an operand is non-finite or a divisor is zero:
    ``("nan",)``, ``("inf", sign)`` or ``("zero",)``; None when the result
    is the rounding of a finite exact value."""
    ca, cb = word_class(fmt, wa), word_class(fmt, wb)
    sa, sb = fields(fmt, wa)[0], fields(fmt, wb)[0]
    if op == "sub":
        # a - b is evaluated as a + (-b); negation flips an infinity's sign
        op, sb = "add", 1 - sb
    if "nan" in (ca, cb):
        return ("nan",)
    if op == "add":
        if ca == "inf" and cb == "inf":
            return ("inf", sa) if sa == sb else ("nan",)
        if ca == "inf":
            return ("inf", sa)
        if cb == "inf":
            return ("inf", sb)
        return None
    if op == "mul":
        if "inf" in (ca, cb):
            return ("nan",) if "zero" in (ca, cb) else ("inf", sa ^ sb)
        return None
    if ca == "inf":
        return ("nan",) if cb == "inf" else ("inf", sa ^ sb)
    if cb == "inf":
        return ("zero",)
    if cb == "zero":
        return ("nan",) if ca == "zero" else ("inf", sa ^ sb)
    if ca == "zero":
        return ("zero",)
    return None


def exact_result(fmt, op: str, wa: int, wb: int) -> Fraction:
    """Exact value the op rounds; division uses the divider's reference
    quotient of the round-bit-extended operands."""
    va, vb = float_value(fmt, wa), float_value(fmt, wb)
    if op == "add":
        return va + vb
    if op == "sub":
        return va - vb
    if op == "mul":
        return va * vb
    return _div_reference(fmt, wa, wb)


def check_rounded(fmt, x: Fraction, mode: str, out: int, inexact: bool) -> str | None:
    """Contract of a finite exact value ``x`` rounded into word ``out``."""
    vo = float_value(fmt, out)
    if vo is None:
        if word_class(fmt, out) == "nan":
            return "nan for a finite result"
        if abs(x) < Fraction(2) ** (fmt.e_max + 1):
            return "overflow below the largest magnitude"
        if fields(fmt, out)[0] != (x < 0):
            return "overflow with the wrong sign"
        return None if inexact else "overflow flagged exact"
    ulp = float_ulp(fmt, out)
    if mode == "rn":
        if abs(vo - x) > ulp / 2:
            return "more than half an ulp away"
        if representable(x, fmt) and vo != x:
            return "representable result not delivered exactly"
        if inexact != (vo != x):
            return "sticky flag disagrees with the value"
        if vo != x and vo != 0 and (out & 1) != (vo >= x):
            return "round bit gives the wrong direction"
        return None
    if not inexact:
        return None if vo == x else "exact result changed by a directed mode"
    if mode == "ru":
        ok = vo >= x
    elif mode == "rd":
        ok = vo <= x
    elif mode == "rz":
        ok = abs(vo) <= abs(x)
    else:
        ok = abs(vo) >= abs(x)
    if not ok:
        return "directed bound violated"
    return None if abs(vo - x) < ulp else "directed result a whole ulp away"


def check_float_op(fmt, op: str, wa: int, wb: int, mode: str, out: int, inexact: bool) -> str | None:
    """Contract of ``op`` (add, sub, mul or div) on two words of ``fmt``."""
    want = _special(fmt, op, wa, wb)
    if want is None:
        return check_rounded(fmt, exact_result(fmt, op, wa, wb), mode, out, inexact)
    got = word_class(fmt, out)
    if inexact:
        return "special result flagged inexact"
    if want[0] == "zero":
        return None if got == "zero" else f"want zero, got {got}"
    if got != want[0]:
        return f"want {want[0]}, got {got}"
    if got == "inf" and fields(fmt, out)[0] != want[1]:
        return "infinity with the wrong sign"
    return None
