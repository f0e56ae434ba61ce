import ast
import functools
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import rnarith
from rnarith import cli, core, fixed, floatarith, floatfmt, oracle, verify
from rnarith.core import RnFixed, negate
from rnarith.fixed import add, add_alt, apply, div, long_divide, mul, shift_left, sub
from rnarith.oracle import enumerate_fixed


def val(x):
    """Value of encoding ``x = 2*bits + round`` in ulps."""
    return (x + 1) >> 1


def lits(width, lsb=0):
    """Every width-bit literal at one lsb exponent."""
    top = 1 << (width - 1)
    return [RnFixed(bits, width, r, lsb) for bits in range(-top, top) for r in (0, 1)]


def div_lits(p):
    """Every divider operand literal: a word in [1, 2) at p fractional bits."""
    return [RnFixed(bits, p + 2, r, -p) for bits in range(1 << p, 1 << (p + 1)) for r in (0, 1)]


@functools.cache
def exact(x):
    """The value ``(bits + round) * 2**lsb_exp`` of a literal."""
    return (x.bits + x.round) * Fraction(2) ** x.lsb_exp


class TestAdd:
    def test_zero_widens(self):
        zero = RnFixed(0, 5, 0)
        for x in enumerate_fixed(5):
            assert add(x, 0) == x
        for x in lits(5):
            assert apply("+", x, zero) == (RnFixed(x.bits, 6, x.round), False)

    def test_worked_sum(self):
        out = add(2 * 5 + 1, 2 * 3 + 1)
        assert out == 2 * 9 + 1
        assert val(out) == 10

    def test_mismatched_lsb_rejected(self):
        with pytest.raises(ValueError, match="^operands must share an lsb exponent; align them first$"):
            apply("+", RnFixed(1, 4, 0, 0), RnFixed(1, 4, 0, 1))

    def test_mixed_width(self):
        out, _ = apply("+", RnFixed(100, 9, 1), RnFixed(-3, 3, 0))
        assert out.width == 10
        assert exact(out) == 98

    def test_exhaustive_exactness_and_inclusion_width6(self):
        # half-ulp intervals [x, x + 1]: the sum's lies inside [a + b, a + b + 2]
        encs = list(enumerate_fixed(6))
        for a in encs:
            for b in encs:
                out = add(a, b)
                assert val(out) == val(a) + val(b)
                assert a + b <= out and out + 1 <= a + b + 2


class TestAddAlt:
    def test_self_cancellation_gives_plain_zero(self):
        for x in enumerate_fixed(6):
            assert add_alt(x, negate(x)) == 0

    def test_neutral_element(self):
        neutral = -1  # value 0, spelled with the round bit set
        for x in enumerate_fixed(5):
            assert add_alt(x, neutral) == x

    def test_matches_add_value_exhaustive(self):
        encs = list(enumerate_fixed(6))
        for a in encs:
            for b in encs:
                assert val(add_alt(a, b)) == val(add(a, b))


class TestSub:
    def test_self_subtraction(self):
        for x in enumerate_fixed(6):
            d = sub(x, x)
            assert d == -1
            assert val(d) == 0

    def test_subtract_zero(self):
        x = 2 * -9 + 1
        assert val(sub(x, 0)) == val(x)

    def test_antisymmetry_exhaustive(self):
        encs = list(enumerate_fixed(6))
        for a in encs:
            for b in encs:
                assert val(sub(a, b)) == -val(sub(b, a))


class TestMul:
    def test_worked_product(self):
        out = mul(2 * 11 + 1, 2 * 9 + 1)
        assert out == 2 * 119 + 1
        assert val(out) == 120

    def test_multiply_by_one(self):
        one = 2
        for x in enumerate_fixed(5):
            assert val(mul(x, one)) == val(x)

    def test_fractional_grid(self):
        a = RnFixed(5, 5, 1, -2)   # 1.5
        b = RnFixed(-7, 5, 0, -2)  # -1.75
        out, _ = apply("*", a, b)
        assert out.lsb_exp == -4
        assert exact(out) == Fraction(-21, 8)

    def test_ulp_above_one_rejected(self):
        with pytest.raises(ValueError, match="^multiplication requires an ulp of at most 1$"):
            apply("*", RnFixed(1, 4, 0, 1), RnFixed(1, 4, 0, 1))

    def test_exhaustive_value_width5(self):
        encs = list(enumerate_fixed(5))
        for a in encs:
            for b in encs:
                out = mul(a, b)
                assert -(1 << 9) <= out < 1 << 9  # a 9-bit encoding
                assert val(out) == val(a) * val(b)

    def test_negation_symmetry_width5(self):
        encs = list(enumerate_fixed(5))
        for a in encs:
            na = negate(a)
            for b in encs:
                assert mul(a, b) == negate(mul(na, b))


class TestShiftLeft:
    def test_worked_shift(self):
        out = shift_left(2 * 11 + 1, 2)
        assert out == 2 * 47 + 1
        assert val(out) == 48

    def test_zero_shift_identity(self):
        x = 2 * -5 + 1
        assert shift_left(x, 0) == x

    def test_single_shift_matches_self_addition(self):
        for x in enumerate_fixed(7):
            assert shift_left(x, 1) == add(x, x)


class TestDiv:
    def test_identity_divisor(self):
        one = RnFixed(8, 5, 0, -3)
        assert div(16, 16) == (16, False)
        assert apply("/", one, one) == (one, False)

    def test_neutral_element_returns_operand(self):
        one = RnFixed(8, 5, 0, -3)
        for x in range(16, 32):
            assert div(x, 16) == (x, False)
        for bits in range(8, 16):
            for r in (0, 1):
                x = RnFixed(bits, 5, r, -3)
                assert apply("/", x, one) == (x, False)

    def test_worked_quotient(self):
        # 1.100 with clear round bit over 1.000 with set round bit: 24/17
        quot, inexact = apply("/", RnFixed(12, 5, 0, -3), RnFixed(8, 5, 1, -3))
        assert quot == RnFixed(11, 5, 0, -3)
        assert inexact
        q = Fraction(24, 17)
        assert abs(exact(quot) - q) <= Fraction(1, 16)

    def test_shifted_quotient(self):
        # 1.000 over 1.101 with set round bit: 16/27, below one
        quot, _ = apply("/", RnFixed(8, 5, 0, -3), RnFixed(13, 5, 1, -3))
        assert quot.lsb_exp == -4
        assert exact(quot) == Fraction(9, 16)

    def test_bad_operands_rejected(self):
        with pytest.raises(ValueError, match=r"^dividend word must lie in \[1, 2\)$"):
            apply("/", RnFixed(7, 5, 1, -3), RnFixed(8, 5, 0, -3))

    def test_mismatched_lsb_exponents_rejected(self):
        with pytest.raises(ValueError, match="^operands must share an lsb exponent; align them first$"):
            apply("/", RnFixed(8, 5, 0, -3), RnFixed(16, 6, 0, -4))

    def test_round_bit_reports_remainder_sign(self):
        # encodings n and d of p + 2 bits; the quotient x has lsb exponent
        # -p, or -p - 1 below one, and value val(x) * 2**lsb against n/d
        for p in (3, 4):
            for n in range(1 << (p + 1), 1 << (p + 2)):
                for d in range(1 << (p + 1), 1 << (p + 2)):
                    quot, _ = div(n, d)
                    ulps = p + (n < d)  # n/d in ulps of the quotient is n * 2**ulps / d
                    if quot & 1:
                        assert n << ulps <= val(quot) * d
                    else:
                        assert n << ulps >= val(quot) * d


def _apply_rule(op, a, b):
    """What ``apply(op, a, b)`` must give: ``(value, width, lsb, inexact)``,
    or the refusal message.

    The operands share an lsb exponent ``l``.  A sum or difference is exact,
    one bit wider than the wider operand, at ``l``.  A product needs
    ``l <= 0`` and is exact, ``wa + wb - 1`` bits wide, at ``2*l``.  A
    quotient needs ``p = -l >= 1`` and words in [1, 2); it is ``p + 2``
    bits wide at ``-p``, or ``-p - 1`` when below one, and its encoding is
    ``floor(q * 2**(1 - lsb))`` half ulps of the exact ``q``, inexact when
    that floor drops something.
    """
    l = a.lsb_exp
    if l != b.lsb_exp:
        return "operands must share an lsb exponent; align them first"
    va, vb = exact(a), exact(b)
    if op in "+-":
        return va + vb if op == "+" else va - vb, max(a.width, b.width) + 1, l, False
    if op == "*":
        if l > 0:
            return "multiplication requires an ulp of at most 1"
        return va * vb, a.width + b.width - 1, 2 * l, False
    p = -l
    if p < 1:
        return "need at least one fractional bit"
    for name, x in (("dividend", a), ("divisor", b)):
        if not 1 <= Fraction(x.bits) * Fraction(2) ** l < 2:
            return f"{name} word must lie in [1, 2)"
    # the quotient of the round-bit-extended words
    q = Fraction(2 * a.bits + a.round, 2 * b.bits + b.round)
    lsb = -p if q >= 1 else -p - 1
    t = q * Fraction(2) ** (1 - lsb)
    x = t.numerator // t.denominator
    return Fraction((x + 1) >> 1) * Fraction(2) ** lsb, p + 2, lsb, t != x


class TestApply:
    """``apply`` is the only guard of the literals: it gives each result its
    width and lsb exponent, and refuses with one message per rule."""

    @staticmethod
    def _check(op, a, b):
        want = _apply_rule(op, a, b)
        try:
            out, inexact = apply(op, a, b)
        except ValueError as exc:
            got = str(exc)
        else:
            got = (exact(out), out.width, out.lsb_exp, inexact)
        assert got == want, (op, a, b)
        return want

    def test_shapes_and_refusals_exhaustive(self):
        # every pair of widths 1-4 at lsb exponents -2 to 1, all four ops,
        # then every divider pair for p = 1-5
        by_lsb = {l: [x for w in range(1, 5) for x in lits(w, l)] for l in range(-2, 2)}
        refused = set()
        for la, lb in product(by_lsb, repeat=2):
            for a in by_lsb[la]:
                for b in by_lsb[lb]:
                    for op in "+-*/":
                        want = self._check(op, a, b)
                        refused.add(want if la == lb else "misaligned")
        for p in range(1, 6):
            ops = div_lits(p)
            for a, b in product(ops, repeat=2):
                self._check("/", a, b)
        assert {r for r in refused if isinstance(r, str)} == {
            "misaligned", "multiplication requires an ulp of at most 1", "need at least one fractional bit",
            "dividend word must lie in [1, 2)", "divisor word must lie in [1, 2)",
        }


def _check_long_divide(n, d, bits):
    q2, k = long_divide(n, d, bits)
    q, sticky = q2 >> 1, q2 & 1
    assert q.bit_length() == (bits if n else 0)
    # q * d <= n * 2**k < (q + 1) * d, both sides scaled to integers
    num, den = (n << k, d) if k >= 0 else (n, d << -k)
    assert q * den <= num < (q + 1) * den
    assert sticky == (num % den != 0)


class TestLongDivide:
    def test_exhaustive_small(self):
        for bits in range(1, 8):
            for n in range(128):
                for d in range(1, 128):
                    _check_long_divide(n, d, bits)

    @given(st.integers(0, (1 << 4096) - 1), st.integers(1, (1 << 4096) - 1), st.integers(1, 4096))
    def test_wide(self, n, d, bits):
        _check_long_divide(n, d, bits)


def _call_owners(tree, name):
    """Name of the function around each call of ``name`` (None at module
    level)."""
    owners = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == name:
                owners.append(owner)
            visit(child, owner)

    visit(tree, None)
    return owners


def _tree(module):
    return ast.parse(Path(module.__file__).read_text())


class TestOneDivider:
    """The library divides in one place.  ``floatfmt``'s hex-digit count and
    ``cli``'s decimal rendering print values and keep their ``//`` and
    ``%``; ``verify``'s reference division stays independent of the
    library, so it is not walked."""

    def test_divmod_only_in_long_divide(self):
        owners = {
            m.__name__: _call_owners(_tree(m), "divmod") for m in (core, fixed, floatfmt, floatarith, cli)
        }
        assert owners == {
            "rnarith.core": [], "rnarith.fixed": ["long_divide"], "rnarith.floatfmt": [],
            "rnarith.floatarith": [], "rnarith.cli": [],
        }

    @pytest.mark.parametrize("module", [fixed, floatarith])
    def test_no_floor_division_or_modulo(self, module):
        ops = [
            node.op for node in ast.walk(_tree(module))
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, (ast.FloorDiv, ast.Mod))
        ]
        assert ops == []


class TestOneResultShape:
    """Division returns ``(quotient, inexact)`` like every float op, reading
    ``p`` from its operands; the CLI evaluates with functions, not state."""

    def _defined(self, module, kind):
        return {node.name: node for node in ast.walk(_tree(module)) if isinstance(node, kind)}

    def test_no_div_result_class(self):
        assert "DivResult" not in self._defined(fixed, ast.ClassDef)

    def test_div_takes_two_operands(self):
        args = self._defined(fixed, ast.FunctionDef)["div"].args
        assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["x", "y"]
        assert args.vararg is None and args.kwarg is None

    def test_cli_defines_only_its_error(self):
        assert set(self._defined(cli, ast.ClassDef)) == {"CliError"}


class TestRnFixedIsTheLiteral:
    """Below the literal parser and printer a fixed value is the integer
    ``x = 2*bits + round``: ``RnFixed`` is built only where a literal is
    parsed, checked, converted to, unpacked for ``inspect`` or printed for a
    failure."""

    def test_built_only_at_the_literal_sites(self):
        modules = (core, fixed, floatfmt, floatarith, oracle, verify, cli)
        owners = sorted(
            f"{m.__name__.split('.')[-1]}.{owner}" for m in modules for owner in _call_owners(_tree(m), "RnFixed")
        )
        assert owners == [
            "cli._convert_to_fixed", "core.parse_literal", "fixed.apply", "floatfmt.unpack", "verify._text",
        ]

    def test_no_signed_digit_type(self):
        assert not hasattr(core, "SignedDigitString")
        assert "SignedDigitString" not in rnarith.__all__


# widths above the exhaustive sweeps
wide = st.integers(13, 64).flatmap(
    lambda w: st.tuples(st.just(w), st.integers(-(1 << w), (1 << w) - 1), st.integers(-(1 << w), (1 << w) - 1))
)


class TestWideWidths:
    """The exhaustive properties, sampled on encodings of widths 13-64."""

    @pytest.mark.parametrize("op", ["add", "add_alt", "sub"])
    @given(wide)
    def test_sum_exact_and_inside(self, op, case):
        _, a, b = case
        out = {"add": add, "add_alt": add_alt, "sub": sub}[op](a, b)
        if op == "sub":
            b = ~b  # -b's interval is [-b - 1, -b], that of ~b
        assert val(out) == val(a) + val(b)
        assert a + b <= out and out + 1 <= a + b + 2

    @given(wide)
    def test_mul_exact_symmetric_and_inside(self, case):
        _, a, b = case
        out = mul(a, b)
        assert val(out) == val(a) * val(b)
        assert out == negate(mul(negate(a), b))
        if a >= 0 and b >= 0 and (a or b):
            # quarter ulps: [2*out, 2*out + 2] inside [a*b, (a+1)*(b+1)]
            assert a * b <= 2 * out and 2 * out + 2 <= (a + 1) * (b + 1)

    @given(wide, st.data())
    def test_truncating_twice_is_truncating_once(self, case, data):
        w, x, _ = case
        j = data.draw(st.integers(0, w - 1))
        k = data.draw(st.integers(j, w - 1))
        assert core.truncate_at(core.truncate_at(x, j), k - j) == core.truncate_at(x, k)

    @given(wide)
    def test_negation_involutes_and_negates(self, case):
        _, x, _ = case
        assert negate(negate(x)) == x
        assert val(negate(x)) == -val(x)

    @given(wide)
    def test_signed_digit_round_trip(self, case):
        w, x, _ = case
        sd = core.sd_of_canonical(x, w)
        assert core.validate_rn(sd) and len(sd) == w
        assert core.canonical_of_sd(sd) == (x if val(x) else 0)
