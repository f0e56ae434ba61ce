import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from rnarith import cli, core, fixed, floatarith, floatfmt
from rnarith.core import RnFixed, interval_of, negate, value_of
from rnarith.fixed import add, add_alt, div, long_divide, mul, shift_left, sub
from rnarith.oracle import enumerate_fixed


def val(x):
    return value_of(x).to_fraction()


class TestAdd:
    def test_zero_widens(self):
        zero = RnFixed(0, 5, 0)
        for x in enumerate_fixed(5):
            assert add(x, zero) == RnFixed(x.bits, 6, x.round)

    def test_worked_sum(self):
        out = add(RnFixed(5, 5, 1), RnFixed(3, 5, 1))
        assert out == RnFixed(9, 6, 1)
        assert val(out) == 10

    def test_mismatched_lsb_rejected(self):
        with pytest.raises(ValueError):
            add(RnFixed(1, 4, 0, 0), RnFixed(1, 4, 0, 1))

    def test_mixed_width(self):
        out = add(RnFixed(100, 9, 1), RnFixed(-3, 3, 0))
        assert out.width == 10
        assert val(out) == 98

    def test_exhaustive_exactness_and_inclusion_width6(self):
        encs = list(enumerate_fixed(6))
        for a in encs:
            ia = interval_of(a)
            for b in encs:
                out = add(a, b)
                assert val(out) == val(a) + val(b)
                ir, ib = interval_of(out), interval_of(b)
                assert ia.lo.to_fraction() + ib.lo.to_fraction() <= ir.lo.to_fraction()
                assert ir.hi.to_fraction() <= ia.hi.to_fraction() + ib.hi.to_fraction()


class TestAddAlt:
    def test_self_cancellation_gives_plain_zero(self):
        for x in enumerate_fixed(6):
            assert add_alt(x, negate(x)) == RnFixed(0, 7, 0)

    def test_neutral_element(self):
        neutral = RnFixed(-1, 5, 1)  # value 0, spelled with the round bit set
        for x in enumerate_fixed(5):
            assert add_alt(x, neutral) == RnFixed(x.bits, 6, x.round)

    def test_matches_add_value_exhaustive(self):
        encs = list(enumerate_fixed(6))
        for a in encs:
            for b in encs:
                assert val(add_alt(a, b)) == val(add(a, b))


class TestSub:
    def test_self_subtraction(self):
        for x in enumerate_fixed(6):
            d = sub(x, x)
            assert d == RnFixed(-1, 7, 1)
            assert val(d) == 0

    def test_subtract_zero(self):
        x = RnFixed(-9, 6, 1)
        assert val(sub(x, RnFixed(0, 6, 0))) == val(x)

    def test_antisymmetry_exhaustive(self):
        encs = list(enumerate_fixed(6))
        for a in encs:
            for b in encs:
                assert val(sub(a, b)) == -val(sub(b, a))


class TestMul:
    def test_worked_product(self):
        out = mul(RnFixed(11, 5, 1), RnFixed(9, 5, 1))
        assert out == RnFixed(119, 9, 1)
        assert val(out) == 120

    def test_multiply_by_one(self):
        one = RnFixed(1, 5, 0)
        for x in enumerate_fixed(5):
            assert val(mul(x, one)) == val(x)

    def test_fractional_grid(self):
        a = RnFixed(5, 5, 1, -2)   # 1.5
        b = RnFixed(-7, 5, 0, -2)  # -1.75
        out = mul(a, b)
        assert out.lsb_exp == -4
        assert val(out) == Fraction(-21, 8)

    def test_ulp_above_one_rejected(self):
        with pytest.raises(ValueError):
            mul(RnFixed(1, 4, 0, 1), RnFixed(1, 4, 0, 1))

    def test_exhaustive_value_width5(self):
        encs = list(enumerate_fixed(5))
        for a in encs:
            for b in encs:
                out = mul(a, b)
                assert out.width == 9
                assert val(out) == val(a) * val(b)

    def test_negation_symmetry_width5(self):
        encs = list(enumerate_fixed(5))
        for a in encs:
            na = negate(a)
            for b in encs:
                assert mul(a, b) == negate(mul(na, b))


class TestShiftLeft:
    def test_worked_shift(self):
        out = shift_left(RnFixed(11, 5, 1), 2)
        assert out == RnFixed(47, 7, 1)
        assert val(out) == 48

    def test_zero_shift_identity(self):
        x = RnFixed(-5, 6, 1, 2)
        assert shift_left(x, 0) is x

    def test_single_shift_matches_self_addition(self):
        for x in enumerate_fixed(7):
            assert val(shift_left(x, 1)) == val(add(x, x))
            assert shift_left(x, 1).round == add(x, x).round


class TestDiv:
    def test_identity_divisor(self):
        out = div(RnFixed(8, 5, 0, -3), RnFixed(8, 5, 0, -3))
        assert out == (RnFixed(8, 5, 0, -3), False)
        assert val(out[0]) == 1

    def test_neutral_element_returns_operand(self):
        one = RnFixed(8, 5, 0, -3)
        for bits in range(8, 16):
            for r in (0, 1):
                x = RnFixed(bits, 5, r, -3)
                assert div(x, one) == (x, False)

    def test_worked_quotient(self):
        # 1.100 with clear round bit over 1.000 with set round bit: 24/17
        quot, inexact = div(RnFixed(12, 5, 0, -3), RnFixed(8, 5, 1, -3))
        assert quot == RnFixed(11, 5, 0, -3)
        assert inexact
        q = Fraction(24, 17)
        assert abs(val(quot) - q) <= Fraction(1, 16)

    def test_shifted_quotient(self):
        # 1.000 over 1.101 with set round bit: 16/27, below one
        quot, _ = div(RnFixed(8, 5, 0, -3), RnFixed(13, 5, 1, -3))
        assert quot.lsb_exp == -4
        assert val(quot) == Fraction(9, 16)

    def test_bad_operands_rejected(self):
        with pytest.raises(ValueError):
            div(RnFixed(7, 5, 1, -3), RnFixed(8, 5, 0, -3))

    def test_mismatched_lsb_exponents_rejected(self):
        with pytest.raises(ValueError, match="^operands must share an lsb exponent; align them first$"):
            div(RnFixed(8, 5, 0, -3), RnFixed(16, 6, 0, -4))

    def test_round_bit_reports_remainder_sign(self):
        for p in (3, 4):
            ops = [
                RnFixed(bits, p + 2, r, -p)
                for bits in range(1 << p, 1 << (p + 1))
                for r in (0, 1)
            ]
            for x in ops:
                n = 2 * x.bits + x.round
                for y in ops:
                    d = 2 * y.bits + y.round
                    quot, _ = div(x, y)
                    q = Fraction(n, d)
                    if quot.round:
                        assert q <= val(quot)
                    else:
                        assert q >= val(quot)


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


def _divmod_owners(tree):
    """Name of the function around each ``divmod`` call (None at module
    level)."""
    owners = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "divmod":
                owners.append(owner)
            visit(child, owner)

    visit(tree, None)
    return owners


class TestOneDivider:
    """The library divides in one place.  ``floatfmt``'s hex-digit count and
    ``cli``'s decimal rendering print values and keep their ``//`` and
    ``%``; ``verify``'s reference division stays independent of the
    library, so it is not walked."""

    @staticmethod
    def _tree(module):
        return ast.parse(Path(module.__file__).read_text())

    def test_divmod_only_in_long_divide(self):
        owners = {
            m.__name__: _divmod_owners(self._tree(m)) for m in (core, fixed, floatfmt, floatarith, cli)
        }
        assert owners == {
            "rnarith.core": [], "rnarith.fixed": ["long_divide"], "rnarith.floatfmt": [],
            "rnarith.floatarith": [], "rnarith.cli": [],
        }

    @pytest.mark.parametrize("module", [fixed, floatarith])
    def test_no_floor_division_or_modulo(self, module):
        ops = [
            node.op for node in ast.walk(self._tree(module))
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, (ast.FloorDiv, ast.Mod))
        ]
        assert ops == []


class TestOneResultShape:
    """Division returns ``(quotient, inexact)`` like every float op, reading
    ``p`` from its operands; the CLI evaluates with functions, not state."""

    @staticmethod
    def _tree(module):
        return ast.parse(Path(module.__file__).read_text())

    def _defined(self, module, kind):
        return {node.name: node for node in ast.walk(self._tree(module)) if isinstance(node, kind)}

    def test_no_div_result_class(self):
        assert "DivResult" not in self._defined(fixed, ast.ClassDef)

    def test_div_takes_two_operands(self):
        args = self._defined(fixed, ast.FunctionDef)["div"].args
        assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["x", "y"]
        assert args.vararg is None and args.kwarg is None

    def test_cli_defines_only_its_error(self):
        assert set(self._defined(cli, ast.ClassDef)) == {"CliError"}
