import random
from fractions import Fraction

import pytest

from rnarith.core import DyadicInterval, DyadicRational
from rnarith.floatfmt import RNF8
from rnarith.oracle import (
    VerifyReport,
    check_inclusion,
    enumerate_div_operands,
    enumerate_fixed,
    enumerate_format,
    reference_round_nearest,
)


def iv(lo, hi):
    return DyadicInterval(DyadicRational(*lo), DyadicRational(*hi))


class TestReferenceRound:
    def test_tie_returns_both(self):
        picks = reference_round_nearest(Fraction(-718), 2)
        assert {p.to_fraction() for p in picks} == {-720, -716}

    def test_grid_points_fixed(self):
        (only,) = reference_round_nearest(Fraction(-716), 2)
        assert only.to_fraction() == -716

    def test_half_grid_bound_randomized(self):
        rng = random.Random(42)
        for _ in range(500):
            x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            k = rng.randint(-6, 6)
            picks = reference_round_nearest(x, k)
            for p in picks:
                assert abs(p.to_fraction() - x) <= Fraction(1, 2) * Fraction(2) ** k

    def test_agrees_with_distance_minimization(self):
        rng = random.Random(9)
        grid = Fraction(1, 8)
        for _ in range(300):
            x = Fraction(rng.randint(-4000, 4000), rng.randint(1, 300))
            picks = reference_round_nearest(x, -3)
            base = (x / grid).numerator // (x / grid).denominator
            best = min(abs(x - n * grid) for n in range(base - 4, base + 5))
            assert all(abs(p.to_fraction() - x) == best for p in picks)


class TestEnumerators:
    def test_fixed_count(self):
        assert sum(1 for _ in enumerate_fixed(5)) == 64

    def test_format_count(self):
        assert sum(1 for _ in enumerate_format(RNF8)) == 256

    def test_div_operand_count(self):
        assert sum(1 for _ in enumerate_div_operands(3)) == (8 * 2) ** 2

    def test_no_duplicates(self):
        seen = set(enumerate_fixed(6))
        assert len(seen) == 128

    def test_oversize_guarded(self):
        with pytest.raises(ValueError):
            list(enumerate_fixed(40))


class TestCheckInclusion:
    def test_worked_product_interval(self):
        result = iv((239, -1), (120, 0))  # [119.5, 120]
        a = iv((23, -1), (12, 0))         # [11.5, 12]
        b = iv((19, -1), (10, 0))         # [9.5, 10]
        assert check_inclusion(result, a, b, "mul-nonneg")

    def test_reflexive_add(self):
        a = iv((1, 0), (2, 0))
        zero = iv((0, 0), (0, 0))
        assert check_inclusion(a, a, zero, "add")

    def test_superset_rejected(self):
        result = iv((0, 0), (4, 0))
        a = iv((1, 0), (2, 0))
        b = iv((0, 0), (1, 0))
        assert not check_inclusion(result, a, b, "add")

    def test_div_bounds(self):
        x = iv((1, 0), (17, -4))
        y = iv((27, -4), (7, -2))
        inside = iv((19, -5), (5, -3))       # [0.59375, 0.625]
        outside = iv((9, -4), (5, -3))       # dips below the image's low end
        assert check_inclusion(inside, x, y, "div-normalized")
        assert not check_inclusion(outside, x, y, "div-normalized")


class TestVerifyReport:
    def test_pass_text(self):
        rep = VerifyReport("demo", "width=4")
        rep.cases = 10
        rep.done()
        lines = rep.to_text().splitlines()
        assert lines[0] == "verify demo width=4"
        assert lines[-1].startswith("PASS 10 0 ")
        assert rep.passed

    def test_fail_lines(self):
        rep = VerifyReport("demo", "width=4")
        rep.cases = 2
        rep.record("x=1", "2", "3")
        rep.done()
        lines = rep.to_text().splitlines()
        assert lines[1] == "FAIL demo in=x=1 want=2 got=3"
        assert lines[-1].startswith("FAIL 2 1 ")
        assert not rep.passed
