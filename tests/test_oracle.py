import pytest

import rnarith.floatarith as fa
import rnarith.verify as verify
from rnarith.core import DyadicInterval, DyadicRational
from rnarith.floatfmt import RNF8, FloatClass, RnFloat
from rnarith.oracle import (
    VerifyReport,
    check_inclusion,
    enumerate_div_operands,
    enumerate_fixed,
    enumerate_format,
)


def iv(lo, hi):
    return DyadicInterval(DyadicRational(*lo), DyadicRational(*hi))


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
        assert check_inclusion(result, a, b)

    def test_outside_product_image_rejected(self):
        a = iv((1, 0), (2, 0))
        b = iv((3, 0), (4, 0))            # image [3, 8]
        assert check_inclusion(iv((3, 0), (8, 0)), a, b)
        assert not check_inclusion(iv((5, -1), (4, 0)), a, b)  # dips below 3
        assert not check_inclusion(iv((4, 0), (9, 0)), a, b)   # reaches past 8

    def test_negative_operand_rejected(self):
        with pytest.raises(ValueError):
            check_inclusion(iv((0, 0), (1, 0)), iv((-1, 0), (1, 0)), iv((1, 0), (2, 0)))
        with pytest.raises(ValueError):
            check_inclusion(iv((0, 0), (1, 0)), iv((1, 0), (2, 0)), iv((-1, -1), (1, 0)))


class TestSweepsCatchFaults:
    """A planted fault in the code under test shows up as sweep failures."""

    def test_flipped_shortcut_round_bit(self, monkeypatch):
        good = fa.far_shortcut
        monkeypatch.setattr(fa, "far_shortcut", lambda a, b: RnFloat(a.fmt, good(a, b).word ^ 1))
        rep = verify.far_shortcut_sweep(RNF8)
        assert (rep.cases, len(rep.failures)) == (1984, 992)

    def test_infinity_reported_as_nan(self, monkeypatch):
        good = verify.value_of_float

        def faulty(f):
            v = good(f)
            return FloatClass.NAN if v is FloatClass.INFINITY else v

        monkeypatch.setattr(verify, "value_of_float", faulty)
        rep = verify.pack_unpack_sweep(RNF8)
        assert (rep.cases, len(rep.failures)) == (256, 2)


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
