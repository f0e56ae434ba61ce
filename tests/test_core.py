import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rnarith.core import (
    DyadicInterval,
    DyadicRational,
    RnFixed,
    SignedDigitString,
    booth_recode,
    canonical_of_sd,
    format_literal,
    interval_of,
    negate,
    parse_literal,
    sd_of_canonical,
    truncate_at,
    validate_rn,
    value_of,
)
from rnarith.oracle import enumerate_fixed

EXAMPLE_WORD = -718  # 110100110010 as a 12-bit two's complement word
EXAMPLE_DIGITS = (0, -1, 1, -1, 0, 1, 0, -1, 0, 1, -1, 0)


class TestDyadicRational:
    def test_normalization(self):
        assert DyadicRational(12, 0) == DyadicRational(3, 2)
        assert DyadicRational(0, 17) == DyadicRational(0, 0)
        x = DyadicRational(-12)
        assert (x.mantissa, x.exp) == (-3, 2)

    def test_normalization_of_long_mantissa_is_fast(self):
        t0 = time.perf_counter()
        for _ in range(10):
            x = DyadicRational(1 << 40000)
        assert (x.mantissa, x.exp) == (1, 40000)
        assert time.perf_counter() - t0 < 0.1

    def test_arithmetic(self):
        a = DyadicRational(3, -2)  # 0.75
        b = DyadicRational(1, -1)  # 0.5
        assert b < a < DyadicRational(5, -2)

    @pytest.mark.parametrize(
        "m,e,text",
        [(0, 0, "0"), (12, 0, "12"), (1, -1, "0.5"), (-13, -2, "-3.25"), (3, 4, "48")],
    )
    def test_decimal_string(self, m, e, text):
        assert str(DyadicRational(m, e)) == text


class TestBoothRecode:
    def test_worked_example(self):
        sd = booth_recode(EXAMPLE_WORD, 12)
        assert sd.digits == EXAMPLE_DIGITS
        acc = 0
        for d in sd.digits:
            acc = 2 * acc + d
        assert acc == EXAMPLE_WORD

    def test_zero_word(self):
        assert booth_recode(0, 12).digits == (0,) * 12

    def test_exhaustive_value_match(self):
        for word in range(-128, 128):
            sd = booth_recode(word, 8)
            acc = 0
            for d in sd.digits:
                acc = 2 * acc + d
            assert acc == word

    def test_exhaustive_validity(self):
        for word in range(-512, 512):
            assert validate_rn(booth_recode(word, 10))


class TestCanonicalOfSd:
    def test_worked_truncation_example(self):
        sd = SignedDigitString(EXAMPLE_DIGITS[:10], 2)
        assert canonical_of_sd(sd) == RnFixed(-180, 10, 1, 2)

    def test_all_zero(self):
        assert canonical_of_sd(SignedDigitString((0,) * 6)) == RnFixed(0, 6, 0, 0)

    def test_rejects_same_sign_neighbors(self):
        # every string of length 1-8 (9,840): raises exactly on the ones
        # validate_rn refuses, and sd_of_canonical inverts it on the rest
        for n in range(1, 9):
            for digits in itertools.product((-1, 0, 1), repeat=n):
                sd = SignedDigitString(digits, -n)
                if not validate_rn(sd):
                    with pytest.raises(ValueError):
                        canonical_of_sd(sd)
                    continue
                x = canonical_of_sd(sd)
                assert (x.width, x.lsb_exp) == (n, -n)
                assert sd_of_canonical(x).digits == digits

    def test_accepts_both_tail_spellings(self):
        minus_tail = SignedDigitString((1, 0, -1))      # 3 ending in -1
        plus_tail = SignedDigitString((0, 1, -1, 1))    # 3 ending in +1
        assert value_of(canonical_of_sd(minus_tail)).to_fraction() == 3
        assert value_of(canonical_of_sd(plus_tail)).to_fraction() == 3

    def test_random_width10_value(self):
        import random

        rng = random.Random(7)
        for _ in range(200):
            word = rng.randrange(-512, 512)
            r = rng.randrange(2)
            x = RnFixed(word, 10, r, 0)
            sd = sd_of_canonical(x)
            assert canonical_of_sd(sd) == x or x.bits + x.round == 0


class TestSdOfCanonical:
    def test_worked_example(self):
        sd = sd_of_canonical(RnFixed(-180, 10, 1, 2))
        assert sd.digits == (0, -1, 1, -1, 0, 1, 0, -1, 0, 1)
        assert sd.lsb_exp == 2

    def test_zero(self):
        assert sd_of_canonical(RnFixed(0, 8, 0)).digits == (0,) * 8

    def test_exhaustive_string_roundtrip(self):
        for e in enumerate_fixed(8):
            x = RnFixed(e >> 1, 8, e & 1)
            sd = sd_of_canonical(x)
            assert validate_rn(sd)
            back = canonical_of_sd(sd)
            if x.bits + x.round == 0:
                assert back == RnFixed(0, 8, 0, 0)
            else:
                assert back == x
            assert sd_of_canonical(back).digits == sd.digits


class TestValueOf:
    def test_worked_operand(self):
        assert value_of(RnFixed(11, 5, 1)).to_fraction() == 12

    def test_round_bit_clear(self):
        assert value_of(RnFixed(11, 5, 0, -2)).to_fraction() == Fraction(11, 4)

    def test_spelling_equivalence_exhaustive(self):
        for bits in range(-128, 127):
            assert value_of(RnFixed(bits, 8, 1)) == value_of(RnFixed(bits + 1, 8, 0))


def val(x, lsb=0):
    """Value of encoding ``x = 2*bits + round`` with lsb exponent ``lsb``."""
    return Fraction((x + 1) >> 1) * Fraction(2) ** lsb


class TestTruncateAt:
    def test_worked_example_tie(self):
        x = 2 * EXAMPLE_WORD
        t = truncate_at(x, 2)
        assert t == 2 * -180 + 1
        assert val(t, 2) == -716
        assert val(x) == -718

    def test_identity(self):
        x = 2 * -37 + 1
        assert truncate_at(x, 0) == x

    def test_below_lsb_rejected(self):
        with pytest.raises(ValueError):
            truncate_at(2 * 3, -1)

    def test_half_ulp_bound_exhaustive(self):
        for x in enumerate_fixed(8):
            for k in range(0, 8):
                err = val(truncate_at(x, k), k) - val(x)
                assert abs(err) <= Fraction(1 << k, 2)

    def test_double_rounding_exhaustive_width10(self):
        for x in enumerate_fixed(10):
            for j in range(0, 10):
                inner = truncate_at(x, j)
                for k in range(j, 10):
                    assert truncate_at(inner, k - j) == truncate_at(x, k)

    @given(st.integers(-(1 << 15), (1 << 15) - 1), st.integers(0, 1), st.integers(0, 15))
    def test_half_ulp_bound_property(self, bits, r, k):
        x = 2 * bits + r
        err = val(truncate_at(x, k), k) - val(x)
        assert abs(err) <= Fraction(1 << k, 2)

    def test_matches_the_word_and_round_bit_rule(self):
        # the dropped word bits vanish and the first of them is the new round bit
        for width in range(1, 11):
            for x in enumerate_fixed(width):
                bits = x >> 1
                for s in range(1, width):
                    assert truncate_at(x, s) == 2 * (bits >> s) + ((bits >> (s - 1)) & 1)


class TestNegate:
    def test_worked_example(self):
        n = negate(2 * 11 + 1)
        assert n == 2 * -12
        assert val(n) == -12

    def test_zero_spellings(self):
        n = negate(0)
        assert n == 2 * -1 + 1
        assert val(n) == 0

    def test_involution_and_value_exhaustive(self):
        for x in enumerate_fixed(8):
            n = negate(x)
            assert negate(n) == x
            assert val(n) == -val(x)
            assert n >> 1 == ~(x >> 1) and n & 1 == 1 - (x & 1)  # word and round bit complemented


class TestIntervalOf:
    def test_worked_example(self):
        iv = interval_of(RnFixed(119, 9, 1))
        assert iv.lo.to_fraction() == Fraction(239, 2)
        assert iv.hi.to_fraction() == 120

    def test_round_bit_clear_formula(self):
        iv = interval_of(RnFixed(6, 5, 0, -1))
        assert iv.lo.to_fraction() == 3
        assert iv.hi.to_fraction() == Fraction(13, 4)

    def test_adjacent_encodings_tile(self):
        a = RnFixed(4, 5, 0)
        tiles = [interval_of(a), interval_of(RnFixed(4, 5, 1)),
                 interval_of(RnFixed(5, 5, 0)), interval_of(RnFixed(5, 5, 1))]
        for left, right in zip(tiles, tiles[1:]):
            assert left.hi == right.lo
        assert tiles[0].lo.to_fraction() == 4
        assert tiles[-1].hi.to_fraction() == 6
        for iv in tiles:
            assert iv.hi.to_fraction() - iv.lo.to_fraction() == Fraction(1, 2)


class TestValidateRn:
    def test_alternating(self):
        assert validate_rn(SignedDigitString((1, -1, 0, 1, 0, -1)))

    def test_same_sign_adjacent(self):
        assert not validate_rn(SignedDigitString((1, 1)))

    def test_bad_digit_rejected_at_construction(self):
        with pytest.raises(ValueError):
            SignedDigitString((2, 0))


class TestRoundBitMatchesLastDigit:
    """A nonzero value's round bit is 1 exactly when its last nonzero
    signed digit is +1."""

    def test_matches_last_nonzero_digit_exhaustive(self):
        for e in enumerate_fixed(8):
            x = RnFixed(e >> 1, 8, e & 1)
            if x.bits + x.round == 0:
                continue
            last = next(d for d in reversed(sd_of_canonical(x).digits) if d != 0)
            assert x.round == (last == 1)


class TestLiterals:
    def test_worked_literal(self):
        x = parse_literal("rn:01011:r1@0")
        assert x == RnFixed(11, 5, 1, 0)
        assert format_literal(x) == "rn:01011:r1@0"

    def test_negative_word(self):
        x = parse_literal("rn:1101001100:r1@2")
        assert x == RnFixed(-180, 10, 1, 2)

    @pytest.mark.parametrize("bad", ["rn:01011:r2@0", "rn:01a11:r1@0", "01011", "rn::r1@0"])
    def test_bad_literals(self, bad):
        with pytest.raises(ValueError):
            parse_literal(bad)

    @given(
        st.integers(2, 16).flatmap(
            lambda w: st.tuples(
                st.integers(-(1 << (w - 1)), (1 << (w - 1)) - 1),
                st.just(w),
                st.integers(0, 1),
                st.integers(-10, 10),
            )
        )
    )
    def test_roundtrip_property(self, parts):
        bits, w, r, e = parts
        x = RnFixed(bits, w, r, e)
        assert parse_literal(format_literal(x)) == x


class TestRoundTripSweep:
    def test_booth_roundtrip_width12(self):
        import rnarith.verify as verify

        rep = verify.roundtrip_sweep(12)
        assert rep.passed, rep.failures[:5]


class TestIntervalType:
    def test_reversed_endpoints_rejected(self):
        with pytest.raises(ValueError):
            DyadicInterval(DyadicRational(1), DyadicRational(0))
