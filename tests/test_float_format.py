from fractions import Fraction

import pytest

from rnarith.core import RnFixed
from rnarith.floatarith import (
    RoundingMode,
    fadd_with_sticky,
    fadd_words,
    fdiv_with_sticky,
    fdiv_words,
    fmul_with_sticky,
    fmul_words,
)
from rnarith.floatfmt import (
    FORMATS,
    RNF8,
    RNF16,
    RNF32,
    RNF64,
    FloatClass,
    FloatFormat,
    RnFloat,
    UnpackedFloat,
    decode,
    float_negate,
    format_fields,
    format_hex_literal,
    pack,
    parse_float_literal,
    unpack,
    value_of_float,
)

ONE = RnFloat(RNF8, 0x30)  # s=0 e=011 f=000 r=0


class TestFormatLayout:
    @pytest.mark.parametrize(
        "fmt,total,bias",
        [(RNF8, 8, 3), (RNF16, 16, 15), (RNF32, 32, 127), (RNF64, 64, 1023)],
    )
    def test_field_widths(self, fmt, total, bias):
        assert fmt.total_bits == total
        assert fmt.total_bits == 1 + fmt.exp_bits + (fmt.precision - 1) + 1
        assert fmt.bias == bias

    def test_exponent_range(self):
        assert RNF8.e_min == -2
        assert RNF8.e_max == 3

    @pytest.mark.parametrize(
        "fmt",
        [*FORMATS.values(), FloatFormat(2, 2), FloatFormat(2, 3), FloatFormat(3, 3), FloatFormat(4, 2)],
    )
    def test_derived_constants_closed_forms(self, fmt):
        e, p = fmt.exp_bits, fmt.precision
        assert fmt.total_bits == e + p + 1
        assert fmt.bias == 2 ** (e - 1) - 1
        assert fmt.e_min == 2 - 2 ** (e - 1)
        assert fmt.e_max == 2 ** (e - 1) - 1
        assert fmt.exp_mask == 2 ** e - 1
        assert fmt.frac_bits == p - 1

    def test_equality_ignores_derived_constants(self):
        twin = FloatFormat(3, 4, "rnf8")
        assert twin == RNF8 and twin is not RNF8
        assert hash(twin) == hash(RNF8)
        assert repr(twin) == "FloatFormat(exp_bits=3, precision=4, name='rnf8')"
        assert FloatFormat(3, 4) != RNF8

    def test_equal_format_objects_give_the_same_results(self):
        twin = FloatFormat(3, 4, "rnf8")
        words = range(0, 256, 7)
        for op in (fadd_words, fmul_words, fdiv_words):
            for mode in RoundingMode:
                for wa in words:
                    for wb in words:
                        assert op(twin, wa, wb, mode) == op(RNF8, wa, wb, mode)

    @pytest.mark.parametrize("op", [fadd_with_sticky, fmul_with_sticky, fdiv_with_sticky])
    def test_different_formats_rejected(self, op):
        for other in (FloatFormat(3, 4), RNF16):
            with pytest.raises(ValueError, match="share a format"):
                op(ONE, RnFloat(other, 0x30))


class TestUnpack:
    def test_one(self):
        u = unpack(ONE)
        assert u.cls is FloatClass.NORMAL
        assert u.sign == 0 and u.biased_exp == 3
        assert u.significand == RnFixed(8, 5, 0, -3)

    def test_hidden_bit_is_complement_of_sign(self):
        neg = unpack(RnFloat(RNF8, 0xB0))  # s=1 e=011 f=000 r=0
        assert neg.cls is FloatClass.NORMAL
        assert neg.significand == RnFixed(-16, 5, 0, -3)  # 10.000, value -2

    def test_zero_word(self):
        assert unpack(RnFloat(RNF8, 0)).cls is FloatClass.ZERO

    def test_decode_scale(self):
        assert decode(RNF8, 0x30)[4] == 0  # normal: e - bias
        assert decode(RNF8, 0x6F)[4] == RNF8.e_max
        for word in (0x00, 0x01, 0x8F, 0x70, 0x71):  # every other class
            assert decode(RNF8, word)[4] == RNF8.e_min

    @pytest.mark.parametrize("fmt", [RNF8, FloatFormat(2, 3)], ids=lambda f: f.name or "e2p3")
    def test_decode_refuses_words_outside_the_format(self, fmt):
        for word in (-1, 1 << fmt.total_bits, -(1 << fmt.total_bits), 1 << (2 * fmt.total_bits)):
            with pytest.raises(ValueError, match="word does not fit the format"):
                decode(fmt, word)
        decode(fmt, (1 << fmt.total_bits) - 1)  # the top word is in the format

    def test_infinities(self):
        for sign, word in ((0, 0x70), (1, 0xF0)):
            u = unpack(RnFloat(RNF8, word))
            assert u.cls is FloatClass.INFINITY and u.sign == sign

    def test_nan_patterns(self):
        for word in (0x71, 0x7E, 0xF7):
            assert unpack(RnFloat(RNF8, word)).cls is FloatClass.NAN

    def test_subnormals(self):
        u = unpack(RnFloat(RNF8, 0x01))  # s=0 e=0 f=000 r=1
        assert u.cls is FloatClass.SUBNORMAL
        assert u.significand == RnFixed(0, 4, 1, -3)
        neg = unpack(RnFloat(RNF8, 0x80))  # s=1 e=0 f=000 r=0
        assert neg.cls is FloatClass.SUBNORMAL
        assert neg.significand == RnFixed(-8, 4, 0, -3)

    def test_normal_significands_are_normalized(self):
        for word in range(1 << 8):
            u = unpack(RnFloat(RNF8, word))
            if u.cls is not FloatClass.NORMAL:
                continue
            sig = u.significand
            top = (sig.bits >> 4) & 1
            second = (sig.bits >> 3) & 1
            assert top != second
            mag = abs(Fraction(sig.bits + sig.round, 8))
            assert 1 <= mag <= 2


class TestPack:
    def test_roundtrip_all_rnf8_words(self):
        for word in range(1 << 8):
            f = RnFloat(RNF8, word)
            assert pack(unpack(f)) == f

    @pytest.mark.parametrize(
        "cls,biased_exp,sig",
        [
            (FloatClass.NORMAL, 3, RnFixed(4, 5, 0, -3)),
            (FloatClass.NORMAL, 7, RnFixed(8, 5, 0, -3)),
            (FloatClass.ZERO, 0, RnFixed(1, 4, 0, -3)),
            (FloatClass.SUBNORMAL, 0, RnFixed(0, 4, 0, -3)),
            (FloatClass.INFINITY, 7, RnFixed(0, 4, 1, -3)),
        ],
        # the last three are the fields of 0x02, 0x00 and 0x71 under another class
        ids=["unnormalized", "normal-at-max-exp", "zero-on-0x02", "subnormal-on-0x00", "inf-on-0x71"],
    )
    def test_view_of_no_word_rejected(self, cls, biased_exp, sig):
        with pytest.raises(ValueError):
            pack(UnpackedFloat(RNF8, cls, 0, biased_exp, sig))


class TestValue:
    def test_one(self):
        assert value_of_float(ONE).to_fraction() == 1

    def test_negated_one(self):
        assert value_of_float(float_negate(ONE)).to_fraction() == -1

    def test_boundary_value_two_spellings(self):
        # all-ones fraction with the round bit set reaches the next power
        hi = RnFloat(RNF8, 0x3F)  # s=0 e=011 f=111 r=1
        assert value_of_float(hi).to_fraction() == 2
        lo = RnFloat(RNF8, 0x40)  # s=0 e=100 f=000 r=0
        assert value_of_float(lo).to_fraction() == 2

    def test_smallest_subnormal(self):
        assert value_of_float(RnFloat(RNF8, 0x01)).to_fraction() == Fraction(1, 32)

    def test_negative_zero_spelling_has_value_zero(self):
        weird = RnFloat(RNF8, 0x8F)  # s=1 e=0 f=111 r=1
        assert unpack(weird).cls is FloatClass.SUBNORMAL
        assert value_of_float(weird).to_fraction() == 0

    def test_specials_return_markers(self):
        assert value_of_float(RnFloat(RNF8, 0x70)) is FloatClass.INFINITY
        assert value_of_float(RnFloat(RNF8, 0x71)) is FloatClass.NAN


class TestNegate:
    def test_one_to_minus_one_fields(self):
        neg = float_negate(ONE)
        assert neg.sign == 1
        assert neg.frac == 0b111
        assert neg.round == 1

    def test_involution_on_nonzero(self):
        for word in range(1 << 8):
            f = RnFloat(RNF8, word)
            v = value_of_float(f)
            if isinstance(v, FloatClass) or v.mantissa == 0:
                continue
            assert float_negate(float_negate(f)) == f

    def test_zero_canonicalization(self):
        assert float_negate(RNF8.zero()) == RNF8.zero()
        assert float_negate(RnFloat(RNF8, 0x8F)) == RNF8.zero()

    def test_specials(self):
        assert float_negate(RNF8.inf(0)) == RNF8.inf(1)
        assert unpack(float_negate(RNF8.nan())).cls is FloatClass.NAN

    def test_value_antisymmetry_exhaustive(self):
        for word in range(1 << 8):
            f = RnFloat(RNF8, word)
            v = value_of_float(f)
            if isinstance(v, FloatClass):
                continue
            assert value_of_float(float_negate(f)).to_fraction() == -v.to_fraction()


class TestLiterals:
    def test_hex_roundtrip(self):
        for word in (0, 0x30, 0xFF, 0x8F):
            f = RnFloat(RNF8, word)
            assert parse_float_literal(format_hex_literal(f)) == f

    def test_fields_roundtrip(self):
        for word in (0, 0x30, 0xB5, 0x7F):
            f = RnFloat(RNF8, word)
            text = f"rnf8:{format_fields(f)}"
            assert parse_float_literal(text) == f

    def test_known_hex(self):
        assert format_hex_literal(ONE) == "rnf8:0x30"
        assert parse_float_literal("rnf16:0x3c00").fmt is RNF16

    @pytest.mark.parametrize("bad", ["rnf8:0x100", "rnf9:0x00", "rnf8:s=2 e=0 f=000 r=0", "0x30"])
    def test_bad_literals(self, bad):
        with pytest.raises(ValueError):
            parse_float_literal(bad)

    def test_format_registry(self):
        assert set(FORMATS) == {"rnf8", "rnf16", "rnf32", "rnf64"}
