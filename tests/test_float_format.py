import ast
from fractions import Fraction
from pathlib import Path

import pytest

import rnarith.floatfmt as floatfmt
import rnarith.oracle as oracle
import rnarith.verify as verify
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
    decode,
    float_negate,
    format_fields,
    format_hex_literal,
    parse_float_literal,
    value_of_float,
)


def fraction(v):
    """The exact value of an ``(n, d, k)`` triple, ``n/d * 2**k``, as a ``Fraction``."""
    n, d, k = v
    return Fraction(n, d) * Fraction(2) ** k


ONE = 0x30  # rnf8: s=0 e=011 f=000 r=0


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

    @pytest.mark.parametrize("e", range(2, 7))
    def test_word_constants_closed_forms(self, e):
        """The constants the decoder and the sink read, against their
        formulas, for every shape with 2-6 exponent bits and precision 2-8."""
        for p in range(2, 9):
            fmt = FloatFormat(e, p)
            total = e + p + 1
            assert fmt.sign_shift == total - 1
            assert fmt.frac_mask == 2 ** (p - 1) - 1
            assert fmt.low_mask == 2 ** p - 1
            assert (fmt.hidden_pos, fmt.hidden_neg) == (2 ** p, -(2 ** (p + 1)))
            assert fmt.word_end == 1 << fmt.total_bits == 2 ** total
            inf = (2 ** e - 1) * 2 ** p
            assert fmt.inf_words == (inf, 2 ** (total - 1) + inf)
            assert fmt.nan_word == fmt.inf_words[0] | 1
            for word in (-1, fmt.word_end):
                with pytest.raises(ValueError, match="word does not fit the format"):
                    decode(fmt, word)
            decode(fmt, fmt.word_end - 1)

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
                op(RnFloat(RNF8, ONE), RnFloat(other, 0x30))


class TestUnpack:
    """A word's fields as ``decode`` reads them: class, sign, the significand
    integer ``x = 2*w + r`` and the scale."""

    def test_one(self):
        # x = 2 * 0b01000: the significand 01.000 at scale 0, the biased exponent 3
        assert decode(RNF8, ONE) == (FloatClass.NORMAL, 0, 16, 0)

    def test_hidden_bit_is_complement_of_sign(self):
        # s=1 e=011 f=000 r=0: x = 2 * -0b10000, the significand 10.000, value -2
        assert decode(RNF8, 0xB0) == (FloatClass.NORMAL, 1, -32, 0)

    def test_zero_word(self):
        assert decode(RNF8, 0)[0] is FloatClass.ZERO

    def test_decode_scale(self):
        assert decode(RNF8, 0x30)[3] == 0  # normal: e - bias
        assert decode(RNF8, 0x6F)[3] == RNF8.e_max
        for word in (0x00, 0x01, 0x8F, 0x70, 0x71):  # every other class
            assert decode(RNF8, word)[3] == RNF8.e_min

    @pytest.mark.parametrize("fmt", [RNF8, FloatFormat(2, 3)], ids=lambda f: f.name or "e2p3")
    def test_decode_refuses_words_outside_the_format(self, fmt):
        for word in (-1, 1 << fmt.total_bits, -(1 << fmt.total_bits), 1 << (2 * fmt.total_bits)):
            with pytest.raises(ValueError, match="word does not fit the format"):
                decode(fmt, word)
        decode(fmt, (1 << fmt.total_bits) - 1)  # the top word is in the format

    def test_infinities(self):
        for sign, word in ((0, 0x70), (1, 0xF0)):
            assert decode(RNF8, word)[:2] == (FloatClass.INFINITY, sign)

    def test_nan_patterns(self):
        for word in (0x71, 0x7E, 0xF7):
            assert decode(RNF8, word)[0] is FloatClass.NAN

    def test_subnormals(self):
        # s=0 e=0 f=000 r=1: the significand 0.000 with its round bit
        assert decode(RNF8, 0x01) == (FloatClass.SUBNORMAL, 0, 1, RNF8.e_min)
        # s=1 e=0 f=000 r=0: the significand 1.000, x = 2 * -0b1000
        assert decode(RNF8, 0x80) == (FloatClass.SUBNORMAL, 1, -16, RNF8.e_min)

    def test_normal_significands_are_normalized(self):
        for word in range(1 << 8):
            cls, _, x, _ = decode(RNF8, word)
            if cls is not FloatClass.NORMAL:
                continue
            w = x >> 1  # the p+1-bit significand word
            top = (w >> 4) & 1
            second = (w >> 3) & 1
            assert top != second
            mag = abs(Fraction((x + 1) >> 1, 8))
            assert 1 <= mag <= 2


class TestAssemble:
    def test_roundtrip_all_rnf8_words(self):
        """``_assemble`` packs ``decode``'s fields back into the word: the
        exponent field follows from the class and the scale, and the low p
        bits from ``x``."""
        for word in range(1 << 8):
            cls, s, x, scale = decode(RNF8, word)
            if cls is FloatClass.NORMAL:
                biased = scale + RNF8.bias
            else:
                biased = RNF8.exp_mask if cls in (FloatClass.INFINITY, FloatClass.NAN) else 0
            out = floatfmt._assemble(RNF8, s, biased, x & RNF8.low_mask)
            assert type(out) is int and out == word


class TestValue:
    def test_one(self):
        assert fraction(value_of_float(RNF8, ONE)) == 1

    def test_negated_one(self):
        assert fraction(value_of_float(RNF8, float_negate(RNF8, ONE))) == -1

    def test_boundary_value_two_spellings(self):
        # all-ones fraction with the round bit set reaches the next power
        hi = 0x3F  # s=0 e=011 f=111 r=1
        assert fraction(value_of_float(RNF8, hi)) == 2
        lo = 0x40  # s=0 e=100 f=000 r=0
        assert fraction(value_of_float(RNF8, lo)) == 2

    def test_smallest_subnormal(self):
        assert fraction(value_of_float(RNF8, 0x01)) == Fraction(1, 32)

    def test_negative_zero_spelling_has_value_zero(self):
        weird = 0x8F  # s=1 e=0 f=111 r=1
        assert decode(RNF8, weird)[0] is FloatClass.SUBNORMAL
        assert fraction(value_of_float(RNF8, weird)) == 0

    def test_specials_return_markers(self):
        assert value_of_float(RNF8, 0x70) is FloatClass.INFINITY
        assert value_of_float(RNF8, 0x71) is FloatClass.NAN


class TestNegate:
    def test_one_to_minus_one_fields(self):
        neg = float_negate(RNF8, ONE)
        assert decode(RNF8, neg)[:2] == (FloatClass.NORMAL, 1)
        assert format_fields(RNF8, neg) == "s=1 e=3 f=111 r=1"

    def test_involution_on_finite(self):
        for word in range(1 << 8):
            if isinstance(value_of_float(RNF8, word), FloatClass):
                continue
            assert float_negate(RNF8, float_negate(RNF8, word)) == word

    def test_zero_spellings_swap(self):
        assert float_negate(RNF8, 0) == 0x8F  # s=1 e=0 f=111 r=1, the all-ones zero
        assert float_negate(RNF8, 0x8F) == 0

    def test_specials(self):
        assert float_negate(RNF8, RNF8.inf_words[0]) == RNF8.inf_words[1]
        assert decode(RNF8, float_negate(RNF8, RNF8.nan_word))[0] is FloatClass.NAN

    def test_value_antisymmetry_exhaustive(self):
        for word in range(1 << 8):
            v = value_of_float(RNF8, word)
            if isinstance(v, FloatClass):
                continue
            assert fraction(value_of_float(RNF8, float_negate(RNF8, word))) == -fraction(v)


class TestLiterals:
    def test_hex_roundtrip(self):
        for word in (0, 0x30, 0xFF, 0x8F):
            f = RnFloat(RNF8, word)
            assert parse_float_literal(format_hex_literal(f)) == f

    def test_fields_roundtrip(self):
        for word in (0, 0x30, 0xB5, 0x7F):
            text = f"rnf8:{format_fields(RNF8, word)}"
            assert parse_float_literal(text) == RnFloat(RNF8, word)

    def test_known_hex(self):
        assert format_hex_literal(RnFloat(RNF8, ONE)) == "rnf8:0x30"
        assert parse_float_literal("rnf16:0x3c00").fmt is RNF16

    @pytest.mark.parametrize("bad", [
        "rnf8:0x100", "rnf9:0x00", "rnf8:s=2 e=0 f=000 r=0", "0x30",
        # a field named twice, an unknown field, a stray token
        "rnf8:s=0,e=3,f=000,r=0,s=1", "rnf8:s=0,e=3,f=000,r=0,x=9", "rnf8:s=0 e=3 f=000 r=0 junk",
    ])
    def test_bad_literals(self, bad):
        with pytest.raises(ValueError):
            parse_float_literal(bad)

    def test_format_registry(self):
        assert set(FORMATS) == {"rnf8", "rnf16", "rnf32", "rnf64"}


class TestWordsBelowTheCli:
    """A float is ``(fmt, word)`` below the literal parser and printer:
    ``RnFloat`` carries only a literal's format and word, and neither the
    oracle nor the sweeps name it."""

    @staticmethod
    def _tree(module):
        return ast.parse(Path(module.__file__).read_text())

    def _methods(self, cls_name):
        cls = next(node for node in ast.walk(self._tree(floatfmt))
                   if isinstance(node, ast.ClassDef) and node.name == cls_name)
        return {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}

    def test_format_builds_no_rnfloat(self):
        assert not self._methods("FloatFormat") & {"zero", "inf", "nan"}

    def test_rnfloat_is_only_a_checked_literal(self):
        assert self._methods("RnFloat") == {"__init__", "__str__"}

    @pytest.mark.parametrize("module", [oracle, verify], ids=lambda m: m.__name__)
    def test_oracle_and_sweeps_do_not_name_rnfloat(self, module):
        names = set()
        for node in ast.walk(self._tree(module)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        assert "RnFloat" not in names
