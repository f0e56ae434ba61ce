import hashlib
import random
from fractions import Fraction

import pytest

from rnarith.floatarith import (
    RoundingMode,
    StickyTail,
    directed_round_bit,
    fadd,
    fadd_with_sticky,
    fadd_words,
    far_shortcut,
    fdiv,
    fdiv_with_sticky,
    fdiv_words,
    fmul,
    fmul_with_sticky,
    fmul_words,
)
from rnarith.floatfmt import (
    RNF8,
    RNF16,
    RNF32,
    RNF64,
    FloatClass,
    FloatFormat,
    RnFloat,
    float_negate,
    unpack,
    value_of_float,
)
from rnarith.verify import _float_exact, _units, rounding_fault

ONE = RnFloat(RNF8, 0x30)
TWO = RnFloat(RNF8, 0x40)
NEG_ONE = float_negate(ONE)
TINY = RnFloat(RNF8, 0x01)  # smallest positive subnormal, 2**-5


def every_word():
    return (RnFloat(RNF8, w) for w in range(256))


def finite_value(f):
    v = value_of_float(f)
    return None if isinstance(v, FloatClass) else v.to_fraction()


class TestFaddBasics:
    def test_one_plus_one(self):
        assert fadd(ONE, ONE) == TWO

    def test_cancellation_gives_canonical_zero(self):
        for f in every_word():
            v = finite_value(f)
            if v is None:
                continue
            assert fadd(f, float_negate(f)) == RNF8.zero()

    def test_zero_operand_passthrough(self):
        for f in every_word():
            if finite_value(f) is None:
                continue
            if finite_value(f) != 0:
                assert fadd(f, RNF8.zero()) == f
                assert fadd(RNF8.zero(), f) == f

    def test_specials(self):
        inf, nan = RNF8.inf(0), RNF8.nan()
        assert fadd(inf, ONE) == inf
        assert fadd(ONE, RNF8.inf(1)) == RNF8.inf(1)
        assert unpack(fadd(inf, RNF8.inf(1))).cls is FloatClass.NAN
        assert unpack(fadd(nan, ONE)).cls is FloatClass.NAN

    def test_far_tie_rounds_by_truncation(self):
        # 1.111 * 2**0 + 1.000 * 2**-2 = 2.125, a tie at the coarser grid
        a = RnFloat(RNF8, 0x3E)
        b = RnFloat(RNF8, 0x10)
        out, sticky = fadd_with_sticky(a, b)
        assert sticky.nonzero
        assert out == RnFloat(RNF8, 0x41)
        assert finite_value(out) == Fraction(9, 4)

    def test_near_gap1_tie(self):
        # 15/8 - 9/16 = 21/16: not representable, rounds up to 11/8
        a = RnFloat(RNF8, 0x3E)
        b = RnFloat(RNF8, 0xAE)
        assert finite_value(a) == Fraction(15, 8)
        assert finite_value(b) == Fraction(-9, 16)
        out = fadd(a, b)
        assert finite_value(out) == Fraction(11, 8)

    def test_cancellation_into_subnormal_exact(self):
        just_above = RnFloat(RNF8, 0x31)  # 9/8
        out, sticky = fadd_with_sticky(ONE, float_negate(just_above))
        assert finite_value(out) == Fraction(-1, 8)
        assert not sticky.nonzero

    def test_overflow_saturates(self):
        big = RnFloat(RNF8, 0x6E)  # 15/8 * 2**3 = 15
        out = fadd(big, big)
        assert unpack(out).cls is FloatClass.INFINITY

    def test_exact_boundary_magnitude_is_finite(self):
        # 8 + 8 = 16 = 2**(e_max+1), representable on the boundary encoding
        eight = RnFloat(RNF8, 0x60)
        out = fadd(eight, eight)
        assert finite_value(out) == 16
        assert out == RnFloat(RNF8, 0x6F)  # s=0 e=110 f=111 r=1
        assert finite_value(fadd(float_negate(eight), float_negate(eight))) == -16

    def test_half_ulp_sample(self):
        values = [_units(RNF8, w) for w in range(256)]
        for wa in range(0, 256, 7):
            for wb in range(0, 256, 5):
                exact = _float_exact(RNF8, "add", wa, wb, values[wa], values[wb])
                if exact is None:
                    continue
                out, sticky = fadd_with_sticky(RnFloat(RNF8, wa), RnFloat(RNF8, wb))
                assert rounding_fault(RNF8, exact, RoundingMode.NEAREST, out.word, sticky.nonzero) is None


class TestNearFarPaths:
    def test_near_pairs_exact_when_representable(self):
        words = [RnFloat(RNF8, w) for w in range(256)]
        for a in words:
            va = finite_value(a)
            if va in (None, 0):
                continue
            ua = unpack(a)
            ea = (ua.biased_exp - RNF8.bias) if ua.cls is FloatClass.NORMAL else RNF8.e_min
            for b in words:
                vb = finite_value(b)
                if vb in (None, 0):
                    continue
                ub = unpack(b)
                if ua.sign == ub.sign:
                    continue
                eb = (ub.biased_exp - RNF8.bias) if ub.cls is FloatClass.NORMAL else RNF8.e_min
                if abs(ea - eb) > 1:
                    continue
                exact = va + vb
                out, sticky = fadd_with_sticky(a, b)
                triple = (exact.numerator, exact.denominator, 0)
                assert rounding_fault(RNF8, triple, RoundingMode.NEAREST, out.word, sticky.nonzero) is None
                # with true cancellation nothing can be dropped
                if exact != 0 and abs(exact) < Fraction(2) ** min(ea, eb):
                    assert not sticky.nonzero

    def test_far_gap2_power_sum_exact(self):
        quarter = RnFloat(RNF8, 0x10)
        out, sticky = fadd_with_sticky(ONE, quarter)
        assert finite_value(out) == Fraction(5, 4)
        assert not sticky.nonzero


class TestFarShortcut:
    def test_positive_small_operand_forces_round_bit(self):
        eight = RnFloat(RNF8, 0x60)
        assert far_shortcut(eight, TINY) == RnFloat(RNF8, 0x61)

    def test_negative_small_operand_clears_round_bit(self):
        eight_r1 = RnFloat(RNF8, 0x61)
        assert far_shortcut(eight_r1, float_negate(TINY)) == RnFloat(RNF8, 0x60)

    def test_gap_requirement(self):
        with pytest.raises(ValueError):
            far_shortcut(ONE, TINY)  # gap is 0 - (-2) = 2, not > p

    def test_zero_small_operand_rejected(self):
        with pytest.raises(ValueError):
            far_shortcut(RnFloat(RNF8, 0x60), RNF8.zero())


class TestFmul:
    def test_identity_value(self):
        for f in every_word():
            v = finite_value(f)
            if v is None:
                continue
            assert finite_value(fmul(ONE, f)) == v

    def test_negative_identity_matches_negate(self):
        for f in every_word():
            v = finite_value(f)
            if v is None:
                continue
            assert finite_value(fmul(NEG_ONE, f)) == finite_value(float_negate(f))

    def test_worked_product(self):
        # (3/2) * (5/4) = 15/8, exact
        a = RnFloat(RNF8, 0x38)
        b = RnFloat(RNF8, 0x34)
        out, sticky = fmul_with_sticky(a, b)
        assert finite_value(out) == Fraction(15, 8)
        assert not sticky.nonzero

    def test_underflow_to_subnormal(self):
        out = fmul(TINY, RnFloat(RNF8, 0x38))  # 2**-5 * 3/2 rounds at the bottom grid
        vo = finite_value(out)
        assert abs(vo - Fraction(3, 64)) <= Fraction(1, 64)

    def test_specials(self):
        assert unpack(fmul(RNF8.inf(0), RNF8.zero())).cls is FloatClass.NAN
        assert fmul(RNF8.inf(0), NEG_ONE) == RNF8.inf(1)
        assert fmul(RNF8.zero(), ONE) == RNF8.zero()

    def test_commutative_sample(self):
        for wa in range(0, 256, 11):
            for wb in range(0, 256, 13):
                a, b = RnFloat(RNF8, wa), RnFloat(RNF8, wb)
                assert fmul(a, b) == fmul(b, a)


class TestFdiv:
    def test_divide_by_one_preserves_value(self):
        for f in every_word():
            v = finite_value(f)
            if v is None:
                continue
            assert finite_value(fdiv(f, ONE)) == v

    def test_divide_by_one_bitexact_on_normals(self):
        # the all-ones boundary spelling is renormalized to the next power's
        # plain word before division, so only its value survives
        for f in every_word():
            u = unpack(f)
            if u.cls is not FloatClass.NORMAL:
                continue
            sig = u.significand
            if abs(sig.bits + sig.round) == 1 << RNF8.precision:
                assert finite_value(fdiv(f, ONE)) == finite_value(f)
            else:
                assert fdiv(f, ONE) == f

    def test_self_division(self):
        for f in every_word():
            v = finite_value(f)
            if v in (None, 0):
                continue
            out, sticky = fdiv_with_sticky(f, f)
            assert out == ONE
            assert not sticky.nonzero

    def test_specials(self):
        assert fdiv(ONE, RNF8.zero()) == RNF8.inf(0)
        assert fdiv(NEG_ONE, RNF8.zero()) == RNF8.inf(1)
        assert unpack(fdiv(RNF8.zero(), RNF8.zero())).cls is FloatClass.NAN
        assert unpack(fdiv(RNF8.inf(0), RNF8.inf(0))).cls is FloatClass.NAN
        assert fdiv(ONE, RNF8.inf(0)) == RNF8.zero()
        assert fdiv(RNF8.inf(0), NEG_ONE) == RNF8.inf(1)

    def test_reference_is_extended_word_quotient(self):
        # 1.0 (r clear) over 1.000 with round bit set: 16/17, rounds to 15/16
        a = ONE
        b = RnFloat(RNF8, 0x31)
        out = fdiv(a, b)
        assert finite_value(out) == Fraction(15, 16)

    def test_underflow(self):
        out = fdiv(TINY, TWO)
        vo = finite_value(out)
        assert vo is not None and abs(vo) <= Fraction(1, 32)


class TestDirectedRounding:
    def test_table(self):
        t = StickyTail(True)
        assert directed_round_bit(0, 0, t, RoundingMode.UPWARD) == 1
        assert directed_round_bit(1, 0, t, RoundingMode.DOWNWARD) == 0
        assert directed_round_bit(0, 1, t, RoundingMode.TOWARD_ZERO) == 1
        assert directed_round_bit(0, 0, t, RoundingMode.TOWARD_ZERO) == 0
        assert directed_round_bit(0, 1, t, RoundingMode.AWAY_FROM_ZERO) == 0
        assert directed_round_bit(0, 0, t, RoundingMode.AWAY_FROM_ZERO) == 1

    def test_zero_tail_changes_nothing(self):
        t = StickyTail(False)
        for mode in RoundingMode:
            assert directed_round_bit(0, 1, t, mode) == 0
            assert directed_round_bit(1, 0, t, mode) == 1

    def test_exact_results_identical_across_modes(self):
        for mode in RoundingMode:
            assert fadd(ONE, ONE, mode) == TWO

    def test_directed_sum_bounds(self):
        a = RnFloat(RNF8, 0x3E)
        b = RnFloat(RNF8, 0x10)
        exact = Fraction(17, 8)
        up = finite_value(fadd(a, b, RoundingMode.UPWARD))
        dn = finite_value(fadd(a, b, RoundingMode.DOWNWARD))
        assert dn <= exact <= up
        assert up - dn == Fraction(1, 4)  # one ulp apart around an unrepresentable sum


class TestSignSymmetry:
    @pytest.mark.parametrize("mode", list(RoundingMode))
    def test_negated_operands_give_complemented_results(self, mode):
        import rnarith.verify as verify

        fmt = FloatFormat(2, 3, "rnf6")
        for op in ("add", "mul", "div"):
            rep = verify.float_sign_symmetry_sweep(fmt, op, mode)
            assert rep.cases == 64 * 64
            assert rep.passed, rep.failures[:5]

    def test_negative_tie_rounds_away_from_zero(self):
        # -15/8 + 9/16 = -21/16, a tie between -5/4 and -11/8
        a = float_negate(RnFloat(RNF8, 0x3E))
        b = float_negate(RnFloat(RNF8, 0xAE))
        out, sticky = fadd_with_sticky(a, b)
        assert finite_value(out) == Fraction(-11, 8)
        assert sticky.nonzero

    def test_float_all_suite_includes_symmetry(self):
        from rnarith.verify import SUITES

        reports = SUITES["float-all"](fmt=FloatFormat(2, 2, "rnf5"))
        symmetry = [r for r in reports if r.op.endswith("-symmetry")]
        assert sorted(r.op for r in symmetry) == ["fadd-symmetry", "fdiv-symmetry", "fmul-symmetry"]
        assert all(r.cases == 32 * 32 and r.passed for r in symmetry)

    def test_exact_negative_result_carries_round_bit(self):
        three = fadd(ONE, TWO)
        out, sticky = fadd_with_sticky(NEG_ONE, float_negate(TWO))
        assert finite_value(out) == -3
        assert out == float_negate(three) and out.round == 1
        assert not sticky.nonzero


class TestSmallFormats:
    @pytest.mark.parametrize("shape, cases", [
        ((2, 2), 12_864), ((2, 3), 51_840), ((3, 2), 62_288),
        ((2, 4), 208_128), ((3, 3), 249_152), ((4, 2), 274_896),
    ])
    def test_float_all_passes_on_every_5_to_7_bit_shape(self, shape, cases):
        from rnarith.verify import SUITES

        reports = SUITES["float-all"](fmt=FloatFormat(*shape))
        assert sum(r.cases for r in reports) == cases
        failed = [(r.op, r.failures[:3]) for r in reports if not r.passed]
        assert not failed


class TestWiderFormats:
    def test_random_pairs_against_oracle(self):
        """Uniform words, so rnf64 sums mostly align over exponent gaps of
        hundreds to ~2,000 bits; every mode is checked against the exact
        value, and an exact result is the same word in every mode."""
        import random

        from rnarith.floatfmt import RNF16, RNF32, RNF64

        rng = random.Random(123)
        ops = (("add", fadd_with_sticky), ("mul", fmul_with_sticky), ("div", fdiv_with_sticky))
        for fmt in (RNF16, RNF32, RNF64):
            n = 1 << fmt.total_bits
            for _ in range(1200):
                wa, wb = rng.randrange(n), rng.randrange(n)
                a, b = RnFloat(fmt, wa), RnFloat(fmt, wb)
                va, vb = _units(fmt, wa), _units(fmt, wb)
                for name, fn in ops:
                    exact = _float_exact(fmt, name, wa, wb, va, vb)
                    if exact is None:
                        continue
                    near, sticky = fn(a, b)
                    for mode in RoundingMode:
                        out, out_sticky = fn(a, b, mode)
                        assert rounding_fault(fmt, exact, mode, out.word, out_sticky.nonzero) is None
                        assert sticky.nonzero or out == near


def _pinned_pairs():
    """Every pair of FloatFormat(2, 3) words, then 1,000 seeded pairs per
    rnf16/32/64: half uniform, half nearby words (cancellation, ties)."""
    small = FloatFormat(2, 3)
    n = 1 << small.total_bits
    yield from ((small, wa, wb) for wa in range(n) for wb in range(n))
    rng = random.Random(2011)
    for fmt in (RNF16, RNF32, RNF64):
        n = 1 << fmt.total_bits
        for _ in range(500):
            wa = rng.randrange(n)
            yield fmt, wa, rng.randrange(n)
            yield fmt, wa, wa ^ rng.randrange(1 << 6) ^ (rng.getrandbits(1) << (fmt.total_bits - 1))


class TestWordOps:
    # sha256 over "<word hex> <inexact 0/1>\n" for each pair x (add, mul,
    # div) x the five modes: 106,440 results, recorded from the RnFloat ops
    # before they became wrappers around the word ops
    PINNED = "4d342da3f7b865b0112beedfd7b79773b923423ad9e527d41144d24bdd4f5e3e"

    def test_results_pinned(self):
        wrapped = hashlib.sha256()
        bare = hashlib.sha256()
        pairs = (
            (fadd_with_sticky, fadd_words), (fmul_with_sticky, fmul_words), (fdiv_with_sticky, fdiv_words),
        )
        for fmt, wa, wb in _pinned_pairs():
            a, b = RnFloat(fmt, wa), RnFloat(fmt, wb)
            for wrapper, word_op in pairs:
                for mode in RoundingMode:
                    out, sticky = wrapper(a, b, mode)
                    wrapped.update(b"%x %d\n" % (out.word, sticky.nonzero))
                    word, inexact = word_op(fmt, wa, wb, mode)
                    assert type(word) is int and type(inexact) is bool
                    bare.update(b"%x %d\n" % (word, inexact))
        assert wrapped.hexdigest() == bare.hexdigest() == self.PINNED

    @pytest.mark.parametrize("op", [fadd_words, fmul_words, fdiv_words])
    def test_words_outside_the_format_rejected(self, op):
        for bad in (-1, 1 << RNF8.total_bits):
            for a, b in ((bad, 0x30), (0x30, bad)):
                with pytest.raises(ValueError, match="word does not fit the format"):
                    op(RNF8, a, b)


class TestAgainstIndependentValues:
    def test_library_values_match_formula(self):
        from rnarith.verify import float_value as independent

        for f in every_word():
            v = value_of_float(f)
            ref = independent(RNF8, f.word)
            if isinstance(v, FloatClass):
                assert ref is None
            else:
                assert v.to_fraction() == ref
