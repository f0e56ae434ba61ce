import ast
import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import rnarith.cli as cli
import rnarith.floatarith as fa
import rnarith.verify as verify
from rnarith.floatarith import (
    RoundingMode,
    fadd_with_sticky,
    fadd_words,
    far_shortcut,
    fdiv_with_sticky,
    fdiv_words,
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
    decode,
    float_negate,
    value_of_float,
)
from rnarith.verify import _float_exact, _sig, _sig_units, _units, rounding_fault

# rnf8 words
ONE = 0x30
TWO = 0x40
TINY = 0x01  # smallest positive subnormal, 2**-5
ZERO = 0x00
INF, NEG_INF, NAN = *RNF8.inf_words, RNF8.nan_word


def neg(word):
    return float_negate(RNF8, word)


NEG_ONE = neg(ONE)


def finite_value(word):
    v = value_of_float(RNF8, word)
    return None if isinstance(v, FloatClass) else Fraction(v[0], v[1]) * Fraction(2) ** v[2]


def word_class(word):
    return decode(RNF8, word)[0]


# the word ops on rnf8 words


def fadd(a, b, mode=RoundingMode.NEAREST):
    return fadd_words(RNF8, a, b, mode)


def fmul(a, b, mode=RoundingMode.NEAREST):
    return fmul_words(RNF8, a, b, mode)


def fdiv(a, b, mode=RoundingMode.NEAREST):
    return fdiv_words(RNF8, a, b, mode)


class TestFaddBasics:
    def test_one_plus_one(self):
        assert fadd(ONE, ONE)[0] == TWO

    def test_cancellation_gives_canonical_zero(self):
        for f in range(256):
            v = finite_value(f)
            if v is None:
                continue
            assert fadd(f, neg(f))[0] == ZERO

    def test_zero_operand_passthrough(self):
        for f in range(256):
            if finite_value(f) is None:
                continue
            if finite_value(f) != 0:
                assert fadd(f, ZERO)[0] == f
                assert fadd(ZERO, f)[0] == f

    def test_specials(self):
        assert fadd(INF, ONE)[0] == INF
        assert fadd(ONE, NEG_INF)[0] == NEG_INF
        assert word_class(fadd(INF, NEG_INF)[0]) is FloatClass.NAN
        assert word_class(fadd(NAN, ONE)[0]) is FloatClass.NAN

    def test_far_tie_rounds_by_truncation(self):
        # 1.111 * 2**0 + 1.000 * 2**-2 = 2.125, a tie at the coarser grid
        out, inexact = fadd(0x3E, 0x10)
        assert inexact
        assert out == 0x41
        assert finite_value(out) == Fraction(9, 4)

    def test_near_gap1_tie(self):
        # 15/8 - 9/16 = 21/16: not representable, rounds up to 11/8
        a, b = 0x3E, 0xAE
        assert finite_value(a) == Fraction(15, 8)
        assert finite_value(b) == Fraction(-9, 16)
        out, _ = fadd(a, b)
        assert finite_value(out) == Fraction(11, 8)

    def test_cancellation_into_subnormal_exact(self):
        just_above = 0x31  # 9/8
        out, inexact = fadd(ONE, neg(just_above))
        assert finite_value(out) == Fraction(-1, 8)
        assert not inexact

    def test_overflow_saturates(self):
        big = 0x6E  # 15/8 * 2**3 = 15
        out, _ = fadd(big, big)
        assert word_class(out) is FloatClass.INFINITY

    def test_exact_boundary_magnitude_is_finite(self):
        # 8 + 8 = 16 = 2**(e_max+1), representable on the boundary encoding
        eight = 0x60
        out, _ = fadd(eight, eight)
        assert finite_value(out) == 16
        assert out == 0x6F  # s=0 e=110 f=111 r=1
        assert finite_value(fadd(neg(eight), neg(eight))[0]) == -16

    def test_half_ulp_sample(self):
        entry, rule = _float_exact(RNF8, "add")
        for wa in range(0, 256, 7):
            for wb in range(0, 256, 5):
                ea, eb = entry(_sig(RNF8, wa)), entry(_sig(RNF8, wb))
                if ea is not None and eb is not None:
                    out, inexact = fadd(wa, wb)
                    assert rounding_fault(RNF8, rule(ea, eb), RoundingMode.NEAREST, out, inexact) is None


class TestSmallExponentGaps:
    def test_close_opposite_sign_pairs_exact_when_representable(self):
        for a in range(256):
            va = finite_value(a)
            if va in (None, 0):
                continue
            _, sa, _, ea = decode(RNF8, a)
            for b in range(256):
                vb = finite_value(b)
                if vb in (None, 0):
                    continue
                _, sb, _, eb = decode(RNF8, b)
                if sa == sb:
                    continue
                if abs(ea - eb) > 1:
                    continue
                exact = va + vb
                out, inexact = fadd(a, b)
                triple = (exact.numerator, exact.denominator, 0)
                assert rounding_fault(RNF8, triple, RoundingMode.NEAREST, out, inexact) is None
                # with true cancellation nothing can be dropped
                if exact != 0 and abs(exact) < Fraction(2) ** min(ea, eb):
                    assert not inexact

    def test_gap2_power_sum_exact(self):
        quarter = 0x10
        out, inexact = fadd(ONE, quarter)
        assert finite_value(out) == Fraction(5, 4)
        assert not inexact


class TestFarShortcut:
    def test_positive_small_operand_forces_round_bit(self):
        eight = 0x60
        assert far_shortcut(RNF8, eight, TINY) == 0x61

    def test_negative_small_operand_clears_round_bit(self):
        eight_r1 = 0x61
        assert far_shortcut(RNF8, eight_r1, neg(TINY)) == 0x60

    def test_gap_requirement(self):
        with pytest.raises(ValueError):
            far_shortcut(RNF8, ONE, TINY)  # gap is 0 - (-2) = 2, not > p

    def test_zero_small_operand_rejected(self):
        with pytest.raises(ValueError):
            far_shortcut(RNF8, 0x60, ZERO)


class TestFmul:
    def test_identity_value(self):
        for f in range(256):
            v = finite_value(f)
            if v is None:
                continue
            assert finite_value(fmul(ONE, f)[0]) == v

    def test_negative_identity_matches_negate(self):
        for f in range(256):
            v = finite_value(f)
            if v is None:
                continue
            assert finite_value(fmul(NEG_ONE, f)[0]) == finite_value(neg(f))

    def test_worked_product(self):
        # (3/2) * (5/4) = 15/8, exact
        out, inexact = fmul(0x38, 0x34)
        assert finite_value(out) == Fraction(15, 8)
        assert not inexact

    def test_underflow_to_subnormal(self):
        out, _ = fmul(TINY, 0x38)  # 2**-5 * 3/2 rounds at the bottom grid
        vo = finite_value(out)
        assert abs(vo - Fraction(3, 64)) <= Fraction(1, 64)

    def test_specials(self):
        assert word_class(fmul(INF, ZERO)[0]) is FloatClass.NAN
        assert fmul(INF, NEG_ONE)[0] == NEG_INF
        assert fmul(ZERO, ONE)[0] == ZERO

    def test_commutative_sample(self):
        for wa in range(0, 256, 11):
            for wb in range(0, 256, 13):
                assert fmul(wa, wb)[0] == fmul(wb, wa)[0]


class TestFdiv:
    def test_divide_by_one_preserves_value(self):
        for f in range(256):
            v = finite_value(f)
            if v is None:
                continue
            assert finite_value(fdiv(f, ONE)[0]) == v

    def test_divide_by_one_bitexact_on_normals(self):
        # the all-ones boundary spelling is renormalized to the next power's
        # plain word before division, so only its value survives
        for f in range(256):
            cls, _, x, _ = decode(RNF8, f)
            if cls is not FloatClass.NORMAL:
                continue
            if abs((x + 1) >> 1) == 1 << RNF8.precision:
                assert finite_value(fdiv(f, ONE)[0]) == finite_value(f)
            else:
                assert fdiv(f, ONE)[0] == f

    def test_self_division(self):
        for f in range(256):
            v = finite_value(f)
            if v in (None, 0):
                continue
            out, inexact = fdiv(f, f)
            assert out == ONE
            assert not inexact

    def test_specials(self):
        assert fdiv(ONE, ZERO)[0] == INF
        assert fdiv(NEG_ONE, ZERO)[0] == NEG_INF
        assert word_class(fdiv(ZERO, ZERO)[0]) is FloatClass.NAN
        assert word_class(fdiv(INF, INF)[0]) is FloatClass.NAN
        assert fdiv(ONE, INF)[0] == ZERO
        assert fdiv(INF, NEG_ONE)[0] == NEG_INF

    def test_reference_is_extended_word_quotient(self):
        # 1.0 (r clear) over 1.000 with round bit set: 16/17, rounds to 15/16
        out, _ = fdiv(ONE, 0x31)
        assert finite_value(out) == Fraction(15, 16)

    def test_underflow(self):
        out, _ = fdiv(TINY, TWO)
        vo = finite_value(out)
        assert vo is not None and abs(vo) <= Fraction(1, 32)


class TestDirectedRounding:
    def test_table(self):
        # the round bit that replaces bit 0 of an inexact result, by sign bit
        # (positive, negative); nearest never substitutes, so it has no entry
        assert fa._DIRECTED_BIT == {
            RoundingMode.UPWARD: (1, 1),
            RoundingMode.DOWNWARD: (0, 0),
            RoundingMode.TOWARD_ZERO: (0, 1),
            RoundingMode.AWAY_FROM_ZERO: (1, 0),
        }

    def test_modes_hash_by_identity_and_key_every_table(self):
        for mode in RoundingMode:
            assert hash(mode) == object.__hash__(mode)
            assert cli._MODES[mode.value] is mode
            assert verify._MIRROR.get(mode, mode) in RoundingMode
            if mode is not RoundingMode.NEAREST:
                assert mode in verify._ROUNDS_UP
        assert {verify._MIRROR[m] for m in verify._MIRROR} == {RoundingMode.UPWARD, RoundingMode.DOWNWARD}
        assert set(verify._ROUNDS_UP) == set(RoundingMode) - {RoundingMode.NEAREST}

    def test_exact_results_identical_across_modes(self):
        for mode in RoundingMode:
            assert fadd(ONE, ONE, mode)[0] == TWO

    def test_directed_sum_bounds(self):
        a, b = 0x3E, 0x10
        exact = Fraction(17, 8)
        up = finite_value(fadd(a, b, RoundingMode.UPWARD)[0])
        dn = finite_value(fadd(a, b, RoundingMode.DOWNWARD)[0])
        assert dn <= exact <= up
        assert up - dn == Fraction(1, 4)  # one ulp apart around an unrepresentable sum


class TestSignSymmetry:
    def test_negative_tie_rounds_away_from_zero(self):
        # -15/8 + 9/16 = -21/16, a tie between -5/4 and -11/8
        out, inexact = fadd(neg(0x3E), neg(0xAE))
        assert finite_value(out) == Fraction(-11, 8)
        assert inexact

    def test_exact_negative_result_carries_round_bit(self):
        three, _ = fadd(ONE, TWO)
        out, inexact = fadd(NEG_ONE, neg(TWO))
        assert finite_value(out) == -3
        assert out == neg(three) and out & 1 == 1
        assert not inexact


class TestSmallFormats:
    @pytest.mark.parametrize("shape, cases", [
        ((2, 2), 25_152), ((2, 3), 100_992), ((3, 2), 111_440),
        ((2, 4), 404_736), ((3, 3), 445_760), ((4, 2), 471_504),
    ])
    def test_float_all_passes_on_every_5_to_7_bit_shape(self, shape, cases):
        self._float_all_passes(shape, cases)

    # the fourth 8-bit shape, rnf8 = FloatFormat(3, 4), runs its sweeps one by one in the acceptance criteria
    @pytest.mark.parametrize("shape, cases", [((2, 5), 1_620_480), ((4, 3), 1_885_248), ((5, 2), 1_941_200)])
    def test_float_all_passes_on_the_other_8_bit_shapes(self, shape, cases):
        self._float_all_passes(shape, cases)

    @staticmethod
    def _float_all_passes(shape, cases):
        from rnarith.verify import SUITES

        fmt = FloatFormat(*shape)
        reports = SUITES["float-all"](fmt=fmt)
        assert sum(r.cases for r in reports) == cases
        symmetry = {r.op: r.cases for r in reports if r.op.endswith("-symmetry")}  # every pair in five modes
        assert symmetry == dict.fromkeys(("fadd-symmetry", "fmul-symmetry", "fdiv-symmetry"), 5 * fmt.word_end ** 2)
        failed = [(r.op, r.failures[:3]) for r in reports if not r.passed]
        assert not failed


class TestWiderFormats:
    def test_random_pairs_against_oracle(self):
        """Uniform words, so rnf64 sums mostly align over exponent gaps of
        hundreds to ~2,000 bits; every mode is checked against the exact
        value, and an exact result is the same word in every mode."""
        rng = random.Random(123)
        ops = (("add", fadd_words), ("mul", fmul_words), ("div", fdiv_words))
        for fmt in (RNF16, RNF32, RNF64):
            n = 1 << fmt.total_bits
            exacts = {name: _float_exact(fmt, name) for name, _ in ops}
            for _ in range(1200):
                wa, wb = rng.randrange(n), rng.randrange(n)
                sa, sb = _sig(fmt, wa), _sig(fmt, wb)
                va, vb = _sig_units(fmt, sa), _sig_units(fmt, sb)
                for name, fn in ops:
                    if va is None or vb is None or (name == "div" and vb == 0):
                        continue
                    entry, rule = exacts[name]
                    exact = rule(entry(sa), entry(sb))
                    near, near_inexact = fn(fmt, wa, wb)
                    for mode in RoundingMode:
                        out, inexact = fn(fmt, wa, wb, mode)
                        assert rounding_fault(fmt, exact, mode, out, inexact) is None
                        assert near_inexact or out == near


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
    # before they became wrappers around the word ops, and restated when a
    # result that rounds to zero kept its truncated spelling
    PINNED = "80beb4db8b2af1217796ee067081bf7d6569a86d046159778c6eb8cc725ee7d5"

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


def _nonzero_finite_word(rng, fmt):
    """A seeded nonzero finite word whose exponent field is often at an edge
    of the range, so quotients underflow and overflow too."""
    while True:
        e = rng.choice((0, 1, rng.randrange(fmt.exp_mask), fmt.exp_mask - 1))
        word = (rng.getrandbits(1) << (fmt.total_bits - 1)) | (e << fmt.precision) | rng.getrandbits(fmt.precision)
        if _units(fmt, word):
            return word


class TestSinkInputs:
    """The divider hands the sink ``p + 3`` quotient bits and a sticky bit,
    so every quotient reaches it as a magnitude of exactly ``p + 4`` bits."""

    def _sink_widths(self, monkeypatch, fmt, pairs):
        widths = []
        good = fa._deliver

        def spy(num, g, fmt, mode):
            widths.append(abs(num).bit_length())
            return good(num, g, fmt, mode)

        monkeypatch.setattr(fa, "_deliver", spy)
        for a, b in pairs:
            fdiv_words(fmt, a, b)
        return widths

    def test_every_rnf8_quotient(self, monkeypatch):
        finite = [w for w in range(256) if _units(RNF8, w)]
        widths = self._sink_widths(monkeypatch, RNF8, ((a, b) for a in finite for b in finite))
        assert len(widths) == len(finite) ** 2
        assert set(widths) == {RNF8.precision + 4}

    def test_seeded_rnf64_quotients(self, monkeypatch):
        rng = random.Random(64)
        pairs = [(_nonzero_finite_word(rng, RNF64), _nonzero_finite_word(rng, RNF64)) for _ in range(2000)]
        widths = self._sink_widths(monkeypatch, RNF64, pairs)
        assert len(widths) == 2000
        assert set(widths) == {RNF64.precision + 4}


class TestAgainstIndependentValues:
    def test_library_values_match_formula(self):
        from rnarith.verify import float_value as independent

        for word in range(256):
            v = value_of_float(RNF8, word)
            ref = independent(RNF8, word)
            if isinstance(v, FloatClass):
                assert ref is None
            else:
                assert Fraction(v[0], v[1]) * Fraction(2) ** v[2] == ref


def _finite_nonzero_word(fmt):
    """Hypothesis words of ``fmt`` with a finite nonzero value, about half of
    them with a zero exponent field, where the divider shifts."""
    exp = st.one_of(st.just(0), st.integers(1, fmt.exp_mask - 1))
    fields = st.tuples(st.integers(0, 1), exp, st.integers(0, fmt.low_mask))
    word = fields.map(lambda f: (f[0] << fmt.sign_shift) | (f[1] << fmt.precision) | f[2])
    return word.filter(lambda w: verify._units(fmt, w) != 0)


class TestEncodingInteger:
    """``decode`` reads a significand as the fixed encoding ``x = 2*w + r``,
    and the divider's operand, normalized from it, agrees with the oracle's
    twin (``verify._div_operand``) on every word it reads."""

    @staticmethod
    def _check_divider_word(fmt, word):
        _, _, x, scale = decode(fmt, word)
        n, k = verify._div_operand(fmt, verify._sig(fmt, word))
        assert fa._divider_word(x, scale, fmt.precision) == (abs(n), k)

    @pytest.mark.parametrize("fmt", [RNF8, RNF16, FloatFormat(2, 3)], ids=lambda f: f.name or "e2p3")
    def test_divider_word_matches_oracle_exhaustive(self, fmt):
        for word in range(fmt.word_end):
            if verify._units(fmt, word) not in (None, 0):
                self._check_divider_word(fmt, word)

    @given(st.sampled_from([RNF32, RNF64]).flatmap(lambda f: st.tuples(st.just(f), _finite_nonzero_word(f))))
    def test_divider_word_matches_oracle_wide(self, fmt_word):
        self._check_divider_word(*fmt_word)

    @pytest.mark.parametrize("fmt", [RNF8, RNF16], ids=lambda f: f.name)
    def test_decode_reads_the_encoding_integer(self, fmt):
        p = fmt.precision
        for word in range(fmt.word_end):
            cls, _, x, scale = decode(fmt, word)
            assert x & fmt.low_mask == word & fmt.low_mask
            want = verify.float_value(fmt, word)
            if cls in (FloatClass.INFINITY, FloatClass.NAN):
                assert want is None
            else:
                assert Fraction((x + 1) >> 1) * Fraction(2) ** (scale + 1 - p) == want


class TestOneResultShape:
    """Words in, ``(word, inexact)`` out: ``floatarith`` defines no ``RnFloat``
    ops, and only its benchmark shims name the ``RnFloat``/``StickyTail``
    shape, so no other module of the package builds or reads it."""

    @staticmethod
    def _tree(path):
        return ast.parse(Path(path).read_text())

    def test_no_rnfloat_ops(self):
        defined = {node.name for node in ast.walk(self._tree(fa.__file__))
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert not defined & {"fadd", "fmul", "fdiv"}

    def test_shims_named_only_in_floatarith(self):
        def shim(name):
            return name in ("StickyTail", "_shim") or name.endswith("_with_sticky")

        found = {}
        for path in sorted(Path(fa.__file__).parent.glob("*.py")):
            if path.name == "floatarith.py":
                continue
            for node in ast.walk(self._tree(path)):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.alias):
                    names = [node.name.rsplit(".", 1)[-1], node.asname or ""]
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names = [node.value]  # an ``__all__`` entry
                else:
                    continue
                hits = [n for n in names if shim(n)]
                if isinstance(node, ast.Attribute) and node.attr == "nonzero":
                    hits.append(".nonzero")
                found.setdefault(path.name, set()).update(hits)
        assert {name: hits for name, hits in found.items() if hits} == {}
