import ast
import copy
import itertools
import pickle
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import rnarith
from rnarith.cli import _operand_value
from rnarith.core import (
    RnFixed,
    booth_recode,
    canonical_of_sd,
    decimal_of,
    digit_limit,
    format_literal,
    int_of_field,
    negate,
    odd_part,
    parse_literal,
    sd_of_canonical,
    truncate_at,
    validate_rn,
)
from rnarith.floatarith import StickyTail
from rnarith.floatfmt import FloatFormat, RnFloat
from rnarith.oracle import enumerate_fixed

EXAMPLE_WORD = -718  # 110100110010 as a 12-bit two's complement word
EXAMPLE_DIGITS = (0, -1, 1, -1, 0, 1, 0, -1, 0, 1, -1, 0)


def fraction(v):
    """The exact value of an ``(n, d, k)`` triple, ``n/d * 2**k``, as a ``Fraction``."""
    n, d, k = v
    return Fraction(n, d) * Fraction(2) ** k


def val(x, lsb=0):
    """Value of encoding ``x = 2*bits + round`` with lsb exponent ``lsb``."""
    return Fraction((x + 1) >> 1) * Fraction(2) ** lsb


class TestDyadicRational:
    """The exact dyadic value ``m * 2**e``: ``odd_part`` normalizes it and
    ``decimal_of`` prints it."""

    def test_normalization(self):
        assert odd_part(12, 0) == odd_part(3, 2) == (3, 2)
        assert odd_part(0, 17) == (0, 0)
        assert odd_part(-12, 0) == (-3, 2)

    def test_normalization_of_long_mantissa_is_fast(self):
        t0 = time.perf_counter()
        for _ in range(10):
            x = odd_part(1 << 40000, 0)
        assert x == (1, 40000)
        assert time.perf_counter() - t0 < 0.1

    @pytest.mark.parametrize(
        "m,e,text",
        [(0, 0, "0"), (12, 0, "12"), (1, -1, "0.5"), (-13, -2, "-3.25"), (3, 4, "48"),
         (0, -7, "0"), (24, -3, "3"), (-52, -4, "-3.25")],
    )
    def test_decimal_string(self, m, e, text):
        assert decimal_of(m, e) == text


def sd_value(digits):
    acc = 0
    for d in digits:
        acc = 2 * acc + d
    return acc


class TestBoothRecode:
    def test_worked_example(self):
        sd = booth_recode(EXAMPLE_WORD, 12)
        assert sd == EXAMPLE_DIGITS
        assert sd_value(sd) == EXAMPLE_WORD

    def test_zero_word(self):
        assert booth_recode(0, 12) == (0,) * 12

    def test_exhaustive_value_match(self):
        for word in range(-128, 128):
            assert sd_value(booth_recode(word, 8)) == word

    def test_exhaustive_validity(self):
        for word in range(-512, 512):
            assert validate_rn(booth_recode(word, 10))

    @pytest.mark.parametrize("word, width, message", [
        (0, 0, "width must be at least 1"),
        (8, 4, "bits 8 does not fit 4-bit two's complement"),
        (-9, 4, "bits -9 does not fit 4-bit two's complement"),
    ])
    def test_bad_width_or_word_rejected(self, word, width, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            booth_recode(word, width)


class TestCanonicalOfSd:
    def test_worked_truncation_example(self):
        assert canonical_of_sd(EXAMPLE_DIGITS[:10]) == 2 * -180 + 1

    def test_all_zero(self):
        assert canonical_of_sd((0,) * 6) == 0

    def test_rejects_same_sign_neighbors(self):
        # every string of length 1-8 (9,840): raises exactly on the ones
        # validate_rn refuses, and sd_of_canonical inverts it on the rest
        for n in range(1, 9):
            for digits in itertools.product((-1, 0, 1), repeat=n):
                if not validate_rn(digits):
                    with pytest.raises(ValueError):
                        canonical_of_sd(digits)
                    continue
                x = canonical_of_sd(digits)
                assert -(1 << n) <= x < 1 << n  # an n-bit encoding
                assert sd_of_canonical(x, n) == digits

    @pytest.mark.parametrize("digits", [(), (2, 0), (0, -2), (1, 0, 1)], ids=["empty", "two", "minus-two", "same-sign"])
    def test_rejects_bad_strings(self, digits):
        with pytest.raises(ValueError):
            canonical_of_sd(digits)

    def test_accepts_both_tail_spellings(self):
        minus_tail = (1, 0, -1)      # 3 ending in -1
        plus_tail = (0, 1, -1, 1)    # 3 ending in +1
        assert canonical_of_sd(minus_tail) == 2 * 3
        assert canonical_of_sd(plus_tail) == 2 * 2 + 1
        assert val(canonical_of_sd(minus_tail)) == val(canonical_of_sd(plus_tail)) == 3

    def test_random_width10_value(self):
        import random

        rng = random.Random(7)
        for _ in range(200):
            x = 2 * rng.randrange(-512, 512) + rng.randrange(2)
            assert canonical_of_sd(sd_of_canonical(x, 10)) == x or val(x) == 0


class TestSdOfCanonical:
    def test_worked_example(self):
        assert sd_of_canonical(2 * -180 + 1, 10) == (0, -1, 1, -1, 0, 1, 0, -1, 0, 1)

    def test_zero(self):
        assert sd_of_canonical(0, 8) == (0,) * 8

    def test_matches_the_word_and_round_bit_rule(self):
        # interior digits pair adjacent word bits; the last pairs the round
        # bit with the lsb of the word
        for width in range(1, 11):
            for x in enumerate_fixed(width):
                bits, r = x >> 1, x & 1
                want = [((bits >> (i - 1)) & 1) - ((bits >> i) & 1) for i in range(width - 1, 0, -1)]
                assert sd_of_canonical(x, width) == (*want, r - (bits & 1))

    def test_exhaustive_string_roundtrip(self):
        for x in enumerate_fixed(8):
            sd = sd_of_canonical(x, 8)
            assert validate_rn(sd)
            back = canonical_of_sd(sd)
            assert back == (x if val(x) else 0)
            assert sd_of_canonical(back, 8) == sd


class TestOperandValue:
    """A literal's value ``(bits + round) * 2**lsb_exp``, as the CLI reads it."""

    def test_worked_operand(self):
        assert _operand_value(RnFixed(11, 5, 1)) == (12, 1, 0)

    def test_round_bit_clear(self):
        assert fraction(_operand_value(RnFixed(11, 5, 0, -2))) == Fraction(11, 4)

    def test_spelling_equivalence_exhaustive(self):
        for bits in range(-128, 127):
            assert _operand_value(RnFixed(bits, 8, 1)) == _operand_value(RnFixed(bits + 1, 8, 0))


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
    """The encoding ``x = 2*bits + round`` stands for the half-ulp interval
    ``[x, x + 1]``, stated on the integer: no function builds it, so these
    check the library pieces that read it."""

    def test_worked_example(self):
        # 239 = RnFixed(119, 9, 1) stands for [119.5, 120]: every finer
        # encoding inside that interval, and no other, truncates to it
        r = RnFixed(119, 9, 1)
        assert 2 * r.bits + r.round == 239
        assert fraction(_operand_value(r)) == 120  # the end the round bit points at
        inside = [x for x in range(1900, 1940)  # 16ths: [x, x + 1] / 16
                  if Fraction(239, 2) <= Fraction(x, 16) and Fraction(x + 1, 16) <= 120]
        assert inside == list(range(1912, 1920))
        assert [x for x in range(1900, 1940) if truncate_at(x, 3) == 239] == inside

    def test_round_bit_clear_formula(self):
        # RnFixed(6, 5, 0, -1) is x = 12 at half-ulp 2**-2: [3, 3.25], and
        # its value is the low end; with the round bit set, the high end
        assert fraction(_operand_value(RnFixed(6, 5, 0, -1))) == 3 == Fraction(12, 4)
        for bits, rnd in itertools.product(range(-16, 16), (0, 1)):
            x = 2 * bits + rnd
            lo, hi = Fraction(x, 4), Fraction(x + 1, 4)
            assert fraction(_operand_value(RnFixed(bits, 5, rnd, -1))) == (hi if rnd else lo)

    def test_adjacent_encodings_tile(self, capsys):
        # the intervals ``inspect`` prints for the finite rnf8 words, in
        # order, meet end to end and cover [-16, 16] half an ulp at a time
        from rnarith.cli import main
        tiles = []
        for word in range(256):
            assert main(["inspect", f"rnf8:{word:#04x}"]) == 0
            first = capsys.readouterr().out.splitlines()[0]
            if "interval=" in first:
                lo, hi = first.split("interval=[")[1].rstrip("]").split(" ; ")
                tiles.append((Fraction(lo), Fraction(hi)))
        tiles.sort()
        assert len(tiles) == 224  # all but the 2 infinities and 30 NaNs
        for (_, hi), (lo, _) in zip(tiles, tiles[1:]):
            assert hi == lo
        assert (tiles[0][0], tiles[-1][1]) == (-16, 16)


def fan_in(f, in_bits, out_bits):
    """For each output bit, least significant first, how many input bits
    change it when flipped alone, for some input: inputs and outputs are
    two's complement words of ``in_bits`` and ``out_bits`` bits."""
    lo, hi = -(1 << (in_bits - 1)), 1 << (in_bits - 1)
    flips = [1 << i for i in range(in_bits - 1)] + [lo]  # the top flip wraps round
    reach = [0] * in_bits  # the output bits each input bit reaches
    for x in range(lo, hi):
        y = f(x)
        assert -(1 << (out_bits - 1)) <= y < 1 << (out_bits - 1)
        for i, flip in enumerate(flips):
            reach[i] |= y ^ f(x ^ flip)
    return [sum((r >> j) & 1 for r in reach) for j in range(out_bits)]


class TestConstantTime:
    """The paper's claim: on the encoding, rounding to nearest and negation
    need no carry, so each output bit depends on one input bit, where two's
    complement needs a carry chain."""

    def test_each_output_bit_reads_one_input_bit(self):
        # every width-10 encoding, an 11-bit pattern
        assert fan_in(lambda x: truncate_at(x, 3), 11, 8) == [1] * 8
        assert fan_in(negate, 11, 11) == [1] * 11

    def test_twos_complement_needs_a_carry_chain(self):
        # the same jobs on 10-bit words: round half up by 3 bits, and negate
        assert max(fan_in(lambda w: (w + 4) >> 3, 10, 8)) == 8
        assert max(fan_in(lambda w: -w, 10, 11)) == 10


class TestValidateRn:
    def test_alternating(self):
        assert validate_rn((1, -1, 0, 1, 0, -1))

    def test_same_sign_adjacent(self):
        assert not validate_rn((1, 1))

    def test_digit_outside_the_set_refused(self):
        for digits in ((2, 0), (0, -2), (1, 0, -1, 3)):
            assert not validate_rn(digits)


class TestRoundBitMatchesLastDigit:
    """A nonzero value's round bit is 1 exactly when its last nonzero
    signed digit is +1."""

    def test_matches_last_nonzero_digit_exhaustive(self):
        for x in enumerate_fixed(8):
            if val(x) == 0:
                continue
            last = next(d for d in reversed(sd_of_canonical(x, 8)) if d != 0)
            assert x & 1 == (last == 1)


class TestLiterals:
    def test_worked_literal(self):
        x = parse_literal("rn:01011:r1@0")
        assert x == RnFixed(11, 5, 1, 0)
        assert format_literal(x) == "rn:01011:r1@0"

    def test_negative_word(self):
        x = parse_literal("rn:1101001100:r1@2")
        assert x == RnFixed(-180, 10, 1, 2)

    @pytest.mark.parametrize("bad", [
        "rn:01011:r2@0", "rn:01a11:r1@0", "01011", "rn::r1@0",
        # the exponent is ASCII -?[0-9]+, though int() takes each of these
        "rn:01:r1@1_0", "rn:01:r1@ 2", "rn:01:r1@+2", "rn:01:r1@\u0663",
    ])
    def test_bad_literals(self, bad):
        with pytest.raises(ValueError, match="^bad fixed-point literal: "):
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


@pytest.fixture
def set_int_limit():
    """``sys.set_int_max_str_digits``, with the limit restored after the
    test."""
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


def _owners(tree, name):
    """Name of the function around each mention of ``name``, as a name, an
    attribute or a string (None at module level)."""
    owners = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if name in (getattr(child, "id", None), getattr(child, "attr", None), getattr(child, "value", None)):
                owners.append(owner)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    visit(tree, None)
    return owners


class TestDigitRule:
    """One rule bounds every literal field and printed integer: at most
    ``digit_limit()`` decimal digits, the interpreter's limit or 4300 where
    that limit is 0 or absent."""

    @pytest.mark.parametrize("limit, want", [(0, 4300), (640, 640), (4300, 4300), (10000, 10000)])
    def test_limit_read_from_the_interpreter(self, set_int_limit, limit, want):
        set_int_limit(limit)
        assert digit_limit() == want

    def test_absent_limit_is_the_default(self, monkeypatch):
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        assert digit_limit() == 4300

    @pytest.mark.parametrize("limit", [0, 640, 4300])
    def test_field_read_up_to_the_limit(self, set_int_limit, limit):
        set_int_limit(limit)
        n = digit_limit()
        assert int_of_field("9" * n) == 10 ** n - 1
        assert int_of_field("-" + "9" * n) == 1 - 10 ** n
        assert int_of_field("0" * (n + 1)) is None  # leading zeros count
        assert int_of_field("-" + "0" * (n + 1)) is None

    @pytest.mark.parametrize("limit", [0, 640, 4300])
    def test_decimal_printed_up_to_the_limit(self, set_int_limit, limit):
        set_int_limit(limit)
        n = digit_limit()
        assert decimal_of(10 ** n - 1, 0) == "9" * n
        assert decimal_of(1 - 10 ** n, 0) == "-" + "9" * n
        big = 10 ** n + 1
        with pytest.raises(ValueError, match=rf"^exact decimal of a {big.bit_length()}-bit mantissa \* 2\*\*0 "
                                             rf"has more than {n} digits$"):
            decimal_of(big, 0)

    def test_mantissa_and_fraction_bounded_together(self):
        # 3**5000 has 2,386 digits and 5**3000 2,098: each is short, their
        # product past 4,300
        m = 3 ** 5000
        assert decimal_of(m, -2000).endswith("5")
        with pytest.raises(ValueError, match=rf"^exact decimal of a {m.bit_length()}-bit mantissa \* 2\*\*-3000 "
                                             r"has more than 4300 digits$"):
            decimal_of(m, -3000)

    @pytest.mark.parametrize("limit", [0, 4300])
    def test_lsb_exponent_printed_up_to_the_limit(self, set_int_limit, limit):
        set_int_limit(limit)
        assert format_literal(RnFixed(1, 2, 0, 1 - 10 ** 4300)).endswith("@-" + "9" * 4300)
        with pytest.raises(ValueError, match="^lsb exponent has more than 4300 digits$"):
            format_literal(RnFixed(1, 2, 0, -10 ** 4300))

    def test_limit_read_in_one_function(self):
        src = Path(rnarith.__file__).parent
        owners = [f"{path.stem}.{owner}" for path in sorted(src.glob("*.py"))
                  for owner in _owners(ast.parse(path.read_text()), "get_int_max_str_digits")]
        assert owners == ["core.digit_limit"]

    def test_no_int_refusal_caught(self):
        """Literal fields are read by ``int_of_field``, so no reader catches
        a refusal of ``int()``: the one ``try`` in ``core``, ``floatfmt``
        and ``cli`` is ``cli.main``'s."""
        src = Path(rnarith.__file__).parent
        tries = [f"{name}.{fn.name}" for name in ("core", "floatfmt", "cli")
                 for fn in ast.walk(ast.parse((src / f"{name}.py").read_text()))
                 if isinstance(fn, ast.FunctionDef) and any(isinstance(n, ast.Try) for n in ast.walk(fn))]
        assert tries == ["cli.main"]


class TestRoundTripSweep:
    def test_booth_roundtrip_width12(self):
        import rnarith.verify as verify

        rep = verify.roundtrip_sweep(12)
        assert rep.passed, rep.failures[:5]


# (build, repr, fields) for each immutable value type: ``build`` makes a
# fresh instance on each call, and the repr is pinned as it has always read
VALUE_TYPES = [
    (lambda: RnFixed(-5, 4, 1, -2), "RnFixed(bits=-5, width=4, round=1, lsb_exp=-2)",
     ("bits", "width", "round", "lsb_exp")),
    (lambda: FloatFormat(3, 4, "rnf8"), "FloatFormat(exp_bits=3, precision=4, name='rnf8')",
     ("exp_bits", "precision", "name")),
    (lambda: RnFloat(FloatFormat(3, 4, "rnf8"), 0x30),
     "RnFloat(fmt=FloatFormat(exp_bits=3, precision=4, name='rnf8'), word=48)", ("fmt", "word")),
    (lambda: StickyTail(True), "StickyTail(nonzero=True)", ("nonzero",)),
]


@pytest.mark.parametrize("build, text, fields", VALUE_TYPES,
                         ids=[text.partition("(")[0] for _, text, _ in VALUE_TYPES])
class TestValueTypes:
    """The contract every immutable value type keeps: fields cannot be
    assigned or deleted, copies and pickles are equal, equal values hash
    alike, only the same class compares equal, and the repr names each
    field."""

    def test_fields_refuse_assignment_and_deletion(self, build, text, fields):
        x = build()
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(x, name, getattr(x, name))
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert repr(x) == text

    def test_copies_and_pickles_are_equal(self, build, text, fields):
        x = build()
        for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(twin) is type(x) and twin == x and repr(twin) == text

    def test_equal_values_hash_alike(self, build, text, fields):
        a, b = build(), build()
        assert a is not b and a == b and not a != b and hash(a) == hash(b)

    def test_other_class_with_the_same_fields_is_unequal(self, build, text, fields):
        x = build()
        values = {name: getattr(x, name) for name in fields}
        for other in (SimpleNamespace(**values), tuple(values.values())):
            assert x != other and not x == other and other != x
