import ast
import functools
import inspect
import itertools
import random
import textwrap
from collections import Counter
from fractions import Fraction

import pytest

import rnarith.fixed as fixed
import rnarith.floatarith as fa
import rnarith.oracle as oracle
import rnarith.verify as verify
from rnarith.core import RnFixed
from rnarith.floatarith import RoundingMode
from rnarith.floatfmt import RNF8, RNF16, RNF32, RNF64, FloatClass, FloatFormat
from rnarith.oracle import (
    ENUMERATION_LIMIT,
    VerifyReport,
    check_inclusion,
    check_space,
    enumerate_div_operands,
    enumerate_fixed,
    enumerate_format,
)


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


class TestEnumerationGuard:
    """Every fixed sweep asks the guard about its whole case count, not
    only about the enumerations it draws from."""

    # each sweep's case count in closed form, the size of the space it walks
    # (negation walks widths 2..w, none at w = 1; the divider's argument is p)
    CASES = {
        "fixed_add_sweep": lambda w, _variant: 4 ** (w + 1),
        "fixed_mul_sweep": lambda w: 4 ** (w + 1),
        "fixed_mul_sign_sweep": lambda w: 4 ** (w + 1),
        "double_rounding_sweep": lambda w: 2 ** w * w * (w + 1),
        "negation_sweep": lambda w: 2 ** (w + 2) - 8,
        "roundtrip_sweep": lambda w: 2 ** (w + 1),
        "fixed_div_sweep": lambda p: 4 ** (p + 1),
    }

    @pytest.mark.parametrize("sweep, args", [
        *((verify.fixed_add_sweep, (w, v)) for v in ("add", "add_alt", "sub") for w in range(1, 7)),
        *((f, (w,)) for f in (
            verify.fixed_mul_sweep, verify.fixed_mul_sign_sweep, verify.double_rounding_sweep,
            verify.negation_sweep, verify.roundtrip_sweep) for w in range(1, 7)),
        *((verify.fixed_div_sweep, (p,)) for p in range(1, 5)),
    ])
    def test_guard_sees_the_case_count(self, monkeypatch, sweep, args):
        counts = []
        check = oracle.check_space

        def recording(what, count, shift=0):
            counts.append(count << shift)
            check(what, count, shift)

        monkeypatch.setattr(oracle, "check_space", recording)
        monkeypatch.setattr(verify, "check_space", recording)
        rep = sweep(*args)
        assert rep.cases == self.CASES[sweep.__name__](*args)
        assert rep.cases <= max(counts, default=0) <= 2 * rep.cases

    @pytest.mark.parametrize("count, shift, refused", [
        (1, 26, False), (1, 27, True), (2, 25, False), (3, 25, True),
        (ENUMERATION_LIMIT, 0, False), (ENUMERATION_LIMIT + 1, 0, True), (1, 10 ** 10, True),
    ])
    def test_limit_is_inclusive(self, count, shift, refused):
        if refused:
            with pytest.raises(ValueError, match="enumeration limit"):
                check_space("space", count, shift)
        else:
            check_space("space", count, shift)


class TestCheckInclusion:
    # encodings x = 2*bits + round stand for [x, x + 1] half ulps
    def test_worked_product_interval(self):
        assert check_inclusion(239, 23, 19)  # [119.5, 120] inside [11.5, 12] * [9.5, 10]

    def test_outside_product_image_rejected(self):
        a, b = 2, 6                       # [1, 1.5] and [3, 3.5]: image [3, 5.25]
        assert check_inclusion(6, a, b)   # [3, 3.5]
        assert check_inclusion(9, a, b)   # [4.5, 5]
        assert not check_inclusion(5, a, b)   # [2.5, 3] dips below 3
        assert not check_inclusion(10, a, b)  # [5, 5.5] reaches past 5.25

    def test_negative_operand_rejected(self):
        with pytest.raises(ValueError):
            check_inclusion(0, -1, 2)
        with pytest.raises(ValueError):
            check_inclusion(0, 2, -1)

    def test_matches_the_interval_product_exhaustive(self):
        # in Fractions, at lsb 2**0 for the width-4 operands and so for
        # their product: every candidate product encoding of every pair
        interval = {x: (Fraction(x, 2), Fraction(x + 1, 2)) for x in enumerate_fixed(2 * 4 - 1)}
        encs = [x for x in enumerate_fixed(4) if x >= 0]
        for a, b in itertools.product(encs, encs):
            lo, hi = interval[a][0] * interval[b][0], interval[a][1] * interval[b][1]
            for out, (olo, ohi) in interval.items():
                assert check_inclusion(out, a, b) == (lo <= olo and ohi <= hi), (out, a, b)


SMALL = FloatFormat(2, 3)


def _plant(monkeypatch, fault):
    """Pass every ``(word, inexact)`` result of the rounding sink through
    ``fault(word, inexact, fmt, mode)``."""
    good = fa._deliver

    def faulty(num, g, fmt, mode):
        return fault(*good(num, g, fmt, mode), fmt, mode)

    monkeypatch.setattr(fa, "_deliver", faulty)


def _is_inf(fmt, word):
    return word in fmt.inf_words


def _flip_bit(when, bit=0):
    """A sink fault: flip one bit of a finite result (the round bit unless
    ``bit`` says otherwise) for which ``when(value, inexact, mode)`` holds."""
    def fault(word, inexact, fmt, mode):
        v = verify.float_value(fmt, word)
        flip = v is not None and when(v, inexact, mode)
        return (word ^ (1 << bit) if flip else word), inexact

    return fault


def _plant_ops(monkeypatch, fault):
    """Pass every result of the swept op bodies through
    ``fault(word, inexact, fmt, a, b, mode)``, which sees the operand words."""
    for op, (func, name) in list(verify._FLOAT_OPS.items()):
        def faulty(fmt, a, b, mode, da, db, func=func):
            return fault(*func(fmt, a, b, mode, da, db), fmt, a, b, mode)

        monkeypatch.setitem(verify._FLOAT_OPS, op, (faulty, name))


def _respelled(x, width):
    """The other encoding of x's value, where ``width`` bits hold it."""
    y = x + 2 * (x & 1) - 1
    return y if -(1 << width) <= y < 1 << width else x


def _float_sweep_failures(fmt):
    """Failure counts of the nearest, then the directed, add/mul/div sweeps."""
    return [
        len(sweep(fmt, op).failures)
        for sweep in (verify.float_nearest_sweep, verify.float_directed_sweep)
        for op in ("add", "mul", "div")
    ]


class TestSweepsCatchFaults:
    """A planted fault in the code under test shows up as sweep failures;
    a fault in the rounding sink shows up in every float sweep it reaches."""

    def test_flipped_shortcut_round_bit(self, monkeypatch):
        good = fa.far_shortcut
        monkeypatch.setattr(fa, "far_shortcut", lambda fmt, a, b: good(fmt, a, b) ^ 1)
        rep = verify.far_shortcut_sweep(RNF8)
        assert (rep.cases, len(rep.failures)) == (1984, 992)

    def test_infinity_reported_as_nan(self, monkeypatch):
        good = verify.value_of_float

        def faulty(fmt, word):
            v = good(fmt, word)
            return FloatClass.NAN if v is FloatClass.INFINITY else v

        monkeypatch.setattr(verify, "value_of_float", faulty)
        rep = verify.decode_sweep(RNF8)
        assert (rep.cases, len(rep.failures)) == (256, 2)

    @pytest.mark.parametrize("fault, failures", [
        # each normal word's x loses its hidden bit: x no longer agrees with _sig
        (lambda cls, x: (cls, x & RNF8.low_mask if cls is FloatClass.NORMAL else x), 192),
        # the all-ones negative zero, 0x8f, read as the class of the word 0
        (lambda cls, x: (FloatClass.ZERO if cls is FloatClass.SUBNORMAL and x == -1 else cls, x), 1),
    ], ids=["hidden-bit-dropped", "all-ones-zero-as-zero"])
    def test_decode_fault_reported(self, monkeypatch, fault, failures):
        good = verify.decode

        def faulty(fmt, word):
            cls, s, x, scale = good(fmt, word)
            cls, x = fault(cls, x)
            return cls, s, x, scale

        monkeypatch.setattr(verify, "decode", faulty)
        rep = verify.decode_sweep(RNF8)
        assert (rep.cases, len(rep.failures)) == (256, failures)

    def test_overflow_returned_as_nan(self, monkeypatch):
        _plant(monkeypatch, lambda w, s, fmt, mode: (fmt.nan_word if _is_inf(fmt, w) else w, s))
        assert _float_sweep_failures(SMALL) == [354, 548, 204, 1416, 2192, 816]

    def test_overflow_with_wrong_sign(self, monkeypatch):
        _plant(monkeypatch, lambda w, s, fmt, mode: (fmt.inf_words[1] if w == fmt.inf_words[0] else w, s))
        assert _float_sweep_failures(SMALL) == [177, 274, 102, 708, 1096, 408]

    def test_overflow_flagged_exact(self, monkeypatch):
        _plant(monkeypatch, lambda w, s, fmt, mode: (w, False if _is_inf(fmt, w) else s))
        assert _float_sweep_failures(SMALL) == [354, 548, 204, 1416, 2192, 816]

    def test_exact_edge_returned_as_infinity(self, monkeypatch):
        # the edge 2**(e_max+1) is exactly representable, so an exact result
        # there must be its finite word, not +inf flagged inexact
        def fault(w, s, fmt, mode):
            edge = not s and verify.float_value(fmt, w) == 2 ** (fmt.e_max + 1)
            return (fmt.inf_words[0], True) if edge else (w, s)

        _plant(monkeypatch, fault)
        assert _float_sweep_failures(SMALL) == [28, 16, 24, 112, 64, 96]

    def test_directed_sticky_flag_flipped(self, monkeypatch):
        # fmul rounds a zero product through the sink too: 188 zero-product
        # pairs in 4 modes give mul 752 more failures than add and div
        def flip(w, s, fmt, mode):
            return w, s if mode is RoundingMode.NEAREST else not s

        _plant(monkeypatch, flip)
        assert _float_sweep_failures(SMALL) == [0, 0, 0, 8464, 9216, 8464]

    def test_inexact_nearest_round_bit_flipped(self, monkeypatch):
        # the directed sweep reads only the bits above bit 0 of the nearest
        # word, so the flipped bit does not reach it
        _plant(monkeypatch, _flip_bit(lambda v, inexact, mode: inexact and mode is RoundingMode.NEAREST))
        assert _float_sweep_failures(SMALL) == [0, 352, 1188, 0, 0, 0]

    def test_inexact_directed_mode_round_bit_flipped(self, monkeypatch):
        _plant(monkeypatch, _flip_bit(lambda v, inexact, mode: inexact and mode is not RoundingMode.NEAREST))
        assert _float_sweep_failures(SMALL) == [0, 0, 0, 1536, 3136, 5456]

    def test_exact_nonzero_round_bit_flipped(self, monkeypatch):
        _plant(monkeypatch, _flip_bit(lambda v, inexact, mode: not inexact and v != 0))
        assert _float_sweep_failures(SMALL) == [1288, 784, 548, 5152, 3136, 2192]

    def test_inexact_upward_higher_bit_flipped(self, monkeypatch):
        # a fault above the round bit in one mode: the directed sweep judges
        # the word against the substituted nearest word before any other clause
        _plant(monkeypatch, _flip_bit(lambda v, inexact, mode: inexact and mode is RoundingMode.UPWARD, bit=1))
        assert _float_sweep_failures(SMALL) == [0, 0, 0, 384, 784, 1364]
        reports = [verify.float_directed_sweep(SMALL, op) for op in ("add", "mul", "div")]
        assert {want.split(" (")[0] for rep in reports for _, want, _ in rep.failures} == {"substitution"}

    def test_commutativity_broken_in_one_order(self, monkeypatch):
        # bit 0 of an exact nonzero result flips only when a < b, so each
        # such add or mul pair fails "commutative" in both orders; div and
        # the directed sweeps see the flipped word through the rounding
        # contract.  The counts do not depend on how often the nearest sweep
        # calls the op per pair: calling it in both orders for every case
        # gives the same.
        def fault(w, s, fmt, a, b, mode):
            flip = a < b and not s and verify.float_value(fmt, w) not in (None, 0)
            return w ^ flip, s

        _plant_ops(monkeypatch, fault)
        assert _float_sweep_failures(SMALL) == [1440, 772, 232, 2880, 1544, 928]
        for op in ("add", "mul"):
            rep = verify.float_nearest_sweep(SMALL, op)
            assert {want.split(" (")[0] for _, want, _ in rep.failures} == {"commutative"}
            failed = {tuple(inputs.split(",")) for inputs, _, _ in rep.failures}
            assert failed == {(b, a) for a, b in failed}

    def test_commutative_failure_text(self, monkeypatch):
        # bit 0 of every result flips when a < b: all 4,032 pairs of
        # distinct words fail in both orders, and a pair with an infinity or
        # a NaN operand has no finite exact value to show beside the clause
        _plant_ops(monkeypatch, lambda w, s, fmt, a, b, mode: (w ^ (a < b), s))
        for op in ("add", "mul"):
            rep = verify.float_nearest_sweep(SMALL, op)
            finite = {f"{w:#x}" for w in range(SMALL.word_end) if verify._units(SMALL, w) is not None}
            bare = [inputs for inputs, want, _ in rep.failures if want == "commutative"]
            shown = [(inputs, want) for inputs, want, _ in rep.failures if want != "commutative"]
            assert (len(bare), len(shown)) == (1776, 2256)
            assert not any(set(inputs.split(",")) <= finite for inputs in bare)
            # a finite pair shows its exact value, a fraction
            assert all(set(inputs.split(",")) <= finite and want.startswith("commutative (") and "None" not in want
                       for inputs, want in shown)

    def test_zero_result_spelled_as_word_0(self, monkeypatch):
        # the same value, but for a negative result rounded up to zero the
        # word 0's r=0 says that it went down: the round-bit direction clause
        # and round-bit substitution see it (rnf8 gives [0, 360, 556, 0,
        # 2272, 3660])
        def fault(w, s, fmt, mode):
            return (0 if verify._units(fmt, w) == 0 else w), s

        _plant(monkeypatch, fault)
        assert _float_sweep_failures(SMALL) == [0, 8, 28, 0, 96, 260]

    def test_directed_nan_returned_as_infinity(self, monkeypatch):
        # no finite exact value, so the directed sweep skips these pairs,
        # and the nearest sweep runs in rn only: just the symmetry sweep,
        # in the four directed modes, sees the wrong word (rnf8 gives
        # [57848, 57872, 57872])
        def fault(w, s, fmt, a, b, mode):
            nan = mode is not RoundingMode.NEAREST and verify._units(fmt, w) is None and w & fmt.low_mask
            return (fmt.inf_words[0] if nan else w), s

        _plant_ops(monkeypatch, fault)
        reports = verify.SUITES["float-all"](fmt=SMALL)
        failed = {rep.op: len(rep.failures) for rep in reports if rep.failures}
        assert failed == {"fadd-symmetry": 6392, "fmul-symmetry": 6416, "fdiv-symmetry": 6416}

    def test_inexact_zero_spelled_as_word_0_for_negative_a(self, monkeypatch):
        # the same value, so only the word-for-word rule sees it; a sum is
        # never an inexact zero
        def fault(w, s, fmt, a, b, mode):
            negative_a = a >> (fmt.total_bits - 1)
            return (0 if s and negative_a and verify._units(fmt, w) == 0 else w), s

        _plant_ops(monkeypatch, fault)
        counts = [len(verify.float_sign_symmetry_sweep(SMALL, op).failures) for op in ("add", "mul", "div")]
        assert counts == [0, 88, 232]

    @pytest.mark.parametrize("fmt", [RNF8, SMALL], ids=["rnf8", "small"])
    def test_negated_zero_spelled_as_word_0(self, monkeypatch, fmt):
        good = verify.float_negate
        monkeypatch.setattr(verify, "float_negate",
                            lambda fmt, w: 0 if verify._units(fmt, w) == 0 else good(fmt, w))
        rep = verify.float_negate_sweep(fmt)
        assert (len(rep.failures), rep.failures[0][0]) == (1, "0x0")

    @pytest.mark.parametrize("fmt, counts", [(RNF8, (256, 202)), (SMALL, (64, 42))], ids=["rnf8", "small"])
    def test_negation_respelled(self, monkeypatch, fmt, counts):
        # the complement's other encoding integer at the same scale, x + 1
        # or x - 1 where a word has it: the same value, and still an
        # involution, so only the mirrored half-ulp interval tells it apart
        good = verify.float_negate
        finite = [w for w in range(fmt.word_end) if verify._units(fmt, w) is not None]
        word_of = {verify._sig(fmt, w): w for w in finite}

        def respelled(fmt, w):
            out = good(fmt, w)
            x, scale = verify._sig(fmt, out)
            return word_of.get((x + 2 * (x & 1) - 1, scale), out)  # NaN, infinity: out

        for w in finite:
            out = respelled(fmt, w)
            assert verify._units(fmt, out) == -verify._units(fmt, w) and respelled(fmt, out) == w
        monkeypatch.setattr(verify, "float_negate", respelled)
        rep = verify.float_negate_sweep(fmt)
        assert (rep.cases, len(rep.failures)) == counts

    @pytest.mark.parametrize("module, name, fault, sweep, arg, counts, clause", [
        *(pytest.param(fixed, v, fault, functools.partial(verify.fixed_add_sweep, variant=v), 4, counts, clause,
                       id=f"{v}-{kind}")
          for kind, fault, counts, clause in (
              ("round-bit", lambda r, *_: r ^ 1, (1024, 1024), None),
              # the other spelling of the sum's value: outside the operands' interval sum
              ("respelled", lambda r, *_: _respelled(r, 5), (1024, 510), "interval inclusion"))
          for v in ("add", "add_alt", "sub")),
        pytest.param(fixed, "mul", lambda r, *_: r ^ 1, verify.fixed_mul_sweep, 6,
                     (16384, 16384), None, id="mul-round-bit"),
        pytest.param(fixed, "mul", lambda r, *_: _respelled(r, 11), verify.fixed_mul_sweep, 6,
                     (16384, 2110), "interval inclusion", id="mul-respelled"),
        pytest.param(fixed, "div", lambda r, *_: (r[0] ^ 1, r[1]),
                     verify.fixed_div_sweep, 4, (1024, 1024), None, id="div-round-bit"),
        pytest.param(fixed, "div", lambda r, *_: (r[0], not r[1]),
                     verify.fixed_div_sweep, 4, (1024, 1024), None, id="div-exact-flag"),
        # the negated value doubled, round bit kept: only the two zero
        # spellings at each width still negate and involute
        pytest.param(verify, "negate", lambda r, x: 2 * r + (r & 1),
                     verify.negation_sweep, 12, (16376, 16354), None, id="negate-value-doubled"),
        # two's-complement negation, -x = ~x + 1, in place of the complement
        pytest.param(verify, "negate", lambda r, x: -x, verify.fixed_mul_sign_sweep, 4,
                     (1024, 872), None, id="mul-sign-twos-complement"),
        pytest.param(verify, "truncate_at", lambda r, x, s: r ^ 1 if s >= 2 else r,
                     verify.double_rounding_sweep, 8, (18432, 3072), None, id="truncate-round-bit"),
        pytest.param(verify, "sd_of_canonical", lambda r, *_: tuple(-d for d in r),
                     verify.roundtrip_sweep, 8, (512, 510), "round trip", id="digits-negated"),
    ])
    def test_fixed_fault(self, monkeypatch, module, name, fault, sweep, arg, counts, clause):
        """``fault(result, *inputs)`` rewrites every result of the patched op."""
        good = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: fault(good(*args), *args))
        rep = sweep(arg)
        assert (rep.cases, len(rep.failures)) == counts
        assert clause is None or {want for _, want, _ in rep.failures} == {clause}


class TestSweepWork:
    def test_double_rounding_truncates_once_per_target(self, monkeypatch):
        # per encoding: one truncation to each of the 6 grids, reused as
        # both target and inner result, then one for each pair j <= k
        calls = []
        good = verify.truncate_at
        monkeypatch.setattr(verify, "truncate_at", lambda x, s: calls.append(s) or good(x, s))
        rep = verify.double_rounding_sweep(6)
        assert (rep.cases, len(rep.failures), len(calls)) == (2688, 0, 3456)

    def test_nearest_sweep_calls_each_ordered_pair_once(self, monkeypatch):
        # add and mul call the op once per ordered pair and once more per
        # diagonal pair: n*n + n calls for the n = 64 words (twice per case
        # before); div calls it once per case
        n = 1 << SMALL.total_bits
        work = {}
        for op, (func, name) in list(verify._FLOAT_OPS.items()):
            calls = Counter()

            def counted(fmt, a, b, mode, da, db, func=func, calls=calls):
                calls[a, b] += 1
                return func(fmt, a, b, mode, da, db)

            monkeypatch.setitem(verify._FLOAT_OPS, op, (counted, name))
            rep = verify.float_nearest_sweep(SMALL, op)
            work[op] = (rep.cases, len(rep.failures), calls.total())
            if op != "div":
                assert len(calls) == n * n
                assert all(count == 1 + (a == b) for (a, b), count in calls.items())
        assert work == {"add": (4096, 0, 4160), "mul": (4096, 0, 4160), "div": (3968, 0, 3968)}


    def test_float_sweeps_judge_each_case_once(self, monkeypatch):
        # nearest add judges each unordered pair of the 48 finite words once
        # when both orders agree (48*49/2); nearest div judges each finite
        # pair with a nonzero divisor, directed mul every finite pair in
        # four modes; the shortcut sweep judges by intervals, one
        # far_shortcut call per case, and FloatFormat(2, 3) has no far pair
        judged = []
        good = verify._judge
        monkeypatch.setattr(verify, "_judge", lambda *args: judged.append(args) or good(*args))
        shortcuts = []
        good_shortcut = fa.far_shortcut
        monkeypatch.setattr(fa, "far_shortcut", lambda fmt, a, b: shortcuts.append((a, b)) or good_shortcut(fmt, a, b))
        counts = {}
        for name, run in [("add", lambda: verify.float_nearest_sweep(SMALL, "add")),
                          ("div", lambda: verify.float_nearest_sweep(SMALL, "div")),
                          ("mul-directed", lambda: verify.float_directed_sweep(SMALL, "mul")),
                          ("shortcut", lambda: verify.far_shortcut_sweep(SMALL)),
                          ("shortcut-e3p2", lambda: verify.far_shortcut_sweep(FloatFormat(3, 2)))]:
            judged.clear()
            shortcuts.clear()
            rep = run()
            assert rep.passed
            counts[name] = (rep.cases, len(judged), len(shortcuts))
        assert counts == {"add": (4096, 1176, 0), "div": (3968, 2208, 0), "mul-directed": (9216, 9216, 0),
                          "shortcut": (0, 0, 0), "shortcut-e3p2": (528, 0, 528)}

    def test_float_sweeps_decode_each_word_once(self, monkeypatch):
        # one _word_table per sweep, 256 _sig calls on rnf8; the symmetry
        # sweep compares words and decodes none, on any format.  _float_exact
        # picks each op's one kind of per-word entry: a divider operand for
        # each finite rnf8 word (224) in the div sweeps, and none elsewhere
        sigs, divs = Counter(), Counter()  # calls by the name of the sweep that makes them
        good_sig, good_div = verify._sig, verify._div_operand
        monkeypatch.setattr(verify, "_sig", lambda fmt, word: sigs.update([name]) or good_sig(fmt, word))
        monkeypatch.setattr(verify, "_div_operand", lambda fmt, sig: divs.update([name]) or good_div(fmt, sig))
        runs = [(f"{op}{suffix}", functools.partial(sweep, RNF8, op)) for op in ("add", "mul", "div")
                for suffix, sweep in (("", verify.float_nearest_sweep), ("-directed", verify.float_directed_sweep))]
        for name, run in runs + [("shortcut", functools.partial(verify.far_shortcut_sweep, RNF8)),
                                 ("mul-symmetry", functools.partial(verify.float_sign_symmetry_sweep, SMALL, "mul"))]:
            assert run().passed
        assert sigs == dict.fromkeys([name for name, _ in runs] + ["shortcut"], 256)  # and none for mul-symmetry
        assert divs == {"div": 224, "div-directed": 224}

    def test_float_sweeps_decode_each_operand_once(self, monkeypatch):
        # the op bodies take decode tuples from one list per sweep: one
        # library decode per word, whatever the number of op calls
        calls = []
        good = fa.decode

        def counted(fmt, word):
            calls.append(word)
            return good(fmt, word)

        monkeypatch.setattr(fa, "decode", counted)
        monkeypatch.setattr(verify, "decode", counted)
        counts = {}
        for name, run in [("add", lambda: verify.float_nearest_sweep(RNF8, "add")),
                          ("div-directed", lambda: verify.float_directed_sweep(RNF8, "div")),
                          ("mul-symmetry", lambda: verify.float_sign_symmetry_sweep(SMALL, "mul"))]:
            calls.clear()
            assert run().passed
            counts[name] = len(calls)
        assert counts == {"add": 256, "div-directed": 256, "mul-symmetry": 64}

    def test_directed_sweep_calls_the_op_five_times_per_pair(self, monkeypatch):
        # once in nearest, then once in each directed mode, for every pair
        # with a finite exact value; other pairs are not called
        calls = Counter()
        func, name = verify._FLOAT_OPS["mul"]

        def counted(fmt, a, b, mode, da, db):
            calls[a, b] += 1
            return func(fmt, a, b, mode, da, db)

        monkeypatch.setitem(verify._FLOAT_OPS, "mul", (counted, name))
        rep = verify.float_directed_sweep(SMALL, "mul")
        finite = [w for w in range(SMALL.word_end) if verify.float_value(SMALL, w) is not None]
        assert set(calls) == set(itertools.product(finite, finite))
        assert set(calls.values()) == {5}
        assert (rep.cases, len(rep.failures)) == (4 * len(finite) ** 2, 0)


# (exact, mode, word, inexact, clause): each clause of the contract on rnf8
# words, finite ones around 17/8 (ulp 1/4), +inf (0x70), -inf (0xf0) and NaNs (0x71, 0xf1)
ROUNDING_FAULT_ROWS = [
    ((2, 1, 0), RoundingMode.NEAREST, 0x40, False, None),         # 2, exact
    ((2, 1, 0), RoundingMode.NEAREST, 0x40, True, "sticky flag"),
    ((17, 8, 0), RoundingMode.NEAREST, 0x41, True, None),      # 9/4, r=1 above
    ((17, 8, 0), RoundingMode.NEAREST, 0x40, True, None),      # 2, r=0 below
    ((17, 8, 0), RoundingMode.NEAREST, 0x42, True, "round-bit direction"),  # 9/4, r=0
    ((17, 8, 0), RoundingMode.NEAREST, 0x44, True, "half ulp"),  # 5/2
    ((15, 8, 0), RoundingMode.NEAREST, 0x40, True, "round-bit direction"),  # 15/8 is 0x3e; 2 lies above it with r=0
    ((17, 8, 0), RoundingMode.UPWARD, 0x41, True, None),
    ((17, 8, 0), RoundingMode.DOWNWARD, 0x41, True, "directed side"),
    ((17, 8, 0), RoundingMode.TOWARD_ZERO, 0x40, True, None),
    ((17, 8, 0), RoundingMode.AWAY_FROM_ZERO, 0x40, True, "directed side"),
    ((17, 8, 0), RoundingMode.UPWARD, 0x44, True, "one ulp"),
    ((16, 1, 0), RoundingMode.NEAREST, 0x70, True, "overflow"),   # the edge 2**(e_max+1) is finite
    ((100, 1, 0), RoundingMode.TOWARD_ZERO, 0x70, True, None),
    ((15, 1, 0), RoundingMode.NEAREST, 0x70, True, "overflow"),
    ((-100, 1, 0), RoundingMode.NEAREST, 0x70, True, "overflow"),
    ((100, 1, 0), RoundingMode.NEAREST, 0x70, False, "overflow"),
    ((100, 1, 0), RoundingMode.NEAREST, 0x71, True, "overflow"),  # NaN
    ((-17, 8, 0), RoundingMode.TOWARD_ZERO, 0xCF, True, None),  # -2
    ((-17, 8, 0), RoundingMode.TOWARD_ZERO, 0xCE, True, "directed side"),  # -9/4
    ((-17, 8, 0), RoundingMode.AWAY_FROM_ZERO, 0xCE, True, None),
    ((-17, 8, 0), RoundingMode.AWAY_FROM_ZERO, 0xCF, True, "directed side"),
    ((16, 1, 0), RoundingMode.NEAREST, 0x6f, False, None),        # the edge word: 15 + r=1 at e_max
    ((33, 2, 0), RoundingMode.NEAREST, 0x70, True, None),         # just above the edge
    ((-100, 1, 0), RoundingMode.NEAREST, 0xf0, True, None),       # -inf
    ((-100, 1, 0), RoundingMode.NEAREST, 0xf1, True, "overflow"),  # a negative NaN
]


class TestRoundingFault:
    """Each clause of the contract, one row of ``ROUNDING_FAULT_ROWS`` or
    more per clause."""

    @pytest.mark.parametrize("exact, mode, word, inexact, clause", ROUNDING_FAULT_ROWS)
    def test_clause(self, exact, mode, word, inexact, clause):
        assert verify.rounding_fault(RNF8, exact, mode, word, inexact) == clause
        # the same value in other spellings of n/d * 2**k: a common odd
        # factor, and powers of two moved between n, d and k
        n, d, k = exact
        for spelling in ((3 * n, 3 * d, k), (n << 5, d, k - 5), (n, d << 4, k + 4), (n << 3, d << 1, k - 2)):
            assert verify.rounding_fault(RNF8, spelling, mode, word, inexact) == clause

    def test_every_clause_has_a_row(self):
        """The string labels ``rounding_fault`` can return are exactly the
        clauses of the rows, so no clause is added or dropped without one.
        They are read from ``_judge``, which holds the clauses."""
        tree = ast.parse(textwrap.dedent(inspect.getsource(verify._judge)))
        labels = {
            node.value
            for ret in ast.walk(tree) if isinstance(ret, ast.Return) and ret.value
            for node in ast.walk(ret.value) if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        assert labels == {row[-1] for row in ROUNDING_FAULT_ROWS} - {None}

    def test_failure_text_shows_the_exact_fraction(self, monkeypatch):
        _plant(monkeypatch, _flip_bit(lambda v, inexact, mode: inexact and mode is RoundingMode.NEAREST))
        inputs, want, got = verify.float_nearest_sweep(SMALL, "mul").failures[0]
        wa, wb = (int(w, 16) for w in inputs.split(","))
        exact = verify.float_value(SMALL, wa) * verify.float_value(SMALL, wb)
        assert want in (f"{clause} ({exact})" for clause in ("half ulp", "round-bit direction"))
        assert "/" in want and "," not in want  # a fraction, not a raw (n, d, k) tuple


def _decimal_triples(rng, fmt, count):
    """Seeded decimals ``n / 10**f`` as ``(n, 5**f, -f)``, meaning
    ``n/5**f * 2**-f``: up to 25 digits, signs mixed and zeros among them,
    at magnitudes from past the overflow edge down past the least
    subnormal (log10(2) lies between 0.3 and 0.4)."""
    hi = (fmt.e_max + 1) * 4 // 10 + 2
    lo = (fmt.e_min - fmt.precision) * 4 // 10 - 2
    out = []
    for _ in range(count):
        digits = rng.randint(1, 25)
        n = rng.randrange(10 ** digits) * rng.choice((1, -1))
        f = digits - rng.randint(lo, hi)
        if f < 0:  # a whole number with trailing zeros
            n, f = n * 10 ** -f, 0
        out.append((n, 5 ** f, -f))
    return out


class TestRoundToFormat:
    """``round_to_format`` judged by the oracle on the very triple it is
    given, and the divider's word ops ending in it."""

    def test_every_small_exact_result(self):
        fmt = SMALL
        finite = [(w, u) for w in enumerate_format(fmt) if (u := verify._units(fmt, w)) is not None]
        exacts = {op: verify._float_exact(fmt, op) for op in ("add", "mul", "div")}
        faults, divs = [], 0
        for (wa, ua), (wb, ub) in itertools.product(finite, repeat=2):
            for op, (entry, rule) in exacts.items():
                if op == "div" and ub == 0:  # divided by zero
                    continue
                exact = rule(entry(verify._sig(fmt, wa)), entry(verify._sig(fmt, wb)))
                for mode in RoundingMode:
                    got = fa.round_to_format(exact, fmt, mode)
                    if op == "div":
                        assert got == fa.fdiv_words(fmt, wa, wb, mode), (wa, wb, mode)
                        divs += 1
                    fault = verify.rounding_fault(fmt, exact, mode, *got)
                    if fault:
                        faults.append((op, wa, wb, mode.value, fault))
        assert faults == []
        assert divs > 0

    @pytest.mark.parametrize("fmt", [RNF16, RNF32, RNF64], ids=lambda f: f.name)
    def test_seeded_decimals(self, fmt):
        faults = []
        for exact in _decimal_triples(random.Random(fmt.total_bits), fmt, 2000):
            for mode in RoundingMode:
                fault = verify.rounding_fault(fmt, exact, mode, *fa.round_to_format(exact, fmt, mode))
                if fault:
                    faults.append((exact, mode.value, fault))
        assert faults == []


def _fraction_representable(x, fmt):
    """``representable`` stated in Fractions: floor(log2(|x|)), then the grid
    of that binade."""
    if x == 0:
        return True
    n, d = abs(x).numerator, abs(x).denominator
    e = n.bit_length() - d.bit_length()
    if n << max(-e, 0) < d << max(e, 0):
        e -= 1
    if e > fmt.e_max + 1:
        return False
    if e == fmt.e_max + 1:
        return abs(x) == Fraction(2) ** e
    grid = Fraction(2) ** (max(e, fmt.e_min) + 1 - fmt.precision)
    return (x / grid).denominator == 1


def _check_exact_triples(fmt, pairs):
    """The ``(n, d, k)`` of ``_float_exact``'s rule, on the entries the
    sweeps read, is the Fraction statement of the exact value, and
    ``representable`` agrees with its Fraction restatement on each distinct
    one.  The sweeps apply the rule to finite operands only, and to a
    nonzero divisor."""
    exacts = {op: verify._float_exact(fmt, op) for op in ("add", "mul", "div")}
    pairs, words, seen = list(pairs), {}, set()
    for w in {w for pair in pairs for w in pair}:
        v, sig = verify.float_value(fmt, w), verify._sig(fmt, w)
        words[w] = v, {op: entry(sig) for op, (entry, _) in exacts.items()}
        # the add and mul entry is the word's _units, None exactly when it has no value
        assert words[w][1]["add"] == words[w][1]["mul"] == verify._units(fmt, w)
        assert (v is None) == (words[w][1]["add"] is None)
    for wa, wb in pairs:
        (va, ea), (vb, eb) = words[wa], words[wb]
        if va is None or vb is None:
            continue
        for op, (_, rule) in exacts.items():
            if op == "div" and vb == 0:
                continue
            n, d, k = rule(ea[op], eb[op])
            assert d > 0
            x = Fraction(n << k, d) if k >= 0 else Fraction(n, d << -k)
            if op == "add":
                assert x == va + vb
            elif op == "mul":
                assert x == va * vb
            else:
                assert x == verify._div_reference(fmt, wa, wb)
                assert va != 0 or x == 0  # every spelling of a zero dividend
            if x not in seen:
                seen.add(x)
                assert verify.representable(x, fmt) == _fraction_representable(x, fmt)


class TestIntegerOracle:
    """The integer oracle states the same values as Fraction arithmetic."""

    @pytest.mark.parametrize("fmt", [RNF8, SMALL], ids=["rnf8", "e2p3"])
    def test_exact_triples_every_pair(self, fmt):
        words = range(1 << fmt.total_bits)
        values, sigs = verify._word_table(fmt)
        assert values == [verify._units(fmt, w) for w in words] and sigs == [verify._sig(fmt, w) for w in words]
        _check_exact_triples(fmt, itertools.product(words, repeat=2))

    @pytest.mark.parametrize("fmt", [RNF16, RNF32, RNF64], ids=lambda f: f.name)
    def test_exact_triples_seeded_pairs(self, fmt):
        # half uniform pairs, half pairs of nearby words (cancellation and
        # representable sums)
        rng = random.Random(2011)
        n = 1 << fmt.total_bits
        pairs = []
        for _ in range(1000):
            wa = rng.randrange(n)
            pairs += [(wa, rng.randrange(n)), (wa, wa ^ rng.randrange(1 << 6) ^ (rng.getrandbits(1) << (fmt.total_bits - 1)))]
        _check_exact_triples(fmt, pairs)

    def test_zero_dividend_spelled_all_ones(self):
        # rnf8 0x8f is sign 1, exponent 0, fraction and round bit all ones: 0
        assert verify._div_reference(RNF8, 0x8f, 0x30) == 0

    def test_sweeps_build_no_fraction(self, monkeypatch):
        """No sweep judges through a Fraction or the library's value types:
        the fixed sweeps on encoding integers and the float sweeps on words
        build no ``RnFixed``."""
        used = []

        def counted(name, func):
            def call(*args, **kwargs):
                used.append(name)
                return func(*args, **kwargs)
            return call

        # every Fraction built, wherever verify imports the class
        monkeypatch.setattr(Fraction, "__new__", counted("Fraction", Fraction.__new__))
        monkeypatch.setattr(RnFixed, "__init__", counted("RnFixed", RnFixed.__init__))
        on_ints = [
            verify.fixed_add_sweep(3, "add"), verify.fixed_mul_sweep(4), verify.fixed_mul_sign_sweep(4),
            verify.fixed_div_sweep(3), verify.double_rounding_sweep(4), verify.negation_sweep(6),
            verify.roundtrip_sweep(6),
        ]
        assert all(rep.cases and rep.passed for rep in on_ints)
        assert used == []
        reports = [
            *(sweep(SMALL, op)
              for sweep in (verify.float_nearest_sweep, verify.float_directed_sweep)
              for op in ("add", "mul", "div")),
            verify.decode_sweep(SMALL),
        ]
        assert all(rep.cases and rep.passed for rep in reports)
        assert used == []
        used.clear()
        verify.float_value(SMALL, 0x10)  # the counters do see verify's Fractions
        assert set(used) == {"Fraction"}
        assert not hasattr(verify, "value_of")  # nor can a sweep reach it

    ORACLE = ("_sig", "_units", "_sig_units", "float_value", "float_ulp", "_value_class", "representable",
              "_half_interval", "_div_operand", "_div_quotient", "_div_reference", "_fraction",
              "_float_exact", "rounding_fault", "_judge", "_word_table")

    def test_oracle_names_no_library_code(self):
        """The oracle functions read words by their own field reading: they
        name nothing from ``core`` or ``floatfmt`` but ``FloatFormat``, and
        of ``fixed`` and ``floatarith`` only ``fa.RoundingMode``.  So do the
        module-level tables they read, and they call no verify function
        outside the oracle."""
        tree = ast.parse(inspect.getsource(verify))
        imported, modules = set(), set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = {a.asname or a.name for a in node.names}
                if node.module in ("core", "floatfmt"):
                    imported |= names - {"FloatFormat"}
                elif node.module is None:
                    modules |= names & {"fixed", "fa"}
        assert imported and modules == {"fixed", "fa"}
        funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
        tables = {t.id: n.value for n in tree.body if isinstance(n, ast.Assign) for t in n.targets
                  if isinstance(t, ast.Name)}
        assert set(self.ORACLE) <= funcs.keys()

        def library_names(node):
            allowed = {id(a.value) for a in ast.walk(node) if isinstance(a, ast.Attribute)
                       and isinstance(a.value, ast.Name) and (a.value.id, a.attr) == ("fa", "RoundingMode")}
            return [n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                    and (n.id in imported or n.id in modules and id(n) not in allowed)]

        for name in self.ORACLE:
            used = {n.id for n in ast.walk(funcs[name]) if isinstance(n, ast.Name)}
            assert library_names(funcs[name]) == [], name
            assert used & funcs.keys() <= set(self.ORACLE), name
            for table in used & tables.keys():
                assert library_names(tables[table]) == [], (name, table)


# rnf8 and three smaller shapes whose exponent range holds far pairs
implied_shapes = pytest.mark.parametrize(
    "fmt", [RNF8, FloatFormat(3, 2), FloatFormat(3, 3), FloatFormat(4, 2)],
    ids=lambda f: f"e{f.exp_bits}p{f.precision}")


class TestImpliedClauses:
    """Claims the oracle's clauses imply, each tested exhaustively in place
    of the clause that judged it case by case and could never fail alone."""

    @implied_shapes
    def test_representable_value_returned_exactly(self, fmt):
        """Replaces ``rounding_fault``'s "exact value" clause: for every
        representable value x and every finite word of another value,
        "half ulp" or "round-bit direction" fails, so a nearest result that
        passes both returns a representable x exactly."""
        u = fmt.e_min + 1 - fmt.precision  # _units count 2**u
        finite = [(w, v) for w in enumerate_format(fmt) if (v := verify._units(fmt, w)) is not None]
        clauses = set()
        for x in {v for _, v in finite}:  # every representable value
            assert verify.representable(Fraction(x) * Fraction(2) ** u, fmt)
            for w, v in finite:
                if v != x:
                    clauses.add(verify.rounding_fault(fmt, (x, 1, u), RoundingMode.NEAREST, w, True))
        # the direction clause does the work: without it some word would pass
        assert clauses == {"half ulp", "round-bit direction"}

    @implied_shapes
    def test_shortcut_bounds_imply_one_ulp(self, fmt):
        """Replaces ``far_shortcut_sweep``'s one-ulp clause: over every pair
        that sweep judges and every finite word, a word whose interval meets
        both of the sweep's bounds lies within one ulp of the exact sum."""
        words = [(verify._half_interval(fmt, verify._sig(fmt, w)), v)
                 for w in enumerate_format(fmt) if (v := verify._units(fmt, w)) is not None]
        pairs = 0
        values, _ = verify._word_table(fmt)
        for (a, va), (b, vb) in itertools.product(enumerate(values), repeat=2):
            if va in (None, 0) or vb in (None, 0):
                continue
            if verify._sig(fmt, a)[1] <= verify._sig(fmt, b)[1] + fmt.precision:
                continue
            pairs += 1
            # half is u/2 in the intervals' units of 2**(e_min-p), and u in _units
            lo_a, half = verify._half_interval(fmt, verify._sig(fmt, a))
            lo, hi = (lo_a, lo_a + 2 * half) if vb > 0 else (lo_a - half, lo_a + half)
            inside = [v for (lo_r, width_r), v in words if lo <= lo_r and lo_r + width_r <= hi]
            assert inside and all(abs(v - va - vb) < half for v in inside)
        assert pairs


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

    def test_zero_case_sweep_is_a_skip(self):
        rep = verify.far_shortcut_sweep(FloatFormat(2, 2))
        assert rep.cases == 0 and rep.passed
        assert rep.to_text().splitlines()[-1].startswith("SKIP 0 0 ")
