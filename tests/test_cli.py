import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from rnarith import cli, floatfmt
from rnarith.cli import _build_parser, main
from rnarith.core import DyadicRational
from rnarith.floatarith import RoundingMode, round_to_format
from rnarith.floatfmt import RNF64


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


class TestConvert:
    def test_worked_signed_digit_output(self, capsys):
        code, out, _ = run(capsys, "convert", "rn:110100110010:r0@0", "--to", "sd")
        assert code == 0
        assert out == "-1 1 -1 0 1 0 -1 0 1 -1 0"

    def test_zero_to_decimal(self, capsys):
        code, out, _ = run(capsys, "convert", "rn:00000:r0@0", "--to", "decimal")
        assert code == 0 and out == "0"

    def test_decimal_to_fixed_both_spellings(self, capsys):
        code, out, _ = run(capsys, "convert", "12", "--to", "rn@0,w=5")
        assert code == 0 and out == "rn:01100:r0@0"
        code, out, _ = run(capsys, "convert", "12", "--to", "rn@0,w=5", "--prefer-round-bit")
        assert code == 0 and out == "rn:01011:r1@0"

    def test_fixed_to_decimal(self, capsys):
        code, out, _ = run(capsys, "convert", "rn:01011:r1@0", "--to", "decimal")
        assert code == 0 and out == "12"

    def test_decimal_to_float_exact(self, capsys):
        code, out, _ = run(capsys, "convert", "1", "--to", "float:rnf8")
        assert code == 0 and out == "rnf8:0x30 exact"

    def test_decimal_to_float_inexact(self, capsys):
        code, out, _ = run(capsys, "convert", "1.3", "--to", "float:rnf8")
        assert code == 0
        assert out.endswith("inexact")

    def test_float_to_decimal(self, capsys):
        code, out, _ = run(capsys, "convert", "rnf8:0x30", "--to", "decimal")
        assert code == 0 and out == "1"

    @pytest.mark.parametrize("value, want", [
        ("0.3", "0.3"), ("-3.25", "-3.25"), ("12", "12"), ("+0.300", "0.3"), ("-0.0", "0"), ("007.10", "7.1"),
    ])
    def test_decimal_to_decimal_is_exact(self, capsys, value, want):
        code, out, _ = run(capsys, "convert", value, "--to", "decimal")
        assert code == 0 and out == want

    @pytest.mark.parametrize("value, target", [
        ("rn:01011:r1@0", "sd"), ("12", "decimal"), ("1", "float:rnf8"),
    ])
    def test_prefer_round_bit_refused_off_fixed_targets(self, capsys, value, target):
        code, out, err = run(capsys, "convert", value, "--to", target, "--prefer-round-bit")
        assert code == 2 and not out
        assert err == "error: --prefer-round-bit applies only to an rn@<lsb>,w=<width> target"

    def test_unrepresentable_decimal_rejected(self, capsys):
        code, _, err = run(capsys, "convert", "0.3", "--to", "rn@0,w=5")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("value", ["0", "1"])
    def test_zero_width_has_one_message(self, capsys, value):
        code, out, err = run(capsys, "convert", value, "--to", "rn@0,w=0")
        assert (code, out, err) == (2, "", "error: width must be at least 1")

    def test_value_too_wide_for_the_target_word(self, capsys):
        # fits the width by bit length, but not as a 4-bit two's complement word
        code, out, err = run(capsys, "convert", "12", "--to", "rn@0,w=4")
        assert code == 2 and not out
        assert err == "error: value does not fit 4 bits at lsb exponent 0"

    @pytest.mark.parametrize("value, flags, word", [
        ("7", (), "rn:0111:r0@0"), ("8", (), None), ("-8", (), "rn:1000:r0@0"), ("-9", (), None),
        ("15", (), None), ("16", (), None), ("-16", (), None), ("-17", (), None),
        # the stored word is the value less its round bit: 8 fits as 7 + 1
        ("8", ("--prefer-round-bit",), "rn:0111:r1@0"),
        ("9", ("--prefer-round-bit",), None), ("-8", ("--prefer-round-bit",), None),
    ])
    def test_fit_boundaries_have_one_message(self, capsys, value, flags, word):
        """A value fits exactly when its stored word is 4-bit two's
        complement; every misfit, refused by bit length or by range, says
        the same thing about the value the user wrote."""
        code, out, err = run(capsys, "convert", value, "--to", "rn@0,w=4", *flags)
        if word is None:
            assert (code, out, err) == (2, "", "error: value does not fit 4 bits at lsb exponent 0")
        else:
            assert (code, out, err) == (0, word, "")

    def test_bad_literal_exit_code(self, capsys):
        code, _, err = run(capsys, "convert", "rn:0a:r0@0", "--to", "decimal")
        assert code == 2 and err

    @pytest.mark.parametrize("literal", [
        "rnf8:s=0,e=3,f=000,r=0,s=1", "rnf8:s=0,e=3,f=000,r=0,x=9", "rnf8:s=0,e=3,f=000,r=0 junk",
    ], ids=["repeated", "unknown", "stray"])
    def test_field_literal_names_each_field_once(self, capsys, literal):
        code, out, err = run(capsys, "convert", literal, "--to", "decimal")
        assert (code, out, err) == (2, "", f"error: bad float field literal: {literal!r}")

    def test_long_decimal_still_printed(self, capsys):
        code, out, _ = run(capsys, "convert", "rn:01:r1@-5000", "--to", "decimal")
        assert code == 0
        assert out.startswith("0.") and len(out) == 2 + 4999 and out[2:].isdigit()

    def test_decimal_beyond_digit_limit_refused_quickly(self, capsys):
        for argv in (("convert", "rn:01:r1@-100000000", "--to", "decimal"),
                     ("convert", "rn:01:r1@-10000000000", "--to", "decimal"),
                     ("eval", "rn:01:r1@-100000000")):
            t0 = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - t0 < 0.5
            assert code == 2 and not out
            assert err.startswith("error:") and "Traceback" not in err

    def test_fixed_width_beyond_digit_limit_refused_quickly(self, capsys):
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            code, out, err = run(capsys, "convert", "1", "--to", "rn@0,w=10000000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t0 < 0.5
        assert peak < 5 << 20
        assert code == 2 and not out and err.startswith("error:")

    def test_fixed_width_at_digit_limit_still_printed(self, capsys):
        code, out, _ = run(capsys, "convert", "1", "--to", "rn@0,w=4300")
        assert code == 0 and out == "rn:" + "0" * 4299 + "1:r0@0"

    @pytest.mark.parametrize("exp", ["100000000", "-100000000"])
    def test_huge_literal_exponent_stays_small(self, capsys, exp):
        # the value reaches the sink and the fixed target as mantissa and
        # exponent; nothing builds 2**|exp|
        want = {
            "decimal": (2, ""),
            "float:rnf8": (0, "rnf8:0x00 inexact" if exp.startswith("-") else "rnf8:0x70 inexact"),
            "rn@0,w=8": (2, ""),
        }
        for target, (want_code, want_out) in want.items():
            tracemalloc.start()
            t0 = time.perf_counter()
            try:
                code, out, err = run(capsys, "convert", f"rn:01:r1@{exp}", "--to", target)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert time.perf_counter() - t0 < 0.5
            assert (code, out) == (want_code, want_out)
            assert peak < 5 << 20
            assert code == 0 or err.startswith("error:")


    @pytest.mark.parametrize("mantissa, exp, words", [
        (1, 10 ** 9, ("7ff0000000000000",) * 5),
        (-3, 10 ** 9, ("fff0000000000000",) * 5),
        (3, 10 ** 9, ("7ff0000000000000",) * 5),
        (1, -10 ** 9, ("0", "1", "0", "0", "1")),
        (-3, -10 ** 9, ("0", "0", "800ffffffffffffe", "0", "800ffffffffffffe")),
        (3, -10 ** 9, ("0", "1", "0", "0", "1")),
    ])
    def test_huge_exponent_reaches_the_sink_as_a_shift(self, mantissa, exp, words):
        # words in rn, ru, rd, rz, ra; every one is inexact, and the sink's
        # shift path never builds 2**|exp|
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            got = [round_to_format(DyadicRational(mantissa, exp), RNF64, mode) for mode in RoundingMode]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t0 < 0.5
        assert peak < 5 << 20
        assert [f"{word:x}" for word, _ in got] == list(words)
        assert all(inexact for _, inexact in got)

    @pytest.mark.parametrize("value, words", [
        (Fraction(1, 3 ** 20000), ("0", "1", "0", "0", "1")),
        (Fraction(3 ** 20000, 7), ("7ff0000000000000",) * 5),
        (Fraction(-3 ** 20000, 7), ("fff0000000000000",) * 5),
    ], ids=["tiny", "huge", "-huge"])
    def test_huge_fraction_reaches_the_sink_as_a_shift(self, value, words):
        # words in rn, ru, rd, rz, ra; every one is inexact: the divider
        # hands the sink p + 3 quotient bits and a sticky bit, whatever the
        # operands' widths
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            got = [round_to_format(value, RNF64, mode) for mode in RoundingMode]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t0 < 0.5
        assert peak < 5 << 20
        assert [f"{word:x}" for word, _ in got] == list(words)
        assert all(inexact for _, inexact in got)


class TestEval:
    def test_worked_product(self, capsys):
        code, out, _ = run(capsys, "eval", "rn:01011:r1@0 * rn:01001:r1@0")
        assert code == 0
        assert out.startswith("rn:001110111:r1@0 exact")

    def test_self_subtraction(self, capsys):
        code, out, _ = run(capsys, "eval", "rn:01011:r1@0 - rn:01011:r1@0")
        assert code == 0
        assert out.startswith("rn:111111:r1@0 exact (= 0)")

    def test_float_add_sticky(self, capsys):
        code, out, _ = run(capsys, "eval", "rnf8:0x30 + rnf8:0x30")
        assert code == 0
        assert "exact" in out and "sticky=0" in out

    def test_directed_mode_on_exact_input_unchanged(self, capsys):
        _, nearest, _ = run(capsys, "eval", "rnf8:0x30 + rnf8:0x30")
        _, upward, _ = run(capsys, "eval", "--mode", "ru", "rnf8:0x30 + rnf8:0x30")
        assert nearest == upward

    def test_directed_mode_changes_inexact_result(self, capsys):
        expr = "rnf8:0x3e + rnf8:0x10"
        _, up, _ = run(capsys, "eval", "--mode", "ru", expr)
        _, down, _ = run(capsys, "eval", "--mode", "rd", expr)
        assert up != down

    def test_precedence(self, capsys):
        code, out, _ = run(capsys, "eval", "rn:0100:r0@0 + rn:0010:r0@0 * rn:0010:r0@0")
        assert code == 0
        assert "(= 8)" in out

    def test_float_division_by_zero_prints_inf(self, capsys):
        code, out, _ = run(capsys, "eval", "rnf8:0x30 / rnf8:0x00")
        assert code == 0 and "(= inf)" in out

    def test_fixed_division_by_unnormalized_rejected(self, capsys):
        code, _, err = run(capsys, "eval", "rn:0100:r0@0 / rn:0000:r0@0")
        assert code == 2 and err

    def test_fixed_division_by_zero_word_rejected(self, capsys):
        code, _, err = run(capsys, "eval", "rn:01000:r0@-3 / rn:00000:r0@-3")
        assert code == 2 and err == "error: divisor word must lie in [1, 2)"

    @pytest.mark.parametrize("expr, err", [
        ("", "empty expression"),
        ("rnf8:0x30 +", "expression ends with an operator"),
        ("rnf8:0x30 rnf8:0x30", "expected an operator, got 'rnf8:0x30'"),
        ("rnf8:0x30 + + rnf8:0x30", "unrecognized operand '+'"),
        ("1.5 + 2", "eval operands must be rn: or rnf literals"),
        # a term is applied before the token after it is judged
        ("rn:0100:r0@0 + rnf8:0x30 junk", "cannot mix fixed-point and floating-point operands"),
        ("rnf8:0x30 * rnf16:0x3c00 junk", "operands use different formats"),
        ("rn:0100:r0@0 / rn:0000:r0@0", "need at least one fractional bit"),
    ])
    def test_first_error_reported(self, capsys, expr, err):
        assert run(capsys, "eval", expr) == (2, "", f"error: {err}")

    def test_mixed_kinds_rejected(self, capsys):
        code, _, err = run(capsys, "eval", "rn:0100:r0@0 + rnf8:0x30")
        assert code == 2 and err

    def test_matches_library(self, capsys):
        from rnarith import RNF8, RnFloat, fadd_words, format_hex_literal

        a, b = 0x5B, 0x2D
        _, out, _ = run(capsys, "eval", f"rnf8:{a:#04x} + rnf8:{b:#04x}")
        assert out.split()[0] == format_hex_literal(RnFloat(RNF8, fadd_words(RNF8, a, b)[0]))

    @pytest.mark.parametrize("expr", ["rnf16:0x0030 + rnf8:0x30", "rnf8:0x30 + rnf16:0x0030"])
    def test_different_formats_rejected(self, capsys, expr):
        # the narrower word also fits the wider format, and the word ops
        # compare no formats: only the evaluator's check stops a wrong result
        code, out, err = run(capsys, "eval", expr)
        assert (code, out, err) == (2, "", "error: operands use different formats")


class TestInspect:
    def test_one(self, capsys):
        code, out, _ = run(capsys, "inspect", "rnf8:0x30")
        assert code == 0
        first = out.splitlines()[0]
        assert "class=normal" in first
        assert "s=0" in first and "e=3(bias 3)" in first
        assert "hidden=1" in first and "f=000" in first and "r=0" in first
        assert "value=1" in first
        assert "interval=[1 ; 1.0625]" in first

    def test_zero_word(self, capsys):
        code, out, _ = run(capsys, "inspect", "rnf8:0x00")
        assert code == 0 and "class=zero" in out

    def test_word_decoded_twice(self, capsys, monkeypatch):
        # once by ``unpack`` and once for the scale; value, interval and
        # fields all come from the one unpacked view
        calls = []
        good = floatfmt.decode

        def counted(*args):
            calls.append(args)
            return good(*args)

        monkeypatch.setattr(floatfmt, "decode", counted)
        monkeypatch.setattr(cli, "decode", counted)
        code, out, _ = run(capsys, "inspect", "rnf8:0x35")
        assert code == 0 and out.startswith("class=normal")
        assert calls == [(floatfmt.RNF8, 0x35)] * 2

    def test_nan(self, capsys):
        code, out, _ = run(capsys, "inspect", "rnf8:0x71")
        assert code == 0 and "class=nan" in out

    def test_fields_line_reparses(self, capsys):
        from rnarith import RNF8, RnFloat, parse_float_literal

        _, out, _ = run(capsys, "inspect", "rnf8:0xb5")
        fields = out.splitlines()[1].removeprefix("fields: ")
        assert parse_float_literal(f"rnf8:{fields}") == RnFloat(RNF8, 0xB5)


class TestVerify:
    def test_pinned_examples_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "paper-examples")
        assert code == 0
        assert out.splitlines()[-1].startswith("PASS")

    def test_small_fixed_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "fixed-mul", "--width", "4")
        assert code == 0 and "PASS" in out

    @pytest.mark.parametrize("argv, statuses", [
        (("fixed-mul", "--width", "6"), ["PASS 16384 0", "PASS 16384 0"]),  # mul, mul-sign
        (("fixed-div", "--width", "5"), ["PASS 4096 0"]),
        (("fixed-negate", "--width", "12"), ["PASS 16376 0"]),
        (("float-roundtrip", "--format", "rnf8"), ["PASS 256 0"]),
        (("float-negate", "--format", "rnf8"), ["PASS 256 0"]),
        (("fixed-roundtrip", "--width", "10"), ["PASS 2048 0"]),  # encodings only
        # width 12 (638,976 cases) is acceptance criterion 4
        (("fixed-truncate", "--width", "8"), ["PASS 18432 0"]),
    ], ids=["fixed-mul-6", "fixed-div-5", "fixed-negate-12", "float-roundtrip-rnf8", "float-negate-rnf8",
            "fixed-roundtrip-10", "fixed-truncate-8"])
    def test_suite_passes_its_case_count(self, capsys, argv, statuses):
        # a dropped case cannot pass as PASS: each report's status line pins
        # its case and failure counts (the elapsed time is left out)
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0
        lines = out.splitlines()
        assert [line.rsplit(" ", 1)[0] for line in lines if not line.startswith("verify ")] == statuses

    def test_seed_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "paper-examples", "--seed", "1"])
        assert exc.value.code == 2

    def test_oversized_pair_sweep_is_refused(self, capsys):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "verify", "float-add", "--format", "rnf16")
        assert time.perf_counter() - t0 < 0.5
        assert code == 2 and not out
        assert err.startswith("error:") and "enumeration limit" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("suite, width", [
        *((suite, "13") for suite in ("fixed-add", "fixed-add-alt", "fixed-sub", "fixed-mul", "fixed-div")),
        ("fixed-truncate", "18"), ("fixed-roundtrip", "26"), ("fixed-negate", "25"),
        *((suite, "10000000000") for suite in (
            "fixed-add", "fixed-add-alt", "fixed-sub", "fixed-mul", "fixed-div",
            "fixed-truncate", "fixed-roundtrip", "fixed-negate")),
    ])
    def test_oversized_fixed_sweep_is_refused_before_its_first_case(self, capsys, suite, width):
        # the first width each suite refuses, and a width whose power of two
        # alone would take gigabytes
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            code, out, err = run(capsys, "verify", suite, "--width", width)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t0 < 0.5
        assert peak < 5 << 20
        assert code == 2 and not out
        assert err.startswith("error:") and "enumeration limit" in err
        assert "Traceback" not in err

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "no-such-suite")
        assert code == 2 and err

    @pytest.mark.parametrize("suite, width", [
        ("fixed-add", "0"), ("fixed-roundtrip", "0"), ("fixed-div", "-1"),
    ])
    def test_width_below_one_refused(self, capsys, suite, width):
        code, out, err = run(capsys, "verify", suite, "--width", width)
        assert code == 2 and not out
        assert err == f"error: --width must be at least 1, not {width}"

    @pytest.mark.parametrize("suite, flag, value", [
        ("paper-examples", "--width", "3"),
        ("float-add", "--width", "3"),
        ("fixed-add", "--format", "rnf8"),
    ])
    def test_option_the_suite_does_not_take_refused(self, capsys, suite, flag, value):
        code, out, err = run(capsys, "verify", suite, flag, value)
        assert code == 2 and not out
        assert err == f"error: suite '{suite}' takes no {flag}"

    def test_zero_case_sweep_reports_skip(self, capsys):
        code, out, _ = run(capsys, "verify", "fixed-negate", "--width", "1")
        assert code == 0
        assert out.splitlines()[-1].startswith("SKIP 0 0 ")


class TestParserReuse:
    """Every main() call in a process shares one parser; no option, default
    or error may leak from one call into the next."""

    def test_parser_built_once(self):
        assert _build_parser() is _build_parser()

    def test_calls_in_sequence_match_single_calls(self, capsys):
        expr = "rnf8:0x30 + rnf8:0x01"
        assert run(capsys, "eval", "--mode", "ru", expr) == (0, "rnf8:0x31 inexact sticky=1 (= 1.125)", "")
        assert run(capsys, "eval", expr) == (0, "rnf8:0x30 inexact sticky=1 (= 1)", "")
        target = ("convert", "12", "--to", "rn@0,w=5")
        assert run(capsys, *target, "--prefer-round-bit") == (0, "rn:01011:r1@0", "")
        assert run(capsys, *target) == (0, "rn:01100:r0@0", "")
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--mode", "bogus", expr])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        assert run(capsys, "eval", expr) == (0, "rnf8:0x30 inexact sticky=1 (= 1)", "")


class TestLiteralRoundTrips:
    def test_printed_fixed_literals_reparse(self, capsys):
        from rnarith import RnFixed, apply, format_literal, parse_literal

        for text in ("rn:01011:r1@0", "rn:1101001100:r1@2", "rn:10:r0@-7"):
            x = parse_literal(text)
            assert format_literal(x) == text
            zero = RnFixed(0, x.width, 0, x.lsb_exp)
            _, out, _ = run(capsys, "eval", f"{text} + {format_literal(zero)}")
            assert (parse_literal(out.split()[0]), False) == apply("+", x, zero)


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "rnarith", "convert", "1", "--to", "decimal"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")
