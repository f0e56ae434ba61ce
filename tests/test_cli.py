import contextlib
import hashlib
import importlib.util
import io
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from rnarith import cli, floatfmt
from rnarith.cli import main
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

    @pytest.mark.parametrize("target", ["rn@\u0663,w=\u0665", "rn@0,w=5\n"], ids=["non-ascii-digits", "newline"])
    def test_lax_fixed_target_refused(self, capsys, target):
        """The target is ASCII with nothing after the width, though ``\\d``
        takes other digits and ``$`` a trailing newline."""
        want = f"error: bad fixed-point target {target!r} (expected rn@<lsb>,w=<width>)"
        assert run(capsys, "convert", "8", "--to", target) == (2, "", want)

    def test_non_ascii_zero_width_is_a_bad_target(self, capsys):
        # the grammar is checked before the width is read
        target = "rn@0,w=\u0660"
        code, out, err = run(capsys, "convert", "8", "--to", target)
        assert (code, out, err) == (2, "", f"error: bad fixed-point target {target!r} (expected rn@<lsb>,w=<width>)")

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

    @pytest.mark.parametrize("argv, err", [
        (("convert", "\u0663.\u0665", "--to", "float:rnf8"), "unrecognized operand '\u0663.\u0665'"),
        (("convert", "rn:01:r1@1_0", "--to", "decimal"), "bad fixed-point literal: 'rn:01:r1@1_0'"),
        (("convert", "rn:01:r1@ 2", "--to", "decimal"), "bad fixed-point literal: 'rn:01:r1@ 2'"),
        (("convert", "rnf8:0x_30", "--to", "decimal"), "bad float literal: 'rnf8:0x_30'"),
        (("inspect", "rnf8:0X3_0"), "bad float literal: 'rnf8:0X3_0'"),
        (("convert", "rnf8:s=0,e=0_1,f=0_00,r=0", "--to", "decimal"),
         "bad float field literal: 'rnf8:s=0,e=0_1,f=0_00,r=0'"),
        (("convert", "rnf8:s=+0,e=3,f=000,r=0", "--to", "decimal"),
         "bad float field literal: 'rnf8:s=+0,e=3,f=000,r=0'"),
    ], ids=["unicode-decimal", "exponent-underscore", "exponent-blank", "hex-underscore", "inspect-hex",
            "field-underscores", "field-plus-sign"])
    def test_lax_literal_forms_refused(self, capsys, argv, err):
        """Literals are ASCII digits without ``_``, blanks or signs inside a
        field, though ``int`` and ``Fraction`` take each of these."""
        assert run(capsys, *argv) == (2, "", f"error: {err}")

    @pytest.mark.parametrize("blanked", [" {}", "{} ", "  {}\t", "{}\n", "\r\n{}\r\n"],
                             ids=["leading", "trailing", "both", "newline", "crlf"])
    @pytest.mark.parametrize("command, token", [
        ("convert", "rnf8:0x30"), ("convert", "rn:01:r0@0"), ("convert", "-01.50"),
        ("eval", "rnf8:0x30"), ("eval", "rn:01:r0@0"), ("inspect", "rnf8:0x30"),
    ])
    def test_surrounding_blanks_read_as_none(self, capsys, command, token, blanked):
        # every command reads an operand less its surrounding whitespace, before
        # it classifies it
        extra = ("--to", "decimal") if command == "convert" else ()
        want = run(capsys, command, token, *extra)
        assert want[0] == 0
        assert run(capsys, command, blanked.format(token), *extra) == want

    @pytest.mark.parametrize("literal, err", [
        ("rnf8:0x", "bad float literal: 'rnf8:0x'"),
        ("rnf8:0xg", "bad float literal: 'rnf8:0xg'"),
        ("rnf8:0x_1ff", "bad float literal: 'rnf8:0x_1ff'"),
        ("rnf8:0x1ff", "word does not fit the format"),
        ("rnf8:s=2,e=3,f=000,r=0", "bad bit field in literal: 'rnf8:s=2,e=3,f=000,r=0'"),
        ("rnf8:s=00,e=3,f=000,r=0", "bad bit field in literal: 'rnf8:s=00,e=3,f=000,r=0'"),
        ("rnf8:s=0,e=0_9,f=000,r=0", "bad float field literal: 'rnf8:s=0,e=0_9,f=000,r=0'"),
        ("rnf8:s=0,e=9,f=000,r=0", "field out of range in literal: 'rnf8:s=0,e=9,f=000,r=0'"),
        ("rn:01:r1@x", "bad fixed-point literal: 'rn:01:r1@x'"),
        ("rn:01011:r2@0", "bad fixed-point literal: 'rn:01011:r2@0'"),
        *((t, f"bad float literal: {t!r}") for t in ("rnf", "rnf8", "rnfoo", "rnf:1")),
    ])
    def test_grammar_checked_before_the_value(self, capsys, literal, err):
        # the ASCII grammar comes first; the fit and range checks after it
        # keep their messages; any token that starts with rnf is read as a
        # float literal
        assert run(capsys, "convert", literal, "--to", "decimal") == (2, "", f"error: {err}")

    def test_no_refusal_shows_int_text(self, capsys):
        """Each refused literal gets its reader's message on one line, never
        the text of Python's ``int()``."""
        literals = [
            "rn:01a1:r0@0", "rn:01011:r2@0", "rn::r1@0", "rn:01:1@0", "rn:01:r1", "rn:01:r1@x", "rn:01:r1@1_0",
            "rn:01:r1@+2", "rn:01:r1@ 2", "rn:01:r1@\u0663",
            "rnf8:0x", "rnf8:0xg", "rnf8:0x_1ff", "rnf8:s=0,e=0_9,f=000,r=0",
        ]
        argvs = [("convert", "8", "--to", "rn@0,w=\u0660")]
        argvs += [argv for lit in literals for argv in (("convert", lit, "--to", "decimal"), ("eval", lit))]
        for argv in argvs:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: bad ") and "\n" not in err and "int()" not in err, argv

    @pytest.mark.parametrize("argv, err", [
        (("convert", "rn:01:r1@" + "9" * 5000, "--to", "decimal"), "bad fixed-point literal: "),
        (("convert", "1", "--to", "rn@0,w=" + "9" * 5000), "bad fixed-point target "),
        (("inspect", "rnf8:s=0,e=" + "0" * 5000 + ",f=000,r=0"), "field out of range in literal: "),
    ], ids=["exponent", "target-width", "exponent-field"])
    def test_digits_past_the_int_limit_get_the_literal_message(self, capsys, argv, err):
        """A decimal field longer than ``int()`` takes (4,300 digits by
        default) is refused with its literal kind's message, not with
        Python's text naming ``sys.set_int_max_str_digits``."""
        code, out, got = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert got.startswith(f"error: {err}") and "\n" not in got and "set_int_max_str_digits" not in got

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

    @pytest.mark.parametrize("value, target, want", [
        ("9" * 5000, "decimal", "9" * 5000),
        ("9" * 5000, "float:rnf8", "rnf8:0x70 inexact"),
        ("0." + "9" * 5000, "float:rnf8", "rnf8:0x2f inexact"),
    ], ids=["nines-decimal", "nines-rnf8", "fraction-nines-rnf8"])
    def test_decimal_operand_past_the_int_limit_gets_its_value(self, capsys, value, target, want):
        """A decimal operand longer than ``int()`` reads at once (4,300
        digits by default) is read in chunks and printed from its digits."""
        assert run(capsys, "convert", value, "--to", target) == (0, want, "")

    def test_longest_argument_decimal_read_quickly(self, capsys):
        # 131,071 characters: Linux passes no longer argument (MAX_ARG_STRLEN
        # is 131,072 bytes with the terminating NUL)
        t0 = time.perf_counter()
        got = run(capsys, "convert", "0." + "9" * 131069, "--to", "float:rnf64")
        assert time.perf_counter() - t0 < 0.5
        assert got == (0, "rnf64:0x3fefffffffffffff inexact", "")
        # random digits: the value is never reduced, so no gcd runs on it
        rng = random.Random(1)
        digits = "".join(rng.choice("0123456789") for _ in range(131069))
        for target, budget, want in (
            ("decimal", 0.1, (0, "0." + digits.rstrip("0"), "")),
            ("float:rnf64", 0.1, (0, "rnf64:0x3fd2a696beb04f64 inexact", "")),
            ("rn@-8,w=16", 0.5, (2, "", "error: value is not representable at lsb exponent -8")),
        ):
            t0 = time.perf_counter()
            got = run(capsys, "convert", "0." + digits, "--to", target)
            assert time.perf_counter() - t0 < budget, target
            assert got == want

    def test_wide_signed_digit_output_quick(self, capsys):
        for literal, want in (
            # 120,000 digits, all but two of them leading zeros
            ("rn:" + "0" * 119999 + "1:r0@0", "1 -1"),
            # 120,000 digits, every one of them nonzero but the last
            ("rn:" + "01" * 60000 + ":r1@0", " ".join(["1", "-1"] * 59999 + ["1", "0"])),
        ):
            t0 = time.perf_counter()
            got = run(capsys, "convert", literal, "--to", "sd")
            assert time.perf_counter() - t0 < 0.2
            assert got == (0, want, "")

    def test_decimal_beyond_digit_limit_refused_quickly(self, capsys):
        for argv in (("convert", "rn:01:r1@-100000000", "--to", "decimal"),
                     ("convert", "rn:01:r1@-10000000000", "--to", "decimal"),
                     ("eval", "rn:01:r1@-100000000")):
            t0 = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - t0 < 0.5
            assert code == 2 and not out
            assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("field", [
        str(10 ** 308), str(10 ** 309), "9" * 4299, "9" * 4300, "-" + "9" * 4299, "-" + "9" * 4300,
    ], ids=["308", "309", "4299-nines", "4300-nines", "-4299-nines", "-4300-nines"])
    def test_exponent_past_a_float_gets_the_digit_message(self, capsys, field):
        # from 10**309 the exponent has no float: the guard decides in ints;
        # 10**4300 has more digits than Python prints, so the message names
        # the exponent by its bit count
        e, limit = int(field), sys.get_int_max_str_digits()
        lit = f"rn:01:r1@{field}"  # the value 2**(e + 1)
        for argv, exp in ((("convert", lit, "--to", "decimal"), e + 1), (("eval", f"{lit} + {lit}"), e + 2)):
            code, out, err = run(capsys, *argv)
            want = f"error: exact decimal of 2**e with |e| of {exp.bit_length()} bits has more than {limit} digits"
            assert (code, out, err) == (2, "", want)
            assert len(err) < 200 and "set_int_max_str_digits" not in err

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
        (-3, -10 ** 9, ("800fffffffffffff", "800fffffffffffff", "800ffffffffffffe", "800fffffffffffff",
                        "800ffffffffffffe")),
        (3, -10 ** 9, ("0", "1", "0", "0", "1")),
    ])
    def test_huge_exponent_reaches_the_sink_as_a_shift(self, mantissa, exp, words):
        # words in rn, ru, rd, rz, ra; every one is inexact, and the sink's
        # shift path never builds 2**|exp|
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            got = [round_to_format((mantissa, 1, exp), RNF64, mode) for mode in RoundingMode]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t0 < 0.5
        assert peak < 5 << 20
        assert [f"{word:x}" for word, _ in got] == list(words)
        assert all(inexact for _, inexact in got)

    @pytest.mark.parametrize("value, words", [
        ((1, 3 ** 20000, 0), ("0", "1", "0", "0", "1")),
        ((3 ** 20000, 7, 0), ("7ff0000000000000",) * 5),
        ((-3 ** 20000, 7, 0), ("fff0000000000000",) * 5),
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


_WIDE = "rn:" + "01" * 8000 + ":r1@0"  # a 15,998-bit mantissa * 2**1
_DEEP = "rn:01:r0@-5" + "0" * 4299  # lsb -5 * 10**4299; a product's has 4,301 digits
# argvs at the digit limit: under a limit of 0 the first three ended in a
# traceback, ran on or printed 2,000,009 bytes, and at the default limit the
# last three printed Python's text about sys.set_int_max_str_digits
_DIGIT_ARGVS = {
    "exponent": ["convert", f"rn:01:r1@{10 ** 309}", "--to", "decimal"],
    "negative-exponent": ["convert", f"rn:01:r1@-{10 ** 309}", "--to", "decimal"],
    "width": ["convert", "1", "--to", "rn@0,w=2000000"],
    "mantissa": ["convert", _WIDE, "--to", "decimal"],
    "mantissa-sum": ["eval", f"{_WIDE} + {_WIDE}"],
    "lsb-product": ["eval", f"{_DEEP} * {_DEEP}"],
}


class TestDigitRule:
    """Every literal field and printed integer is bounded by one rule: the
    interpreter's digit limit, or 4300 where that limit is 0."""

    @pytest.mark.parametrize("limit", [None, "0"], ids=["default-limit", "limit-0"])
    @pytest.mark.parametrize("name", list(_DIGIT_ARGVS))
    def test_refused_in_a_process_under_either_limit(self, name, limit):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if limit is not None:
            env["PYTHONINTMAXSTRDIGITS"] = limit
        proc = subprocess.run([sys.executable, "-m", "rnarith", *_DIGIT_ARGVS[name]],
                              capture_output=True, text=True, env=env, timeout=5)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "set_int_max_str_digits" not in proc.stderr

    @pytest.mark.parametrize("name, err", [
        ("mantissa", "exact decimal of a 15998-bit mantissa * 2**1 has more than {} digits"),
        ("mantissa-sum", "exact decimal of a 15998-bit mantissa * 2**2 has more than {} digits"),
        ("lsb-product", "lsb exponent has more than {} digits"),
    ], ids=["mantissa", "mantissa-sum", "lsb-product"])
    def test_printer_refusal_names_what_is_too_long(self, capsys, name, err):
        limit = sys.get_int_max_str_digits()
        assert run(capsys, *_DIGIT_ARGVS[name]) == (2, "", f"error: {err.format(limit)}")


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

    @pytest.mark.parametrize("word, first", [
        ("0xb5", "class=normal s=1 e=3(bias 3) hidden=0 f=010 r=1 sig=rn:10010:r1@-3 "
                 "value=-1.625 interval=[-1.6875 ; -1.625]"),
        ("0x01", "class=subnormal s=0 e=0(bias 3) f=000 r=1 sig=rn:0000:r1@-3 "
                 "value=0.03125 interval=[0.015625 ; 0.03125]"),
        ("0x8f", "class=subnormal s=1 e=0(bias 3) f=111 r=1 sig=rn:1111:r1@-3 "
                 "value=0 interval=[-0.015625 ; 0]"),
        ("0x6f", "class=normal s=0 e=6(bias 3) hidden=1 f=111 r=1 sig=rn:01111:r1@-3 "
                 "value=16 interval=[15.5 ; 16]"),
    ])
    def test_value_and_interval_pinned(self, capsys, word, first):
        # negative, subnormal, negative zero value and largest finite words
        code, out, _ = run(capsys, "inspect", f"rnf8:{word}")
        assert code == 0 and out.splitlines()[0] == first

    def test_value_is_the_named_end_and_the_printed_decimal(self, capsys):
        # every rnf8 word and 200 seeded rnf64 words each of a random normal
        # and a zero exponent field: ``value=`` is the interval end that the
        # round bit (the word's bit 0) names, and ``convert --to decimal``
        # prints it; a word with no interval is one that prints nan or inf
        rng = random.Random(40)
        fmt = RNF64
        normal = [(rng.randrange(1, fmt.exp_mask) << fmt.precision) | rng.getrandbits(fmt.precision)
                  for _ in range(200)]
        subnormal = [rng.getrandbits(fmt.precision) for _ in range(200)]
        words = [f"rnf8:{w:#x}" for w in range(256)]
        words += [f"rnf64:{(rng.getrandbits(1) << fmt.sign_shift) | w:#x}" for w in normal + subnormal]
        shown = re.compile(r"value=(\S+) interval=\[(\S+) ; (\S+)\]")
        checked = 0
        for word in words:
            code, out, _ = run(capsys, "inspect", word)
            m = shown.search(out.splitlines()[0])
            code2, decimal, _ = run(capsys, "convert", word, "--to", "decimal")
            assert code == code2 == 0
            if m is None:
                assert decimal in ("nan", "inf", "-inf"), word
                continue
            value, lo, hi = m.groups()
            assert value == (hi if int(word.partition(":")[2], 16) & 1 else lo), word
            assert value == decimal, word
            checked += 1
        assert checked == 256 - 32 + 400  # rnf8 has 32 infinity and NaN words

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
        assert run(capsys, "verify", "paper-examples", "--seed", "1") == (
            2, "", "error: verify takes no option '--seed'")

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


class TestCallsInSequence:
    """No option, default or error may leak from one main() call in a
    process into the next: calls in sequence give what single calls give."""

    def test_calls_in_sequence_match_single_calls(self, capsys):
        expr = "rnf8:0x30 + rnf8:0x01"
        assert run(capsys, "eval", "--mode", "ru", expr) == (0, "rnf8:0x31 inexact sticky=1 (= 1.125)", "")
        assert run(capsys, "eval", expr) == (0, "rnf8:0x30 inexact sticky=1 (= 1)", "")
        target = ("convert", "12", "--to", "rn@0,w=5")
        assert run(capsys, *target, "--prefer-round-bit") == (0, "rn:01011:r1@0", "")
        assert run(capsys, *target) == (0, "rn:01100:r0@0", "")
        bogus = (2, "", "error: --mode must be one of rn, ru, rd, rz, ra, not 'bogus'")
        assert run(capsys, "eval", "--mode", "bogus", expr) == bogus
        assert run(capsys, "eval", expr) == (0, "rnf8:0x30 inexact sticky=1 (= 1)", "")
        ru = (0, "rnf8:0x31 inexact sticky=1 (= 1.125)", "")
        rn = (0, "rnf8:0x30 inexact sticky=1 (= 1)", "")
        target_eq = ("convert", "12", "--to=rn@0,w=5")
        calls = [
            (("eval", expr, "--mode", "ru"), ru),
            (("eval", expr, "--mode=ru"), ru),
            (("eval", expr), rn),
            (("eval", "--mo", "ru", expr), ru),
            (("eval", "--", expr), rn),
            (("eval", "--mode", "ru", expr), ru),
            (("eval", expr, "--mode", "rd"), rn),
            ((*target, "--prefer-round-bit"), (0, "rn:01011:r1@0", "")),
            (target_eq, (0, "rn:01100:r0@0", "")),
            ((*target_eq, "--prefer-round-bit"), (0, "rn:01011:r1@0", "")),
            (target, (0, "rn:01100:r0@0", "")),
            (("convert", "-1.5", "--to", "float:rnf8"), (0, "rnf8:0xb7 exact", "")),
            (("convert", "-1e5", "--to", "decimal"), (2, "", "error: unrecognized operand '-1e5'")),
            (("convert", "1", "--to", "-x"), (2, "", "error: unknown conversion target '-x'")),
            (("eval", "rnf8:0x30 +"), (2, "", "error: expression ends with an operator")),
            (("eval", "-1 + 2"), (2, "", "error: eval operands must be rn: or rnf literals")),
            (("eval", ""), (2, "", "error: empty expression")),
            (("convert", "0.3", "--to", "rn@0,w=5"), (2, "", "error: value is not representable at lsb exponent 0")),
            (("inspect", "rnf8:0x30", "--to", "decimal", "--prefer-round-bit"),
             (2, "", "error: inspect takes no option '--to'")),
            (("inspect", "rnf8:0x30"), (0, "fields: s=0 e=3 f=000 r=0", "")),
            (("verify", "no-such-suite"), (2, "", "error: unknown suite 'no-such-suite'")),
            (("eval", "--mode=ru", expr), ru),
        ]

        def call(argv):
            """Exit code, stdout's last line and stderr's last line."""
            code, out, err = _outcome(main, argv)
            return code, out.strip().rpartition("\n")[2], err.strip().rpartition("\n")[2]

        for _ in range(2):
            for argv, want in calls:
                assert call(argv) == want, argv
            assert run(capsys, "eval", expr, "--mode", "ru", "--mode", "bogus") == bogus
            assert run(capsys, "eval", expr) == rn


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _cli_eval_argvs(monkeypatch, seeds):
    """The argv lists of the benchmark's cli-eval workload, its modules
    loaded from their files: nothing under ``perfbench/`` is changed or put
    on the import path."""
    modules = {}
    for name in ("checks", "workloads"):
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, modules[name])  # workloads does ``import checks``
        spec.loader.exec_module(modules[name])
    return [argv for seed in seeds for argv, _ in modules["workloads"].CliEval(seed).items]


def _outcome(call, argv):
    """Exit code, stdout and stderr of one call, as a user sees them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = call(list(argv))
    return code, out.getvalue(), err.getvalue()


EXPR = "rnf8:0x30 + rnf8:0x01"
# argv forms that argparse once read, or that sat at the edges of the fast
# path that read the common shapes without it, each with the exit code it
# gave then and must give now
HAND_ARGV = [
    ([], 2),
    (["-h"], 0),
    (["eval", "-h"], 0),
    (["convert", "--help"], 0),
    (["inspect", "rnf8:0x30", "-h"], 0),
    (["eval", EXPR, "--mode=ru"], 0),
    (["eval", "--mode=ru", EXPR], 0),
    (["eval", EXPR, "--mo", "ru"], 0),
    (["eval", "--mo", "ru", EXPR], 0),
    (["convert", "1.5", "--t", "decimal"], 0),
    (["convert", "1.5", "--to=decimal"], 0),
    (["convert", "1.5", "--to", "rn@-1,w=4", "--prefer"], 0),
    (["convert", "1.5", "--to", "decimal", "--to", "sd"], 2),
    (["convert", "1.5", "--to", "rn@-1,w=4", "--prefer-round-bit", "--prefer-round-bit"], 0),
    (["eval", EXPR, "--mode", "ru", "--mode", "rd"], 0),
    (["eval", "--mode", "ru", "--mode", "rd", EXPR], 0),
    (["eval", "--mode", "ru", EXPR, "--mode", "rd"], 0),
    (["eval", "--mode", "rx", EXPR], 2),
    (["eval", EXPR, "--mode", "rx"], 2),
    (["eval", EXPR, "--mode", "RU"], 2),
    (["eval", EXPR, "--mode", ""], 2),
    (["eval", EXPR, "--mode"], 2),
    (["eval", "--mode", EXPR], 2),
    (["eval", "--mode", "--mode", "ru"], 2),
    (["eval", "--mode", "ru", "--mode"], 2),
    (["eval", "--", EXPR], 0),
    (["eval", EXPR, "--"], 0),
    (["convert", "-1.5", "--to", "float:rnf8"], 0),
    (["convert", "-.5", "--to", "decimal"], 2),
    (["convert", "-1e5", "--to", "decimal"], 2),
    (["convert", "-1", "--to", "rn@0,w=4", "--prefer-round-bit"], 0),
    (["convert", "-0", "--to", "decimal"], 0),
    (["convert", "-1\n", "--to", "decimal"], 0),  # read less its newline, as a literal is
    (["convert", "-\u0661", "--to", "decimal"], 2),
    (["convert", "1", "--to", "-1"], 2),
    (["convert", "1", "--to", "-x"], 2),
    (["convert", "--to", "decimal", "1.5"], 0),
    (["convert", "1.5", "--prefer-round-bit", "--to", "rn@-1,w=4"], 0),
    (["convert", "1.5", "--to", "decimal", "--prefer-round-bit"], 2),
    (["convert", "1.5", "--to", "decimal", "extra"], 2),
    (["convert", "1.5", "--to"], 2),
    (["convert", "1.5"], 2),
    (["convert", "1.5", "--to", ""], 2),
    (["convert", "", "--to", "decimal"], 2),
    (["eval", ""], 2),
    (["inspect", ""], 2),
    (["eval", "-1 + 2"], 2),
    (["eval", "-"], 2),
    (["eval", "-1"], 2),
    (["eval", EXPR, "extra"], 2),
    (["eval", EXPR, "--to", "decimal"], 2),
    (["eval", "rnf8:0x30 / rnf8:0x00", "--mode", "rz"], 0),
    (["eval"], 2),
    (["inspect"], 2),
    (["convert"], 2),
    (["inspect", "-1"], 2),
    (["inspect", "rnf8:0x30", "rnf8:0x31"], 2),
    (["inspect", "rnf8:0x30", "--to", "decimal", "--prefer-round-bit"], 2),
    (["inspect", "rnf8:0x30", "--to", "decimal"], 2),
    (["convert", "1.5", "--mode", "ru"], 2),
    (["EVAL", EXPR], 2),
    (["frobnicate", "rnf8:0x30"], 2),
    (["verify"], 2),
    (["verify", "no-such-suite", "--width", "x"], 2),
]


def _usage_error(outcome) -> bool:
    """Exit 2 with no stdout and exactly one line, ``error: ...``, on stderr."""
    code, out, err = outcome
    return code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


class TestFastPath:
    """Named for the argv fast path that once read the common shapes beside
    argparse: ``main`` now reads every argv with one reader, and each argv
    keeps the exit code and stdout the two parsers gave it."""

    def test_cli_eval_argvs_match_argparse(self, monkeypatch):
        # the exit codes and stdout of the 4,500 argvs hash as they did
        # when argparse read every usage error among them
        digest, usage_errors = hashlib.sha256(), 0
        for argv in _cli_eval_argvs(monkeypatch, (1, 2, 3)):
            code, out, err = outcome = _outcome(main, argv)
            digest.update(f"{code}\n{out}\0".encode())
            assert code == 0 and not err or _usage_error(outcome), argv
            usage_errors += code == 2
        assert digest.hexdigest() == "3f4b88e9e1c52b5c730915f2d25c7d31c18d53980a65d3d253e4bd62c8d29ab5"
        assert usage_errors > 0

    @pytest.mark.parametrize("argv, code", HAND_ARGV, ids=[repr(argv) for argv, _ in HAND_ARGV])
    def test_hand_argvs_match_argparse(self, argv, code):
        outcome = _outcome(main, argv)
        if code == 2:
            assert _usage_error(outcome)
        else:
            assert outcome[0] == code and not outcome[2]
            assert outcome[1].startswith("usage: rnarith") == ("-h" in argv or "--help" in argv)


class TestArgvReader:
    """Options in any order, as ``--opt VALUE``, ``--opt=VALUE`` or a prefix,
    repeated (the last counts) or after ``--``: one reading for them all."""

    @pytest.mark.parametrize("canonical, alternates", [
        (["eval", EXPR, "--mode", "ru"], [
            ["eval", EXPR, "--mode=ru"], ["eval", EXPR, "--mo", "ru"], ["eval", "--m=ru", EXPR],
            ["eval", "--mode", "ru", EXPR], ["eval", "--mode", "ru", "--", EXPR],
            ["eval", EXPR, "--mode", "rd", "--mode", "ru"], ["eval", "--mode=rz", EXPR, "--mo=ru"],
        ]),
        (["convert", "1.5", "--to", "rn@-1,w=4", "--prefer-round-bit"], [
            ["convert", "--to", "rn@-1,w=4", "--prefer-round-bit", "1.5"],
            ["convert", "1.5", "--t=rn@-1,w=4", "--p"], ["convert", "--to", "rn@-1,w=4", "--p", "--", "1.5"],
            ["convert", "1.5", "--to", "decimal", "--to", "rn@-1,w=4", "--prefer", "--prefer-round-bit"],
        ]),
        (["verify", "fixed-negate", "--width", "5"], [
            ["verify", "--width=5", "fixed-negate"], ["verify", "--w", "5", "--", "fixed-negate"],
            ["verify", "fixed-negate", "--width", "9", "--wid=5"],
        ]),
    ], ids=["eval", "convert", "verify"])
    def test_alternate_spellings_print_the_canonical_stdout(self, canonical, alternates):
        def shown(argv):
            code, out, err = _outcome(main, argv)
            return code, re.sub(r" [0-9.]+$", "", out, flags=re.M), err  # less a verify run's seconds

        want = shown(canonical)
        assert want[0] == 0 and want[1]
        for argv in alternates:
            assert shown(argv) == want, argv


USAGE_ERROR_ARGV = [
    ["eval", "rnf16:0x3c00 + rnf16:0x3c00", "--mode", "rx"],
    ["convert", "1.5"],
    ["frobnicate", "rnf8:0x30"],
    ["convert"],
    ["verify"],
    ["eval", EXPR, "--mode=rx"],
    ["inspect"],
    [],
    ["eval", EXPR, "--mode"],
    ["eval", EXPR, "--bogus", "--mode", "rx", "extra"],
    ["convert", "1.5", "--to", "sd", "--prefer-round-bit=1"],
    ["convert", "1.5", "--to", "decimal", "--", "2.5"],
    ["verify", "fixed-add", "--width", "1_0"],
    ["verify", "fixed-add", "--format", "rnf8"],
    ["--mode", "ru", "eval", EXPR],
]


class TestUsageErrors:
    """``main`` returns 2 on every usage error, with one ``error:`` line."""

    def test_usage_errors_print_one_error_line(self):
        for argv in USAGE_ERROR_ARGV:
            assert _usage_error(_outcome(main, argv)), argv

    @pytest.mark.parametrize("argv", [
        ("convert", "rn:01:r1@" + "9" * 5000, "--to", "decimal"),
        ("convert", "1" * 5000 + "x", "--to", "decimal"),
        ("convert", "1", "--to", "z" * 5000),
        ("verify", "z" * 5000),
        ("eval", "rnf8:0x30 + " + "q" * 5000),
        ("inspect", "rnf8:" + "q" * 5000),
    ], ids=["exponent", "decimal", "target", "suite", "eval-operand", "inspect"])
    def test_long_refusal_is_cut_to_one_bounded_line(self, argv):
        """A refusal echoes its token; past 200 characters the line keeps
        its head and says how many characters it cut."""
        code, out, err = _outcome(main, argv)
        assert _usage_error((code, out, err)) and len(err) - 1 <= 200
        head, _, cut = err.rstrip("\n").rpartition("... (")
        assert head.startswith("error: ") and cut.endswith(" characters cut)")
        assert len(head) + int(cut.split()[0]) > 5000

    def test_error_line_of_200_characters_is_whole(self):
        # "error: unknown suite '" and "'" are 23 characters
        for n, whole in ((177, True), (178, False)):
            _, _, err = _outcome(main, ["verify", "z" * n])
            assert (err == f"error: unknown suite '{'z' * n}'\n") == whole
            assert len(err) - 1 == (200 if whole else 160 + len("... (41 characters cut)"))


class TestLiteralRoundTrips:
    def test_printed_fixed_literals_reparse(self, capsys):
        from rnarith import RnFixed, apply, format_literal, parse_literal

        for text in ("rn:01011:r1@0", "rn:1101001100:r1@2", "rn:10:r0@-7"):
            x = parse_literal(text)
            assert format_literal(x) == text
            zero = RnFixed(0, x.width, 0, x.lsb_exp)
            _, out, _ = run(capsys, "eval", f"{text} + {format_literal(zero)}")
            assert (parse_literal(out.split()[0]), False) == apply("+", x, zero)


# exponents and lsbs of +-10**k: past a float's range from k = 309, and past
# the interpreter's 4,300-digit str() limit as printed decimals at k = 4000
_HUGE = [s * 10 ** k for k in (0, 300, 309, 4000) for s in (1, -1)]


def _extreme_tokens():
    """Fixed and float literals, decimals and convert targets at the edges
    of what each reader takes."""
    fixed = [f"rn:{word}:r{r}@{e}" for word in ("0", "1", "01", "0110") for r in (0, 1) for e in _HUGE]
    floats = []
    for name, fmt in floatfmt.FORMATS.items():
        ones = fmt.low_mask  # fraction and round bit all ones
        sign = 1 << (fmt.total_bits - 1)
        words = (0, sign | ones, 1, sign | 1, fmt.inf_words[0] - 1, fmt.inf_words[1] - 1, *fmt.inf_words,
                 fmt.nan_word, sign | fmt.inf_words[0] | ones)
        floats += [f"{name}:{w:#x}" for w in words]
        floats += [f"{name}:s={s},e={e},f={'1' * fmt.frac_bits},r=1"
                   for s in (0, 1) for e in (0, fmt.exp_mask, 10 ** 309)]
    decimals = ["9" * 700, "-0." + "0" * 699 + "1", "1." + "5" * 700, "0", "-0", *map(str, _HUGE)]
    lsbs = [0, -3, *_HUGE]
    widths = [1, 8, 4000, 10 ** 300, 10 ** 309]
    return fixed, floats, decimals, [f"rn@{lsb},w={w}" for lsb in lsbs for w in widths]


def _extreme_option_argvs():
    """Option tokens at the edges of the argv reader: ``--width`` spellings
    that ``int()`` takes or refuses, empty, unknown and ``=`` values, an
    option with no value, abbreviations, ``--``, and ``-h`` at every
    position."""
    argvs = []
    for width in ("x", "0", "-1", "+3", "1_0", "\u0663", " 3", "", "9" * 5000, str(10 ** 309)):
        argvs += [["verify", "fixed-add", "--width", width], ["verify", f"--width={width}", "fixed-negate"],
                  ["verify", "fixed-negate", "--wi", width]]
    for command, positional, option in (("verify", "float-negate", "format"), ("eval", EXPR, "mode"),
                                        ("convert", "1.5", "to")):
        for value in ("", "=", "=x", "bogus", "rnf8", "ru", "decimal", "-h", "--", "--" + option):
            argvs += [[command, positional, f"--{option}", value], [command, f"--{option}={value}", positional],
                      [command, positional, f"--{option[0]}", value], [command, "--", positional, f"--{option}", value],
                      [command, f"--{option}", value, "--", positional]]
        argvs += [[command, positional, f"--{option}"], [command, f"--{option}"], [command, positional, "--"],
                  [command, "--", "--", positional], [command, positional, "--", "--"], [command, f"--{option}="]]
    for argv in (["eval", EXPR, "--mode", "ru"], ["convert", "1.5", "--to", "rn@-1,w=4", "--prefer-round-bit"],
                 ["verify", "fixed-negate", "--width", "3"], ["inspect", "rnf8:0x30"], ["convert", "--", "1"]):
        argvs += [[*argv[:i], "-h", *argv[i:]] for i in range(len(argv) + 1)]
    return argvs


class TestNoTraceback:
    def test_extreme_tokens_exit_cleanly(self):
        """Every ``eval`` (each op and mode), ``convert`` (each target kind)
        and ``inspect`` of extreme tokens, and every argv of extreme option
        tokens, exits 0, 1 or 2; none ends in a traceback or shows the text
        of an ``int()`` refusal."""
        rng = random.Random(32)
        fixed, floats, decimals, fixed_targets = _extreme_tokens()
        argvs = []
        for _ in range(600):
            kind = rng.choice((fixed, floats))
            a, b = rng.choice(kind), rng.choice(kind)
            if kind is floats and rng.random() < 0.8:  # mostly one format
                b = rng.choice([t for t in floats if t.split(":")[0] == a.split(":")[0]])
            argvs.append(["eval", f"{a} {rng.choice('+-*/')} {b}", "--mode", rng.choice(list(cli._MODES))])
        for value in fixed + floats + decimals:
            for target in ("sd", "decimal", f"float:{rng.choice(list(floatfmt.FORMATS))}",
                           rng.choice(fixed_targets)):
                argvs.append(["convert", value, "--to", target])
            argvs.append(["convert", value, "--to", rng.choice(fixed_targets), "--prefer-round-bit"])
            argvs.append(["inspect", value])
        # a mantissa and a product's lsb exponent past the digit limit
        argvs += [["convert", _WIDE, "--to", "decimal"], ["eval", f"{_WIDE} + {_WIDE}"], ["eval", f"{_DEEP} * {_DEEP}"]]
        unclean = []
        for argv in argvs + _extreme_option_argvs():
            try:
                code, _, err = _outcome(main, argv)
            except Exception as exc:  # what would reach the user as a traceback
                code, err = type(exc).__name__, ""
            if code not in (0, 1, 2) or "int()" in err or "integer string conversion" in err:
                unclean.append((" ".join(argv)[:80], code, err[:80]))
        assert unclean == []


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "rnarith", "convert", "1", "--to", "decimal"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")


def test_import_loads_no_introspection_modules():
    """Import time is the CLI's latency: every ``rnarith`` process pays it
    before its first operation, and ``dataclasses``, ``inspect`` and
    ``typing`` (with the ``ast``, ``dis`` and ``tokenize`` modules they
    bring in) once made up most of it, ``argparse`` most of the rest, and
    then ``fractions`` (with ``decimal`` and ``numbers``) and the verifier.
    Neither the package nor the CLI may load them, nor ``shutil``, which
    argparse's usage lines once needed."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    heavy = {"argparse", "shutil", "dataclasses", "inspect", "typing", "fractions", "decimal", "numbers",
             "rnarith.verify", "rnarith.oracle"}
    code = (f"import sys; sys.path.insert(0, {src!r}); import rnarith, rnarith.cli; "
            f"print(sorted({heavy!r} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


INSPECT_0X35 = ("class=normal s=0 e=3(bias 3) hidden=1 f=010 r=1 sig=rn:01010:r1@-3 value=1.375 "
                "interval=[1.3125 ; 1.375]\nfields: s=0 e=3 f=010 r=1\n")


@pytest.mark.parametrize("argv, out, loads", [
    (["eval", EXPR, "--mode", "ru"], "rnf8:0x31 inexact sticky=1 (= 1.125)\n", []),
    (["inspect", "rnf8:0x35"], INSPECT_0X35, []),
    (["convert", "0.3", "--to", "float:rnf8"], "rnf8:0x13 inexact\n", []),
    (["verify", "paper-examples"], "verify examples pinned\nPASS 1030 0 <s>\n", ["rnarith.verify"]),
    (["eval", EXPR, "--mode=ru"], "rnf8:0x31 inexact sticky=1 (= 1.125)\n", []),
], ids=["eval", "inspect", "convert-decimal", "verify", "argparse-fallback"])
def test_each_command_loads_only_what_it_needs(argv, out, loads):
    """The verifier comes with ``verify``, and ``fractions`` with nothing
    here: a decimal operand reaches the sink as ``(n, 5**f, -f)``, and the
    verifier loads ``fractions`` only to build a value for a failure's text.
    Literals load neither, in every spelling of the options
    (``argparse-fallback`` is an argv that once went to argparse)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); from rnarith.cli import main; code = main({argv!r}); "
            "print(code, sorted({'fractions', 'rnarith.verify'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    stdout = re.sub(r"^(PASS \d+ \d+) \d+\.\d{3}$", r"\1 <s>", proc.stdout, flags=re.M)
    assert (proc.returncode, stdout, proc.stderr) == (0, f"{out}0 {loads}\n", "")


def test_decimal_eval_operand_refused_without_fractions():
    """A decimal ``eval`` operand is refused on its spelling, before its
    digits are read."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); from rnarith.cli import main; "
            "code = main(['eval', '1.5 + 2']); print(code, 'fractions' in sys.modules)")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "2 False\n", "error: eval operands must be rn: or rnf literals\n")


def test_verify_help_names_every_suite(capsys):
    from rnarith.verify import SUITES

    code, out, err = run(capsys, "verify", "-h")
    assert out.startswith("usage: rnarith")
    assert (code, out.splitlines()[-1], err) == (0, f"suites: {', '.join(sorted(SUITES))}", "")


def test_fast_path_call_loads_no_argparse():
    """No argv loads ``argparse`` or ``shutil``, and of the argvs that do not
    run ``verify`` only ``verify -h`` loads the verifier, to list the suites."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "\n".join([
        "import contextlib, io, sys",
        f"sys.path.insert(0, {src!r})",
        "from rnarith.cli import main",
        "def loaded(argvs):",
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):",
        "        codes = [main(argv) for argv in argvs]",
        "    print(codes, sorted({'argparse', 'shutil', 'rnarith.verify'} & set(sys.modules)))",
        f"loaded({[argv for argv, _ in HAND_ARGV if argv[:1] != ['verify']]!r})",
        "loaded([['verify', '-h']])",
        f"loaded({[argv for argv, _ in HAND_ARGV if argv[:1] == ['verify']]!r})",
    ])
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    others = [code for argv, code in HAND_ARGV if argv[:1] != ["verify"]]
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, f"{others} []\n[0] ['rnarith.verify']\n[2, 2] ['rnarith.verify']\n", "")
