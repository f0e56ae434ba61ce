"""Command-line surface: convert, eval, inspect and verify.

Exit codes: 0 on success, 1 when a verification sweep fails, 2 on usage or
parse errors.
"""

from __future__ import annotations

import functools
import re
import sys
from types import SimpleNamespace

from . import fixed, floatarith as fa
from .core import (
    DyadicRational,
    RnFixed,
    format_literal,
    parse_literal,
    sd_of_canonical,
    value_of,
)
from .floatfmt import (
    FORMATS,
    FloatClass,
    RnFloat,
    decode,
    float_negate,
    format_fields,
    format_hex_literal,
    parse_float_literal,
    unpack,
    value_of_float,
)

_DECIMAL_RE = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?")
_FLOAT_PREFIX_RE = re.compile(r"^rnf\d+:")
_FIXED_TARGET_RE = re.compile(r"rn@(-?[0-9]+),w=([0-9]+)")
_MODES = {m.value: m for m in fa.RoundingMode}
_FLOAT_OPS = {"+": fa.fadd_words, "-": fa.fadd_words, "*": fa.fmul_words, "/": fa.fdiv_words}


class CliError(Exception):
    pass


def _parse_operand(text: str):
    """Classify a token as a fixed literal, a float literal or a decimal."""
    if text.startswith("rn:"):
        return parse_literal(text)
    if _FLOAT_PREFIX_RE.match(text):
        return parse_float_literal(text)
    if _DECIMAL_RE.fullmatch(text):
        from fractions import Fraction  # only a decimal operand loads it
        whole, _, frac = text.lstrip("+-").partition(".")
        n = _int_of_digits(whole + frac)
        return Fraction(-n if text[0] == "-" else n, 10 ** len(frac))
    raise CliError(f"unrecognized operand {text!r}")


def _int_of_digits(digits: str) -> int:
    """The integer of ASCII digits of any length, read by ``int()`` in parts
    no longer than 640 digits, the lowest limit it can be given."""
    if len(digits) <= 640:
        return int(digits)
    half = len(digits) // 2
    return _int_of_digits(digits[:half]) * 10 ** (len(digits) - half) + _int_of_digits(digits[half:])


def _operand_value(op) -> DyadicRational | Fraction:
    """Exact value of an operand: dyadic for literals and for decimals whose
    denominator is a power of two (never expanded to ``2**|exp|``), a
    Fraction for any other decimal."""
    if isinstance(op, RnFixed):
        return value_of(op)
    if isinstance(op, RnFloat):
        v = value_of_float(op.fmt, op.word)
        if isinstance(v, FloatClass):
            raise CliError(f"{format_hex_literal(op)} has no finite value")
        return v
    den = op.denominator
    if den & (den - 1):
        return op
    return DyadicRational(op.numerator, 1 - den.bit_length())


def _decimal_text(text: str) -> str:
    """A decimal operand's token spelled as ``DyadicRational`` prints: no
    exponent, no needless zeros and no sign on zero, at any length."""
    whole, _, frac = text.lstrip("+-").partition(".")
    whole, frac = whole.lstrip("0") or "0", frac.rstrip("0")
    sign = "-" if text[0] == "-" and (whole != "0" or frac) else ""
    return sign + whole + ("." + frac if frac else "")


# ---------------------------------------------------------------------------
# convert


def _convert_to_fixed(value: DyadicRational | Fraction, spec: str, prefer_round_bit: bool) -> RnFixed:
    bad = f"bad fixed-point target {spec!r} (expected rn@<lsb>,w=<width>)"
    m = _FIXED_TARGET_RE.fullmatch(spec)
    if m is None:
        raise CliError(bad)
    try:
        lsb, width = int(m.group(1)), int(m.group(2))
    except ValueError:  # more digits than the interpreter's int() limit
        raise CliError(bad) from None
    if width < 1:
        raise CliError("width must be at least 1")
    # the literal has one digit per bit: a width past the interpreter's digit
    # limit is refused, as a decimal would be, before the word is built
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and width > limit:
        raise CliError(f"width {width} is more than the {limit}-digit limit on printed integers")
    # decided on mantissa and exponent, before any shift builds the word
    n = value.mantissa if isinstance(value, DyadicRational) else None
    if n is None or (n and value.exp < lsb):
        raise CliError(f"value is not representable at lsb exponent {lsb}")
    misfit = f"value does not fit {width} bits at lsb exponent {lsb}"
    if n:
        if n.bit_length() + value.exp - lsb > width:  # |value| >= 2**width ulps
            raise CliError(misfit)
        n <<= value.exp - lsb
    # the stored word, the value less its round bit, must be width-bit two's
    # complement
    bits, r = (n - 1, 1) if prefer_round_bit else (n, 0)
    if not -(1 << (width - 1)) <= bits < 1 << (width - 1):
        raise CliError(misfit)
    return RnFixed(bits, width, r, lsb)


def cmd_convert(args) -> int:
    operand = _parse_operand(args.value)
    target = args.to
    if args.prefer_round_bit and not target.startswith("rn@"):
        raise CliError("--prefer-round-bit applies only to an rn@<lsb>,w=<width> target")
    if target == "sd":
        if not isinstance(operand, RnFixed):
            raise CliError("signed-digit output needs a fixed-point literal")
        digits = list(sd_of_canonical(2 * operand.bits + operand.round, operand.width))
        while len(digits) > 1 and digits[0] == 0:
            digits.pop(0)
        print(" ".join(str(d) for d in digits))
        return 0
    if target == "decimal":
        if not isinstance(operand, (RnFixed, RnFloat)):  # a decimal
            print(_decimal_text(args.value))
            return 0
        v = value_of_float(operand.fmt, operand.word) if isinstance(operand, RnFloat) else value_of(operand)
        if isinstance(v, FloatClass):
            print("nan" if v is FloatClass.NAN else ("-inf" if decode(operand.fmt, operand.word)[1] else "inf"))
        else:
            print(v)
        return 0
    if target.startswith("float:"):
        name = target.split(":", 1)[1]
        if name not in FORMATS:
            raise CliError(f"unknown format {name!r}")
        fmt = FORMATS[name]
        word, inexact = fa.round_to_format(_operand_value(operand), fmt)
        print(f"{format_hex_literal(RnFloat(fmt, word))} {'inexact' if inexact else 'exact'}")
        return 0
    if target.startswith("rn@"):
        out = _convert_to_fixed(_operand_value(operand), target, args.prefer_round_bit)
        print(format_literal(out))
        return 0
    raise CliError(f"unknown conversion target {target!r}")


# ---------------------------------------------------------------------------
# eval


def _operand(tokens: list[str], i: int) -> RnFixed | RnFloat:
    if i >= len(tokens):
        raise CliError("expression ends with an operator")
    if _DECIMAL_RE.fullmatch(tokens[i]):  # refused before a Fraction is built
        raise CliError("eval operands must be rn: or rnf literals")
    return _parse_operand(tokens[i])


def _apply(op: str, a, b, mode: fa.RoundingMode) -> tuple[RnFixed | RnFloat, bool]:
    """``a op b`` and whether it is inexact."""
    if isinstance(a, RnFixed) != isinstance(b, RnFixed):
        raise CliError("cannot mix fixed-point and floating-point operands")
    if isinstance(a, RnFixed):
        return fixed.apply(op, a, b)
    # the word ops compare no formats, so this is the only guard; literals
    # carry the FORMATS singletons, so identity decides
    if a.fmt is not b.fmt:
        raise CliError("operands use different formats")
    wb = float_negate(b.fmt, b.word) if op == "-" else b.word
    word, inexact = _FLOAT_OPS[op](a.fmt, a.word, wb, mode)
    return RnFloat(a.fmt, word), inexact


def _evaluate(tokens: list[str], mode: fa.RoundingMode) -> tuple[RnFixed | RnFloat, bool]:
    """Left-to-right evaluation with * and / binding tighter than + and -:
    the value and whether any step was inexact.

    ``term`` is the product being built.  A ``+``, a ``-``, any other token
    or the end closes it into ``total`` under the pending ``+`` or ``-``,
    before the next token is judged or the next operand read."""
    if not tokens:
        raise CliError("empty expression")
    total = pending = None
    term, inexact = _operand(tokens, 0), False
    for i in range(1, len(tokens) + 1, 2):  # operator positions, then the end
        op = tokens[i] if i < len(tokens) else None
        if op == "*" or op == "/":
            term, step = _apply(op, term, _operand(tokens, i + 1), mode)
            inexact |= step
            continue
        if pending:
            term, step = _apply(pending, total, term, mode)
            inexact |= step
        if op is None:
            break
        if op not in ("+", "-"):
            raise CliError(f"expected an operator, got {op!r}")
        total, pending, term = term, op, _operand(tokens, i + 1)
    return term, inexact


def cmd_eval(args) -> int:
    result, inexact = _evaluate(args.expr.split(), _MODES[args.mode])
    tag = "inexact" if inexact else "exact"
    if isinstance(result, RnFixed):
        print(f"{format_literal(result)} {tag} (= {value_of(result)})")
        return 0
    v = value_of_float(result.fmt, result.word)
    shown = v if isinstance(v, DyadicRational) else ("nan" if v is FloatClass.NAN else "inf")
    print(f"{format_hex_literal(result)} {tag} sticky={int(inexact)} (= {shown})")
    return 0


# ---------------------------------------------------------------------------
# inspect


def cmd_inspect(args) -> int:
    f = parse_float_literal(args.value)
    fmt = f.fmt
    u = unpack(fmt, f.word)
    _, _, x, scale = decode(fmt, f.word)
    pieces = [f"class={u.cls.value}", f"s={u.sign}", f"e={u.biased_exp}(bias {fmt.bias})"]
    if u.cls is FloatClass.NORMAL:
        pieces.append(f"hidden={1 - u.sign}")
    pieces.append(f"f={u.frac:0{fmt.frac_bits}b}")
    pieces.append(f"r={u.significand.round}")
    if u.cls in (FloatClass.NORMAL, FloatClass.SUBNORMAL, FloatClass.ZERO):
        pieces.append(f"sig={format_literal(u.significand)}")
        h = scale - fmt.precision  # the exponent of half the word's ulp
        pieces.append(f"value={DyadicRational((x + 1) >> 1, h + 1)}")
        pieces.append(f"interval=[{DyadicRational(x, h)} ; {DyadicRational(x + 1, h)}]")
    print(" ".join(pieces))
    print(f"fields: {format_fields(u)}")
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    from .verify import SUITES  # loaded by the command, not by importing the CLI
    run = SUITES.get(args.suite)
    if run is None:
        raise CliError(f"unknown suite {args.suite!r}")
    code = run.__code__  # each suite is a lambda; its parameters are the options it takes
    takes = code.co_varnames[:code.co_argcount]
    kwargs = {}
    if args.width is not None:
        if "width" not in takes:
            raise CliError(f"suite {args.suite!r} takes no --width")
        if args.width < 1:
            raise CliError(f"--width must be at least 1, not {args.width}")
        kwargs["width"] = args.width
    if args.format is not None:
        if "fmt" not in takes:
            raise CliError(f"suite {args.suite!r} takes no --format")
        if args.format not in FORMATS:
            raise CliError(f"unknown format {args.format!r}")
        kwargs["fmt"] = FORMATS[args.format]
    reports = run(**kwargs)
    failed = False
    for rep in reports:
        print(rep.to_text())
        failed |= not rep.passed
    return 1 if failed else 0


# ---------------------------------------------------------------------------


# argparse's own negative-number pattern (CPython 3.11 Lib/argparse.py,
# ArgumentParser._negative_number_matcher): no option here looks like one, so
# argparse reads a token starting with "-" as a positional only if it matches
_NEGATIVE_NUMBER = re.compile(r'^-\d+$|^-\d*\.\d+$').match


def _positional(token: str) -> bool:
    """Whether argparse reads a nonempty ``token`` as a positional."""
    return token != "" and (token[0] != "-" or _NEGATIVE_NUMBER(token) is not None)


def _fast_args(argv) -> SimpleNamespace | None:
    """The namespace argparse gives an argv of one of the common shapes,
    ``eval EXPR``, ``eval EXPR --mode M``, ``convert V --to T`` and
    ``inspect V``, read without it; None for any other argv (help,
    ``verify``, ``--opt=value``, abbreviations, ``--``, any error)."""
    n = len(argv)
    command = argv[0] if n else None
    if command == "eval" and (n == 2 or n == 4 and argv[2] == "--mode"):
        mode = argv[3] if n == 4 else "rn"
        if mode in _MODES and _positional(argv[1]):
            return SimpleNamespace(func=cmd_eval, expr=argv[1], mode=mode)
    elif command == "convert" and n == 4 and argv[2] == "--to" and _positional(argv[1]) and _positional(argv[3]):
        return SimpleNamespace(func=cmd_convert, value=argv[1], to=argv[3], prefer_round_bit=False)
    elif command == "inspect" and n == 2 and _positional(argv[1]):
        return SimpleNamespace(func=cmd_inspect, value=argv[1])
    return None


@functools.cache
def _build_parser():
    """Built on the first argv that ``_fast_args`` declines, not at import,
    and shared by every later one: ``parse_args`` writes only to a fresh
    namespace."""
    import argparse  # so an argv on the fast path never loads it
    import shutil
    from .verify import SUITES  # for the verify help, which lists the suites

    class Parser(argparse.ArgumentParser):
        """Formats each usage line once per terminal width, the one input of
        argparse's ``HelpFormatter`` that can change after a parser is built;
        ``add_subparsers`` gives the subparsers this class too."""

        @functools.cache
        def _usage(self, columns):  # columns only keys the cache
            return super().format_usage()

        def format_usage(self):
            return self._usage(shutil.get_terminal_size().columns)

    parser = Parser(
        prog="rnarith",
        description="Round-to-nearest-by-truncation arithmetic toolbox.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert between representations")
    p.add_argument("value", help="rn: literal, rnf literal, or decimal")
    p.add_argument("--to", required=True, help="sd | canonical target rn@<lsb>,w=<width> | float:<fmt> | decimal")
    p.add_argument(
        "--prefer-round-bit",
        action="store_true",
        help="emit the round-bit-set spelling of exactly representable values",
    )
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("eval", help="evaluate an infix expression over literals")
    p.add_argument("expr", help="whitespace-separated literals and + - * /")
    p.add_argument("--mode", choices=sorted(_MODES), default="rn", help="rounding mode for float ops")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect", help="break a float word into fields")
    p.add_argument("value", help="rnf literal, e.g. rnf8:0x30")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("verify", help="run a verification sweep")
    p.add_argument("suite", help=f"one of: {', '.join(sorted(SUITES))}")
    p.add_argument("--width", type=int, default=None, help="fixed-point width (or p for fixed-div)")
    p.add_argument("--format", default=None, help="float format name, e.g. rnf8")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_args(argv) or _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
