"""Command-line surface: convert, eval, inspect and verify.

Exit codes: 0 on success, 1 when a verification sweep fails, 2 on usage or
parse errors.
"""

from __future__ import annotations

import re
import sys

from . import fixed, floatarith as fa
from .core import (
    RnFixed,
    decimal_of,
    digit_limit,
    format_literal,
    int_of_field,
    odd_part,
    parse_literal,
    sd_of_canonical,
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
_FIXED_TARGET_RE = re.compile(r"rn@(-?[0-9]+),w=([0-9]+)")
_MODES = {m.value: m for m in fa.RoundingMode}
_FLOAT_OPS = {"+": fa.fadd_words, "-": fa.fadd_words, "*": fa.fmul_words, "/": fa.fdiv_words}


class CliError(Exception):
    pass


def _parse_operand(text: str) -> RnFixed | RnFloat | str:
    """Classify a token, less its surrounding whitespace (``str.strip()``, as
    the literal readers strip it), as a fixed literal, a float literal or a
    decimal, which stays text until a target needs its value."""
    text = text.strip()
    if text.startswith("rn:"):
        return parse_literal(text)
    if text.startswith("rnf"):
        return parse_float_literal(text)
    if _DECIMAL_RE.fullmatch(text):
        return text
    raise CliError(f"unrecognized operand {text!r}")


def _int_of_digits(digits: str) -> int:
    """The integer of ASCII digits of any length, read by ``int()`` in parts
    no longer than 640 digits, the lowest limit it can be given."""
    if len(digits) <= 640:
        return int(digits)
    half = len(digits) // 2
    return _int_of_digits(digits[:half]) * 10 ** (len(digits) - half) + _int_of_digits(digits[half:])


def _operand_value(op: RnFixed | RnFloat | str) -> tuple[int, int, int]:
    """Exact value of an operand as ``(n, d, k)``, meaning ``n/d * 2**k``:
    ``d`` is 1 for a literal, whose exponent is never expanded into
    ``2**|k|``, and ``5**f`` for a decimal with ``f`` fraction digits."""
    if isinstance(op, RnFixed):
        return op.bits + op.round, 1, op.lsb_exp
    if isinstance(op, RnFloat):
        v = value_of_float(op.fmt, op.word)
        if isinstance(v, FloatClass):
            raise CliError(f"{format_hex_literal(op)} has no finite value")
        return v
    whole, _, frac = op.lstrip("+-").partition(".")
    n = _int_of_digits(whole + frac)
    return -n if op[0] == "-" else n, 5 ** len(frac), -len(frac)


def _value_text(op: RnFixed | RnFloat) -> str:
    """The exact decimal of a literal's value; ``nan``, or ``inf`` of either
    sign, for a float word that has none."""
    v = value_of_float(op.fmt, op.word) if isinstance(op, RnFloat) else _operand_value(op)
    if isinstance(v, FloatClass):
        return "nan" if v is FloatClass.NAN else "inf"
    return decimal_of(v[0], v[2])


def _decimal_text(text: str) -> str:
    """A decimal operand's token spelled as ``decimal_of`` prints: no
    exponent, no needless zeros and no sign on zero, at any length."""
    whole, _, frac = text.lstrip("+-").partition(".")
    whole, frac = whole.lstrip("0") or "0", frac.rstrip("0")
    sign = "-" if text[0] == "-" and (whole != "0" or frac) else ""
    return sign + whole + ("." + frac if frac else "")


# ---------------------------------------------------------------------------
# convert


def _convert_to_fixed(value: tuple[int, int, int], spec: str, prefer_round_bit: bool) -> RnFixed:
    m = _FIXED_TARGET_RE.fullmatch(spec)
    lsb, width = (int_of_field(m[1]), int_of_field(m[2])) if m else (None, None)
    if lsb is None or width is None:  # None past the digit limit
        raise CliError(f"bad fixed-point target {spec!r} (expected rn@<lsb>,w=<width>)")
    if width < 1:
        raise CliError("width must be at least 1")
    # one printed digit per bit: a width past the digit limit is refused before the word is built
    if width > (limit := digit_limit()):
        raise CliError(f"width {width} is more than the {limit}-digit limit on printed integers")
    # decided on the odd mantissa and its exponent, before any shift builds the word
    n, d, k = value
    rest = n % d
    n, k = odd_part(n // d, k)
    if rest or (n and k < lsb):
        raise CliError(f"value is not representable at lsb exponent {lsb}")
    misfit = f"value does not fit {width} bits at lsb exponent {lsb}"
    if n:
        if n.bit_length() + k - lsb > width:  # |value| >= 2**width ulps
            raise CliError(misfit)
        n <<= k - lsb
    # the stored word, the value less its round bit, must be width-bit two's
    # complement
    bits, r = (n - 1, 1) if prefer_round_bit else (n, 0)
    if not -(1 << (width - 1)) <= bits < 1 << (width - 1):
        raise CliError(misfit)
    return RnFixed(bits, width, r, lsb)


def cmd_convert(value: str, options: dict) -> int:
    target, prefer_round_bit = options["to"], options["prefer-round-bit"]
    if target is None:
        raise CliError("convert needs --to TARGET")
    operand = _parse_operand(value)
    if prefer_round_bit and not target.startswith("rn@"):
        raise CliError("--prefer-round-bit applies only to an rn@<lsb>,w=<width> target")
    if target == "sd":
        if not isinstance(operand, RnFixed):
            raise CliError("signed-digit output needs a fixed-point literal")
        digits = sd_of_canonical(2 * operand.bits + operand.round, operand.width)
        print(" ".join(map(str, digits)).lstrip("0 ") or "0")  # only the digit 0 starts with 0
        return 0
    if target == "decimal":
        if isinstance(operand, str):  # a decimal
            print(_decimal_text(operand))
            return 0
        text = _value_text(operand)
        print("-inf" if text == "inf" and decode(operand.fmt, operand.word)[1] else text)
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
        out = _convert_to_fixed(_operand_value(operand), target, prefer_round_bit)
        print(format_literal(out))
        return 0
    raise CliError(f"unknown conversion target {target!r}")


# ---------------------------------------------------------------------------
# eval


def _operand(tokens: list[str], i: int) -> RnFixed | RnFloat:
    if i >= len(tokens):
        raise CliError("expression ends with an operator")
    if _DECIMAL_RE.fullmatch(tokens[i]):
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


def cmd_eval(expr: str, options: dict) -> int:
    mode = _MODES.get(options["mode"])
    if mode is None:
        raise CliError(f"--mode must be one of {', '.join(_MODES)}, not {options['mode']!r}")
    result, inexact = _evaluate(expr.split(), mode)
    tag = "inexact" if inexact else "exact"
    if isinstance(result, RnFixed):
        print(f"{format_literal(result)} {tag} (= {_value_text(result)})")
    else:
        print(f"{format_hex_literal(result)} {tag} sticky={int(inexact)} (= {_value_text(result)})")
    return 0


# ---------------------------------------------------------------------------
# inspect


def cmd_inspect(value: str, options: dict) -> int:
    f = parse_float_literal(value)
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
        lo, hi = decimal_of(x, h), decimal_of(x + 1, h)
        # the value is the interval end that the round bit names
        pieces.append(f"value={hi if x & 1 else lo} interval=[{lo} ; {hi}]")
    print(" ".join(pieces))
    print(f"fields: {format_fields(u)}")
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(suite: str, options: dict) -> int:
    from .verify import SUITES  # loaded by the command, not by importing the CLI
    run = SUITES.get(suite)
    if run is None:
        raise CliError(f"unknown suite {suite!r}")
    # a fixed-* suite takes --width, a float-* suite --format
    width, name, kwargs = options["width"], options["format"], {}
    if width is not None:
        if not suite.startswith("fixed-"):
            raise CliError(f"suite {suite!r} takes no --width")
        n = int_of_field(width) if width.isascii() and width.isdigit() else 0
        if n is None:
            raise CliError(f"--width has more than the {digit_limit()}-digit limit on integers")
        if n < 1:
            raise CliError(f"--width must be at least 1, not {width}")
        kwargs["width"] = n
    if name is not None:
        if not suite.startswith("float-"):
            raise CliError(f"suite {suite!r} takes no --format")
        if name not in FORMATS:
            raise CliError(f"unknown format {name!r}")
        kwargs["fmt"] = FORMATS[name]
    reports = run(**kwargs)
    failed = False
    for rep in reports:
        print(rep.to_text())
        failed |= not rep.passed
    return 1 if failed else 0


# ---------------------------------------------------------------------------


# each command: its function, the name of its one positional, and its
# options with their defaults, where a default of False marks a flag
_COMMANDS = {
    "convert": (cmd_convert, "VALUE", {"to": None, "prefer-round-bit": False}),
    "eval": (cmd_eval, "EXPR", {"mode": "rn"}),
    "inspect": (cmd_inspect, "VALUE", {}),
    "verify": (cmd_verify, "SUITE", {"width": None, "format": None}),
}

_USAGE = f"""\
usage: rnarith convert VALUE --to TARGET [--prefer-round-bit]
       rnarith eval EXPR [--mode MODE]
       rnarith inspect VALUE
       rnarith verify SUITE [--width N] [--format NAME]

VALUE is an rn: literal, an rnf literal or a decimal; TARGET is sd, decimal,
float:<format> or rn@<lsb>,w=<width>; EXPR is literals and + - * / split by
spaces; MODE is one of {", ".join(_MODES)} (default rn). The fixed-* suites
take --width, the float-* suites --format. Options come in any order, as
--opt VALUE, --opt=VALUE or a unique prefix of --opt; -- ends them."""


def cmd_help(command: str | None, options: dict) -> int:
    print(_USAGE)
    if command == "verify":
        from .verify import SUITES  # only verify's help lists the suites
        print(f"suites: {', '.join(sorted(SUITES))}")
    return 0


def _read_argv(argv: list[str]) -> tuple:
    """The function, positional and options that ``argv`` asks for, or
    ``cmd_help`` where ``-h`` or a prefix of ``--help`` stands in place of
    an option.  An option is its name or a prefix that no other option
    name of the command starts with.  A usage error raises ``CliError``:
    with no help asked for, the first one found."""
    command = argv[0] if argv else ""
    if command in ("-h", "--help"):
        return cmd_help, None, {}
    if command not in _COMMANDS:
        raise CliError(f"expected a command, one of {', '.join(_COMMANDS)}, not {command!r}")
    func, positional, defaults = _COMMANDS[command]
    tokens, options, values, error = iter(argv[1:]), dict(defaults), [], None
    for token in tokens:
        if token == "--":
            values += tokens
            break
        if token == "-h":
            return cmd_help, command, {}
        if not token.startswith("--"):
            values.append(token)
            continue
        key, eq, value = token[2:].partition("=")
        names = [key] if key in defaults else [n for n in (*defaults, "help") if n.startswith(key)] if key else []
        name = names[0] if len(names) == 1 else None
        if name is None:
            error = error or f"{command} takes no option {token!r}"
        elif name == "help":
            return cmd_help, command, {}
        elif defaults[name] is False:
            options[name] = True
            if eq:
                error = error or f"--{name} takes no value"
        else:
            options[name] = value if eq else next(tokens, None)
            if options[name] is None:
                error = error or f"--{name} needs a value"
    if error is None and len(values) != 1:
        error = f"{command} takes one {positional}, got {len(values)}"
    if error:
        raise CliError(error)
    return func, values[0], options


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code, a usage error's too."""
    try:
        func, positional, options = _read_argv(sys.argv[1:] if argv is None else argv)
        return func(positional, options)
    except (CliError, ValueError, ZeroDivisionError) as exc:
        line = f"error: {exc}"
        if len(line) > 200:  # a refusal echoes its token: a long one keeps its head
            line = f"{line[:160]}... ({len(line) - 160} characters cut)"
        print(line, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
