"""The four benchmark workloads.

Each workload generates its inputs from a seed (set-up), runs timed passes
over them as a closed loop (each call starts when the previous one
returned), and checks every distinct output after timing.  A pass runs every
active item once; the first pass's outputs are checked against the contract
and every later pass must reproduce them exactly.

Why these four: ``float-ops-wide`` is the library user's path (float
arithmetic on packed words); ``verify-rnf8`` drives the same float code with
narrow words and every special class, with the Fraction oracle doing about
half the work; ``fixed-exact`` runs only the fixed-point layer and must not
move when float code changes; ``cli-eval`` is dominated by argument parsing
and literal parse/format code that the other three never reach.
"""

from __future__ import annotations

import hashlib
import io
import random
import re
import sys
import time
from fractions import Fraction

import rnarith.cli as cli
import rnarith.floatarith as fa
import rnarith.verify as verify
from rnarith.floatfmt import RNF8, RNF16, RNF32, RNF64, FloatFormat, RnFloat

import checks

FLOAT_FORMATS = (RNF16, RNF32, RNF64)
FLOAT_OPS = ("add", "mul", "div")
_MODE_ENUM = {m.value: m for m in fa.RoundingMode}


# ---------------------------------------------------------------------------
# edge-biased operand generation (raw fields only)


def _assemble(fmt, s: int, e: int, f: int, r: int) -> int:
    return (s << (fmt.total_bits - 1)) | (e << fmt.precision) | (f << 1) | r


def _fraction(rng: random.Random, fmt) -> int:
    ones = (1 << fmt.frac_bits) - 1
    u = rng.random()
    if u < 0.25:
        return ones
    if u < 0.35:
        return 0
    if u < 0.45:
        return 1 << rng.randrange(fmt.frac_bits)
    return rng.getrandbits(fmt.frac_bits)


def _normal_exp(rng: random.Random, fmt) -> int:
    u = rng.random()
    top = fmt.exp_mask - 1
    if u < 0.3:
        return rng.choice((1, 2, top - 1, top))
    if u < 0.4:
        return fmt.bias + rng.randint(-2, 2)
    return rng.randint(1, top)


def gen_word(rng: random.Random, fmt) -> int:
    """One operand word: zeros (both spellings), infinities, NaNs,
    subnormals and normals with exponent extremes and all-ones fractions."""
    s = rng.getrandbits(1)
    ones = (1 << fmt.frac_bits) - 1
    u = rng.random()
    if u < 0.04:
        return 0
    if u < 0.06:
        return _assemble(fmt, 1, 0, ones, 1)  # zero-valued subnormal spelling
    if u < 0.09:
        return _assemble(fmt, s, fmt.exp_mask, 0, 0)
    if u < 0.12:
        f, r = rng.getrandbits(fmt.frac_bits), rng.getrandbits(1)
        return _assemble(fmt, s, fmt.exp_mask, f, r or (f == 0))
    if u < 0.24:
        return _assemble(fmt, s, 0, _fraction(rng, fmt), rng.getrandbits(1))
    return _assemble(fmt, s, _normal_exp(rng, fmt), _fraction(rng, fmt), rng.getrandbits(1))


def gen_pair(rng: random.Random, fmt) -> tuple[int, int]:
    """Independent pairs, pairs at a chosen exponent gap (up to far beyond
    the precision) and near-cancelling pairs."""
    wa = gen_word(rng, fmt)
    u = rng.random()
    cls = checks.word_class(fmt, wa)
    if u < 0.5 or cls in ("nan", "inf", "zero"):
        return wa, gen_word(rng, fmt)
    p = fmt.precision
    _, ea, fa_, ra = checks.fields(fmt, wa)
    if u < 0.8 or cls != "normal":
        gap = rng.choice((0, 1, rng.randint(2, p), rng.randint(p + 1, p + 3),
                          rng.randint(2 * p, 4 * p)))
        eb = ea + gap if rng.getrandbits(1) else ea - gap
        eb = min(max(eb, 1), fmt.exp_mask - 1)
        return wa, _assemble(fmt, rng.getrandbits(1), eb, _fraction(rng, fmt), rng.getrandbits(1))
    # near-cancellation: complement of a (its exact negation), nudged
    ones = (1 << fmt.frac_bits) - 1
    sa = checks.fields(fmt, wa)[0]
    fb = min(max((fa_ ^ ones) + rng.randint(-3, 3), 0), ones)
    return wa, _assemble(fmt, 1 - sa, ea, fb, (1 - ra) ^ (rng.random() < 0.3))


def gap_bucket(fmt, wa: int, wb: int) -> str:
    if "normal" not in (checks.word_class(fmt, wa), checks.word_class(fmt, wb)):
        return "n/a"
    if checks.float_value(fmt, wa) == 0 or checks.float_value(fmt, wb) == 0:
        return "n/a"
    d = abs(checks.scale_of(fmt, wa) - checks.scale_of(fmt, wb))
    p = fmt.precision
    if d <= 1:
        return str(d)
    if d <= p:
        return "2..p"
    return "p+1..2p" if d <= 2 * p else ">2p"


def _count(mix: dict, key: str) -> None:
    mix[key] = mix.get(key, 0) + 1


# ---------------------------------------------------------------------------
# common driver


class Workload:
    """Items, their outputs and the bookkeeping shared by all workloads.

    Subclasses fill ``items`` in ``__init__`` and implement ``class_mix``,
    ``bind``, ``run_pass``, ``check_item`` and ``digest_of``.
    """

    name = ""
    trace_items = 0  # items in the traced pass; 0 means all

    def __init__(self) -> None:
        self.items: list = []
        self.n = 0
        self.first: list | None = None
        self.out: list = []
        self.passes = 0
        self.mismatch_ops = 0

    def restrict(self, count: int) -> None:
        self.n = min(count, len(self.items)) if count else len(self.items)

    def start(self) -> None:
        self.out = [None] * self.n
        self.first = None
        self.passes = 0
        self.mismatch_ops = 0

    def after_pass(self) -> None:
        self.passes += 1
        if self.first is None:
            self.first = list(self.out)
            return
        for i, (got, want) in enumerate(zip(self.out, self.first)):
            if got != want:
                self.mismatch_ops += self.ops_of(i, want)

    def ops_of(self, i: int, output) -> int:
        return 1

    def failed_ops(self, i: int, output) -> int:
        """Ops of a failed item that count as failed."""
        return 1

    def check(self) -> tuple[int, list[str]]:
        """Failed ops over all passes, and the first few reasons."""
        bad = 0
        reasons: list[str] = []
        for i, output in enumerate(self.first):
            why = self.check_item(i, output)
            if why is not None:
                bad += self.failed_ops(i, output)
                if len(reasons) < 5:
                    reasons.append(f"{self.describe(i)}: {why}")
        return bad * self.passes + self.mismatch_ops, reasons

    def describe(self, i: int) -> str:
        return f"item {i}"

    def digest(self) -> str:
        h = hashlib.sha256()
        for i, output in enumerate(self.first):
            h.update(self.digest_of(i, output).encode())
            h.update(b"\n")
        return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# float-ops-wide


class FloatOpsWide(Workload):
    """fadd/fmul/fdiv over rnf16/32/64 in all five modes, one call per op."""

    name = "float-ops-wide"
    trace_items = 3000

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__()
        rng = random.Random(seed)
        # every (format, op, mode) cell equally often, so seeds differ only
        # in operands and order
        cells = [(f, op, m) for f in FLOAT_FORMATS for op in range(3) for m in checks.MODES]
        for i in range(len(cells) * (2 if small else 445)):
            fmt, op, mode = cells[i % len(cells)]
            wa, wb = gen_pair(rng, fmt)
            self.items.append((op, RnFloat(fmt, wa), RnFloat(fmt, wb), _MODE_ENUM[mode]))
        rng.shuffle(self.items)
        self.restrict(0)

    def class_mix(self) -> dict[str, int]:
        mix: dict[str, int] = {}
        for op, a, b, mode in self.items[: self.n]:
            fmt = a.fmt
            _count(mix, f"op.{FLOAT_OPS[op]}")
            _count(mix, f"format.{fmt.name}")
            _count(mix, f"mode.{mode.value}")
            _count(mix, f"a.{checks.word_class(fmt, a.word)}")
            _count(mix, f"b.{checks.word_class(fmt, b.word)}")
            _count(mix, f"gap.{gap_bucket(fmt, a.word, b.word)}")
        return mix

    def bind(self) -> None:
        fns = (fa.fadd_with_sticky, fa.fmul_with_sticky, fa.fdiv_with_sticky)
        self.calls = [(fns[op], a, b, m) for op, a, b, m in self.items[: self.n]]

    def run_pass(self, lat) -> int:
        pc = lat.clock
        out = self.out
        for i, (f, a, b, m) in enumerate(self.calls):
            t = pc()
            r = f(a, b, m)
            lat.add(pc() - t)
            out[i] = r
        return len(out)

    def after_pass(self) -> None:
        self.out = [(r.word, s.nonzero) for r, s in self.out]
        super().after_pass()
        self.out = [None] * self.n

    def check_item(self, i: int, output):
        op, a, b, mode = self.items[i]
        word, inexact = output
        return checks.check_float_op(a.fmt, FLOAT_OPS[op], a.word, b.word, mode.value, word, inexact)

    def describe(self, i: int) -> str:
        op, a, b, mode = self.items[i]
        return f"{FLOAT_OPS[op]} {a.fmt.name} {a.word:#x},{b.word:#x} {mode.value}"

    def digest_of(self, i: int, output) -> str:
        return f"{output[0]:x}:{int(output[1])}"

    def plant_fault(self) -> None:
        """Flip the round bit of the first exact, normal, nearest-mode
        result, so the check must count one wrong output."""
        for i, (word, inexact) in enumerate(self.first):
            op, a, b, mode = self.items[i]
            if mode.value == "rn" and not inexact and checks.word_class(a.fmt, word) == "normal":
                self.first[i] = (word ^ 1, inexact)
                return
        raise RuntimeError("no result to plant a fault in")


# ---------------------------------------------------------------------------
# sweep workloads


class SweepWorkload(Workload):
    """Whole verification sweeps; an op is one checked case.

    The seed shuffles the order of the sweep calls in a pass.  A latency
    sample is one sweep call's time divided by its case count, weighted by
    that count, so percentiles are over cases.
    """

    plan: tuple = ()

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__()
        self.items = list(self.small_plan if small else self.plan)
        self.order = list(range(len(self.items)))
        random.Random(seed).shuffle(self.order)
        self.restrict(0)

    def class_mix(self) -> dict[str, int]:
        return {f"sweep.{label}": expected for label, _, _, expected in self.items[: self.n]}

    def bind(self) -> None:
        self.fns = [getattr(verify, fn) for _, fn, _, _ in self.items[: self.n]]

    def run_pass(self, lat) -> int:
        pc = lat.clock
        ops = 0
        for i in self.order:
            if i >= self.n:
                continue
            args = self.items[i][2]
            t_real = time.perf_counter_ns()
            t = pc()
            rep = self.fns[i](*args)
            dt = pc() - t
            lat.add_weighted(dt / max(rep.cases, 1), rep.cases, t_real, time.perf_counter_ns())
            ops += rep.cases
            self.out[i] = (rep.cases, tuple(rep.failures))
        return ops

    def ops_of(self, i: int, output) -> int:
        return output[0]

    def check_item(self, i: int, output):
        cases, failures = output
        expected = self.items[i][3]
        if cases != expected:
            return f"{cases} cases, expected {expected}"
        if failures:
            return f"{len(failures)} failures, first {failures[0]}"
        return None

    def failed_ops(self, i: int, output) -> int:
        cases, failures = output
        expected = self.items[i][3]
        return max(cases, expected) if cases != expected else len(failures)

    def describe(self, i: int) -> str:
        return self.items[i][0]

    def digest_of(self, i: int, output) -> str:
        return f"{self.items[i][0]}:{output[0]}:{len(output[1])}"


def _rnf8_plan(fmt) -> tuple:
    """Case counts from raw fields: nearest sweeps check every pair (for div,
    every pair with a nonzero divisor); directed sweeps check finite pairs
    in four modes."""
    n = 1 << fmt.total_bits
    classes = [checks.word_class(fmt, w) for w in range(n)]
    finite = n - classes.count("nan") - classes.count("inf")
    return (
        ("nearest-add", "float_nearest_sweep", (fmt, "add"), n * n),
        ("nearest-mul", "float_nearest_sweep", (fmt, "mul"), n * n),
        ("nearest-div", "float_nearest_sweep", (fmt, "div"), n * (n - classes.count("zero"))),
        ("directed-mul", "float_directed_sweep", (fmt, "mul"), 4 * finite * finite),
    )


class VerifyRnf8(SweepWorkload):
    """A fixed slice of the exhaustive rnf8 sweeps: nearest add, mul and div
    and directed mul (the cheapest directed sweep), about 20 s on one
    2.1 GHz Xeon core; all six sweeps take about 45 s and would not fit a
    run."""

    name = "verify-rnf8"
    plan = _rnf8_plan(RNF8)
    small_plan = _rnf8_plan(FloatFormat(2, 2, "rnf5"))


def _fixed_plan(add_w: int, mul_w: int, div_ps: tuple, trunc_w: int, neg_w: int) -> tuple:
    add = 1 << (2 * add_w + 2)
    mul = 1 << (2 * mul_w + 2)
    return (
        ("add", "fixed_add_sweep", (add_w, "add"), add),
        ("add_alt", "fixed_add_sweep", (add_w, "add_alt"), add),
        ("sub", "fixed_add_sweep", (add_w, "sub"), add),
        ("mul", "fixed_mul_sweep", (mul_w,), mul),
        ("mul-sign", "fixed_mul_sign_sweep", (mul_w,), mul),
        *((f"div-p{p}", "fixed_div_sweep", (p,), 1 << (2 * p + 2)) for p in div_ps),
        ("double-rounding", "double_rounding_sweep", (trunc_w,),
         (1 << (trunc_w + 1)) * trunc_w * (trunc_w + 1) // 2),
        ("negation", "negation_sweep", (neg_w,), (1 << (neg_w + 2)) - 8),
    )


class FixedExact(SweepWorkload):
    """The fixed-point sweeps of acceptance criteria 2-5 at their sizes."""

    name = "fixed-exact"
    plan = _fixed_plan(8, 6, (3, 4, 5), 12, 12)
    small_plan = _fixed_plan(3, 3, (2,), 4, 4)


# ---------------------------------------------------------------------------
# cli-eval

_ALL_FORMATS = (RNF8, RNF16, RNF32, RNF64)
_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def _hex(fmt, word: int) -> str:
    return f"{fmt.name}:0x{word:0{(fmt.total_bits + 3) // 4}x}"


def _field_literal(fmt, word: int) -> str:
    s, e, f, r = checks.fields(fmt, word)
    return f"{fmt.name}:s={s},e={e},f={f:0{fmt.frac_bits}b},r={r}"


def _float_literal(rng: random.Random, fmt, word: int) -> str:
    return _hex(fmt, word) if rng.random() < 0.75 else _field_literal(fmt, word)


def _fixed_literal(bits: int, width: int, r: int, lsb: int) -> str:
    return f"rn:{bits & ((1 << width) - 1):0{width}b}:r{r}@{lsb}"


def _fixed_operand(rng: random.Random, width: int, lsb: int) -> tuple[str, Fraction]:
    bits = rng.randint(-(1 << (width - 1)), (1 << (width - 1)) - 1)
    r = rng.getrandbits(1)
    return _fixed_literal(bits, width, r, lsb), Fraction(bits + r) * Fraction(2) ** lsb


def _decimal_text(rng: random.Random) -> str:
    whole = rng.choice((0, 1, 3, 12, 255, 1000, 65504, 10**6))
    frac = rng.choice(("", ".5", ".375", ".3", ".1", ".0625", ".999"))
    return f"{'-' if rng.getrandbits(1) else ''}{whole}{frac}"


_MALFORMED = (
    lambda rng: ["convert", "rn:01a1:r0@0", "--to", "decimal"],
    lambda rng: ["convert", "rnf12:0x3", "--to", "decimal"],
    lambda rng: ["inspect", f"rnf8:0x{0x100 + rng.getrandbits(8):x}"],
    lambda rng: ["eval", "rnf8:0x30 + rnf16:0x3c00"],
    lambda rng: ["eval", "rnf8:0x30 * rn:0101:r0@0"],
    lambda rng: ["eval", "rnf16:0x3c00 + rnf16:0x3c00", "--mode", "rx"],
    lambda rng: ["convert", "1.5"],
    lambda rng: ["eval", "rnf32:0x7f000000 /"],
    lambda rng: ["eval", "1.5 + 2"],
    lambda rng: ["convert", "0.3", "--to", "rn@0,w=5"],
    lambda rng: ["eval", "rn:0101:r0@0 + rn:0101:r0@-1"],
    lambda rng: ["frobnicate", "rnf8:0x30"],
    lambda rng: ["inspect", "rn:0101:r1@0"],
    lambda rng: ["eval", "rn:0101:r0@0 / rn:0111:r0@0"],
    lambda rng: ["convert", "rnf16:0x3c00", "--to", "float:rnf7"],
)


CLI_MIX = (
    ("eval-float", 0.40),
    ("eval-fixed", 0.15),
    ("float-decimal", 0.10),
    ("decimal-float", 0.10),
    ("fixed-convert", 0.07),
    ("inspect", 0.08),
    ("malformed", 0.10),
)


def _gen_cli(rng: random.Random, kind: str) -> tuple[list[str], tuple]:
    """One argv list of a kind and what its output must satisfy."""
    if kind == "eval-float":
        fmt = rng.choice(_ALL_FORMATS)
        op = rng.choice(("add", "sub", "mul", "div"))
        mode = rng.choice(checks.MODES)
        wa, wb = gen_pair(rng, fmt)
        argv = ["eval", f"{_float_literal(rng, fmt, wa)} {_SYMBOL[op]} {_float_literal(rng, fmt, wb)}"]
        if mode != "rn" or rng.random() < 0.5:
            argv += ["--mode", mode]
        return argv, ("eval-float", fmt, op, wa, wb, mode)
    if kind == "eval-fixed":
        width, lsb = rng.randint(3, 16), rng.randint(-8, 0)
        op = rng.choice(("add", "sub", "mul"))
        (ta, va), (tb, vb) = _fixed_operand(rng, width, lsb), _fixed_operand(rng, width, lsb)
        exact = va + vb if op == "add" else va - vb if op == "sub" else va * vb
        return ["eval", f"{ta} {_SYMBOL[op]} {tb}"], ("eval-fixed", exact)
    if kind == "float-decimal":
        fmt = rng.choice(_ALL_FORMATS)
        wa = gen_word(rng, fmt)
        return ["convert", _float_literal(rng, fmt, wa), "--to", "decimal"], ("float-decimal", fmt, wa)
    if kind == "decimal-float":
        fmt = rng.choice(_ALL_FORMATS)
        text = _decimal_text(rng)
        return ["convert", text, "--to", f"float:{fmt.name}"], ("decimal-float", fmt, Fraction(text))
    if kind == "fixed-convert":
        width, lsb = rng.randint(2, 16), rng.randint(-8, 8)
        text, value = _fixed_operand(rng, width, lsb)
        target = "sd" if rng.getrandbits(1) else "decimal"
        return ["convert", text, "--to", target], (f"fixed-{target}", value, lsb)
    if kind == "inspect":
        fmt = rng.choice(_ALL_FORMATS)
        wa = gen_word(rng, fmt)
        return ["inspect", _float_literal(rng, fmt, wa)], ("inspect", fmt, wa)
    return rng.choice(_MALFORMED)(rng), ("malformed",)


_EVAL_FLOAT_RE = re.compile(r"^(rnf\d+):0x([0-9a-f]+) (exact|inexact) sticky=([01]) \(= (.+)\)$")
_EVAL_FIXED_RE = re.compile(r"^rn:([01]+):r([01])@(-?\d+) (exact|inexact) \(= (.+)\)$")
_ROUNDED_RE = re.compile(r"^(rnf\d+):0x([0-9a-f]+) (exact|inexact)$")


def _fixed_value(word: str, r: str, lsb: str) -> Fraction:
    bits = int(word, 2) - ((1 << len(word)) if word[0] == "1" else 0)
    return Fraction(bits + int(r)) * Fraction(2) ** int(lsb)


def _check_cli(spec: tuple, code, out: str, err: str) -> str | None:
    kind = spec[0]
    if kind == "malformed":
        if code != 2:
            return f"exit {code}, expected 2"
        if "error" not in err or "Traceback" in err:
            return "no error message"
        return None
    if code != 0 or err:
        return f"exit {code}: {err.strip()[:80]}"
    out = out.rstrip("\n")
    if kind == "eval-float":
        _, fmt, op, wa, wb, mode = spec
        m = _EVAL_FLOAT_RE.match(out)
        if not m or m.group(1) != fmt.name:
            return f"unparsable output {out!r}"
        word, inexact = int(m.group(2), 16), m.group(3) == "inexact"
        if int(m.group(4)) != inexact:
            return "sticky field disagrees with the exact/inexact tag"
        shown = checks.shown_value(fmt, word)
        if m.group(5) != shown:
            return f"printed value {m.group(5)}, word holds {shown}"
        return checks.check_float_op(fmt, op, wa, wb, mode, word, inexact)
    if kind == "eval-fixed":
        m = _EVAL_FIXED_RE.match(out)
        if not m:
            return f"unparsable output {out!r}"
        value = _fixed_value(m.group(1), m.group(2), m.group(3))
        if value != spec[1] or m.group(4) != "exact":
            return f"value {value}, expected {spec[1]} exactly"
        return None if m.group(5) == checks.decimal(value) else "printed decimal differs"
    if kind == "float-decimal":
        _, fmt, wa = spec
        want = checks.shown_value(fmt, wa)
        if want == "inf" and checks.fields(fmt, wa)[0]:
            want = "-inf"
        return None if out == want else f"printed {out}, expected {want}"
    if kind == "decimal-float":
        _, fmt, x = spec
        m = _ROUNDED_RE.match(out)
        if not m or m.group(1) != fmt.name:
            return f"unparsable output {out!r}"
        return checks.check_rounded(fmt, x, "rn", int(m.group(2), 16), m.group(3) == "inexact")
    if kind == "fixed-decimal":
        return None if out == checks.decimal(spec[1]) else f"printed {out}"
    if kind == "fixed-sd":
        _, value, lsb = spec
        digits = [int(d) for d in out.split()]
        nonzero = [d for d in digits if d]
        if any(d not in (-1, 0, 1) for d in digits) or any(
            x == y for x, y in zip(nonzero, nonzero[1:])
        ):
            return "digits do not alternate in sign"
        acc = 0
        for d in digits:
            acc = 2 * acc + d
        return None if acc * Fraction(2) ** lsb == value else f"digits {out} do not add up to {value}"
    if kind == "inspect":
        _, fmt, wa = spec
        lines = out.split("\n")
        cls = checks.word_class(fmt, wa)
        s, e, f, r = checks.fields(fmt, wa)
        if cls == "zero" and (s, f, r) != (0, 0, 0):
            cls = "subnormal"  # a zero-valued spelling other than the plain zero word
        name = {"inf": "infinity"}.get(cls, cls)
        if len(lines) != 2 or f"class={name}" not in lines[0].split():
            return f"class line {lines[0]!r}, expected {name}"
        if cls not in ("nan", "inf") and f"value={checks.shown_value(fmt, wa)}" not in lines[0].split():
            return "printed value differs"
        want = f"fields: s={s} e={e} f={f:0{fmt.frac_bits}b} r={r}"
        return None if lines[1] == want else f"fields line {lines[1]!r}"
    raise ValueError(f"unknown cli check {kind!r}")


class CliEval(Workload):
    """eval/convert/inspect argv lists through ``cli.main``, output captured."""

    name = "cli-eval"
    trace_items = 300

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__()
        rng = random.Random(seed)
        size = 60 if small else 1500
        kinds = [kind for kind, share in CLI_MIX for _ in range(round(size * share))]
        rng.shuffle(kinds)
        self.items = [_gen_cli(rng, kind) for kind in kinds]
        self.restrict(0)

    def class_mix(self) -> dict[str, int]:
        mix: dict[str, int] = {}
        for argv, spec in self.items[: self.n]:
            _count(mix, f"kind.{spec[0]}")
            _count(mix, f"command.{argv[0]}")
            if spec[0] == "eval-float":
                _count(mix, f"format.{spec[1].name}")
                _count(mix, f"mode.{spec[5]}")
                _count(mix, f"op.{spec[2]}")
        return mix

    def bind(self) -> None:
        self.main = cli.main

    def run_pass(self, lat) -> int:
        pc = lat.clock
        main = self.main
        out = self.out
        saved = sys.stdout, sys.stderr
        try:
            for i in range(self.n):
                argv = self.items[i][0]
                so, se = io.StringIO(), io.StringIO()
                t = pc()
                sys.stdout, sys.stderr = so, se
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # an escaped exception is a traceback for the user
                    code = f"traceback {type(exc).__name__}: {exc}"
                finally:
                    sys.stdout, sys.stderr = saved
                lat.add(pc() - t)
                out[i] = (code, so.getvalue(), se.getvalue())
        finally:
            sys.stdout, sys.stderr = saved
        return self.n

    def check_item(self, i: int, output):
        return _check_cli(self.items[i][1], *output)

    def describe(self, i: int) -> str:
        return " ".join(self.items[i][0])

    def digest_of(self, i: int, output) -> str:
        return repr(output)


WORKLOADS = {w.name: w for w in (FloatOpsWide, VerifyRnf8, FixedExact, CliEval)}
