"""Independent exact-arithmetic reference used by the verification sweeps.

Everything here is built on arbitrary-precision integers and
``fractions.Fraction`` only; no rounding or arithmetic routine from the
library under test is called.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .core import DyadicInterval, DyadicRational, RnFixed
from .floatfmt import FloatFormat, RnFloat

ENUMERATION_LIMIT = 1 << 26


def reference_round_nearest(x: Fraction, k: int) -> tuple[DyadicRational, ...]:
    """Nearest multiple(s) of 2**k; a tie returns both candidates."""
    grid = Fraction(1 << k) if k >= 0 else Fraction(1, 1 << -k)
    scaled = x / grid
    lo = scaled.numerator // scaled.denominator
    frac = scaled - lo
    if frac < Fraction(1, 2):
        picks = (lo,)
    elif frac > Fraction(1, 2):
        picks = (lo + 1,)
    else:
        picks = (lo, lo + 1)
    return tuple(DyadicRational(n, k) for n in picks)


def enumerate_fixed(width: int, lsb_exp: int = 0) -> Iterator[RnFixed]:
    """Every width-bit encoding exactly once, words ascending, round bit 0
    before 1."""
    if (1 << width) * 2 > ENUMERATION_LIMIT:
        raise ValueError("enumeration space too large")
    for bits in range(-(1 << (width - 1)), 1 << (width - 1)):
        for r in (0, 1):
            yield RnFixed(bits, width, r, lsb_exp)


def enumerate_format(fmt: FloatFormat) -> Iterator[RnFloat]:
    """Every word of a packed format exactly once, ascending."""
    if (1 << fmt.total_bits) > ENUMERATION_LIMIT:
        raise ValueError("enumeration space too large")
    for word in range(1 << fmt.total_bits):
        yield RnFloat(fmt, word)


def enumerate_div_operands(p: int) -> Iterator[tuple[RnFixed, RnFixed]]:
    """All pairs of scaled divider operands: word in [1, 2), p fractional
    bits, both round bits free."""
    count = (1 << p) * 2
    if count * count > ENUMERATION_LIMIT:
        raise ValueError("enumeration space too large")
    ops = [
        RnFixed(bits, p + 2, r, -p)
        for bits in range(1 << p, 1 << (p + 1))
        for r in (0, 1)
    ]
    for x in ops:
        for y in ops:
            yield x, y


def _interval_to_fractions(iv: DyadicInterval) -> tuple[Fraction, Fraction]:
    return iv.lo.to_fraction(), iv.hi.to_fraction()


def check_inclusion(result: DyadicInterval, a: DyadicInterval, b: DyadicInterval, op: str) -> bool:
    """Is the result interval inside the exact image of the operand
    intervals?  Supported images: add, mul of nonnegative intervals, div of
    positive intervals."""
    rl, rh = _interval_to_fractions(result)
    al, ah = _interval_to_fractions(a)
    bl, bh = _interval_to_fractions(b)
    if op == "add":
        lo, hi = al + bl, ah + bh
    elif op == "mul-nonneg":
        if al < 0 or bl < 0:
            raise ValueError("mul inclusion is defined for nonnegative intervals")
        lo, hi = al * bl, ah * bh
    elif op == "div-normalized":
        if al <= 0 or bl <= 0:
            raise ValueError("div inclusion is defined for positive intervals")
        lo, hi = al / bh, ah / bl
    else:
        raise ValueError(f"unknown operation {op!r}")
    return lo <= rl and rh <= hi


@dataclass
class VerifyReport:
    """Machine-readable outcome of one verification sweep."""

    op: str
    space: str
    cases: int = 0
    failures: list[tuple[str, str, str]] = field(default_factory=list)
    elapsed: float = 0.0
    _start: float = field(default_factory=time.perf_counter, repr=False)

    def record(self, inputs: str, want: str, got: str) -> None:
        self.failures.append((inputs, want, got))

    def done(self) -> "VerifyReport":
        self.elapsed = time.perf_counter() - self._start
        return self

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_text(self) -> str:
        lines = [f"verify {self.op} {self.space}"]
        for inputs, want, got in self.failures:
            lines.append(f"FAIL {self.op} in={inputs} want={want} got={got}")
        status = "PASS" if self.passed else "FAIL"
        lines.append(f"{status} {self.cases} {len(self.failures)} {self.elapsed:.3f}")
        return "\n".join(lines)
