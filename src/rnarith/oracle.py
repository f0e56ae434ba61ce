"""Shared scaffolding of the verification sweeps.

The enumeration guard ``check_space`` and the enumerators of fixed
encodings (as the integers ``x = 2*bits + round``), float words and divider
operands; ``VerifyReport``, the machine-readable outcome of one sweep; and
``check_inclusion``, a product interval check on ``DyadicInterval`` values.
Everything here is built on arbitrary-precision integers and
``fractions.Fraction`` only; no rounding or arithmetic routine from the
library under test is called.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator

from .core import DyadicInterval, RnFixed
from .floatfmt import FloatFormat

_LIMIT_BITS = 26
ENUMERATION_LIMIT = 1 << _LIMIT_BITS


def check_space(what: str, count: int, shift: int = 0) -> None:
    """Refuse a space of ``count * 2**shift`` cases (``count >= 1``) larger
    than ``ENUMERATION_LIMIT``, before its first case.  The shift is judged
    first, so a huge width is refused without building its power of two."""
    if shift > _LIMIT_BITS or count << shift > ENUMERATION_LIMIT:
        raise ValueError(f"{what}: more cases than the enumeration limit of {ENUMERATION_LIMIT}")


def enumerate_fixed(width: int) -> Iterator[int]:
    """Every width-bit encoding ``x = 2*bits + round`` exactly once,
    ascending: words ascending, round bit 0 before 1."""
    check_space(f"width={width} encodings", 1, width + 1)
    return iter(range(-(1 << width), 1 << width))


def enumerate_format(fmt: FloatFormat) -> Iterator[int]:
    """Every word of a packed format exactly once, ascending."""
    check_space(f"{fmt.name or 'format'} words", 1, fmt.total_bits)
    return iter(range(1 << fmt.total_bits))


def enumerate_div_operands(p: int) -> Iterator[tuple[RnFixed, RnFixed]]:
    """All pairs of scaled divider operands: word in [1, 2), p fractional
    bits, both round bits free."""
    check_space(f"p={p} divider operand pairs", 1, 2 * p + 2)
    ops = [RnFixed(bits, p + 2, r, -p)
           for bits in range(1 << p, 1 << (p + 1)) for r in (0, 1)]
    return ((x, y) for x in ops for y in ops)


def check_inclusion(result: DyadicInterval, a: DyadicInterval, b: DyadicInterval) -> bool:
    """Is the result interval inside the exact product image of two
    nonnegative operand intervals?"""
    if a.lo.mantissa < 0 or b.lo.mantissa < 0:
        raise ValueError("mul inclusion is defined for nonnegative intervals")
    lo = a.lo.to_fraction() * b.lo.to_fraction()
    hi = a.hi.to_fraction() * b.hi.to_fraction()
    return lo <= result.lo.to_fraction() and result.hi.to_fraction() <= hi


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
        # a sweep that checked nothing did not pass anything
        status = "FAIL" if not self.passed else "SKIP" if not self.cases else "PASS"
        lines.append(f"{status} {self.cases} {len(self.failures)} {self.elapsed:.3f}")
        return "\n".join(lines)
