"""Shared scaffolding of the verification sweeps.

The enumeration guard ``check_space``; the enumerators of fixed encodings
and of divider operands, both as the integers ``x = 2*bits + round``, and
of float words; ``VerifyReport``, the machine-readable outcome of one
sweep; and ``check_inclusion``, the product-inclusion rule on encoding
integers.
Everything here is built on arbitrary-precision integers only; no
rounding or arithmetic routine from the library under test is called.
"""

from __future__ import annotations

import time
from collections.abc import Iterator

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


def enumerate_div_operands(p: int) -> Iterator[tuple[int, int]]:
    """All pairs ``(n, d)`` of scaled divider operands as encodings
    ``2*bits + round``: words in [1, 2) at p fractional bits, both round
    bits free, so each lies in ``[2**(p+1), 2**(p+2))``; ascending."""
    check_space(f"p={p} divider operand pairs", 1, 2 * p + 2)
    ops = range(1 << (p + 1), 1 << (p + 2))
    return ((n, d) for n in ops for d in ops)


def check_inclusion(out: int, a: int, b: int) -> bool:
    """Does product encoding ``out`` stand for an interval inside the exact
    product of the intervals of the nonnegative encodings ``a`` and ``b``?

    An encoding ``x`` stands for ``[x, x + 1]`` half ulps, and the product's
    ulp is the product of the operands' ulps, so in quarter ulps of the
    product ``[2*out, 2*out + 2]`` must lie inside ``[a*b, (a+1)*(b+1)]``.
    """
    if a < 0 or b < 0:
        raise ValueError("mul inclusion is defined for nonnegative intervals")
    return a * b <= 2 * out and 2 * out + 2 <= (a + 1) * (b + 1)


class VerifyReport:
    """Machine-readable outcome of one verification sweep.

    A sweep counts its ``cases`` and records its ``failures``; ``done``
    sets ``elapsed``.  Reports are compared by identity."""

    __slots__ = ("op", "space", "cases", "failures", "elapsed", "_start")

    def __init__(self, op: str, space: str) -> None:
        self.op = op
        self.space = space
        self.cases = 0
        self.failures: list[tuple[str, str, str]] = []
        self.elapsed = 0.0
        self._start = time.perf_counter()

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
