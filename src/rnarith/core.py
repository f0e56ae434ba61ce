"""Fixed-point values in the canonical round-to-nearest encoding.

A value is stored as an ordinary two's complement word plus one appended
round bit.  The encoded value is ``(bits + round) * 2**lsb_exp``: the round
bit carries the weight of the word's least significant position, not half of
it.  With this convention rounding to nearest is plain truncation (the first
dropped bit becomes the new round bit), negation is bitwise complement of
word and round bit, and the round bit of an inexact result records which way
the rounding went.

The equivalent signed-digit view uses digits in {-1, 0, 1} whose nonzero
digits alternate in sign; ``booth_recode`` / ``sd_of_canonical`` /
``canonical_of_sd`` convert between the two views.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class DyadicRational:
    """Exact value ``mantissa * 2**exp``, normalized to an odd mantissa.

    Zero is canonically ``DyadicRational(0, 0)``, so equal values compare
    equal regardless of how they were produced.
    """

    mantissa: int
    exp: int = 0

    def __post_init__(self) -> None:
        m, e = self.mantissa, self.exp
        if m == 0:
            e = 0
        else:
            k = (m & -m).bit_length() - 1  # trailing zero bits
            m >>= k
            e += k
        object.__setattr__(self, "mantissa", m)
        object.__setattr__(self, "exp", e)

    def __lt__(self, other: "DyadicRational") -> bool:
        e = min(self.exp, other.exp)
        return self.mantissa << (self.exp - e) < other.mantissa << (other.exp - e)

    def to_fraction(self) -> Fraction:
        if self.exp >= 0:
            return Fraction(self.mantissa << self.exp)
        return Fraction(self.mantissa, 1 << -self.exp)

    def __str__(self) -> str:
        """Exact decimal representation (always finite for dyadic values)."""
        m, e = self.mantissa, self.exp
        # str() enforces the interpreter's digit limit only after the number
        # is built (5**-e in superlinear time, m << e in memory); refuse when
        # 2**e or 5**-e alone exceeds it
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and abs(e) * math.log10(2 if e >= 0 else 5) >= limit:
            raise ValueError(f"exact decimal of 2**{e} has more than {limit} digits")
        if e >= 0:
            return str(m << e)
        digits = m * 5 ** (-e)
        sign = "-" if digits < 0 else ""
        text = str(abs(digits)).rjust(-e + 1, "0")
        return f"{sign}{text[:e]}.{text[e:]}"


@dataclass(frozen=True)
class DyadicInterval:
    """Closed interval of dyadic rationals, lo <= hi."""

    lo: DyadicRational
    hi: DyadicRational

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError("interval endpoints out of order")


@dataclass(frozen=True)
class RnFixed:
    """A two's complement word of ``width`` bits with an appended round bit.

    The represented value is ``(bits + round) * 2**lsb_exp``.
    """

    bits: int
    width: int
    round: int = 0
    lsb_exp: int = 0

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("width must be at least 1")
        if self.round not in (0, 1):
            raise ValueError("round bit must be 0 or 1")
        lo = -(1 << (self.width - 1))
        hi = (1 << (self.width - 1)) - 1
        if not lo <= self.bits <= hi:
            raise ValueError(
                f"bits {self.bits} does not fit {self.width}-bit two's complement"
            )

    @property
    def msb_exp(self) -> int:
        return self.lsb_exp + self.width - 1

    def word_string(self) -> str:
        return format(self.bits & ((1 << self.width) - 1), f"0{self.width}b")

    def __str__(self) -> str:
        return format_literal(self)


@dataclass(frozen=True)
class SignedDigitString:
    """Digits over {-1, 0, 1}, most significant first; last digit has weight
    ``2**lsb_exp``."""

    digits: tuple[int, ...]
    lsb_exp: int = 0

    def __post_init__(self) -> None:
        if not self.digits:
            raise ValueError("digit string must be nonempty")
        if any(d not in (-1, 0, 1) for d in self.digits):
            raise ValueError("digits must lie in {-1, 0, 1}")

    def __str__(self) -> str:
        return " ".join(str(d) for d in self.digits)


def booth_recode(word: int, width: int, lsb_exp: int = 0) -> SignedDigitString:
    """Recode a two's complement word into alternating-sign digits.

    Digit at position i is ``b[i-1] - b[i]`` with a zero appended below the
    lsb, so the digit string represents exactly the same value: it is the
    signed-digit view of the word with round bit 0.  A width below 1 or a
    word that does not fit raises ``ValueError``.
    """
    return sd_of_canonical(RnFixed(word, width, 0, lsb_exp))


def validate_rn(sd: SignedDigitString) -> bool:
    """True iff consecutive nonzero digits alternate in sign."""
    prev = 0
    for d in sd.digits:
        if d != 0:
            if d == prev:
                return False
            prev = d
    return True


def sd_of_canonical(x: RnFixed) -> SignedDigitString:
    """Signed-digit view of an encoded value.

    Interior digits pair adjacent word bits; the last digit pairs the round
    bit with the lsb of the word: ``round - b[0]``.
    """
    w = x.width
    digits = []
    for i in range(w - 1, 0, -1):
        digits.append(((x.bits >> (i - 1)) & 1) - ((x.bits >> i) & 1))
    digits.append(x.round - (x.bits & 1))
    return SignedDigitString(tuple(digits), x.lsb_exp)


def canonical_of_sd(sd: SignedDigitString) -> RnFixed:
    """Inverse of :func:`sd_of_canonical`.

    Accepts either finite representation of a value (last nonzero digit +1
    or -1).  The round bit is 1 exactly when that digit is +1, and the word
    is the digits' value minus the round bit.
    """
    if not validate_rn(sd):
        raise ValueError("nonzero digits must alternate in sign")
    value = 0
    for d in sd.digits:
        value = 2 * value + d
    r = 1 if next((d for d in reversed(sd.digits) if d != 0), 0) == 1 else 0
    return RnFixed(value - r, len(sd.digits), r, sd.lsb_exp)


def value_of(x: RnFixed) -> DyadicRational:
    """Exact value ``(bits + round) * 2**lsb_exp``."""
    return DyadicRational(x.bits + x.round, x.lsb_exp)


def truncate_at(x: RnFixed, k: int) -> RnFixed:
    """Round to the coarser grid ``2**k`` by truncation.

    Dropped word bits vanish; the first dropped bit becomes the new round
    bit.  The result is always within half of the new ulp of the input, with
    equality only at ties.
    """
    if k < x.lsb_exp:
        raise ValueError("cannot truncate below the existing lsb")
    if k > x.msb_exp:
        raise ValueError("truncation would drop every word bit")
    if k == x.lsb_exp:
        return x
    s = k - x.lsb_exp
    new_bits = x.bits >> s
    new_round = (x.bits >> (s - 1)) & 1
    return RnFixed(new_bits, x.width - s, new_round, k)


def negate(x: RnFixed) -> RnFixed:
    """Exact negation: complement the word and the round bit."""
    return RnFixed(~x.bits, x.width, 1 - x.round, x.lsb_exp)


def interval_of(x: RnFixed) -> DyadicInterval:
    """The half-ulp interval of values the encoding may stand for.

    ``(a, r)`` covers ``[a + r*u/2, a + (1+r)*u/2]`` where ``a`` is the word
    value and ``u`` its ulp; adjacent encodings tile the line, overlapping
    only at endpoints.
    """
    n = 2 * x.bits + x.round  # the lower end in half-ulps
    return DyadicInterval(DyadicRational(n, x.lsb_exp - 1), DyadicRational(n + 1, x.lsb_exp - 1))


def format_literal(x: RnFixed) -> str:
    """Textual form ``rn:<word bits>:r<round>@<lsb_exp>``."""
    return f"rn:{x.word_string()}:r{x.round}@{x.lsb_exp}"


def parse_literal(text: str) -> RnFixed:
    """Parse the output of :func:`format_literal`, bit-exactly."""
    parts = text.strip().split(":")
    if len(parts) != 3 or parts[0] != "rn":
        raise ValueError(f"bad fixed-point literal: {text!r}")
    word = parts[1]
    if not word or any(c not in "01" for c in word):
        raise ValueError(f"bad word field in literal: {word!r}")
    tail = parts[2]
    if not tail.startswith("r") or "@" not in tail:
        raise ValueError(f"bad round/exponent field in literal: {tail!r}")
    rtxt, etxt = tail[1:].split("@", 1)
    if rtxt not in ("0", "1"):
        raise ValueError(f"bad round bit in literal: {rtxt!r}")
    bits = int(word, 2)
    if word[0] == "1":
        bits -= 1 << len(word)
    return RnFixed(bits, len(word), int(rtxt), int(etxt))
