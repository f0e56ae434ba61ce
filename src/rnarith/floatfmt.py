"""Packed floating-point formats built on the round-bit significand.

Word layout, high to low: sign | biased exponent | fraction (p-1 bits) |
round bit.  A normal significand is the two's complement string
``s s' . f1 .. f(p-1)`` with complementary top bits, so the second bit is
implied by the sign and not stored.  Subnormals store ``s . f`` at the
minimum exponent; negative subnormals naturally carry leading ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .core import DyadicRational, RnFixed


@dataclass(frozen=True)
class FloatFormat:
    """A packed format: ``exp_bits`` exponent bits and ``precision`` (p)
    significand digits, the hidden bit plus p-1 stored fraction bits.

    The derived constants ``total_bits``, ``bias``, ``e_min``, ``e_max``,
    ``exp_mask`` and ``frac_bits`` are computed once, when the format is
    built, and read as plain attributes.  They follow from the two sizes, so
    they are not part of equality, hashing, the repr or the constructor.
    """

    exp_bits: int
    precision: int  # significand digits p: hidden bit + (p-1) fraction bits
    name: str = ""
    total_bits: int = field(init=False, compare=False, repr=False)
    bias: int = field(init=False, compare=False, repr=False)
    e_min: int = field(init=False, compare=False, repr=False)
    e_max: int = field(init=False, compare=False, repr=False)
    exp_mask: int = field(init=False, compare=False, repr=False)
    frac_bits: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.exp_bits < 2 or self.precision < 2:
            raise ValueError("format too small")
        bias = (1 << (self.exp_bits - 1)) - 1
        derived = {
            # sign + exponent + fraction + round bit
            "total_bits": 1 + self.exp_bits + (self.precision - 1) + 1,
            "bias": bias,
            "e_min": 1 - bias,
            "e_max": (1 << self.exp_bits) - 2 - bias,
            "exp_mask": (1 << self.exp_bits) - 1,
            "frac_bits": self.precision - 1,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def zero(self) -> "RnFloat":
        return RnFloat(self, 0)  # the canonical zero is the all-zeros word

    def inf_word(self, sign: int = 0) -> int:
        return (sign << (self.total_bits - 1)) | (self.exp_mask << self.precision)

    def nan_word(self) -> int:
        # don't-care bits are zero on output; the round bit marks it non-infinite
        return (self.exp_mask << self.precision) | 1

    def inf(self, sign: int = 0) -> "RnFloat":
        return RnFloat(self, self.inf_word(sign))

    def nan(self) -> "RnFloat":
        return RnFloat(self, self.nan_word())


RNF8 = FloatFormat(3, 4, "rnf8")
RNF16 = FloatFormat(5, 10, "rnf16")
RNF32 = FloatFormat(8, 23, "rnf32")
RNF64 = FloatFormat(11, 52, "rnf64")

FORMATS = {f.name: f for f in (RNF8, RNF16, RNF32, RNF64)}


@dataclass(frozen=True)
class RnFloat:
    fmt: FloatFormat
    word: int

    def __post_init__(self) -> None:
        if not 0 <= self.word < (1 << self.fmt.total_bits):
            raise ValueError("word does not fit the format")

    @property
    def sign(self) -> int:
        return (self.word >> (self.fmt.total_bits - 1)) & 1

    @property
    def biased_exp(self) -> int:
        return (self.word >> self.fmt.precision) & self.fmt.exp_mask

    @property
    def frac(self) -> int:
        return (self.word >> 1) & ((1 << self.fmt.frac_bits) - 1)

    @property
    def round(self) -> int:
        return self.word & 1

    def __str__(self) -> str:
        return format_hex_literal(self)


class FloatClass(Enum):
    NORMAL = "normal"
    SUBNORMAL = "subnormal"
    ZERO = "zero"
    INFINITY = "infinity"
    NAN = "nan"


@dataclass(frozen=True)
class UnpackedFloat:
    """Classified view of a word; packing it restores the word bit-exactly.

    For normals the significand is the full p+1-bit word with the hidden bit
    reconstituted; for every other class it is the raw p-bit ``s.f`` string.
    The round bit always rides on the significand.
    """

    fmt: FloatFormat
    cls: FloatClass
    sign: int
    biased_exp: int
    significand: RnFixed


def decode(fmt: FloatFormat, word: int) -> tuple[FloatClass, int, int, int, int]:
    """Raw fields of a word: class, sign, significand word ``w``, round bit
    ``r`` and scale.

    ``w`` is two's complement with its lsb weighing ``2**(1 - p)`` at the
    scale, so a finite word's value is ``(w + r) * 2**(scale + 1 - p)``.  A
    normal word has its hidden second bit (the complement of the sign)
    restored and scale ``e - bias``; every other class keeps the raw ``s.f``
    string at scale ``e_min``.
    """
    p = fmt.precision
    s = word >> (fmt.total_bits - 1)
    e = (word >> p) & fmt.exp_mask
    f = (word >> 1) & ((1 << (p - 1)) - 1)
    r = word & 1
    if e == 0:
        cls = FloatClass.ZERO if word == 0 else FloatClass.SUBNORMAL
    elif e == fmt.exp_mask:
        cls = FloatClass.INFINITY if f == 0 and r == 0 else FloatClass.NAN
    else:
        w = f + ((1 << (p - 1)) if s == 0 else -(1 << p))
        return FloatClass.NORMAL, s, w, r, e - fmt.bias
    return cls, s, f - (s << (p - 1)), r, fmt.e_min


def _assemble(fmt: FloatFormat, sign: int, biased_exp: int, frac: int, rbit: int) -> int:
    """The word with these fields."""
    return (
        (sign << (fmt.total_bits - 1))
        | (biased_exp << fmt.precision)
        | (frac << 1)
        | rbit
    )


def unpack(f: RnFloat) -> UnpackedFloat:
    cls, s, w, r, _ = decode(f.fmt, f.word)
    p = f.fmt.precision
    width = p + 1 if cls is FloatClass.NORMAL else p
    return UnpackedFloat(f.fmt, cls, s, f.biased_exp, RnFixed(w, width, r, 1 - p))


def pack(u: UnpackedFloat) -> RnFloat:
    """Inverse of :func:`unpack`; a view that no word has raises ``ValueError``.

    The layout is stated once, in :func:`decode`: the fields are assembled
    into a word, which must unpack back to ``u``."""
    sig = u.significand
    f = RnFloat(u.fmt, _assemble(u.fmt, u.sign, u.biased_exp, sig.bits & ((1 << u.fmt.frac_bits) - 1), sig.round))
    if unpack(f) != u:
        raise ValueError(f"no word unpacks to {u.cls.value} s={u.sign} e={u.biased_exp} {sig}")
    return f


def value_of_float(f: RnFloat) -> DyadicRational | FloatClass:
    """Exact value of a finite word; the class marker for infinities/NaNs."""
    cls, _, w, r, scale = decode(f.fmt, f.word)
    if cls is FloatClass.INFINITY or cls is FloatClass.NAN:
        return cls
    return DyadicRational(w + r, scale + 1 - f.fmt.precision)


def float_negate(f: RnFloat) -> RnFloat:
    """Negate by complementing sign, fraction and round bit.

    Zero-valued inputs come back as the canonical +0 word; NaNs are
    canonicalized; infinities just flip sign.
    """
    fmt = f.fmt
    cls, s, w, r, _ = decode(fmt, f.word)
    if cls is FloatClass.NAN:
        return fmt.nan()
    if cls is FloatClass.INFINITY:
        return fmt.inf(1 - s)
    if w + r == 0:
        return fmt.zero()
    flip = (
        (1 << (fmt.total_bits - 1))
        | (((1 << fmt.frac_bits) - 1) << 1)
        | 1
    )
    return RnFloat(fmt, f.word ^ flip)


def format_hex_literal(f: RnFloat) -> str:
    digits = (f.fmt.total_bits + 3) // 4
    return f"{f.fmt.name}:0x{f.word:0{digits}x}"


def format_fields(f: RnFloat) -> str:
    return (
        f"s={f.sign} e={f.biased_exp} "
        f"f={f.frac:0{f.fmt.frac_bits}b} r={f.round}"
    )


def parse_float_literal(text: str) -> RnFloat:
    """Parse ``rnf<bits>:0x<hex>`` or ``rnf<bits>:s=_ e=_ f=_ r=_`` forms."""
    text = text.strip()
    head, sep, rest = text.partition(":")
    if not sep or head not in FORMATS:
        raise ValueError(f"bad float literal: {text!r}")
    fmt = FORMATS[head]
    rest = rest.strip()
    if rest.startswith("0x") or rest.startswith("0X"):
        word = int(rest, 16)
        return RnFloat(fmt, word)
    fields = dict(
        item.split("=", 1) for item in rest.replace(",", " ").split() if "=" in item
    )
    try:
        s = int(fields["s"])
        e = int(fields["e"])
        frac = int(fields["f"], 2)
        r = int(fields["r"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad float field literal: {text!r}") from exc
    if s not in (0, 1) or r not in (0, 1):
        raise ValueError(f"bad bit field in literal: {text!r}")
    if not 0 <= e <= fmt.exp_mask or not 0 <= frac < (1 << fmt.frac_bits):
        raise ValueError(f"field out of range in literal: {text!r}")
    return RnFloat(fmt, _assemble(fmt, s, e, frac, r))
