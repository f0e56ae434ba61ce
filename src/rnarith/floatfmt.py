"""Packed floating-point formats built on the round-bit significand.

Word layout, high to low: sign | biased exponent | fraction (p-1 bits) |
round bit.  A normal significand is the two's complement string
``s s' . f1 .. f(p-1)`` with complementary top bits, so the second bit is
implied by the sign and not stored.  Subnormals store ``s . f`` at the
minimum exponent; negative subnormals naturally carry leading ones.

A float is a format and an int word: ``decode``, ``unpack``,
``value_of_float`` and ``float_negate`` take ``(fmt, word)``, and ``pack``
returns a word.  ``RnFloat`` is only the literal: ``parse_float_literal``
makes one and ``format_hex_literal`` prints one; ``format_fields`` prints
the fields of an ``unpack``ed word.

``FloatFormat``, ``RnFloat`` and ``UnpackedFloat`` are immutable slotted
classes on ``core``'s value base: compared, hashed and printed by their
constructor fields, and refusing assignment.
"""

from __future__ import annotations

import re
from enum import Enum

from .core import RnFixed, _set, _Value, int_of_field


class FloatFormat(_Value):
    """A packed format: ``exp_bits`` exponent bits and ``precision`` (p)
    significand digits, the hidden bit plus p-1 stored fraction bits.

    The derived constants are computed once, when the format is built, and
    read as plain attributes: ``total_bits``, ``bias``, ``e_min``,
    ``e_max``, ``exp_mask`` and ``frac_bits``; the sign bit's position
    ``sign_shift``; ``frac_mask`` and ``low_mask``, the fraction field's
    mask and the word's low p bits (fraction and round bit); the offsets
    ``hidden_pos`` and ``hidden_neg`` that add a normal word's hidden bit
    for either sign; ``word_end``, one past the widest word;
    ``inf_words``, the infinity of each sign; and ``nan_word``, the NaN
    every op returns.  They follow from the two sizes, so they are not part
    of equality, hashing, the repr or the constructor.
    """

    _fields = ("exp_bits", "precision", "name")
    __slots__ = _fields + (
        "total_bits", "bias", "e_min", "e_max", "exp_mask", "frac_bits", "sign_shift",
        "frac_mask", "low_mask", "hidden_pos", "hidden_neg", "word_end", "inf_words", "nan_word",
    )

    def __init__(self, exp_bits: int, precision: int, name: str = "") -> None:
        # precision is the significand digit count p: hidden bit + (p-1) fraction bits
        if exp_bits < 2 or precision < 2:
            raise ValueError("format too small")
        p = precision
        bias = (1 << (exp_bits - 1)) - 1
        exp_mask = (1 << exp_bits) - 1
        total_bits = 1 + exp_bits + (p - 1) + 1  # sign + exponent + fraction + round bit
        _set(self, "exp_bits", exp_bits)
        _set(self, "precision", p)
        _set(self, "name", name)
        _set(self, "total_bits", total_bits)
        _set(self, "bias", bias)
        _set(self, "e_min", 1 - bias)
        _set(self, "e_max", exp_mask - 1 - bias)
        _set(self, "exp_mask", exp_mask)
        _set(self, "frac_bits", p - 1)
        _set(self, "sign_shift", total_bits - 1)
        _set(self, "frac_mask", (1 << (p - 1)) - 1)
        _set(self, "low_mask", (1 << p) - 1)
        # a normal word's significand integer x = 2*w + r is its low p bits
        # plus the hidden bit 2**p, or, with the sign, less 2**(p+1)
        _set(self, "hidden_pos", 1 << p)
        _set(self, "hidden_neg", -(2 << p))
        _set(self, "word_end", 1 << total_bits)
        inf = exp_mask << p  # all-ones exponent, zero fraction and round bit
        _set(self, "inf_words", (inf, (1 << (total_bits - 1)) | inf))
        # don't-care bits are zero on output; the round bit marks it non-infinite
        _set(self, "nan_word", inf | 1)


RNF8 = FloatFormat(3, 4, "rnf8")
RNF16 = FloatFormat(5, 10, "rnf16")
RNF32 = FloatFormat(8, 23, "rnf32")
RNF64 = FloatFormat(11, 52, "rnf64")

FORMATS = {f.name: f for f in (RNF8, RNF16, RNF32, RNF64)}


class RnFloat(_Value):
    """A float literal: a word and its named format, as parsed and printed.

    Below the literal parser and printer a float is ``(fmt, word)``; this
    type only checks that a word read from outside fits its format."""

    __slots__ = _fields = ("fmt", "word")

    def __init__(self, fmt: FloatFormat, word: int) -> None:
        if not 0 <= word < fmt.word_end:
            raise ValueError("word does not fit the format")
        _set(self, "fmt", fmt)
        _set(self, "word", word)

    def __str__(self) -> str:
        return format_hex_literal(self)


class FloatClass(Enum):
    NORMAL = "normal"
    SUBNORMAL = "subnormal"
    ZERO = "zero"
    INFINITY = "infinity"
    NAN = "nan"


class UnpackedFloat(_Value):
    """Classified view of a word; packing it restores the word bit-exactly.

    For normals the significand is the full p+1-bit word with the hidden bit
    reconstituted; for every other class it is the raw p-bit ``s.f`` string.
    The round bit always rides on the significand.
    """

    __slots__ = _fields = ("fmt", "cls", "sign", "biased_exp", "significand")

    def __init__(self, fmt: FloatFormat, cls: FloatClass, sign: int, biased_exp: int,
                 significand: RnFixed) -> None:
        _set(self, "fmt", fmt)
        _set(self, "cls", cls)
        _set(self, "sign", sign)
        _set(self, "biased_exp", biased_exp)
        _set(self, "significand", significand)

    @property
    def frac(self) -> int:
        """The stored fraction field: the significand's low p-1 bits."""
        return self.significand.bits & self.fmt.frac_mask


# read once: a member read through its enum class is a slow lookup (about
# 0.1 us on CPython 3.11), and every float op decodes two words
_NORMAL, _SUBNORMAL, _ZERO = FloatClass.NORMAL, FloatClass.SUBNORMAL, FloatClass.ZERO
_INFINITY, _NAN = FloatClass.INFINITY, FloatClass.NAN


def decode(fmt: FloatFormat, word: int) -> tuple[FloatClass, int, int, int]:
    """Raw fields of a word: class, sign, significand integer ``x`` and scale.

    ``x = 2*w + r`` reads the two's complement significand word ``w`` and
    round bit ``r`` as one integer, as ``fixed`` does, so a finite word's
    value is ``((x + 1) >> 1) * 2**(scale + 1 - p)``.  ``x`` is the word's
    low p bits plus one offset: a normal word's hidden second bit (the
    complement of the sign), ``hidden_pos`` or ``hidden_neg``, at scale
    ``e - bias``; for every other class ``-2**p`` when negative, at scale
    ``e_min``.  A negative or too wide word raises ``ValueError``.
    """
    s = word >> fmt.sign_shift
    if s >> 1:  # negative or too wide
        raise ValueError("word does not fit the format")
    e = (word >> fmt.precision) & fmt.exp_mask
    low = word & fmt.low_mask
    if e == 0:
        cls = _ZERO if word == 0 else _SUBNORMAL
    elif e == fmt.exp_mask:
        cls = _INFINITY if low == 0 else _NAN
    else:
        return _NORMAL, s, low + (fmt.hidden_neg if s else fmt.hidden_pos), e - fmt.bias
    return cls, s, (low - fmt.hidden_pos) if s else low, fmt.e_min


def _assemble(fmt: FloatFormat, sign: int, biased_exp: int, low: int) -> int:
    """The word with these fields; ``low`` is its low p bits, the fraction
    field above the round bit."""
    return (sign << fmt.sign_shift) | (biased_exp << fmt.precision) | low


def unpack(fmt: FloatFormat, word: int) -> UnpackedFloat:
    cls, s, x, _ = decode(fmt, word)
    p = fmt.precision
    sig = RnFixed(x >> 1, p + 1 if cls is _NORMAL else p, x & 1, 1 - p)
    return UnpackedFloat(fmt, cls, s, (word >> p) & fmt.exp_mask, sig)


def pack(u: UnpackedFloat) -> int:
    """Inverse of :func:`unpack`; a view that no word has raises ``ValueError``.

    The layout is stated once, in :func:`decode`: the fields are assembled
    into a word, and ``unpack`` of that word must be ``u``."""
    sig = u.significand
    word = _assemble(u.fmt, u.sign, u.biased_exp, (u.frac << 1) | sig.round)
    if unpack(u.fmt, word) != u:
        raise ValueError(f"no word unpacks to {u.cls.value} s={u.sign} e={u.biased_exp} {sig}")
    return word


def value_of_float(fmt: FloatFormat, word: int) -> tuple[int, int, int] | FloatClass:
    """Exact value ``(n, 1, k)``, meaning ``n * 2**k``, of a finite word; the
    class marker for infinities/NaNs."""
    cls, _, x, scale = decode(fmt, word)
    if cls is _INFINITY or cls is _NAN:
        return cls
    return (x + 1) >> 1, 1, scale + 1 - fmt.precision


def float_negate(fmt: FloatFormat, word: int) -> int:
    """Negate by complementing sign, fraction and round bit.

    Every finite word is complemented, so the two spellings of zero, the
    word 0 and the all-ones zero, swap; NaNs are canonicalized; infinities
    just flip sign.
    """
    cls, s, _, _ = decode(fmt, word)
    if cls is _NAN:
        return fmt.nan_word
    if cls is _INFINITY:
        return fmt.inf_words[1 - s]
    # sign bit, then the fraction and round bit: the low p bits
    return word ^ ((1 << fmt.sign_shift) | fmt.low_mask)


def format_hex_literal(f: RnFloat) -> str:
    digits = (f.fmt.total_bits + 3) // 4
    return f"{f.fmt.name}:0x{f.word:0{digits}x}"


def format_fields(u: UnpackedFloat) -> str:
    return f"s={u.sign} e={u.biased_exp} f={u.frac:0{u.fmt.frac_bits}b} r={u.significand.round}"


# the ASCII grammar of a hex word and of the fields, in a fixed order; int()
# alone also takes blanks, underscores, signs, a base prefix and non-ASCII
# digits
_HEX_RE = re.compile(r"0[xX][0-9a-fA-F]+")
_FIELDS_RE = re.compile(r"s=[0-9]+ e=[0-9]+ f=[01]+ r=[0-9]+")


def parse_float_literal(text: str) -> RnFloat:
    """Parse ``rnf<bits>:0x<hex>`` or ``rnf<bits>:s=_ e=_ f=_ r=_`` forms; the
    second names each field once, in any order, and nothing else.  The
    ASCII grammar is checked first; the word's fit and the fields' ranges
    after it."""
    text = text.strip()
    head, sep, rest = text.partition(":")
    if not sep or head not in FORMATS:
        raise ValueError(f"bad float literal: {text!r}")
    fmt = FORMATS[head]
    rest = rest.strip()
    if rest.startswith("0x") or rest.startswith("0X"):
        if not _HEX_RE.fullmatch(rest):
            raise ValueError(f"bad float literal: {text!r}")
        return RnFloat(fmt, int(rest, 16))
    items = rest.replace(",", " ").split()
    fields = dict(item.partition("=")[::2] for item in items)
    if (len(fields) != len(items) or fields.keys() != {"s", "e", "f", "r"}
            or not _FIELDS_RE.fullmatch("s={s} e={e} f={f} r={r}".format_map(fields))):
        raise ValueError(f"bad float field literal: {text!r}")
    s, r = fields["s"], fields["r"]
    if s not in ("0", "1") or r not in ("0", "1"):
        raise ValueError(f"bad bit field in literal: {text!r}")
    e = int_of_field(fields["e"])  # None past the digit limit
    frac = int(fields["f"], 2)
    if e is None or not 0 <= e <= fmt.exp_mask or not 0 <= frac <= fmt.frac_mask:
        raise ValueError(f"field out of range in literal: {text!r}")
    return RnFloat(fmt, _assemble(fmt, int(s), e, (frac << 1) | int(r)))
