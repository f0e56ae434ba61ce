"""Fixed-point values in the canonical round-to-nearest encoding.

A value is stored as an ordinary two's complement word plus one appended
round bit.  The encoded value is ``(bits + round) * 2**lsb_exp``: the round
bit carries the weight of the word's least significant position, not half of
it.  Read as one two's complement integer, the encoding is
``x = 2*bits + round``: its value is ``(x + 1) >> 1`` ulps and its half-ulp
interval ``[x, x + 1]`` half-ulps, so adjacent encodings tile the line,
meeting only at their ends.  On that integer, rounding to nearest is
plain truncation ``x >> s`` (the first dropped bit becomes the new round
bit), negation is the bitwise complement ``~x``, and the round bit of an
inexact result records which way the rounding went.  ``truncate_at`` and
``negate`` take and return such integers, which carry no width or lsb;
``RnFixed`` is only the parsed literal and the view the CLI prints.

The equivalent signed-digit view is a tuple of digits in {-1, 0, 1} whose
nonzero digits alternate in sign: the digit of weight ``2**i`` is bit ``i``
of ``x`` less bit ``i+1``.  ``sd_of_canonical`` states that rule, and
``canonical_of_sd`` and ``booth_recode`` follow from it.

The value types here and in ``floatfmt`` are immutable slotted classes on
one private base, ``_Value``, which gives them equality, hashing, a
``repr``, copying and pickling from the tuple of fields that makes up each
value.
"""

from __future__ import annotations

import math
import re
import sys
from operator import attrgetter, sub

# writes a field of a _Value in its __init__, past the base's refusal
_set = object.__setattr__


class _Value:
    """Base of the immutable value types.

    A subclass names every attribute in ``__slots__`` and, in ``_fields``,
    the ones that make up its value, in constructor order.  Equality (with
    the same class only), hashing, the ``repr``, copying and pickling read
    ``_fields``; pickling and copying call the constructor again.  The
    subclass's ``__init__`` checks its arguments and writes each slot with
    ``_set``; any later assignment or deletion raises ``AttributeError``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # the fields compared and hashed, read in C: a tuple of them, or
        # the one field itself
        cls._key = attrgetter(*cls._fields)  # not a descriptor: read unbound

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __reduce__(self) -> tuple:
        return self.__class__, tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class DyadicRational:
    """Empty stand-in: exact values are ``(n, d, k)`` triples, printed by
    :func:`decimal_of`.  Only ``perfbench/tracing.py`` names this class, as a
    traced boundary; ROADMAP item 1 step 2 deletes it with the shims."""


def _check_fields(bits: int, width: int, round_bit: int = 0) -> None:
    """Refuse a width below 1, a round bit other than 0 or 1, or a word that
    is not width-bit two's complement, in that order."""
    if width < 1:
        raise ValueError("width must be at least 1")
    if round_bit not in (0, 1):
        raise ValueError("round bit must be 0 or 1")
    if not -(1 << (width - 1)) <= bits < 1 << (width - 1):
        raise ValueError(f"bits {bits} does not fit {width}-bit two's complement")


class RnFixed(_Value):
    """A two's complement word of ``width`` bits with an appended round bit.

    The represented value is ``(bits + round) * 2**lsb_exp``.
    """

    __slots__ = _fields = ("bits", "width", "round", "lsb_exp")

    def __init__(self, bits: int, width: int, round: int = 0, lsb_exp: int = 0) -> None:
        _check_fields(bits, width, round)
        _set(self, "bits", bits)
        _set(self, "width", width)
        _set(self, "round", round)
        _set(self, "lsb_exp", lsb_exp)

    def __str__(self) -> str:
        return format_literal(self)


def sd_of_canonical(x: int, width: int) -> tuple[int, ...]:
    """Signed-digit view of the width-bit encoding ``x = 2*bits + round``,
    most significant digit first.

    The digit of weight ``2**i`` is bit ``i`` of ``x`` less bit ``i+1``: it
    pairs adjacent word bits, and the last digit pairs the round bit with
    the lsb of the word.  Consecutive nonzero digits alternate in sign, and
    the digits sum to the value ``(x + 1) >> 1``.
    """
    b = format(x & ((2 << width) - 1), f"0{width + 1}b").encode()  # bits width..0 as ASCII codes
    return tuple(map(sub, b[1:], b))  # each code less the one before: bit i less bit i + 1


def booth_recode(word: int, width: int) -> tuple[int, ...]:
    """Recode a two's complement word into alternating-sign digits: the
    signed-digit view of the word with round bit 0, so the digits represent
    exactly the word's value.  A width below 1 or a word that does not fit
    raises ``ValueError``.
    """
    _check_fields(word, width)
    return sd_of_canonical(2 * word, width)


def validate_rn(digits: tuple[int, ...]) -> bool:
    """True iff every digit lies in {-1, 0, 1} and consecutive nonzero
    digits alternate in sign."""
    prev = 0
    for d in digits:
        if d:
            if d == prev or d not in (-1, 1):
                return False
            prev = d
    return True


def canonical_of_sd(digits: tuple[int, ...]) -> int:
    """Inverse of :func:`sd_of_canonical`: the encoding ``2*value - r``.

    Accepts either finite representation of a value (last nonzero digit +1
    or -1).  The round bit ``r`` is 1 exactly when that digit is +1.  An
    empty string, a digit outside {-1, 0, 1} or two same-sign neighbours
    raise ``ValueError``.
    """
    if not digits or not validate_rn(digits):
        raise ValueError(f"not a nonempty alternating string of digits in {{-1, 0, 1}}: {digits!r}")
    value = sum(d << i for i, d in enumerate(reversed(digits)))
    return 2 * value - (next((d for d in reversed(digits) if d), 0) == 1)


def truncate_at(x: int, s: int) -> int:
    """Round encoding ``x`` to a grid ``2**s`` times coarser by truncation.

    Dropped word bits vanish; the first dropped bit becomes the new round
    bit.  The result is always within half of the new ulp of the input, with
    equality only at ties.
    """
    return x >> s


def negate(x: int) -> int:
    """Exact negation of encoding ``x``: complement the word and the round
    bit."""
    return ~x


def digit_limit() -> int:
    """The most decimal digits that a literal's field or a printed integer may
    have: the interpreter's ``int()`` limit, or 4300 where that is 0 (off) or absent."""
    return getattr(sys, "get_int_max_str_digits", int)() or 4300  # int() is 0


def int_of_field(field: str) -> int | None:
    """The integer of an ASCII ``-?[0-9]+`` field, or ``None`` past ``digit_limit()`` digits, leading
    zeros included; up to 640 characters, the lowest limit an interpreter takes, without reading it."""
    return int(field) if len(field) <= 640 or len(field.lstrip("-")) <= digit_limit() else None


def odd_part(m: int, e: int) -> tuple[int, int]:
    """``m * 2**e`` as ``(m, e)`` with an odd ``m``, or ``(0, 0)`` for zero."""
    if m == 0:
        return 0, 0
    k = (m & -m).bit_length() - 1  # trailing zero bits
    return m >> k, e + k


def decimal_of(m: int, e: int) -> str:
    """Exact decimal text of ``m * 2**e``; ``ValueError`` past ``digit_limit()`` digits."""
    m, e = odd_part(m, e)
    # 5**-e has under 3*|e| bits; below 2,000 bits (603 digits) no limit is reached
    if wide := m.bit_length() + 3 * abs(e) > 2000:
        limit = digit_limit()
        # 2**e or 5**-e alone is judged before it is built (5**-e takes superlinear time,
        # m << e memory); both logs exceed 1/4, so |e| >= 4 * limit never meets a float
        if abs(e) >= 4 * limit or abs(e) * math.log10(2 if e >= 0 else 5) >= limit:
            raise ValueError(f"exact decimal of 2**e with |e| of {e.bit_length()} bits has more than {limit} digits")
    digits = m << e if e >= 0 else m * 5 ** -e
    if wide and 3 * limit < digits.bit_length() and abs(digits) >= 10 ** limit:  # 10**limit has more bits
        raise ValueError(f"exact decimal of a {m.bit_length()}-bit mantissa * 2**{e} has more than {limit} digits")
    if e >= 0:
        return str(digits)
    sign = "-" if digits < 0 else ""
    text = str(abs(digits)).rjust(-e + 1, "0")
    return f"{sign}{text[:e]}.{text[e:]}"


def format_literal(x: RnFixed) -> str:
    """Textual form ``rn:<word bits>:r<round>@<lsb_exp>``; ``ValueError`` past ``digit_limit()`` exponent digits."""
    if x.lsb_exp.bit_length() > 2000 and abs(x.lsb_exp) >= 10 ** (limit := digit_limit()):  # past 603 digits
        raise ValueError(f"lsb exponent has more than {limit} digits")
    return f"rn:{x.bits & ((1 << x.width) - 1):0{x.width}b}:r{x.round}@{x.lsb_exp}"


# the literal's ASCII grammar; int() alone also takes blanks, underscores,
# a plus sign and non-ASCII digits
_LITERAL_RE = re.compile(r"rn:([01]+):r([01])@(-?[0-9]+)")


def parse_literal(text: str) -> RnFixed:
    """Parse the output of :func:`format_literal`, bit-exactly."""
    text = text.strip()
    m = _LITERAL_RE.fullmatch(text)
    exp = int_of_field(m[3]) if m else None
    if exp is None:
        raise ValueError(f"bad fixed-point literal: {text!r}")
    word = m[1]
    bits = int(word, 2)
    if word[0] == "1":
        bits -= 1 << len(word)
    return RnFixed(bits, len(word), int(m[2]), exp)
