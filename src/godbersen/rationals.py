"""Exact rational scalars and their wire format.

Every rational quantity at the package's API edge is an int or a
``fractions.Fraction`` (aliased ``Rat``): the input coordinates, and the
results and views read off bodies, whose own data are integers over common
denominators (see ``geometry``).  Input coordinates become integers in one
place, ``linalg.scale_to_integers``, which reads a string through
``as_rat``.  Fraction already guarantees the invariants we need: lowest
terms, positive denominator, arbitrary precision, exact arithmetic.  On the
wire a rational is a decimal-free string ``"p/q"`` or ``"k"``; writers emit
lowest terms, readers accept any equivalent fraction.
"""

from __future__ import annotations

import re
from fractions import Fraction

Rat = Fraction

Vector = tuple[Rat, ...]
Point = tuple[Rat, ...]

_RAT_RE = re.compile(r"^[+-]?\d+(/\d*[1-9]\d*)?$", re.ASCII)


def parse_rational(text: str) -> Rat:
    """Parse ``"p/q"`` or ``"k"`` in ASCII digits; decimals, exponents, a
    zero denominator, other scripts' digits and anything that is not a string
    (a JSON number, say) raise ValueError.  A numerator or denominator past
    the interpreter's limit on integer string conversion is read in pieces
    (``_integer``), so whatever ``format_rational`` writes reads back."""
    if not isinstance(text, str) or not _RAT_RE.match(text.strip()):
        raise ValueError(f"not a rational literal: {text!r}")
    num, _, den = text.strip().partition("/")
    sign = -1 if num[0] == "-" else 1
    return Fraction(sign * _integer(num.lstrip("+-")), _integer(den or "1"))


def format_rational(x: Rat) -> str:
    """Lowest-terms string, ``"p/q"`` or ``"k"``, of any size: a numerator
    or denominator past the interpreter's limit on integer string conversion
    is written in pieces (``_decimal``), so the limit is left as it is."""
    x = Fraction(x)
    try:
        return str(x)
    except ValueError:
        text = _decimal(x.numerator)
        return text if x.denominator == 1 else f"{text}/{_decimal(x.denominator)}"


def _decimal(k: int) -> str:
    """The decimal digits of k, split in halves at a power of ten until each
    piece has fewer than 600 digits, under the least limit the interpreter
    allows (640)."""
    if k < 0:
        return "-" + _decimal(-k)
    if k.bit_length() < 1990:
        return str(k)
    half = k.bit_length() * 3 // 20  # about half of its log10(2) ~ 0.301 digits per bit
    high, low = divmod(k, 10 ** half)
    return _decimal(high) + _decimal(low).zfill(half)


def _integer(digits: str) -> int:
    """The int of a string of decimal digits, split in halves until each
    piece has fewer than 600 digits: the inverse of ``_decimal``."""
    if len(digits) < 600:
        return int(digits)
    half = len(digits) // 2
    return _integer(digits[:-half]) * 10 ** half + _integer(digits[-half:])


def as_rat(x) -> Rat:
    """Coerce int / Fraction / rational string to Rat.  Floats are refused."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to an exact rational")
