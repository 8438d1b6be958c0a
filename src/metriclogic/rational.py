"""Exact rational helpers: num/den parsing, the dotted [0,1] operations and
the scaling of rationals to ints over one common denominator.

Everything in this package computes with `fractions.Fraction`, or with
ints over a common denominator in inner loops; floats are never introduced
on value paths.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse `num/den` or a bare integer into a Fraction.

    Decimal notation is rejected on purpose: exactness is part of every
    interface of this package.
    """
    text = text.strip()
    if "." in text:
        raise ValueError(f"decimal notation not accepted, use num/den: {text!r}")
    num, slash, den = text.partition("/")
    try:
        num, den = int(num), int(den) if slash else 1
    except ValueError:
        raise ValueError(f"bad rational {text!r}: want num/den or an integer") from None
    if den == 0:
        raise ValueError(f"bad rational {text!r}: zero denominator")
    return Fraction(num, den)


def format_rational(q: Fraction) -> str:
    """Render as `num/den`, or a bare integer when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def scaled(values, den: int) -> List[int]:
    """Each rational times den, as an int; den must be a common multiple of
    their denominators."""
    return [q.numerator * (den // q.denominator) for q in values]


def in_unit(q: Fraction) -> bool:
    return ZERO <= q <= ONE


def dot_add(a: Fraction, b: Fraction) -> Fraction:
    """x +. y = min(x+y, 1)."""
    return min(a + b, ONE)


def dot_sub(a: Fraction, b: Fraction) -> Fraction:
    """x -. y = max(x-y, 0)."""
    return max(a - b, ZERO)


def dot_scale(q: Fraction, a: Fraction) -> Fraction:
    """Dotted product by a positive rational: min(q*a, 1)."""
    return min(q * a, ONE)
