"""Certified rational enclosures of reals in [0,1].

An Enclosure is a pair of exact rationals lo <= hi guaranteed to contain the
real number being approximated.  Square roots are the only irrational values
this package ever meets; they are enclosed by outward-rounded integer square
roots, so all comparisons stay exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .rational import ONE, ZERO, dot_add, dot_sub, format_rational
from .record import record


@record
class Enclosure:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not (ZERO <= self.lo <= self.hi <= ONE):
            raise ValueError(f"bad enclosure [{self.lo}, {self.hi}]")

    @staticmethod
    def exact(value: Fraction) -> "Enclosure":
        value = Fraction(value)
        return Enclosure(value, value)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def contains(self, value: Fraction) -> bool:
        return self.lo <= value <= self.hi

    def contains_enclosure(self, other: "Enclosure") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersect(self, other: "Enclosure") -> "Enclosure":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            raise ValueError("disjoint enclosures; some bound was unsound")
        return Enclosure(lo, hi)

    def __str__(self):
        return f"lo {format_rational(self.lo)} hi {format_rational(self.hi)}"


# The widening of a quantifier level: truncated sum and difference of
# enclosures, both monotone, endpoint by endpoint.

def enc_dot_add(a: Enclosure, b: Enclosure) -> Enclosure:
    return Enclosure(dot_add(a.lo, b.lo), dot_add(a.hi, b.hi))


def enc_dot_sub(a: Enclosure, b: Enclosure) -> Enclosure:
    return Enclosure(dot_sub(a.lo, b.hi), dot_sub(a.hi, b.lo))


def truncated_weighted_sum(terms) -> Enclosure:
    """Enclose sum_i 2^-i t_i, t_i in [0,1], from its first k terms: the
    partial sum, plus at most 2^-k for the tail, capped at 1."""
    total, k = ZERO, 0
    for k, t in enumerate(terms, start=1):
        total += Fraction(t.numerator, t.denominator << k)     # t / 2^k
    return Enclosure(total, min(total + Fraction(1, 2 ** k), ONE))


def sqrt_enclosure(x: Fraction, prec_bits: int = 64) -> Enclosure:
    """Enclose sqrt(x) for x in [0,1] with width <= 2^-prec_bits.

    sqrt(n/d) = sqrt(n*d)/d, so one integer square root at scale 2^prec_bits
    gives outward bounds; perfect squares come out exact.
    """
    x = Fraction(x)
    if x < 0 or x > 1:
        raise ValueError(f"sqrt_enclosure needs x in [0,1], got {x}")
    if x == 0:
        return Enclosure.exact(ZERO)
    scale = 1 << prec_bits
    n = x.numerator * x.denominator * scale * scale
    r = isqrt(n)
    den = x.denominator * scale
    if r * r == n:
        return Enclosure.exact(Fraction(r, den))
    return Enclosure(Fraction(r, den), min(Fraction(r + 1, den), ONE))


def sqrt_leq_sum(a: Fraction, b: Fraction, c: Fraction) -> bool:
    """Decide sqrt(a) <= sqrt(b) + sqrt(c) exactly for rationals a,b,c >= 0.

    Equivalent to a - b - c <= 2*sqrt(b*c), squared again when positive.
    """
    if a < 0 or b < 0 or c < 0:
        raise ValueError("negative radicand")
    gap = a - b - c
    if gap <= 0:
        return True
    return gap * gap <= 4 * b * c

