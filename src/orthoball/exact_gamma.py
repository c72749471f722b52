"""Pochhammer products, the one form of every constant in this library.

Each constant is a ratio of Gamma values whose arguments differ by integers, so
it is a product of rising factorials (a)_n = Gamma(a + n) / Gamma(a), rational
for every rational a.  gamma_ratio alone decides whether such a pairing of the
Gammas exists, and raises ExactnessError when none does; nothing here evaluates
Gamma itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .polynomials import as_fraction


class ExactnessError(ValueError):
    """The requested quantity is not rational under the given parameters."""


def rising_factorial(a, count: int) -> Fraction:
    """Pochhammer product a*(a+1)*...*(a+count-1); equals Gamma(a+count)/Gamma(a)."""
    a = as_fraction(a)
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    p, q = a.numerator, a.denominator  # (p/q)_n = prod_j (p + j q) / q^n, on integers
    return Fraction(prod(range(p, p + count * q, q)), q ** count)


def gamma_ratio(tops, bottoms) -> Fraction:
    """Gamma(p1) Gamma(p2) / (Gamma(q1) Gamma(q2)) for tops (p1, p2) and bottoms (q1, q2).

    Each Gamma(p) / Gamma(q) with an integer gap p - q is (q)_gap, or 1 / (p)_(-gap)
    for a negative gap.  The pairing p1/q1, p2/q2 is tried first, then p1/q2, p2/q1;
    ExactnessError when neither has integer gaps.
    """
    (p1, p2), (q1, q2) = map(as_fraction, tops), map(as_fraction, bottoms)
    for pairs in (((p1, q1), (p2, q2)), ((p1, q2), (p2, q1))):
        # p - q is an integer exactly when both have one reduced denominator c and c divides
        # the difference of the numerators.
        if all(p.denominator == q.denominator and not (p.numerator - q.numerator) % q.denominator
               for p, q in pairs):
            num = den = 1
            for top, bottom in pairs:  # Gamma(top) / Gamma(bottom), on integers over c^|gap|
                c = top.denominator
                gap = (top.numerator - bottom.numerator) // c
                if gap >= 0:
                    start = bottom.numerator
                    num, den = num * prod(range(start, start + gap * c, c)), den * c ** gap
                else:
                    start = top.numerator
                    num, den = num * c ** -gap, den * prod(range(start, start - gap * c, c))
            return Fraction(num, den)
    raise ExactnessError(f"Gamma({p1}) Gamma({p2}) / (Gamma({q1}) Gamma({q2})) has no Pochhammer form")
