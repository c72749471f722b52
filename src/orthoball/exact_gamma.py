"""Pochhammer products, the one form of every constant in this library.

Each constant is a ratio of Gamma values whose arguments differ by integers, so
it is a product of rising factorials (a)_n = Gamma(a + n) / Gamma(a), rational
for every rational a.  Where no such product exists the caller raises
ExactnessError; nothing here evaluates Gamma itself.
"""

from __future__ import annotations

from fractions import Fraction

from .polynomials import as_fraction


class ExactnessError(ValueError):
    """The requested quantity is not rational under the given parameters."""


def rising_factorial(a, count: int) -> Fraction:
    """Pochhammer product a*(a+1)*...*(a+count-1); equals Gamma(a+count)/Gamma(a)."""
    a = as_fraction(a)
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    result = Fraction(1)
    for j in range(count):
        result *= a + j
    return result
