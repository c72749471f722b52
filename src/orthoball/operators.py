"""Differential operators on the ball and their eigen-identities.

The classical second-order operator has every degree-n orthogonal polynomial
for the ball weight as an eigenfunction with eigenvalue -(n+d)(n+2mu-1).  At
mu = 1/2 a pair of second-order operators connects the classical basis to the
mass-modified one:

    [M - (1/4)(1-||x||^2) Delta]                          P -> Q
    [M + d/2 - (1/4)(1-||x||^2) Delta + <x, grad>]        Q -> Lambda * P

and their composition (first the second operator, then the first) gives each
Q a fourth-order partial differential equation with eigenvalue

    Lambda(n, k) = (M + k(n-k+(d-2)/2)) (M + (k+1)(n-k+d/2)).

Each second-order operator on the ball is one call of the library's one
multivariate second-order kernel, ``polynomials._second_order``,

    (c0 + c1 E + c2 E^2) p + (inner + outer ||x||^2) Delta p,    E = <x, grad>,

with its five coefficients at the call site (classical: -d(2mu-1), -(d+2mu-1), -1,
1, 0; connection: M, 0, 0, -1/4, 1/4; conjugate: M + d/2, 1, 0, -1/4, 1/4), put
over one denominator with ``integer_numerators`` as ``jacobi.connection_op`` does
for the line kernel ``jacobi._shift``; one integer pass over p's numerators makes
one reduction, and the fourth-order operator is two passes.  The arithmetic is
exact, so every eigen-identity here can be checked down to the literal zero
polynomial.
"""

from __future__ import annotations

from fractions import Fraction

from .jacobi import jacobi_polynomial, jacobi_type_poly
from .polynomials import (MultiPoly, UniPoly, _second_order, as_fraction, beta_shift,
                          integer_numerators)

# The 1/4 of the ball connection pair's -(1/4)(1-||x||^2) Delta.  The radial forms below keep
# their own copy, so they stay a path independent of the kernel.
_QUARTER = Fraction(1, 4)


def classical_ball_op(p: MultiPoly, mu) -> MultiPoly:
    """Delta - sum_j d/dx_j [ x_j (2mu - 1 + E) ] with E = <x, grad>, the euler_op.

    This divergence form (Dunkl & Xu, Orthogonal Polynomials of Several
    Variables, 5.2) is Delta - (d + g)(2mu - 1 + g) on each grade g, by
    sum_j d/dx_j (x_j h) = (d + E) h.  Degree-n orthogonal polynomials for the
    ball weight are eigenfunctions with eigenvalue -(n+d)(n+2mu-1).
    """
    s = 2 * as_fraction(mu) - 1
    den, coefficients = integer_numerators((-p.dim * s, -(p.dim + s), -1, 1, 0))
    return _second_order(p, den, *coefficients)


def ball_connection_op(p: MultiPoly, mass) -> MultiPoly:
    """[M - (1/4)(1-||x||^2) Delta] p; maps each classical element to its mass-modified partner."""
    den, coefficients = integer_numerators((as_fraction(mass), 0, 0, -_QUARTER, _QUARTER))
    return _second_order(p, den, *coefficients)


def ball_conjugate_op(p: MultiPoly, mass) -> MultiPoly:
    """[M + d/2 - (1/4)(1-||x||^2) Delta + <x, grad>] p; maps Q back to Lambda times P."""
    mass = as_fraction(mass)
    den, coefficients = integer_numerators((mass + Fraction(p.dim, 2), 1, 0, -_QUARTER, _QUARTER))
    return _second_order(p, den, *coefficients)


def fourth_order_op(p: MultiPoly, mass) -> MultiPoly:
    """The composed fourth-order operator, conjugate factor applied first."""
    return ball_connection_op(ball_conjugate_op(p, mass), mass)


def fourth_order_eigenvalue(n: int, k: int, dim: int, mass) -> Fraction:
    """Lambda(n, k) = (M + k(n-k+(d-2)/2)) (M + (k+1)(n-k+d/2))."""
    if not 0 <= 2 * k <= n:
        raise ValueError(f"radial index k={k} out of range for degree n={n}")
    mass = as_fraction(mass)
    first = mass + k * (n - k + Fraction(dim - 2, 2))
    second = mass + (k + 1) * (n - k + Fraction(dim, 2))
    return first * second


def _radial_profile(u: UniPoly, shift: int) -> UniPoly:
    """r^shift * u(2r^2 - 1) as a polynomial in r."""
    return u.compose(UniPoly([-1, 0, 2])).times_tpow(shift)


def _angular_bracket(f: UniPoly, dim: int, harmonic_degree: int) -> UniPoly:
    # f'' + (d-1) f'/r - s(s+d-2) f/r^2, assembled as an exact division by r^2;
    # the low-order coefficients cancel whenever f = r^s * u(2r^2-1).
    s = harmonic_degree
    df = f.derivative()
    combined = (
        UniPoly([0, 0, 1]) * df.derivative()
        + (dim - 1) * UniPoly([0, 1]) * df
        - s * (s + dim - 2) * f
    )
    return combined.exact_div_tpow(2)


def radial_connection_residuals(n: int, k: int, dim: int, mass) -> tuple[UniPoly, UniPoly]:
    """Residuals of the radial (one-variable) forms of the connection identities.

    The operators act on r^(n-2k) * u(2r^2-1) with the angular eigenvalue
    folded in; both returned polynomials in r are exactly zero.
    """
    mass = as_fraction(mass)
    s = n - 2 * k
    beta = beta_shift(n, k, dim)
    f_classical = _radial_profile(jacobi_polynomial(k, 0, beta), s)
    f_mass = _radial_profile(jacobi_type_poly(k, beta, mass), s)
    one_minus_r2 = UniPoly([1, 0, -1])

    def m1(f: UniPoly) -> UniPoly:
        return mass * f - Fraction(1, 4) * one_minus_r2 * _angular_bracket(f, dim, s)

    def m2(f: UniPoly) -> UniPoly:
        return m1(f) + Fraction(dim, 2) * f + UniPoly([0, 1]) * f.derivative()

    eig = fourth_order_eigenvalue(n, k, dim, mass)
    return m1(f_classical) - f_mass, m2(f_mass) - eig * f_classical
