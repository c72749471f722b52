"""Exact normalized moments over the unit ball and sphere, and the inner products built on them.

The ball carries the weight (1 - ||x||^2)^(mu - 1/2) with mu > -1/2, normalized
so the total mass is 1; the sphere carries normalized surface measure.  A
monomial moment vanishes unless every exponent is even, and in that case it is
a rational number:

    sphere:  Gamma(d/2) * prod_i Gamma((v_i+1)/2) / (Gamma((|v|+d)/2) * Gamma(1/2)^d)
    ball:    sphere moment * (d/2)_s / (d/2 + mu + 1/2)_s,   s = |v| / 2

Both reduce by half-integer Gamma splitting and Pochhammer telescoping, so no
pi power or irrational survives.  The same is true of the sphere-area to
weighted-ball-mass ratio for the parameter ranges accepted below.

Each inner product is a moment functional applied to the product,
<f, g> = L(f g), with L the sphere moments, the ball moments, or ball plus lam
times sphere; one kernel applies L once per distinct exponent of f g.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial

from .exact_gamma import ExactnessError, gamma_ratio, rising_factorial
from .polynomials import Exponents, MultiPoly, as_fraction


def _parity(exps: Exponents) -> Exponents:
    return tuple(e & 1 for e in exps)


@cache
def _sphere_moment(exps: Exponents) -> Fraction:
    if any(e & 1 for e in exps):
        return Fraction(0)
    d = len(exps)
    total = sum(exps)
    numer = [Fraction(d, 2)] + [Fraction(e + 1, 2) for e in exps]
    denom = [Fraction(total + d, 2)] + [Fraction(1, 2)] * d
    return gamma_ratio(numer, denom)


def _exponents(exps) -> Exponents:
    exps = tuple(int(e) for e in exps)
    if any(e < 0 for e in exps):
        raise ValueError(f"negative exponent in {exps}")
    return exps


def sphere_moment(exps) -> Fraction:
    """Normalized sphere average of the monomial xi^exps; zero for odd exponents."""
    return _sphere_moment(_exponents(exps))


@cache
def _radial_factor(half_degree: int, dim: int, mu: Fraction) -> Fraction:
    top = rising_factorial(Fraction(dim, 2), half_degree)
    bottom = rising_factorial(Fraction(dim, 2) + mu + Fraction(1, 2), half_degree)
    return top / bottom


@cache
def _ball_moment(exps: Exponents, mu: Fraction) -> Fraction:
    return _sphere_moment(exps) * _radial_factor(sum(exps) // 2, len(exps), mu)


def _check_mu(mu) -> Fraction:
    mu = as_fraction(mu)
    if mu <= Fraction(-1, 2):
        raise ValueError(f"mu must exceed -1/2 for an integrable weight, got {mu}")
    return mu


def ball_moment(exps, mu) -> Fraction:
    """Normalized weighted-ball moment of x^exps: sphere moment times a Beta-ratio."""
    return _ball_moment(_exponents(exps), _check_mu(mu))


def _bilinear(f: MultiPoly, g: MultiPoly, moment) -> Fraction:
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    # Moments vanish unless exponents match parity componentwise, so bucket g
    # by parity and only pair compatible terms; the moment table is then
    # applied once per distinct exponent of that part of f*g.
    buckets: dict[Exponents, list[tuple[Exponents, Fraction]]] = {}
    for eb, cb in g.terms.items():
        buckets.setdefault(_parity(eb), []).append((eb, cb))
    product: dict[Exponents, Fraction] = {}
    for ea, ca in f.terms.items():
        for eb, cb in buckets.get(_parity(ea), ()):
            e = tuple(x + y for x, y in zip(ea, eb))
            c = ca * cb
            product[e] = product[e] + c if e in product else c
    return sum((c * moment(e) for e, c in product.items() if c), Fraction(0))


def inner_sphere(f: MultiPoly, g: MultiPoly) -> Fraction:
    """Normalized sphere inner product: the average of f*g over the unit sphere."""
    return _bilinear(f, g, _sphere_moment)


def inner_ball(f: MultiPoly, g: MultiPoly, mu) -> Fraction:
    """Normalized weighted-ball inner product of f and g."""
    mu = _check_mu(mu)
    return _bilinear(f, g, lambda e: _ball_moment(e, mu))


def inner_mass(f: MultiPoly, g: MultiPoly, mu, lam) -> Fraction:
    """Ball inner product plus lam times the sphere inner product, in one pass.

    lam = 0 degrades to the plain ball product.
    """
    lam = as_fraction(lam)
    if lam < 0:
        raise ValueError(f"the sphere coupling must be non-negative, got {lam}")
    mu = _check_mu(mu)
    return _bilinear(f, g, lambda e: _ball_moment(e, mu) + lam * _sphere_moment(e))


def sphere_ball_ratio(dim: int, mu) -> Fraction:
    """Sphere area divided by the weighted ball mass: 2*Gamma(mu+(d+1)/2) / (Gamma(d/2)*Gamma(mu+1/2)).

    Rational whenever mu is an integer or half-integer, and for every rational
    mu in even dimension; raises ExactnessError otherwise.
    """
    mu = _check_mu(mu)
    if mu.denominator in (1, 2):
        return 2 * gamma_ratio(
            [mu + Fraction(dim + 1, 2)],
            [Fraction(dim, 2), mu + Fraction(1, 2)],
        )
    if dim % 2 == 0:
        # Gamma(mu + 1/2 + d/2)/Gamma(mu + 1/2) telescopes for any rational mu.
        half = dim // 2
        return 2 * rising_factorial(mu + Fraction(1, 2), half) / factorial(half - 1)
    raise ExactnessError(
        f"sphere/ball mass ratio is irrational for mu={mu} in odd dimension {dim}"
    )
