"""Exact normalized moments over the unit ball and sphere, and the inner products built on them.

The ball carries the weight (1 - ||x||^2)^(mu - 1/2) with mu > -1/2, normalized
so the total mass is 1; the sphere carries normalized surface measure.  A
monomial moment vanishes unless every exponent is even.  For x^(2a) with
half-degree s = |a| it is an integer times a rational that depends on s alone:

    L(x^(2a)) = N(a) * R(s),    N(a) = prod_i (2 a_i - 1)!!
    ball:    R(s) = 1 / prod_{j<s} (d + 2 mu + 1 + 2j)
    sphere:  R(s) = 1 / prod_{j<s} (d + 2j), the ball's R(s) at mu = -1/2

This is the Gamma form Gamma(d/2) prod_i Gamma(a_i + 1/2) / (Gamma(s + d/2)
Gamma(1/2)^d) of the sphere moment, times (d/2)_s / (d/2 + mu + 1/2)_s on the
ball, after Gamma(a + 1/2) / Gamma(1/2) = (2a - 1)!! / 2^a: no pi power or
irrational survives, for every rational mu > -1/2.  The sphere-area to
weighted-ball-mass ratio is rational for the parameter ranges accepted below.

Each inner product is a moment functional applied to the product,
<f, g> = L(f g), and every L here is the pair (mu, lam): ball moments at mu
plus lam times sphere moments, R(s) = R_ball(s) + lam R_sphere(s).  The ball
product is lam = 0 and the sphere product is mu = -1/2, lam = 0, the limit
of the weight that the public mu check rejects.  The kernel works in
integers on the stored form of f and g (integer numerators over denominators
Df and Dg, keyed by packed monomials, see ``polynomials``): it pairs the
parity-compatible terms with one int add per pair, sums c_a c_b N(a + b) per
half-degree, and only then applies one rational R(s) per half-degree and one
division by Df Dg.  A monomial moment is the same kernel on x^e against 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, prod

from .exact_gamma import ExactnessError, rising_factorial
from .polynomials import _FIELD, _FIELD_MASK, MultiPoly, as_exponents, as_fraction

# Normalized surface measure is the ball weight at mu = -1/2, a limit that _check_mu rejects.
_SPHERE_MU = Fraction(-1, 2)


@cache
def _low_bits(dim: int) -> int:
    """The lowest bit of each exponent field: x^e and x^f pair iff their packings agree here."""
    return sum(1 << (i * _FIELD) for i in range(dim))


@cache
def _double_factorials(packed: int, dim: int) -> int:
    """N(a) = prod_i (2 a_i - 1)!! for the even monomial x^(2a) packed as ``packed``."""
    n = 1
    for _ in range(dim):
        n *= prod(range((packed & _FIELD_MASK) - 1, 0, -2))
        packed >>= _FIELD
    return n


@cache
def _radial(dim: int, mu: Fraction, lam: int | Fraction, s: int) -> Fraction:
    """R(s), the factor that every moment of half-degree s shares: ball at mu plus lam times sphere."""
    def part(start):
        return prod((start + 2 * j for j in range(s)), start=Fraction(1))
    return 1 / part(dim + 2 * mu + 1) + lam / part(dim)


def _monomial(exps) -> MultiPoly:
    exps = as_exponents(exps)
    return MultiPoly(len(exps), {exps: 1})


def sphere_moment(exps) -> Fraction:
    """Normalized sphere average of the monomial xi^exps; zero for odd exponents."""
    x = _monomial(exps)
    return _bilinear(x, MultiPoly.constant(x.dim, 1), _SPHERE_MU)


def _check_mu(mu) -> Fraction:
    mu = as_fraction(mu)
    if mu <= _SPHERE_MU:
        raise ValueError(f"mu must exceed -1/2 for an integrable weight, got {mu}")
    return mu


def ball_moment(exps, mu) -> Fraction:
    """Normalized weighted-ball moment of x^exps: sphere moment times a Beta-ratio."""
    x = _monomial(exps)
    return _bilinear(x, MultiPoly.constant(x.dim, 1), _check_mu(mu))


def _bilinear(f: MultiPoly, g: MultiPoly, mu: Fraction, lam: int | Fraction = 0) -> Fraction:
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    dim = f.dim
    low = _low_bits(dim)
    # Moments vanish unless exponents match parity componentwise, so bucket g
    # by parity and pair each term of f with its own bucket only.
    buckets: dict[int, list[tuple[int, int]]] = {}
    for kb, cb in g.nums.items():
        buckets.setdefault(kb & low, []).append((kb, cb))
    product: dict[int, int] = {}
    for ka, ca in f.nums.items():
        for kb, cb in buckets.get(ka & low, ()):
            k = ka + kb
            product[k] = product.get(k, 0) + ca * cb
    shift = dim * _FIELD + 1
    sums: dict[int, int] = {}
    for k, c in product.items():
        if c:
            s = k >> shift
            sums[s] = sums.get(s, 0) + c * _double_factorials(k, dim)
    total = sum((_radial(dim, mu, lam, s) * t for s, t in sums.items()), Fraction(0))
    return total / (f.den * g.den)


def inner_sphere(f: MultiPoly, g: MultiPoly) -> Fraction:
    """Normalized sphere inner product: the average of f*g over the unit sphere."""
    return _bilinear(f, g, _SPHERE_MU)


def inner_ball(f: MultiPoly, g: MultiPoly, mu) -> Fraction:
    """Normalized weighted-ball inner product of f and g."""
    return _bilinear(f, g, _check_mu(mu))


def inner_mass(f: MultiPoly, g: MultiPoly, mu, lam) -> Fraction:
    """Ball inner product plus lam times the sphere inner product, in one pass.

    lam = 0 degrades to the plain ball product.
    """
    lam = as_fraction(lam)
    if lam < 0:
        raise ValueError(f"the sphere coupling must be non-negative, got {lam}")
    return _bilinear(f, g, _check_mu(mu), lam)


def sphere_ball_ratio(dim: int, mu) -> Fraction:
    """Sphere area divided by the weighted ball mass: 2 / B(a, b) with a = d/2, b = mu + 1/2.

    2 / B(a, b) = 2 Gamma(a + b) / (Gamma(a) Gamma(b)) is the Pochhammer ratio
    2 (a)_b / (b - 1)! when b is a positive integer, and the same with a and b
    swapped: rational when mu is a half-integer or d is even.  Raises
    ExactnessError when neither a nor b is an integer.
    """
    mu = _check_mu(mu)
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    half_dim, shifted = Fraction(dim, 2), mu + Fraction(1, 2)
    for a, b in ((half_dim, shifted), (shifted, half_dim)):
        if b.denominator == 1:
            return 2 * rising_factorial(a, b.numerator) / factorial(b.numerator - 1)
    raise ExactnessError(
        f"sphere/ball mass ratio is irrational for mu={mu} in odd dimension {dim}"
    )
