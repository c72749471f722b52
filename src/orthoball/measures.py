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
of the weight that the public mu check rejects.

Each functional (d, mu, lam) has one integer moment table, the ball analogue
of the Jacobi moment table in ``jacobi``: with R(0..S-1) over one common
denominator D as integers r_s, it maps the packed key of each even monomial
x^(2a) to M = N(a) r_|a|, so L(x^(2a)) = M / D.  Entries are filled on first
read; a product of half-degree S or more rebuilds the table, with a new D, at
the next power of two.  A monomial moment is its table entry over D, or zero
when an exponent is odd.  Every product reads the table through one kernel,
``_images``, on the stored form of the polynomials (integer numerators over
a denominator Dp, keyed by packed monomials, see ``polynomials``).  Moments
pair only keys of one parity class (``polynomials._parity_mask``), so the
kernel groups the terms of its polynomials by class.  In each class it
reads the integer moment block M[v][u] = M[u + v] once, over the class's
sorted keys u and the keys v that its caller asks for, and images each member
P once from its nonzero entries: W[v] = sum_u P_u M[u + v], so that
L(p x^v) = W[v] / (Dp D).  Its three callers ask for:

* the class's own keys, in ``_gram``: G is a sum over the classes of
  R M R^T, a row of R the numerators of a member, and each member's image is
  dotted with the row of every member j >= i.  The nonzero dots collect in a
  map keyed (i, j), and each nonzero sum becomes one Fraction over Di Dj D:
  ``mass_gram`` and ``sphere_gram`` return only those entries with i <= j.
* the given keys, in ``moment_images``, where W[v] = 0 at a key of a class
  in which p has no terms.
* the keys of g, in a single product: L(f g) = (G . W_f) / (Df Dg D).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import prod
from operator import itemgetter, mul

from .polynomials import (_SPHERE_MU, MultiPoly, _check_mu, _half_degree, _parity_mask,
                          _unpack, as_exponents, as_fraction, integer_numerators, pack)


@cache
def _double_factorials(packed: int, dim: int) -> int:
    """N(a) = prod_i (2 a_i - 1)!! for the even monomial x^(2a) packed as ``packed``."""
    return prod(prod(range(e - 1, 0, -2)) for e in _unpack(packed, dim))


def _radial(dim: int, mu: Fraction, lam: int | Fraction, s: int) -> Fraction:
    """R(s), the factor that every moment of half-degree s shares: ball at mu plus lam times sphere."""
    def part(start):
        return prod((start + 2 * j for j in range(s)), start=Fraction(1))
    return 1 / part(dim + 2 * mu + 1) + lam / part(dim)


class _Moments(dict):
    """The moment table of one functional: packed x^(2a) -> N(a) r_|a|, over the denominator ``den``."""

    __slots__ = ("dim", "den", "scaled")

    def __init__(self, dim: int, mu: Fraction, lam: int | Fraction, size: int):
        super().__init__()
        self.dim = dim
        self.den, self.scaled = integer_numerators(_radial(dim, mu, lam, s) for s in range(size))

    def __missing__(self, packed: int) -> int:
        half = _half_degree(packed, self.dim)
        m = self[packed] = _double_factorials(packed, self.dim) * self.scaled[half]
        return m


_TABLES: dict[tuple[int, Fraction, int | Fraction], _Moments] = {}  # (d, mu, lam) -> table


def _moment_table(dim: int, mu: Fraction, lam: int | Fraction, top: int) -> _Moments:
    """The table of (dim, mu, lam), rebuilt at the next power of two in the half-degree
    when it stops short of the packed monomial ``top``."""
    half = _half_degree(top, dim)
    table = _TABLES.get((dim, mu, lam))
    if table is None or len(table.scaled) <= half:
        table = _TABLES[dim, mu, lam] = _Moments(dim, mu, lam, 1 << half.bit_length())
    return table


def _moment(exps, mu: Fraction) -> Fraction:
    """L(x^exps) at (mu, lam = 0): its table entry over D, or zero when an exponent is odd."""
    packed = pack(exps)
    if packed & _parity_mask(len(exps)):
        return Fraction(0)
    table = _moment_table(len(exps), mu, 0, packed)
    return Fraction(table[packed], table.den)


def sphere_moment(exps) -> Fraction:
    """Normalized sphere average of the monomial xi^exps; zero for odd exponents."""
    return _moment(as_exponents(exps), _SPHERE_MU)


def _check_lam(lam) -> Fraction:
    lam = as_fraction(lam)
    if lam < 0:
        raise ValueError(f"the sphere coupling must be non-negative, got {lam}")
    return lam


def ball_moment(exps, mu) -> Fraction:
    """Normalized weighted-ball moment of x^exps: sphere moment times a Beta-ratio."""
    return _moment(as_exponents(exps), _check_mu(mu))


def _batch_dim(polys) -> int:
    dim = polys[0].dim
    if any(p.dim != dim for p in polys):
        raise ValueError("the polynomials must share one dimension")
    return dim


def _by_parity(keys, dim: int) -> dict[int, list[int]]:
    """The packed monomial ``keys`` grouped by parity class."""
    low, by_parity = _parity_mask(dim), {}
    for b in keys:
        by_parity.setdefault(b & low, []).append(b)
    return by_parity


def _picker(positions: list[int]):
    """A function that reads the entries at ``positions`` of a sequence, as a tuple."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return lambda row, at=positions[0]: (row[at],)


def _images(polys: list[MultiPoly], columns: dict[int, list[int]], table: _Moments):
    """The image kernel: parity -> [(i, nums, pick, W)], one entry per member polys[i] of each
    parity class, with the numerators ``nums`` of its terms in the class, a ``pick`` of their
    positions among the class's sorted keys, and its image W[k] = sum_u P_u M[u + v_k] at the
    keys v_k of ``columns[parity]`` (parity -> keys of that class), from one moment block."""
    low, classes = _parity_mask(polys[0].dim), {}  # parity -> {i: {u: c_iu}}
    for i, p in enumerate(polys):
        for u, c in p.nums.items():
            classes.setdefault(u & low, {}).setdefault(i, {})[u] = c
    out = {}
    for parity, members in classes.items():
        keys = sorted(set().union(*members.values()))
        position = {u: at for at, u in enumerate(keys)}
        block = [[table[u + v] for u in keys] for v in columns.get(parity, ())]
        rows = out[parity] = []
        for i, terms in members.items():
            nums, pick = list(terms.values()), _picker([position[u] for u in terms])
            rows.append((i, nums, pick, [sum(map(mul, nums, pick(row))) for row in block]))
    return out


def moment_images(polys, keys, mu, lam=0) -> tuple[int, list[dict[int, int]]]:
    """The integer moment images of ``polys`` under the ball product plus lam times the sphere
    product: one denominator D and, for each p = P / Dp, the map b -> W[b] = sum_a P_a M[a + b]
    over the packed monomial ``keys`` (as in ``MultiPoly.nums``), so that
    inner_mass(p, x^b, mu, lam) = W[b] / (Dp D).  One table serves the whole batch.
    """
    mu, lam = _check_mu(mu), _check_lam(lam)
    polys, keys = list(polys), list(keys)
    if not polys:
        return 1, []
    dim = _batch_dim(polys)
    top = max(max(p.nums, default=0) for p in polys) + max(keys, default=0)
    table = _moment_table(dim, mu, lam, top)
    columns, images = _by_parity(keys, dim), [dict.fromkeys(keys, 0) for _ in polys]
    for parity, rows in _images(polys, columns, table).items():
        for i, _, _, image in rows:
            images[i].update(zip(columns.get(parity, ()), image))
    return table.den, images


def _gram(polys, mu: Fraction, lam: int | Fraction) -> dict[tuple[int, int], Fraction]:
    polys = list(polys)
    if not polys:
        return {}
    dim = _batch_dim(polys)
    table = _moment_table(dim, mu, lam, 2 * max(max(p.nums, default=0) for p in polys))
    # Each class is imaged at its own sorted keys, the positions that every member's pick reads.
    columns = _by_parity(sorted(set().union(*(p.nums for p in polys))), dim)
    sums = {}  # (i, j) -> the integer sum over the classes that polys i and j share
    for rows in _images(polys, columns, table).values():
        # G is symmetric, so member i is dotted only with the members j >= i, which follow it.
        for at, (i, _, _, image) in enumerate(rows):
            for j, other, read, _ in rows[at:]:
                if total := sum(map(mul, other, read(image))):
                    sums[i, j] = sums.get((i, j), 0) + total
    return {(i, j): Fraction(total, polys[i].den * polys[j].den * table.den)
            for (i, j), total in sums.items() if total}


def mass_gram(polys, mu, lam=0) -> dict[tuple[int, int], Fraction]:
    """The Gram matrix [inner_mass(f, g, mu, lam)] of ``polys`` as its nonzero entries with
    i <= j, keyed (i, j); an absent pair is zero.  One moment block per parity class and one
    image per polynomial and class it has terms in."""
    return _gram(polys, _check_mu(mu), _check_lam(lam))


def sphere_gram(polys) -> dict[tuple[int, int], Fraction]:
    """The Gram matrix [inner_sphere(f, g)] of ``polys`` as its nonzero entries with i <= j,
    keyed (i, j); an absent pair is zero.  One moment block per parity class and one image
    per polynomial and class it has terms in."""
    return _gram(polys, _SPHERE_MU, 0)


def _inner(f: MultiPoly, g: MultiPoly, mu: Fraction, lam: int | Fraction = 0) -> Fraction:
    """L(f g) = (G . W_f) / (Df Dg D): f imaged at the keys of g, dotted with g's numerators."""
    dim = _batch_dim((f, g))
    table = _moment_table(dim, mu, lam, max(f.nums, default=0) + max(g.nums, default=0))
    columns, total = _by_parity(g.nums, dim), 0
    for parity, ((_, _, _, image),) in _images([f], columns, table).items():
        total += sum(map(mul, map(g.nums.__getitem__, columns.get(parity, ())), image))
    return Fraction(total, f.den * g.den * table.den)


def inner_sphere(f: MultiPoly, g: MultiPoly) -> Fraction:
    """Normalized sphere inner product: the average of f*g over the unit sphere."""
    return _inner(f, g, _SPHERE_MU)


def inner_ball(f: MultiPoly, g: MultiPoly, mu) -> Fraction:
    """Normalized weighted-ball inner product of f and g."""
    return _inner(f, g, _check_mu(mu))


def inner_mass(f: MultiPoly, g: MultiPoly, mu, lam) -> Fraction:
    """Ball inner product plus lam times the sphere inner product, in one pass.

    lam = 0 degrades to the plain ball product.
    """
    return _inner(f, g, _check_mu(mu), _check_lam(lam))


def sphere_ball_ratio(dim: int, mu) -> Fraction:
    """Sphere area divided by the weighted ball mass: 2 / B(a, b) with a = d/2, b = mu + 1/2.

    2 / B(a, b) = 2 Gamma(a + b) Gamma(1) / (Gamma(a) Gamma(b)), a gamma_ratio:
    rational when mu is a half-integer or d is even.  Raises ExactnessError when
    neither a nor b is an integer.
    """
    from .exact_gamma import gamma_ratio

    mu = _check_mu(mu)
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    half_dim, shifted = Fraction(dim, 2), mu + Fraction(1, 2)
    return 2 * gamma_ratio((half_dim + shifted, 1), (half_dim, shifted))
