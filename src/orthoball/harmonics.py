"""Exact bases of harmonic homogeneous polynomials, orthogonal over the sphere.

A harmonic polynomial is fixed by its terms whose x_d-exponent is 0 or 1 (its
Cauchy data on x_d = 0; Axler, Bourdon & Ramey, *Harmonic Function Theory*,
ch. 5).  So each degree-m monomial x^e with e_d = a in {0, 1} starts exactly
one harmonic, x^e plus terms of higher x_d-exponent, in closed form:

    h_e = sum_i (-1)^i x_d^(a+2i) / (a+2i)! * Delta'^i x'^e'

with Delta' the Laplacian in x_1..x_(d-1) and x'^e' the monomial x^e without
its x_d factor: integer numerators over the one denominator (a + 2I)!, with I
the largest i.  These harmonics are then orthogonalized with Gram-Schmidt
for the normalized sphere inner product.  The basis is kept orthogonal
rather than orthonormal (normalizing would introduce square roots); the
squared sphere norms are recorded instead.

The Gram-Schmidt runs under the Fischer product [p, q] = sum_e e! p_e q_e, with
e! = e_1! ... e_d!, which is diagonal in the monomials.  On homogeneous
polynomials of degree m, one of them harmonic, it is the sphere product up to
one constant (Axler, Bourdon & Ramey, ch. 5):

    <p, q>_sphere = [p, q] / (d (d+2) ... (d+2m-2)).

So both products have the same orthogonal complements on the degree-m
harmonics, and Gram-Schmidt under either gives the same basis; only the
recorded norms carry the denominator.

The Gram-Schmidt is polynomials._gram_schmidt, the classical form on primitive
integer rows.  Its starts are the numerators H of the h_e = H / Dh, as dense
rows over the parity block's monomials in grlex order (the blocks are below):
x^e is the largest key of h_e, with a positive coefficient, and the x^e
increase, so each start ends past every earlier row.  The Fischer product's
image of a row U is W = {e: U_e e!}, one product per entry, so each norm
N = U . W = [u, u] is an integer, and the recorded squared sphere norm
N / (d (d+2) ... (d+2m-2)) is the one Fraction each element builds.  No sphere
moment is read: the moment table serves only the verifier's check of the
basis against the sphere product.

Three structural facts keep the computation small and exact:

* h_e is the reduced-echelon nullspace vector of the Laplacian matrix at the
  free column x^e: with columns in grlex order, every other monomial of h_e
  has head exponents e' - 2j and sorts before x^e, and the dim H_m monomials
  with e_d <= 1 are all the free columns.  So no elimination is needed.
* The Laplacian preserves the componentwise parity of a monomial's exponent
  vector, so h_e lies in the parity block of e and Gram-Schmidt splits into
  independent parity blocks.  Polynomials from different blocks share no
  monomial, so they are orthogonal under the Fischer product, and under the
  sphere product too, whose moments of mixed-parity products vanish.
* On a homogeneous polynomial of degree m the radial derivative is realized
  by the Euler operator, giving the angular Laplacian a purely polynomial
  form: Delta_0 f = ||x||^2 Delta f - (E^2 + (d-2) E) f with E = sum x_i d/dx_i.
  On degree-m harmonics this evaluates to -m(m+d-2) f.  Delta_0 is one call of
  the library's one multivariate second-order kernel,
  ``polynomials._second_order``, which reads no Laplacian key, and the polar
  decomposition checks it against the composed form ||x||^2 Delta f - m(m+d-2) f
  built from ``laplacian``.

Each operator and residual is one kernel call with integer coefficients at the
call site: E - m is ``_second_order`` with (c0, c1, c2, inner, outer) =
(-m, 1, 0, 0, 0), and Delta_0 + m(m+d-2) is the same kernel with
(m(m+d-2), 2-d, -1, 0, 1), the eigenvalue folded into the per-grade scalar.  A
residual reads any polynomial, homogeneous or not, and is nonzero exactly where
its docstring says, so an element off its grade fails its check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial, prod
from operator import mul
from typing import NamedTuple

from .polynomials import (_FIELD, Exponents, MultiPoly, _gram_schmidt, _second_order, _unpack,
                          laplacian, pack, radius_squared)


def harmonic_space_dim(dim: int, degree: int) -> int:
    """Dimension of the space of degree-``degree`` harmonics in ``dim`` variables."""
    if dim < 1 or degree < 0:
        raise ValueError(f"bad harmonic space parameters dim={dim}, degree={degree}")
    first = comb(degree + dim - 1, dim - 1)
    second = comb(degree + dim - 3, dim - 1) if degree + dim - 3 >= 0 else 0
    return first - second


class HarmonicBasis(NamedTuple):
    """Mutually sphere-orthogonal basis of harmonic homogeneous polynomials."""

    dim: int
    degree: int
    elements: tuple[MultiPoly, ...]
    sphere_norms: tuple[Fraction, ...]  # squared norms under the normalized sphere product


@cache
def _monomials(dim: int, degree: int) -> tuple[Exponents, ...]:
    """Every exponent vector of total degree ``degree`` in ``dim`` variables, in grlex order."""
    if dim == 1:
        return ((degree,),)
    out = []
    for head in range(degree + 1):
        for tail in _monomials(dim - 1, degree - head):
            out.append((head,) + tail)
    out.sort(key=pack)
    return tuple(out)


def _cauchy_harmonic(e: Exponents) -> MultiPoly:
    """The harmonic x^e plus terms of higher x_d-exponent, for e_d = a in {0, 1}.

    Delta'^i x'^e' expands by the multinomial theorem over j with |j| = i: the
    monomial x'^(e' - 2j) has coefficient i! prod_l e'_l! / ((e'_l - 2 j_l)! j_l!).
    Every coefficient is an integer over (a + 2i)!, so all are integers over (a + 2I)!,
    with I the largest i.
    """
    *head, a = e
    dim = len(e)
    top = sum(k // 2 for k in head)
    last = a + 2 * top
    # (prod of the axis weights so far, i so far, key) for each j, one head axis at a time.
    # The weight e'_l! / ((e'_l - 2t)! t!) is the running product
    # w_(t+1) = w_t (e'_l - 2t)(e'_l - 2t - 1) / (t + 1), and the key step takes 2t off the
    # axis field and puts it on the last one, so the total degree stays.
    terms = [(1, 0, pack(e))]
    for axis, k in enumerate(head):
        shift = _FIELD * (dim - 1 - axis) + 1
        w, steps = 1, []
        for t in range(k // 2 + 1):
            steps.append((w, t, (t << shift) - 2 * t))
            w = w * (k - 2 * t) * (k - 2 * t - 1) // (t + 1)
        terms = [(v * w, i + t, key - step) for v, i, key in terms for w, t, step in steps]
    # The x_d factor (-1)^i i! (a + 2I)! / (a + 2i)! of every term with |j| = i.
    last_factor = [(-1) ** i * factorial(i) * prod(range(a + 2 * i + 1, last + 1))
                   for i in range(top + 1)]
    nums = {key: last_factor[i] * v for v, i, key in terms}
    return MultiPoly._make(dim, factorial(last), nums)


@cache
def _fischer_weight(packed: int, dim: int) -> int:
    """e! = prod_i e_i!, the Fischer product's weight [x^e, x^e] of the packed monomial x^e."""
    return prod(factorial(e) for e in _unpack(packed, dim))


@cache
def harmonic_basis(dim: int, degree: int) -> HarmonicBasis:
    """Construct the exact sphere-orthogonal basis of degree-``degree`` harmonics."""
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    # One harmonic per monomial x^e with e_d <= 1, in parity blocks, each in grlex order.
    blocks: dict[Exponents, list[Exponents]] = {}
    for e in _monomials(dim, degree):
        if e[-1] < 2:
            blocks.setdefault(tuple(v & 1 for v in e), []).append(e)
    # <f, g>_sphere = [f, g] / (d (d+2) ... (d+2m-2)) on degree-m harmonics.
    sphere_den = prod(range(dim, dim + 2 * degree, 2))

    ortho: list[MultiPoly] = []
    norms: list[Fraction] = []
    for parity in sorted(blocks):
        # Gram-Schmidt within the block; pairs from different blocks are orthogonal already
        # because they share no monomial.
        starts = [_cauchy_harmonic(e).nums for e in blocks[parity]]
        keys = sorted(set().union(*starts))
        position = {k: i for i, k in enumerate(keys)}
        rows = []
        for e, nums in zip(blocks[parity], starts):
            row = [0] * (position[pack(e)] + 1)
            for k, n in nums.items():
                row[position[k]] = n
            rows.append(row)
        weights = [_fischer_weight(k, dim) for k in keys]
        for u, sq in _gram_schmidt(rows, lambda u: list(map(mul, u, weights))):
            ortho.append(MultiPoly._make(dim, 1, dict(zip(keys, u))))
            norms.append(Fraction(sq, sphere_den))

    return HarmonicBasis(dim, degree, tuple(ortho), tuple(norms))


def euler_residual(p: MultiPoly, degree: int) -> MultiPoly:
    """sum_i x_i dp/dx_i - degree * p; zero exactly when p is homogeneous of that degree.

    One kernel pass with the eigenvalue folded in: grade g is scaled by g - m.
    """
    return _second_order(p, 1, -degree, 1, 0, 0, 0)


def laplace_beltrami_op(p: MultiPoly) -> MultiPoly:
    """Angular part of the Laplacian, with radial derivatives realized by the Euler operator."""
    return _second_order(p, 1, 0, 2 - p.dim, -1, 0, 1)


def laplace_beltrami_residual(p: MultiPoly, degree: int) -> MultiPoly:
    """Eigen-equation residual Delta_0 p + m(m+d-2) p; zero on every degree-m harmonic.

    On a homogeneous p of degree m it is zero only then.  Delta_0 commutes with a factor
    ||x||^2, so it is zero on ||x||^2 Y for a degree-m harmonic Y too, and on every sum of
    ||x||^(2i) Y_i.  One kernel pass with the eigenvalue folded in: grade g is scaled by
    m(m+d-2) - g(g+d-2) where Delta_0 alone scales it by -g(g+d-2).  At d = 1 the grade
    scalar g(g-1) does not tell g = 0 from g = 1, so d < 2 raises ValueError.
    """
    if p.dim < 2:
        raise ValueError(f"dimension must be at least 2, got {p.dim}")
    return _second_order(p, 1, degree * (degree + p.dim - 2), 2 - p.dim, -1, 0, 1)


def polar_decomposition_residual(p: MultiPoly, degree: int) -> MultiPoly:
    """||x||^2 Delta p - Delta_0 p - m(m+d-2) p; zero exactly when p is homogeneous of degree m.

    It is (E^2 + (d-2) E - m(m+d-2)) p, which scales grade g by g(g+d-2) - m(m+d-2), zero
    only at g = m for d >= 2; d < 2 raises ValueError.  The composed side ||x||^2 Delta p
    less the folded angular side, in one combine.
    """
    return radius_squared(p.dim) * laplacian(p) - laplace_beltrami_residual(p, degree)
