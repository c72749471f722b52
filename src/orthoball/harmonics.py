"""Exact bases of harmonic homogeneous polynomials, orthogonal over the sphere.

A harmonic polynomial is fixed by its terms whose x_d-exponent is 0 or 1 (its
Cauchy data on x_d = 0; Axler, Bourdon & Ramey, *Harmonic Function Theory*,
ch. 5).  So each degree-m monomial x^e with e_d = a in {0, 1} starts exactly
one harmonic, x^e plus terms of higher x_d-exponent, in closed form:

    h_e = sum_i (-1)^i x_d^(a+2i) / (a+2i)! * Delta'^i x'^e'

with Delta' the Laplacian in x_1..x_(d-1) and x'^e' the monomial x^e without
its x_d factor: integer numerators over the one denominator (a + 2I)!, with I
the largest i.  These harmonics are then orthogonalized with Gram-Schmidt
under the normalized sphere inner product.  The basis is kept orthogonal
rather than orthonormal (normalizing would introduce square roots); the
squared sphere norms are recorded instead.

The Gram-Schmidt is the classical form, u_k = h_k - sum_j <h_k, u_j> / <u_j, u_j> u_j,
with every coefficient read from the original h_k.  The modified form reads
them from the partly reduced vector instead, w - sum_(i<j) c_i u_i, and
<w, u_j> = <h_k, u_j> because the earlier u_i are already orthogonal to u_j.
The two differ only in rounding (Bjorck, "Solving linear least squares
problems by Gram-Schmidt orthogonalization", BIT 7, 1967), and this
arithmetic is exact, so they give the same basis.  The classical form runs
on integers.  Each u_j is kept primitive: integer coefficients U_j with
content 1 and a positive coefficient at its largest key.  It is imaged once
over the block's monomials with the sphere moment table (``measures._image``),
W_j, and N_j = U_j . W_j is an integer, so <u_j, u_j> = N_j / D.  For
h_k = H / Dh the coefficient <h_k, u_j> / <u_j, u_j> is (H . W_j) / (Dh N_j).
u_k is fixed up to scale and primitivity fixes the scale, so u_k is the
primitive part of

    L H - sum_j (L / N_j) (H . W_j) U_j,    L = lcm of the N_j with H . W_j != 0,

and its recorded squared norm N_k / D is the one Fraction it builds.

Three structural facts keep the computation small and exact:

* h_e is the reduced-echelon nullspace vector of the Laplacian matrix at the
  free column x^e: with columns in grlex order, every other monomial of h_e
  has head exponents e' - 2j and sorts before x^e, and the dim H_m monomials
  with e_d <= 1 are all the free columns.  So no elimination is needed.
* The Laplacian preserves the componentwise parity of a monomial's exponent
  vector, so h_e lies in the parity block of e and Gram-Schmidt splits into
  independent parity blocks.  Sphere moments of mixed-parity products vanish,
  which makes polynomials from different blocks automatically orthogonal.
* On a homogeneous polynomial of degree m the radial derivative is realized
  by the Euler operator, giving the angular Laplacian a purely polynomial
  form: Delta_0 f = ||x||^2 Delta f - (E^2 + (d-2) E) f with E = sum x_i d/dx_i.
  On degree-m harmonics this evaluates to -m(m+d-2) f.  Delta_0 is applied
  in one pass over the packed terms (``polynomials.angular_laplacian``), and
  the polar decomposition checks it against the composed form
  ||x||^2 Delta f - m(m+d-2) f built from the Laplacian.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, factorial, gcd, lcm, prod
from typing import NamedTuple

from . import measures
from .polynomials import (_FIELD, Exponents, MultiPoly, angular_laplacian, euler_op, laplacian,
                          pack, radius_squared)


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
    last = a + 2 * sum(k // 2 for k in head)
    base = pack(e)
    shifts = [_FIELD * (dim - 1 - axis) for axis in range(dim - 1)]
    nums = {}
    for j in product(*(range(k // 2 + 1) for k in head)):
        i = sum(j)
        weight = prod(factorial(k) // (factorial(k - 2 * t) * factorial(t)) for k, t in zip(head, j))
        # x'^(e' - 2j) x_d^(a + 2i): the same total degree, 2 j_l less in each head field and
        # 2i more in the last one.
        key = base + 2 * i - sum(t << (shift + 1) for t, shift in zip(j, shifts))
        nums[key] = (-1) ** i * factorial(i) * weight * prod(range(a + 2 * i + 1, last + 1))
    return MultiPoly._make(dim, factorial(last), nums)


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

    ortho: list[MultiPoly] = []
    norms: list[Fraction] = []
    for parity in sorted(blocks):
        # Classical Gram-Schmidt within the block; pairs from different blocks are orthogonal
        # already because their products have only odd-exponent monomials.  Every monomial of
        # the block has its parity, so one list of keys serves every image.
        block = [_cauchy_harmonic(e) for e in blocks[parity]]
        keys = sorted(set().union(*(h.nums for h in block)))
        table = measures._moment_table(dim, measures._SPHERE_MU, 0, 2 * keys[-1])
        by_parity = {keys[0] & measures._low_bits(dim): keys}
        done: list[tuple[dict[int, int], dict[int, int], int]] = []  # (U_j, W_j, N_j)
        for h in block:
            # <h, u_j> / <u_j, u_j> = (H . W_j) / (Dh N_j), so Dh L (h - sum_j c_j u_j) is
            # L H - sum_j (L / N_j)(H . W_j) U_j on integers, with L the lcm of the N_j it reads.
            dots = []
            for nums, image, sq in done:
                dot = sum([c * image[b] for b, c in h.nums.items()])
                if dot:
                    dots.append((dot, sq, nums))
            scale = lcm(*(sq for _, sq, _ in dots))
            out = {k: scale * n for k, n in h.nums.items()}
            for dot, sq, nums in dots:
                f = scale // sq * dot
                for k, v in nums.items():
                    out[k] = out.get(k, 0) - f * v
            # u_k is the primitive part, with a positive coefficient at its largest key.
            out = {k: n for k, n in out.items() if n}
            content = gcd(*out.values())
            if out[max(out)] < 0:
                content = -content
            u = MultiPoly._make(dim, 1, {k: n // content for k, n in out.items()})
            image = measures._image(u, by_parity, table)
            sq = sum([c * image[b] for b, c in u.nums.items()])
            done.append((u.nums, image, sq))
            ortho.append(u)
            norms.append(Fraction(sq, table.den))

    return HarmonicBasis(dim, degree, tuple(ortho), tuple(norms))


def _check_homogeneous(p: MultiPoly, degree: int) -> None:
    if not p.is_homogeneous(degree) and not p.is_zero():
        raise ValueError(f"polynomial is not homogeneous of degree {degree}")


def euler_residual(p: MultiPoly, degree: int) -> MultiPoly:
    """sum_i x_i dp/dx_i - degree * p; zero exactly when p is homogeneous of that degree."""
    _check_homogeneous(p, degree)
    return euler_op(p) - degree * p


def laplace_beltrami_op(p: MultiPoly) -> MultiPoly:
    """Angular part of the Laplacian, with radial derivatives realized by the Euler operator."""
    return angular_laplacian(p)


def laplace_beltrami_residual(p: MultiPoly, degree: int) -> MultiPoly:
    """Eigen-equation residual Delta_0 p + m(m+d-2) p; zero exactly for harmonic p."""
    _check_homogeneous(p, degree)
    return laplace_beltrami_op(p) + degree * (degree + p.dim - 2) * p


def polar_decomposition_residual(p: MultiPoly, degree: int) -> MultiPoly:
    """||x||^2 Delta p - Delta_0 p - m(m+d-2) p; zero for every homogeneous p of degree m."""
    _check_homogeneous(p, degree)
    return (
        radius_squared(p.dim) * laplacian(p)
        - laplace_beltrami_op(p)
        - degree * (degree + p.dim - 2) * p
    )
