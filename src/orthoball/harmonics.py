"""Exact bases of harmonic homogeneous polynomials, orthogonal over the sphere.

The degree-m harmonics in d variables are the nullspace of the Laplacian
restricted to homogeneous degree-m polynomials.  That nullspace is computed
by exact Gaussian elimination over the rationals, then orthogonalized with
Gram-Schmidt under the normalized sphere inner product.  The basis is kept
orthogonal rather than orthonormal (normalizing would introduce square
roots); the squared sphere norms are recorded instead.

Two structural facts keep the computation small and exact:

* The Laplacian preserves the componentwise parity of a monomial's exponent
  vector, so the elimination and the Gram-Schmidt pass split into independent
  parity blocks.  Sphere moments of mixed-parity products vanish, which makes
  polynomials from different blocks automatically orthogonal.
* On a homogeneous polynomial of degree m the radial derivative is realized
  by the Euler operator, giving the angular Laplacian a purely polynomial
  form: Delta_0 f = ||x||^2 Delta f - (E^2 + (d-2) E) f with E = sum x_i d/dx_i.
  On degree-m harmonics this evaluates to -m(m+d-2) f.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, gcd

from .measures import inner_sphere
from .polynomials import Exponents, MultiPoly, euler_op, laplacian, pack, radius_squared


def harmonic_space_dim(dim: int, degree: int) -> int:
    """Dimension of the space of degree-``degree`` harmonics in ``dim`` variables."""
    if dim < 1 or degree < 0:
        raise ValueError(f"bad harmonic space parameters dim={dim}, degree={degree}")
    first = comb(degree + dim - 1, dim - 1)
    second = comb(degree + dim - 3, dim - 1) if degree + dim - 3 >= 0 else 0
    return first - second


@dataclass(frozen=True)
class HarmonicBasis:
    """Mutually sphere-orthogonal basis of harmonic homogeneous polynomials."""

    dim: int
    degree: int
    elements: tuple[MultiPoly, ...]
    sphere_norms: tuple[Fraction, ...]  # squared norms under the normalized sphere product


def _monomials(dim: int, degree: int) -> list[Exponents]:
    if dim == 1:
        return [(degree,)]
    out = []
    for head in range(degree + 1):
        for tail in _monomials(dim - 1, degree - head):
            out.append((head,) + tail)
    out.sort(key=pack)
    return out


def _nullspace(matrix: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right nullspace via reduced row echelon form.

    Pivoting is deterministic (first nonzero entry scanning columns left to
    right), so the returned basis depends only on the input matrix.
    """
    rows = [row[:] for row in matrix]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [vi - factor * vr for vi, vr in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -rows[row_idx][fc]
        basis.append(vec)
    return basis


def _primitive(p: MultiPoly) -> MultiPoly:
    """Scale to integer coefficients with content 1 and positive leading grlex term."""
    if p.is_zero():
        return p
    content = gcd(*p.nums.values())
    if p.nums[max(p.nums)] < 0:
        content = -content
    return p * Fraction(p.den, content)


@cache
def harmonic_basis(dim: int, degree: int) -> HarmonicBasis:
    """Construct the exact sphere-orthogonal basis of degree-``degree`` harmonics."""
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    monos = _monomials(dim, degree)
    blocks: dict[Exponents, list[Exponents]] = {}
    for e in monos:
        blocks.setdefault(tuple(v & 1 for v in e), []).append(e)

    ortho: list[MultiPoly] = []
    norms: list[Fraction] = []
    for parity in sorted(blocks):
        cols = blocks[parity]
        col_index = {e: i for i, e in enumerate(cols)}
        # Rows of the Laplacian matrix: degree-(m-2) monomials of the same parity.
        row_index: dict[Exponents, int] = {}
        rows: list[list[Fraction]] = []
        for j, e in enumerate(cols):
            for axis in range(dim):
                k = e[axis]
                if k < 2:
                    continue
                target = e[:axis] + (k - 2,) + e[axis + 1:]
                if target not in row_index:
                    row_index[target] = len(rows)
                    rows.append([Fraction(0)] * len(cols))
                rows[row_index[target]][j] += k * (k - 1)
        # Gram-Schmidt within the block; pairs from different blocks are orthogonal
        # already because their products have only odd-exponent monomials.
        start = len(ortho)
        for vec in _nullspace(rows, len(cols)):
            work = _primitive(MultiPoly(dim, {e: vec[col_index[e]] for e in cols}))
            for u, norm in zip(ortho[start:], norms[start:]):
                coeff = inner_sphere(work, u) / norm
                if coeff:
                    work = work - coeff * u
            work = _primitive(work)
            ortho.append(work)
            norms.append(inner_sphere(work, work))

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
    e = euler_op(p)
    return radius_squared(p.dim) * laplacian(p) - euler_op(e) - (p.dim - 2) * e


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
