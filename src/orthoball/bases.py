"""Orthogonal polynomial bases on the unit ball, classical and mass-modified.

A degree-n basis element is a product of a radial polynomial in 2*||x||^2 - 1
and a harmonic factor of degree n - 2k, indexed by (n, k, nu) with
0 <= k <= n/2 and the shifted radial parameter beta_k = n - 2k + (d-2)/2.

* classical_basis: radial factor P_k^(mu-1/2, beta_k); mutually orthogonal for
  the weighted ball product.
* mass_basis: radial factor is the point-mass family for coupling lam; mutually
  orthogonal for the ball product plus lam times the sphere product.

Harmonic factors come from harmonic_basis in its deterministic order, so nu is
a stable positional index (0-based).  Elements are kept orthogonal rather than
orthonormal; squared norms are recorded, each from the product form (Dunkl &
Xu, Orthogonal Polynomials of Several Variables, section 5.2): with radial
factor q_k, harmonic Y of degree m = n - 2k and alpha = mu - 1/2,

    classical: ||P||^2 = c_m <P_k, P_k>_(alpha, beta_k) <Y, Y>_sphere,
               c_m = (d/2)_m / ((d+1)/2 + mu)_m, the point-mass weight's total mass
    mass:      ||Q||^2 = inner_jacobi_mass(q_k, q_k) <Y, Y>_sphere

so a basis build makes no product on the ball.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .harmonics import harmonic_basis
from .jacobi import (FOURTH_ORDER_MU, _functional, _jacobi, _jacobi_params, _point_mass,
                     _total_mass, inner_jacobi_mass, mass_orthogonal_poly, type_eigenvalue)
from .polynomials import (MultiPoly, UniPoly, _check_mu, as_fraction, beta_shift, fraction_text,
                          mass_parameter, substitute_radial)


class BasisIndex(NamedTuple):
    n: int
    k: int
    nu: int  # 0-based position in the harmonic basis of degree n - 2k
    beta_k: Fraction


class BallBasisElement(NamedTuple):
    index: BasisIndex
    poly: MultiPoly
    sq_norm: Fraction
    harmonic_sq_norm: Fraction
    radial: UniPoly  # the radial factor, in t = 2*||x||^2 - 1


def _assemble(n, dim, radial_for_k) -> tuple[BallBasisElement, ...]:
    # radial_for_k(k) is the radial factor and its univariate weight, ||P||^2 / <Y, Y>_sphere.
    out = []
    for k in range(n // 2 + 1):
        q, weight = radial_for_k(k)
        radial = substitute_radial(q, dim)
        hb = harmonic_basis(dim, n - 2 * k)
        for nu, (Y, y_norm) in enumerate(zip(hb.elements, hb.sphere_norms)):
            index = BasisIndex(n, k, nu, beta_shift(n, k, dim))
            out.append(BallBasisElement(index, radial * Y, weight * y_norm, y_norm, q))
    return tuple(out)


@cache
def _classical_basis(n: int, dim: int, mu: Fraction) -> tuple[BallBasisElement, ...]:
    alpha = mu - Fraction(1, 2)

    def radial(k):
        key = _jacobi_params(alpha, beta_shift(n, k, dim))
        p = _jacobi(k, *key)
        return p, _functional(p, p, key, _total_mass(dim, key))

    return _assemble(n, dim, radial)


def classical_basis(n: int, dim: int, mu) -> tuple[BallBasisElement, ...]:
    """Mutually orthogonal basis of degree-n orthogonal polynomials for the ball weight."""
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    return _classical_basis(n, dim, _check_mu(mu))


@cache
def _mass_basis(n: int, dim: int, mu: Fraction, lam: Fraction) -> tuple[BallBasisElement, ...]:
    alpha = mu - Fraction(1, 2)

    def radial(k):
        beta = beta_shift(n, k, dim)
        q = mass_orthogonal_poly(k, alpha, beta, lam, dim)
        return q, inner_jacobi_mass(q, q, alpha, beta, lam, dim)

    return _assemble(n, dim, radial)


def mass_basis(n: int, dim: int, mu, lam) -> tuple[BallBasisElement, ...]:
    """Mutually orthogonal basis of degree n for the ball product plus lam * sphere product.

    It needs mu > -1/2 and lam > 0 (ValueError otherwise); mu = 1/2 is the case
    with the fourth-order theory.
    """
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    mu = _check_mu(mu)
    lam = _point_mass(lam)
    return _mass_basis(n, dim, mu, lam)


def find_element(elements, k: int, nu: int) -> BallBasisElement:
    """Pick the (k, nu) element out of a single-degree basis."""
    for el in elements:
        if el.index.k == k and el.index.nu == nu:
            return el
    raise KeyError(f"no element with k={k}, nu={nu}")


def basis_export(n: int, dim: int, mu, lam, kind: str) -> dict:
    """JSON-ready dump of a basis: indices, radial parameters, norms, polynomials.

    A "lambda" basis at mu = 1/2, the one mu with the fourth-order equation,
    also records each element's eigenvalue (M + k(k+b)) (M + (k+1)(k+b+1)),
    b = beta_k, M = d / (2 lam), which equals Lambda(n, k) of that equation.
    """
    mu, lam = as_fraction(mu), as_fraction(lam)
    if kind == "classical":
        elements = classical_basis(n, dim, mu)
    elif kind == "lambda":
        elements = mass_basis(n, dim, mu, lam)
    else:
        raise ValueError(f"kind must be 'classical' or 'lambda', got {kind!r}")
    # Only a "lambda" basis at mu = 1/2 has an eigenvalue. It depends on an element only
    # through k, so it is computed once per radial index, with the point mass M once per export.
    eigenvalues = {}
    if kind == "lambda" and mu == FOURTH_ORDER_MU:
        mass = mass_parameter(dim, lam)
        eigenvalues = {k: fraction_text(type_eigenvalue(k, beta_shift(n, k, dim), mass))
                       for k in range(n // 2 + 1)}
    records = []
    for el in elements:
        record = {
            "n": el.index.n,
            "k": el.index.k,
            "nu": el.index.nu,
            "beta_k": fraction_text(el.index.beta_k),
            "sq_norm": fraction_text(el.sq_norm),
            "harmonic_sq_norm": fraction_text(el.harmonic_sq_norm),
            "poly": el.poly.canonical(),
        }
        if eigenvalues:
            record["eigenvalue"] = eigenvalues[el.index.k]
        records.append(record)
    return {
        "dim": dim,
        "mu": fraction_text(mu),
        "lambda": fraction_text(lam),
        "degree": n,
        "kind": kind,
        "count": len(records),
        "elements": records,
    }


def basis_export_text(n: int, dim: int, mu, lam, kind: str) -> str:
    """Deterministic serialized form of basis_export (sorted keys, two-space indent)."""
    return json.dumps(basis_export(n, dim, mu, lam, kind), indent=2, sort_keys=True) + "\n"
