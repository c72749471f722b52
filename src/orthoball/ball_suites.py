"""The verifier's seven ball and sphere suites, loaded the first time one of them runs.

``verify.run_suites`` imports this module only for the suites that read the
ball: ``harmonics``, ``moments``, ``classical-orthogonality``,
``lambda-orthogonality``, ``d-mu-eigen``, ``connection`` and ``fourth-order``,
each the generator ``_suite_<name>``.  A run of the univariate suites alone
therefore loads none of it.  Each suite imports the layers it reads when it
starts, so ``harmonics`` loads neither the ball bases nor the operators.

A suite yields one ``(identity, params, items)`` triple per check, and
``verify._run_suite`` times each check from resuming the suite to reading the
check's last item.  So each basis, Gram matrix and list of eigenvalues is built
in the suite body just before the yield of the first check that reads it, and
is charged to that check alone; items that draw from the seeded ``_rng`` stay
lazy, so a check that fails stops drawing at its first failure.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from math import comb
from typing import TYPE_CHECKING, Iterator

# The polynomial layer is loaded by every verifier run before this module is.
from .polynomials import (MultiPoly, UniPoly, _monomials, beta_shift, laplacian, pack,
                          substitute_radial)
from .verify import _HALF, SuiteConfig, _beta_values, _nonzero_above_diagonal, _params

if TYPE_CHECKING:
    from .bases import BallBasisElement


def _rng(cfg: SuiteConfig, suite: str) -> random.Random:
    return random.Random(f"{cfg.seed}:{suite}")


def _random_unipoly(rng: random.Random, degree: int) -> UniPoly:
    return UniPoly([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(degree + 1)])


def _random_multipoly(rng: random.Random, dim: int, degree: int) -> MultiPoly:
    terms = {}
    for _ in range(degree + 3):
        exps = [0] * dim
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(dim)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return MultiPoly(dim, terms)


def _random_homogeneous(rng: random.Random, dim: int, degree: int) -> MultiPoly:
    # Rational coefficients over one drawn denominator, so a kernel that drops a polynomial's
    # denominator shows; the stored form is the integer draws over it, reduced.
    monos = _monomials(dim, degree)
    return MultiPoly._make(dim, rng.randint(2, 6), {pack(e): rng.randint(-4, 4) for e in monos})


def _suite_harmonics(cfg: SuiteConfig) -> Iterator[tuple]:
    from . import harmonics, measures

    rng = _rng(cfg, "harmonics")
    d = cfg.dim
    for m in range(cfg.max_degree + 1):
        p = {"dim": d, "degree": m}
        basis = harmonics.harmonic_basis(d, m)
        els = basis.elements
        yield "harmonic-dimension", p, [(m, len(els), harmonics.harmonic_space_dim(d, m))]
        yield "harmonic-laplace", p, ((i, laplacian(Y)) for i, Y in enumerate(els))
        yield "harmonic-sphere-orthogonality", p, _nonzero_above_diagonal(measures.sphere_gram(els))
        yield "harmonic-norm-positive", p, (
            (i, norm > 0, True) for i, norm in enumerate(basis.sphere_norms)
        )
        yield "euler-identity", p, ((i, harmonics.euler_residual(Y, m)) for i, Y in enumerate(els))
        yield "laplace-beltrami-eigen", p, (
            (i, harmonics.laplace_beltrami_residual(Y, m)) for i, Y in enumerate(els)
        )
        yield "polar-decomposition", p, (
            (trial, harmonics.polar_decomposition_residual(_random_homogeneous(rng, d, m), m))
            for trial in range(3)
        )


def _exps_upto(dim: int, total: int):
    for deg in range(total + 1):
        yield from _monomials(dim, deg)


def _bumps(e):
    """Each exponent e + 2 e_i, for i along every axis."""
    return [e[:i] + (e[i] + 2,) + e[i + 1:] for i in range(len(e))]


def _suite_moments(cfg: SuiteConfig) -> Iterator[tuple]:
    from . import measures

    rng = _rng(cfg, "moments")
    d, mu = cfg.dim, cfg.mu
    cap = min(6, 2 * cfg.max_degree)
    ratio = (mu + Fraction(1, 2)) / (mu + Fraction(d + 1, 2))
    p = _params(cfg, "dim", "mu", "lambda")
    one = MultiPoly.constant(d, 1)
    mass = partial(measures.inner_mass, mu=mu, lam=cfg.lam)
    ball = partial(measures.ball_moment, mu=mu)

    def symmetry():
        fs = [_random_multipoly(rng, d, 3) for _ in range(3)]
        gs = [_random_multipoly(rng, d, 3) for _ in range(3)]
        for i, (f, g) in enumerate(zip(fs, gs)):
            h = fs[(i + 1) % 3]
            yield ("symmetry", i), mass(f, g) - mass(g, f)
            yield ("bilinearity", i), mass(f + g, h) - mass(f, h) - mass(g, h)

    yield "sphere-moment-consistency", {"dim": d, "max_total_degree": cap}, (
        (e, sum(map(measures.sphere_moment, _bumps(e))) - measures.sphere_moment(e))
        for e in _exps_upto(d, cap)
    )
    yield "ball-weight-recurrence", {"dim": d, "mu": mu, "max_total_degree": cap}, (
        (e, ball(e) - sum(map(ball, _bumps(e))) - ratio * measures.ball_moment(e, mu + 1))
        for e in _exps_upto(d, cap)
    )
    yield "sphere-ball-ratio", {"dims": [2, 3, 4, 5, 6]}, (
        (dd, measures.sphere_ball_ratio(dd, _HALF), Fraction(dd)) for dd in range(2, 7)
    )
    yield "unit-mass", p, [
        ("ball", measures.inner_ball(one, one, mu), Fraction(1)),
        ("sphere", measures.inner_sphere(one, one), Fraction(1)),
        ("mass", mass(one, one), 1 + cfg.lam),
    ]
    yield "product-symmetry", dict(p, trials=3), symmetry()
    yield "product-positivity", p, (
        (e, mass(mono, mono) > 0, True)
        for e in _exps_upto(d, min(4, cap))
        for mono in [MultiPoly(d, {e: 1})]
    )


def _key(el: BallBasisElement) -> tuple[int, int, int]:
    return (el.index.n, el.index.k, el.index.nu)


def _offdiagonal(els, gram):
    """The nonzero entries above the diagonal of ``gram``, each tagged with both element keys."""
    return ((_key(els[i]) + _key(els[j]), value) for (i, j), value in _nonzero_above_diagonal(gram))


def _diagonal(els, gram):
    """Each recorded squared norm must be positive and equal its diagonal entry of ``gram``."""
    return (
        (_key(el), el.sq_norm > 0 and gram.get((i, i)) == el.sq_norm, True) for i, el in enumerate(els)
    )


def _elements(cfg: SuiteConfig, basis, *args) -> list[BallBasisElement]:
    """Every element of ``basis`` through degree max_degree, in degree order."""
    return [el for n in range(cfg.max_degree + 1) for el in basis(n, cfg.dim, *args)]


def _suite_classical_orthogonality(cfg: SuiteConfig) -> Iterator[tuple]:
    from . import bases, measures

    d, mu = cfg.dim, cfg.mu
    p = _params(cfg, "dim", "mu", "max_degree")

    def lower_degree():
        # <P, x^e> = W_P[e] / (den_P D), read from one moment image of each degree-n element
        # over the monomials of degree below n; an item only where the integer W_P[e] is nonzero.
        for n in range(1, cfg.max_degree + 1):
            exps = list(_exps_upto(d, n - 1))
            keys = list(map(pack, exps))
            elements = bases.classical_basis(n, d, mu)
            den, images = measures.moment_images([el.poly for el in elements], keys, mu)
            for el, image in zip(elements, images):
                for e, key in zip(exps, keys):
                    if image[key]:
                        yield _key(el) + (e,), Fraction(image[key], el.poly.den * den)

    els = _elements(cfg, bases.classical_basis, mu)
    gram = measures.mass_gram([el.poly for el in els], mu)
    yield "classical-gram-offdiagonal", p, _offdiagonal(els, gram)
    yield "classical-gram-diagonal", p, _diagonal(els, gram)
    yield "classical-dimension", p, (
        (n, len(bases.classical_basis(n, d, mu)), comb(n + d - 1, d - 1))
        for n in range(cfg.max_degree + 1)
    )
    yield "classical-lower-degree", p, lower_degree()


def _suite_d_mu_eigen(cfg: SuiteConfig) -> Iterator[tuple]:
    from . import bases, operators

    for n in range(cfg.max_degree + 1):
        eig = -(n + cfg.dim) * (n + 2 * cfg.mu - 1)
        els = bases.classical_basis(n, cfg.dim, cfg.mu)
        params = {"dim": cfg.dim, "mu": cfg.mu, "n": n, "eigenvalue": eig}
        yield "classical-second-order-eigen", params, (
            (_key(P)[1:], operators.classical_ball_op(P.poly, cfg.mu) - eig * P.poly) for P in els
        )


def _suite_lambda_orthogonality(cfg: SuiteConfig) -> Iterator[tuple]:
    from . import bases, jacobi, measures

    alpha = cfg.mu - _HALF
    p = _params(cfg, "dim", "mu", "lambda", "max_degree")

    def harmonic(el):
        return (el.index.n - 2 * el.index.k, el.index.nu)

    def factorization():
        # Only pairs that share a harmonic: every entry across two harmonics is one that
        # mass-gram-offdiagonal checks to be zero.
        blocks = {}
        for i, el in enumerate(els):
            blocks.setdefault(harmonic(el), []).append(i)
        for i, a in enumerate(els):
            block = blocks[harmonic(a)]
            for j in block[block.index(i):]:
                b = els[j]
                product = jacobi.inner_jacobi_mass(
                    a.radial, b.radial, alpha, a.index.beta_k, cfg.lam, cfg.dim
                )
                yield _key(a) + _key(b), gram.get((i, j), 0) - product * a.harmonic_sq_norm

    els = _elements(cfg, bases.mass_basis, cfg.mu, cfg.lam)
    gram = measures.mass_gram([el.poly for el in els], cfg.mu, cfg.lam)
    yield "mass-gram-offdiagonal", p, _offdiagonal(els, gram)
    yield "mass-gram-diagonal", p, _diagonal(els, gram)
    yield "mass-product-factorization", p, factorization()


def _suite_connection(cfg: SuiteConfig) -> Iterator[tuple]:
    from . import bases, jacobi, operators

    rng = _rng(cfg, "connection")
    d, M, lam, mu = cfg.dim, cfg.mass, cfg.lam, jacobi.FOURTH_ORDER_MU
    p = _params(cfg, "dim", "mass", "lambda")

    def univariate(beta):
        for k in range(max(cfg.max_degree, 2) + 1):
            pk, qk = jacobi.jacobi_polynomial(k, 0, beta), jacobi.jacobi_type_poly(k, beta, M)
            eig = jacobi.type_eigenvalue(k, beta, M)
            conjugate = jacobi.conjugate_connection_op(qk, beta, M)
            yield (k, "forward"), jacobi.connection_op(pk, beta, M) - qk
            yield (k, "backward"), conjugate - eig * pk
            yield (k, "fourth-order"), jacobi.connection_op(conjugate, beta, M) - eig * qk

    def parts(beta):
        for trial in range(3):
            f, g = _random_unipoly(rng, 5), _random_unipoly(rng, 5)
            yield trial, jacobi.parts_residual(f, g, beta, M)

    for n in range(cfg.max_degree + 1):
        pairs = list(zip(bases.classical_basis(n, d, mu), bases.mass_basis(n, d, mu, lam)))
        yield "connection-forward", dict(p, n=n), (
            (_key(P)[1:], operators.ball_connection_op(P.poly, M) - Q.poly) for P, Q in pairs
        )
        lambdas = [operators.fourth_order_eigenvalue(n, k, d, M) for k in range(n // 2 + 1)]
        yield "connection-backward", dict(p, n=n), (
            (_key(P)[1:], operators.ball_conjugate_op(Q.poly, M) - lambdas[P.index.k] * P.poly)
            for P, Q in pairs
        )
        yield "connection-radial", dict(p, n=n), (
            ((n, k, kind), residual) for k in range(n // 2 + 1)
            for kind, residual in zip(("forward", "backward"),
                                      operators.radial_connection_residuals(n, k, d, M))
        )
    for beta in _beta_values(cfg):
        yield "connection-univariate", dict(p, beta=beta), univariate(beta)
        yield "parts-identity", dict(p, beta=beta), parts(beta)
    yield "connection-lift", p, _lift_pairs(cfg, rng)


def _lift_pairs(cfg: SuiteConfig, rng: random.Random):
    from . import harmonics, jacobi, operators

    d, M = cfg.dim, cfg.mass
    for m in range(min(cfg.max_degree, 3) + 1):
        basis = harmonics.harmonic_basis(d, m)
        Y = basis.elements[rng.randrange(len(basis.elements))]
        u = _random_unipoly(rng, 3)
        beta = Fraction(2 * m + d - 2, 2)
        cartesian = operators.ball_connection_op(substitute_radial(u, d) * Y, M)
        lifted = substitute_radial(jacobi.connection_op(u, beta, M), d) * Y
        yield (("forward", m), cartesian - lifted)
        cartesian2 = operators.ball_conjugate_op(substitute_radial(u, d) * Y, M)
        lifted2 = substitute_radial(jacobi.conjugate_connection_op(u, beta, M), d) * Y
        yield (("backward", m), cartesian2 - lifted2)


def _suite_fourth_order(cfg: SuiteConfig) -> Iterator[tuple]:
    from . import bases, jacobi, operators

    d, M, lam = cfg.dim, cfg.mass, cfg.lam
    offset = Fraction(1) if cfg.corrupt_eigenvalue else Fraction(0)
    p = _params(cfg, "dim", "mass", "lambda")
    for n in range(cfg.max_degree + 1):
        els = bases.mass_basis(n, d, jacobi.FOURTH_ORDER_MU, lam)
        lambdas = [operators.fourth_order_eigenvalue(n, k, d, M) + offset
                   for k in range(n // 2 + 1)]
        yield "fourth-order-eigen", dict(p, n=n), (
            (_key(Q)[1:], operators.fourth_order_op(Q.poly, M) - lambdas[Q.index.k] * Q.poly)
            for Q in els
        )

    def forms():
        for n in range(max(cfg.max_degree, 10) + 1):
            for k in range(n // 2 + 1):
                product = jacobi.type_eigenvalue(k, beta_shift(n, k, d), M)
                yield (n, k), product, operators.fourth_order_eigenvalue(n, k, d, M)

    yield "eigenvalue-forms", p, forms()
    control = MultiPoly.constant(d, 1) + MultiPoly.variable(d, 0)
    eig = operators.fourth_order_eigenvalue(1, 0, d, M)
    residual = operators.fourth_order_op(control, M) - eig * control
    control_params = dict(p, control=str(control), residual=residual.canonical())
    yield "fourth-order-negative-control", control_params, (("nonzero", residual.is_zero(), False),)
