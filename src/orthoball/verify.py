"""Parameterized verification suites producing structured, deterministic reports.

Each suite re-derives a family of identities and checks them in exact
arithmetic.  Two tables declare the verifier:

* ``_IDENTITIES``: each identity's kind and statement.  An "exact-zero" check
  passes when every item (tag, residual) is the literal zero, an "exact-match"
  check when every item (tag, got, want) has got == want.
* ``_SUITES``: each suite's runner and the parameter range its exact
  construction needs; outside that range the suite emits one skipped record.

A runner declares each check as an identity, its params and a producer: a thunk
that builds the items.  The one check primitive, ``_Collector.check``, runs the
producer inside the check's timer, so ``elapsed_ms`` covers building the items,
and serializes a witness of the first item that fails.  The producer runs before
``check`` returns, so it may read the variables of the loop that declares it.
Orthogonality suites read every check from one Gram matrix per basis, and
``krall1d`` from one Gram matrix of the point-mass family per beta.  Their
exact-zero producers yield only the nonzero entries, in row-major order, so a
passing scan builds no tag and no witness and a failing one reports the same
first entry that an item per entry would.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from functools import cache, partial
from math import comb, factorial
from typing import Callable, NamedTuple

from . import bases, harmonics, jacobi, measures, operators
from .exact_gamma import rising_factorial
from .polynomials import MultiPoly, UniPoly, as_fraction, fraction_text, pack, substitute_radial

STATUS_ZERO = "exact-zero"
STATUS_MATCH = "exact-match"
STATUS_FAIL = "FAIL"
STATUS_SKIP = "skipped: unsupported-exact"

_HALF = Fraction(1, 2)

# identity -> (kind, statement); the kind is the status of a passing check.
_IDENTITIES = {
    "jacobi-normalization": (STATUS_MATCH, "P_n(1) = (a+1)_n / n!"),
    "jacobi-derivative": (STATUS_ZERO, "d/dt P_n^(a,b) = ((n+a+b+1)/2) P_(n-1)^(a+1,b+1)"),
    "jacobi-ode": (STATUS_ZERO, "(1-t^2) y'' + (b-a-(a+b+2)t) y' + n(n+a+b+1) y = 0"),
    "pointmass-orthogonality":
        (STATUS_ZERO, "(q_j, q_k) = 0 for j != k under the mass-modified radial product"),
    "pointmass-normalization":
        (STATUS_MATCH, "q_k(1) = (1/lam) G(a+d/2+1)/G(d/2) * G(b+k+1)/G(a+b+k+1)"),
    "pointmass-degree": (STATUS_MATCH, "q_k has exact degree k with positive squared norm"),
    "pointmass-gram-schmidt":
        (STATUS_ZERO, "Gram-Schmidt on 1, t, t^2, ... reproduces q_k up to a nonzero scalar"),
    "pointmass-type-agreement":
        (STATUS_MATCH, "q_k = [M - (1+t) d/dt + k(k+b+1)] P_k^(0,b) with M = d/(2 lam)"),
    "harmonic-dimension": (STATUS_MATCH, "dim of degree-m harmonics = C(m+d-1,d-1) - C(m+d-3,d-1)"),
    "harmonic-laplace": (STATUS_ZERO, "Delta Y = 0 for every basis element"),
    "harmonic-sphere-orthogonality": (STATUS_ZERO, "<Y_i, Y_j>_sphere = 0 for i != j"),
    "harmonic-norm-positive": (STATUS_MATCH, "<Y, Y>_sphere > 0"),
    "euler-identity": (STATUS_ZERO, "<x, grad> Y = m Y on homogeneous Y"),
    "laplace-beltrami-eigen": (STATUS_ZERO, "Delta_0 Y = -m(m+d-2) Y"),
    "polar-decomposition":
        (STATUS_ZERO, "||x||^2 Delta f = Delta_0 f + m(m+d-2) f on homogeneous f"),
    "sphere-moment-consistency":
        (STATUS_ZERO, "sum_i m(nu + 2 e_i) = m(nu) since sum xi_i^2 = 1 on the sphere"),
    "ball-weight-recurrence":
        (STATUS_ZERO, "m_mu(nu) - sum_i m_mu(nu+2e_i) = ((mu+1/2)/(mu+(d+1)/2)) m_(mu+1)(nu)"),
    "sphere-ball-ratio": (STATUS_MATCH, "sphere area over ball mass equals d when mu = 1/2"),
    "unit-mass": (STATUS_MATCH, "<1,1>_mu = 1 and the mass-modified product gives 1 + lam"),
    "product-symmetry": (STATUS_ZERO, "<f,g> = <g,f> and <f+g,h> = <f,h> + <g,h>, exactly"),
    "product-positivity": (STATUS_MATCH, "<f,f>_lam > 0 for nonzero monomials through degree 4"),
    "classical-gram-offdiagonal":
        (STATUS_ZERO, "<P, P'>_mu = 0 for distinct indices, across all degrees"),
    "classical-gram-diagonal": (STATUS_MATCH, "<P, P>_mu > 0"),
    "classical-dimension": (STATUS_MATCH, "number of degree-n elements = C(n+d-1, d-1)"),
    "classical-lower-degree":
        (STATUS_ZERO, "<P, x^nu>_mu = 0 for every monomial of lower total degree"),
    "classical-second-order-eigen":
        (STATUS_ZERO, "[Delta - sum_j d/dx_j x_j (2mu-1 + <x,grad>)] P = -(n+d)(n+2mu-1) P"),
    "mass-gram-offdiagonal":
        (STATUS_ZERO, "<Q, Q'>_lam = 0 for distinct indices, across all degrees"),
    "mass-gram-diagonal": (STATUS_MATCH, "<Q, Q>_lam > 0"),
    "mass-product-factorization":
        (STATUS_ZERO, "<Q_j^n, Q_k^m>_lam = (q_j, q_k) <Y,Y>_sphere delta(n-2j, m-2k) delta(nu, eta)"),
    "connection-forward": (STATUS_ZERO, "[M - (1/4)(1-||x||^2) Delta] P(n,k,nu) = Q(n,k,nu)"),
    "connection-backward":
        (STATUS_ZERO, "[M + d/2 - (1/4)(1-||x||^2) Delta + <x,grad>] Q(n,k,nu) = Lambda(n,k) P(n,k,nu)"),
    "connection-radial":
        (STATUS_ZERO, "the radial one-variable forms of both connection identities"),
    "connection-univariate":
        (STATUS_ZERO, "[M - (1-t^2) d2/dt2 - (b+1)(1-t) d/dt] P_k = q_k and its conjugate sends q_k to the eigenvalue times P_k"),
    "parts-identity":
        (STATUS_ZERO, "integral of g (connection f) against the point-mass measure equals the plain weighted integral of f (conjugate g)"),
    "connection-lift":
        (STATUS_ZERO, "the ball connection of u(2||x||^2-1) Y equals the lifted univariate image"),
    "fourth-order-eigen":
        (STATUS_ZERO, "[M - (1/4)(1-||x||^2) Delta][M + d/2 - (1/4)(1-||x||^2) Delta + <x,grad>] Q = Lambda(n,k) Q"),
    "eigenvalue-forms":
        (STATUS_MATCH, "(M+k(k+b_k))(M+(k+1)(k+b_k+1)) = (M+k(n-k+(d-2)/2))(M+(k+1)(n-k+d/2))"),
    "fourth-order-negative-control":
        (STATUS_MATCH, "a polynomial outside the eigenspace leaves a nonzero residual"),
}


class SuiteConfig:
    """One verifier run's parameters, validated and normalized as they are set."""

    def __init__(
        self,
        dim: int = 2,
        mu: Fraction = Fraction(1, 2),
        lam: Fraction | None = None,
        mass: Fraction | None = None,
        max_degree: int = 4,
        suites: tuple[str, ...] = ("all",),
        seed: int = 0,
        corrupt_eigenvalue: bool = False,  # self-test hook: offsets the fourth-order eigenvalue
    ):
        if dim < 2:
            raise ValueError(f"dim must be at least 2, got {dim}")
        if max_degree < 0:
            raise ValueError(f"max_degree must be non-negative, got {max_degree}")
        self.dim, self.max_degree = dim, max_degree
        self.seed, self.corrupt_eigenvalue = seed, corrupt_eigenvalue
        self.mu = measures._check_mu(mu)
        if lam is not None and mass is not None:
            raise ValueError("give exactly one of the sphere coupling and the point mass")
        if lam is None and mass is None:
            lam = Fraction(1, 4)
        if lam is None:
            self.mass = as_fraction(mass)
            self.lam = bases.sphere_coupling(dim, self.mass)
        else:
            self.lam = as_fraction(lam)
            self.mass = bases.mass_parameter(dim, self.lam)
        names = []
        for name in suites:
            if name != "all" and name not in SUITE_NAMES:
                raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
            names.extend(SUITE_NAMES if name == "all" else [name])
        if not names:
            raise ValueError("no suites selected; a report with zero checks cannot pass")
        self.suites = tuple(dict.fromkeys(names))


class CheckRecord(NamedTuple):
    suite: str
    identity: str
    statement: str
    params: dict
    status: str
    witness: str | None
    elapsed_ms: float


def _fmt(value):
    if isinstance(value, Fraction):
        return fraction_text(value)
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    return value


def _serialize(value) -> str:
    if isinstance(value, (MultiPoly, UniPoly)):
        return value.canonical()
    return fraction_text(value) if isinstance(value, Fraction) else str(value)


def _nonzero_above_diagonal(gram):
    """Each nonzero entry above the diagonal of ``gram``, tagged (i, j), in row-major order.

    An exact-zero check over a Gram matrix passes all its zeros without building a tag or
    a witness for them; its first item, if any, is the first failure of the row-major scan.
    """
    return (((i, j), row[j]) for i, row in enumerate(gram) for j in range(i + 1, len(row)) if row[j])


def _witness(kind: str, values) -> str | None:
    """Serialized evidence that one check item fails, or None when it passes."""
    if kind == STATUS_ZERO:
        (value,) = values
        ok = value.is_zero() if hasattr(value, "is_zero") else value == 0
        return None if ok else _serialize(value)
    got, want = values
    return None if got == want else f"got {_serialize(got)}, expected {_serialize(want)}"


class _Collector:
    def __init__(self, suite: str):
        self.suite = suite
        self.records: list[CheckRecord] = []

    def check(self, identity: str, params: dict, producer) -> None:
        """Run ``producer()`` inside the timer and record the first item that fails.

        ``params`` is read after the producer has run, so a producer may fill
        in a parameter that it computes as part of the check's work.
        """
        kind, statement = _IDENTITIES[identity]
        t0 = time.perf_counter()
        witness = None
        for tag, *values in producer():
            witness = _witness(kind, values)
            if witness is not None:
                break
        elapsed = (time.perf_counter() - t0) * 1000
        p = dict(params) if witness is None else dict(params, first_failure=tag)
        status = kind if witness is None else STATUS_FAIL
        self.records.append(
            CheckRecord(self.suite, identity, statement, _fmt(p), status, witness, elapsed)
        )

    def skip(self, identity: str, statement: str, params: dict, reason: str) -> None:
        p = dict(params, reason=reason)
        self.records.append(
            CheckRecord(self.suite, identity, statement, _fmt(p), STATUS_SKIP, None, 0.0)
        )


def _params(cfg: SuiteConfig, *names: str) -> dict:
    fields = {"dim": cfg.dim, "mu": cfg.mu, "lambda": cfg.lam, "mass": cfg.mass,
              "max_degree": cfg.max_degree}
    return {name: fields[name] for name in names}


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
    monos = harmonics._monomials(dim, degree)
    return MultiPoly(dim, {e: rng.randint(-4, 4) for e in monos})


def _suite_jacobi(cfg: SuiteConfig, out: _Collector) -> None:
    grid = [Fraction(0), Fraction(1, 2), Fraction(1)]
    pairs = [(a, b) for a in grid for b in grid]
    for n in range(cfg.max_degree + 1):
        out.check(
            "jacobi-normalization",
            {"n": n, "grid": pairs},
            lambda: (
                ((a, b), jacobi.jacobi_polynomial(n, a, b).evaluate(1),
                 rising_factorial(a + 1, n) / factorial(n))
                for a, b in pairs
            ),
        )
        if n >= 1:
            out.check(
                "jacobi-derivative",
                {"n": n},
                lambda: (((a, b), jacobi.jacobi_derivative_residual(n, a, b)) for a, b in pairs),
            )
        out.check(
            "jacobi-ode",
            {"n": n},
            lambda: (((a, b), jacobi.jacobi_ode_residual(n, a, b)) for a, b in pairs),
        )


def _beta_values(cfg: SuiteConfig) -> list[Fraction]:
    degrees = range(cfg.max_degree + 1)
    return sorted({bases.beta_shift(n, k, cfg.dim) for n in degrees for k in range(n // 2 + 1)})


def _suite_krall1d(cfg: SuiteConfig, out: _Collector) -> None:
    alpha = cfg.mu - _HALF
    ks = range(max(cfg.max_degree, 2) + 1)
    for beta in _beta_values(cfg):
        p = dict(_params(cfg, "dim", "mu", "lambda"), beta=beta)
        qs = cache(lambda: [
            jacobi.mass_orthogonal_poly(k, alpha, beta, cfg.lam, cfg.dim) for k in ks
        ])
        gram = cache(lambda: jacobi.gram_jacobi_mass(qs(), alpha, beta, cfg.lam, cfg.dim))

        def gram_schmidt():
            gs, q = jacobi.gram_schmidt_jacobi_mass(len(ks), alpha, beta, cfg.lam, cfg.dim), qs()
            return ((k, gs[k] * q[k].leading_coeff() - q[k] * gs[k].leading_coeff()) for k in ks)

        out.check("pointmass-orthogonality", p, lambda: _nonzero_above_diagonal(gram()))
        scale = rising_factorial(Fraction(cfg.dim, 2), alpha.numerator + 1) / cfg.lam
        out.check(
            "pointmass-normalization",
            p,
            lambda: (
                (k, qs()[k].evaluate(1), scale / rising_factorial(beta + k + 1, alpha.numerator))
                for k in ks
            ),
        )
        out.check(
            "pointmass-degree",
            p,
            lambda: ((k, (qs()[k].degree, gram()[k][k] > 0), (k, True)) for k in ks),
        )
        out.check("pointmass-gram-schmidt", p, gram_schmidt)
        if cfg.mu == jacobi.FOURTH_ORDER_MU:
            out.check(
                "pointmass-type-agreement",
                p,
                lambda: ((k, qs()[k], jacobi.jacobi_type_poly(k, beta, cfg.mass)) for k in ks),
            )


def _suite_harmonics(cfg: SuiteConfig, out: _Collector) -> None:
    rng = _rng(cfg, "harmonics")
    d = cfg.dim
    for m in range(cfg.max_degree + 1):
        p = {"dim": d, "degree": m}
        basis = partial(harmonics.harmonic_basis, d, m)

        def each(residual, *args):
            return lambda: ((i, residual(Y, *args)) for i, Y in enumerate(basis().elements))

        out.check(
            "harmonic-dimension",
            p,
            lambda: [(m, len(basis().elements), harmonics.harmonic_space_dim(d, m))],
        )
        out.check("harmonic-laplace", p, each(operators.laplacian))
        out.check(
            "harmonic-sphere-orthogonality",
            p,
            lambda: _nonzero_above_diagonal(measures.sphere_gram(basis().elements)),
        )
        out.check(
            "harmonic-norm-positive",
            p,
            lambda: ((i, norm > 0, True) for i, norm in enumerate(basis().sphere_norms)),
        )
        out.check("euler-identity", p, each(harmonics.euler_residual, m))
        out.check("laplace-beltrami-eigen", p, each(harmonics.laplace_beltrami_residual, m))
        out.check(
            "polar-decomposition",
            p,
            lambda: (
                (trial, harmonics.polar_decomposition_residual(_random_homogeneous(rng, d, m), m))
                for trial in range(3)
            ),
        )


def _exps_upto(dim: int, total: int):
    for deg in range(total + 1):
        yield from harmonics._monomials(dim, deg)


def _bumps(e):
    """Each exponent e + 2 e_i, for i along every axis."""
    return [e[:i] + (e[i] + 2,) + e[i + 1:] for i in range(len(e))]


def _suite_moments(cfg: SuiteConfig, out: _Collector) -> None:
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

    out.check(
        "sphere-moment-consistency",
        {"dim": d, "max_total_degree": cap},
        lambda: (
            (e, sum(map(measures.sphere_moment, _bumps(e))) - measures.sphere_moment(e))
            for e in _exps_upto(d, cap)
        ),
    )
    out.check(
        "ball-weight-recurrence",
        {"dim": d, "mu": mu, "max_total_degree": cap},
        lambda: (
            (e, ball(e) - sum(map(ball, _bumps(e))) - ratio * measures.ball_moment(e, mu + 1))
            for e in _exps_upto(d, cap)
        ),
    )
    out.check(
        "sphere-ball-ratio",
        {"dims": [2, 3, 4, 5, 6]},
        lambda: ((dd, measures.sphere_ball_ratio(dd, _HALF), Fraction(dd)) for dd in range(2, 7)),
    )
    out.check(
        "unit-mass",
        p,
        lambda: [
            ("ball", measures.inner_ball(one, one, mu), Fraction(1)),
            ("sphere", measures.inner_sphere(one, one), Fraction(1)),
            ("mass", mass(one, one), 1 + cfg.lam),
        ],
    )
    out.check("product-symmetry", dict(p, trials=3), symmetry)
    out.check(
        "product-positivity",
        p,
        lambda: (
            (e, mass(mono, mono) > 0, True)
            for e in _exps_upto(d, min(4, cap))
            for mono in [MultiPoly(d, {e: 1})]
        ),
    )


def _key(el: bases.BallBasisElement) -> tuple[int, int, int]:
    return (el.index.n, el.index.k, el.index.nu)


def _offdiagonal(els, gram):
    """The nonzero entries above the diagonal of ``gram``, each tagged with both element keys."""
    return ((_key(els[i]) + _key(els[j]), value) for (i, j), value in _nonzero_above_diagonal(gram))


def _diagonal(els, gram):
    """Each recorded squared norm must be positive and equal its diagonal entry of ``gram``."""
    return (
        (_key(el), el.sq_norm > 0 and gram[i][i] == el.sq_norm, True) for i, el in enumerate(els)
    )


def _elements(cfg: SuiteConfig, basis, *args) -> list[bases.BallBasisElement]:
    """Every element of ``basis`` through degree max_degree, in degree order."""
    return [el for n in range(cfg.max_degree + 1) for el in basis(n, cfg.dim, *args)]


def _suite_classical_orthogonality(cfg: SuiteConfig, out: _Collector) -> None:
    d, mu = cfg.dim, cfg.mu
    p = _params(cfg, "dim", "mu", "max_degree")
    els = partial(_elements, cfg, bases.classical_basis, mu)
    gram = cache(lambda: measures.mass_gram([el.poly for el in els()], mu))
    out.check("classical-gram-offdiagonal", p, lambda: _offdiagonal(els(), gram()))
    out.check("classical-gram-diagonal", p, lambda: _diagonal(els(), gram()))
    out.check(
        "classical-dimension",
        p,
        lambda: (
            (n, len(bases.classical_basis(n, d, mu)), comb(n + d - 1, d - 1))
            for n in range(cfg.max_degree + 1)
        ),
    )

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

    out.check("classical-lower-degree", p, lower_degree)


def _per_element(residual, *degree_bases):
    """A producer of ``residual(*elements)`` tagged (k, nu), element by element, over the bases
    that the ``degree_bases`` thunks build; all have one degree, so they share the (k, nu) order."""
    return lambda: (
        ((els[0].index.k, els[0].index.nu), residual(*els))
        for els in zip(*(build() for build in degree_bases))
    )


def _lambda_nk(el: bases.BallBasisElement, mass: Fraction) -> Fraction:
    return operators.fourth_order_eigenvalue(el.index.n, el.index.k, el.poly.dim, mass)


def _suite_d_mu_eigen(cfg: SuiteConfig, out: _Collector) -> None:
    for n in range(cfg.max_degree + 1):
        eig = -(n + cfg.dim) * (n + 2 * cfg.mu - 1)
        eigen = _per_element(lambda P: operators.classical_ball_op(P.poly, cfg.mu) - eig * P.poly,
                             partial(bases.classical_basis, n, cfg.dim, cfg.mu))
        params = {"dim": cfg.dim, "mu": cfg.mu, "n": n, "eigenvalue": eig}
        out.check("classical-second-order-eigen", params, eigen)


def _suite_lambda_orthogonality(cfg: SuiteConfig, out: _Collector) -> None:
    alpha = cfg.mu - _HALF
    p = _params(cfg, "dim", "mu", "lambda", "max_degree")
    els = partial(_elements, cfg, bases.mass_basis, cfg.mu, cfg.lam)
    gram = cache(lambda: measures.mass_gram([el.poly for el in els()], cfg.mu, cfg.lam))

    def harmonic(el):
        return (el.index.n - 2 * el.index.k, el.index.nu)

    def factorization():
        # Only pairs that share a harmonic: every entry across two harmonics is one that
        # mass-gram-offdiagonal checks to be zero.
        elements, entries = els(), gram()
        blocks = {}
        for i, el in enumerate(elements):
            blocks.setdefault(harmonic(el), []).append(i)
        for i, a in enumerate(elements):
            block = blocks[harmonic(a)]
            for j in block[block.index(i):]:
                b = elements[j]
                product = jacobi.inner_jacobi_mass(
                    a.radial, b.radial, alpha, a.index.beta_k, cfg.lam, cfg.dim
                )
                yield _key(a) + _key(b), entries[i][j] - product * a.harmonic_sq_norm

    out.check("mass-gram-offdiagonal", p, lambda: _offdiagonal(els(), gram()))
    out.check("mass-gram-diagonal", p, lambda: _diagonal(els(), gram()))
    out.check("mass-product-factorization", p, factorization)


def _suite_connection(cfg: SuiteConfig, out: _Collector) -> None:
    rng = _rng(cfg, "connection")
    d, M, lam, mu = cfg.dim, cfg.mass, cfg.lam, jacobi.FOURTH_ORDER_MU
    p = _params(cfg, "dim", "mass", "lambda")
    for n in range(cfg.max_degree + 1):
        both = partial(bases.classical_basis, n, d, mu), partial(bases.mass_basis, n, d, mu, lam)
        forward = _per_element(lambda P, Q: operators.ball_connection_op(P.poly, M) - Q.poly, *both)
        backward = _per_element(
            lambda P, Q: operators.ball_conjugate_op(Q.poly, M) - _lambda_nk(P, M) * P.poly, *both
        )

        def radial():
            for k in range(n // 2 + 1):
                first, second = operators.radial_connection_residuals(n, k, d, M)
                yield (n, k, "forward"), first
                yield (n, k, "backward"), second

        out.check("connection-forward", dict(p, n=n), forward)
        out.check("connection-backward", dict(p, n=n), backward)
        out.check("connection-radial", dict(p, n=n), radial)
    for beta in _beta_values(cfg):

        def univariate():
            for k in range(max(cfg.max_degree, 2) + 1):
                pk, qk = jacobi.jacobi_polynomial(k, 0, beta), jacobi.jacobi_type_poly(k, beta, M)
                eig = jacobi.type_eigenvalue(k, beta, M)
                conjugate = jacobi.conjugate_connection_op(qk, beta, M)
                yield (k, "forward"), jacobi.connection_op(pk, beta, M) - qk
                yield (k, "backward"), conjugate - eig * pk
                yield (k, "fourth-order"), jacobi.connection_op(conjugate, beta, M) - eig * qk

        def parts():
            for trial in range(3):
                f, g = _random_unipoly(rng, 5), _random_unipoly(rng, 5)
                yield trial, jacobi.parts_residual(f, g, beta, M)

        out.check("connection-univariate", dict(p, beta=beta), univariate)
        out.check("parts-identity", dict(p, beta=beta), parts)
    out.check("connection-lift", p, lambda: _lift_pairs(cfg, rng))


def _lift_pairs(cfg: SuiteConfig, rng: random.Random):
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


def _suite_fourth_order(cfg: SuiteConfig, out: _Collector) -> None:
    d, M, lam = cfg.dim, cfg.mass, cfg.lam
    offset = Fraction(1) if cfg.corrupt_eigenvalue else Fraction(0)
    p = _params(cfg, "dim", "mass", "lambda")
    for n in range(cfg.max_degree + 1):
        eigen = _per_element(
            lambda Q: operators.fourth_order_op(Q.poly, M) - (_lambda_nk(Q, M) + offset) * Q.poly,
            partial(bases.mass_basis, n, d, jacobi.FOURTH_ORDER_MU, lam),
        )
        out.check("fourth-order-eigen", dict(p, n=n), eigen)

    def forms():
        for n in range(max(cfg.max_degree, 10) + 1):
            for k in range(n // 2 + 1):
                product = jacobi.type_eigenvalue(k, bases.beta_shift(n, k, d), M)
                yield (n, k), product, operators.fourth_order_eigenvalue(n, k, d, M)

    out.check("eigenvalue-forms", p, forms)
    control_params = dict(p, control=None, residual=None)

    def negative_control():
        control = MultiPoly.constant(d, 1) + MultiPoly.variable(d, 0)
        control_params["control"] = str(control)
        eig = operators.fourth_order_eigenvalue(1, 0, d, M)
        residual = operators.fourth_order_op(control, M) - eig * control
        control_params["residual"] = residual.canonical()
        yield "nonzero", residual.is_zero(), False

    out.check("fourth-order-negative-control", control_params, negative_control)


class _Requirement(NamedTuple):
    """A parameter range that an exact construction needs, and the reason to skip outside it."""

    holds: Callable[[SuiteConfig], bool]
    reason: str


_INTEGER_ALPHA = _Requirement(
    lambda cfg: jacobi._integer_alpha(cfg.mu - _HALF),
    "exact construction needs mu - 1/2 to be a non-negative integer",
)
_AT_HALF = _Requirement(lambda cfg: cfg.mu == jacobi.FOURTH_ORDER_MU, "the fourth-order theory lives at mu = 1/2")

# name -> (runner, requirement or None, then the identity, statement and params that the
# skipped record carries when the configuration falls outside the requirement).
_SUITES = {
    "jacobi": (_suite_jacobi, None),
    "krall1d": (
        _suite_krall1d, _INTEGER_ALPHA, "pointmass-family",
        "closed construction of the mass-modified radial family", ("dim", "mu", "lambda"),
    ),
    "harmonics": (_suite_harmonics, None),
    "moments": (_suite_moments, None),
    "classical-orthogonality": (_suite_classical_orthogonality, None),
    "lambda-orthogonality": (
        _suite_lambda_orthogonality, _INTEGER_ALPHA, "mass-gram-diagonal",
        "mutual orthogonality of the mass-modified basis", ("dim", "mu", "lambda", "max_degree"),
    ),
    "d-mu-eigen": (_suite_d_mu_eigen, None),
    "connection": (
        _suite_connection, _AT_HALF, "connection-forward",
        "connection identities between the two bases", ("dim", "mu"),
    ),
    "fourth-order": (
        _suite_fourth_order, _AT_HALF, "fourth-order-eigen",
        "the fourth-order eigen-equation", ("dim", "mu"),
    ),
}

SUITE_NAMES = tuple(_SUITES)


def run_suites(cfg: SuiteConfig) -> list[CheckRecord]:
    records: list[CheckRecord] = []
    for name in cfg.suites:
        runner, needs, *skipped = _SUITES[name]
        collector = _Collector(name)
        if needs is None or needs.holds(cfg):
            runner(cfg, collector)
        else:
            identity, statement, params = skipped
            collector.skip(identity, statement, _params(cfg, *params), needs.reason)
        records.extend(collector.records)
    return records


def summarize(cfg: SuiteConfig, records: list[CheckRecord]) -> dict:
    counts = {
        "total": len(records),
        "exact_zero": sum(r.status == STATUS_ZERO for r in records),
        "exact_match": sum(r.status == STATUS_MATCH for r in records),
        "failed": sum(r.status == STATUS_FAIL for r in records),
        "skipped": sum(r.status.startswith("skipped") for r in records),
    }
    return {
        "type": "summary",
        "config": {
            "dim": cfg.dim,
            "mu": _fmt(cfg.mu),
            "lambda": _fmt(cfg.lam),
            "mass": _fmt(cfg.mass),
            "max_degree": cfg.max_degree,
            "suites": list(cfg.suites),
            "seed": cfg.seed,
        },
        "counts": counts,
        "status": "fail" if counts["failed"] else "pass",
    }


def report_lines(cfg: SuiteConfig, records: list[CheckRecord]) -> list[str]:
    """JSON Lines report: one object per check, then a summary object."""
    lines = [
        json.dumps(dict(r._asdict(), type="check", elapsed_ms=round(r.elapsed_ms, 3)), sort_keys=True)
        for r in records
    ]
    lines.append(json.dumps(summarize(cfg, records), sort_keys=True))
    return lines
