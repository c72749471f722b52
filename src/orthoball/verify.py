"""Parameterized verification suites producing structured, deterministic reports.

Each suite re-derives a family of identities at the configured parameters and
checks them in exact arithmetic.  A check either reduces a residual to the
literal zero ("exact-zero"), matches two independently computed values
("exact-match"), fails with a serialized witness, or is skipped when the
requested parameters fall outside the exact construction.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from . import bases, harmonics, jacobi, measures, operators
from .exact_gamma import rising_factorial
from .polynomials import MultiPoly, UniPoly, as_fraction, substitute_radial

SUITE_NAMES = (
    "jacobi",
    "krall1d",
    "harmonics",
    "moments",
    "classical-orthogonality",
    "lambda-orthogonality",
    "d-mu-eigen",
    "connection",
    "fourth-order",
)

STATUS_ZERO = "exact-zero"
STATUS_MATCH = "exact-match"
STATUS_FAIL = "FAIL"
STATUS_SKIP = "skipped: unsupported-exact"


@dataclass
class SuiteConfig:
    dim: int = 2
    mu: Fraction = Fraction(1, 2)
    lam: Fraction | None = None
    mass: Fraction | None = None
    max_degree: int = 4
    suites: tuple[str, ...] = ("all",)
    seed: int = 0
    corrupt_eigenvalue: bool = False  # self-test hook: offsets the fourth-order eigenvalue

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dim must be at least 2, got {self.dim}")
        if self.max_degree < 0:
            raise ValueError(f"max_degree must be non-negative, got {self.max_degree}")
        self.mu = as_fraction(self.mu)
        if self.mu <= Fraction(-1, 2):
            raise ValueError(f"mu must exceed -1/2, got {self.mu}")
        if self.lam is not None and self.mass is not None:
            raise ValueError("give exactly one of the sphere coupling and the point mass")
        if self.lam is None and self.mass is None:
            self.lam = Fraction(1, 4)
        if self.lam is None:
            self.mass = as_fraction(self.mass)
            self.lam = bases.sphere_coupling(self.dim, self.mass)
        else:
            self.lam = as_fraction(self.lam)
            if self.lam <= 0:
                raise ValueError(f"the sphere coupling must be positive, got {self.lam}")
            self.mass = bases.mass_parameter(self.dim, self.lam)
        names = []
        for name in self.suites:
            if name == "all":
                names.extend(SUITE_NAMES)
            elif name in SUITE_NAMES:
                names.append(name)
            else:
                raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
        if not names:
            raise ValueError("no suites selected; a report with zero checks cannot pass")
        seen = set()
        self.suites = tuple(n for n in names if not (n in seen or seen.add(n)))


@dataclass
class CheckRecord:
    suite: str
    identity: str
    statement: str
    params: dict
    status: str
    witness: str | None
    elapsed_ms: float


def _fmt(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    return value


def _serialize(value) -> str:
    if isinstance(value, (MultiPoly, UniPoly)):
        return value.canonical()
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


class _Collector:
    def __init__(self, suite: str):
        self.suite = suite
        self.records: list[CheckRecord] = []

    def zero(self, identity: str, statement: str, params: dict, residuals) -> None:
        """Check that every produced residual is exactly zero."""
        t0 = time.perf_counter()
        witness = None
        label = None
        for tag, value in residuals:
            ok = value.is_zero() if hasattr(value, "is_zero") else value == 0
            if not ok:
                witness = _serialize(value)
                label = tag
                break
        elapsed = (time.perf_counter() - t0) * 1000
        status = STATUS_ZERO if witness is None else STATUS_FAIL
        p = dict(params)
        if label is not None:
            p["first_failure"] = _fmt(label)
        self.records.append(
            CheckRecord(self.suite, identity, statement, _fmt(p), status, witness, elapsed)
        )

    def match(self, identity: str, statement: str, params: dict, pairs) -> None:
        """Check that every (got, want) pair agrees exactly."""
        t0 = time.perf_counter()
        witness = None
        label = None
        for tag, got, want in pairs:
            if got != want:
                witness = f"got {_serialize(got)}, expected {_serialize(want)}"
                label = tag
                break
        elapsed = (time.perf_counter() - t0) * 1000
        status = STATUS_MATCH if witness is None else STATUS_FAIL
        p = dict(params)
        if label is not None:
            p["first_failure"] = _fmt(label)
        self.records.append(
            CheckRecord(self.suite, identity, statement, _fmt(p), status, witness, elapsed)
        )

    def skip(self, identity: str, statement: str, params: dict, reason: str) -> None:
        p = dict(params)
        p["reason"] = reason
        self.records.append(
            CheckRecord(self.suite, identity, statement, _fmt(p), STATUS_SKIP, None, 0.0)
        )


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
    for n in range(cfg.max_degree + 1):
        out.match(
            "jacobi-normalization",
            "P_n(1) = (a+1)_n / n!",
            {"n": n, "grid": [(a, b) for a in grid for b in grid]},
            (
                ((a, b), jacobi.jacobi_polynomial(n, a, b).evaluate(1),
                 rising_factorial(a + 1, n) / factorial(n))
                for a in grid
                for b in grid
            ),
        )
        if n >= 1:
            out.zero(
                "jacobi-derivative",
                "d/dt P_n^(a,b) = ((n+a+b+1)/2) P_(n-1)^(a+1,b+1)",
                {"n": n},
                (((a, b), jacobi.jacobi_derivative_residual(n, a, b)) for a in grid for b in grid),
            )
        out.zero(
            "jacobi-ode",
            "(1-t^2) y'' + (b-a-(a+b+2)t) y' + n(n+a+b+1) y = 0",
            {"n": n},
            (((a, b), jacobi.jacobi_ode_residual(n, a, b)) for a in grid for b in grid),
        )


def _beta_values(cfg: SuiteConfig) -> list[Fraction]:
    values = set()
    for n in range(cfg.max_degree + 1):
        for k in range(n // 2 + 1):
            values.add(bases.beta_shift(n, k, cfg.dim))
    return sorted(values)


def _gram_schmidt(vectors, inner):
    ortho = []
    for v in vectors:
        w = v
        for u in ortho:
            w = w - (inner(w, u) / inner(u, u)) * u
        ortho.append(w)
    return ortho


def _suite_krall1d(cfg: SuiteConfig, out: _Collector) -> None:
    alpha = cfg.mu - Fraction(1, 2)
    params = {"dim": cfg.dim, "mu": cfg.mu, "lambda": cfg.lam}
    if alpha.denominator != 1 or alpha < 0:
        out.skip(
            "pointmass-family",
            "closed construction of the mass-modified radial family",
            params,
            "exact construction needs mu - 1/2 to be a non-negative integer",
        )
        return
    kmax = max(cfg.max_degree, 2)
    for beta in _beta_values(cfg):
        p = dict(params, beta=beta)
        qs = [jacobi.mass_orthogonal_poly(k, alpha, beta, cfg.lam, cfg.dim) for k in range(kmax + 1)]

        def inner(f, g, beta=beta):
            return jacobi.inner_jacobi_mass(f, g, alpha, beta, cfg.lam, cfg.dim)

        out.zero(
            "pointmass-orthogonality",
            "(q_j, q_k) = 0 for j != k under the mass-modified radial product",
            p,
            (
                ((j, k), inner(qs[j], qs[k]))
                for j in range(kmax + 1)
                for k in range(j + 1, kmax + 1)
            ),
        )
        a = alpha.numerator
        out.match(
            "pointmass-normalization",
            "q_k(1) = (1/lam) G(a+d/2+1)/G(d/2) * G(b+k+1)/G(a+b+k+1)",
            p,
            (
                (
                    k,
                    qs[k].evaluate(1),
                    rising_factorial(Fraction(cfg.dim, 2), a + 1)
                    / rising_factorial(beta + k + 1, a)
                    / cfg.lam,
                )
                for k in range(kmax + 1)
            ),
        )
        out.match(
            "pointmass-degree",
            "q_k has exact degree k with positive squared norm",
            p,
            ((k, (qs[k].degree, inner(qs[k], qs[k]) > 0), (k, True)) for k in range(kmax + 1)),
        )
        monomials = [UniPoly([0] * k + [1]) for k in range(kmax + 1)]
        gs = _gram_schmidt(monomials, inner)
        out.zero(
            "pointmass-gram-schmidt",
            "Gram-Schmidt on 1, t, t^2, ... reproduces q_k up to a nonzero scalar",
            p,
            (
                (k, gs[k] * qs[k].leading_coeff() - qs[k] * gs[k].leading_coeff())
                for k in range(kmax + 1)
            ),
        )
        if cfg.mu == Fraction(1, 2):
            out.match(
                "pointmass-type-agreement",
                "q_k = [M - (1+t) d/dt + k(k+b+1)] P_k^(0,b) with M = d/(2 lam)",
                p,
                (
                    (k, qs[k], jacobi.jacobi_type_poly(k, beta, cfg.mass))
                    for k in range(kmax + 1)
                ),
            )


def _suite_harmonics(cfg: SuiteConfig, out: _Collector) -> None:
    rng = _rng(cfg, "harmonics")
    d = cfg.dim
    for m in range(cfg.max_degree + 1):
        basis = harmonics.harmonic_basis(d, m)
        p = {"dim": d, "degree": m}
        out.match(
            "harmonic-dimension",
            "dim of degree-m harmonics = C(m+d-1,d-1) - C(m+d-3,d-1)",
            p,
            [(m, len(basis.elements), harmonics.harmonic_space_dim(d, m))],
        )
        out.zero(
            "harmonic-laplace",
            "Delta Y = 0 for every basis element",
            p,
            ((i, operators.laplacian(Y)) for i, Y in enumerate(basis.elements)),
        )
        out.zero(
            "harmonic-sphere-orthogonality",
            "<Y_i, Y_j>_sphere = 0 for i != j",
            p,
            (
                ((i, j), measures.inner_sphere(basis.elements[i], basis.elements[j]))
                for i in range(len(basis.elements))
                for j in range(i + 1, len(basis.elements))
            ),
        )
        out.match(
            "harmonic-norm-positive",
            "<Y, Y>_sphere > 0",
            p,
            ((i, norm > 0, True) for i, norm in enumerate(basis.sphere_norms)),
        )
        out.zero(
            "euler-identity",
            "<x, grad> Y = m Y on homogeneous Y",
            p,
            ((i, harmonics.euler_residual(Y, m)) for i, Y in enumerate(basis.elements)),
        )
        out.zero(
            "laplace-beltrami-eigen",
            "Delta_0 Y = -m(m+d-2) Y",
            p,
            ((i, harmonics.laplace_beltrami_residual(Y, m)) for i, Y in enumerate(basis.elements)),
        )
        out.zero(
            "polar-decomposition",
            "||x||^2 Delta f = Delta_0 f + m(m+d-2) f on homogeneous f",
            p,
            (
                (trial, harmonics.polar_decomposition_residual(_random_homogeneous(rng, d, m), m))
                for trial in range(3)
            ),
        )


def _exps_upto(dim: int, total: int):
    for deg in range(total + 1):
        yield from harmonics._monomials(dim, deg)


def _suite_moments(cfg: SuiteConfig, out: _Collector) -> None:
    rng = _rng(cfg, "moments")
    d = cfg.dim
    cap = min(6, 2 * cfg.max_degree)
    out.zero(
        "sphere-moment-consistency",
        "sum_i m(nu + 2 e_i) = m(nu) since sum xi_i^2 = 1 on the sphere",
        {"dim": d, "max_total_degree": cap},
        (
            (
                e,
                sum(
                    measures.sphere_moment(e[:i] + (e[i] + 2,) + e[i + 1:])
                    for i in range(d)
                )
                - measures.sphere_moment(e),
            )
            for e in _exps_upto(d, cap)
        ),
    )
    ratio = (cfg.mu + Fraction(1, 2)) / (cfg.mu + Fraction(d + 1, 2))
    out.zero(
        "ball-weight-recurrence",
        "m_mu(nu) - sum_i m_mu(nu+2e_i) = ((mu+1/2)/(mu+(d+1)/2)) m_(mu+1)(nu)",
        {"dim": d, "mu": cfg.mu, "max_total_degree": cap},
        (
            (
                e,
                measures.ball_moment(e, cfg.mu)
                - sum(
                    measures.ball_moment(e[:i] + (e[i] + 2,) + e[i + 1:], cfg.mu)
                    for i in range(d)
                )
                - ratio * measures.ball_moment(e, cfg.mu + 1),
            )
            for e in _exps_upto(d, cap)
        ),
    )
    out.match(
        "sphere-ball-ratio",
        "sphere area over ball mass equals d when mu = 1/2",
        {"dims": [2, 3, 4, 5, 6]},
        ((dd, measures.sphere_ball_ratio(dd, Fraction(1, 2)), Fraction(dd)) for dd in range(2, 7)),
    )
    one = MultiPoly.constant(d, 1)
    out.match(
        "unit-mass",
        "<1,1>_mu = 1 and the mass-modified product gives 1 + lam",
        {"dim": d, "mu": cfg.mu, "lambda": cfg.lam},
        [
            ("ball", measures.inner_ball(one, one, cfg.mu), Fraction(1)),
            ("sphere", measures.inner_sphere(one, one), Fraction(1)),
            ("mass", measures.inner_mass(one, one, cfg.mu, cfg.lam), 1 + cfg.lam),
        ],
    )
    fs = [_random_multipoly(rng, d, 3) for _ in range(3)]
    gs = [_random_multipoly(rng, d, 3) for _ in range(3)]
    out.zero(
        "product-symmetry",
        "<f,g> = <g,f> and <f+g,h> = <f,h> + <g,h>, exactly",
        {"dim": d, "mu": cfg.mu, "lambda": cfg.lam, "trials": len(fs)},
        (
            pair
            for i, (f, g) in enumerate(zip(fs, gs))
            for pair in (
                (
                    ("symmetry", i),
                    measures.inner_mass(f, g, cfg.mu, cfg.lam)
                    - measures.inner_mass(g, f, cfg.mu, cfg.lam),
                ),
                (
                    ("bilinearity", i),
                    measures.inner_mass(f + g, fs[(i + 1) % len(fs)], cfg.mu, cfg.lam)
                    - measures.inner_mass(f, fs[(i + 1) % len(fs)], cfg.mu, cfg.lam)
                    - measures.inner_mass(g, fs[(i + 1) % len(fs)], cfg.mu, cfg.lam),
                ),
            )
        ),
    )
    out.match(
        "product-positivity",
        "<f,f>_lam > 0 for nonzero monomials through degree 4",
        {"dim": d, "mu": cfg.mu, "lambda": cfg.lam},
        (
            (e, measures.inner_mass(mono, mono, cfg.mu, cfg.lam) > 0, True)
            for e in _exps_upto(d, min(4, cap))
            for mono in [MultiPoly(d, {e: 1})]
        ),
    )


def _classical_elements(cfg: SuiteConfig):
    return [
        el for n in range(cfg.max_degree + 1) for el in bases.classical_basis(n, cfg.dim, cfg.mu)
    ]


def _suite_classical_orthogonality(cfg: SuiteConfig, out: _Collector) -> None:
    els = _classical_elements(cfg)
    p = {"dim": cfg.dim, "mu": cfg.mu, "max_degree": cfg.max_degree}
    out.zero(
        "classical-gram-offdiagonal",
        "<P, P'>_mu = 0 for distinct indices, across all degrees",
        p,
        (
            (
                (els[i].index.n, els[i].index.k, els[i].index.nu,
                 els[j].index.n, els[j].index.k, els[j].index.nu),
                measures.inner_ball(els[i].poly, els[j].poly, cfg.mu),
            )
            for i in range(len(els))
            for j in range(i + 1, len(els))
        ),
    )
    out.match(
        "classical-gram-diagonal",
        "<P, P>_mu > 0",
        p,
        (
            ((el.index.n, el.index.k, el.index.nu), el.sq_norm > 0 and
             measures.inner_ball(el.poly, el.poly, cfg.mu) == el.sq_norm, True)
            for el in els
        ),
    )
    out.match(
        "classical-dimension",
        "number of degree-n elements = C(n+d-1, d-1)",
        p,
        (
            (n, len(bases.classical_basis(n, cfg.dim, cfg.mu)), comb(n + cfg.dim - 1, cfg.dim - 1))
            for n in range(cfg.max_degree + 1)
        ),
    )
    def lower_degree_pairs():
        for n in range(1, cfg.max_degree + 1):
            for el in bases.classical_basis(n, cfg.dim, cfg.mu):
                for e in _exps_upto(cfg.dim, n - 1):
                    yield (
                        (n, el.index.k, el.index.nu, e),
                        measures.inner_ball(el.poly, MultiPoly(cfg.dim, {e: 1}), cfg.mu),
                    )
    out.zero(
        "classical-lower-degree",
        "<P, x^nu>_mu = 0 for every monomial of lower total degree",
        p,
        lower_degree_pairs(),
    )


def _suite_d_mu_eigen(cfg: SuiteConfig, out: _Collector) -> None:
    for n in range(cfg.max_degree + 1):
        eig = -(n + cfg.dim) * (n + 2 * cfg.mu - 1)
        out.zero(
            "classical-second-order-eigen",
            "[Delta - sum_j d/dx_j x_j (2mu-1 + <x,grad>)] P = -(n+d)(n+2mu-1) P",
            {"dim": cfg.dim, "mu": cfg.mu, "n": n, "eigenvalue": eig},
            (
                (
                    (el.index.k, el.index.nu),
                    operators.classical_ball_op(el.poly, cfg.mu) - eig * el.poly,
                )
                for el in bases.classical_basis(n, cfg.dim, cfg.mu)
            ),
        )


def _mass_elements(cfg: SuiteConfig):
    return [
        el
        for n in range(cfg.max_degree + 1)
        for el in bases.mass_basis(n, cfg.dim, cfg.mu, cfg.lam)
    ]


def _suite_lambda_orthogonality(cfg: SuiteConfig, out: _Collector) -> None:
    alpha = cfg.mu - Fraction(1, 2)
    p = {"dim": cfg.dim, "mu": cfg.mu, "lambda": cfg.lam, "max_degree": cfg.max_degree}
    if alpha.denominator != 1 or alpha < 0:
        out.skip(
            "mass-gram-diagonal",
            "mutual orthogonality of the mass-modified basis",
            p,
            "exact construction needs mu - 1/2 to be a non-negative integer",
        )
        return
    els = _mass_elements(cfg)
    out.zero(
        "mass-gram-offdiagonal",
        "<Q, Q'>_lam = 0 for distinct indices, across all degrees",
        p,
        (
            (
                (els[i].index.n, els[i].index.k, els[i].index.nu,
                 els[j].index.n, els[j].index.k, els[j].index.nu),
                measures.inner_mass(els[i].poly, els[j].poly, cfg.mu, cfg.lam),
            )
            for i in range(len(els))
            for j in range(i + 1, len(els))
        ),
    )
    out.match(
        "mass-gram-diagonal",
        "<Q, Q>_lam > 0",
        p,
        (((el.index.n, el.index.k, el.index.nu), el.sq_norm > 0, True) for el in els),
    )

    def factorization_pairs():
        for i in range(len(els)):
            for j in range(i, len(els)):
                a, b = els[i], els[j]
                lhs = measures.inner_mass(a.poly, b.poly, cfg.mu, cfg.lam)
                same_harmonic = (
                    a.index.n - 2 * a.index.k == b.index.n - 2 * b.index.k
                    and a.index.nu == b.index.nu
                )
                if same_harmonic:
                    qa = jacobi.mass_orthogonal_poly(
                        a.index.k, alpha, a.index.beta_k, cfg.lam, cfg.dim
                    )
                    qb = jacobi.mass_orthogonal_poly(
                        b.index.k, alpha, b.index.beta_k, cfg.lam, cfg.dim
                    )
                    radial = jacobi.inner_jacobi_mass(
                        qa, qb, alpha, a.index.beta_k, cfg.lam, cfg.dim
                    )
                    rhs = radial * a.harmonic_sq_norm
                else:
                    rhs = Fraction(0)
                yield (
                    (a.index.n, a.index.k, a.index.nu, b.index.n, b.index.k, b.index.nu),
                    lhs - rhs,
                )

    out.zero(
        "mass-product-factorization",
        "<Q_j^n, Q_k^m>_lam = (q_j, q_k) <Y,Y>_sphere delta(n-2j, m-2k) delta(nu, eta)",
        p,
        factorization_pairs(),
    )


def _require_half(cfg: SuiteConfig, out: _Collector, identity: str, statement: str) -> bool:
    if cfg.mu != Fraction(1, 2):
        out.skip(
            identity,
            statement,
            {"dim": cfg.dim, "mu": cfg.mu},
            "the fourth-order theory lives at mu = 1/2",
        )
        return False
    return True


def _suite_connection(cfg: SuiteConfig, out: _Collector) -> None:
    if not _require_half(cfg, out, "connection-forward", "connection identities between the two bases"):
        return
    rng = _rng(cfg, "connection")
    d, M, lam = cfg.dim, cfg.mass, cfg.lam
    p = {"dim": d, "mass": M, "lambda": lam}
    for n in range(cfg.max_degree + 1):
        pn = dict(p, n=n)
        pairs1, pairs2 = [], []
        for el in bases.classical_basis(n, d, Fraction(1, 2)):
            k, nu = el.index.k, el.index.nu
            r1, r2 = operators.connection_residuals(n, k, nu, d, M)
            pairs1.append(((k, nu), r1))
            pairs2.append(((k, nu), r2))
        out.zero(
            "connection-forward",
            "[M - (1/4)(1-||x||^2) Delta] P(n,k,nu) = Q(n,k,nu)",
            pn,
            pairs1,
        )
        out.zero(
            "connection-backward",
            "[M + d/2 - (1/4)(1-||x||^2) Delta + <x,grad>] Q(n,k,nu) = Lambda(n,k) P(n,k,nu)",
            pn,
            pairs2,
        )
        out.zero(
            "connection-radial",
            "the radial one-variable forms of both connection identities",
            pn,
            (
                ((n, k, which), res)
                for k in range(n // 2 + 1)
                for which, res in zip(
                    ("forward", "backward"),
                    operators.radial_connection_residuals(n, k, d, M),
                )
            ),
        )
    kmax = max(cfg.max_degree, 2)
    for beta in _beta_values(cfg):
        pb = dict(p, beta=beta)
        out.zero(
            "connection-univariate",
            "[M - (1-t^2) d2/dt2 - (b+1)(1-t) d/dt] P_k = q_k and its conjugate sends q_k to the eigenvalue times P_k",
            pb,
            (
                ((k, which), res)
                for k in range(kmax + 1)
                for which, res in zip(
                    ("forward", "backward", "fourth-order"),
                    _univariate_connection_residuals(k, beta, M),
                )
            ),
        )
        out.zero(
            "parts-identity",
            "integral of g (connection f) against the point-mass measure equals the plain weighted integral of f (conjugate g)",
            pb,
            (
                (trial, jacobi.parts_residual(
                    _random_unipoly(rng, 5), _random_unipoly(rng, 5), beta, M
                ))
                for trial in range(3)
            ),
        )
    out.zero(
        "connection-lift",
        "the ball connection of u(2||x||^2-1) Y equals the lifted univariate image",
        p,
        _lift_pairs(cfg, rng),
    )


def _univariate_connection_residuals(k: int, beta, M):
    pk = jacobi.jacobi_polynomial(k, 0, beta)
    qk = jacobi.jacobi_type_poly(k, beta, M)
    eig = jacobi.type_eigenvalue(k, beta, M)
    forward = jacobi.connection_op(pk, beta, M) - qk
    backward = jacobi.conjugate_connection_op(qk, beta, M) - eig * pk
    fourth = jacobi.connection_op(jacobi.conjugate_connection_op(qk, beta, M), beta, M) - eig * qk
    return forward, backward, fourth


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
    if not _require_half(cfg, out, "fourth-order-eigen", "the fourth-order eigen-equation"):
        return
    d, M, lam = cfg.dim, cfg.mass, cfg.lam
    offset = Fraction(1) if cfg.corrupt_eigenvalue else Fraction(0)
    p = {"dim": d, "mass": M, "lambda": lam}
    for n in range(cfg.max_degree + 1):
        out.zero(
            "fourth-order-eigen",
            "[M - (1/4)(1-||x||^2) Delta][M + d/2 - (1/4)(1-||x||^2) Delta + <x,grad>] Q = Lambda(n,k) Q",
            dict(p, n=n),
            (
                (
                    (el.index.k, el.index.nu),
                    operators.fourth_order_op(el.poly, M)
                    - (operators.fourth_order_eigenvalue(n, el.index.k, d, M) + offset) * el.poly,
                )
                for el in bases.mass_basis(n, d, Fraction(1, 2), lam)
            ),
        )
    out.match(
        "eigenvalue-forms",
        "(M+k(k+b_k))(M+(k+1)(k+b_k+1)) = (M+k(n-k+(d-2)/2))(M+(k+1)(n-k+d/2))",
        p,
        (
            (
                (n, k),
                jacobi.type_eigenvalue(k, bases.beta_shift(n, k, d), M),
                operators.fourth_order_eigenvalue(n, k, d, M),
            )
            for n in range(max(cfg.max_degree, 10) + 1)
            for k in range(n // 2 + 1)
        ),
    )
    control = MultiPoly.constant(d, 1) + MultiPoly.variable(d, 0)
    residual = operators.fourth_order_op(control, M) - operators.fourth_order_eigenvalue(
        1, 0, d, M
    ) * control
    out.match(
        "fourth-order-negative-control",
        "a polynomial outside the eigenspace leaves a nonzero residual",
        dict(p, control=str(control), residual=residual.canonical()),
        [("nonzero", residual.is_zero(), False)],
    )


_SUITE_RUNNERS = {
    "jacobi": _suite_jacobi,
    "krall1d": _suite_krall1d,
    "harmonics": _suite_harmonics,
    "moments": _suite_moments,
    "classical-orthogonality": _suite_classical_orthogonality,
    "lambda-orthogonality": _suite_lambda_orthogonality,
    "d-mu-eigen": _suite_d_mu_eigen,
    "connection": _suite_connection,
    "fourth-order": _suite_fourth_order,
}


def run_suites(cfg: SuiteConfig) -> list[CheckRecord]:
    records: list[CheckRecord] = []
    for name in cfg.suites:
        collector = _Collector(name)
        _SUITE_RUNNERS[name](cfg, collector)
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
    lines = []
    for r in records:
        lines.append(
            json.dumps(
                {
                    "type": "check",
                    "suite": r.suite,
                    "identity": r.identity,
                    "statement": r.statement,
                    "params": r.params,
                    "status": r.status,
                    "witness": r.witness,
                    "elapsed_ms": round(r.elapsed_ms, 3),
                },
                sort_keys=True,
            )
        )
    lines.append(json.dumps(summarize(cfg, records), sort_keys=True))
    return lines
