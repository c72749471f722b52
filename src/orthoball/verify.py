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

This module holds the framework, both tables and the two univariate suites,
``jacobi`` and ``krall1d``, and imports only ``polynomials`` at module level.
The seven ball and sphere suites live in ``ball_suites``, which ``run_suites``
imports the first time one of them runs, and each runner imports the other
layers it reads, so a univariate run loads only ``jacobi``, ``exact_gamma`` and
``polynomials``.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from functools import cache
from math import factorial
from typing import Callable, NamedTuple

# Every verifier run reads the polynomial layer (the configuration's checks, the report's
# fraction text), so it is the one layer imported here: a function-level import in _fmt
# would run again for every Fraction in the report.
from .polynomials import MultiPoly, UniPoly, _check_mu, _couplings, beta_shift, fraction_text

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
        self.mu = _check_mu(mu)
        self.lam, self.mass = _couplings(dim, lam, mass)
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


def _suite_jacobi(cfg: SuiteConfig, out: _Collector) -> None:
    from . import jacobi
    from .exact_gamma import rising_factorial

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
    return sorted({beta_shift(n, k, cfg.dim) for n in degrees for k in range(n // 2 + 1)})


def _suite_krall1d(cfg: SuiteConfig, out: _Collector) -> None:
    from . import jacobi
    from .exact_gamma import gamma_ratio

    alpha, half_dim = cfg.mu - _HALF, Fraction(cfg.dim, 2)
    top = half_dim + alpha + 1
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
        out.check(
            "pointmass-normalization",
            p,
            lambda: (
                (k, qs()[k].evaluate(1),
                 gamma_ratio((top, beta + k + 1), (half_dim, alpha + beta + k + 1)) / cfg.lam)
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


class _Requirement(NamedTuple):
    """A parameter range that an exact construction needs, and the reason to skip outside it."""

    holds: Callable[[SuiteConfig], bool]
    reason: str


def _at_fourth_order_mu(cfg: SuiteConfig) -> bool:
    from .jacobi import FOURTH_ORDER_MU

    return cfg.mu == FOURTH_ORDER_MU


_AT_HALF = _Requirement(_at_fourth_order_mu, "the fourth-order theory lives at mu = 1/2")

# name -> (runner, requirement or None, then the identity, statement and params that the
# skipped record carries when the configuration falls outside the requirement).  A runner
# given by name is that function of ``ball_suites``.
_SUITES = {
    "jacobi": (_suite_jacobi, None),
    "krall1d": (_suite_krall1d, None),
    "harmonics": ("_suite_harmonics", None),
    "moments": ("_suite_moments", None),
    "classical-orthogonality": ("_suite_classical_orthogonality", None),
    "lambda-orthogonality": ("_suite_lambda_orthogonality", None),
    "d-mu-eigen": ("_suite_d_mu_eigen", None),
    "connection": (
        "_suite_connection", _AT_HALF, "connection-forward",
        "connection identities between the two bases", ("dim", "mu"),
    ),
    "fourth-order": (
        "_suite_fourth_order", _AT_HALF, "fourth-order-eigen",
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
            if isinstance(runner, str):  # a ball or sphere suite, loaded on first use
                from . import ball_suites

                runner = getattr(ball_suites, runner)
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
