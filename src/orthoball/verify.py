"""Parameterized verification suites producing structured, deterministic reports.

Each suite re-derives a family of identities and checks them in exact
arithmetic.  ``_IDENTITIES`` declares each identity's kind and statement.  An
"exact-zero" check passes when every item (tag, residual) is the literal zero,
an "exact-match" check when every item (tag, got, want) has got == want.

A suite is a generator over the run's ``SuiteConfig`` that yields one
``(identity, params, items)`` triple per check, and ``_run_suite`` records
them all in one loop.  A check's timer starts when the loop resumes the suite
and stops after the check's last item is read, so ``elapsed_ms`` covers what
the suite does just before the yield (a basis, a Gram matrix, the eigenvalues
of a degree; for its first check, the layer imports) as well as the items; a
build that several checks read is made before the first of them and charged to
it alone.  The loop stops at the first item that fails and serializes it as
the witness, so items that draw random trials are lazy: a failing check draws
no more.  The items are read before the suite resumes, so they may read the
variables of the loop that yields them.  Orthogonality suites read every check
from one Gram matrix per basis, and ``krall1d`` from one Gram matrix of the
point-mass family per beta.  A Gram matrix is the map of its nonzero entries
with i <= j, so the exact-zero items are its off-diagonal keys in row-major
order: a passing scan builds no tag and no witness, and a failing one reports
the same first entry that an item per entry would.

This module holds the framework and the two univariate suites, ``jacobi`` and
``krall1d``, and imports only ``polynomials`` at module level.  The seven ball
and sphere suites live in ``ball_suites`` as ``_suite_<name>``, which
``run_suites`` imports the first time one of them runs; each suite imports the
other layers it reads when it starts, so a univariate run loads only
``jacobi``, ``exact_gamma`` and ``polynomials``.  The ``connection`` and
``fourth-order`` suites hold at mu = 1/2 only; elsewhere each emits the one
skipped record that ``_FOURTH_ORDER_SUITES`` declares.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from math import factorial
from typing import Iterator, NamedTuple

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
    """Each entry above the diagonal of the Gram map ``gram``, tagged (i, j), in row-major
    order: its sorted off-diagonal keys.

    The map holds no zero entry, so an exact-zero check over it builds a tag and a witness
    for no passing pair; its first item, if any, is the first failure of a row-major scan.
    """
    return ((ij, gram[ij]) for ij in sorted(gram) if ij[0] < ij[1])


def _witness(kind: str, values) -> str | None:
    """Serialized evidence that one check item fails, or None when it passes."""
    if kind == STATUS_ZERO:
        (value,) = values
        ok = value.is_zero() if hasattr(value, "is_zero") else value == 0
        return None if ok else _serialize(value)
    got, want = values
    return None if got == want else f"got {_serialize(got)}, expected {_serialize(want)}"


def _run_suite(suite: str, checks: Iterator[tuple]) -> list[CheckRecord]:
    """Record each check that the suite ``checks`` yields as an (identity, params, items) triple.

    A check's time runs from resuming the suite to reading its last item, or its first
    failing one, which is recorded with its tag as the witness.
    """
    records: list[CheckRecord] = []
    start = time.perf_counter()
    for identity, params, items in checks:
        kind, statement = _IDENTITIES[identity]
        witness = None
        for tag, *values in items:
            witness = _witness(kind, values)
            if witness is not None:
                break
        elapsed = (time.perf_counter() - start) * 1000
        p = dict(params) if witness is None else dict(params, first_failure=tag)
        status = kind if witness is None else STATUS_FAIL
        records.append(CheckRecord(suite, identity, statement, _fmt(p), status, witness, elapsed))
        start = time.perf_counter()
    return records


def _params(cfg: SuiteConfig, *names: str) -> dict:
    fields = {"dim": cfg.dim, "mu": cfg.mu, "lambda": cfg.lam, "mass": cfg.mass,
              "max_degree": cfg.max_degree}
    return {name: fields[name] for name in names}


def _suite_jacobi(cfg: SuiteConfig) -> Iterator[tuple]:
    from . import jacobi
    from .exact_gamma import rising_factorial

    grid = [Fraction(0), Fraction(1, 2), Fraction(1)]
    pairs = [(a, b) for a in grid for b in grid]
    for n in range(cfg.max_degree + 1):
        yield "jacobi-normalization", {"n": n, "grid": pairs}, (
            ((a, b), jacobi.jacobi_polynomial(n, a, b).evaluate(1),
             rising_factorial(a + 1, n) / factorial(n))
            for a, b in pairs
        )
        if n >= 1:
            yield "jacobi-derivative", {"n": n}, (
                ((a, b), jacobi.jacobi_derivative_residual(n, a, b)) for a, b in pairs
            )
        yield "jacobi-ode", {"n": n}, (
            ((a, b), jacobi.jacobi_ode_residual(n, a, b)) for a, b in pairs
        )


def _beta_values(cfg: SuiteConfig) -> list[Fraction]:
    degrees = range(cfg.max_degree + 1)
    return sorted({beta_shift(n, k, cfg.dim) for n in degrees for k in range(n // 2 + 1)})


def _suite_krall1d(cfg: SuiteConfig) -> Iterator[tuple]:
    from . import jacobi
    from .exact_gamma import gamma_ratio

    alpha, half_dim = cfg.mu - _HALF, Fraction(cfg.dim, 2)
    top = half_dim + alpha + 1
    ks = range(max(cfg.max_degree, 2) + 1)
    for beta in _beta_values(cfg):
        p = dict(_params(cfg, "dim", "mu", "lambda"), beta=beta)
        qs = [jacobi.mass_orthogonal_poly(k, alpha, beta, cfg.lam, cfg.dim) for k in ks]
        gram = jacobi.gram_jacobi_mass(qs, alpha, beta, cfg.lam, cfg.dim)
        yield "pointmass-orthogonality", p, _nonzero_above_diagonal(gram)
        yield "pointmass-normalization", p, (
            (k, qs[k].evaluate(1),
             gamma_ratio((top, beta + k + 1), (half_dim, alpha + beta + k + 1)) / cfg.lam)
            for k in ks
        )
        yield "pointmass-degree", p, ((k, (qs[k].degree, gram.get((k, k), 0) > 0), (k, True)) for k in ks)
        gs = jacobi.gram_schmidt_jacobi_mass(len(ks), alpha, beta, cfg.lam, cfg.dim)
        yield "pointmass-gram-schmidt", p, (
            (k, gs[k] * qs[k].leading_coeff() - qs[k] * gs[k].leading_coeff()) for k in ks
        )
        if cfg.mu == jacobi.FOURTH_ORDER_MU:
            yield "pointmass-type-agreement", p, (
                (k, qs[k], jacobi.jacobi_type_poly(k, beta, cfg.mass)) for k in ks
            )


# suite -> the identity and statement of the one skipped record that it emits away from
# mu = 1/2, where the fourth-order theory lives
_FOURTH_ORDER_SUITES = {
    "connection": ("connection-forward", "connection identities between the two bases"),
    "fourth-order": ("fourth-order-eigen", "the fourth-order eigen-equation"),
}

SUITE_NAMES = ("jacobi", "krall1d", "harmonics", "moments", "classical-orthogonality",
               "lambda-orthogonality", "d-mu-eigen", *_FOURTH_ORDER_SUITES)


def run_suites(cfg: SuiteConfig) -> list[CheckRecord]:
    records: list[CheckRecord] = []
    for name in cfg.suites:
        if name in _FOURTH_ORDER_SUITES:
            from .jacobi import FOURTH_ORDER_MU

            if cfg.mu != FOURTH_ORDER_MU:
                identity, statement = _FOURTH_ORDER_SUITES[name]
                reason = "the fourth-order theory lives at mu = 1/2"
                p = _fmt(dict(_params(cfg, "dim", "mu"), reason=reason))
                records.append(CheckRecord(name, identity, statement, p, STATUS_SKIP, None, 0.0))
                continue
        runner = "_suite_" + name.replace("-", "_")
        suite = globals().get(runner)
        if suite is None:  # a ball or sphere suite, loaded on first use
            from . import ball_suites

            suite = getattr(ball_suites, runner)
        records.extend(_run_suite(name, suite(cfg)))
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
