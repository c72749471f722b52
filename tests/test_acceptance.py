"""Acceptance suite: every identity the library promises, checked exactly.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see them
live) and enforces its runtime budget.  All equalities are exact rational
comparisons; there are no tolerances to tune.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction as Q
from math import factorial

import pytest
from oracles import gram_schmidt, iterated_disk_moment

from orthoball import (
    MultiPoly,
    UniPoly,
    ball_connection_op,
    ball_conjugate_op,
    beta_shift,
    classical_ball_op,
    classical_basis,
    connection_op,
    conjugate_connection_op,
    euler_residual,
    fourth_order_eigenvalue,
    fourth_order_op,
    harmonic_basis,
    harmonic_space_dim,
    inner_ball,
    inner_jacobi_mass,
    inner_mass,
    inner_sphere,
    jacobi_derivative_residual,
    jacobi_ode_residual,
    jacobi_polynomial,
    jacobi_type_poly,
    laplacian,
    mass_basis,
    mass_orthogonal_poly,
    parts_residual,
    polar_decomposition_residual,
    sphere_ball_ratio,
    sphere_coupling,
    sphere_moment,
    type_eigenvalue,
)
from orthoball.exact_gamma import rising_factorial
from orthoball.harmonics import _monomials


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} {self.name} ({elapsed:.2f}s, budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its runtime budget: {elapsed:.2f}s"
            )


PARAM_GRID = [Q(0), Q(1, 2), Q(1), Q(3, 2), Q(2)]


def test_criterion_1_jacobi_layer():
    with _Budget("criterion 1: Jacobi normalization, derivative, and ODE identities", 5):
        for a in PARAM_GRID:
            for b in PARAM_GRID:
                for n in range(11):
                    value = jacobi_polynomial(n, a, b).evaluate(1)
                    assert value == rising_factorial(a + 1, n) / factorial(n)
                    if n >= 1:
                        assert jacobi_derivative_residual(n, a, b).is_zero()
                    assert jacobi_ode_residual(n, a, b).is_zero()


def test_criterion_2_pointmass_radial_family():
    with _Budget("criterion 2: point-mass radial family orthogonality and normalization", 10):
        for d in (2, 3):
            betas = sorted({beta_shift(n, k, d) for n in range(7) for k in range(n // 2 + 1)})
            for lam in (Q(1, 4), Q(1, 2), Q(1)):
                for beta in betas:
                    qs = [mass_orthogonal_poly(k, 0, beta, lam, d) for k in range(7)]
                    inner = lambda f, g: inner_jacobi_mass(f, g, 0, beta, lam, d)
                    for j in range(7):
                        # Normalization at 1: the Gamma ratio telescopes to (1/lam)(d/2).
                        assert qs[j].evaluate(1) == Q(d, 2) / lam
                        for k in range(j + 1, 7):
                            assert inner(qs[j], qs[k]) == 0
                    gs = gram_schmidt([UniPoly([0] * k + [1]) for k in range(7)], inner)
                    for k in range(7):
                        assert gs[k] * qs[k].leading_coeff() == qs[k] * gs[k].leading_coeff()


def test_criterion_3_univariate_connection():
    with _Budget("criterion 3: univariate connection operators and fourth-order ODE", 10):
        for beta in (Q(0), Q(1), Q(2), Q(5, 2)):
            for mass in (Q(1), Q(2), Q(7, 3)):
                for k in range(9):
                    p = jacobi_polynomial(k, 0, beta)
                    q = jacobi_type_poly(k, beta, mass)
                    eig = type_eigenvalue(k, beta, mass)
                    assert connection_op(p, beta, mass) == q
                    assert conjugate_connection_op(q, beta, mass) == eig * p
                    assert connection_op(
                        conjugate_connection_op(q, beta, mass), beta, mass
                    ) == eig * q
        rng = random.Random(0)
        for beta in (0, 1, 2):
            for _ in range(10):
                f = UniPoly([Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(6)])
                g = UniPoly([Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(6)])
                assert parts_residual(f, g, beta, Q(7, 3)) == 0


def test_criterion_4_harmonics():
    """The bases are built from moment images, and so is each inner_sphere below;
    tests/test_measures.py::TestTermwiseOracle pins those images to Gamma-form moments."""
    with _Budget("criterion 4: harmonic bases for d in {2,3,4}, degrees through 8", 30):
        rng = random.Random(1)
        for d in (2, 3, 4):
            for m in range(9):
                basis = harmonic_basis(d, m)
                assert len(basis.elements) == harmonic_space_dim(d, m)
                for Y in basis.elements:
                    assert laplacian(Y).is_zero()
                    assert euler_residual(Y, m).is_zero()
                els = basis.elements
                for i in range(len(els)):
                    for j in range(i + 1, len(els)):
                        assert inner_sphere(els[i], els[j]) == 0
                # Laplace-Beltrami splitting on arbitrary homogeneous inputs.
                for _ in range(2):
                    f = MultiPoly(d, {e: rng.randint(-4, 4) for e in _monomials(d, m)})
                    assert polar_decomposition_residual(f, m).is_zero()


def test_criterion_5_moments():
    with _Budget("criterion 5: moment consistency, factorization oracle, mass ratio", 5):
        for d in (2, 3, 4):
            for deg in range(7):
                for e in _monomials(d, deg):
                    total = sum(
                        sphere_moment(e[:i] + (e[i] + 2,) + e[i + 1 :]) for i in range(d)
                    )
                    assert total == sphere_moment(e)
        from orthoball import ball_moment

        for mu in (Q(1, 2), Q(1), Q(3, 2)):
            for a in range(9):
                for b in range(9 - a):
                    assert ball_moment((a, b), mu) == iterated_disk_moment(a, b, mu)
        for d in range(2, 7):
            assert sphere_ball_ratio(d, Q(1, 2)) == d


def test_criterion_6_classical_orthogonality_and_eigen():
    with _Budget("criterion 6: classical basis Gram structure and second-order eigen", 60):
        for d in (2, 3):
            for mu in (Q(1, 2), Q(1), Q(3, 2)):
                els = [el for n in range(7) for el in classical_basis(n, d, mu)]
                for i in range(len(els)):
                    assert els[i].sq_norm > 0
                    for j in range(i + 1, len(els)):
                        assert inner_ball(els[i].poly, els[j].poly, mu) == 0
                for el in els:
                    n = el.index.n
                    eig = -(n + d) * (n + 2 * mu - 1)
                    assert (classical_ball_op(el.poly, mu) - eig * el.poly).is_zero()


def test_criterion_7_mass_basis_orthogonality():
    with _Budget("criterion 7: mass-modified basis Gram structure and factorization", 60):
        mu = Q(1, 2)
        for d in (2, 3):
            for lam in (Q(1, 4), Q(1, 2)):
                els = [el for n in range(5) for el in mass_basis(n, d, mu, lam)]
                for i in range(len(els)):
                    assert els[i].sq_norm > 0
                    for j in range(i + 1, len(els)):
                        assert inner_mass(els[i].poly, els[j].poly, mu, lam) == 0
        # Product factorization into radial product times harmonic norm, d=2.
        d = 2
        for lam in (Q(1, 4), Q(1, 2)):
            els = [el for n in range(5) for el in mass_basis(n, d, mu, lam)]
            for a in els:
                for b in els:
                    lhs = inner_mass(a.poly, b.poly, mu, lam)
                    if (
                        a.index.n - 2 * a.index.k == b.index.n - 2 * b.index.k
                        and a.index.nu == b.index.nu
                    ):
                        qa = mass_orthogonal_poly(a.index.k, 0, a.index.beta_k, lam, d)
                        qb = mass_orthogonal_poly(b.index.k, 0, b.index.beta_k, lam, d)
                        rhs = (
                            inner_jacobi_mass(qa, qb, 0, a.index.beta_k, lam, d)
                            * a.harmonic_sq_norm
                        )
                    else:
                        rhs = Q(0)
                    assert lhs == rhs


def test_criterion_8_fourth_order_pde():
    with _Budget("criterion 8: connection identities and the fourth-order eigen-equation", 120):
        mu = Q(1, 2)
        for d, nmax in ((2, 6), (3, 5)):
            for mass in (Q(1), Q(2), Q(7, 3)):
                lam = sphere_coupling(d, mass)
                for n in range(nmax + 1):
                    P_els = classical_basis(n, d, mu)
                    Q_els = mass_basis(n, d, mu, lam)
                    for P_el, Q_el in zip(P_els, Q_els):
                        k = P_el.index.k
                        eig = fourth_order_eigenvalue(n, k, d, mass)
                        assert ball_connection_op(P_el.poly, mass) == Q_el.poly
                        assert ball_conjugate_op(Q_el.poly, mass) == eig * P_el.poly
                        assert fourth_order_op(Q_el.poly, mass) == eig * Q_el.poly
        for d in (2, 3):
            for mass in (Q(1), Q(2), Q(7, 3)):
                for n in range(11):
                    for k in range(n // 2 + 1):
                        assert fourth_order_eigenvalue(n, k, d, mass) == type_eigenvalue(
                            k, beta_shift(n, k, d), mass
                        )
        # Negative control: a non-eigenfunction leaves a visible residual.
        control = MultiPoly.constant(2, 1) + MultiPoly.variable(2, 0)
        residual = fourth_order_op(control, Q(2)) - fourth_order_eigenvalue(
            1, 0, 2, Q(2)
        ) * control
        assert not residual.is_zero()
        print(f"  negative-control residual: {residual.canonical()}")


def test_criterion_9_cli():
    with _Budget("criterion 9: CLI exit codes and deterministic report", 60):
        base = [
            sys.executable, "-m", "orthoball.cli",
            "--dim", "2", "--mu", "1/2", "--lambda", "1/4",
            "--max-degree", "4", "--suites", "all",
        ]
        first = subprocess.run(base, capture_output=True, text=True)
        second = subprocess.run(base, capture_output=True, text=True)
        assert first.returncode == 0
        assert second.returncode == 0

        def stripped(out):
            records = []
            for line in out.strip().split("\n"):
                rec = json.loads(line)
                rec.pop("elapsed_ms", None)
                records.append(rec)
            return records

        assert stripped(first.stdout) == stripped(second.stdout)
        summary = json.loads(first.stdout.strip().split("\n")[-1])
        assert summary["status"] == "pass"
        assert summary["counts"]["failed"] == 0

        corrupted = subprocess.run(
            base + ["--corrupt-eigenvalue"], capture_output=True, text=True
        )
        assert corrupted.returncode == 1
        failures = [
            rec
            for rec in (json.loads(line) for line in corrupted.stdout.strip().split("\n"))
            if rec.get("status") == "FAIL"
        ]
        assert failures and all(rec["witness"] for rec in failures)
