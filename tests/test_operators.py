import random
from fractions import Fraction as Q

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
    euler_op,
    euler_residual,
    find_element,
    fourth_order_eigenvalue,
    fourth_order_op,
    harmonic_basis,
    laplace_beltrami_op,
    laplace_beltrami_residual,
    laplacian,
    mass_basis,
    radial_connection_residuals,
    radius_squared,
    sphere_coupling,
    substitute_radial,
    type_eigenvalue,
)
from orthoball.polynomials import _second_order
from oracles import (
    composed_ball_conjugate_op,
    composed_ball_connection_op,
    composed_classical_ball_op,
    composed_conjugate_connection_op,
    composed_connection_op,
    damped_laplacian,
    euler,
)


class TestBasicOperators:
    def test_laplacian_values(self):
        for d in (2, 3, 4):
            assert laplacian(radius_squared(d)) == MultiPoly.constant(d, 2 * d)
        assert laplacian(MultiPoly(2, {(1, 1): 1})).is_zero()
        assert laplacian(MultiPoly(2, {(2, 0): 1, (0, 2): -1})).is_zero()

    def test_euler_grades(self):
        p = MultiPoly(2, {(3, 0): 1})
        assert euler_op(p) == 3 * p
        assert euler_op(MultiPoly.constant(2, 9)).is_zero()
        mixed = MultiPoly(2, {(1, 0): 1, (2, 0): 1})
        assert euler_op(mixed) == MultiPoly(2, {(1, 0): 1, (2, 0): 2})


_POLYS = st.integers(1, 5).flatmap(
    lambda dim: st.dictionaries(st.tuples(*[st.integers(0, 4)] * dim),
                                st.fractions(-4, 4, max_denominator=5), max_size=6)
    .map(lambda terms: MultiPoly(dim, terms)))


def _damped(p):
    """The kernel's damped term alone, -(1/4)(1-||x||^2) Delta p: every other coefficient 0."""
    return _second_order(p, 4, 0, 0, 0, -1, 1)


@settings(max_examples=100)
@given(_POLYS)
def test_damped_laplacian_matches_composed_form(p):
    assert _damped(p) == -damped_laplacian(p)


_RATIONAL_MU = st.one_of(st.sampled_from([Q(1, 3), Q(-1, 4)]),
                         st.fractions(Q(-1, 2), 4, max_denominator=7).filter(lambda mu: mu > Q(-1, 2)))
_PROBE = MultiPoly(3, {(3, 1, 0): Q(2, 3), (0, 2, 2): -5, (1, 0, 0): Q(1, 7), (0, 0, 0): 4})


@settings(max_examples=100)
@given(_POLYS, st.lists(st.fractions(-4, 4, max_denominator=5), max_size=8).map(UniPoly),
       _RATIONAL_MU, st.fractions(-3, 5, max_denominator=7), st.fractions(Q(1, 7), 5, max_denominator=7))
@example(_PROBE, UniPoly([1, Q(-2, 3), 0, 5]), Q(1, 3), Q(1, 2), Q(7, 3))
@example(_PROBE, UniPoly([Q(1, 5), 0, 3, Q(-1, 2)]), Q(-1, 4), Q(-1, 4), Q(2, 5))
# A diagonal over 4 (mu = 3/8) and a mass over 4 (M = 3/4): each shares the quarter's factor,
# so the one common denominator of a kernel call is less than its coefficients' product.
@example(_PROBE, UniPoly([Q(3, 4), 1, Q(-1, 4)]), Q(3, 8), Q(3, 4), Q(7, 3))
@example(_PROBE, UniPoly([1, Q(-2, 3), 0, 5]), Q(1, 3), Q(1, 2), Q(3, 4))
def test_kernels_match_composed_forms(p, f, mu, beta, mass):
    # Each one-pass operator against the sum of whole polynomials it replaced, under ==.
    assert classical_ball_op(p, mu) == composed_classical_ball_op(p, mu)
    assert ball_connection_op(p, mass) == composed_ball_connection_op(p, mass)
    assert ball_conjugate_op(p, mass) == composed_ball_conjugate_op(p, mass)
    assert connection_op(f, beta, mass) == composed_connection_op(f, beta, mass)
    assert conjugate_connection_op(f, beta, mass) == composed_conjugate_connection_op(f, beta, mass)


_COEFFICIENT = st.integers(-9, 9)


@settings(max_examples=200)
@given(_POLYS, st.integers(1, 12), _COEFFICIENT, _COEFFICIENT, _COEFFICIENT, _COEFFICIENT,
       _COEFFICIENT)
@example(_PROBE, 6, 5, -2, 1, 3, -4)
@example(_PROBE, 6, 5, -2, 1, 0, 0)
def test_kernel_matches_composed_form(p, den, c0, c1, c2, inner, outer):
    # The one kernel against whole polynomials: E from oracles.euler, Delta from laplacian.
    e, lap = euler(p), laplacian(p)
    composed = c0 * p + c1 * e + c2 * euler(e) + inner * lap + outer * (radius_squared(p.dim) * lap)
    assert _second_order(p, den, c0, c1, c2, inner, outer) == composed * Q(1, den)


# The residuals read a probe homogeneous of their degree m = 4: the Euler residual is zero
# exactly on such polynomials, and the Laplace-Beltrami one is not, as the probe is not harmonic.
_HOMOGENEOUS_PROBE = MultiPoly(3, {(3, 1, 0): Q(2, 3), (0, 2, 2): -5, (1, 1, 2): Q(1, 7), (0, 0, 4): 4})

_ONE_PASS = {
    "laplacian": laplacian,
    "euler_op": euler_op,
    "laplace_beltrami_op": laplace_beltrami_op,
    "damped_kernel": _damped,
    "classical_ball_op": lambda p: classical_ball_op(p, Q(1, 3)),
    "ball_connection_op": lambda p: ball_connection_op(p, Q(5, 2)),
    "ball_conjugate_op": lambda p: ball_conjugate_op(p, Q(5, 2)),
    "euler_residual": lambda p: euler_residual(p, 4),
    "laplace_beltrami_residual": lambda p: laplace_beltrami_residual(p, 4),
}
_PROBES = {"euler_residual": _HOMOGENEOUS_PROBE, "laplace_beltrami_residual": _HOMOGENEOUS_PROBE}


def _reductions(op, monkeypatch, probe=_PROBE) -> tuple[int, MultiPoly]:
    """How many MultiPoly._make calls op(probe) makes, and its result."""
    calls = []
    make = MultiPoly._make

    def counting(dim, den, nums):
        calls.append(den)
        return make(dim, den, nums)

    monkeypatch.setattr(MultiPoly, "_make", staticmethod(counting))
    result = op(probe)
    return len(calls), result


@pytest.mark.parametrize("name", list(_ONE_PASS))
def test_each_operator_reduces_once(name, monkeypatch):
    reductions, result = _reductions(_ONE_PASS[name], monkeypatch, _PROBES.get(name, _PROBE))
    assert reductions == 1
    assert result.is_zero() == (name == "euler_residual")


def test_fourth_order_op_is_two_kernel_passes(monkeypatch):
    reductions, result = _reductions(lambda p: fourth_order_op(p, Q(5, 2)), monkeypatch)
    assert reductions == 2 and not result.is_zero()


class TestClassicalSecondOrder:
    def test_coordinate_eigenfunction(self):
        x1 = MultiPoly.variable(2, 0)
        assert classical_ball_op(x1, Q(1, 2)) == -3 * x1

    def test_constant(self):
        # At mu=1/2 the first-order part vanishes on constants.
        assert classical_ball_op(MultiPoly.constant(2, 1), Q(1, 2)).is_zero()
        # General mu: eigenvalue -(0+d)(0+2mu-1) = -d(2mu-1).
        p = MultiPoly.constant(3, 1)
        assert classical_ball_op(p, Q(3, 2)) == -3 * 2 * p

    def test_eigen_identity_on_basis(self):
        for d in (2, 3):
            for mu in (Q(1, 2), Q(1), Q(3, 2)):
                for n in range(5):
                    eig = -(n + d) * (n + 2 * mu - 1)
                    for el in classical_basis(n, d, mu):
                        assert (classical_ball_op(el.poly, mu) - eig * el.poly).is_zero()


@st.composite
def _mixed_degree_polys(draw):
    dim = draw(st.integers(2, 4))
    exps = st.tuples(*[st.integers(0, 3)] * dim)
    terms = draw(st.dictionaries(exps, st.fractions(-4, 4, max_denominator=5), min_size=2, max_size=6))
    p = MultiPoly(dim, terms)
    assume(len({sum(e) for e in p.terms}) > 1)
    return p


@settings(max_examples=60)
@given(_mixed_degree_polys(),
       st.fractions(Q(-1, 2), 4, max_denominator=7).filter(lambda mu: mu > Q(-1, 2)))
def test_classical_op_matches_divergence_form(p, mu):
    # Delta p - sum_j d/dx_j [x_j h], h = (2mu - 1) p + sum_i x_i dp/dx_i, axis by axis.
    xs = [MultiPoly.variable(p.dim, j) for j in range(p.dim)]
    h = (2 * mu - 1) * p + sum((x * p.partial(i) for i, x in enumerate(xs)), MultiPoly.zero(p.dim))
    divergence = laplacian(p)
    for j, x in enumerate(xs):
        divergence = divergence - (x * h).partial(j)
    assert classical_ball_op(p, mu) == divergence


class TestBallConnection:
    def test_harmonic_input(self):
        Y = MultiPoly(2, {(1, 1): 1})
        assert ball_connection_op(Y, Q(7, 3)) == Q(7, 3) * Y

    def test_hand_example(self):
        p = MultiPoly(2, {(2, 0): 2, (0, 2): 2, (0, 0): -1})
        assert ball_connection_op(p, 2) == MultiPoly(2, {(2, 0): 6, (0, 2): 6, (0, 0): -4})

    def test_forward_maps_classical_to_mass(self):
        for d, nmax in ((2, 5), (3, 4)):
            for mass in (Q(1), Q(2)):
                lam = sphere_coupling(d, mass)
                for n in range(nmax + 1):
                    P_els = classical_basis(n, d, Q(1, 2))
                    Q_els = mass_basis(n, d, Q(1, 2), lam)
                    for P_el, Q_el in zip(P_els, Q_els):
                        assert ball_connection_op(P_el.poly, mass) == Q_el.poly

    def test_backward_scales_back(self):
        d, mass = 2, Q(7, 3)
        lam = sphere_coupling(d, mass)
        for n in range(5):
            for el in mass_basis(n, d, Q(1, 2), lam):
                k, nu = el.index.k, el.index.nu
                P_el = find_element(classical_basis(n, d, Q(1, 2)), k, nu)
                expect = fourth_order_eigenvalue(n, k, d, mass) * P_el.poly
                assert ball_conjugate_op(el.poly, mass) == expect

    def test_connection_residuals_zero(self):
        d, mass = 2, Q(2)
        lam = sphere_coupling(d, mass)
        for n in range(5):
            for k in range(n // 2 + 1):
                P = find_element(classical_basis(n, d, Q(1, 2)), k, 0).poly
                Qk = find_element(mass_basis(n, d, Q(1, 2), lam), k, 0).poly
                eig = fourth_order_eigenvalue(n, k, d, mass)
                assert (ball_connection_op(P, mass) - Qk).is_zero()
                assert (ball_conjugate_op(Qk, mass) - eig * P).is_zero()

    def test_degree_preserved(self):
        lam = sphere_coupling(3, Q(2))
        for n in range(5):
            for el in mass_basis(n, 3, Q(1, 2), lam):
                assert ball_connection_op(el.poly, Q(2)).total_degree() == n
                assert ball_conjugate_op(el.poly, Q(2)).total_degree() == n


class TestEigenvalues:
    def test_corner_values(self):
        assert fourth_order_eigenvalue(0, 0, 2, Q(3)) == 3 * (3 + 1)
        for d in (2, 3, 4):
            M = Q(5, 2)
            assert fourth_order_eigenvalue(0, 0, d, M) == M * (M + Q(d, 2))
        assert fourth_order_eigenvalue(2, 1, 2, 1) == 10

    def test_two_printed_forms_agree(self):
        for d in (2, 3, 4):
            for M in (Q(1), Q(2), Q(7, 3)):
                for n in range(11):
                    for k in range(n // 2 + 1):
                        assert fourth_order_eigenvalue(n, k, d, M) == type_eigenvalue(
                            k, beta_shift(n, k, d), M
                        )

    def test_index_range(self):
        with pytest.raises(ValueError):
            fourth_order_eigenvalue(2, 2, 2, 1)


class TestFourthOrder:
    def test_constant_case(self):
        d, M = 2, Q(2)
        one = MultiPoly.constant(d, 1)
        assert fourth_order_op(one, M) == M * (M + Q(d, 2)) * one

    def test_residual_zero_small_sweep(self):
        for d, nmax in ((2, 5), (3, 4)):
            for M in (Q(1), Q(7, 3), Q(3, 2)):
                lam = sphere_coupling(d, M)
                for n in range(nmax + 1):
                    for el in mass_basis(n, d, Q(1, 2), lam):
                        eig = fourth_order_eigenvalue(n, el.index.k, d, M)
                        assert (fourth_order_op(el.poly, M) - eig * el.poly).is_zero()

    def test_negative_control(self):
        # 1 + x1 mixes two eigenspaces with different eigenvalues, so the
        # fourth-order residual against either eigenvalue must be nonzero.
        d, M = 2, Q(2)
        control = MultiPoly.constant(d, 1) + MultiPoly.variable(d, 0)
        res = fourth_order_op(control, M) - fourth_order_eigenvalue(1, 0, d, M) * control
        assert not res.is_zero()


class TestRadialForms:
    def test_examples(self):
        for n, k, d, M in [(2, 1, 2, Q(2)), (4, 2, 3, Q(1)), (3, 0, 2, Q(7, 3)), (5, 1, 3, Q(2))]:
            r1, r2 = radial_connection_residuals(n, k, d, M)
            assert r1.is_zero() and r2.is_zero()

    def test_k_zero_reduces_to_constant_radial(self):
        r1, r2 = radial_connection_residuals(4, 0, 3, Q(3, 2))
        assert r1.is_zero() and r2.is_zero()


class TestUnivariateLift:
    def test_connection_lift_matches(self):
        # Applying the ball operators to u(2||x||^2-1) Y equals lifting the
        # univariate images, with the radial parameter set by the harmonic degree.
        rng = random.Random(2)
        for d in (2, 3):
            for m in range(5):
                beta = beta_shift(m, 0, d)
                basis = harmonic_basis(d, m)
                for M in (Q(1), Q(5, 2)):
                    for _ in range(2):
                        u = UniPoly([Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)])
                        Y = basis.elements[rng.randrange(len(basis.elements))]
                        f = substitute_radial(u, d) * Y
                        assert ball_connection_op(f, M) == substitute_radial(
                            connection_op(u, beta, M), d
                        ) * Y
                        assert ball_conjugate_op(f, M) == substitute_radial(
                            conjugate_connection_op(u, beta, M), d
                        ) * Y
