import random
from fractions import Fraction as Q
from functools import cache
from math import comb, factorial, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (beta_step, gram_map, gram_schmidt, jacobi_explicit_sum, point_mass_total,
                     radial_weight_integral)

from orthoball import (
    ExactnessError,
    UniPoly,
    connection_op,
    conjugate_connection_op,
    gram_jacobi_mass,
    gram_schmidt_jacobi_mass,
    inner_jacobi_mass,
    inner_jacobi_type,
    jacobi_derivative_residual,
    jacobi_inner,
    jacobi_ode_residual,
    jacobi_polynomial,
    jacobi_type_poly,
    mass_basis,
    mass_coefficient,
    mass_orthogonal_poly,
    parts_residual,
    type_eigenvalue,
)
from orthoball import jacobi
from orthoball.exact_gamma import gamma_ratio, rising_factorial

PARAM_GRID = [Q(0), Q(1, 2), Q(1), Q(3, 2), Q(2)]
# mu - 1/2 for mu in {1/2, 3/2, 5/2, 7/2} and at three fractional mu in (-1/2, 1): the
# construction holds at every a > -1 where a or beta - d/2 is an integer.
MASS_ALPHAS = (0, 1, 2, 3, Q(1, 4), Q(-1, 4), Q(1, 3))
_weight = cache(radial_weight_integral)


def _normalized_moment(a, b):
    """m -> L_J^(a,b)(t^m) from the termwise-integrated weight; None unless a or b is an integer."""
    a, b = Q(a), Q(b)
    if a.denominator == 1:
        return lambda m: _weight(m, a.numerator, b) / _weight(0, a.numerator, b)
    if b.denominator == 1:  # t -> -t swaps the two exponents of the weight.
        return lambda m: (-1) ** m * _weight(m, b.numerator, a) / _weight(0, b.numerator, a)
    return None


class TestClassicalJacobi:
    def test_degree_zero_is_one(self):
        assert jacobi_polynomial(0, Q(5, 2), Q(1, 3)) == UniPoly.constant(1)

    def test_degree_one(self):
        assert jacobi_polynomial(1, 0, 0) == UniPoly.t()

    def test_value_at_one(self):
        assert jacobi_polynomial(2, 1, 0).evaluate(1) == 3  # C(3, 2)
        for a in PARAM_GRID:
            for b in PARAM_GRID:
                for n in range(11):
                    got = jacobi_polynomial(n, a, b).evaluate(1)
                    assert got == rising_factorial(a + 1, n) / factorial(n)

    def test_matches_explicit_sum(self):
        for a in PARAM_GRID:
            for b in PARAM_GRID:
                for n in range(8):
                    assert jacobi_polynomial(n, a, b) == jacobi_explicit_sum(n, a, b)
        # a + b + 1 = 0, where the general recurrence step at n = 1 would be 0/0, and a pair
        # with coprime denominators.
        for a, b in [(Q(-1, 2), Q(-1, 2)), (Q(-1, 3), Q(9, 2))]:
            for n in range(13):
                assert jacobi_polynomial(n, a, b) == jacobi_explicit_sum(n, a, b)

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            jacobi_polynomial(2, -1, 0)
        with pytest.raises(ValueError):
            jacobi_polynomial(2, 0, Q(-3, 2))

    def test_derivative_identity(self):
        # d/dt P_2^(0,0) = 3t = (3/2) P_1^(1,1)
        assert jacobi_polynomial(2, 0, 0).derivative() == UniPoly([0, 3])
        assert Q(3, 2) * jacobi_polynomial(1, 1, 1) == UniPoly([0, 3])
        assert jacobi_derivative_residual(1, Q(1, 3), Q(7, 2)).is_zero()
        assert jacobi_derivative_residual(5, Q(1, 2), Q(3, 2)).is_zero()
        for a in PARAM_GRID:
            for b in PARAM_GRID:
                for n in range(1, 11):
                    assert jacobi_derivative_residual(n, a, b).is_zero()

    def test_ode(self):
        assert jacobi_ode_residual(0, Q(2, 3), Q(1, 5)).is_zero()
        assert jacobi_ode_residual(3, 0, 2).is_zero()
        assert jacobi_ode_residual(6, 2, 0).is_zero()
        for a in PARAM_GRID:
            for b in PARAM_GRID:
                for n in range(11):
                    assert jacobi_ode_residual(n, a, b).is_zero()

    def test_orthogonality(self):
        for a in PARAM_GRID:
            for b in PARAM_GRID:
                polys = [jacobi_polynomial(n, a, b) for n in range(7)]
                for j in range(7):
                    for k in range(j + 1, 7):
                        assert jacobi_inner(polys[j], polys[k], a, b) == 0
                    assert jacobi_inner(polys[j], polys[j], a, b) > 0

    def test_inner_normalized(self):
        one = UniPoly.constant(1)
        assert jacobi_inner(one, one, Q(1, 2), Q(5, 2)) == 1


class TestMassOrthogonalFamily:
    def test_shift_coefficient_example(self):
        # alpha=0, beta=1, d=2, lam=1/2: first term 2, second term k(k+a+b+1)/(a+1) = 3.
        assert mass_coefficient(1, 0, 1, Q(1, 2), 2) == 5

    def test_degree_zero_is_constant_shift(self):
        lam = Q(1, 3)
        q0 = mass_orthogonal_poly(0, 1, Q(1, 2), lam, 3)
        assert q0.degree == 0
        assert q0.evaluate(0) == mass_coefficient(0, 1, Q(1, 2), lam, 3)

    def test_value_at_one(self):
        for d in (2, 3):
            for lam in (Q(1, 4), Q(1, 2), Q(1)):
                for alpha in (0, 1, 2):
                    for beta in (Q(0), Q(1), Q(3, 2)):
                        for k in range(5):
                            q = mass_orthogonal_poly(k, alpha, beta, lam, d)
                            expect = (
                                rising_factorial(Q(d, 2), alpha + 1)
                                / rising_factorial(beta + k + 1, alpha)
                                / lam
                            )
                            assert q.evaluate(1) == expect

    def test_value_at_one_alpha_zero_is_mass(self):
        # At alpha=0 the value collapses to (1/lam)(d/2) = M.
        for d in (2, 3):
            q = mass_orthogonal_poly(3, 0, Q(1, 2), Q(1, 2), d)
            assert q.evaluate(1) == Q(d, 2) * 2

    def test_orthogonality(self):
        for alpha in MASS_ALPHAS:
            for d in (2, 3):
                for lam in (Q(1, 4), Q(1, 2), Q(1)):
                    for beta in (Q(0), Q(1), Q(1, 2), Q(3, 2), Q(2)):
                        if point_mass_total(alpha, beta, d) is None:
                            continue
                        qs = [mass_orthogonal_poly(k, alpha, beta, lam, d) for k in range(7)]
                        for j in range(7):
                            for k in range(j + 1, 7):
                                assert inner_jacobi_mass(qs[j], qs[k], alpha, beta, lam, d) == 0

    def test_exact_degree(self):
        for k in range(7):
            assert mass_orthogonal_poly(k, 0, Q(3, 2), Q(1, 2), 3).degree == k

    def test_gram_schmidt_oracle(self):
        # Orthogonalizing the monomials must reproduce q_k up to a scalar.
        monomials = [UniPoly([0] * k + [1]) for k in range(6)]
        for alpha in MASS_ALPHAS:
            for d, lam, beta in [(2, Q(1, 2), Q(0)), (3, Q(1, 4), Q(3, 2)), (2, Q(1), Q(2))]:
                inner = lambda f, g: inner_jacobi_mass(f, g, alpha, beta, lam, d)
                gs = gram_schmidt(monomials, inner)
                for k in range(6):
                    q = mass_orthogonal_poly(k, alpha, beta, lam, d)
                    assert gs[k] * q.leading_coeff() == q * gs[k].leading_coeff()

    def test_fractional_alpha_rejected(self):
        # A fractional a with beta - d/2 fractional too leaves no integer pairing of the
        # Gamma ratio, so the exact construction refuses it.
        t = UniPoly.t()
        with pytest.raises(ExactnessError):
            mass_orthogonal_poly(2, Q(1, 2), Q(1, 2), Q(1, 2), 2)
        with pytest.raises(ExactnessError):
            inner_jacobi_mass(t, t, Q(1, 4), Q(1, 2), Q(1, 2), 2)

    def test_fractional_alpha_error_names_mu(self):
        # The exactness boundary: a fractional a needs beta - d/2 to be an integer.  At a = 1/2,
        # beta = 1/2, d = 2 the total mass is a multiple of pi, and every entry point raises
        # with a message naming mu = a + 1/2 (the parameter the caller passed), beta and d.
        alpha, beta, lam, d = Q(1, 2), Q(1, 2), Q(1, 2), 2
        t = UniPoly.t()
        for call in (lambda: mass_orthogonal_poly(2, alpha, beta, lam, d),
                     lambda: mass_coefficient(0, alpha, beta, lam, d),
                     lambda: inner_jacobi_mass(t, t, alpha, beta, lam, d),
                     lambda: gram_jacobi_mass([t], alpha, beta, lam, d),
                     lambda: gram_schmidt_jacobi_mass(2, alpha, beta, lam, d)):
            with pytest.raises(ExactnessError) as exc:
                call()
            assert str(exc.value).endswith("got mu=1, beta=1/2, d=2")
        # Where beta - d/2 is an integer a fractional a is exact, as on the ball at every mu.
        for alpha in (Q(1, 4), Q(1, 2), Q(-1, 3)):
            assert mass_orthogonal_poly(2, alpha, 0, lam, 2).degree == 2
        assert len(mass_basis(2, 2, Q(3, 4), lam)) == 3

    def test_mass_inner_example(self):
        one = UniPoly.constant(1)
        assert inner_jacobi_mass(one, one, 0, 0, 1, 2) == 2

    def test_mass_inner_orthogonality_to_one(self):
        q1 = mass_orthogonal_poly(1, 0, 2, Q(1, 2), 3)
        assert inner_jacobi_mass(q1, UniPoly.constant(1), 0, 2, Q(1, 2), 3) == 0


class TestGammaRatio:
    def test_rising_factorial_matches_a_product_of_fractions(self):
        for a in (Q(1, 3), Q(-1, 4), Q(5, 2), Q(0), Q(7), Q(-7, 3)):
            want = Q(1)
            for n in range(15):
                assert rising_factorial(a, n) == want
                want *= a + n

    def test_pairings(self):
        # Direct: G(7/2) G(2) / (G(3/2) G(4)) = (3/2)(5/2) / (2 * 3).
        assert gamma_ratio((Q(7, 2), 2), (Q(3, 2), 4)) == Q(5, 8)
        # Crossed: G(7/3) G(5/2) / (G(1/2) G(1/3)) = (1/2)_2 (1/3)_2.
        assert gamma_ratio((Q(7, 3), Q(5, 2)), (Q(1, 2), Q(1, 3))) == Q(3, 4) * Q(4, 9)
        # Negative gaps invert: G(1/2) G(1) / (G(5/2) G(2)) = 1 / ((1/2)(3/2) * 1).
        assert gamma_ratio((Q(1, 2), 1), (Q(5, 2), 2)) == Q(4, 3)
        # Where both pairings have integer gaps the value does not depend on the pairing.
        assert gamma_ratio((3, 4), (1, 2)) == gamma_ratio((4, 3), (1, 2)) == 12
        # The total mass of the point-mass weight, against the Beta recurrence.
        for a in MASS_ALPHAS:
            for d in (2, 3, 4):
                for m in range(4):
                    b = Q(d, 2) + m - 1
                    got = gamma_ratio((Q(d, 2) + a + 1, b + 1), (Q(d, 2), a + b + 2))
                    assert got == beta_step(Q(d, 2), a + 1, m)

    def test_no_integer_pairing_raises(self):
        # G(2) G(3/2) / (G(1) G(1)) would be sqrt(pi) / 2.  In the last case 2/3 and 1/3 share
        # their reduced denominator, but their gap 1/3 is no integer.
        for tops, bottoms in [((2, Q(3, 2)), (1, 1)), ((Q(3, 2), Q(5, 3)), (Q(1, 3), Q(1, 4))),
                              ((Q(2, 3), 1), (Q(1, 3), 1))]:
            with pytest.raises(ExactnessError):
                gamma_ratio(tops, bottoms)

    def test_matches_a_product_of_fractions(self):
        # Every gap from -4 to 4 on both factors, at integer, negative and coprime-denominator
        # bottoms, in the direct and the crossed pairing, against
        # G(q + g) / G(q) = q (q+1) ... (q+g-1) and its inverse for g < 0, built as Fractions.
        def ratio(top, bottom):
            value, gap = Q(1), int(top - bottom)
            for j in range(abs(gap)):
                value *= bottom + j if gap > 0 else 1 / (top + j)
            return value

        bottoms = (Q(1), Q(3), Q(1, 2), Q(7, 3), Q(-5, 4), Q(-1, 6))
        for q1 in bottoms:
            for q2 in bottoms:
                for g1 in range(-4, 5):
                    for g2 in range(-4, 5):
                        p1, p2 = q1 + g1, q2 + g2
                        if p1 <= 0 and p1 == int(p1) or p2 <= 0 and p2 == int(p2):
                            continue  # a pole of Gamma on top
                        want = ratio(p1, q1) * ratio(p2, q2)
                        assert gamma_ratio((p1, p2), (q1, q2)) == want
                        assert gamma_ratio((p2, p1), (q1, q2)) == want


def _monomials(count):
    return [UniPoly([0] * k + [1]) for k in range(count)]


class TestRadialKernels:
    def test_gram_equals_pairwise_products(self):
        rng = random.Random(16)
        for alpha in (0, 1, 2):
            for beta in (Q(-1, 2), Q(1, 2), Q(3, 2), Q(7, 2)):
                for d in (2, 3, 4, 5):
                    lam = Q(rng.randint(1, 9), rng.randint(1, 9))
                    polys = [UniPoly.zero(), UniPoly.constant(Q(rng.randint(1, 9), rng.randint(1, 5)))]
                    polys += [
                        UniPoly([Q(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(rng.randint(1, 9))])
                        for _ in range(5)
                    ]
                    want = [[inner_jacobi_mass(f, g, alpha, beta, lam, d) for g in polys] for f in polys]
                    assert gram_jacobi_mass(polys, alpha, beta, lam, d) == gram_map(want)

    def test_elimination_matches_gram_schmidt(self):
        # Each row is the Gram-Schmidt vector times a positive scalar, in primitive integer
        # form, and rows do not depend on how many follow.
        cases = [(0, 2, Q(1, 2), Q(0)), (1, 3, Q(1, 4), Q(3, 2)), (2, 4, Q(2, 5), Q(1, 2)),
                 (3, 5, Q(7, 3), Q(5))]
        for alpha, d, lam, beta in cases:
            monic = gram_schmidt(_monomials(14), lambda f, g: inner_jacobi_mass(f, g, alpha, beta, lam, d))
            for size in (1, 2, 7, 14):
                rows = gram_schmidt_jacobi_mass(size, alpha, beta, lam, d)
                assert len(rows) == size
                for row, w in zip(rows, monic):
                    assert row.den == 1 and gcd(*row.nums) == 1
                    assert row.leading_coeff() > 0
                    assert row == row.leading_coeff() * w

    def test_zero_pivot_raises_where_a_zero_norm_does(self, monkeypatch):
        # With every Jacobi moment zero the product is lam f(1) g(1), of rank one: t - 1 has
        # norm zero, so Gram-Schmidt divides by zero at its third vector, and so must the
        # integer form; with two vectors neither divides by that norm.
        monkeypatch.setattr(jacobi, "_moment_table", lambda key, size: (1, [0] * max(size, 1)))
        inner = lambda f, g: inner_jacobi_mass(f, g, 0, 0, 1, 2)
        for size in (1, 2):
            assert len(gram_schmidt(_monomials(size), inner)) == size
            assert len(gram_schmidt_jacobi_mass(size, 0, 0, 1, 2)) == size
        for size in (3, 5):
            with pytest.raises(ZeroDivisionError):
                gram_schmidt(_monomials(size), inner)
            with pytest.raises(ZeroDivisionError):
                gram_schmidt_jacobi_mass(size, 0, 0, 1, 2)


# Parameters with negative and coprime denominators, for the integer paths.
SIGNED_PARAMS = (Q(-3, 4), Q(-1, 2), Q(-1, 3), Q(2, 3), Q(9, 2))


def _fraction_moment_table(alpha, beta, size):
    # The table as Fractions: r_i = r_(i-1) (a+i) / (a+b+1+i), over the lcm of their denominators.
    ratios = [Q(1)]
    for i in range(1, 1 << (size - 1).bit_length()):
        ratios.append(ratios[-1] * (alpha + i) / (alpha + beta + 1 + i))
    den = lcm(*(r.denominator for r in ratios))
    scaled = [r.numerator * (den // r.denominator) for r in ratios]
    return den, [sum(comb(m, i) * (-2) ** i * n for i, n in enumerate(scaled[: m + 1]))
                 for m in range(len(scaled))]


def _fraction_jacobi(n, a, b):
    # The three-term recurrence with Fraction coefficients.
    if n == 0:
        return UniPoly.constant(1)
    if n == 1:
        return UniPoly([(a - b) / 2, (a + b + 2) / 2])
    s = 2 * n + a + b
    lead = 2 * n * (n + a + b) * (s - 2)
    p, q = _fraction_jacobi(n - 1, a, b), _fraction_jacobi(n - 2, a, b)
    return (((s - 1) * (a * a - b * b) / lead) * p + ((s - 1) * s * (s - 2) / lead) * UniPoly.t() * p
            - (2 * (n + a - 1) * (n + b - 1) * s / lead) * q)


def _direct_gamma_part(k, a, b, d):
    # G(d/2+a+1) G(b+k+1) / (G(d/2) G(a+b+k+1)) k! / (a+1)_k from gamma_ratio, None where it
    # has no Pochhammer form.
    try:
        return (gamma_ratio((Q(d, 2) + a + 1, b + k + 1), (Q(d, 2), a + b + k + 1))
                * factorial(k) / rising_factorial(a + 1, k))
    except ExactnessError:
        return None


def _above_minus_one(q):
    return st.integers(1 - q, 4 * q).map(lambda p: Q(p, q))


# Pairs of rationals a, b > -1 with denominators up to 12, and pairs on the line a + b = -1.
_MASS_PAIRS = st.one_of(
    st.tuples(st.integers(1, 12).flatmap(_above_minus_one), st.integers(1, 12).flatmap(_above_minus_one)),
    st.integers(2, 12).flatmap(lambda q: st.integers(1 - q, -1).map(lambda p: (Q(p, q), Q(-q - p, q)))),
)


class TestIntegerPaths:
    """Each integer path of the radial layer equals the Fraction form it replaces, under ==."""

    def test_moment_table(self, monkeypatch):
        # Grown in steps to 64 entries, each table equals the Fraction table of its own size;
        # the grid holds a = b = -3/4, where the recurrence's c_0 = a + b + 2 is smallest.
        monkeypatch.setattr(jacobi, "_MOMENTS", {})
        params = SIGNED_PARAMS + (Q(0), Q(1))
        for alpha in params:
            for beta in params:
                for size in (1, 2, 5, 9, 23, 33, 64):
                    den, moments = jacobi._moment_table(jacobi._jacobi_params(alpha, beta), size)
                    assert (den, moments) == _fraction_moment_table(alpha, beta, size)
                    assert len(moments) >= size

    def test_recurrence(self):
        for alpha in SIGNED_PARAMS:
            for beta in SIGNED_PARAMS:
                for n in range(9):
                    assert jacobi_polynomial(n, alpha, beta) == _fraction_jacobi(n, alpha, beta)

    @pytest.mark.parametrize("high_first", [False, True], ids=["low-first", "high-first"])
    def test_recurrence_grows_in_either_order(self, monkeypatch, high_first):
        # One family list per (r, A, B), from an empty cache whether the first call asks for
        # n = 12 or for n = 0.
        monkeypatch.setattr(jacobi, "_JACOBI", {})
        alpha, beta = (Q(-1, 3), Q(9, 2)) if high_first else (Q(2, 3), Q(-3, 4))
        want = [_fraction_jacobi(n, alpha, beta) for n in range(13)]
        for n in [12, *range(12)] if high_first else range(13):
            assert jacobi_polynomial(n, alpha, beta) == want[n]
        assert list(jacobi._JACOBI) == [jacobi._jacobi_params(alpha, beta)]

    def test_radial_cache_keys_are_integers(self, monkeypatch):
        # Every radial cache is a module-level dict keyed by integers, filled from empty by a
        # run of the univariate suites and the connection suite; none is a functools cache.
        from orthoball.verify import SuiteConfig, run_suites

        caches = [name for name, value in vars(jacobi).items() if isinstance(value, dict) and name.isupper()]
        assert sorted(caches) == ["_JACOBI", "_MOMENTS", "_TOTAL_MASSES"]
        for name in caches:
            monkeypatch.setattr(jacobi, name, {})
        run_suites(SuiteConfig(dim=3, max_degree=4, suites=("jacobi", "krall1d", "connection")))
        for name in caches:
            keys = getattr(jacobi, name)
            assert keys and all(type(x) is int for key in keys for x in key), name
        assert not any(hasattr(value, "cache_info") for value in vars(jacobi).values())

    def test_radial_constants_match_their_fraction_forms(self, monkeypatch):
        # Every call of the line kernel gets only ints, (den, c, p0, p1, s) with den > 0, and
        # c/den, p0/den, p1/den and s/den are the operator's constants: the Jacobi-type shift
        # M + k(k+b+1), the point-mass shift a_k, the ODE's n(n+a+b+1), b-a, -(a+b+2), 1 and
        # both connection operators' coefficients.
        calls = []
        real_shift = jacobi._shift

        def shift(p, *coefficients):
            calls.append(coefficients)
            return real_shift(p, *coefficients)

        def constants():
            den, *rest = calls.pop()
            assert all(type(x) is int for x in (den, *rest)) and den > 0
            return tuple(Q(x, den) for x in rest)

        monkeypatch.setattr(jacobi, "_shift", shift)
        f = UniPoly([1, Q(-2, 3), 0, 5])
        for beta in SIGNED_PARAMS:
            for mass in (Q(1, 3), Q(7, 2), Q(5)):
                for k in range(7):
                    jacobi_type_poly(k, beta, mass)
                    assert constants() == (mass + k * (k + beta + 1), -1, -1)
                connection_op(f, beta, mass)
                assert constants() == (mass, -(beta + 1), beta + 1, -1)
                conjugate_connection_op(f, beta, mass)
                assert constants() == (mass + beta + 1, 1 - beta, beta + 3, -1)
            for alpha in SIGNED_PARAMS:
                for n in range(7):
                    jacobi_ode_residual(n, alpha, beta)
                    assert constants() == (n * (n + alpha + beta + 1), beta - alpha,
                                           -(alpha + beta + 2), 1)
        for alpha in MASS_ALPHAS:
            for beta in (Q(1, 2), Q(5, 2), Q(7, 2)):
                for k in range(7):
                    mass_orthogonal_poly(k, alpha, beta, Q(2, 5), 3)
                    assert constants() == (mass_coefficient(k, alpha, beta, Q(2, 5), 3), -1, -1)

    def test_shift_kernel(self):
        # [c - (1+t) d/dt] p, and the full kernel c p + (p0 + p1 t) p' + s (1-t^2) p'' with
        # s != 0 and p0 != p1, against their composed Fraction forms, including a c that
        # cancels the top term (c = deg p) and the zero polynomial.
        rng = random.Random(18)
        polys = [UniPoly.zero(), UniPoly.constant(Q(-2, 3))]
        polys += [UniPoly([Q(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(rng.randint(1, 8))])
                  for _ in range(12)]
        t, line = UniPoly.t(), UniPoly([1, 0, -1])
        for p in polys:
            for c in (Q(0), Q(1), Q(-5, 4), Q(7, 3), Q(p.degree), Q(rng.randint(-20, 20), rng.randint(1, 9))):
                den = c.denominator
                got = jacobi._shift(p, den, c.numerator, -den, -den)
                assert got == c * p - UniPoly([1, 1]) * p.derivative()
            for _ in range(6):
                den = rng.randint(1, 12)
                c, p0, p1, s = (rng.randint(-30, 30) for _ in range(4))
                p0 += p0 == p1
                s = s or 1
                want = (Q(c, den) * p + (Q(p0, den) + Q(p1, den) * t) * p.derivative()
                        + Q(s, den) * line * p.derivative().derivative())
                assert jacobi._shift(p, den, c, p0, p1, s) == want

    @pytest.mark.parametrize("op", [
        lambda: connection_op(UniPoly([1, Q(-2, 3), 0, 5]), Q(3, 2), Q(7, 3)),
        lambda: conjugate_connection_op(UniPoly([1, Q(-2, 3), 0, 5]), Q(3, 2), Q(7, 3)),
        lambda: jacobi_ode_residual(4, Q(1, 2), Q(-1, 4)),
        lambda: mass_orthogonal_poly(3, 1, Q(1, 2), Q(2, 5), 3),
        lambda: jacobi_type_poly(3, Q(3, 2), Q(7, 3)),
    ], ids=["connection_op", "conjugate_connection_op", "jacobi_ode_residual",
            "mass_orthogonal_poly", "jacobi_type_poly"])
    def test_each_line_operator_is_one_kernel_call(self, op, monkeypatch):
        # The q_k shifts, both connection operators and the Jacobi ODE: one call of _shift,
        # one reduction, past the cached P_k.
        op()
        calls, makes = [], []
        real_shift, real_make = jacobi._shift, UniPoly._make

        def shift(*args):
            calls.append(args)
            return real_shift(*args)

        def make(den, nums):
            makes.append(den)
            return real_make(den, nums)

        monkeypatch.setattr(jacobi, "_shift", shift)
        monkeypatch.setattr(UniPoly, "_make", staticmethod(make))
        op()
        assert len(calls) == 1 and len(makes) == 1

    def test_mass_coefficient(self):
        # a_k = G(d/2+a+1) G(b+k+1) k! / (G(d/2) G(a+b+k+1) (a+1)_k lam) + k (k+a+b+1) / (a+1),
        # G the Gamma function; the Gamma ratio is (a+b+k+1) times the total mass at b + k.
        for alpha in MASS_ALPHAS:
            for d in (2, 3, 4, 5):
                for beta in SIGNED_PARAMS + (Q(0), Q(1), Q(7, 2)):
                    for lam in (Q(1, 3), Q(5, 11), Q(2)):
                        for k in range(9):
                            total = point_mass_total(alpha, beta + k, d)
                            if total is None:
                                with pytest.raises(ExactnessError):
                                    mass_coefficient(k, alpha, beta, lam, d)
                                continue
                            gamma_part = ((alpha + beta + k + 1) * total * factorial(k)
                                          / rising_factorial(alpha + 1, k))
                            want = gamma_part / lam + Q(k) * (k + alpha + beta + 1) / (alpha + 1)
                            assert mass_coefficient(k, alpha, beta, lam, d) == want

    @pytest.mark.parametrize("high_first", [False, True])
    def test_gamma_part_running_product_matches_the_direct_form(self, monkeypatch, high_first):
        # The total mass times Pochhammer factors against G(d/2+a+1) G(b+k+1) / (G(d/2) G(a+b+k+1))
        # k! / (a+1)_k read from gamma_ratio at each k, from an empty _TOTAL_MASSES whether the
        # first call asks for k = 14 or for k = 0.  At a = b = -1/2, d = 3 the value at k = 0
        # is 0 (a + b + 1 = 0) and the one at k = 1 is not.
        monkeypatch.setattr(jacobi, "_TOTAL_MASSES", {})
        cases = [(Q(a), b, d) for a in MASS_ALPHAS for b in SIGNED_PARAMS + (Q(0), Q(1), Q(7, 2))
                 for d in (2, 3, 4)]
        cases.append((Q(-1, 2), Q(-1, 2), 3))
        ks = range(14, -1, -1) if high_first else range(15)
        for a, b, d in cases:
            params = jacobi._jacobi_params(a, b)
            for k in ks:
                want = _direct_gamma_part(k, a, b, d)
                if want is None:
                    with pytest.raises(ExactnessError):
                        jacobi._gamma_part(k, d, *params)
                    continue
                assert jacobi._gamma_part(k, d, *params) == want
        assert jacobi._gamma_part(0, 3, 2, -1, -1) == 0
        assert jacobi._gamma_part(1, 3, 2, -1, -1) == 2

    @settings(max_examples=60, deadline=None)
    @given(pair=_MASS_PAIRS, d=st.integers(2, 7), k=st.integers(0, 20))
    def test_gamma_part_matches_the_direct_form_on_drawn_parameters(self, pair, d, k):
        a, b = pair
        want = _direct_gamma_part(k, a, b, d)
        params = jacobi._jacobi_params(a, b)
        if want is None:
            with pytest.raises(ExactnessError):
                jacobi._gamma_part(k, d, *params)
        else:
            assert jacobi._gamma_part(k, d, *params) == want

    def test_one_gamma_ratio_per_radial_weight(self, monkeypatch):
        # The family q_0 .. q_12 at one (d, a, b) reads gamma_ratio once, for the total mass.
        calls = []
        real = jacobi.gamma_ratio

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(jacobi, "gamma_ratio", counted)
        monkeypatch.setattr(jacobi, "_TOTAL_MASSES", {})
        for k in range(13):
            mass_orthogonal_poly(k, Q(1, 4), Q(3, 2), Q(2, 5), 3)
        assert len(calls) == 1

    def test_exactness_error_names_mu_beta_and_d(self):
        # a = 1/2 and b - d/2 = -1/2: the total mass has no Pochhammer form.
        with pytest.raises(ExactnessError, match=r"got mu=1, beta=1/2, d=2$"):
            mass_coefficient(2, Q(1, 2), Q(1, 2), Q(1, 3), 2)

    # Each public entry point that builds P_n checks a > -1 and b > -1 once, then reads the
    # cached recurrence; jacobi_type_poly has a = 0 built in.
    ENTRY_POINTS = {
        "jacobi_polynomial": lambda a, b: jacobi_polynomial(2, a, b),
        "jacobi_derivative_residual": lambda a, b: jacobi_derivative_residual(2, a, b),
        "jacobi_ode_residual": lambda a, b: jacobi_ode_residual(2, a, b),
        "mass_orthogonal_poly": lambda a, b: mass_orthogonal_poly(2, a, b, Q(1, 2), 2),
        "jacobi_type_poly": lambda a, b: jacobi_type_poly(2, b, Q(3)),
    }

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_entry_point_rejects_parameters_at_or_below_minus_one(self, name):
        call = self.ENTRY_POINTS[name]
        bad = [(Q(0), Q(-1)), (Q(1, 2), Q(-5, 4))]
        if name != "jacobi_type_poly":
            bad += [(Q(-1), Q(0)), (Q(-3, 2), Q(1, 2))]
        for a, b in bad:
            with pytest.raises(ValueError, match="Jacobi parameters must exceed -1"):
                call(a, b)
        call(Q(0), Q(-1, 2))  # inside the range: no error


class TestRadialWeightOracle:
    def test_monomial_pairs(self):
        # All three radial products against the termwise-integrated weight.
        monomials = [UniPoly([0] * k + [1]) for k in range(5)]
        for a in MASS_ALPHAS:
            for b in (Q(-1, 2), Q(0), Q(1, 2), Q(1), Q(3, 2), Q(2), Q(5, 2)):
                moment = _normalized_moment(a, b)
                if moment is None:
                    continue
                for i, ti in enumerate(monomials):
                    for j, tj in enumerate(monomials):
                        w = moment(i + j)
                        assert jacobi_inner(ti, tj, a, b) == w
                        for d in (2, 3):
                            total = point_mass_total(a, b, d)
                            if total is not None:
                                got = inner_jacobi_mass(ti, tj, a, b, Q(1, 3), d)
                                assert got == total * w + Q(1, 3)
                        if a == 0:
                            # The a = 0 weight has total mass B(1, b + 1) = 1 / (b + 1).
                            assert inner_jacobi_type(ti, tj, b, Q(7, 3)) == w / (b + 1) + Q(3, 7)

    @staticmethod
    def _random_poly(rng, degree):
        return UniPoly([Q(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(degree + 1)])

    @staticmethod
    def _termwise(f, g, moment):
        return sum(
            (ci * cj * moment(i + j) for i, ci in enumerate(f.coeffs) for j, cj in enumerate(g.coeffs)),
            Q(0),
        )

    @pytest.mark.parametrize("high_first", [True, False], ids=["high-first", "low-first"])
    def test_random_polys_to_full_depth(self, monkeypatch, high_first):
        # Random rational polynomials up to degree 14, so products reach t^28, against a
        # termwise sum of the oracle moments.  Every moment table starts empty and is
        # first queried at the highest or at the lowest degree, so a table that is too
        # short, or numerators on the wrong common denominator, shows in one order.
        monkeypatch.setattr(jacobi, "_MOMENTS", {})
        rng = random.Random(20151)
        degrees = [14, 13, 1, 0, 6] if high_first else [0, 1, 6, 13, 14]
        pairs = [(self._random_poly(rng, n), self._random_poly(rng, rng.randint(0, n))) for n in degrees]
        betas = (Q(-1, 2), Q(0), Q(1, 2), Q(2), Q(7, 2))
        lam = Q(2, 7)
        for alpha in (Q(0), Q(1, 2), Q(1), Q(3)):
            for b in betas:
                moment = _normalized_moment(alpha, b)
                if moment is None:
                    continue
                for f, g in pairs:
                    assert jacobi_inner(f, g, alpha, b) == self._termwise(f, g, moment)
        for a in MASS_ALPHAS:
            for b in betas:
                moment = _normalized_moment(a, b)
                totals = {d: point_mass_total(a, b, d) for d in (2, 3)}
                if moment is None or totals == {2: None, 3: None}:
                    continue
                for f, g in pairs:
                    weighted = self._termwise(f, g, moment)
                    for d, total in totals.items():
                        if total is not None:
                            want = total * weighted + lam * f.evaluate(1) * g.evaluate(1)
                            assert inner_jacobi_mass(f, g, a, b, lam, d) == want


class TestJacobiTypeFamily:
    def test_value_at_one_is_mass(self):
        for k in range(9):
            for beta in (Q(0), Q(1), Q(5, 2)):
                for mass in (Q(1), Q(2), Q(7, 3)):
                    assert jacobi_type_poly(k, beta, mass).evaluate(1) == mass

    def test_degree_zero(self):
        assert jacobi_type_poly(0, Q(5, 2), Q(7, 3)) == UniPoly.constant(Q(7, 3))

    def test_hand_expansion(self):
        assert jacobi_type_poly(1, 0, 2) == UniPoly([-1, 3])

    def test_agrees_with_mass_family_at_alpha_zero(self):
        for d in (2, 3):
            for lam in (Q(1, 4), Q(1, 2)):
                mass = Q(d) / (2 * lam)
                for beta in (Q(0), Q(1, 2), Q(2)):
                    for k in range(6):
                        assert jacobi_type_poly(k, beta, mass) == mass_orthogonal_poly(
                            k, 0, beta, lam, d
                        )

    def test_inner_product_example(self):
        one = UniPoly.constant(1)
        assert inner_jacobi_type(one, one, 0, 2) == Q(3, 2)

    def test_inner_product_two_paths(self):
        # (q_0, t-1) for beta=0: the weighted part is M * (mean of t - 1) = -M,
        # and the point mass contributes nothing since (t-1) vanishes at 1.
        q0 = jacobi_type_poly(0, 0, 2)
        assert inner_jacobi_type(q0, UniPoly([-1, 1]), 0, 2) == -2

    def test_orthogonality(self):
        for beta in (Q(0), Q(1), Q(5, 2)):
            for mass in (Q(1), Q(2), Q(7, 3)):
                qs = [jacobi_type_poly(k, beta, mass) for k in range(7)]
                for j in range(7):
                    for k in range(j + 1, 7):
                        assert inner_jacobi_type(qs[j], qs[k], beta, mass) == 0


class TestConnectionOperators:
    def test_forward_on_constants(self):
        assert connection_op(UniPoly.constant(1), Q(3), Q(2)) == UniPoly.constant(2)

    def test_forward_hand_expansion(self):
        assert connection_op(UniPoly.t(), 0, 1) == UniPoly([-1, 2])

    def test_forward_maps_jacobi_to_type(self):
        for beta in (Q(0), Q(1), Q(2), Q(5, 2)):
            for mass in (Q(1), Q(2), Q(7, 3)):
                for k in range(9):
                    p = jacobi_polynomial(k, 0, beta)
                    assert connection_op(p, beta, mass) == jacobi_type_poly(k, beta, mass)

    def test_backward_on_constants(self):
        assert conjugate_connection_op(UniPoly.constant(1), Q(3), Q(2)) == UniPoly.constant(6)

    def test_backward_maps_type_to_jacobi(self):
        for beta in (Q(0), Q(1), Q(2), Q(5, 2)):
            for mass in (Q(1), Q(2), Q(7, 3)):
                for k in range(9):
                    q = jacobi_type_poly(k, beta, mass)
                    expect = type_eigenvalue(k, beta, mass) * jacobi_polynomial(k, 0, beta)
                    assert conjugate_connection_op(q, beta, mass) == expect

    def test_fourth_order_ode(self):
        for beta in (Q(0), Q(1), Q(2), Q(5, 2)):
            for mass in (Q(1), Q(2), Q(7, 3)):
                for k in range(9):
                    q = jacobi_type_poly(k, beta, mass)
                    composed = connection_op(
                        conjugate_connection_op(q, beta, mass), beta, mass
                    )
                    assert composed == type_eigenvalue(k, beta, mass) * q

    def test_eigenvalue_equals_leading_coefficient_ratio(self):
        for k in range(1, 7):
            beta, mass = Q(1), Q(7, 3)
            q = jacobi_type_poly(k, beta, mass)
            composed = connection_op(conjugate_connection_op(q, beta, mass), beta, mass)
            assert composed.leading_coeff() / q.leading_coeff() == type_eigenvalue(
                k, beta, mass
            )


class TestPartsIdentity:
    def test_constants(self):
        assert parts_residual(UniPoly.constant(1), UniPoly.constant(1), 0, 2) == 0

    def test_hand_case(self):
        assert parts_residual(UniPoly([0, 0, 1]), UniPoly([0, 0, 0, 1]), 1, 3) == 0

    def test_random_sweep(self):
        rng = random.Random(7)
        for beta in (0, 1, 2):
            for _ in range(8):
                f = UniPoly([Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)])
                g = UniPoly([Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)])
                assert parts_residual(f, g, beta, Q(7, 3)) == 0

    def test_half_integer_weight(self):
        # The normalized moments stay rational even for non-integer weight powers.
        assert parts_residual(UniPoly([1, 2]), UniPoly([0, 1, 1]), Q(5, 2), 2) == 0
