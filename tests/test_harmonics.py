import hashlib
import random
from fractions import Fraction as Q
from functools import cache
from itertools import product
from math import comb, factorial, gcd, prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import euler, gamma_sphere_moment, sphere_table_harmonic_basis, termwise_inner

from orthoball import (
    MultiPoly,
    euler_residual,
    harmonic_basis,
    harmonic_space_dim,
    inner_sphere,
    laplace_beltrami_op,
    laplace_beltrami_residual,
    laplacian,
    polar_decomposition_residual,
    radius_squared,
)
from orthoball.harmonics import _cauchy_harmonic, _monomials
from orthoball.polynomials import fraction_text, pack

# One line "dim degree sha256" per basis; regenerate only when the bases are meant to
# change: PYTHONPATH=src python tests/test_harmonics.py > tests/golden/harmonic_bases.txt
GOLDEN_BASES = Path(__file__).parent / "golden" / "harmonic_bases.txt"


def basis_digest(dim: int, degree: int) -> str:
    """sha256 of each element's canonical text and its squared sphere norm, one per line."""
    basis = harmonic_basis(dim, degree)
    text = "".join(f"{Y.canonical()}\n{fraction_text(norm)}\n"
                   for Y, norm in zip(basis.elements, basis.sphere_norms))
    return hashlib.sha256(text.encode()).hexdigest()


_gamma_sphere = cache(gamma_sphere_moment)


def oracle_sphere(f: MultiPoly, g: MultiPoly) -> Q:
    """The sphere product term by term over Gamma-form moments: no moment table, no image."""
    return termwise_inner(f, g, _gamma_sphere)


def golden_lines() -> list[str]:
    return [f"{d} {m} {basis_digest(d, m)}" for d in range(2, 7) for m in range(7)]


class TestDimensions:
    def test_formula_values(self):
        assert harmonic_space_dim(3, 2) == 5  # C(4,2) - C(2,2)
        assert harmonic_space_dim(2, 0) == 1
        assert harmonic_space_dim(2, 5) == 2
        assert harmonic_space_dim(4, 8) == comb(11, 3) - comb(9, 3)

    def test_basis_count_matches(self):
        for d in (2, 3, 4):
            for m in range(7):
                assert len(harmonic_basis(d, m).elements) == harmonic_space_dim(d, m)


class TestBasisProperties:
    def test_elements_are_harmonic(self):
        for d in (2, 3):
            for m in range(7):
                for Y in harmonic_basis(d, m).elements:
                    assert laplacian(Y).is_zero()
                    assert Y.is_homogeneous(m)

    def test_pairwise_sphere_orthogonality(self):
        """Gram-Schmidt reads moment images; the oracle sums Gamma-form moments term by term."""
        for d in (2, 3):
            for m in range(7):
                els = harmonic_basis(d, m).elements
                for i in range(len(els)):
                    for j in range(i + 1, len(els)):
                        assert oracle_sphere(els[i], els[j]) == 0

    def test_recorded_norms(self):
        """Each norm is read from its element's image; the oracle recomputes it term by term."""
        basis = harmonic_basis(3, 4)
        for Y, norm in zip(basis.elements, basis.sphere_norms):
            assert norm > 0
            assert oracle_sphere(Y, Y) == norm

    def test_cross_degree_orthogonality(self):
        for m1 in range(5):
            for m2 in range(m1 + 1, 5):
                for Y1 in harmonic_basis(3, m1).elements:
                    for Y2 in harmonic_basis(3, m2).elements:
                        assert inner_sphere(Y1, Y2) == 0

    def test_degree_one_spans_coordinates(self):
        els = harmonic_basis(2, 1).elements
        assert {str(Y) for Y in els} == {"x1", "x2"}

    def test_degree_two_d2_span(self):
        # The degree-2 harmonics in the plane are spanned by x1^2 - x2^2 and x1*x2.
        els = harmonic_basis(2, 2).elements
        assert len(els) == 2
        for target in (
            MultiPoly(2, {(2, 0): 1, (0, 2): -1}),
            MultiPoly(2, {(1, 1): 1}),
        ):
            projection = MultiPoly.zero(2)
            for Y in els:
                projection = projection + (inner_sphere(target, Y) / inner_sphere(Y, Y)) * Y
            assert projection == target

    def test_determinism(self):
        harmonic_basis.cache_clear()
        first = harmonic_basis(3, 3)
        harmonic_basis.cache_clear()
        second = harmonic_basis(3, 3)
        assert first.elements == second.elements
        assert first.sphere_norms == second.sphere_norms


def _primitive(p: MultiPoly) -> MultiPoly:
    """Scale to integer coefficients with content 1 and positive leading grlex term."""
    content = gcd(*p.nums.values())
    if p.nums[max(p.nums)] < 0:
        content = -content
    return p * Q(p.den, content)


def reference_basis(dim: int, degree: int) -> list[MultiPoly]:
    """Classical Gram-Schmidt on whole MultiPolys, one sphere product per coefficient."""
    blocks: dict[tuple[int, ...], list[MultiPoly]] = {}
    for e in _monomials(dim, degree):
        if e[-1] < 2:
            blocks.setdefault(tuple(v & 1 for v in e), []).append(_cauchy_harmonic(e))
    out = []
    for parity in sorted(blocks):
        done = []
        for h in blocks[parity]:
            work = h
            for u in done:
                work = work - (inner_sphere(h, u) / inner_sphere(u, u)) * u
            done.append(_primitive(work))
        out += done
    return out


class TestIntegerGramSchmidt:
    def test_matches_whole_polynomial_gram_schmidt(self):
        # Equal in den and nums, element by element, to the form that subtracts each
        # projection as a MultiPoly.  (3, 12) and (4, 8) have large blocks: many nonzero
        # coefficients per update, so a large lcm of the norms and tall coefficients.
        for d, m in [(d, m) for d in range(2, 7) for m in range(7)] + [(3, 12), (4, 8)]:
            got = harmonic_basis(d, m).elements
            want = reference_basis(d, m)
            assert [(Y.den, Y.nums) for Y in got] == [(Y.den, Y.nums) for Y in want]

    def test_matches_sphere_table_gram_schmidt(self):
        # The build reads the Fischer product; the oracle images each u_j through the sphere
        # moment table.  Equal elements and equal norms, as Fractions, at every (d, m).
        for d in range(2, 7):
            for m in range(7):
                got, want = harmonic_basis(d, m), sphere_table_harmonic_basis(d, m)
                assert [(Y.den, Y.nums) for Y in got.elements] == \
                    [(Y.den, Y.nums) for Y in want.elements]
                assert got.sphere_norms == want.sphere_norms


def fischer(f: MultiPoly, g: MultiPoly) -> Q:
    """[f, g] = sum_e e! f_e g_e over the exponent tuples the two share."""
    g_terms = g.terms
    shared = [(e, c) for e, c in f.terms.items() if e in g_terms]
    return sum((c * g_terms[e] * prod(map(factorial, e)) for e, c in shared), Q(0))


class TestFischerProduct:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 5), st.data())
    def test_sphere_product_is_fischer_over_the_denominator(self, d, m, data):
        # <f, Y>_sphere = [f, Y] / (d (d+2) ... (d+2m-2)) for every homogeneous f of degree m and
        # every harmonic Y of degree m (Axler, Bourdon & Ramey, ch. 5), f not harmonic in general.
        monos = _monomials(d, m)
        coeffs = data.draw(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4),
                                    min_size=len(monos), max_size=len(monos)))
        f = MultiPoly(d, dict(zip(monos, coeffs)))
        els = harmonic_basis(d, m).elements
        Y = els[data.draw(st.integers(0, len(els) - 1))]
        assert inner_sphere(f, Y) * prod(range(d, d + 2 * m, 2)) == fischer(f, Y)


class TestGoldenBases:
    def test_bases_match_golden(self):
        # Pins every element and norm for d = 2..6, m = 0..6 byte for byte.
        assert golden_lines() == GOLDEN_BASES.read_text().strip().split("\n")


class TestMonomials:
    def test_cached_tuple_in_grlex_order(self):
        # One tuple per (dim, degree), shared by every caller, holding each exponent vector
        # of that degree once, sorted by packed key: the order polar-decomposition's seeded
        # draws and the harmonic blocks read.
        for dim in range(1, 7):
            for degree in range(7):
                monos = _monomials(dim, degree)
                assert isinstance(monos, tuple)
                assert _monomials(dim, degree) is monos
                every = [e for e in product(range(degree + 1), repeat=dim) if sum(e) == degree]
                assert list(monos) == sorted(every, key=pack)


class TestCauchyHarmonic:
    def test_closed_form(self):
        # h_e is harmonic, homogeneous, and has coefficient 1 at x^e and 0 at every other
        # monomial with e_d <= 1: a wrong sign, factorial or multinomial weight breaks one.
        for d in range(2, 6):
            for m in range(8):
                free = [e for e in _monomials(d, m) if e[-1] < 2]
                for e in free:
                    h = _cauchy_harmonic(e)
                    assert laplacian(h).is_zero()
                    assert h.is_homogeneous(m)
                    terms = h.terms
                    assert [terms.get(f, 0) for f in free] == [int(f == e) for f in free]


@st.composite
def _homogeneous(draw):
    """(d, m, p): a random homogeneous rational p of degree m in d variables, zero included."""
    d, m = draw(st.integers(2, 6)), draw(st.integers(0, 6))
    terms = draw(st.dictionaries(st.sampled_from(_monomials(d, m)),
                                 st.fractions(-9, 9, max_denominator=7), max_size=8))
    return d, m, MultiPoly(d, terms)


class TestEulerIdentity:
    def test_monomial(self):
        assert euler_residual(MultiPoly(2, {(1, 1): 1}), 2).is_zero()

    def test_difference_of_squares(self):
        assert euler_residual(MultiPoly(2, {(2, 0): 1, (0, 2): -1}), 2).is_zero()

    def test_basis_sweep(self):
        for Y in harmonic_basis(3, 4).elements:
            assert euler_residual(Y, 4).is_zero()

    def test_rejects_inhomogeneous(self):
        # E (x1 + 1) - (x1 + 1) = -1: the constant is off the grade m = 1.
        assert euler_residual(MultiPoly(2, {(1, 0): 1, (0, 0): 1}), 1) == MultiPoly.constant(2, -1)


class TestLaplaceBeltrami:
    def test_eigen_on_harmonics(self):
        # Delta_0 commutes with a factor ||x||^2, so the non-homogeneous Y + ||x||^2 Y passes too.
        for d in (2, 3):
            r2 = radius_squared(d)
            for m in range(6):
                for Y in harmonic_basis(d, m).elements:
                    assert laplace_beltrami_residual(Y, m).is_zero()
                    assert laplace_beltrami_residual(r2 * Y, m).is_zero()
                    assert laplace_beltrami_residual(Y + r2 * Y, m).is_zero()

    def test_radius_squared_is_constant_on_sphere(self):
        # ||x||^2 restricts to 1 on the sphere, so the angular Laplacian kills it.
        assert laplace_beltrami_op(radius_squared(2)).is_zero()
        assert laplace_beltrami_op(radius_squared(3)).is_zero()

    def test_eigen_residual_detects_non_harmonic(self):
        assert not laplace_beltrami_residual(radius_squared(2), 2).is_zero()

    def test_polar_decomposition_on_cube(self):
        p = MultiPoly(2, {(3, 0): 1})
        assert polar_decomposition_residual(p, 3).is_zero()
        # Off the grade m = 2: grade g is scaled by g(g+d-2) - m(m+d-2), here -4 at g = 0.
        off_grade = MultiPoly(2, {(2, 0): 1, (0, 0): 1})
        assert polar_decomposition_residual(off_grade, 2) == MultiPoly.constant(2, -4)

    def test_residuals_reject_one_variable(self):
        # At d = 1 the grade scalar g(g-1) is 0 at both g = 0 and g = 1, so a zero residual
        # would not mean homogeneous of degree m: polar(x1 + 1, 0) would read 0.
        p = MultiPoly(1, {(1,): 1, (0,): 1})
        for residual in (laplace_beltrami_residual, polar_decomposition_residual):
            with pytest.raises(ValueError, match="at least 2"):
                residual(p, 0)

    def test_polar_decomposition_random_sweep(self):
        rng = random.Random(5)
        for d in (2, 3):
            for m in range(1, 6):
                for _ in range(3):
                    p = MultiPoly(d, {e: rng.randint(-4, 4) for e in _monomials(d, m)})
                    assert polar_decomposition_residual(p, m).is_zero()

    def test_one_pass_matches_composed_form(self):
        # Non-homogeneous rational polynomials, the zero polynomial and constants included.
        rng = random.Random(17)
        for d in range(1, 7):
            r2 = radius_squared(d)
            cases = [MultiPoly.zero(d), MultiPoly.constant(d, Q(-3, 7))]
            for _ in range(500):
                terms = {tuple(rng.randint(0, 4) for _ in range(d)):
                         Q(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 8))}
                cases.append(MultiPoly(d, terms))
            for p in cases:
                e = euler(p)
                composed = r2 * laplacian(p) - euler(e) - (d - 2) * e
                assert laplace_beltrami_op(p) == composed

    @settings(max_examples=150)
    @given(_homogeneous())
    @example((3, 2, MultiPoly.zero(3)))
    @example((2, 2, MultiPoly(2, {(2, 0): 1, (0, 0): 1})))
    def test_folded_residuals_match_composed_forms(self, case):
        # Each one-pass residual against the operator it folds its eigenvalue into, under ==.
        d, m, p = case
        eigen = m * (m + d - 2)
        assert euler_residual(p, m) == euler(p) - m * p
        assert laplace_beltrami_residual(p, m) == laplace_beltrami_op(p) + eigen * p
        assert polar_decomposition_residual(p, m) == (
            radius_squared(d) * laplacian(p) - laplace_beltrami_op(p) - eigen * p)

    def test_pointwise_on_circle(self):
        Y = MultiPoly(2, {(2, 0): 1, (0, 2): -1})
        point = [Q(3, 5), Q(4, 5)]
        image = laplace_beltrami_op(Y)
        assert image.evaluate(point) == -2 * (2 + 2 - 2) * Y.evaluate(point)


if __name__ == "__main__":
    print("\n".join(golden_lines()))
