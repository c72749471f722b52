import random
from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import gram_schmidt

from orthoball import MultiPoly, UniPoly, laplacian, radius_squared, substitute_radial
from orthoball.polynomials import _gram_schmidt, as_fraction, fraction_text, pack


def P(dim, terms):
    return MultiPoly(dim, terms)


coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def multipolys(draw, dim=3, max_exp=2):
    n_terms = draw(st.integers(min_value=0, max_value=5))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(min_value=0, max_value=max_exp)) for _ in range(dim))
        terms[exps] = draw(coeffs)
    return MultiPoly(dim, terms)


@st.composite
def unipolys(draw, max_degree=4):
    return UniPoly([draw(coeffs) for _ in range(draw(st.integers(0, max_degree)) + 1)])


class TestMultiPolyBasics:
    def test_zero_terms_pruned(self):
        p = P(2, {(1, 0): 0, (0, 1): 2})
        assert list(p.terms) == [(0, 1)]

    def test_additive_inverse_gives_zero(self):
        p = P(2, {(2, 0): 1})
        assert (p + (-p)).is_zero()

    def test_disjoint_sum(self):
        x1, x2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        assert (x1 + x2) == P(2, {(1, 0): 1, (0, 1): 1})

    def test_like_terms_merge(self):
        p = P(2, {(1, 1): 2}) + P(2, {(1, 1): 3})
        assert p == P(2, {(1, 1): 5})

    def test_difference_of_squares(self):
        x1, x2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        assert (x1 + x2) * (x1 - x2) == P(2, {(2, 0): 1, (0, 2): -1})

    def test_mul_identity(self):
        p = P(2, {(2, 1): Q(3, 7), (0, 0): -2})
        assert p * MultiPoly.constant(2, 1) == p

    def test_monomial_product(self):
        assert P(2, {(2, 0): 1}) * P(2, {(0, 3): 1}) == P(2, {(2, 3): 1})

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            P(2, {(1, 0): 1}) + P(3, {(1, 0, 0): 1})
        with pytest.raises(ValueError):
            P(2, {(1, 0): 1}) * P(3, {(1, 0, 0): 1})

    def test_partial_derivative(self):
        p = P(2, {(2, 1): 1})
        assert p.partial(0) == P(2, {(1, 1): 2})
        assert MultiPoly.constant(2, 5).partial(0).is_zero()
        assert P(2, {(0, 3): 1}).partial(1) == P(2, {(0, 2): 3})

    def test_partial_axis_range(self):
        with pytest.raises(ValueError):
            P(2, {(1, 0): 1}).partial(2)

    def test_evaluate(self):
        p = radius_squared(2)
        assert p.evaluate([Q(3, 5), Q(4, 5)]) == 1
        q = P(2, {(0, 0): 7, (3, 1): 2})
        assert q.evaluate([0, 0]) == 7
        assert substitute_radial(UniPoly.t(), 2).evaluate([1, 0]) == 1

    def test_evaluate_length_check(self):
        with pytest.raises(ValueError):
            radius_squared(2).evaluate([1])

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            P(2, {(1, 0): 0.5})

    def test_non_integer_exponent_rejected(self):
        for bad in (1.5, Q(3, 2), 2.0, Q(2)):
            with pytest.raises(TypeError):
                P(2, {(bad, 0): 1})

    def test_degree_and_homogeneity(self):
        assert MultiPoly.zero(2).total_degree() == -1
        p = P(2, {(2, 1): 1})
        assert p.total_degree() == 3
        assert p.is_homogeneous(3)
        assert not (p + 1).is_homogeneous()

    def test_canonical_string_graded_lex(self):
        p = P(2, {(2, 0): 1, (0, 2): -1, (0, 0): Q(1, 2)})
        assert p.canonical() == "1/2 * x1^0*x2^0 + -1/1 * x1^0*x2^2 + 1/1 * x1^2*x2^0"
        assert MultiPoly.zero(2).canonical() == "0"

    def test_canonical_matches_fraction_form(self):
        # The integer form (one gcd per term, cached monomial text) against the Fraction form
        # it replaces: negative numerators, den > 1 with and without a shared factor, zero.
        rng = random.Random(23)
        for dim in range(1, 7):
            cases = [MultiPoly.zero(dim), MultiPoly.constant(dim, Q(-6, 4))]
            for _ in range(200):
                terms = {tuple(rng.randint(0, 5) for _ in range(dim)):
                         Q(rng.randint(-30, 30), rng.choice([1, 2, 6, 12, 35]))
                         for _ in range(rng.randint(1, 6))}
                cases.append(MultiPoly(dim, terms))
            assert any(p.den > 1 for p in cases)
            assert any(n < 0 for p in cases for n in p.nums.values())
            for p in cases:
                want = " + ".join(
                    f"{fraction_text(c)} * " + "*".join(f"x{j + 1}^{k}" for j, k in enumerate(e))
                    for e, c in p.sorted_terms()
                ) or "0"
                assert p.canonical() == want


@settings(max_examples=100)
@given(multipolys(), multipolys(), multipolys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@settings(max_examples=100)
@given(multipolys(), st.integers(0, 2), st.integers(0, 2))
def test_mixed_partials_commute(p, i, j):
    assert p.partial(i).partial(j) == p.partial(j).partial(i)


@settings(max_examples=100)
@given(st.integers(1, 4).flatmap(lambda dim: multipolys(dim=dim, max_exp=4)))
def test_laplacian_is_sum_of_second_partials(p):
    second = [p.partial(axis).partial(axis) for axis in range(p.dim)]
    assert laplacian(p) == sum(second, MultiPoly.zero(p.dim))


@settings(max_examples=100)
@given(multipolys(), st.integers(-6, 6))
def test_int_scaling_matches_fraction_scaling(p, c):
    assert c * p == p * c == Q(c) * p
    assert_multi_stored_form(c * p)


def test_as_fraction_returns_a_fraction_unchanged():
    q = Q(3, 7)
    assert as_fraction(q) is q
    for value in (3, "3/7", Q(6, 14)):
        assert type(as_fraction(value)) is Q and as_fraction(value) == Q(value)
    with pytest.raises(TypeError):
        as_fraction(0.5)


def test_radius_squared_is_shared_per_dimension():
    assert radius_squared(3) is radius_squared(3)
    assert radius_squared(3) == P(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})


@settings(max_examples=60)
@given(unipolys(), st.lists(coeffs, min_size=2, max_size=2))
def test_substitute_radial_pointwise(q, point):
    target = 2 * (point[0] ** 2 + point[1] ** 2) - 1
    assert substitute_radial(q, 2).evaluate(point) == q.evaluate(target)


negatives = st.fractions(min_value=-4, max_value=Q(-1, 3), max_denominator=3)


def assert_multi_stored_form(p):
    assert p.den > 0 and gcd(p.den, *p.nums.values()) == 1
    assert all(p.nums.values())
    assert sorted(p.nums) == [pack(e) for e in sorted(p.terms, key=lambda e: (sum(e), e))]
    assert MultiPoly(p.dim, p.terms) == p


def assert_uni_stored_form(q):
    assert q.den > 0 and gcd(q.den, *q.nums) == 1
    assert not q.nums or q.nums[-1]
    assert UniPoly(q.coeffs) == q


@settings(max_examples=100)
@given(multipolys(), multipolys(), negatives, st.integers(0, 2))
def test_multipoly_stored_form(p, q, c, axis):
    # Integer numerators over one positive denominator in lowest terms, keyed in grlex order.
    for r in (p, p + q, p - q, p * q, p * c, p.partial(axis), p - p, MultiPoly.zero(3)):
        assert_multi_stored_form(r)


@settings(max_examples=100)
@given(unipolys(), unipolys(), negatives)
def test_unipoly_stored_form(f, g, c):
    for r in (f, f + g, f - g, f * g, f * c, f.derivative(), f - f, UniPoly.zero()):
        assert_uni_stored_form(r)


class TestSubstituteRadial:
    def test_linear(self):
        assert substitute_radial(UniPoly.t(), 2) == P(2, {(2, 0): 2, (0, 2): 2, (0, 0): -1})

    def test_constant(self):
        assert substitute_radial(UniPoly.constant(1), 3) == MultiPoly.constant(3, 1)

    def test_square_expansion(self):
        # (2x^2 + 2y^2 - 1)^2 expanded by hand.
        expect = P(
            2,
            {(4, 0): 4, (2, 2): 8, (0, 4): 4, (2, 0): -4, (0, 2): -4, (0, 0): 1},
        )
        assert substitute_radial(UniPoly([0, 0, 1]), 2) == expect


class TestUniPoly:
    def test_trailing_zeros_stripped(self):
        assert UniPoly([1, 2, 0, 0]).degree == 1

    def test_arithmetic(self):
        f = UniPoly([1, 2, 3])
        g = UniPoly([0, 1])
        assert f + g == UniPoly([1, 3, 3])
        assert f - f == UniPoly.zero()
        assert g * g == UniPoly([0, 0, 1])
        assert 2 * f == UniPoly([2, 4, 6])

    def test_str_with_constant_and_linear_terms(self):
        assert str(UniPoly([1, -2, 3])) == "1 - 2*t + 3*t^2"

    def test_derivative_and_eval(self):
        f = UniPoly([5, 0, 3])  # 5 + 3t^2
        assert f.derivative() == UniPoly([0, 6])
        assert f.evaluate(Q(1, 2)) == Q(23, 4)

    def test_evaluate_matches_fraction_horner(self):
        # The integer Horner pass against Horner on Fractions, at negative, zero and
        # non-reduced points and on the zero polynomial.
        polys = [UniPoly.zero(), UniPoly.constant(Q(-7, 3)), UniPoly([Q(1, 2), 0, Q(-5, 6), Q(3, 4)]),
                 UniPoly([0, 0, 0, Q(9, 10), 0, -4])]
        for f in polys:
            for x in (0, 1, -1, 3, Q(-3, 2), Q(-5, 7), Q(2, 9), "2/4", "-6/4"):
                want = Q(0)
                for c in reversed(f.coeffs):
                    want = want * Q(x) + c
                got = f.evaluate(x)
                assert type(got) is Q and got == want
        assert UniPoly.zero().evaluate("2/4") == 0
        assert UniPoly([1, 1]).evaluate("2/4") == Q(3, 2)

    def test_compose(self):
        f = UniPoly([0, 0, 1])
        inner = UniPoly([1, 1])
        assert f.compose(inner) == UniPoly([1, 2, 1])

    def test_exact_div(self):
        f = UniPoly([0, 0, 2, 3])
        assert f.exact_div_tpow(2) == UniPoly([2, 3])
        with pytest.raises(ValueError):
            UniPoly([1, 0, 2]).exact_div_tpow(1)

    def test_times_tpow(self):
        assert UniPoly([1, 1]).times_tpow(2) == UniPoly([0, 0, 1, 1])


@st.composite
def gram_schmidt_starts(draw):
    """Integer rows of strictly increasing length, each ending in a positive entry."""
    rows, length = [], 0
    for _ in range(draw(st.integers(1, 6))):
        length += draw(st.integers(1, 3))
        body = draw(st.lists(st.integers(-9, 9), min_size=length - 1, max_size=length - 1))
        rows.append(body + [draw(st.integers(1, 9))])
    return rows


def diagonal_form(weights):
    return lambda u: [c * w for c, w in zip(u, weights)]


def hankel_form(moments, size):
    # W[j] = sum_i U_i m[i+j] for j < size: the Hankel matrix of the moments m.
    return lambda u: [sum(c * moments[i + j] for i, c in enumerate(u)) for j in range(size)]


def discrete_moments(points, weights, count):
    # m_s = sum_p w_p x_p^s: the Hankel matrix of a positive measure on n distinct points
    # is positive definite up to size n.
    return [sum(w * x ** s for x, w in zip(points, weights)) for s in range(count)]


class TestGramSchmidtKernel:
    @staticmethod
    def check(starts, image):
        size = len(starts[-1])
        form = [image([0] * i + [1]) + [0] * size for i in range(size)]  # G, row by row
        inner = lambda f, g: sum(a * form[i][j] * b for i, a in enumerate(f.coeffs)
                                 for j, b in enumerate(g.coeffs))
        want = gram_schmidt([UniPoly(h) for h in starts], inner)
        rows = _gram_schmidt(starts, image)
        assert len(rows) == len(starts)
        for k, ((u, sq), h, w) in enumerate(zip(rows, starts, want)):
            assert len(u) == len(h) and u[-1] > 0 and gcd(*u) == 1
            assert sq == sum(a * b for a, b in zip(u, image(u)))
            # The Fraction Gram-Schmidt row up to a positive scalar.
            assert UniPoly(u) == Q(u[-1]) / w.leading_coeff() * w
            for v, _ in rows[:k]:
                assert sum(a * b for a, b in zip(v, image(u))) == 0

    @settings(max_examples=60, deadline=None)
    @given(gram_schmidt_starts(), st.lists(st.integers(1, 12), min_size=18, max_size=18))
    def test_diagonal_image(self, starts, weights):
        self.check(starts, diagonal_form(weights))

    @settings(max_examples=60, deadline=None)
    @given(gram_schmidt_starts(), st.data())
    def test_hankel_image(self, starts, data):
        size = len(starts[-1])
        points = data.draw(st.lists(st.integers(-20, 20), min_size=size, max_size=size, unique=True))
        weights = data.draw(st.lists(st.integers(1, 5), min_size=size, max_size=size))
        self.check(starts, hankel_form(discrete_moments(points, weights, 2 * size - 1), size))

    def test_zero_norm_raises_at_the_next_start(self):
        # A measure on two points: the Hankel form has rank two, so the third unit row has
        # norm zero.  Gram-Schmidt divides by that norm at the fourth start, and not before.
        starts = [[0] * k + [1] for k in range(4)]
        image = hankel_form(discrete_moments([0, 1], [1, 1], 7), 4)
        rows = _gram_schmidt(starts[:3], image)
        assert [sq for _, sq in rows][-1] == 0 and all(sq for _, sq in rows[:-1])
        with pytest.raises(ZeroDivisionError):
            _gram_schmidt(starts, image)
