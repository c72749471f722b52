import random
from fractions import Fraction as Q
from functools import cache
from itertools import product

import pytest
from oracles import (
    beta_sphere_ball_ratio,
    gamma_ball_moment,
    gamma_sphere_moment,
    gram_map,
    iterated_disk_moment,
    termwise_inner,
    wallis_circle_moment,
)

from orthoball import (
    ExactnessError,
    MultiPoly,
    UniPoly,
    ball_moment,
    gram_jacobi_mass,
    inner_ball,
    inner_mass,
    inner_sphere,
    mass_gram,
    moment_images,
    sphere_ball_ratio,
    sphere_gram,
    sphere_moment,
)
from orthoball import measures
from orthoball.polynomials import _monomials, _parity_mask


def exps_upto(dim, total):
    for deg in range(total + 1):
        yield from _monomials(dim, deg)


class TestSphereMoment:
    def test_normalization(self):
        assert sphere_moment((0, 0)) == 1
        assert sphere_moment((0, 0, 0, 0)) == 1

    def test_odd_exponent_vanishes(self):
        assert sphere_moment((1, 2)) == 0
        assert sphere_moment((2, 3, 0)) == 0

    def test_symmetry_value_d3(self):
        assert sphere_moment((2, 0, 0)) == Q(1, 3)

    def test_circle_values_against_wallis(self):
        for a in range(0, 9):
            for b in range(0, 9 - a):
                assert sphere_moment((a, b)) == wallis_circle_moment(a, b)

    def test_consistency_sum_rule(self):
        # sum_i m(nu + 2 e_i) = m(nu) because the coordinates square-sum to 1.
        for d in (2, 3, 4):
            for e in exps_upto(d, 6):
                total = sum(
                    sphere_moment(e[:i] + (e[i] + 2,) + e[i + 1 :]) for i in range(d)
                )
                assert total == sphere_moment(e)


class TestBallMoment:
    def test_normalization(self):
        assert ball_moment((0, 0), Q(1, 2)) == 1
        assert ball_moment((0, 0, 0), Q(3, 2)) == 1

    def test_odd_vanishes(self):
        assert ball_moment((3, 2), Q(1, 2)) == 0

    def test_lebesgue_disk_value(self):
        assert ball_moment((2, 0), Q(1, 2)) == Q(1, 4)

    def test_against_iterated_integral_oracle(self):
        for mu in (Q(1, 2), Q(1), Q(3, 2), Q(5, 2)):
            for a in range(0, 9):
                for b in range(0, 9 - a):
                    assert ball_moment((a, b), mu) == iterated_disk_moment(a, b, mu)

    def test_mu_range(self):
        with pytest.raises(ValueError):
            ball_moment((2, 0), Q(-1, 2))

    def test_rejects_malformed_exponents(self):
        # Exponents too large to pack raise before the odd-exponent zero is returned.
        for bad in ((), (2, -2), (2**31, 0), (2**31 + 1, 0), (2**30, 2**30)):
            with pytest.raises(ValueError):
                ball_moment(bad, Q(1, 2))
            with pytest.raises(ValueError):
                sphere_moment(bad)

    def test_rejects_non_integer_exponents(self):
        for bad in ((2.7, 0), (Q(3, 2), 0), (2.0, 0), (Q(2), 0)):
            with pytest.raises(TypeError):
                ball_moment(bad, Q(1, 2))
            with pytest.raises(TypeError):
                sphere_moment(bad)


class TestSphereBallRatio:
    def test_lebesgue_case_is_dimension(self):
        for d in range(2, 7):
            assert sphere_ball_ratio(d, Q(1, 2)) == d

    def test_half_integer_mu(self):
        assert sphere_ball_ratio(2, Q(3, 2)) == 4
        assert sphere_ball_ratio(3, Q(1, 2)) == 3

    def test_general_rational_mu_even_dim(self):
        # 2 * (mu + 1/2) / 0! for d = 2.
        assert sphere_ball_ratio(2, Q(1, 3)) == 2 * (Q(1, 3) + Q(1, 2))

    def test_irrational_case_raises(self):
        with pytest.raises(ExactnessError):
            sphere_ball_ratio(3, Q(1, 3))

    def test_matches_beta_recurrence_oracle(self):
        mus = (Q(-1, 4), Q(1, 3), Q(1, 2), Q(3, 4), Q(1), Q(3, 2), Q(2), Q(5, 2))
        for d in range(2, 8):
            for mu in mus:
                alpha = mu - Q(1, 2)
                irrational = d % 2 == 1 and not (alpha.denominator == 1 and alpha >= 0)
                want = beta_sphere_ball_ratio(d, mu)
                assert (want is None) == irrational
                if irrational:
                    with pytest.raises(ExactnessError):
                        sphere_ball_ratio(d, mu)
                else:
                    assert sphere_ball_ratio(d, mu) == want


class TestInnerProducts:
    def test_unit_masses(self):
        one = MultiPoly.constant(2, 1)
        assert inner_ball(one, one, Q(1, 2)) == 1
        assert inner_sphere(one, one) == 1
        assert inner_mass(one, one, Q(1, 2), Q(1, 4)) == Q(5, 4)

    def test_odd_orthogonality(self):
        x1 = MultiPoly.variable(2, 0)
        x2 = MultiPoly.variable(2, 1)
        assert inner_ball(x1, x2, Q(3, 2)) == 0
        assert inner_sphere(x1, x2) == 0

    def test_sphere_value(self):
        sq = MultiPoly(3, {(2, 0, 0): 1})
        assert inner_sphere(sq, MultiPoly.constant(3, 1)) == Q(1, 3)

    def test_lambda_zero_degrades(self):
        rng = random.Random(3)
        for _ in range(5):
            f = MultiPoly(2, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)})
            g = MultiPoly(2, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)})
            assert inner_mass(f, g, Q(1), 0) == inner_ball(f, g, Q(1))

    def test_symmetry_and_bilinearity(self):
        rng = random.Random(11)

        def rand_poly():
            return MultiPoly(
                3,
                {
                    tuple(rng.randint(0, 2) for _ in range(3)): Q(
                        rng.randint(-4, 4), rng.randint(1, 3)
                    )
                    for _ in range(4)
                },
            )

        for _ in range(10):
            f, g, h = rand_poly(), rand_poly(), rand_poly()
            c = Q(rng.randint(-3, 3), rng.randint(1, 2))
            for inner in (
                lambda u, v: inner_ball(u, v, Q(3, 2)),
                inner_sphere,
                lambda u, v: inner_mass(u, v, Q(1, 2), Q(1, 4)),
            ):
                assert inner(f, g) == inner(g, f)
                assert inner(f + g, h) == inner(f, h) + inner(g, h)
                assert inner(c * f, h) == c * inner(f, h)

    def test_positivity_on_monomials(self):
        for e in exps_upto(2, 4):
            mono = MultiPoly(2, {e: 1})
            assert inner_mass(mono, mono, Q(1, 2), Q(1, 4)) > 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner_sphere(MultiPoly.constant(2, 1), MultiPoly.constant(3, 1))

    def test_exponent_too_large_to_pack(self):
        # Adding two packed monomials must never carry into the next field.
        with pytest.raises(ValueError):
            MultiPoly(2, {(2 ** 31, 0): 1})
        # Each factor packs, but the product's total degree reaches 2^31.
        half = MultiPoly(2, {(2 ** 30, 0): 1})
        with pytest.raises(ValueError):
            half * half
        assert (half * MultiPoly(2, {(2 ** 30 - 1, 0): 1})).total_degree() == 2 ** 31 - 1

    def test_polar_factorization_shape(self):
        # The ball moment factors through the sphere moment; cross-check the
        # d=2 factorization against the purely iterated oracle on products.
        f = MultiPoly(2, {(2, 0): 1, (0, 0): -1})
        g = MultiPoly(2, {(0, 2): 3, (1, 1): 2})
        mu = Q(3, 2)
        expect = sum(
            cf * cg * iterated_disk_moment(ef[0] + eg[0], ef[1] + eg[1], mu)
            for ef, cf in f.terms.items()
            for eg, cg in g.terms.items()
        )
        assert inner_ball(f, g, mu) == expect


def _tall_poly(rng, dim, degree, terms):
    """Random exponents of mixed parity and coefficients of about 100 bits over 60 bits."""
    out = {}
    for _ in range(terms):
        exps = [0] * dim
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(dim)] += 1
        out[tuple(exps)] = Q(rng.randint(-(2 ** 100), 2 ** 100), rng.randint(1, 2 ** 60))
    return MultiPoly(dim, out)


def _parity_cover(rng, dim):
    """Two polynomials with one term in every parity class, x^v and x^(v + 2 e_i) for each
    parity vector v and a random axis i, with coefficients like _tall_poly's."""
    def coefficient():
        return Q(rng.randint(-(2 ** 100), 2 ** 100), rng.randint(1, 2 ** 60))
    low, high = {}, {}
    for v in product((0, 1), repeat=dim):
        axis = rng.randrange(dim)
        low[v] = coefficient()
        high[v[:axis] + (v[axis] + 2,) + v[axis + 1:]] = coefficient()
    return MultiPoly(dim, low), MultiPoly(dim, high)


class TestTermwiseOracle:
    """Every inner product against sum c_a c_b L(x^(a+b)) with Gamma-form moments."""

    MUS = (Q(-1, 4), Q(1, 2), Q(3, 4), Q(5, 2))
    LAM = Q(3, 7)

    def products(self, mu):
        return (
            (inner_sphere, gamma_sphere_moment),
            (lambda f, g: inner_ball(f, g, mu), lambda e: gamma_ball_moment(e, mu)),
            (
                lambda f, g: inner_mass(f, g, mu, self.LAM),
                lambda e: gamma_ball_moment(e, mu) + self.LAM * gamma_sphere_moment(e),
            ),
        )

    def test_random_tall_polynomials(self):
        rng = random.Random(20)
        for dim in (2, 3, 4, 5):
            for _ in range(3):
                f = _tall_poly(rng, dim, 6, 8)
                g = _tall_poly(rng, dim, 5, 7)
                for mu in self.MUS:
                    for inner, moment in self.products(mu):
                        assert inner(f, g) == termwise_inner(f, g, moment)

    def test_zero_and_constant(self):
        for dim in (2, 5):
            zero = MultiPoly.zero(dim)
            const = MultiPoly.constant(dim, Q(-7, 3))
            f = _tall_poly(random.Random(dim), dim, 4, 6)
            for mu in self.MUS:
                for inner, moment in self.products(mu):
                    assert inner(zero, f) == inner(f, zero) == 0
                    assert inner(zero, zero) == 0
                    assert inner(const, const) == termwise_inner(const, const, moment)
                    assert inner(const, f) == termwise_inner(const, f, moment)

    @pytest.mark.parametrize("high_first", [True, False], ids=["high-first", "low-first"])
    def test_gram_and_images_from_one_table(self, monkeypatch, high_first):
        # Every moment table starts empty and is first read at the highest or at the lowest
        # degree, so a table that is never regrown, or entries left on the old common
        # denominator after a regrow, shows in one order.
        # A group with terms in the even class only, and the zero polynomial, which has terms in
        # none: keys of classes that no polynomial of a group has, and single products of
        # polynomials that share no class.  The empty key list images every polynomial nowhere.
        monkeypatch.setattr(measures, "_TABLES", {})
        rng = random.Random(2015)
        degree_groups = [(9, 8, 7), (3, 2), (1, 0)]
        for dim in (2, 3, 4, 5):
            groups = [[_tall_poly(rng, dim, n, 6) for n in degrees] for degrees in degree_groups]
            groups[1].append(MultiPoly.zero(dim))
            even = {(2,) + (0,) * (dim - 1): Q(1, 3), (0,) * dim: Q(-5, 7)}
            groups.append([MultiPoly(dim, even), MultiPoly.zero(dim)])
            if not high_first:
                groups.reverse()
            # Every monomial through degree 2 and one monomial x^v in every parity class v.
            monomials = [MultiPoly(dim, {e: 1}) for e in exps_upto(dim, 2)]
            monomials += [MultiPoly(dim, {v: 1}) for v in product((0, 1), repeat=dim) if sum(v) > 2]
            assert len({b & _parity_mask(dim) for x in monomials for b in x.nums}) == 2 ** dim
            for mu in self.MUS:
                for lam in (Q(0), self.LAM):
                    moment = cache(lambda e: gamma_ball_moment(e, mu) + lam * gamma_sphere_moment(e))
                    for polys in groups:
                        rows = [[termwise_inner(f, g, moment) for g in polys] for f in polys]
                        assert mass_gram(polys, mu, lam) == gram_map(rows)
                        keys = set().union(*(f.nums for f in polys), *(x.nums for x in monomials))
                        den, images = moment_images(polys, keys, mu, lam)
                        assert moment_images(polys, [], mu, lam)[1] == [{} for _ in polys]
                        for i, (f, image) in enumerate(zip(polys, images)):
                            assert image.keys() == keys
                            for j, g in enumerate(polys):
                                dot = sum(c * image[b] for b, c in g.nums.items())
                                assert Q(dot, f.den * g.den * den) == rows[i][j]
                                assert inner_mass(f, g, mu, lam) == rows[i][j]
                            for x in monomials:
                                (b,) = x.nums
                                expect = termwise_inner(f, x, moment)
                                assert Q(image[b], f.den * den) == expect
                                assert inner_mass(f, x, mu, lam) == inner_mass(x, f, mu, lam) == expect

    def test_gram_kernel_entries(self):
        # Mixed parities and different denominators, two polynomials with disjoint supports
        # (one polynomial's terms split between them) and the zero polynomial; every prefix
        # of that list, the empty one too.  A polynomial with two terms in every parity class
        # and each of its halves (one term per class) put members with different denominators
        # into every class block.
        rng = random.Random(12)
        for dim in (2, 3, 4, 5):
            f, g, whole = (_tall_poly(rng, dim, 5, 7) for _ in range(3))
            terms = sorted(whole.terms.items())
            left, right = MultiPoly(dim, dict(terms[::2])), MultiPoly(dim, dict(terms[1::2]))
            low, high = _parity_cover(rng, dim)
            cover = low + high
            assert len({b & _parity_mask(dim) for b in cover.nums}) == 2 ** dim
            assert len({cover.den, low.den, high.den}) == 3
            polys = [f, left, MultiPoly.zero(dim), cover, right, low, g, high]
            grams = [(lambda n: sphere_gram(polys[:n]), gamma_sphere_moment)]
            for mu in (Q(-1, 4), Q(1, 2), Q(5, 2)):
                for lam in (Q(0), self.LAM):
                    grams.append((
                        lambda n, mu=mu, lam=lam: mass_gram(polys[:n], mu, lam),
                        lambda e, mu=mu, lam=lam: (
                            gamma_ball_moment(e, mu) + lam * gamma_sphere_moment(e)),
                    ))
            for gram, moment in grams:
                moment = cache(moment)
                expect = [[termwise_inner(a, b, moment) for b in polys] for a in polys]
                for n in range(len(polys) + 1):
                    assert gram(n) == gram_map([row[:n] for row in expect[:n]])

    def test_grams_hold_only_nonzero_entries_on_or_above_the_diagonal(self):
        # Every Gram function returns a map whose values are all nonzero and whose keys (i, j)
        # all have i <= j < n.  The zero polynomial and a pair of opposite parities put zeros
        # on and above the diagonal, and a member against itself is never below it.
        rng = random.Random(37)
        for dim in (2, 3):
            polys = [_tall_poly(rng, dim, 4, 5), MultiPoly.zero(dim), MultiPoly.variable(dim, 0),
                     MultiPoly.constant(dim, Q(2, 3)), _tall_poly(rng, dim, 3, 4)]
            radial = [UniPoly([Q(1, 2)]), UniPoly.zero(), UniPoly([Q(-1, 3), 1]), UniPoly([0, 0, 5])]
            grams = [(sphere_gram(polys), polys), (mass_gram(polys, Q(3, 4), self.LAM), polys),
                     (mass_gram(polys, Q(-1, 4)), polys),
                     (gram_jacobi_mass(radial, Q(1, 4), Q(dim - 2, 2), self.LAM, dim), radial)]
            for gram, members in grams:
                assert all(isinstance(v, Q) and v != 0 for v in gram.values())
                assert all(0 <= i <= j < len(members) for i, j in gram)
                assert (1, 1) not in gram and (0, 0) in gram

    def test_images_validate_their_functional(self):
        f = MultiPoly.variable(2, 0)
        assert moment_images([], [], Q(1, 2)) == (1, [])
        with pytest.raises(ValueError):
            moment_images([f], f.nums, Q(-1, 2))
        with pytest.raises(ValueError):
            moment_images([f], f.nums, Q(1, 2), Q(-1, 3))
        with pytest.raises(ValueError):
            moment_images([f, MultiPoly.variable(3, 0)], f.nums, Q(1, 2))
        assert mass_gram([], Q(1, 2)) == sphere_gram([]) == {}
        with pytest.raises(ValueError):
            mass_gram([f], Q(-1, 2))
        with pytest.raises(ValueError):
            mass_gram([f], Q(1, 2), Q(-1, 3))
        for gram in (lambda ps: mass_gram(ps, Q(1, 2)), sphere_gram):
            with pytest.raises(ValueError):
                gram([f, MultiPoly.variable(3, 0)])

    def test_dimension_mismatch_raises(self):
        f, g = MultiPoly.constant(2, 1), MultiPoly.variable(3, 0)
        for inner, _ in self.products(Q(1, 2)):
            with pytest.raises(ValueError):
                inner(f, g)
            with pytest.raises(ValueError):
                inner(g, f)
