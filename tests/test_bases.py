import json
from fractions import Fraction as Q
from math import comb

import pytest

from orthoball import (
    MultiPoly,
    basis_export,
    basis_export_text,
    beta_shift,
    classical_basis,
    find_element,
    fourth_order_eigenvalue,
    inner_ball,
    inner_jacobi_mass,
    inner_mass,
    mass_basis,
    mass_gram,
    mass_parameter,
    mass_orthogonal_poly,
    sphere_coupling,
    type_eigenvalue,
)
from orthoball import bases
from orthoball.harmonics import _monomials


def exps_upto(dim, total):
    for deg in range(total + 1):
        yield from _monomials(dim, deg)


class TestIndexing:
    def test_beta_shift(self):
        assert beta_shift(2, 1, 2) == 0
        assert beta_shift(3, 0, 3) == Q(7, 2)

    def test_mass_parameter_roundtrip(self):
        assert mass_parameter(2, Q(1, 2)) == 2
        assert sphere_coupling(3, Q(3, 2)) == 1
        for d in (2, 3, 4):
            for lam in (Q(1, 4), Q(1, 2), Q(2, 3)):
                assert sphere_coupling(d, mass_parameter(d, lam)) == lam

    def test_element_count(self):
        # Degrees of freedom at degree n: C(n+d-1, d-1), summed from the
        # harmonic layer dimensions.
        for d in (2, 3, 4):
            for n in range(9):
                count = sum(
                    comb(n - 2 * k + d - 1, d - 1)
                    - (comb(n - 2 * k + d - 3, d - 1) if n - 2 * k + d - 3 >= 0 else 0)
                    for k in range(n // 2 + 1)
                )
                assert count == comb(n + d - 1, d - 1)
        assert len(classical_basis(6, 3, Q(1, 2))) == comb(8, 2)

    def test_enumeration_order(self):
        els = classical_basis(4, 2, Q(1, 2))
        assert [(el.index.k, el.index.nu) for el in els] == [
            (0, 0), (0, 1), (1, 0), (1, 1), (2, 0),
        ]

    def test_find_element(self):
        els = classical_basis(4, 2, Q(1, 2))
        assert find_element(els, 2, 0) is els[-1]
        with pytest.raises(KeyError):
            find_element(els, 3, 0)


class TestClassicalBasis:
    def test_degree_zero(self):
        (el,) = classical_basis(0, 2, Q(1, 2))
        assert el.poly == MultiPoly.constant(2, 1)
        assert el.sq_norm == 1

    def test_degree_one(self):
        els = classical_basis(1, 2, Q(1, 2))
        assert {str(el.poly) for el in els} == {"x1", "x2"}

    def test_radial_element_degree_two(self):
        el = find_element(classical_basis(2, 2, Q(1, 2)), 1, 0)
        assert el.poly == MultiPoly(2, {(2, 0): 2, (0, 2): 2, (0, 0): -1})

    def test_total_degree_and_parity(self):
        for n in range(6):
            for el in classical_basis(n, 3, Q(1)):
                assert el.poly.total_degree() == n
                assert all((sum(e) - n) % 2 == 0 for e in el.poly.terms)

    def test_gram_diagonal(self):
        # Non-integer alpha = mu - 1/2 too: the norm factor c_m is rational for every mu.
        cases = [(2, Q(1, 2)), (2, Q(3, 2)), (3, Q(1)), (3, Q(1, 3)), (4, Q(-1, 4)), (2, Q(5, 2))]
        for d, mu in cases:
            els = [el for n in range(5) for el in classical_basis(n, d, mu)]
            gram = mass_gram([el.poly for el in els], mu)
            for i in range(len(els)):
                assert gram[i][i] > 0
                assert gram[i][i] == els[i].sq_norm
                for j in range(i + 1, len(els)):
                    assert gram[i][j] == 0

    def test_orthogonal_to_lower_degree_monomials(self):
        mu = Q(3, 2)
        for n in range(1, 5):
            for el in classical_basis(n, 2, mu):
                for e in exps_upto(2, n - 1):
                    assert inner_ball(el.poly, MultiPoly(2, {e: 1}), mu) == 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            classical_basis(2, 1, Q(1, 2))
        with pytest.raises(ValueError):
            classical_basis(2, 2, Q(-1, 2))


class TestMassBasis:
    def test_degree_zero_is_constant(self):
        (el,) = mass_basis(0, 2, Q(1, 2), Q(1, 2))
        assert el.poly.total_degree() == 0
        assert not el.poly.is_zero()

    def test_radial_element_example(self):
        # q_1 for beta=0, M=2 is 3t - 1, giving 6x1^2 + 6x2^2 - 4.
        el = find_element(mass_basis(2, 2, Q(1, 2), Q(1, 2)), 1, 0)
        assert el.poly == MultiPoly(2, {(2, 0): 6, (0, 2): 6, (0, 0): -4})

    def test_mutual_orthogonality_across_degrees(self):
        for d in (2, 3):
            for lam in (Q(1, 4), Q(1, 2)):
                els = [el for n in range(5) for el in mass_basis(n, d, Q(1, 2), lam)]
                gram = mass_gram([el.poly for el in els], Q(1, 2), lam)
                for i in range(len(els)):
                    assert els[i].sq_norm > 0
                    assert gram[i][i] == els[i].sq_norm
                    for j in range(i + 1, len(els)):
                        assert (
                            inner_mass(els[i].poly, els[j].poly, Q(1, 2), lam) == 0
                        )

    def test_higher_mu_exact_path(self):
        # mu = 3/2 keeps the construction exact and stays mutually orthogonal.
        els = [el for n in range(4) for el in mass_basis(n, 2, Q(3, 2), Q(1, 2))]
        for i in range(len(els)):
            for j in range(i + 1, len(els)):
                assert inner_mass(els[i].poly, els[j].poly, Q(3, 2), Q(1, 2)) == 0

    def test_wrong_product_not_diagonal(self):
        # Dropping the sphere term must break orthogonality somewhere:
        # the degree-2 radial element is not ball-orthogonal to the constant.
        q = find_element(mass_basis(2, 2, Q(1, 2), Q(1, 2)), 1, 0)
        const = mass_basis(0, 2, Q(1, 2), Q(1, 2))[0]
        assert inner_ball(q.poly, const.poly, Q(1, 2)) != 0
        assert inner_mass(q.poly, const.poly, Q(1, 2), Q(1, 2)) == 0

    def test_unsupported_mu_raises(self):
        # Every mu > -1/2 is exact on the ball, mu = 3/4 included; at mu <= -1/2 the
        # weight is not integrable and the basis is refused.
        assert len(mass_basis(2, 2, Q(3, 4), Q(1, 2))) == 3
        for mu in (Q(-1, 2), Q(-3, 4), Q(-1)):
            with pytest.raises(ValueError, match="mu must exceed -1/2"):
                mass_basis(2, 2, mu, Q(1, 2))

    def test_product_factorization(self):
        # The mass product of two elements collapses to the radial product times
        # the harmonic norm when the harmonic factors coincide, else zero.
        d, mu, lam = 2, Q(1, 2), Q(1, 4)
        els = [el for n in range(5) for el in mass_basis(n, d, mu, lam)]
        alpha = mu - Q(1, 2)
        for a in els:
            for b in els:
                lhs = inner_mass(a.poly, b.poly, mu, lam)
                same_harmonic = (
                    a.index.n - 2 * a.index.k == b.index.n - 2 * b.index.k
                    and a.index.nu == b.index.nu
                )
                if same_harmonic:
                    qa = mass_orthogonal_poly(a.index.k, alpha, a.index.beta_k, lam, d)
                    qb = mass_orthogonal_poly(b.index.k, alpha, b.index.beta_k, lam, d)
                    rhs = (
                        inner_jacobi_mass(qa, qb, alpha, a.index.beta_k, lam, d)
                        * a.harmonic_sq_norm
                    )
                else:
                    rhs = Q(0)
                assert lhs == rhs


class TestExport:
    def test_export_roundtrip_and_determinism(self):
        # At mu = 1/2 a lambda export records Lambda(n, k) of the fourth-order equation.
        for d, n, lam in ((2, 2, Q(1, 2)), (2, 5, Q(3, 7)), (3, 4, Q(1, 4)), (4, 3, Q(5, 2))):
            text = basis_export_text(n, d, Q(1, 2), lam, "lambda")
            assert text == basis_export_text(n, d, Q(1, 2), lam, "lambda")
            data = json.loads(text)
            assert data == basis_export(n, d, Q(1, 2), lam, "lambda")
            assert data["count"] == len(mass_basis(n, d, Q(1, 2), lam))
            M = mass_parameter(d, lam)
            for record in data["elements"]:
                expect = fourth_order_eigenvalue(record["n"], record["k"], d, M)
                assert record["eigenvalue"] == f"{expect.numerator}/{expect.denominator}"

    def test_export_reads_the_point_mass_once(self, monkeypatch):
        # M = d / (2 lam) is the same for every element, so the export computes it once.
        calls = []

        def counted(dim, lam):
            calls.append((dim, lam))
            return mass_parameter(dim, lam)

        monkeypatch.setattr(bases, "mass_parameter", counted)
        data = basis_export(4, 2, Q(1, 2), Q(1, 3), "lambda")
        assert data["count"] == 5
        assert all("eigenvalue" in record for record in data["elements"])
        assert calls == [(2, Q(1, 3))]

    def test_export_computes_one_eigenvalue_per_radial_index(self, monkeypatch):
        # Lambda(n, k) depends on an element only through k: the 21 elements of degree 5 in
        # d = 3 have three radial indices, so the export computes three eigenvalues.
        calls = []

        def counted(k, beta, mass):
            calls.append(k)
            return type_eigenvalue(k, beta, mass)

        monkeypatch.setattr(bases, "type_eigenvalue", counted)
        data = basis_export(5, 3, Q(1, 2), Q(1, 3), "lambda")
        assert data["count"] == 21
        assert all("eigenvalue" in record for record in data["elements"])
        assert sorted(calls) == [0, 1, 2]

    def test_export_eigenvalue_only_for_lambda_at_half(self):
        exports = [basis_export(n, d, mu, Q(1, 3), "classical")
                   for d, n, mu in ((2, 3, Q(1, 2)), (3, 2, Q(3, 2)), (2, 2, Q(1, 4)))]
        exports += [basis_export(n, d, Q(3, 2), Q(1, 3), "lambda") for d, n in ((2, 3), (3, 2))]
        for data in exports:
            assert data["count"] > 0
            assert all("eigenvalue" not in record for record in data["elements"])

    def test_export_classical_degree_zero(self):
        data = basis_export(0, 2, Q(1, 2), Q(1, 4), "classical")
        assert data["count"] == 1
        assert data["elements"][0]["poly"] == "1/1 * x1^0*x2^0"

    def test_export_bad_kind(self):
        with pytest.raises(ValueError):
            basis_export(1, 2, Q(1, 2), Q(1, 4), "gegenbauer")
