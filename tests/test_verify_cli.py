import json
import random
import subprocess
import sys
from fractions import Fraction as Q
from functools import cache
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from orthoball import MultiPoly, ball_suites, bases, harmonics, jacobi, measures, operators, verify
from orthoball.bases import classical_basis
from orthoball.cli import main
from orthoball.verify import (
    STATUS_FAIL,
    STATUS_MATCH,
    STATUS_SKIP,
    STATUS_ZERO,
    SUITE_NAMES,
    SuiteConfig,
    report_lines,
    run_suites,
    summarize,
)

SMALL = dict(dim=2, mu=Q(1, 2), lam=Q(1, 4), max_degree=2)


def _class_rows(polys):
    """Each polynomial's numerators in each parity class it has terms in, one tuple per pair:
    the rows that the Gram kernel images, one image each."""
    low = measures._low_bits(polys[0].dim)
    return [tuple(c for b, c in p.nums.items() if b & low == parity)
            for p in polys for parity in {b & low for b in p.nums}]


def _imaged_rows(images):
    """The rows that one call of the image kernel imaged, from its result: one tuple of
    numerators per polynomial and parity class it has terms in."""
    return [tuple(nums) for rows in images.values() for _, nums, _, _ in rows]


def strip_timing(lines):
    out = []
    for line in lines:
        rec = json.loads(line)
        rec.pop("elapsed_ms", None)
        out.append(rec)
    return out


class TestSuiteConfig:
    def test_mass_derived_from_lambda(self):
        cfg = SuiteConfig(dim=2, lam=Q(1, 4))
        assert cfg.mass == 4

    def test_lambda_derived_from_mass(self):
        cfg = SuiteConfig(dim=3, mass=Q(3, 2))
        assert cfg.lam == 1

    def test_both_given_rejected(self):
        with pytest.raises(ValueError):
            SuiteConfig(dim=2, lam=Q(1, 4), mass=Q(2))

    def test_all_expands(self):
        cfg = SuiteConfig(suites=("all",))
        assert cfg.suites == SUITE_NAMES

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            SuiteConfig(suites=("spectra",))


class TestRunSuites:
    def test_everything_passes(self):
        cfg = SuiteConfig(suites=("all",), **SMALL)
        records = run_suites(cfg)
        assert records
        assert all(r.status != STATUS_FAIL for r in records)
        assert not any(r.status == STATUS_SKIP for r in records)
        summary = summarize(cfg, records)
        assert summary["status"] == "pass"
        assert summary["counts"]["total"] == len(records)

    def test_every_record_well_formed(self):
        cfg = SuiteConfig(suites=("jacobi", "moments"), **SMALL)
        for line in report_lines(cfg, run_suites(cfg))[:-1]:
            rec = json.loads(line)
            assert rec["type"] == "check"
            assert rec["suite"] in SUITE_NAMES
            assert rec["identity"]
            assert rec["statement"]
            assert rec["status"] in ("exact-zero", "exact-match")
            assert rec["witness"] is None

    def test_corrupted_eigenvalue_fails_with_witness(self):
        cfg = SuiteConfig(suites=("fourth-order",), corrupt_eigenvalue=True, **SMALL)
        records = run_suites(cfg)
        failures = [r for r in records if r.status == STATUS_FAIL]
        assert failures
        assert all(f.witness for f in failures)

    def test_connection_radial_visits_every_radial_index(self, monkeypatch):
        real, visited = operators.radial_connection_residuals, []

        def counting(n, k, dim, mass):
            visited.append((n, k))
            return real(n, k, dim, mass)

        monkeypatch.setattr(operators, "radial_connection_residuals", counting)
        cfg = SuiteConfig(suites=("connection",), **dict(SMALL, max_degree=5))
        records = run_suites(cfg)
        assert records and all(r.status != STATUS_FAIL for r in records)
        assert visited == [(n, k) for n in range(6) for k in range(6) if 2 * k <= n]

    def test_exps_upto_yields_every_exponent_through_the_total(self):
        for d in (1, 2, 3, 5):
            for total in range(7):
                exps = list(ball_suites._exps_upto(d, total))
                assert len(exps) == len(set(exps)) == comb(total + d, d)
                assert all(len(e) == d and sum(e) <= total for e in exps)

    def test_random_homogeneous_matches_the_public_constructor(self):
        # The same draws from the same seed, one denominator and then one numerator per
        # monomial, and a polynomial equal to the one that the public constructor builds from
        # them, zero draws dropped and the common factor divided out.
        dens = set()
        for d in (1, 2, 3, 5):
            for m in range(6):
                rng, twin = random.Random(f"7:{d}:{m}"), random.Random(f"7:{d}:{m}")
                for _ in range(4):
                    got = ball_suites._random_homogeneous(rng, d, m)
                    den, monos = twin.randint(2, 6), harmonics._monomials(d, m)
                    want = MultiPoly(d, {e: Q(twin.randint(-4, 4), den) for e in monos})
                    assert got == want and got.den == want.den and got.nums == want.nums
                    dens.add(got.den)
                assert rng.random() == twin.random()
        # Every denominator from 1 (all draws share the drawn one's factors) to 6 occurs.
        assert dens == set(range(1, 7))

    def test_product_positivity_fails_on_a_zero_norm(self, monkeypatch):
        real = measures.inner_mass
        mono = MultiPoly(2, {(1, 1): 1})

        def inner(f, g, *args, **kwargs):
            return Q(0) if f == g == mono else real(f, g, *args, **kwargs)

        monkeypatch.setattr(measures, "inner_mass", inner)
        records = run_suites(SuiteConfig(suites=("moments",), **SMALL))
        assert [r.identity for r in records if r.status == STATUS_FAIL] == ["product-positivity"]

    def test_mass_suites_pass_at_fractional_mu(self):
        # The point-mass construction holds at every mu > -1/2, so neither suite skips.
        cfg = SuiteConfig(dim=2, mu=Q(3, 4), lam=Q(1, 4), max_degree=2,
                          suites=("krall1d", "lambda-orthogonality"))
        records = run_suites(cfg)
        assert {r.suite for r in records} == {"krall1d", "lambda-orthogonality"}
        assert all(r.status in (STATUS_ZERO, STATUS_MATCH) for r in records)

    def test_fourth_order_skips_away_from_half(self):
        cfg = SuiteConfig(dim=2, mu=Q(5, 2), lam=Q(1, 4), max_degree=2,
                          suites=("fourth-order", "connection"))
        records = run_suites(cfg)
        assert records and all(r.status == STATUS_SKIP for r in records)

    def test_lambda_orthogonality_computes_each_pair_once(self, monkeypatch):
        real_images, real_gram = measures._images, measures.mass_gram
        real_inner, real_inner_mass = measures._inner, measures.inner_mass
        imaged, kernel_calls, inner_in_gram, in_gram, grams = [], [], [], [], []

        def images(*args):
            out = real_images(*args)
            if in_gram:
                kernel_calls.append(args)
                imaged.extend(_imaged_rows(out))
            return out

        def inner(*args, **kwargs):
            if in_gram:
                inner_in_gram.append(args)
            return real_inner(*args, **kwargs)

        def inner_mass(*args, **kwargs):
            if in_gram:
                inner_in_gram.append(args)
            return real_inner_mass(*args, **kwargs)

        def gram(polys, *args, **kwargs):
            grams.append(list(polys))
            in_gram.append(True)
            try:
                return real_gram(grams[-1], *args, **kwargs)
            finally:
                in_gram.pop()

        monkeypatch.setattr(measures, "_images", images)
        monkeypatch.setattr(measures, "_inner", inner)
        monkeypatch.setattr(measures, "inner_mass", inner_mass)
        monkeypatch.setattr(measures, "mass_gram", gram)
        records = run_suites(SuiteConfig(suites=("lambda-orthogonality",), **SMALL))
        assert all(r.status != STATUS_FAIL for r in records)
        # N = 6 elements through degree 2 in d = 2, each with terms in one parity class: one
        # Gram matrix, one call of the image kernel, images each element once per class it has
        # terms in and makes no pairwise product.
        assert len(grams) == 1 and len(grams[0]) == 6
        assert len(kernel_calls) == 1
        assert sorted(imaged) == sorted(_class_rows(grams[0]))
        assert len(imaged) == 6
        assert inner_in_gram == []

    def test_product_factorization_reads_the_harmonic_blocks_only(self, monkeypatch):
        real_inner, real_witness = jacobi.inner_jacobi_mass, verify._witness
        calls, items, reads = [], [], []

        def inner(*args, **kwargs):
            calls.append(args)
            return real_inner(*args, **kwargs)

        def witness(kind, values):
            items.append(values)
            return real_witness(kind, values)

        monkeypatch.setattr(jacobi, "inner_jacobi_mass", inner)
        monkeypatch.setattr(verify, "_witness", witness)
        # The verifier reads the clock when it resumes a suite and after a check's last item,
        # so what happens between a check's two reads is that check's work.
        monkeypatch.setattr(verify.time, "perf_counter",
                            lambda: reads.append((len(calls), len(items))) or 0.0)
        records = run_suites(SuiteConfig(suites=("lambda-orthogonality",), **SMALL))
        assert records and all(r.status != STATUS_FAIL for r in records)
        assert len(reads) == 2 * len(records) + 1  # the last read finds the suite done
        (i,) = [i for i, r in enumerate(records) if r.identity == "mass-product-factorization"]
        (calls_before, items_before), (calls_after, items_after) = reads[2 * i:2 * i + 2]
        # N = 6 elements through degree 2 in d = 2 in five harmonic blocks: (m, nu) = (0, 0)
        # holds degrees 0 and 2, so 3 pairs, and the other four one element each. Entries
        # across blocks are mass-gram-offdiagonal's.
        assert items_after - items_before == 7
        assert calls_after - calls_before == items_after - items_before

    def test_harmonics_make_no_pairwise_sphere_product(self, monkeypatch):
        real_images, real_table = measures._images, measures._moment_table
        real_inner, real_moment = measures._inner, measures._moment
        imaged, tables, products, reads = [], [], [], []

        def images(*args):
            out = real_images(*args)
            imaged.extend(_imaged_rows(out))
            return out

        def table(*args):
            tables.append(args)
            return real_table(*args)

        def inner(*args):
            products.append(args)
            return real_inner(*args)

        def moment(*args):
            products.append(args)
            return real_moment(*args)

        monkeypatch.setattr(measures, "_images", images)
        monkeypatch.setattr(measures, "_moment_table", table)
        monkeypatch.setattr(measures, "_inner", inner)
        monkeypatch.setattr(measures, "_moment", moment)
        monkeypatch.setattr(measures, "inner_sphere", lambda *args: products.append(args))
        # A cleared cache: every basis is built inside the run.
        build = cache(harmonics.harmonic_basis.__wrapped__)
        monkeypatch.setattr(harmonics, "harmonic_basis", build)

        # The build runs under the Fischer product and reads no sphere moment.
        basis = harmonics.harmonic_basis(4, 4)
        assert len(basis.elements) == harmonics.harmonic_space_dim(4, 4)
        assert imaged == [] and tables == []
        # The verifier reads the clock when it resumes a suite and after a check's last item,
        # so the images between a check's two reads are that check's work.
        monkeypatch.setattr(verify.time, "perf_counter",
                            lambda: reads.append((len(imaged), len(tables))) or 0.0)
        cfg = SuiteConfig(suites=("harmonics",), **dict(SMALL, dim=3, max_degree=4))
        records = run_suites(cfg)
        assert records and all(r.status != STATUS_FAIL for r in records)
        assert products == []
        assert len(reads) == 2 * len(records) + 1  # the last read finds the suite done
        per_check = [(r.identity, r.params["degree"], imaged[reads[2 * i][0]:reads[2 * i + 1][0]],
                      reads[2 * i + 1][1] - reads[2 * i][1]) for i, r in enumerate(records)]
        # Degree m: the build, inside the first check, images nothing; the one sphere Gram that
        # the orthogonality check reads images each element once per parity class it has terms
        # in, one class for a harmonic, from one moment table.
        for m in range(cfg.max_degree + 1):
            elements = harmonics.harmonic_basis(3, m).elements
            work = {identity: (sorted(ims), n_tables)
                    for identity, degree, ims, n_tables in per_check if degree == m}
            rows = sorted(_class_rows(elements))
            assert len(rows) == len(elements)
            assert work.pop("harmonic-sphere-orthogonality") == (rows, 1)
            assert all(w == ([], 0) for w in work.values())

    def test_lower_degree_images_each_element_once_per_class(self, monkeypatch):
        real_images, real_table = measures._images, measures._moment_table
        imaged, tables, reads = [], [], []

        def images(*args):
            out = real_images(*args)
            imaged.extend(_imaged_rows(out))
            return out

        def table(*args):
            tables.append(args)
            return real_table(*args)

        monkeypatch.setattr(measures, "_images", images)
        monkeypatch.setattr(measures, "_moment_table", table)
        # The verifier reads the clock when it resumes a suite and after a check's last item,
        # so the images between a check's two reads are that check's work.
        monkeypatch.setattr(verify.time, "perf_counter",
                            lambda: reads.append((len(imaged), len(tables))) or 0.0)
        cfg = SuiteConfig(suites=("classical-orthogonality",), **dict(SMALL, dim=3, max_degree=4))
        records = run_suites(cfg)
        assert records and all(r.status != STATUS_FAIL for r in records)
        assert len(reads) == 2 * len(records) + 1  # the last read finds the suite done
        work = {r.identity: (sorted(imaged[reads[2 * i][0]:reads[2 * i + 1][0]]),
                             reads[2 * i + 1][1] - reads[2 * i][1]) for i, r in enumerate(records)}
        # Each degree n >= 1 images its elements once per parity class they have terms in, from
        # one table read, over the lower-degree monomials; the Gram images every element once
        # per class from one table, and no other check images anything.
        by_degree = [[el.poly for el in classical_basis(n, 3, cfg.mu)] for n in range(5)]
        lower = [row for polys in by_degree[1:] for row in _class_rows(polys)]
        assert len(lower) == sum(map(len, by_degree[1:]))
        assert work.pop("classical-lower-degree") == (sorted(lower), cfg.max_degree)
        whole = [row for polys in by_degree for row in _class_rows(polys)]
        assert work.pop("classical-gram-offdiagonal") == (sorted(whole), 1)
        assert all(w == ([], 0) for w in work.values())

    def test_basis_builds_make_no_ball_product(self, monkeypatch):
        real_inner, real_moment = measures._inner, measures._moment
        products = []

        def inner(*args):
            products.append(args)
            return real_inner(*args)

        def moment(*args):
            products.append(args)
            return real_moment(*args)

        monkeypatch.setattr(measures, "_inner", inner)
        monkeypatch.setattr(measures, "_moment", moment)
        # Cleared caches: every basis is built inside the test.
        for name in ("_classical_basis", "_mass_basis"):
            monkeypatch.setattr(bases, name, cache(getattr(bases, name).__wrapped__))
        classical = [el for n in range(5) for el in bases.classical_basis(n, 3, Q(1, 2))]
        mass = [el for n in range(5) for el in bases.mass_basis(n, 3, Q(1, 2), Q(1, 4))]
        # 35 elements of each kind through degree 4 in d = 3, each norm from the product form.
        assert len(classical) == len(mass) == 35
        assert products == []

    def test_one_build_per_basis_and_degree_per_run(self, monkeypatch):
        builds, grams = [], []

        def counted(calls, key, fn):
            def counting(*args):
                calls.append((key, args))
                return fn(*args)
            return counting

        # A fresh cache in front of each build: a cleared cache that sees every build.
        harmonic = cache(counted(builds, "harmonic", harmonics.harmonic_basis.__wrapped__))
        monkeypatch.setattr(harmonics, "harmonic_basis", harmonic)
        monkeypatch.setattr(bases, "harmonic_basis", harmonic)
        for kind in ("classical", "mass"):
            build = getattr(bases, f"_{kind}_basis").__wrapped__
            monkeypatch.setattr(bases, f"_{kind}_basis", cache(counted(builds, kind, build)))
        for module, name in [(measures, "mass_gram"), (measures, "sphere_gram"),
                             (jacobi, "gram_jacobi_mass")]:
            monkeypatch.setattr(module, name, counted(grams, name, getattr(module, name)))
        cfg = SuiteConfig(dim=3, max_degree=4)
        records = run_suites(cfg)
        assert records and all(r.status in (STATUS_ZERO, STATUS_MATCH) for r in records)
        # Every suite runs at mu = 1/2 and one lambda, so each basis is built once per degree.
        half, degrees = Q(1, 2), range(cfg.max_degree + 1)
        assert sorted(builds) == sorted(
            [("harmonic", (3, m)) for m in degrees]
            + [("classical", (n, 3, half)) for n in degrees]
            + [("mass", (n, 3, half, cfg.lam)) for n in degrees]
        )
        assert len(builds) == 15
        # One Gram matrix per basis, one sphere Gram per harmonic degree, one radial Gram per beta.
        assert len(verify._beta_values(cfg)) == 5
        assert sorted(name for name, _ in grams) == sorted(
            ["mass_gram"] * 2 + ["sphere_gram"] * 5 + ["gram_jacobi_mass"] * 5
        )

    def test_krall1d_reads_one_gram_and_one_elimination_per_beta(self, monkeypatch):
        real_gram, real_inner = jacobi._gram, jacobi.inner_jacobi_mass
        real_elimination = jacobi.gram_schmidt_jacobi_mass
        grams, eliminations, products = [], [], []

        def gram(fs, key, scale=1, lam=0):
            grams.append((Q(key[2], key[0]), [f.canonical() for f in fs], lam))
            return real_gram(fs, key, scale, lam)

        def elimination(size, *args):
            eliminations.append(size)
            return real_elimination(size, *args)

        def inner(*args):
            products.append(args)
            return real_inner(*args)

        # krall1d reads every radial product from _gram, and no single inner_jacobi_mass call.
        monkeypatch.setattr(jacobi, "_gram", gram)
        monkeypatch.setattr(jacobi, "gram_schmidt_jacobi_mass", elimination)
        monkeypatch.setattr(jacobi, "inner_jacobi_mass", inner)
        cfg = SuiteConfig(suites=("krall1d",), **dict(SMALL, max_degree=4))
        records = run_suites(cfg)
        assert records and all(r.status != STATUS_FAIL for r in records)
        betas = verify._beta_values(cfg)
        assert len(betas) > 1
        assert products == []
        # K = 5 per beta: one symmetric Gram matrix of q_0..q_4, which images each of them
        # once, and one Gram-Schmidt of the monomials 1, t, ..., t^4.
        assert [beta for beta, _, _ in grams] == betas
        for beta, polys, lam in grams:
            qs = [jacobi.mass_orthogonal_poly(k, Q(0), beta, cfg.lam, cfg.dim) for k in range(5)]
            assert polys == [q.canonical() for q in qs]
            assert lam == cfg.lam
        assert eliminations == [5] * len(betas)

    def test_connection_forward_times_its_own_residuals(self, monkeypatch):
        clock = [0.0]
        monkeypatch.setattr(verify.time, "perf_counter", lambda: clock[0])
        real = operators.ball_connection_op

        def slow(p, mass):
            clock[0] += 1.0
            return real(p, mass)

        monkeypatch.setattr(operators, "ball_connection_op", slow)
        records = run_suites(SuiteConfig(suites=("connection",), **SMALL))
        forward = [r for r in records if r.identity == "connection-forward"]
        assert [r.params["n"] for r in forward] == list(range(SMALL["max_degree"] + 1))
        for r in forward:
            assert r.status == STATUS_ZERO
            # One connection per degree-n element, each charged to this check alone.
            assert r.elapsed_ms == 1000.0 * len(classical_basis(r.params["n"], 2, Q(1, 2)))
        backward = [r for r in records if r.identity == "connection-backward"]
        assert backward and all(r.elapsed_ms == 0.0 for r in backward)

    def test_negative_control_times_its_own_residual(self, monkeypatch):
        clock = [0.0]
        monkeypatch.setattr(verify.time, "perf_counter", lambda: clock[0])
        real = operators.fourth_order_op

        def slow(p, mass):
            clock[0] += 1.0
            return real(p, mass)

        monkeypatch.setattr(operators, "fourth_order_op", slow)
        records = run_suites(SuiteConfig(suites=("fourth-order",), **SMALL))
        (control,) = [r for r in records if r.identity == "fourth-order-negative-control"]
        assert control.status == STATUS_MATCH
        assert control.elapsed_ms == 1000.0
        assert control.params["control"] == "1 + x1"
        assert control.params["residual"] == "-4/1 * x1^0*x2^0"

    def test_deterministic_given_config(self):
        cfg1 = SuiteConfig(suites=("all",), seed=3, **SMALL)
        cfg2 = SuiteConfig(suites=("all",), seed=3, **SMALL)
        lines1 = strip_timing(report_lines(cfg1, run_suites(cfg1)))
        lines2 = strip_timing(report_lines(cfg2, run_suites(cfg2)))
        assert lines1 == lines2

    def test_json_roundtrip(self):
        cfg = SuiteConfig(suites=("harmonics",), **SMALL)
        for line in report_lines(cfg, run_suites(cfg)):
            assert json.dumps(json.loads(line), sort_keys=True) == line


GOLDEN = Path(__file__).parent / "golden"


class TestGoldenReports:
    """Reports must stay byte-identical apart from ``elapsed_ms``, summary included.

    Each golden report is the CLI report for its argv with ``elapsed_ms``
    removed from every record, one ``json.dumps(record, sort_keys=True)`` per
    line.  The golden export is the CLI's export text as written.
    """

    @pytest.mark.parametrize("name, extra", [
        ("report_d2_deg2.jsonl", []),
        ("report_d2_deg2_mu3-4.jsonl", ["--mu", "3/4"]),  # covers the skip records
    ])
    def test_report_matches_golden(self, tmp_path, name, extra):
        out = tmp_path / "report.jsonl"
        argv = ["--dim", "2", "--max-degree", "2", "--suites", "all", "--out", str(out)]
        assert main(argv + extra) == 0
        got = [json.dumps(rec, sort_keys=True)
               for rec in strip_timing(out.read_text().strip().split("\n"))]
        assert got == (GOLDEN / name).read_text().strip().split("\n")

    def test_export_matches_golden(self, tmp_path):
        # Pins every sq_norm and harmonic_sq_norm of a degree-5 mass basis byte for byte.
        out = tmp_path / "export.json"
        assert main(["--dim", "3", "--mu", "1/2", "--export-basis", "5,lambda",
                     "--lambda", "3/7", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "export_d3_deg5_lambda.json").read_bytes()


class TestCli:
    def test_exit_zero_and_report(self, tmp_path):
        out = tmp_path / "report.jsonl"
        code = main([
            "--dim", "2", "--mu", "1/2", "--lambda", "1/4",
            "--max-degree", "2", "--suites", "all", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert json.loads(lines[-1])["status"] == "pass"

    def test_exit_one_on_corruption(self, tmp_path):
        out = tmp_path / "report.jsonl"
        code = main([
            "--dim", "2", "--max-degree", "2", "--suites", "fourth-order",
            "--corrupt-eigenvalue", "--out", str(out),
        ])
        assert code == 1
        records = [json.loads(line) for line in out.read_text().strip().split("\n")]
        assert any(r.get("status") == "FAIL" and r.get("witness") for r in records)

    @pytest.mark.parametrize("gram_name, suites, identities", [
        ("sphere_gram", "harmonics", ["harmonic-sphere-orthogonality"]),
        ("mass_gram", "classical-orthogonality,lambda-orthogonality",
         ["classical-gram-offdiagonal", "mass-gram-offdiagonal"]),
    ])
    def test_gram_scan_reports_the_row_major_first_entry(self, monkeypatch, tmp_path,
                                                          gram_name, suites, identities):
        real, planted = getattr(measures, gram_name), []

        def gram(polys, *args):
            entries = real(polys, *args)
            if len(entries) >= 4:
                # (1, 2) comes first by column and by distance from the diagonal, (0, 3) by row.
                for (i, j), value in [((1, 2), Q(5, 7)), ((0, 3), Q(-2, 3))]:
                    entries[i][j] = entries[j][i] = value
                planted.append(entries)
            return entries

        monkeypatch.setattr(measures, gram_name, gram)
        out = tmp_path / "report.jsonl"
        assert main(["--dim", "3", "--max-degree", "2", "--suites", suites, "--out", str(out)]) == 1
        failed = {r["identity"]: r for r in map(json.loads, out.read_text().splitlines())
                  if r.get("status") == STATUS_FAIL}
        cfg = SuiteConfig(dim=3, max_degree=2)
        elements = {
            "classical-gram-offdiagonal": ball_suites._elements(cfg, bases.classical_basis, cfg.mu),
            "mass-gram-offdiagonal": ball_suites._elements(cfg, bases.mass_basis, cfg.mu, cfg.lam),
        }
        assert len(planted) == len(identities)
        for identity, entries in zip(identities, planted):
            # The item-wise scan: the first nonzero entry above the diagonal, in row-major order.
            i, j = next((i, j) for i, j in combinations(range(len(entries)), 2) if entries[i][j])
            assert (i, j) == (0, 3)
            els = elements.get(identity)
            tag = [i, j] if els is None else [*ball_suites._key(els[i]), *ball_suites._key(els[j])]
            assert failed[identity]["params"]["first_failure"] == tag
            assert failed[identity]["witness"] == "-2/3"

    def test_exit_two_on_bad_config(self, capsys):
        assert main(["--lambda", "1/4", "--M", "2"]) == 2
        assert main(["--dim", "1"]) == 2
        assert main(["--suites", "nonsense"]) == 2
        # An empty suite list would run zero checks: never a passing report.
        assert main(["--suites", ","]) == 2
        assert main(["--suites", ""]) == 2
        # Neither would a run where every selected suite is skipped.
        assert main(["--suites", "fourth-order", "--mu", "1/3"]) == 2
        assert main(["--suites", "connection", "--mu", "3/2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().split("\n")
        assert len(err) == 7
        assert all(line.startswith("configuration error") for line in err)

    @pytest.mark.parametrize("module, name, argv", [
        (measures, "mass_gram", ["--dim", "2", "--max-degree", "2", "--suites", "classical-orthogonality"]),
        (bases, "basis_export_text", ["--dim", "2", "--export-basis", "2,lambda"]),
    ])
    def test_internal_error_exits_three_with_no_report(self, monkeypatch, tmp_path, capsys,
                                                        module, name, argv):
        def broken(*args):
            raise ZeroDivisionError("planted")

        monkeypatch.setattr(module, name, broken)
        out = tmp_path / "report"
        # An exception is neither a failed check (1) nor a configuration error (2).
        assert main(argv + ["--out", str(out)]) == 3
        assert not out.exists()
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        tracebacks = captured.err.split("Traceback (most recent call last):")
        assert tracebacks[0] == "" and len(tracebacks) == 3
        assert all(t.rstrip().endswith("ZeroDivisionError: planted") for t in tracebacks[1:])

    @pytest.mark.parametrize("argv", [
        ["--dim", "x"],
        ["--export-basis", "-x,classical"],  # a value that looks like an option, not a number
        # The abbreviation of --lambda may read -1/4 as an option or as a
        # non-positive coupling; both are usage errors.
        ["--lam", "-1/4"],
    ])
    def test_usage_error_returns_two(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

    def test_negative_rationals_as_separate_tokens(self, tmp_path, capsys):
        out = tmp_path / "report.jsonl"
        assert main(["--mu", "-1/4", "--max-degree", "2", "--suites", "jacobi,moments",
                     "--out", str(out)]) == 0
        summary = json.loads(out.read_text().strip().split("\n")[-1])
        assert summary["config"]["mu"] == "-1/4"
        assert summary["counts"]["failed"] == 0
        assert main(["--lambda", "-1/4"]) == 2
        assert main(["--M", "-3/2"]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 2
        assert all(line.startswith("configuration error") for line in err)

    @pytest.mark.parametrize("kind", ["lambda", "classical"])
    def test_export_negative_degree_reaches_the_export(self, kind, capsys):
        assert main(["--dim", "2", "--export-basis", f"-1,{kind}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "export failed: degree must be non-negative, got -1\n"

    @pytest.mark.parametrize("extra", [["--suites", "spectra"], ["--max-degree", "-1"]])
    def test_export_reads_only_its_own_options(self, tmp_path, extra):
        # An export reads --dim, --mu, --lambda/--M, --export-basis and --out alone, so a
        # verifier option that would be a configuration error does not reach it.
        plain, with_extra = tmp_path / "plain.json", tmp_path / "extra.json"
        argv = ["--dim", "2", "--export-basis", "1,lambda"]
        assert main(argv + ["--out", str(plain)]) == 0
        assert main(argv + extra + ["--out", str(with_extra)]) == 0
        assert with_extra.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("argv, message", [
        (["--lambda", "1/4", "--M", "2"],
         "configuration error: give exactly one of the sphere coupling and the point mass"),
        (["--lambda", "0"], "configuration error: the sphere coupling must be positive, got 0"),
        (["--M", "-3/2"], "configuration error: mass must be positive, got -3/2"),
        (["--dim", "1"], "export failed: dimension must be at least 2, got 1"),
        (["--mu", "-1"], "export failed: mu must exceed -1/2 for an integrable weight, got -1"),
        (["--export-basis", "x,lambda"], "--export-basis expects 'N,kind', got 'x,lambda'"),
    ])
    def test_export_rejects_what_it_reads(self, argv, message, capsys):
        assert main(["--export-basis", "2,lambda"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"

    def test_max_degree_defaults_to_four(self, tmp_path):
        out = tmp_path / "report.jsonl"
        assert main(["--dim", "2", "--suites", "jacobi", "--out", str(out)]) == 0
        summary = json.loads(out.read_text().strip().split("\n")[-1])
        assert summary["config"]["max_degree"] == 4

    def test_exit_two_on_unwritable_out(self, tmp_path, capsys):
        missing = str(tmp_path / "missing" / "x")
        assert main(["--dim", "2", "--max-degree", "1", "--suites", "jacobi",
                     "--out", missing]) == 2
        assert main(["--dim", "2", "--export-basis", "1,lambda", "--out", missing]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 2
        assert all(line.startswith(f"cannot write {missing}") for line in err)

    def test_higher_mu_passes(self, tmp_path):
        out = tmp_path / "report.jsonl"
        assert main(["--dim", "2", "--mu", "5/2", "--max-degree", "4", "--out", str(out)]) == 0
        summary = json.loads(out.read_text().strip().split("\n")[-1])
        assert summary["status"] == "pass"
        assert summary["counts"]["failed"] == 0

    def test_export_basis(self, tmp_path):
        out1 = tmp_path / "basis1.json"
        out2 = tmp_path / "basis2.json"
        args = ["--dim", "2", "--mu", "1/2", "--lambda", "1/2",
                "--export-basis", "2,lambda"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        data = json.loads(out1.read_text())
        assert data["count"] == 3
        assert {el["eigenvalue"] for el in data["elements"]} == {"10/1", "18/1"}

    def test_export_records_eigenvalues_only_at_half(self, tmp_path):
        out = tmp_path / "basis.json"
        assert main(["--dim", "2", "--mu", "5/2", "--export-basis", "2,lambda", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["count"] == 3
        assert not any("eigenvalue" in el for el in data["elements"])

    def test_export_classical_degree_zero(self, capsys):
        assert main(["--dim", "2", "--export-basis", "0,classical"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["count"] == 1

    def test_export_at_fractional_mu(self, capsys):
        # A lambda export at mu = 3/4 is exact; away from mu = 1/2 it records no eigenvalue.
        assert main(["--dim", "2", "--mu", "3/4", "--export-basis", "2,lambda"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mu"] == "3/4" and data["count"] == 3
        assert not any("eigenvalue" in el for el in data["elements"])

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "orthoball.cli", "--dim", "2",
             "--max-degree", "1", "--suites", "jacobi"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip()
