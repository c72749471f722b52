"""The package's record types and what importing the CLI loads.

The immutable records (``BasisIndex``, ``BallBasisElement``, ``HarmonicBasis``,
``CheckRecord``) are ``typing.NamedTuple``s and ``SuiteConfig`` is a plain class,
so ``import orthoball.cli`` loads neither ``dataclasses`` nor the ``inspect``,
``ast``, ``dis`` and ``tokenize`` modules it pulls in.  The tests below pin the
import and the record behaviour that callers read: field names and order,
equality, hashing, immutability, ``repr`` and ``SuiteConfig``'s normalization.
"""

import inspect
import os
import re
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from orthoball import BallBasisElement, BasisIndex, HarmonicBasis, classical_basis, harmonic_basis
from orthoball import verify
from orthoball.verify import CheckRecord, SuiteConfig, run_suites

SRC = Path(__file__).resolve().parent.parent / "src"

FIELDS = {
    BasisIndex: ("n", "k", "nu", "beta_k"),
    BallBasisElement: ("index", "poly", "sq_norm", "harmonic_sq_norm", "radial"),
    HarmonicBasis: ("dim", "degree", "elements", "sphere_norms"),
    CheckRecord: ("suite", "identity", "statement", "params", "status", "witness", "elapsed_ms"),
}


def test_cli_import_loads_no_dataclasses_or_inspect():
    # The baseline is taken in the same process, so whatever ``site`` preloads on this
    # Python is not counted as the package's.
    code = ("import sys; before = set(sys.modules); import orthoball.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    added = set(proc.stdout.split())
    assert "orthoball.cli" in added
    assert not added & {"dataclasses", "inspect"}


def _samples():
    el = classical_basis(2, 3, Q(1, 2))[1]
    return {
        BasisIndex: el.index,
        BallBasisElement: el,
        HarmonicBasis: harmonic_basis(3, 2),
        CheckRecord: CheckRecord("jacobi", "jacobi-ode", "s", {"n": 1}, "exact-zero", None, 0.5),
    }


def _values(cls, record) -> dict:
    return {name: getattr(record, name) for name in FIELDS[cls]}


class TestRecords:
    def test_field_names_and_order(self):
        for cls, fields in FIELDS.items():
            assert tuple(inspect.signature(cls).parameters) == fields

    def test_equal_fields_compare_equal(self):
        for cls, record in _samples().items():
            values = _values(cls, record)
            twin = cls(**values)
            assert twin == record and twin is not record
            assert cls(**dict(values, **{FIELDS[cls][0]: None})) != record

    def test_hash_follows_the_fields(self):
        index = BasisIndex(3, 1, 0, Q(5, 2))
        assert hash(index) == hash(BasisIndex(3, 1, 0, Q(5, 2)))
        assert {index: 1}[BasisIndex(3, 1, 0, Q(5, 2))] == 1
        # A record holding a polynomial or a dict is unhashable, as its fields are.
        for cls in (BallBasisElement, HarmonicBasis, CheckRecord):
            with pytest.raises(TypeError):
                hash(_samples()[cls])

    def test_records_are_immutable(self):
        for cls, record in _samples().items():
            with pytest.raises(AttributeError):
                setattr(record, FIELDS[cls][0], None)
            with pytest.raises(AttributeError):
                record.extra = 1

    def test_repr_names_each_field(self):
        assert repr(BasisIndex(3, 1, 0, Q(5, 2))) == "BasisIndex(n=3, k=1, nu=0, beta_k=Fraction(5, 2))"
        record = _samples()[CheckRecord]
        assert repr(record) == ("CheckRecord(suite='jacobi', identity='jacobi-ode', statement='s', "
                                "params={'n': 1}, status='exact-zero', witness=None, elapsed_ms=0.5)")

    def test_no_record_reaches_report_params(self, monkeypatch):
        # ``_fmt`` turns any tuple into a list, so a record in params would print as a bare
        # list of its fields.  It recurses through the module name, so this sees every value.
        fmt, seen = verify._fmt, []

        def checked(value):
            seen.append(value)
            assert not isinstance(value, tuple(FIELDS)), value
            return fmt(value)

        monkeypatch.setattr(verify, "_fmt", checked)
        run_suites(SuiteConfig(dim=2, max_degree=2, suites=("all",)))
        assert seen


SIGNATURE = [
    ("dim", 2), ("mu", Q(1, 2)), ("lam", None), ("mass", None), ("max_degree", 4),
    ("suites", ("all",)), ("seed", 0), ("corrupt_eigenvalue", False),
]


class TestSuiteConfig:
    def test_signature(self):
        params = inspect.signature(SuiteConfig).parameters.values()
        assert [(p.name, p.default) for p in params] == SIGNATURE

    @pytest.mark.parametrize("kwargs, want", [
        ({}, dict(dim=2, mu=Q(1, 2), lam=Q(1, 4), mass=Q(4), max_degree=4,
                  suites=verify.SUITE_NAMES, seed=0, corrupt_eigenvalue=False)),
        (dict(dim=3, mu="5/2", lam="2/5", max_degree=6, suites=["krall1d", "jacobi", "krall1d"],
              seed=7, corrupt_eigenvalue=True),
         dict(dim=3, mu=Q(5, 2), lam=Q(2, 5), mass=Q(15, 4), max_degree=6,
              suites=("krall1d", "jacobi"), seed=7, corrupt_eigenvalue=True)),
        (dict(dim=4, mu=Q(-1, 4), mass="3/2", suites=("moments", "all")),
         dict(dim=4, mu=Q(-1, 4), lam=Q(4, 3), mass=Q(3, 2), max_degree=4,
              suites=("moments",) + tuple(n for n in verify.SUITE_NAMES if n != "moments"),
              seed=0, corrupt_eigenvalue=False)),
        (dict(dim=2, lam=1, max_degree=0), dict(dim=2, mu=Q(1, 2), lam=Q(1), mass=Q(1),
                                              max_degree=0, suites=verify.SUITE_NAMES, seed=0,
                                              corrupt_eigenvalue=False)),
    ])
    def test_normalization(self, kwargs, want):
        cfg = SuiteConfig(**kwargs)
        assert {name: getattr(cfg, name) for name in want} == want
        for name in ("mu", "lam", "mass"):
            assert type(getattr(cfg, name)) is Q

    @pytest.mark.parametrize("kwargs, message", [
        (dict(dim=1), "dim must be at least 2, got 1"),
        (dict(max_degree=-1), "max_degree must be non-negative, got -1"),
        (dict(lam=Q(1, 4), mass=Q(2)), "give exactly one of the sphere coupling and the point mass"),
        (dict(lam=0), "the sphere coupling must be positive, got 0"),
        (dict(mass=-1), "mass must be positive, got -1"),
        (dict(suites=("spectra",)), "unknown suite 'spectra'"),
        (dict(suites=()), "no suites selected"),
    ])
    def test_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SuiteConfig(**kwargs)
