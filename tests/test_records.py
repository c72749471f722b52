"""The package's record types and what importing the CLI loads.

The immutable records (``BasisIndex``, ``BallBasisElement``, ``HarmonicBasis``,
``CheckRecord``) are ``typing.NamedTuple``s and ``SuiteConfig`` is a plain class,
so ``import orthoball.cli`` loads neither ``dataclasses`` nor the ``inspect``,
``ast``, ``dis`` and ``tokenize`` modules it pulls in.  Every layer loads on
first use: the package resolves its public names through one table, so neither
``import orthoball`` nor ``import orthoball.cli`` loads a layer; the CLI imports
the verifier only for a verifier run or its help and the bases only for an
export; and the verifier loads only the layers that the selected suites read.
The tests below pin the imports and the record behaviour that callers read:
field names and order, equality, hashing, immutability, ``repr`` and
``SuiteConfig``'s normalization.
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
from orthoball.cli import main
from orthoball.verify import CheckRecord, SuiteConfig, run_suites

SRC = Path(__file__).resolve().parent.parent / "src"

FIELDS = {
    BasisIndex: ("n", "k", "nu", "beta_k"),
    BallBasisElement: ("index", "poly", "sq_norm", "harmonic_sq_norm", "radial"),
    HarmonicBasis: ("dim", "degree", "elements", "sphere_norms"),
    CheckRecord: ("suite", "identity", "statement", "params", "status", "witness", "elapsed_ms"),
}


def _modules_added(code: str) -> set[str]:
    """The modules that running ``code`` adds to ``sys.modules`` in a fresh interpreter.

    The baseline is taken in the same process, so whatever ``site`` preloads on this
    Python is not counted as the package's.
    """
    script = f"import sys; before = set(sys.modules); {code}; print(*sorted(set(sys.modules) - before))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    return set(proc.stdout.split())


def _main_call(*argv: str) -> str:
    """Code that runs the CLI's main on ``argv``, its output discarded, and asserts exit 0."""
    return f"from orthoball.cli import main; assert main({[*argv, '--out', os.devnull]!r}) == 0"


def _package_modules(code: str) -> set[str]:
    """The ``orthoball`` modules that running ``code`` in a fresh interpreter loads."""
    return {name for name in _modules_added(code) if name.split(".")[0] == "orthoball"}


def test_cli_import_loads_no_dataclasses_or_inspect():
    added = _modules_added("import orthoball.cli")
    assert "orthoball.cli" in added
    assert not added & {"dataclasses", "inspect"}


def test_cli_import_loads_no_verifier():
    added = _modules_added("import orthoball.cli")
    assert "orthoball.cli" in added
    assert "orthoball.bases" not in added
    assert "orthoball.verify" not in added


@pytest.mark.parametrize("code, loaded", [
    ("import orthoball", {"orthoball"}),
    ("import orthoball.cli", {"orthoball", "orthoball.cli"}),
])
def test_imports_load_no_layer(code, loaded):
    assert _package_modules(code) == loaded


def test_polynomial_operators_load_only_the_polynomial_layer():
    # laplacian and euler_op live in polynomials, so reading them loads no operator layer.
    loaded = _package_modules("import orthoball; orthoball.laplacian; orthoball.euler_op")
    assert loaded == {"orthoball", "orthoball.polynomials"}


def test_univariate_run_loads_only_the_univariate_layer():
    loaded = _package_modules(_main_call("--dim", "2", "--max-degree", "3",
                                         "--suites", "jacobi,krall1d"))
    assert loaded == {"orthoball", "orthoball.cli", "orthoball.verify", "orthoball.jacobi",
                      "orthoball.exact_gamma", "orthoball.polynomials"}


def test_harmonics_run_loads_neither_bases_nor_operators():
    loaded = _package_modules(_main_call("--dim", "3", "--max-degree", "2", "--suites", "harmonics"))
    assert {"orthoball.harmonics", "orthoball.ball_suites"} <= loaded
    assert not loaded & {"orthoball.bases", "orthoball.operators"}


def test_export_loads_no_verifier():
    added = _modules_added(_main_call("--dim", "2", "--export-basis", "2,lambda"))
    assert "orthoball.bases" in added
    assert "orthoball.verify" not in added
    assert "orthoball.operators" not in added
    # The harmonic build runs under the Fischer product, so no sphere moment table is loaded.
    assert "orthoball.measures" not in added


def test_suite_run_loads_the_verifier():
    added = _modules_added(_main_call("--dim", "2", "--max-degree", "1", "--suites", "jacobi"))
    assert "orthoball.verify" in added


def test_each_public_name_resolves_to_its_module():
    # In a fresh interpreter, so that no other test's monkeypatch is cached by the package.
    script = """
import importlib, orthoball
for name, module in orthoball._EXPORTS.items():
    assert getattr(orthoball, name) is getattr(importlib.import_module("orthoball." + module), name), name
    assert name in dir(orthoball), name
namespace = {}
exec("from orthoball import *", namespace)
assert set(orthoball._EXPORTS) <= set(namespace)
try:
    orthoball.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", script], env=env, check=True)


def test_help_lists_every_suite(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # wide enough that no suite name is broken at a hyphen
    assert main(["--help"]) == 0
    assert "suites: " + ", ".join(verify.SUITE_NAMES) in capsys.readouterr().out


def test_help_prints_every_suite_name_whole_at_80_columns(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    tokens = out.replace(",", " ").split()
    assert max(map(len, out.splitlines())) <= 80
    for name in verify.SUITE_NAMES:
        assert name in tokens


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
