"""No floating point in the library's math, checked on the source itself.

Every module under ``src/orthoball`` is parsed with ``ast``.  A float literal or
a ``float(...)`` call fails, except in ``verify.py``, whose floats are check
timings only.  An import from ``math`` fails unless it names one of the integer
functions below; ``import math`` fails because it exposes all of them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "orthoball"
MODULES = sorted(SRC.glob("*.py"))
TIMING_ONLY = {"verify.py"}
INTEGER_MATH = {"comb", "factorial", "gcd", "lcm", "prod"}


def _violations(path: Path):
    floats_allowed = path.name in TIMING_ONLY
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Constant) and isinstance(node.value, float) and not floats_allowed:
            yield node.lineno, f"float literal {node.value!r}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float" and not floats_allowed):
            yield node.lineno, "float() call"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in INTEGER_MATH:
                    yield node.lineno, f"from math import {alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "math":
                    yield node.lineno, "import math"


def test_modules_found():
    assert {"polynomials.py", "measures.py", "verify.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_floating_point(module):
    assert [f"{module.name}:{line}: {what}" for line, what in _violations(module)] == []
