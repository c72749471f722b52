"""Exact polynomial arithmetic over the rationals.

Two representations cover everything the library needs: a sparse
multivariate polynomial keyed by exponent tuples, and a dense univariate
polynomial for radial factors.  All coefficients are ``fractions.Fraction``,
so every identity downstream can be checked for *literal* equality -- there
is no floating point anywhere in this package's computations.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Exponents = tuple[int, ...]


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions, or 'p/q' strings to Fraction; reject floats."""
    if isinstance(value, float):
        raise TypeError(
            "float input would silently break exactness; "
            "pass an int, a Fraction, or a 'p/q' string"
        )
    return Fraction(value)


def as_exponents(exps) -> Exponents:
    """A monomial's exponents as a non-empty tuple of non-negative ints; a float or Fraction raises TypeError."""
    exps = tuple(map(operator.index, exps))
    if not exps or min(exps) < 0:
        raise ValueError(f"a monomial needs one or more non-negative exponents, got {exps}")
    return exps


def fraction_text(q: Fraction) -> str:
    """The text form of a rational in canonical polynomials, reports and exports: 'num/den'."""
    return f"{q.numerator}/{q.denominator}"


def grlex_key(exps: Exponents) -> tuple[int, Exponents]:
    """Graded-lexicographic sort key: total degree first, then the exponent tuple."""
    return (sum(exps), exps)


class MultiPoly:
    """Sparse polynomial in ``dim`` variables with Fraction coefficients.

    Terms are stored as a map from exponent tuples to nonzero coefficients.
    Instances are immutable by convention: no method mutates ``self``, so
    values can be cached and shared freely.
    """

    __slots__ = ("dim", "_terms")

    def __init__(self, dim: int, terms: Mapping[Exponents, object] | None = None):
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        self.dim = int(dim)
        clean: dict[Exponents, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            e = as_exponents(exps)
            if len(e) != dim:
                raise ValueError(f"monomial {e} does not have {dim} exponents")
            c = as_fraction(coeff)
            if c:
                clean[e] = c
        self._terms = clean

    @classmethod
    def _make(cls, dim: int, terms: dict[Exponents, Fraction]) -> "MultiPoly":
        # Internal fast path: callers guarantee well-formed exponent tuples.
        p = object.__new__(cls)
        p.dim = dim
        p._terms = {e: c for e, c in terms.items() if c}
        return p

    @classmethod
    def zero(cls, dim: int) -> "MultiPoly":
        return cls(dim)

    @classmethod
    def constant(cls, dim: int, value) -> "MultiPoly":
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def variable(cls, dim: int, axis: int) -> "MultiPoly":
        """The coordinate polynomial x_axis (0-based axis)."""
        if not 0 <= axis < dim:
            raise ValueError(f"axis {axis} out of range for dimension {dim}")
        e = [0] * dim
        e[axis] = 1
        return cls(dim, {tuple(e): 1})

    @property
    def terms(self) -> Mapping[Exponents, Fraction]:
        return self._terms

    def _check_dim(self, other: "MultiPoly") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        if isinstance(other, MultiPoly):
            self._check_dim(other)
            out = dict(self._terms)
            for e, c in other._terms.items():
                out[e] = out.get(e, Fraction(0)) + c
            return MultiPoly._make(self.dim, out)
        return self + MultiPoly.constant(self.dim, other)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._make(self.dim, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, MultiPoly):
            self._check_dim(other)
            out = dict(self._terms)
            for e, c in other._terms.items():
                out[e] = out.get(e, Fraction(0)) - c
            return MultiPoly._make(self.dim, out)
        return self - MultiPoly.constant(self.dim, other)

    def __rsub__(self, other):
        return MultiPoly.constant(self.dim, other) - self

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            self._check_dim(other)
            out: dict[Exponents, Fraction] = {}
            for ea, ca in self._terms.items():
                for eb, cb in other._terms.items():
                    e = tuple(x + y for x, y in zip(ea, eb))
                    out[e] = out.get(e, Fraction(0)) + ca * cb
            return MultiPoly._make(self.dim, out)
        c = as_fraction(other)
        if not c:
            return MultiPoly.zero(self.dim)
        return MultiPoly._make(self.dim, {e: v * c for e, v in self._terms.items()})

    def __rmul__(self, other):
        return self * other

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.dim == other.dim and self._terms == other._terms

    __hash__ = None

    def __bool__(self):
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def partial(self, axis: int) -> "MultiPoly":
        """Exact partial derivative with respect to x_axis (0-based)."""
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} out of range for dimension {self.dim}")
        out: dict[Exponents, Fraction] = {}
        for e, c in self._terms.items():
            k = e[axis]
            if k:
                shifted = e[:axis] + (k - 1,) + e[axis + 1:]
                out[shifted] = out.get(shifted, Fraction(0)) + c * k
        return MultiPoly._make(self.dim, out)

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.dim:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.dim}")
        xs = [as_fraction(v) for v in point]
        total = Fraction(0)
        for e, c in self._terms.items():
            value = c
            for x, k in zip(xs, e):
                if k:
                    value *= x ** k
            total += value
        return total

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degrees = {sum(e) for e in self._terms}
        if not degrees:
            return True
        if len(degrees) > 1:
            return False
        return degree is None or degrees == {degree}

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in graded-lexicographic order (the canonical iteration order)."""
        return sorted(self._terms.items(), key=lambda kv: grlex_key(kv[0]))

    def canonical(self) -> str:
        """Canonical text form: graded-lex terms `num/den * x1^e1*...*xd^ed`."""
        if not self._terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(f"x{j + 1}^{k}" for j, k in enumerate(e))
            parts.append(f"{fraction_text(c)} * {mono}")
        return " + ".join(parts)

    def __str__(self):
        if not self._terms:
            return "0"
        chunks = []
        for e, c in self.sorted_terms():
            factors = [f"x{j + 1}" + (f"^{k}" if k > 1 else "") for j, k in enumerate(e) if k]
            body = "*".join(factors)
            if not body:
                chunks.append(str(c))
            elif c == 1:
                chunks.append(body)
            elif c == -1:
                chunks.append(f"-{body}")
            else:
                chunks.append(f"{c}*{body}")
        return " + ".join(chunks).replace("+ -", "- ")

    def __repr__(self):
        return f"MultiPoly({self.dim}, {self.canonical()!r})"


class UniPoly:
    """Dense univariate polynomial in t with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls()

    @classmethod
    def constant(cls, value) -> "UniPoly":
        return cls([value])

    @classmethod
    def t(cls) -> "UniPoly":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def leading_coeff(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly.constant(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly.constant(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __rsub__(self, other):
        return UniPoly.constant(other) - self

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            if not self.coeffs or not other.coeffs:
                return UniPoly.zero()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return UniPoly(out)
        c = as_fraction(other)
        return UniPoly([v * c for v in self.coeffs])

    def __rmul__(self, other):
        return self * other

    def derivative(self) -> "UniPoly":
        return UniPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x) -> Fraction:
        x = as_fraction(x)
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def compose(self, inner: "UniPoly") -> "UniPoly":
        """Horner substitution: self(inner(t))."""
        result = UniPoly.zero()
        for c in reversed(self.coeffs):
            result = result * inner + UniPoly.constant(c)
        return result

    def substitute(self, inner: MultiPoly) -> MultiPoly:
        """Horner substitution of a multivariate polynomial for t."""
        result = MultiPoly.zero(inner.dim)
        for c in reversed(self.coeffs):
            result = result * inner + MultiPoly.constant(inner.dim, c)
        return result

    def times_tpow(self, power: int) -> "UniPoly":
        if self.is_zero():
            return self
        return UniPoly((Fraction(0),) * power + self.coeffs)

    def exact_div_tpow(self, power: int) -> "UniPoly":
        """Divide by t**power; raises if any low-order coefficient is nonzero."""
        if any(self.coeff(i) for i in range(min(power, len(self.coeffs)))):
            raise ValueError(f"polynomial is not divisible by t^{power}")
        return UniPoly(self.coeffs[power:])

    def canonical(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"{fraction_text(c)} * t^{k}" for k, c in enumerate(self.coeffs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        chunks = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                chunks.append(str(c))
            else:
                body = "t" if k == 1 else f"t^{k}"
                if c == 1:
                    chunks.append(body)
                elif c == -1:
                    chunks.append(f"-{body}")
                else:
                    chunks.append(f"{c}*{body}")
        return " + ".join(chunks).replace("+ -", "- ")

    def __repr__(self):
        return f"UniPoly({self.canonical()!r})"


def radius_squared(dim: int) -> MultiPoly:
    """The polynomial x1^2 + ... + xd^2."""
    terms = {}
    for axis in range(dim):
        e = [0] * dim
        e[axis] = 2
        terms[tuple(e)] = 1
    return MultiPoly(dim, terms)


def substitute_radial(q: UniPoly, dim: int) -> MultiPoly:
    """Expand q(2*||x||^2 - 1) as a polynomial in x1..xd."""
    return q.substitute(2 * radius_squared(dim) - 1)


def laplacian(p: MultiPoly) -> MultiPoly:
    """Sum of second partials over every axis."""
    total = MultiPoly.zero(p.dim)
    for axis in range(p.dim):
        total = total + p.partial(axis).partial(axis)
    return total


def euler_op(p: MultiPoly) -> MultiPoly:
    """The operator sum_i x_i d/dx_i; multiplies each homogeneous grade by its degree."""
    out: dict[Exponents, Fraction] = {}
    for e, c in p.terms.items():
        deg = sum(e)
        if deg:
            out[e] = c * deg
    return MultiPoly._make(p.dim, out)
