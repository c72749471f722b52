"""Exact polynomial arithmetic over the rationals, stored as integers.

A sparse multivariate and a dense univariate class cover everything the library
needs.  Both store FLINT's ``fmpq_poly`` form: a positive integer ``den`` and
integer numerators ``nums`` sharing no common factor with it, so equal
polynomials hold equal data; arithmetic works on integers and divides out one
gcd per result.  A monomial x^e is keyed by one packed int (Monagan & Pearce,
CASC 2007): the total degree in the top 32-bit field, then e_0 down to e_(d-1),
so int order is graded-lexicographic order and a product adds keys.  The
differential operators read each exponent with one shift and apply themselves
in one integer pass over the numerators, with one gcd at the end: ``laplacian``,
and ``_second_order``, the library's one multivariate second-order kernel
(c0 + c1 E + c2 E^2 + (inner + outer ||x||^2) Delta) / den with E = <x, grad>
and integer coefficients, the form of the line kernel ``jacobi._shift``.
``euler_op``, the harmonic operators and residuals and the ball operators are
each one call of it with their coefficients at the call site.  Fractions
appear only in the views ``terms`` and ``coeffs``, built on each read, in
``MultiPoly.evaluate``, ``UniPoly.canonical()`` and ``str``;
``MultiPoly.canonical()`` reduces each numerator against ``den`` with one gcd,
and ``UniPoly.evaluate`` runs Horner on integers and builds one ``Fraction``,
its result.  There is no floating point, so every identity downstream can be
checked for *literal* equality.

``_gram_schmidt`` is the library's one Gram-Schmidt: classical, on dense integer
rows kept primitive.  The harmonic layer runs it under the diagonal Fischer
product and the radial layer under its integer Hankel form.

The module also holds the ball families' parameters: the check mu > -1/2, the
radial parameter beta_k and the two couplings, the sphere's lam and the point
mass M = d / (2 lam).  Every layer above reads them, and so does every verifier
run, which therefore loads no layer that it does not use.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cache
from itertools import zip_longest
from math import gcd, lcm, prod
from typing import Callable, Iterable, Mapping, Sequence

Exponents = tuple[int, ...]

_FIELD = 32  # bits per field of a packed monomial
_FIELD_MASK = (1 << _FIELD) - 1
# Below half a field, so the sum of two packed monomials carries into no neighbour.
_DEGREE_LIMIT = 1 << (_FIELD - 1)


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions, or 'p/q' strings to Fraction; reject floats.

    A Fraction comes back as the same object.
    """
    if type(value) is Fraction:
        return value
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


def integer_numerators(values: Iterable[Fraction]) -> tuple[int, list[int]]:
    """The common denominator D of the rationals values, and D times each of them."""
    values = list(values)
    den = lcm(*(c.denominator for c in values))
    return den, [c.numerator * (den // c.denominator) for c in values]


@cache
def pack(exps: Exponents) -> int:
    """x^exps as one int: the total degree in the top field, then exps[0] down to exps[-1]."""
    packed = sum(exps)
    if packed >= _DEGREE_LIMIT:
        raise ValueError(f"total degree {packed} is too large for a packed monomial")
    for e in exps:
        packed = packed << _FIELD | e
    return packed


def _unpack(packed: int, dim: int) -> Exponents:
    return tuple((packed >> (_FIELD * i)) & _FIELD_MASK for i in reversed(range(dim)))


@cache
def _monomial_text(packed: int, dim: int) -> str:
    """The monomial's text in canonical form, `x1^e1*...*xd^ed`, every exponent written."""
    return "*".join(f"x{j + 1}^{k}" for j, k in enumerate(_unpack(packed, dim)))


def _readable(terms: Iterable[tuple[str, Fraction]]) -> str:
    """The human-readable sum of (monomial text, coefficient) terms; empty text is a constant."""
    chunks = []
    for body, c in terms:
        if not body:
            chunks.append(str(c))
        elif c == 1:
            chunks.append(body)
        elif c == -1:
            chunks.append(f"-{body}")
        else:
            chunks.append(f"{c}*{body}")
    return " + ".join(chunks).replace("+ -", "- ") or "0"


class MultiPoly:
    """Sparse polynomial in ``dim`` variables with rational coefficients.

    ``nums`` maps the packed key of each monomial to a nonzero integer
    numerator over the one denominator ``den``.  Instances are immutable by
    convention: no method mutates ``self``, so values can be cached and
    shared freely.
    """

    __slots__ = ("dim", "den", "nums")

    def __init__(self, dim: int, terms: Mapping[Exponents, object] | None = None):
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        self.dim = int(dim)
        coeffs: dict[int, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            e = as_exponents(exps)
            if len(e) != dim:
                raise ValueError(f"monomial {e} does not have {dim} exponents")
            coeffs[pack(e)] = as_fraction(coeff)
        # Over the lcm of reduced denominators the numerators already share no factor with it.
        self.den, nums = integer_numerators(coeffs.values())
        self.nums = {k: n for k, n in zip(coeffs, nums) if n}

    @classmethod
    def _make(cls, dim: int, den: int, nums: dict[int, int]) -> "MultiPoly":
        # Internal fast path: drops zero numerators and divides out the common factor.
        nums = {k: n for k, n in nums.items() if n}
        g = gcd(den, *nums.values())
        p = object.__new__(cls)
        p.dim = dim
        p.den = den // g
        p.nums = {k: n // g for k, n in nums.items()} if g != 1 else nums
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
        """A new map from exponent tuples to nonzero Fraction coefficients."""
        return {_unpack(k, self.dim): Fraction(n, self.den) for k, n in self.nums.items()}

    def _check_dim(self, other: "MultiPoly") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def _combine(self, other, sign: int) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.dim, other)
        self._check_dim(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        out = {k: n * a for k, n in self.nums.items()}
        for k, n in other.nums.items():
            out[k] = out.get(k, 0) + n * b
        return MultiPoly._make(self.dim, den, out)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._make(self.dim, self.den, {k: -n for k, n in self.nums.items()})

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return MultiPoly.constant(self.dim, other) - self

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            self._check_dim(other)
            if not self.nums or not other.nums:
                return MultiPoly.zero(self.dim)
            # The top field holds the total degree and bounds every exponent field.
            if max(self.nums) + max(other.nums) >= _DEGREE_LIMIT << (_FIELD * self.dim):
                raise ValueError("total degree of the product is too large for a packed monomial")
            out: dict[int, int] = {}
            for ka, ca in self.nums.items():
                for kb, cb in other.nums.items():
                    k = ka + kb
                    out[k] = out.get(k, 0) + ca * cb
            return MultiPoly._make(self.dim, self.den * other.den, out)
        if type(other) is int:
            return MultiPoly._make(self.dim, self.den, {k: n * other for k, n in self.nums.items()})
        c = as_fraction(other)
        return MultiPoly._make(self.dim, self.den * c.denominator,
                               {k: n * c.numerator for k, n in self.nums.items()})

    def __rmul__(self, other):
        return self * other

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.dim == other.dim and self.den == other.den and self.nums == other.nums

    __hash__ = None

    def __bool__(self):
        return bool(self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def partial(self, axis: int) -> "MultiPoly":
        """Exact partial derivative with respect to x_axis (0-based)."""
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} out of range for dimension {self.dim}")
        shift = _FIELD * (self.dim - 1 - axis)
        # One less x_axis and one less total degree; distinct keys stay distinct.
        step = (1 << (_FIELD * self.dim)) + (1 << shift)
        out = {k - step: n * e for k, n in self.nums.items() if (e := k >> shift & _FIELD_MASK)}
        return MultiPoly._make(self.dim, self.den, out)

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.dim:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.dim}")
        xs = [as_fraction(v) for v in point]
        return sum((c * prod(x ** k for x, k in zip(xs, e)) for e, c in self.terms.items()),
                   Fraction(0))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(self.nums, default=-1) >> (_FIELD * self.dim)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degrees = {k >> (_FIELD * self.dim) for k in self.nums}
        if not degrees:
            return True
        if len(degrees) > 1:
            return False
        return degree is None or degrees == {degree}

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in graded-lexicographic order (the canonical iteration order)."""
        return [(_unpack(k, self.dim), Fraction(self.nums[k], self.den)) for k in sorted(self.nums)]

    def canonical(self) -> str:
        """Canonical text form: graded-lex terms `num/den * x1^e1*...*xd^ed`."""
        if not self.nums:
            return "0"
        den, parts = self.den, []
        for k in sorted(self.nums):
            n = self.nums[k]
            g = gcd(n, den)
            parts.append(f"{n // g}/{den // g} * {_monomial_text(k, self.dim)}")
        return " + ".join(parts)

    def __str__(self):
        return _readable(("*".join(f"x{j + 1}" + (f"^{k}" if k > 1 else "")
                                   for j, k in enumerate(e) if k), c)
                         for e, c in self.sorted_terms())

    def __repr__(self):
        return f"MultiPoly({self.dim}, {self.canonical()!r})"


class UniPoly:
    """Dense univariate polynomial in t with rational coefficients.

    ``nums`` is the tuple of integer numerators of t^0, t^1, ... over the one
    denominator ``den``, with no trailing zero.
    """

    __slots__ = ("den", "nums")

    def __init__(self, coeffs: Iterable = ()):
        # Over the lcm of reduced denominators the numerators already share no factor with it.
        self.den, nums = integer_numerators(map(as_fraction, coeffs))
        while nums and not nums[-1]:
            nums.pop()
        self.nums = tuple(nums)

    @classmethod
    def _make(cls, den: int, nums: list[int]) -> "UniPoly":
        # Internal fast path: drops trailing zeros and divides out the common factor.
        while nums and not nums[-1]:
            nums.pop()
        g = gcd(den, *nums)
        p = object.__new__(cls)
        p.den = den // g
        p.nums = tuple(n // g for n in nums) if g != 1 else tuple(nums)
        return p

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
    def coeffs(self) -> tuple[Fraction, ...]:
        """A new tuple of the Fraction coefficients of t^0, t^1, ..."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.nums) - 1

    def coeff(self, power: int) -> Fraction:
        if 0 <= power < len(self.nums):
            return Fraction(self.nums[power], self.den)
        return Fraction(0)

    def leading_coeff(self) -> Fraction:
        return self.coeff(self.degree)

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self):
        return bool(self.nums)

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    __hash__ = None

    def _combine(self, other, sign: int) -> "UniPoly":
        if not isinstance(other, UniPoly):
            other = UniPoly.constant(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        return UniPoly._make(den, [x * a + y * b
                                   for x, y in zip_longest(self.nums, other.nums, fillvalue=0)])

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly._make(self.den, [-n for n in self.nums])

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return UniPoly.constant(other) - self

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            if not self.nums or not other.nums:
                return UniPoly.zero()
            out = [0] * (len(self.nums) + len(other.nums) - 1)
            for i, a in enumerate(self.nums):
                if a:
                    for j, b in enumerate(other.nums):
                        out[i + j] += a * b
            return UniPoly._make(self.den * other.den, out)
        c = as_fraction(other)
        return UniPoly._make(self.den * c.denominator, [n * c.numerator for n in self.nums])

    def __rmul__(self, other):
        return self * other

    def derivative(self) -> "UniPoly":
        return UniPoly._make(self.den, [k * n for k, n in enumerate(self.nums)][1:])

    def evaluate(self, x) -> Fraction:
        # Horner on integers at x = u/v: total = sum_i N_i u^i v^(deg-i) and power = v^(deg+1).
        x = as_fraction(x)
        u, v = x.numerator, x.denominator
        total, power = 0, 1
        for n in reversed(self.nums):
            total = total * u + n * power
            power *= v
        return Fraction(total * v, self.den * power)

    def compose(self, inner: UniPoly | MultiPoly) -> UniPoly | MultiPoly:
        """Horner substitution self(inner) of a UniPoly or a MultiPoly for t, of inner's type."""
        result = inner * 0
        for n in reversed(self.nums):
            result = result * inner + n
        return result * Fraction(1, self.den)

    def times_tpow(self, power: int) -> "UniPoly":
        return UniPoly._make(self.den, [0] * power + list(self.nums))

    def exact_div_tpow(self, power: int) -> "UniPoly":
        """Divide by t**power; raises if any low-order coefficient is nonzero."""
        if any(self.nums[:power]):
            raise ValueError(f"polynomial is not divisible by t^{power}")
        return UniPoly._make(self.den, list(self.nums[power:]))

    def canonical(self) -> str:
        if not self.nums:
            return "0"
        return " + ".join(f"{fraction_text(c)} * t^{k}" for k, c in enumerate(self.coeffs))

    def __str__(self):
        return _readable((f"t^{k}" if k > 1 else "t" * k, c) for k, c in enumerate(self.coeffs) if c)

    def __repr__(self):
        return f"UniPoly({self.canonical()!r})"


def _gram_schmidt(starts: Iterable[Sequence[int]],
                  image: Callable[[list[int]], Sequence[int]]) -> list[tuple[list[int], int]]:
    """Classical Gram-Schmidt on dense integer rows, each kept primitive: [(U_k, N_k), ...].

    The starts H_k are integer rows of strictly increasing length, each ending in a positive
    entry, and image(U) is W = G U for one symmetric integer form G; an entry past the end
    of W reads as zero.  With W_j = image(U_j) and N_j = U_j . W_j, the product of H_k and
    U_j is H_k . W_j, and row k is the primitive part of

        L H_k - sum_j (L / N_j) (H_k . W_j) U_j,    L = lcm of the N_j with H_k . W_j != 0,

    which is H_k minus its projections up to a positive scale: every U_j is shorter than
    H_k, so U_k keeps the length and the positive last entry of H_k.  The classical form
    reads each coefficient from H_k, the modified form from the partly reduced row; they
    differ only in rounding (Bjorck, BIT 7, 1967), and this arithmetic is exact.  A zero
    norm before the last start raises ZeroDivisionError, as Gram-Schmidt's division by it
    does.
    """
    done: list[tuple[list[int], Sequence[int], int]] = []  # (U_j, W_j, N_j)
    for h in starts:
        if done and not done[-1][2]:
            raise ZeroDivisionError(f"Gram-Schmidt row {len(done) - 1} has norm zero")
        dots = [(dot, sq, u) for u, w, sq in done if (dot := sum(map(operator.mul, h, w)))]
        common = lcm(*(sq for _, sq, _ in dots))
        v = [common * c for c in h]
        for dot, sq, row in dots:
            f = common // sq * dot
            for i, c in enumerate(row):
                v[i] -= f * c
        content = gcd(*v)
        u = [c // content for c in v]
        w = image(u)
        done.append((u, w, sum(map(operator.mul, u, w))))
    return [(u, sq) for u, _, sq in done]


@cache
def radius_squared(dim: int) -> MultiPoly:
    """The polynomial x1^2 + ... + xd^2, one shared instance per dimension."""
    terms = {}
    for axis in range(dim):
        e = [0] * dim
        e[axis] = 2
        terms[tuple(e)] = 1
    return MultiPoly(dim, terms)


def substitute_radial(q: UniPoly, dim: int) -> MultiPoly:
    """Expand q(2*||x||^2 - 1) as a polynomial in x1..xd."""
    return q.compose(2 * radius_squared(dim) - 1)


# The ball families' parameters, read by the layers above and by every verifier run.

# Normalized surface measure is the ball weight at mu = -1/2, a limit that _check_mu rejects.
_SPHERE_MU = Fraction(-1, 2)


def _check_mu(mu) -> Fraction:
    mu = as_fraction(mu)
    if mu <= _SPHERE_MU:
        raise ValueError(f"mu must exceed -1/2 for an integrable weight, got {mu}")
    return mu


def beta_shift(n: int, k: int, dim: int) -> Fraction:
    """The radial Jacobi parameter beta_k = n - 2k + (d-2)/2."""
    return Fraction(2 * (n - 2 * k) + dim - 2, 2)


def mass_parameter(dim: int, lam) -> Fraction:
    """The point-mass coupling M = d / (2 lam) paired with the sphere coupling lam."""
    lam = as_fraction(lam)
    if lam <= 0:
        raise ValueError(f"the sphere coupling must be positive, got {lam}")
    return Fraction(dim) / (2 * lam)


def sphere_coupling(dim: int, mass) -> Fraction:
    """Inverse of mass_parameter: lam = d / (2 M)."""
    mass = as_fraction(mass)
    if mass <= 0:
        raise ValueError(f"mass must be positive, got {mass}")
    return Fraction(dim) / (2 * mass)


def _couplings(dim: int, lam=None, mass=None) -> tuple[Fraction, Fraction]:
    """(lam, M) from at most one of the sphere coupling lam and the point mass M; lam = 1/4 by default."""
    if lam is not None and mass is not None:
        raise ValueError("give exactly one of the sphere coupling and the point mass")
    if mass is not None:
        mass = as_fraction(mass)
        return sphere_coupling(dim, mass), mass
    lam = Fraction(1, 4) if lam is None else as_fraction(lam)
    return lam, mass_parameter(dim, lam)


def laplacian(p: MultiPoly) -> MultiPoly:
    """Sum of second partials over every axis, in one pass over p's terms.

    d^2/dx_i^2 takes x^e to e_i (e_i - 1) x^(e - 2 e_i): two less in field i and in the
    total-degree field.
    """
    top = 1 << (_FIELD * p.dim)
    out: dict[int, int] = {}
    for k, n in p.nums.items():
        for shift in range(0, _FIELD * p.dim, _FIELD):
            if (e := k >> shift & _FIELD_MASK) > 1:
                key = k - 2 * (top + (1 << shift))
                out[key] = out.get(key, 0) + n * e * (e - 1)
    return MultiPoly._make(p.dim, p.den, out)


def _second_order(p: MultiPoly, den: int, c0: int, c1: int, c2: int, inner: int,
                  outer: int) -> MultiPoly:
    """(c0 p + c1 E p + c2 E^2 p + inner Delta p + outer ||x||^2 Delta p) / den, in one pass.

    The library's one multivariate second-order kernel, E = <x, grad>, on integers over
    den > 0: grade g is scaled by c0 + c1 g + c2 g^2.  d^2/dx_i^2 takes x^e to
    e_i (e_i - 1) x^(e - 2 e_i), kept here in grade g; ``inner`` then lowers the grade by 2,
    and ``outer``, a product with ||x||^2, steps one exponent field by 2.  No Laplacian key
    is read, so ``laplacian`` stays a path independent of this kernel.
    """
    dim = p.dim
    top_shift = _FIELD * dim
    out = {k: n * (c0 + (g := k >> top_shift) * (c1 + g * c2)) for k, n in p.nums.items()}
    if inner or outer:
        shifts = range(0, top_shift, _FIELD)
        lowered: dict[int, int] = {}
        for k, n in p.nums.items():
            for shift in shifts:
                if (e := k >> shift & _FIELD_MASK) > 1:
                    key = k - (2 << shift)
                    lowered[key] = lowered.get(key, 0) + n * e * (e - 1)
        down = 2 << top_shift
        steps = [2 << shift for shift in shifts] if outer else ()
        for k, n in lowered.items():
            if inner:
                out[k - down] = out.get(k - down, 0) + inner * n
            for step in steps:
                out[k + step] = out.get(k + step, 0) + outer * n
    return MultiPoly._make(dim, den * p.den, out)


def euler_op(p: MultiPoly) -> MultiPoly:
    """The operator E = sum_i x_i d/dx_i; multiplies each homogeneous grade by its degree."""
    return _second_order(p, 1, 0, 1, 0, 0, 0)
