"""Independent oracles used by the tests.

Each routine here recomputes a quantity along a different path than the
library: the explicit hypergeometric sum instead of the recurrence, the
Wallis double-factorial formula instead of Gamma splitting, an iterated
one-dimensional integral recurrence instead of the polar factorization, and
each second-order operator composed from whole polynomials (derivatives,
products and sums) instead of the one-pass integer kernels, and the harmonic
Gram-Schmidt under the sphere moment table instead of the Fischer product.
They share no code with the implementations they check, apart from the
harmonic start vectors and the moment table that the last one reads.
"""

from fractions import Fraction
from math import gcd, lcm

from orthoball import HarmonicBasis, MultiPoly, UniPoly, laplacian, measures, radius_squared
from orthoball.exact_gamma import rising_factorial
from orthoball.harmonics import _cauchy_harmonic
from orthoball.polynomials import _monomials


def jacobi_explicit_sum(n: int, alpha, beta) -> UniPoly:
    """Finite-sum form: sum_s C(n+a, n-s) C(n+b, s) ((t-1)/2)^s ((t+1)/2)^(n-s)."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    minus = UniPoly([Fraction(-1, 2), Fraction(1, 2)])  # (t-1)/2
    plus = UniPoly([Fraction(1, 2), Fraction(1, 2)])  # (t+1)/2
    total = UniPoly.zero()
    for s in range(n + 1):
        c1 = rising_factorial(alpha + s + 1, n - s) / _factorial(n - s)
        c2 = rising_factorial(beta + (n - s) + 1, s) / _factorial(s)
        term = UniPoly.constant(c1 * c2)
        for _ in range(s):
            term = term * minus
        for _ in range(n - s):
            term = term * plus
        total = total + term
    return total


def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def wallis_circle_moment(a: int, b: int) -> Fraction:
    """(1/2pi) * integral of cos^a sin^b over the full circle, even a and b."""
    if a % 2 or b % 2:
        return Fraction(0)
    return Fraction(
        _double_factorial(a - 1) * _double_factorial(b - 1),
        _double_factorial(a + b),
    )


def _j_ratio_step(q: Fraction, steps: int) -> Fraction:
    """J(0, q+steps) / J(0, q) where J(0, q) = integral of (1-t^2)^q over [-1, 1]."""
    out = Fraction(1)
    for i in range(steps):
        out *= (2 * q + 2 * i + 2) / (2 * q + 2 * i + 3)
    return out


def _j_over_j0(p: int, q: Fraction) -> Fraction:
    """J(p, q) / J(0, q) for even p, via parts: J(p,q) = (p-1)/(2q+2) J(p-2, q+1)."""
    out = Fraction(1)
    steps = p // 2
    qq = q
    while p >= 2:
        out *= Fraction(p - 1) / (2 * qq + 2)
        p -= 2
        qq += 1
    return out * _j_ratio_step(q, steps)


def iterated_disk_moment(a: int, b: int, mu) -> Fraction:
    """Normalized weighted-disk moment of x^a y^b computed as an iterated integral.

    Integrating out y first reduces everything to one-dimensional integrals
    J(p, q) = integral of t^p (1-t^2)^q, handled by exact recurrences; the
    normalization makes all ratios rational.
    """
    mu = Fraction(mu)
    if a % 2 or b % 2:
        return Fraction(0)
    part_x = _j_over_j0(a, Fraction(b, 2) + mu) * _j_ratio_step(mu, b // 2)
    part_y = _j_over_j0(b, mu - Fraction(1, 2))
    return part_x * part_y


def _gamma_half_over_sqrt_pi(twice: int) -> Fraction:
    """Gamma(twice/2), divided by sqrt(pi) when twice is odd, for a positive integer twice."""
    if twice % 2 == 0:
        return Fraction(_factorial(twice // 2 - 1))
    k = twice // 2  # Gamma(k + 1/2) = (2k-1)!! sqrt(pi) / 2^k
    return Fraction(_double_factorial(2 * k - 1), 2 ** k)


def gamma_sphere_moment(v) -> Fraction:
    """Gamma(d/2) prod_i Gamma((v_i+1)/2) / (Gamma((|v|+d)/2) Gamma(1/2)^d); zero for odd v.

    For even v the d factors sqrt(pi) of the product cancel Gamma(1/2)^d, and
    those of Gamma(d/2) and Gamma((|v|+d)/2) cancel each other.
    """
    if any(e % 2 for e in v):
        return Fraction(0)
    d = len(v)
    out = _gamma_half_over_sqrt_pi(d) / _gamma_half_over_sqrt_pi(sum(v) + d)
    for e in v:
        out *= _gamma_half_over_sqrt_pi(e + 1)
    return out


def gamma_ball_moment(v, mu) -> Fraction:
    """Sphere moment times the radial Beta ratio B(s + d/2, mu + 1/2) / B(d/2, mu + 1/2), s = |v|/2.

    The ratio is (d/2)_s / (d/2 + mu + 1/2)_s, expanded factor by factor.
    """
    mu = Fraction(mu)
    half_d = Fraction(len(v), 2)
    out = gamma_sphere_moment(v)
    for j in range(sum(v) // 2):
        out *= (half_d + j) / (half_d + mu + Fraction(1, 2) + j)
    return out


def termwise_inner(f, g, moment) -> Fraction:
    """sum over every term pair of c_a c_b moment(a + b): no parity shortcut, no integer scaling."""
    total = Fraction(0)
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            total += ca * cb * moment(tuple(x + y for x, y in zip(ea, eb)))
    return total


def gram_map(rows) -> dict:
    """The dense Gram matrix ``rows``, checked symmetric, as the library returns one: its
    nonzero entries with i <= j, keyed (i, j).  Two such maps are equal exactly when the
    matrices agree at every pair, an absent pair being zero."""
    assert all(row[j] == rows[j][i] for i, row in enumerate(rows) for j in range(i))
    return {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row[i:], i) if v}


def _binomial(n: int, k: int) -> int:
    return _factorial(n) // (_factorial(k) * _factorial(n - k))


def radial_weight_integral(m: int, a: int, b) -> Fraction:
    """2^-(a+b+1) * integral of t^m (1-t)^a (1+t)^b over [-1, 1], for integer a >= 0.

    With s = 1 + t the integrand is (s-1)^m (2-s)^a s^b on [0, 2]; both
    binomials expand into powers s^(b+j), each integrating to
    2^(b+j+1)/(b+j+1).  The 2^b factor cancels the normalization, so the sum
    stays rational for every rational b > -1.
    """
    b = Fraction(b)
    total = Fraction(0)
    for i in range(m + 1):  # (s-1)^m
        for k in range(a + 1):  # (2-s)^a
            sign = (-1) ** (m - i + k)
            scale = _binomial(m, i) * _binomial(a, k) * 2 ** (a - k)
            j = i + k
            # 2^-(a+b+1) * 2^(b+j+1) = 2^(j-a)
            total += sign * scale * Fraction(2) ** (j - a) / (b + j + 1)
    return total


def beta_step(x, y, steps: int) -> Fraction:
    """B(x + steps, y) / B(x, y) for an integer ``steps`` of either sign, by B(x+1, y) = B(x, y) x / (x + y)."""
    x, y = Fraction(x), Fraction(y)
    out = Fraction(1)
    for j in range(steps):
        out *= (x + j) / (x + y + j)
    for j in range(steps, 0):
        out *= (x + y + j) / (x + j)
    return out


def point_mass_total(a, b, dim: int):
    """Gamma(d/2+a+1) Gamma(b+1) / (Gamma(d/2) Gamma(a+b+2)) = B(b+1, a+1) / B(d/2, a+1), or None.

    When b + 1 - d/2 is an integer the two Beta values are one recurrence apart in
    their first argument.  When a is an integer each is a recurrence from
    B(1, y) = 1/y in its second argument (B is symmetric).  Otherwise the ratio has
    no Pochhammer form.
    """
    a, b, half = Fraction(a), Fraction(b), Fraction(dim, 2)
    if (b + 1 - half).denominator == 1:
        return beta_step(half, a + 1, int(b + 1 - half))
    if a.denominator == 1:
        return beta_step(1, b + 1, int(a)) / (b + 1) * half / beta_step(1, half, int(a))
    return None


def beta_sphere_ball_ratio(dim: int, mu):
    """2 / B(d/2, mu + 1/2) by the Beta recurrence, or None where it is irrational.

    B(a, 1) = 1/a and B(a, b + 1) = B(a, b) b / (a + b).  B is symmetric, so
    whichever argument is a positive integer is stepped up from 1; when neither
    is an integer the ratio is a quotient of Gamma values at non-integer
    arguments with no Pochhammer form.
    """
    a, b = Fraction(dim, 2), Fraction(mu) + Fraction(1, 2)
    if b.denominator != 1:
        a, b = b, a
    if b.denominator != 1:
        return None
    beta = 1 / a
    for j in range(1, b.numerator):
        beta = beta * j / (a + j)
    return 2 / beta


def gram_schmidt(vectors, inner):
    """Plain unnormalized Gram-Schmidt against the given bilinear form."""
    ortho = []
    for v in vectors:
        w = v
        for u in ortho:
            w = w - (inner(w, u) / inner(u, u)) * u
        ortho.append(w)
    return ortho


def sphere_table_harmonic_basis(dim: int, degree: int) -> HarmonicBasis:
    """The harmonic basis by integer Gram-Schmidt under the sphere product itself.

    The same start vectors, blocks, primitive update and scale as ``harmonic_basis``,
    but each u_j is imaged over its block's monomials term by term, one sphere moment
    table entry at a time and not through the library's image kernel,
    W_j[b] = sum_a U_a M[a + b], so N_j = U_j . W_j and each norm is N_j / D.
    """
    blocks: dict[tuple[int, ...], list[MultiPoly]] = {}
    for e in _monomials(dim, degree):
        if e[-1] < 2:
            blocks.setdefault(tuple(v & 1 for v in e), []).append(_cauchy_harmonic(e))
    ortho, norms = [], []
    for parity in sorted(blocks):
        block = blocks[parity]
        keys = sorted(set().union(*(h.nums for h in block)))
        table = measures._moment_table(dim, measures._SPHERE_MU, 0, 2 * keys[-1])
        done = []  # (U_j, W_j, N_j)
        for h in block:
            dots = []
            for nums, image, sq in done:
                dot = sum(c * image[b] for b, c in h.nums.items())
                if dot:
                    dots.append((dot, sq, nums))
            scale = lcm(*(sq for _, sq, _ in dots))
            out = {k: scale * n for k, n in h.nums.items()}
            for dot, sq, nums in dots:
                for k, v in nums.items():
                    out[k] = out.get(k, 0) - scale // sq * dot * v
            out = {k: n for k, n in out.items() if n}
            content = gcd(*out.values())
            if out[max(out)] < 0:
                content = -content
            u = MultiPoly._make(dim, 1, {k: n // content for k, n in out.items()})
            # A block holds one parity class, so every a + b below is an even monomial.
            image = {b: sum(c * table[a + b] for a, c in u.nums.items()) for b in keys}
            sq = sum(c * image[b] for b, c in u.nums.items())
            done.append((u.nums, image, sq))
            ortho.append(u)
            norms.append(Fraction(sq, table.den))
    return HarmonicBasis(dim, degree, tuple(ortho), tuple(norms))


def euler(p):
    """E p = sum_i x_i dp/dx_i, as a sum of products of whole polynomials."""
    return sum((MultiPoly.variable(p.dim, i) * p.partial(i) for i in range(p.dim)),
               MultiPoly.zero(p.dim))


def damped_laplacian(p):
    """(1/4)(1-||x||^2) Delta p, as a product of whole polynomials."""
    return Fraction(1, 4) * ((1 - radius_squared(p.dim)) * laplacian(p))


def composed_classical_ball_op(p, mu):
    """Delta - (d + E)(2mu - 1 + E) p, E the Euler operator, as a sum of whole polynomials."""
    inner = (2 * Fraction(mu) - 1) * p + euler(p)
    return laplacian(p) - p.dim * inner - euler(inner)


def composed_ball_connection_op(p, mass):
    """[M - (1/4)(1-||x||^2) Delta] p."""
    return Fraction(mass) * p - damped_laplacian(p)


def composed_ball_conjugate_op(p, mass):
    """[M + d/2 - (1/4)(1-||x||^2) Delta + E] p."""
    return (Fraction(mass) + Fraction(p.dim, 2)) * p - damped_laplacian(p) + euler(p)


def composed_connection_op(f, beta, mass):
    """[M - (1-t^2) d^2/dt^2 - (b+1)(1-t) d/dt] f."""
    beta, df = Fraction(beta), f.derivative()
    return Fraction(mass) * f - UniPoly([1, 0, -1]) * df.derivative() - (beta + 1) * UniPoly([1, -1]) * df


def composed_conjugate_connection_op(f, beta, mass):
    """[M + b + 1 - (1-t^2) d^2/dt^2 - (b-1-(b+3)t) d/dt] f."""
    beta, df = Fraction(beta), f.derivative()
    return ((Fraction(mass) + beta + 1) * f - UniPoly([1, 0, -1]) * df.derivative()
            - UniPoly([beta - 1, -(beta + 3)]) * df)
