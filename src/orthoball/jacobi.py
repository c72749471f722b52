"""Jacobi polynomials, their point-mass-at-1 relatives, and the operators connecting them.

The classical family P_n^(a,b) is generated by the three-term recurrence, its
coefficients integers over one integer denominator.  Adding a point mass at
t = 1 to the weight produces a second family q_k, with the closed construction

    q_k(t) = [a_k - (1+t) d/dt] P_k^(a,b)(t),

and in the special case a = 0 the same family, parameterized by the mass
coupling M, reads

    q_k(t) = [M - (1+t) d/dt + k(k+b+1)] P_k^(0,b)(t),   q_k(1) = M.

Both families are eigen-connected through a pair of second-order operators
whose composition gives each q_k a fourth-order differential equation.  The
shift, both connection operators and the Jacobi ODE are each one call of one
integer kernel, c f + (p0 + p1 t) f' + s (1-t^2) f'': a three-term band over the
numerators of f.

Every inner product here is a moment functional applied to the product,
<f, g> = L(f g): a scalar multiple of the normalized Jacobi functional L_J^(a,b)
(total mass 1) plus a point mass at t = 1.  jacobi_inner is L_J^(a,b),
inner_jacobi_mass is G(d/2+a+1) G(b+1) / (G(d/2) G(a+b+2)) * L_J^(a,b) + lam * delta_1
with G the Gamma function, and inner_jacobi_type is L_J^(0,b) / (b+1) + delta_1 / M,
which is inner_jacobi_mass at a = 0, d = 2, lam = 1/M.  L_J^(a,b) is an integer
Hankel form over one cached table of moment numerators N / D.  The moments mu_m
follow the Pearson recurrence of the weight, (m+a+b+2) mu_(m+1) = (b-a) mu_m + m mu_(m-1),
run on integers.  D is the reduced common denominator of r_i = (a+1)_i / (a+b+2)_i,
from running integer products of the Pochhammer factors with one gcd: every
mu_m = sum_i C(m,i) (-2)^i r_i is an integer combination of the r_i, so N = mu_m D
divides out exactly, and D, a divisor of the recurrence's own last denominator, keeps
N small.  Every radial product reads one integer image of this table, _form: with
scale = s_n / s_d and lam = l_n / l_d it sends the numerators F of f = F / Df to
W[j] = s_n l_d sum_i F_i N[i+j] + l_n s_d D sum(F), so the product of f and g = G / Dg
is W . G over Df Dg times the form's base s_d l_d D.  A single product is one image and
one dot, gram_jacobi_mass images each polynomial once, and gram_schmidt_jacobi_mass runs
the library's one integer Gram-Schmidt, polynomials._gram_schmidt, on the unit rows of
1, t, t^2, ... under the same image.  The three-term recurrence builds each P_n on
integer numerators in one pass, with no Fraction, into one list per parameter pair,
grown on demand.
The point-mass construction holds for every a > -1; its one Gamma ratio, the
weight's total mass S, is rational when a or b - d/2 is an integer, always so on
the ball (b - d/2 = m - 1), and exact_gamma.gamma_ratio alone decides that, once
per (d, a, b).  The Gamma part of the shift a_k is S times Pochhammer factors:
S (a+b+1) at k = 0 and S (b+1)_k k! / ((a+1)_k (a+b+2)_(k-1)) from k = 1 on.
Below the public entry points the layer has one parameter form, the key (r, A, B) with
a = A/r and b = B/r: each entry point builds it once with _jacobi_params, which checks
a > -1 and b > -1 as two integer comparisons, and the recurrence, the moment table, the
total mass, the Gamma part and the three caches read the key, the total masses' with d.
The line kernel takes its coefficients as integers over one denominator: the ODE's over
r, the shift a_k and the Jacobi-type shift over their own, and the connection operators'
over the lcm of their arguments' denominators.
The connection operators and the fourth-order equation hold at
mu = FOURTH_ORDER_MU = 1/2 alone (a = 0); every check of that rule, and the
basis export's eigenvalue field, reads it here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import factorial, gcd, lcm, prod
from operator import mul

from .exact_gamma import ExactnessError, gamma_ratio
from .polynomials import UniPoly, _gram_schmidt, as_fraction, integer_numerators


def _jacobi_params(alpha, beta) -> tuple[int, int, int]:
    """The key (r, A, B) of alpha and beta: r the lcm of their denominators, A = alpha r and
    B = beta r.  ValueError unless both exceed -1, that is A > -r and B > -r."""
    alpha, beta = as_fraction(alpha), as_fraction(beta)
    r = lcm(alpha.denominator, beta.denominator)
    a, b = alpha.numerator * (r // alpha.denominator), beta.numerator * (r // beta.denominator)
    if a <= -r or b <= -r:
        raise ValueError(
            f"Jacobi parameters must exceed -1, got alpha={alpha}, beta={beta}"
        )
    return r, a, b


_JACOBI: dict[tuple[int, int, int], list[UniPoly]] = {}  # (r, A, B) -> [P_0, P_1, ...]


def _jacobi(n: int, r: int, a: int, b: int) -> UniPoly:
    # P_n^(a,b) at a = A/r, b = B/r, from its family's list, grown on demand.
    family = _JACOBI.setdefault((r, a, b), [])
    while len(family) <= n:
        family.append(_next_jacobi(family, r, a, b))
    return family[n]


def _next_jacobi(family: list[UniPoly], r: int, a: int, b: int) -> UniPoly:
    # P_n for n = len(family), from the two before it.
    n = len(family)
    if n == 0:
        return UniPoly.constant(1)
    if n == 1:  # ((a - b) + (a + b + 2) t) / 2
        return UniPoly._make(2 * r, [a - b, a + b + 2 * r])
    # P_n = (x P_(n-1) + y t P_(n-1) + z P_(n-2)) / lead on integers: with S = (2n + a + b) r,
    # x = (S-r)(A^2-B^2), y = (S-r) S (S-2r), z = -2 ((n-1)r+A) ((n-1)r+B) S and
    # lead = 2n r (nr+A+B) (S-2r), positive for n >= 2.
    s = 2 * n * r + a + b
    lead = 2 * n * r * (n * r + a + b) * (s - 2 * r)
    x = (s - r) * (a * a - b * b)
    y = (s - r) * s * (s - 2 * r)
    z = -2 * ((n - 1) * r + a) * ((n - 1) * r + b) * s
    p, q = family[-1], family[-2]
    den = lcm(p.den, q.den)
    x, y, z = x * (den // p.den), y * (den // p.den), z * (den // q.den)
    nums = [x * c + y * d + z * e
            for c, d, e in zip_longest(p.nums, (0, *p.nums), q.nums, fillvalue=0)]
    return UniPoly._make(lead * den, nums)


def jacobi_polynomial(n: int, alpha, beta) -> UniPoly:
    """P_n^(alpha,beta), normalized so the value at t=1 is (alpha+1)_n / n!."""
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    return _jacobi(n, *_jacobi_params(alpha, beta))


def jacobi_derivative_residual(n: int, alpha, beta) -> UniPoly:
    """d/dt P_n^(a,b) - ((n+a+b+1)/2) * P_(n-1)^(a+1,b+1); identically zero."""
    if n < 1:
        raise ValueError(f"degree must be at least 1, got {n}")
    r, a, b = _jacobi_params(alpha, beta)
    lhs = _jacobi(n, r, a, b).derivative()
    rhs = Fraction(n * r + a + b + r, 2 * r) * _jacobi(n - 1, r, a + r, b + r)
    return lhs - rhs


def jacobi_ode_residual(n: int, alpha, beta) -> UniPoly:
    """(1-t^2)y'' + [b-a-(a+b+2)t]y' + n(n+a+b+1)y with y = P_n^(a,b); identically zero."""
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    r, a, b = _jacobi_params(alpha, beta)
    # n(n+a+b+1), b-a, -(a+b+2) and 1, each over r.
    return _shift(_jacobi(n, r, a, b), r, n * (n * r + a + b + r), b - a, -(a + b + 2 * r), r)


_MOMENTS: dict[tuple[int, int, int], tuple[int, list[int]]] = {}  # (r, A, B) -> (D, N)


def _moment_table(key: tuple[int, int, int], size: int) -> tuple[int, list[int]]:
    # N[m] / D is the normalized moment mu_m of t^m against (1-t)^a (1+t)^b, m below a power of
    # two >= size.  The integral of d/dt [t^m (1-t)^(a+1) (1+t)^(b+1)] over [-1, 1] is zero, so
    # (m + a + b + 2) mu_(m+1) = (b - a) mu_m + m mu_(m-1) with mu_0 = 1.  With key (r, A, B)
    # and c_m = m r + A + B + 2r, mu_m = P_m / Q_m on integers, where
    # P_(m+1) = (B - A) P_m + m r c_(m-1) P_(m-1) and Q_(m+1) = Q_m c_m, the running product of
    # the A + B + r + i r.  D is the reduced common denominator of r_i = (a+1)_i / (a+b+2)_i,
    # the running product of the A + i r over Q_i: mu_m = sum_i C(m,i) (-2)^i r_i, so
    # N[m] = P_m D / Q_m divides exactly.  D divides the last Q, so it keeps the N small, and
    # the pairs (D, N) are those of the binomial sums.
    table = _MOMENTS.get(key)
    if table is None or len(table[1]) < size:
        r, a, b = key
        tops, bottoms = [1], [1]
        for i in range(1, 1 << (size - 1).bit_length()):
            tops.append(tops[-1] * (a + i * r))
            bottoms.append(bottoms[-1] * (a + b + r + i * r))
        den = bottoms[-1]
        den //= gcd(den, *(top * (den // bottom) for top, bottom in zip(tops, bottoms)))
        moments, low, top = [], 0, 1  # P_(m-1) and P_m
        for m, bottom in enumerate(bottoms):
            moments.append(top * den // bottom)
            low, top = top, (b - a) * top + m * r * (m * r + a + b + r) * low
        table = _MOMENTS[key] = den, moments
    return table


def _form(key: tuple[int, int, int], scale, lam, size: int):
    # The integer image of scale * L_J^(a,b) + lam * delta_1 on polynomials of at most size
    # coefficients, and its base.  With moments N/D, scale = s_n/s_d and lam = l_n/l_d, the
    # image of F is W[j] = s_n l_d sum_i F_i N[i+j] + l_n s_d D sum(F) for j < size, so the
    # product of f = F/Df and g = G/Dg is W . G over base Df Dg, base = s_d l_d D.
    den, moments = _moment_table(key, 2 * size - 1)
    hankel, point = scale.numerator * lam.denominator, lam.numerator * scale.denominator * den

    def image(nums) -> list[int]:
        width, total = len(nums), point * sum(nums)
        return [hankel * sum(map(mul, nums, moments[j:j + width])) + total for j in range(size)]

    return image, scale.denominator * lam.denominator * den


def _gram(fs, key: tuple[int, int, int], scale=1, lam=0) -> dict[tuple[int, int], Fraction]:
    # The Gram matrix [scale * L_J^(a,b)(f g) + lam * f(1) g(1)] of fs as its nonzero entries
    # with i <= j, keyed (i, j): each f imaged once, each nonzero dot W_f . G one Fraction over
    # base Df Dg.
    image, base = _form(key, scale, lam, max((len(f.nums) for f in fs), default=0))
    gram = {}
    for i, f in enumerate(fs):
        w = image(f.nums)
        for j, g in enumerate(fs[i:], i):
            top = sum(map(mul, w, g.nums))
            if top:
                gram[i, j] = Fraction(top, base * f.den * g.den)
    return gram


def _functional(f: UniPoly, g: UniPoly, key: tuple[int, int, int], scale=1, lam=0) -> Fraction:
    # The Fraction scale * L_J^(a,b)(f g) + lam * f(1) g(1): one image, one dot.
    image, base = _form(key, scale, lam, max(len(f.nums), len(g.nums)))
    return Fraction(sum(map(mul, image(f.nums), g.nums)), base * f.den * g.den)


def jacobi_inner(f: UniPoly, g: UniPoly, alpha, beta) -> Fraction:
    """Jacobi-weight inner product of f and g, normalized so (1,1) = 1."""
    return _functional(f, g, _jacobi_params(alpha, beta))


# The one weight parameter at which the connection operators and the fourth-order
# equation hold (Lebesgue measure on the ball).
FOURTH_ORDER_MU = Fraction(1, 2)


def _point_mass(lam) -> Fraction:
    """The point-mass construction's coupling lam: ValueError unless lam > 0."""
    lam = as_fraction(lam)
    if lam.numerator <= 0:
        raise ValueError(f"the coupling lam must be positive, got {lam}")
    return lam


_TOTAL_MASSES: dict[tuple[int, int, int, int], Fraction] = {}  # (d, r, A, B) -> total mass


def _total_mass(dim: int, key: tuple[int, int, int]) -> Fraction:
    """Gamma(d/2+a+1) Gamma(b+1) / (Gamma(d/2) Gamma(a+b+2)); (d/2)_m / (d/2+a+1)_m on the ball.

    The one gamma_ratio of the point-mass construction, cached per (d, r, A, B); its
    ExactnessError names mu, beta and d.
    """
    r, a, b = key
    key = (dim, r, a, b)
    if key not in _TOTAL_MASSES:
        alpha, beta, half_dim = Fraction(a, r), Fraction(b, r), Fraction(dim, 2)
        try:
            _TOTAL_MASSES[key] = gamma_ratio((half_dim + alpha + 1, beta + 1), (half_dim, alpha + beta + 2))
        except ExactnessError:
            raise ExactnessError(
                f"the exact point-mass construction needs mu - 1/2 or beta - d/2 to be an integer, "
                f"got mu={alpha + Fraction(1, 2)}, beta={beta}, d={dim}"
            ) from None
    return _TOTAL_MASSES[key]


def inner_jacobi_mass(f: UniPoly, g: UniPoly, alpha, beta, lam, dim: int) -> Fraction:
    """Prefactored Jacobi-weight product plus lam * f(1)g(1), for a > -1.

    The weight Gamma(a+d/2+1)/(Gamma(d/2) Gamma(a+1)) 2^-(a+b+1) (1-t)^a (1+t)^b
    has total mass Gamma(d/2+a+1) Gamma(b+1) / (Gamma(d/2) Gamma(a+b+2)), rational
    when a or b - d/2 is an integer (ExactnessError otherwise).  Its orthogonal
    polynomials are mass_orthogonal_poly; the prefactor ties it to the dim-ball geometry.
    """
    key = _jacobi_params(alpha, beta)
    return _functional(f, g, key, _total_mass(dim, key), _point_mass(lam))


def gram_jacobi_mass(polys, alpha, beta, lam, dim: int) -> dict[tuple[int, int], Fraction]:
    """The Gram matrix [inner_jacobi_mass(f, g, ...)] of ``polys`` as its nonzero entries with
    i <= j, keyed (i, j); an absent pair is zero.  One image per polynomial."""
    key = _jacobi_params(alpha, beta)
    return _gram(list(polys), key, _total_mass(dim, key), _point_mass(lam))


def gram_schmidt_jacobi_mass(size: int, alpha, beta, lam, dim: int) -> list[UniPoly]:
    """Gram-Schmidt on 1, t, ..., t^(size-1) under inner_jacobi_mass, in coefficient form.

    Entry k is the k-th orthogonal polynomial in primitive integer form: denominator 1,
    integer coefficients with content 1 and a positive leading coefficient.  Over the base
    of the radial form the product of t^i and t^j is an integer Hankel matrix plus the point
    mass, and polynomials._gram_schmidt runs on the unit rows of the t^k with the form's
    image.  A zero norm before the last row raises ZeroDivisionError, as Gram-Schmidt's
    division by it does.
    """
    key = _jacobi_params(alpha, beta)
    image, _ = _form(key, _total_mass(dim, key), _point_mass(lam), size)
    starts = [[0] * k + [1] for k in range(size)]
    return [UniPoly._make(1, u) for u, _ in _gram_schmidt(starts, image)]


def _gamma_part(k: int, dim: int, r: int, a: int, b: int) -> Fraction:
    """Gamma(d/2+a+1) Gamma(b+k+1) / (Gamma(d/2) Gamma(a+b+k+1)) times k! / (a+1)_k.

    The cached total mass S times Pochhammer factors, with a = A/r and b = B/r: S (a+b+1)
    at k = 0, and S (b+1)_k k! / ((a+1)_k (a+b+2)_(k-1)) from k = 1 on, on integers
    prod_(i<k) (B+r+ir) k! r^(k-1) / (prod_(i<k) (A+r+ir) prod_(i<k-1) (A+B+2r+ir)).
    a, b > -1 makes each of these factors positive, so none divides by zero.
    """
    mass = _total_mass(dim, (r, a, b))
    if not k:
        return mass * Fraction(a + b + r, r)
    return mass * Fraction(prod(b + r + i * r for i in range(k)) * factorial(k) * r ** (k - 1),
                           prod(a + r + i * r for i in range(k))
                           * prod(a + b + 2 * r + i * r for i in range(k - 1)))


def _mass_coefficient(k: int, r: int, a: int, b: int, lam: Fraction, dim: int) -> tuple[int, int]:
    # mass_coefficient at the checked key (r, A, B) as integers c / den: with g the Gamma part
    # and g / lam = top / bottom, a_k = g / lam + k (k r + A + B + r) / (A + r).
    g = _gamma_part(k, dim, r, a, b)
    top, bottom = g.numerator * lam.denominator, g.denominator * lam.numerator
    return top * (a + r) + k * (k * r + a + b + r) * bottom, bottom * (a + r)


def mass_coefficient(k: int, alpha, beta, lam, dim: int) -> Fraction:
    """The shift a_k in the point-mass construction q_k = [a_k - (1+t) d/dt] P_k."""
    if k < 0:
        raise ValueError(f"degree must be non-negative, got {k}")
    key = _jacobi_params(alpha, beta)
    return Fraction(*_mass_coefficient(k, *key, _point_mass(lam), dim))


def _shift(p: UniPoly, den: int, c: int, p0: int, p1: int, s: int = 0) -> UniPoly:
    # (c p + (p0 + p1 t) p' + s (1-t^2) p'') / den on integers, den > 0: with F the numerators of
    # p, t^i takes (c + i p1) F_i + (i+1) p0 F_(i+1) + s ((i+1)(i+2) F_(i+2) - i(i-1) F_i) over
    # den p.den.  The q_k shift [a - (1+t) d/dt] p is c / den = a with p0 = p1 = -den and s = 0.
    nums = p.nums
    out = [(c + i * p1) * u + (i + 1) * p0 * v
           for i, (u, v) in enumerate(zip_longest(nums, nums[1:], fillvalue=0))]
    if s:  # the second-order term, zero in the q_k shift
        for i, (u, w) in enumerate(zip_longest(nums, nums[2:], fillvalue=0)):
            out[i] += s * ((i + 1) * (i + 2) * w - i * (i - 1) * u)
    return UniPoly._make(den * p.den, out)


def mass_orthogonal_poly(k: int, alpha, beta, lam, dim: int) -> UniPoly:
    """k-th orthogonal polynomial for inner_jacobi_mass, of exact degree k.

    Its value at 1 is (1/lam) * Gamma(a+d/2+1)/Gamma(d/2) * Gamma(b+k+1)/Gamma(a+b+k+1).
    """
    if k < 0:
        raise ValueError(f"degree must be non-negative, got {k}")
    key = _jacobi_params(alpha, beta)
    c, den = _mass_coefficient(k, *key, _point_mass(lam), dim)
    return _shift(_jacobi(k, *key), den, c, -den, -den)


def jacobi_type_poly(k: int, beta, mass) -> UniPoly:
    """Jacobi-type polynomial [M - (1+t) d/dt + k(k+b+1)] P_k^(0,b); value M at t=1."""
    if k < 0:
        raise ValueError(f"degree must be non-negative, got {k}")
    beta, mass = as_fraction(beta), as_fraction(mass)
    if mass.numerator <= 0:
        raise ValueError(f"mass must be positive, got {mass}")
    r, a, b = _jacobi_params(0, beta)
    # M + k(k+b+1) over the denominator of M times r.
    den = mass.denominator * r
    c = mass.numerator * r + k * (k * r + b + r) * mass.denominator
    return _shift(_jacobi(k, r, a, b), den, c, -den, -den)


def inner_jacobi_type(f: UniPoly, g: UniPoly, beta, mass) -> Fraction:
    """2^-(b+1) * integral of f*g*(1+t)^b over [-1,1] plus (1/M) f(1)g(1).

    The weighted part has total mass 1/(b+1), so this is inner_jacobi_mass at
    a = 0, d = 2, lam = 1/M.
    """
    mass = as_fraction(mass)
    if mass.numerator <= 0:
        raise ValueError(f"mass must be positive, got {mass}")
    return inner_jacobi_mass(f, g, 0, beta, 1 / mass, 2)


def connection_op(f: UniPoly, beta, mass) -> UniPoly:
    """[M - (1-t^2) d^2/dt^2 - (b+1)(1-t) d/dt] f; sends P_k^(0,b) to the Jacobi-type q_k."""
    beta, mass = as_fraction(beta), as_fraction(mass)
    den, coefficients = integer_numerators((mass, -(beta + 1), beta + 1, -1))
    return _shift(f, den, *coefficients)


def conjugate_connection_op(f: UniPoly, beta, mass) -> UniPoly:
    """[M + b + 1 - (1-t^2) d^2/dt^2 - (b-1-(b+3)t) d/dt] f.

    Integration by parts against the point-mass measure turns connection_op
    into this operator; it sends q_k back to a scalar multiple of P_k^(0,b).
    """
    beta, mass = as_fraction(beta), as_fraction(mass)
    den, coefficients = integer_numerators((mass + beta + 1, 1 - beta, beta + 3, -1))
    return _shift(f, den, *coefficients)


def type_eigenvalue(k: int, beta, mass) -> Fraction:
    """(M + k(k+b)) (M + (k+1)(k+b+1)): the fourth-order eigenvalue of q_k."""
    beta, mass = as_fraction(beta), as_fraction(mass)
    return (mass + k * (k + beta)) * (mass + (k + 1) * (k + beta + 1))


def parts_residual(f: UniPoly, g: UniPoly, beta, mass) -> Fraction:
    """Integration-by-parts identity residual; exactly zero for all polynomials f, g.

    Left side: the point-mass-measure integral of g * (connection_op f).
    Right side: the plain weighted integral of f * (conjugate_connection_op g).
    """
    beta, mass = as_fraction(beta), as_fraction(mass)
    lhs = inner_jacobi_type(g, connection_op(f, beta, mass), beta, mass)
    conj = conjugate_connection_op(g, beta, mass)
    rhs = inner_jacobi_type(f, conj, beta, mass) - f.evaluate(1) * conj.evaluate(1) / mass
    return lhs - rhs
