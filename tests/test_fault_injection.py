"""Fault injection: a deliberately broken library must make the verifier fail.

Each row of ``MUTANTS`` changes one line of a copy of ``src/`` and runs the
CLI on that copy in a subprocess.  The run must exit 1 and report ``FAIL`` on
exactly the named identities, so every one of them can still catch the fault,
and no other identity fails for a reason the row does not name.  A row with no
named identity records a mutant that no identity catches: its run must still
pass, so a verifier that starts catching it makes the row name what does.  This is
mutation testing in the sense of DeMillo, Lipton & Sayward (1978).
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from orthoball.verify import _IDENTITIES

SRC = Path(__file__).resolve().parent.parent / "src"


class Mutant(NamedTuple):
    name: str
    module: str  # file under src/orthoball
    line: str  # the one line to replace
    replacement: str
    argv: list[str]
    fails: set[str]  # exactly the identities that must FAIL; empty for a surviving mutant


MUTANTS = [
    # The 1/4 of the damped -(1/4)(1-||x||^2) Delta, the coefficients inner and outer of both
    # connection operators' kernel calls and of no classical one; the radial and univariate
    # forms keep their own copies and still pass.
    Mutant(
        "damped-laplacian-quarter",
        "operators.py",
        "_QUARTER = Fraction(1, 4)\n",
        "_QUARTER = Fraction(1, 3)\n",
        ["--dim", "2", "--max-degree", "2", "--suites", "connection,fourth-order"],
        {"connection-forward", "connection-backward", "connection-lift", "fourth-order-eigen"},
    ),
    # An off-by-one in the running numerator product of r_i = (a+1)_i / (a+b+2)_i, the factor
    # (A + i r) = r (a + i) at r (a + i + 1), in the Jacobi moment table: the products fix only
    # the table's denominator D, and where the wrong D misses a factor of a moment's denominator,
    # N = P_m D / Q_m rounds down.  Radial products are wrong, but still positive on q_k.
    Mutant(
        "jacobi-moment-pochhammer-step",
        "jacobi.py",
        "            tops.append(tops[-1] * (a + i * r))\n",
        "            tops.append(tops[-1] * (a + i * r + r))\n",
        ["--dim", "2", "--max-degree", "2", "--suites", "jacobi,krall1d"],
        {"pointmass-orthogonality", "pointmass-gram-schmidt"},
    ),
    # The m r c_(m-1) P_(m-1) term of the moments' Pearson recurrence at (m+1) r c_(m-1) P_(m-1):
    # every moment from t^2 on is wrong, so no q_k is orthogonal, but every norm stays positive.
    Mutant(
        "jacobi-moment-recurrence",
        "jacobi.py",
        "            low, top = top, (b - a) * top + m * r * (m * r + a + b + r) * low\n",
        "            low, top = top, (b - a) * top + (m + 1) * r * (m * r + a + b + r) * low\n",
        ["--dim", "2", "--max-degree", "2", "--suites", "jacobi,krall1d"],
        {"pointmass-gram-schmidt", "pointmass-orthogonality"},
    ),
    # A wrong cached total mass G(d/2+a+1) G(b+1) / (G(d/2) G(a+b+2)) of the point-mass weight,
    # at G(a+b+3) (G the Gamma function), which unbalances the Jacobi part against lam * delta_1.
    # The classical norms read the same constant, but this run builds no ball basis.
    Mutant(
        "pointmass-total-mass",
        "jacobi.py",
        "        _TOTAL_MASSES[key] = _mass_gamma(dim, alpha, beta, beta + 1, alpha + beta + 2)\n",
        "        _TOTAL_MASSES[key] = _mass_gamma(dim, alpha, beta, beta + 1, alpha + beta + 3)\n",
        ["--dim", "2", "--max-degree", "2", "--suites", "jacobi,krall1d"],
        {"pointmass-orthogonality", "pointmass-gram-schmidt"},
    ),
    # The Laplacian's second partials lowering one exponent field of the packed monomial but
    # not the total-degree field: the exponents read back right, but the degree and grlex
    # order do not.  A harmonic's Laplacian still cancels to zero, and the second-order kernel
    # reads no Laplacian key, so only the polar decomposition, whose composed side is built
    # from the Laplacian, sees it.
    Mutant(
        "partial-keeps-total-degree",
        "polynomials.py",
        "                key = k - 2 * (top + (1 << shift))\n",
        "                key = k - 2 * (1 << shift)\n",
        ["--dim", "2", "--max-degree", "2"],
        {"polar-decomposition"},
    ),
    # The Laplace-Beltrami residual's E coefficient 2 - d at 1 - d, so its grade factor
    # g(g+d-2) is g(g+d-1): no harmonic solves the eigen-equation, and the polar residual,
    # which reads this one, no longer matches its composed side.
    Mutant(
        "angular-laplacian-grade",
        "harmonics.py",
        "    return _second_order(p, 1, degree * (degree + p.dim - 2), 2 - p.dim, -1, 0, 1)\n",
        "    return _second_order(p, 1, degree * (degree + p.dim - 2), 1 - p.dim, -1, 0, 1)\n",
        ["--dim", "2", "--max-degree", "2", "--suites", "harmonics"],
        {"laplace-beltrami-eigen", "polar-decomposition"},
    ),
    # The second-order kernel's result over its coefficients' denominator alone, not times
    # p's: the result is right only for integer p.  The harmonic callers pass den = 1 and the
    # harmonics are primitive integer rows, so only the polar decomposition of the random
    # homogeneous polynomials, drawn over a common denominator, sees it.
    Mutant(
        "angular-drops-denominator",
        "polynomials.py",
        "    return MultiPoly._make(dim, den * p.den, out)\n",
        "    return MultiPoly._make(dim, den, out)\n",
        ["--dim", "3", "--max-degree", "3", "--suites", "harmonics"],
        {"polar-decomposition"},
    ),
    # The second-order kernel's in-grade second partial lowering x_i by one, not two: every
    # caller with a Laplacian term is wrong, the angular and the ball operators alike.  The
    # Euler operator has none, and the harmonics' own Laplacian check reads ``laplacian``.
    Mutant(
        "second-order-lowering",
        "polynomials.py",
        "                    key = k - (2 << shift)\n",
        "                    key = k - (1 << shift)\n",
        ["--dim", "2", "--max-degree", "2"],
        {"classical-second-order-eigen", "connection-backward", "connection-forward",
         "connection-lift", "fourth-order-eigen", "laplace-beltrami-eigen", "polar-decomposition"},
    ),
    # The second-order kernel's inner Delta p landing one grade low, not two: only callers
    # with an inner coefficient, the ball operators, read it; Delta_0 has ||x||^2 Delta alone.
    Mutant(
        "second-order-inner-step",
        "polynomials.py",
        "        down = 2 << top_shift\n",
        "        down = 1 << top_shift\n",
        ["--dim", "2", "--max-degree", "2"],
        {"classical-second-order-eigen", "connection-backward", "connection-forward",
         "connection-lift", "fourth-order-eigen"},
    ),
    # A UniPoly left with a common factor in den and nums: equal polynomials stop comparing
    # equal, but every value, is_zero test and canonical text is unchanged, and the verifier
    # reads UniPolys only through those, so the run passes.
    Mutant(
        "unipoly-skips-gcd",
        "polynomials.py",
        "        g = gcd(den, *nums)\n",
        "        g = 1\n",
        ["--dim", "2", "--max-degree", "2"],
        set(),
    ),
    # The divergence sum_j d/dx_j (x_j h) = (d + E) h with one d too few, in the classical
    # operator's grade scalar -(d+g)(2mu-1+g) = -ds - (d+s) g - g^2, s = 2mu-1: both of the
    # kernel call's coefficients that read d.  Only the classical eigen-identity applies it.
    Mutant(
        "classical-op-divergence-dim",
        "operators.py",
        "    den, coefficients = integer_numerators((-p.dim * s, -(p.dim + s), -1, 1, 0))\n",
        "    den, coefficients = integer_numerators((-(p.dim - 1) * s, -(p.dim - 1 + s), -1, 1, 0))\n",
        ["--dim", "2", "--max-degree", "2"],
        {"classical-second-order-eigen"},
    ),
    # Horner substitution that forgets the denominator, so each composed polynomial is scaled
    # by it.  Orthogonality survives scaling and both Gram diagonals compare a norm with
    # itself; at this size only the lift, which substitutes random rational polynomials,
    # sees the scale.
    Mutant(
        "compose-drops-denominator",
        "polynomials.py",
        "        return result * Fraction(1, self.den)\n",
        "        return result\n",
        ["--dim", "2", "--max-degree", "2"],
        {"connection-lift"},
    ),
    # The sphere part of R(s) shifted by one step: only the mass product reads lam times it,
    # and the mass Gram diagonal no longer equals the norm of the product form.
    Mutant(
        "radial-sphere-part",
        "measures.py",
        "    return 1 / part(dim + 2 * mu + 1) + lam / part(dim)\n",
        "    return 1 / part(dim + 2 * mu + 1) + lam / part(dim + 2)\n",
        ["--dim", "2", "--max-degree", "2"],
        {"mass-gram-diagonal", "mass-gram-offdiagonal", "mass-product-factorization"},
    ),
    # The ball part of R(s) at mu + 1/2: every ball product, and the sphere at mu = -1/2.
    # Both Gram diagonals see it against the norms of the product form.
    Mutant(
        "radial-ball-part",
        "measures.py",
        "    return 1 / part(dim + 2 * mu + 1) + lam / part(dim)\n",
        "    return 1 / part(dim + 2 * mu + 2) + lam / part(dim)\n",
        ["--dim", "2", "--max-degree", "2"],
        {"ball-weight-recurrence", "classical-gram-diagonal", "classical-gram-offdiagonal",
         "classical-lower-degree", "mass-gram-diagonal", "mass-gram-offdiagonal",
         "mass-product-factorization", "sphere-moment-consistency"},
    ),
    # The closed-form harmonic's x_d-denominator (a+2i)! one factor too big, written over
    # the common denominator (a+2I)!: the numerator factor (a+2I)!/(a+2i)! at
    # (a+2I+1)!/(a+2i+1)!, that fault times the constant a+2I+1.  From degree 2 on h_e is
    # not harmonic: both harmonic identities fail, and with them most checks on the ball
    # bases built from it.  The Fischer product equals the sphere product only on harmonics,
    # so the recorded norms disagree with the moment table and both Gram diagonals fail.
    Mutant(
        "cauchy-harmonic-denominator",
        "harmonics.py",
        "    last_factor = [(-1) ** i * factorial(i) * prod(range(a + 2 * i + 1, last + 1))\n",
        "    last_factor = [(-1) ** i * factorial(i) * prod(range(a + 2 * i + 2, last + 2))\n",
        ["--dim", "2", "--max-degree", "2"],
        {"classical-gram-diagonal", "classical-gram-offdiagonal", "classical-lower-degree",
         "classical-second-order-eigen", "connection-backward", "connection-forward",
         "fourth-order-eigen", "harmonic-laplace", "laplace-beltrami-eigen", "mass-gram-diagonal",
         "mass-gram-offdiagonal", "mass-product-factorization"},
    ),
    # N(a) = prod_i (2 a_i - 1)!! with (2 a_i + 1)!! per axis: every ball and sphere moment.
    Mutant(
        "double-factorial-step",
        "measures.py",
        "        n *= prod(range((packed & _FIELD_MASK) - 1, 0, -2))\n",
        "        n *= prod(range((packed & _FIELD_MASK) + 1, 0, -2))\n",
        ["--dim", "2", "--max-degree", "2"],
        {"ball-weight-recurrence", "classical-gram-diagonal", "classical-gram-offdiagonal",
         "classical-lower-degree", "mass-gram-diagonal", "mass-gram-offdiagonal",
         "mass-product-factorization", "sphere-moment-consistency"},
    ),
    # The moment table reads r at the total degree 2|a| instead of the half-degree |a|, and
    # sizes itself by the same shift: every ball and sphere moment past degree 0.
    Mutant(
        "moment-table-half-degree",
        "measures.py",
        "    return packed >> (dim * _FIELD + 1)\n",
        "    return packed >> (dim * _FIELD)\n",
        ["--dim", "2", "--max-degree", "2"],
        {"ball-weight-recurrence", "classical-gram-diagonal", "classical-gram-offdiagonal",
         "classical-lower-degree", "mass-gram-diagonal", "mass-gram-offdiagonal",
         "mass-product-factorization", "sphere-moment-consistency"},
    ),
    # A regrown moment table that keeps the entries of the table it replaces, each still on
    # the old common denominator: products read before and after a regrow disagree, so
    # neither Gram diagonal matches the norm of the product form.
    Mutant(
        "moment-table-stale-entries",
        "measures.py",
        "        super().__init__()\n",
        "        super().__init__(_TABLES.get((dim, mu, lam), ()))\n",
        ["--dim", "2", "--max-degree", "2"],
        {"ball-weight-recurrence", "classical-gram-diagonal", "classical-gram-offdiagonal",
         "classical-lower-degree", "mass-gram-diagonal", "mass-gram-offdiagonal",
         "mass-product-factorization", "sphere-moment-consistency", "unit-mass"},
    ),
    # The integer Gram-Schmidt kernel's projection coefficient (L / N_j) (H_k . W_j) without the
    # division by the norm N_j: from degree 2 on in d = 3 the harmonics stop being
    # sphere-orthogonal, and the ball bases built from them stop being orthogonal.  The radial
    # Gram-Schmidt runs on the same kernel.
    Mutant(
        "gram-schmidt-drops-norm",
        "polynomials.py",
        "            f = common // sq * dot\n",
        "            f = common * dot\n",
        ["--dim", "3", "--max-degree", "3"],
        {"classical-gram-offdiagonal", "harmonic-sphere-orthogonality", "mass-gram-offdiagonal",
         "pointmass-gram-schmidt"},
    ),
    # The kernel's update H_k + sum_j c_j U_j instead of H_k - sum_j c_j U_j: from degree 2 on
    # in d = 3 the harmonics stop being sphere-orthogonal, and so do the ball bases built on
    # them and the radial Gram-Schmidt rows.
    Mutant(
        "gram-schmidt-update-sign",
        "polynomials.py",
        "                v[i] -= f * c\n",
        "                v[i] += f * c\n",
        ["--dim", "3", "--max-degree", "3"],
        {"classical-gram-offdiagonal", "harmonic-sphere-orthogonality", "mass-gram-offdiagonal",
         "pointmass-gram-schmidt"},
    ),
    # A Gram entry over Dj D instead of Di Dj D: the zeros stay zero, but every entry in the
    # row of an element with a denominator is scaled by it, the diagonal too.
    Mutant(
        "gram-entry-drops-row-denominator",
        "measures.py",
        "            gram[j][i] = row[j] = Fraction(total, p.den * polys[j].den * table.den) if total else zero\n",
        "            gram[j][i] = row[j] = Fraction(total, polys[j].den * table.den) if total else zero\n",
        ["--dim", "3", "--max-degree", "3"],
        {"classical-gram-diagonal", "mass-gram-diagonal", "mass-product-factorization"},
    ),
    # The image kernel's moment block read with its rows mirrored, M[v][u'] for M[v][u] with u'
    # the mirror of u among the parity class's keys: every key sum is still one of the class,
    # but each member's numerators meet the wrong moments.  From degree 2 in d = 3 a class holds
    # two harmonics, which stop being sphere-orthogonal under it; every ball Gram, the lower-
    # degree images and the single products read the same block and are wrong too.
    Mutant(
        "gram-block-mirrored-rows",
        "measures.py",
        "        block = [[table[u + v] for u in keys] for v in columns.get(parity, ())]\n",
        "        block = [[table[u + v] for u in reversed(keys)] for v in columns.get(parity, ())]\n",
        ["--dim", "3", "--max-degree", "3"],
        {"classical-gram-diagonal", "classical-gram-offdiagonal", "classical-lower-degree",
         "harmonic-sphere-orthogonality", "mass-gram-diagonal", "mass-gram-offdiagonal",
         "mass-product-factorization", "product-symmetry"},
    ),
    # The radial Jacobi parameter beta_k = n - 2k + (d-2)/2 one unit too big.
    Mutant(
        "beta-shift",
        "polynomials.py",
        "    return Fraction(2 * (n - 2 * k) + dim - 2, 2)\n",
        "    return Fraction(2 * (n - 2 * k) + dim, 2)\n",
        ["--dim", "2", "--max-degree", "2"],
        {"classical-gram-diagonal", "classical-gram-offdiagonal", "classical-lower-degree",
         "classical-second-order-eigen", "connection-backward", "connection-forward",
         "connection-radial", "eigenvalue-forms", "fourth-order-eigen", "mass-gram-diagonal",
         "mass-gram-offdiagonal", "mass-product-factorization"},
    ),
    # The point-mass shift a_k with k (k + alpha + beta + 2) for k (k + alpha + beta + 1), on
    # integers k (k r + A + B + 2r) for k (k r + A + B + r).
    Mutant(
        "mass-coefficient",
        "jacobi.py",
        "    return top * (a + r) + k * (k * r + a + b + r) * bottom, bottom * (a + r)\n",
        "    return top * (a + r) + k * (k * r + a + b + 2 * r) * bottom, bottom * (a + r)\n",
        ["--dim", "2", "--max-degree", "2"],
        {"connection-backward", "connection-forward", "fourth-order-eigen", "mass-gram-offdiagonal",
         "pointmass-gram-schmidt", "pointmass-normalization", "pointmass-orthogonality",
         "pointmass-type-agreement"},
    ),
    # The classical norm factor c_m = (d/2)_m / (d/2 + mu + 1/2)_m, the point-mass weight's total
    # mass at beta_k, read at beta_k + 1 (the key's B + r), which is c_(m+1): each classical norm
    # is wrong, and only the Gram diagonal compares it with a product on the ball.
    Mutant(
        "classical-norm-factor",
        "bases.py",
        "        return p, _functional(p, p, key, _total_mass(dim, key))\n",
        "        return p, _functional(p, p, key, _total_mass(dim, (key[0], key[1], key[2] + key[0])))\n",
        ["--dim", "2", "--max-degree", "2"],
        {"classical-gram-diagonal"},
    ),
    # The mass norm's radial product at coupling 2 lam: the basis is right, its norms are not.
    Mutant(
        "mass-norm-coupling",
        "bases.py",
        "        return q, inner_jacobi_mass(q, q, alpha, beta, lam, dim)\n",
        "        return q, inner_jacobi_mass(q, q, alpha, beta, 2 * lam, dim)\n",
        ["--dim", "2", "--max-degree", "2"],
        {"mass-gram-diagonal"},
    ),
    # A single product over Dg D instead of Df Dg D: zeros stay zero and unit-mass and
    # positivity read polynomials over 1, so only the symmetry of random rational pairs sees it.
    Mutant(
        "product-drops-left-denominator",
        "measures.py",
        "    return Fraction(total, f.den * g.den * table.den)\n",
        "    return Fraction(total, g.den * table.den)\n",
        ["--dim", "2", "--max-degree", "2"],
        {"product-symmetry"},
    ),
    # The (n + a - 1) of the coefficient z of P_(n-2) in the Jacobi three-term recurrence at
    # (n + a), here ((n-1)r + A) at (nr + A) on integers: from degree 2 on P_n is neither
    # normalized nor a solution of its ODE, and every radial family built on it breaks with
    # it.  P_2 moves by a constant, which d/dt does not see, so the derivative identity needs
    # degree 3.
    Mutant(
        "jacobi-recurrence-low-term",
        "jacobi.py",
        "    z = -2 * ((n - 1) * r + a) * ((n - 1) * r + b) * s\n",
        "    z = -2 * (n * r + a) * ((n - 1) * r + b) * s\n",
        ["--dim", "2", "--max-degree", "3", "--suites", "jacobi,krall1d"],
        {"jacobi-derivative", "jacobi-normalization", "jacobi-ode", "pointmass-gram-schmidt",
         "pointmass-normalization", "pointmass-orthogonality"},
    ),
    # The radial form's image without its point mass lam * f(1) g(1): the q_k are no longer
    # orthogonal and the Gram-Schmidt, which reads the same image, leaves them behind, but
    # every squared norm stays positive.
    Mutant(
        "radial-gram-drops-point-mass",
        "jacobi.py",
        "        width, total = len(nums), point * sum(nums)\n",
        "        width, total = len(nums), 0\n",
        ["--dim", "2", "--max-degree", "2", "--suites", "jacobi,krall1d"],
        {"pointmass-gram-schmidt", "pointmass-orthogonality"},
    ),
    # The kernel's update adding the projections instead of subtracting them, seen from the
    # radial layer: the rows stop being orthogonal to the lower degrees, but each keeps its
    # degree and a positive leading coefficient.
    Mutant(
        "radial-gram-schmidt-update-sign",
        "polynomials.py",
        "                v[i] -= f * c\n",
        "                v[i] += f * c\n",
        ["--dim", "2", "--max-degree", "2", "--suites", "jacobi,krall1d"],
        {"pointmass-gram-schmidt"},
    ),
    # The kernel's projection coefficient L / N_j * <t^k, u_j> without the division by the
    # norm N_j, seen from the radial layer: every projection is scaled by N_j, so the rows are
    # no longer orthogonal.  Only the Gram-Schmidt check builds them.
    Mutant(
        "radial-gram-schmidt-drops-norm",
        "polynomials.py",
        "            f = common // sq * dot\n",
        "            f = common * dot\n",
        ["--dim", "2", "--max-degree", "2", "--suites", "jacobi,krall1d"],
        {"pointmass-gram-schmidt"},
    ),
    # The (b+1)(1-t) d/dt term of the univariate connection operator at (b+2), in both of its
    # line-kernel coefficients p0 and p1: P_k no longer maps to q_k, its integration by parts
    # fails with it, and so does the ball lift.
    Mutant(
        "connection-op-first-order",
        "jacobi.py",
        "    den, coefficients = integer_numerators((mass, -(beta + 1), beta + 1, -1))\n",
        "    den, coefficients = integer_numerators((mass, -(beta + 2), beta + 2, -1))\n",
        ["--dim", "2", "--max-degree", "2"],
        {"connection-lift", "connection-univariate", "parts-identity"},
    ),
    # The Gamma ratio 2 G(a + b) / (G(a) G(b)) with G(a + b + 1) on top: only the mass ratio
    # reads it.
    Mutant(
        "sphere-ball-ratio-base",
        "measures.py",
        "    return 2 * gamma_ratio((half_dim + shifted, 1), (half_dim, shifted))\n",
        "    return 2 * gamma_ratio((half_dim + shifted + 1, 1), (half_dim, shifted))\n",
        ["--dim", "2", "--max-degree", "2"],
        {"sphere-ball-ratio"},
    ),
    # Gamma(top) / Gamma(bottom) at a negative gap as (top)_(-gap) in place of its inverse.  At
    # mu = 3/2 (a = 1) in d = 2 the total mass G(b+1) / G(b+3), the start of the shift's Gamma
    # part and the normalization's G(b+k+1) / G(b+k+2) all have a negative gap, so the q_k
    # are neither orthogonal nor normalized.
    Mutant(
        "gamma-ratio-negative-gap",
        "exact_gamma.py",
        "                    num, den = num * c ** -gap, den * prod(range(start, start - gap * c, c))\n",
        "                    num, den = num * prod(range(start, start - gap * c, c)), den * c ** -gap\n",
        ["--dim", "2", "--mu", "3/2", "--max-degree", "2", "--suites", "jacobi,krall1d"],
        {"pointmass-gram-schmidt", "pointmass-normalization", "pointmass-orthogonality"},
    ),
    # Each harmonic element plus the constant 1, off its grade m.  From m = 1 on the Euler
    # residual sees the constant times -m, the Laplace-Beltrami residual sees it times
    # m(m+d-2), and every two elements of a degree gain the sphere product <1, 1> = 1.  The
    # recorded norms come from the unshifted rows and stay positive.
    Mutant(
        "harmonic-element-off-grade",
        "harmonics.py",
        "            ortho.append(MultiPoly._make(dim, 1, dict(zip(keys, u))))\n",
        "            ortho.append(MultiPoly._make(dim, 1, dict(zip(keys, u))) + 1)\n",
        ["--dim", "3", "--max-degree", "3", "--suites", "harmonics"],
        {"euler-identity", "harmonic-sphere-orthogonality", "laplace-beltrami-eigen"},
    ),
    # The subtracted binomial C(m+d-3, d-1) of dim H_m at d-2: only the count of the built
    # basis is compared with the formula.
    Mutant(
        "harmonic-dimension-binomial",
        "harmonics.py",
        "    second = comb(degree + dim - 3, dim - 1) if degree + dim - 3 >= 0 else 0\n",
        "    second = comb(degree + dim - 3, dim - 2) if degree + dim - 3 >= 0 else 0\n",
        ["--dim", "2", "--max-degree", "2"],
        {"harmonic-dimension"},
    ),
    # Each recorded sphere norm with the wrong sign: the harmonics are right, but every norm
    # of the product form that reads <Y, Y>_sphere is negated with it.
    Mutant(
        "harmonic-norm-sign",
        "harmonics.py",
        "            norms.append(Fraction(sq, sphere_den))\n",
        "            norms.append(Fraction(-sq, sphere_den))\n",
        ["--dim", "2", "--max-degree", "2"],
        {"classical-gram-diagonal", "harmonic-norm-positive", "mass-gram-diagonal",
         "mass-product-factorization"},
    ),
    # The Fischer weight e! at prod_i (e_i + 1)!: the product is still diagonal and positive,
    # but no longer the sphere product over one constant, so from degree 2 in d = 3 the
    # Gram-Schmidt leaves sphere-orthogonality behind and every ball Gram sees the norms.
    Mutant(
        "fischer-weight-shift",
        "harmonics.py",
        "    return prod(factorial(e) for e in _unpack(packed, dim))\n",
        "    return prod(factorial(e + 1) for e in _unpack(packed, dim))\n",
        ["--dim", "3", "--max-degree", "3"],
        {"classical-gram-diagonal", "classical-gram-offdiagonal", "harmonic-sphere-orthogonality",
         "mass-gram-diagonal", "mass-gram-offdiagonal", "mass-product-factorization"},
    ),
    # The sphere norm's denominator d (d+2) ... (d+2m-2) with one factor d + 2m too many: the
    # harmonics are right and their norms positive, but every ball norm that reads
    # <Y, Y>_sphere is off by that factor against the moment table.
    Mutant(
        "fischer-norm-denominator",
        "harmonics.py",
        "    sphere_den = prod(range(dim, dim + 2 * degree, 2))\n",
        "    sphere_den = prod(range(dim, dim + 2 * degree + 2, 2))\n",
        ["--dim", "2", "--max-degree", "2"],
        {"classical-gram-diagonal", "mass-gram-diagonal", "mass-product-factorization"},
    ),
    # The sphere part of R(s) subtracted: the mass product is no longer positive on the
    # monomials of degree 4, and the ball and sphere products alone are unchanged.
    Mutant(
        "radial-sphere-sign",
        "measures.py",
        "    return 1 / part(dim + 2 * mu + 1) + lam / part(dim)\n",
        "    return 1 / part(dim + 2 * mu + 1) - lam / part(dim)\n",
        ["--dim", "2", "--max-degree", "2"],
        {"mass-gram-diagonal", "mass-gram-offdiagonal", "mass-product-factorization",
         "product-positivity", "unit-mass"},
    ),
    # A basis of degree n without its top radial index k = n // 2: what is left is still
    # orthogonal and still solves every eigen-identity, so only the count sees it.
    Mutant(
        "basis-drops-top-radial",
        "bases.py",
        "    for k in range(n // 2 + 1):\n",
        "    for k in range(n // 2):\n",
        ["--dim", "2", "--max-degree", "2"],
        {"classical-dimension"},
    ),
    # A harmonic norm recorded as 2 <Y, Y>_sphere: the element's own norm and every Gram
    # entry are unchanged, so only the product form that reads it sees the fault.
    Mutant(
        "harmonic-sq-norm-doubled",
        "bases.py",
        "            out.append(BallBasisElement(index, radial * Y, weight * y_norm, y_norm, q))\n",
        "            out.append(BallBasisElement(index, radial * Y, weight * y_norm, 2 * y_norm, q))\n",
        ["--dim", "2", "--max-degree", "2"],
        {"mass-product-factorization"},
    ),
    # A radial factor recorded as 2 q_k: the element's polynomial and norm are built from the
    # right q_k, so only the product form that reads the factor sees the fault.
    Mutant(
        "radial-factor-doubled",
        "bases.py",
        "            out.append(BallBasisElement(index, radial * Y, weight * y_norm, y_norm, q))\n",
        "            out.append(BallBasisElement(index, radial * Y, weight * y_norm, y_norm, 2 * q))\n",
        ["--dim", "2", "--max-degree", "2"],
        {"mass-product-factorization"},
    ),
    # q_k = a_k P_k - (1+t) P_k' without the derivative, in the composed form in place of the
    # shift kernel: degree k + 1, and every check on the point-mass family and on the mass
    # basis built from it fails.  jacobi_type_poly still calls the kernel, so the two
    # families disagree.
    Mutant(
        "pointmass-drops-derivative",
        "jacobi.py",
        "    return _shift(_jacobi(k, *key), den, c, -den, -den)\n",
        "    p = _jacobi(k, *key); return Fraction(c, den) * p - UniPoly([1, 1]) * p\n",
        ["--dim", "2", "--max-degree", "2"],
        {"connection-backward", "connection-forward", "fourth-order-eigen", "mass-gram-offdiagonal",
         "pointmass-degree", "pointmass-gram-schmidt", "pointmass-normalization",
         "pointmass-orthogonality", "pointmass-type-agreement"},
    ),
    # The Jacobi-type shift M + k(k + b + 1) at M + k(k + b), on integers k (k r + B) for
    # k (k r + B + r): the type family leaves the mass family at a = 0 and its connection.
    Mutant(
        "jacobi-type-shift",
        "jacobi.py",
        "    c = mass.numerator * r + k * (k * r + b + r) * mass.denominator\n",
        "    c = mass.numerator * r + k * (k * r + b) * mass.denominator\n",
        ["--dim", "2", "--max-degree", "2"],
        {"connection-radial", "connection-univariate", "pointmass-type-agreement"},
    ),
    # The line kernel c f + (p0 + p1 t) f' + s (1-t^2) f'' without its p1 t f' term: both q_k
    # families, both connection operators and the Jacobi ODE read the kernel.  The q_k still
    # agree with each other, so pointmass-type-agreement passes, but neither family is
    # orthogonal, normalized or connected to P_k any more.
    Mutant(
        "shift-kernel-drops-t-term",
        "jacobi.py",
        "    out = [(c + i * p1) * u + (i + 1) * p0 * v\n",
        "    out = [c * u + (i + 1) * p0 * v\n",
        ["--dim", "2", "--max-degree", "2"],
        {"connection-backward", "connection-forward", "connection-lift", "connection-radial",
         "connection-univariate", "fourth-order-eigen", "jacobi-ode", "mass-gram-offdiagonal",
         "parts-identity", "pointmass-gram-schmidt", "pointmass-normalization",
         "pointmass-orthogonality"},
    ),
    # The line kernel's s (1-t^2) f'' with i^2 for i (i-1) at t^i, so s t^2 f'' is wrong: the
    # q_k shift has s = 0 and passes; the Jacobi ODE and both connection operators do not.
    Mutant(
        "line-kernel-second-order",
        "jacobi.py",
        "            out[i] += s * ((i + 1) * (i + 2) * w - i * (i - 1) * u)\n",
        "            out[i] += s * ((i + 1) * (i + 2) * w - i * i * u)\n",
        ["--dim", "2", "--max-degree", "2"],
        {"connection-lift", "connection-univariate", "jacobi-ode", "parts-identity"},
    ),
    # The shift a_k's k! / (a+1)_k at k! / (a+2)_k, through the running product's step factor
    # a + k at a + k + 1 (on integers, A + j r at A + r + j r): at a = 1 every q_k with k >= 1 is
    # wrong, but of degree k and with a positive norm.
    Mutant(
        "mass-coefficient-binomial",
        "jacobi.py",
        "                parts.append(parts[-1] * Fraction((b + j * r) * j * r, (a + b + j * r) * (a + j * r)))\n",
        "                parts.append(parts[-1] * Fraction((b + j * r) * j * r, (a + b + j * r) * (a + r + j * r)))\n",
        ["--dim", "2", "--mu", "3/2", "--max-degree", "2", "--suites", "jacobi,krall1d"],
        {"pointmass-gram-schmidt", "pointmass-normalization", "pointmass-orthogonality"},
    ),
    # The Euler residual's kernel call scales each grade g by g + 1 - m instead of g - m, so
    # E scales it by its degree plus one.  The angular calls carry their own coefficients, so
    # among the harmonic identities only the Euler identity reads this one.
    Mutant(
        "euler-op-degree",
        "harmonics.py",
        "    return _second_order(p, 1, -degree, 1, 0, 0, 0)\n",
        "    return _second_order(p, 1, 1 - degree, 1, 0, 0, 0)\n",
        ["--dim", "2", "--max-degree", "2", "--suites", "harmonics"],
        {"euler-identity"},
    ),
]


# The identities that no row kills, each with the reason no one-line fault can.
UNKILLED = {
    "fourth-order-negative-control":
        "1 + x1 leaves a zero residual only if the operator gives 1 and x1 one eigenvalue and "
        "Lambda(1, 0) equals it: two faults at once",
}


def test_every_identity_is_killed_or_named():
    killed = set().union(*(m.fails for m in MUTANTS))
    assert killed <= set(_IDENTITIES)
    assert set(_IDENTITIES) - killed == set(UNKILLED)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_is_killed(mutant, tmp_path):
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = src / "orthoball" / mutant.module
    text = path.read_text()
    assert text.count(mutant.line) == 1, "the mutated line must occur exactly once"
    path.write_text(text.replace(mutant.line, mutant.replacement))

    proc = subprocess.run(
        [sys.executable, "-m", "orthoball.cli", *mutant.argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert proc.returncode == (1 if mutant.fails else 0), proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    failed = {r["identity"] for r in records if r["type"] == "check" and r["status"] == "FAIL"}
    assert failed == mutant.fails
    assert records[-1]["status"] == ("fail" if mutant.fails else "pass")
