"""Exact orthogonal polynomial bases on the unit ball with a spherical mass term.

The package constructs, in pure rational arithmetic, the classical orthogonal
polynomials for the ball weight (1-||x||^2)^(mu-1/2) and the mutually
orthogonal family for the same weight plus a coupling to the normalized
sphere measure, together with the second- and fourth-order differential
operators that connect the two families and admit them as eigenfunctions.
Every identity is checkable to a literal zero.
"""

from .bases import (
    BallBasisElement,
    BasisIndex,
    basis_export,
    basis_export_text,
    beta_shift,
    classical_basis,
    find_element,
    mass_basis,
    mass_parameter,
    sphere_coupling,
)
from .exact_gamma import ExactnessError, gamma_ratio, rising_factorial
from .harmonics import (
    HarmonicBasis,
    euler_residual,
    harmonic_basis,
    harmonic_space_dim,
    laplace_beltrami_op,
    laplace_beltrami_residual,
    polar_decomposition_residual,
)
from .jacobi import (
    connection_op,
    conjugate_connection_op,
    gram_jacobi_mass,
    gram_schmidt_jacobi_mass,
    inner_jacobi_mass,
    inner_jacobi_type,
    jacobi_derivative_residual,
    jacobi_inner,
    jacobi_ode_residual,
    jacobi_polynomial,
    jacobi_type_poly,
    mass_coefficient,
    mass_orthogonal_poly,
    parts_residual,
    type_eigenvalue,
)
from .measures import (
    ball_moment,
    inner_ball,
    inner_mass,
    inner_sphere,
    mass_gram,
    moment_images,
    sphere_ball_ratio,
    sphere_gram,
    sphere_moment,
)
from .operators import (
    ball_connection_op,
    ball_conjugate_op,
    classical_ball_op,
    euler_op,
    fourth_order_eigenvalue,
    fourth_order_op,
    laplacian,
    radial_connection_residuals,
)
from .polynomials import (
    MultiPoly,
    UniPoly,
    as_fraction,
    radius_squared,
    substitute_radial,
)

__version__ = "0.1.0"
