"""Exact orthogonal polynomial bases on the unit ball with a spherical mass term.

The package constructs, in pure rational arithmetic, the classical orthogonal
polynomials for the ball weight (1-||x||^2)^(mu-1/2) and the mutually
orthogonal family for the same weight plus a coupling to the normalized
sphere measure, together with the second- and fourth-order differential
operators that connect the two families and admit them as eigenfunctions.
Every identity is checkable to a literal zero.

Each public name resolves on first use (PEP 562): ``_EXPORTS`` maps it to the
module that defines it, and that module is imported only when the name is
first read, so ``import orthoball`` loads no layer.
"""

# public name -> the module of the package it is read from
_EXPORTS = {
    "MultiPoly": "polynomials",
    "UniPoly": "polynomials",
    "as_fraction": "polynomials",
    "beta_shift": "polynomials",
    "euler_op": "polynomials",
    "laplacian": "polynomials",
    "mass_parameter": "polynomials",
    "radius_squared": "polynomials",
    "sphere_coupling": "polynomials",
    "substitute_radial": "polynomials",
    "ExactnessError": "exact_gamma",
    "gamma_ratio": "exact_gamma",
    "rising_factorial": "exact_gamma",
    "connection_op": "jacobi",
    "conjugate_connection_op": "jacobi",
    "gram_jacobi_mass": "jacobi",
    "gram_schmidt_jacobi_mass": "jacobi",
    "inner_jacobi_mass": "jacobi",
    "inner_jacobi_type": "jacobi",
    "jacobi_derivative_residual": "jacobi",
    "jacobi_inner": "jacobi",
    "jacobi_ode_residual": "jacobi",
    "jacobi_polynomial": "jacobi",
    "jacobi_type_poly": "jacobi",
    "mass_coefficient": "jacobi",
    "mass_orthogonal_poly": "jacobi",
    "parts_residual": "jacobi",
    "type_eigenvalue": "jacobi",
    "HarmonicBasis": "harmonics",
    "euler_residual": "harmonics",
    "harmonic_basis": "harmonics",
    "harmonic_space_dim": "harmonics",
    "laplace_beltrami_op": "harmonics",
    "laplace_beltrami_residual": "harmonics",
    "polar_decomposition_residual": "harmonics",
    "ball_moment": "measures",
    "inner_ball": "measures",
    "inner_mass": "measures",
    "inner_sphere": "measures",
    "mass_gram": "measures",
    "moment_images": "measures",
    "sphere_ball_ratio": "measures",
    "sphere_gram": "measures",
    "sphere_moment": "measures",
    "BallBasisElement": "bases",
    "BasisIndex": "bases",
    "basis_export": "bases",
    "basis_export_text": "bases",
    "classical_basis": "bases",
    "find_element": "bases",
    "mass_basis": "bases",
    "ball_connection_op": "operators",
    "ball_conjugate_op": "operators",
    "classical_ball_op": "operators",
    "fourth_order_eigenvalue": "operators",
    "fourth_order_op": "operators",
    "radial_connection_residuals": "operators",
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
