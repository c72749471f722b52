"""Exact spherical harmonics: closed-form bases, orthogonality, and the angular Laplacian.

Run with:  python demos/harmonics_tour.py
"""

from orthoball import (
    harmonic_basis,
    harmonic_space_dim,
    inner_sphere,
    laplace_beltrami_op,
    laplacian,
)

# ---------------------------------------------------------------------------
# The degree-m harmonics are the kernel of the Laplacian on homogeneous
# polynomials; their count follows a two-binomial formula.
# ---------------------------------------------------------------------------
print("Dimensions of the harmonic spaces:")
for d in (2, 3, 4):
    dims = [harmonic_space_dim(d, m) for m in range(7)]
    print(f"  d={d}: {dims}")

# ---------------------------------------------------------------------------
# The exact bases, kept with integer coefficients.  Elements are mutually
# orthogonal under the normalized sphere product; norms are recorded exactly.
# ---------------------------------------------------------------------------
print("\nBasis of degree-3 harmonics in three variables:")
basis = harmonic_basis(3, 3)
for Y, norm in zip(basis.elements, basis.sphere_norms):
    assert laplacian(Y).is_zero()
    print(f"  {str(Y):48s}  squared sphere norm {norm}")

print("\nGram matrix over the sphere (diagonal by construction):")
els = basis.elements
for i in range(len(els)):
    row = [inner_sphere(els[i], els[j]) for j in range(len(els))]
    print("  " + "  ".join(f"{str(v):>7}" for v in row))

# ---------------------------------------------------------------------------
# The angular Laplacian acts on each harmonic as the scalar -m(m+d-2); on
# ||x||^2, which restricts to a constant on the sphere, it gives zero.
# ---------------------------------------------------------------------------
print("\nAngular Laplacian eigenvalues (image = scalar * Y):")
for m in range(1, 5):
    Y = harmonic_basis(3, m).elements[0]
    image = laplace_beltrami_op(Y)
    print(f"  m={m}: image == {-m * (m + 1)} * Y  ->  {image == -m * (m + 1) * Y}")
