"""First-order residuals along one-parameter families of maps.

The family parameter t enters the jet system as one extra variable, so every
"vanishes to first order" statement is an exact coefficient test.  The flat
Jacobi identity -- the t-derivative of the tension equals minus the Jacobi
operator of the variation -- holds to the last bit for affine families.
"""

import numpy as np

from twistorkit import (
    SmoothMap,
    affine_family,
    complex_family,
    first_order_residual,
    jacobi_operator_flat,
    tension_first_order,
)

rng = np.random.default_rng(0)

phi0 = SmoothMap.from_real(2, 2, lambda x, y: [x * x * y - y ** 3 / 3, x * y])
v = SmoothMap.from_real(2, 2, lambda x, y: [x * x, x * y * y])
fam = affine_family(phi0, v)
p = rng.uniform(-1, 1, 2)

tau0, tau1 = tension_first_order(fam, p)
print("tension of the base map:        ", tau0)
print("t-derivative of the tension:    ", tau1)
print("Jacobi operator of the field:   ", jacobi_operator_flat(v, p))
print("identity tau1 + J(v) = 0:       ", np.max(np.abs(tau1 + jacobi_operator_flat(v, p))))

# ---------------------------------------------------------------------------
# property residuals to first order

holo_fam = complex_family(1, 1, lambda t, z: [z * z + t * z ** 3])
print("\nholomorphic family z^2 + t z^3")
print("  conformal (base, t):", first_order_residual(holo_fam, p, 1))
print("  isotropy R=3:       ", first_order_residual(holo_fam, p, 3))

mixed = complex_family(1, 1, lambda t, z: [z + t * z.conj()])
print("\nfamily z + t zbar: conformal at t = 0 but not to first order")
print("  conformal (base, t):", first_order_residual(mixed, p, 1))

# a harmonic field along a harmonic map keeps the family harmonic to first order
harm0 = SmoothMap.from_complex(1, 1, lambda z: [z * z])
jacobi_v = SmoothMap.from_real(2, 2, lambda x, y: [x * x - y * y, 2 * x * y])
fam2 = affine_family(harm0, jacobi_v)
print("\nharmonic base + harmonic variation: tension pair",
      tension_first_order(fam2, p))
