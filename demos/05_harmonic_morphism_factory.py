"""Building a harmonic morphism R^6 -> C from holomorphic twistor data.

The data is a fibred family (z, xi) -> (h(z, xi), mu(z)): the chart image
must be holomorphic, mu independent of xi, and h a local diffeomorphism.
The produced map is the first factor of h^(-1); we validate the data, invert
numerically, and compare against the known closed form.
"""

import numpy as np

from twistorkit import (
    evaluate_morphism,
    harmonic_morphism_residual,
    jacobian_min_sv,
    morphism_as_map,
    verify_chart_holomorphy,
    verify_horizontality,
)
from twistorkit.factory import (
    NewtonRecord,
    cp3_affine_jacobian,
    cp3_constraints_residual,
    cp3_example1_data,
    cp3_local_diffeo_check,
    cp3_morphism_data,
    cp3_point,
    euclid_r6_data,
    implicit_equation_residual,
    invert_h,
)
from twistorkit.jets import real_to_complex_point

rng = np.random.default_rng(0)
data = euclid_r6_data()  # f(z) = z

# ---------------------------------------------------------------------------
# validate the data

samples = np.array([rng.uniform(-0.8, 0.8, 6) for _ in range(30)])
# one residual per sample; the worst of them
print("horizontality (mu independent of xi):", np.max(verify_horizontality(data, samples)))
print("chart holomorphy:                    ", np.max(verify_chart_holomorphy(data, samples)))
print("Jacobian min singular value at 0:    ", jacobian_min_sv(data.h, np.zeros(6)))

# ---------------------------------------------------------------------------
# invert h at a forward-sampled point and watch Newton converge

zxi = rng.uniform(-0.6, 0.6, 6)
q = np.array([j.value.real for j in data.h.jets(zxi, 0)])
rec = NewtonRecord()
y = invert_h(data, q, zxi + 0.05, record=rec)
print("\nNewton residuals per iteration:", [f"{r:.1e}" for r in rec.residuals[0]])

z = evaluate_morphism(data, q, seed_point=zxi + 0.05)[0]
qc = real_to_complex_point(q)
closed = (qc[2] - qc[0] - qc[1]) / (1 + np.conj(qc[0]) - np.conj(qc[1]))
print("produced value:   ", z)
print("closed form:      ", closed)
print("implicit equation:", implicit_equation_residual(z, qc))

# the produced map, with implicit-series derivatives, is a harmonic morphism
mm = morphism_as_map(data, seed_fn=lambda pt: np.zeros(6))
print("harmonic-morphism residuals of the produced map:",
      harmonic_morphism_residual(mm, q))

# ---------------------------------------------------------------------------
# the projective-line data of the flag-manifold construction

print("\nprojective line data")
for name, d in (("polynomial example", cp3_example1_data()),
                ("morphism example", cp3_morphism_data())):
    pt = rng.integers(-16, 17, 6) / 16.0
    print(f"  {name}: constraints residual {cp3_constraints_residual(d, pt)}"
          f", local diffeo sv {cp3_local_diffeo_check(d, np.zeros(6)):.3f}")
print("  morphism-example homogeneous point at xi = 0, z = 0.5:",
      cp3_point(cp3_morphism_data(), np.array([0.5, 0, 0, 0, 0, 0])))
print("  real Jacobian at the origin:\n",
      np.round(cp3_affine_jacobian(cp3_morphism_data(), np.zeros(6)), 12))
