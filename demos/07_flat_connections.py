"""Flat connection forms: zero-curvature residuals and product integration.

A form a is flat when d_i a_j - d_j a_i + [a_i, a_j] = 0; then f^(-1) df = a
has a unique local solution with f(start) = I, realized here by midpoint
product integration (second order, group-valued by construction).
"""

import numpy as np

from twistorkit import LieValuedForm, expm, flatness_residual, integrate_path, path_independence_defect
from twistorkit.connections import maurer_cartan_form, maurer_cartan_value

rng = np.random.default_rng(0)
A = rng.normal(size=(4, 4)); A = A - A.T
B = rng.normal(size=(4, 4)); B = B - B.T

# ---------------------------------------------------------------------------
# Maurer-Cartan pullbacks are flat

form = maurer_cartan_form(A, B)
print("flatness of g^(-1) dg:",
      np.max(flatness_residual(form, rng.uniform(-1, 1, (10, 2)))))

# integrate along a segment and compare with the group element directly
path = np.array([[0.1, -0.2], [0.9, 0.7]])
f = integrate_path(form, path, steps=1000)
ref = np.linalg.inv(maurer_cartan_value(A, B, path[0])) @ maurer_cartan_value(A, B, path[1])
print("integration error vs direct value:", np.linalg.norm(f - ref))
print("stays orthogonal (skew algebra):  ", np.linalg.norm(f.T @ f - np.eye(4)))

# flat forms do not feel the path
sq1 = np.array([[0, 0], [1, 0], [1, 1]], dtype=float)
sq2 = np.array([[0, 0], [0, 1], [1, 1]], dtype=float)
print("path-independence defect:         ",
      path_independence_defect(form, sq1, sq2, 2000))

# ---------------------------------------------------------------------------
# constant forms integrate to the exponential exactly

cform = LieValuedForm.constant([A, np.zeros((4, 4))])
f = integrate_path(cform, np.array([[0.0, 0.0], [2.5, 0.0]]), steps=1000)
print("\nconstant form vs exp(L A):        ", np.linalg.norm(f - expm(2.5 * A)))

# a non-flat form picks up holonomy of size area x curvature
E12 = np.zeros((3, 3)); E12[0, 1] = 1.0


def comps(space):
    x2 = space.var(1)
    zero = space.const(0.0)
    a1 = [[x2 if (a, b) == (0, 1) else zero + 0.0 for b in range(3)] for a in range(3)]
    a2 = [[zero + 0.0 for _ in range(3)] for _ in range(3)]
    return [a1, a2]


nform = LieValuedForm(2, 3, comps)
print("non-flat: flatness residual       ", flatness_residual(nform, [0.3, 0.4]))
print("non-flat: unit-square defect      ",
      path_independence_defect(nform, sq1, sq2, 400), " (area x curvature = 1)")

# convergence order of the integrator on the flat case
errs = [np.linalg.norm(integrate_path(form, path, steps=s) - ref)
        for s in (100, 200, 400)]
print("\nerrors at 100/200/400 steps:", [f"{e:.2e}" for e in errs])
print("observed orders:", [round(float(np.log2(errs[i] / errs[i + 1])), 3) for i in range(2)])
