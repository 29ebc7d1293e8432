"""Pointwise residual evaluators for map properties between flat spaces.

Every checker returns a nonnegative residual that vanishes exactly when the
property holds at the sample point.  Derivatives come from jets, so residuals
of polynomial maps are exact to rounding.

Conventions: pairings of Wirtinger derivatives are complex-bilinear over the
full 2n real components (see ``pairings``).  The totally-umbilic test alone
consumes the C^n-identified derivative vectors: maps like
(z^2 + zbar, z^2 + zbar) are proportional in that view, while their
real-component derivative pairs stay independent because of the
anti-holomorphic content.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .jets import (
    Jet,
    JetError,
    _horner,
    _laplace_trace,
    complex_view,
    dz,
    dz_vectors,
    dzbar,
    gradient,
    laplacian,
)
from .pairings import bilinear_dot

REGULAR_SV_RATIO = 1e-6


@dataclass
class CheckReport:
    """Result of sweeping one property check over a point set."""

    name: str
    points: list
    residuals: list
    tolerance: float
    aux: dict = field(default_factory=dict)

    @property
    def max_residual(self):
        """Largest residual: NaN if any residual is NaN or there is none, inf
        if any is infinite."""
        if not self.residuals:
            return math.nan
        return float(np.max(np.asarray(self.residuals, dtype=float)))

    @property
    def passed(self):
        """Every residual exists, is finite and is within the tolerance."""
        worst = self.max_residual
        return math.isfinite(worst) and worst <= self.tolerance

    def summary(self):
        flag = "pass" if self.passed else "FAIL"
        if not self.residuals:
            outcome = "no residuals"
        elif not math.isfinite(self.max_residual):
            outcome = f"non-finite residual ({self.max_residual})"
        else:
            outcome = f"max residual {self.max_residual:.3e}"
        return (f"{flag}  {self.name}: {outcome} "
                f"(tol {self.tolerance:.1e}, {len(self.points)} points)")


def conformality_residual(phi, z0):
    """|<dz phi, dz phi>| for a map from a surface; 0 iff weakly conformal."""
    if phi.domain_dim != 2:
        raise JetError("conformality_residual needs a 2-dimensional domain")
    (v,) = dz_vectors(phi, z0, 1)
    return abs(bilinear_dot(v, v))


def weak_conformality(phi, x0):
    """Best-fit conformality factor and the Gram deviation |dphi^T dphi - L I|.

    The factor is trace(dphi^T dphi)/dim; residual 0 means conformal at the
    point or a branch point (factor 0 forces dphi = 0).
    """
    D = phi.jacobian(x0)
    m2 = phi.domain_dim
    G = D.T @ D
    lam = float(np.trace(G)) / m2
    return lam, float(np.linalg.norm(G - lam * np.eye(m2)))


def pluriconformality_residual(phi, x0):
    """max |<dphi(dz_i), dphi(dz_j)>| over i <= j; 0 for holomorphic maps."""
    m = phi.domain_dim // 2
    grad = gradient(phi.jets(x0, 1))
    vs = [dz(grad, i) for i in range(m)]
    worst = 0.0
    for i in range(m):
        for j in range(i, m):
            worst = max(worst, abs(bilinear_dot(vs[i], vs[j])))
    return worst


def harmonicity_residual(phi, x0, order=2):
    """Euclidean norm of the flat tension field (the componentwise Laplacian)."""
    return float(np.linalg.norm(laplacian(phi, x0, order=order)))


def real_isotropy_residual(phi, z0, R, mode="full"):
    """max |<dz^r phi, dz^s phi>| over the requested index set, m = 1 only.

    ``mode="full"`` sweeps 1 <= r <= s <= R; ``mode="diagonal"`` only r = s,
    which suffices by the isotropy-reduction lemma.
    """
    if phi.domain_dim != 2:
        raise JetError("real_isotropy_residual needs a 2-dimensional domain")
    if mode not in ("full", "diagonal"):
        raise ValueError(f"unknown mode {mode!r}")
    vecs = dz_vectors(phi, z0, R)
    worst = 0.0
    for r in range(1, R + 1):
        for s in range(r, R + 1):
            if mode == "diagonal" and s != r:
                continue
            worst = max(worst, abs(bilinear_dot(vecs[r - 1], vecs[s - 1])))
    return worst


def umbilic_residual(phi, z0):
    """Degree of independence of the first two C-identified dz derivatives.

    Smallest over largest singular value of the 2 x n matrix with rows the
    C^n views of dz phi and dz^2 phi; 0 iff they are linearly dependent.
    A constant map (both rows zero) is degenerate and reports 0 by
    convention.
    """
    if phi.domain_dim != 2:
        raise JetError("umbilic_residual needs a 2-dimensional domain")
    v1, v2 = dz_vectors(phi, z0, 2)
    A = np.array([complex_view(v1), complex_view(v2)])
    s = np.linalg.svd(A, compute_uv=False)
    if s[0] < 1e-14:
        return 0.0
    return float(s[-1] / s[0])


def hwc_residual(phi, x0):
    """Horizontal weak conformality through the Gram identity.

    Returns (factor, |dphi dphi^T - factor I|): the differential maps the
    orthogonal complement of its kernel conformally onto the target iff the
    residual vanishes; a zero differential passes with factor 0.
    """
    D = phi.jacobian(x0)
    n2 = phi.codomain_dim
    G = D @ D.T
    lam = float(np.trace(G)) / n2
    return lam, float(np.linalg.norm(G - lam * np.eye(n2)))


def hwc_residual_svd_oracle(phi, x0):
    """Independent horizontal-space check of horizontal weak conformality.

    Builds the horizontal space explicitly as the span of the right singular
    vectors with nonzero singular value and tests that dphi maps it
    conformally onto the target; kept as a cross-check for the Gram form.
    """
    D = phi.jacobian(x0)
    n2 = phi.codomain_dim
    u, s, vt = np.linalg.svd(D)
    if s[0] < 1e-14:
        return 0.0, 0.0
    horiz = vt[: np.sum(s > REGULAR_SV_RATIO * s[0])]
    img = np.array([D @ h for h in horiz])
    G = img @ img.T
    lam = float(np.trace(G)) / G.shape[0]
    res = float(np.linalg.norm(G - lam * np.eye(G.shape[0])))
    if img.shape[0] < n2:  # not surjective: cannot map onto the target
        res = max(res, float(s[0] ** 2))
    return lam, res


def harmonic_morphism_residual(phi, x0, order=2):
    """(harmonicity residual, horizontal-conformality residual); the map is a
    harmonic morphism at the point iff both vanish."""
    harm = harmonicity_residual(phi, x0, order=order)
    _, hwc = hwc_residual(phi, x0)
    return harm, hwc


def pullback_harmonic_oracle(phi, g_coeffs, x0, order=2):
    """|Laplacian of Re(g(phi))| for a holomorphic polynomial g, targets C.

    Harmonic morphisms to C are exactly the maps for which this vanishes for
    every harmonic g; it is the definitional oracle for
    :func:`harmonic_morphism_residual`.
    """
    if phi.codomain_dim != 2:
        raise JetError("pullback oracle needs codomain C")
    (w,) = phi.complex_jets(x0, max(order, 2))
    g = _horner(g_coeffs, w)
    if not isinstance(g, Jet):
        return 0.0  # constant polynomial
    return abs(_laplace_trace(g.real))


def one_one_geodesic_residual(phi, x0, order=2):
    """max over i, j of |d^2 phi / dz_i dzbar_j|; 0 iff all mixed Wirtinger
    Hessians vanish (flat Kaehler domain)."""
    m = phi.domain_dim // 2
    jets = phi.jets(x0, max(order, 2))
    worst = 0.0
    for i in range(m):
        grad = gradient([dz(j, i) for j in jets])
        for jj in range(m):
            worst = max(worst, float(np.linalg.norm(dzbar(grad, jj))))
    return worst


def holomorphy_residual(phi, J_dom, J_tgt, x0):
    """|dphi J_dom - J_tgt dphi| (Frobenius); 0 iff (J_dom, J_tgt)-holomorphic."""
    D = phi.jacobian(x0)
    A = np.asarray(getattr(J_dom, "matrix", J_dom), dtype=float)
    B = np.asarray(getattr(J_tgt, "matrix", J_tgt), dtype=float)
    if A.shape[0] != phi.domain_dim or B.shape[0] != phi.codomain_dim:
        raise JetError("structure dimensions do not match the map")
    return float(np.linalg.norm(D @ A - B @ D))


def is_regular_point(phi, x0, ratio=REGULAR_SV_RATIO):
    """Whether the differential has full rank up to the singular-value ratio.

    Checks that require regularity should report "degenerate" below this
    threshold instead of a pass/fail verdict.
    """
    D = phi.jacobian(x0)
    s = np.linalg.svd(D, compute_uv=False)
    return bool(s[0] > 0 and s[min(D.shape) - 1] > ratio * s[0])
