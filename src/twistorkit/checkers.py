"""Pointwise residual evaluators for map properties between flat spaces.

Every checker returns a nonnegative residual that vanishes exactly when the
property holds at the sample point.  Derivatives come from jets, so residuals
of polynomial maps are exact to rounding, and each checker evaluates its map
once: :func:`harmonic_morphism_residual` reads the Laplacian of
:func:`harmonicity_residual` and the Jacobian of :func:`hwc_residual` from
one order-2 jet.  The batch contract of ``pairings`` holds for every checker
here.  At one point each returns a float (or a tuple of floats), and at an
(N, domain_dim) array of points, an empty one included, one residual per row
from one batched jet evaluation, each bitwise the residual at that row's
point.  ``variations.first_order_residual``,
``factory.verify_horizontality``, ``factory.verify_chart_holomorphy``,
``factory.cp3_constraints_residual``, ``factory.cp3_linear_system_residual``,
``factory.cp3_local_diffeo_check``, ``lifts.j_vertical_residual``,
``lifts.t10_stability_residual`` and ``connections.flatness_residual`` meet
it too, and ``factory.cp3_point`` and ``factory.cp3_affine_jacobian`` give
one row of coordinates or one Jacobian per point.  Moduli are taken with
``pairings._modulus`` and norms row by row with ``pairings._norms``.

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
    JetError,
    _horner,
    _laplace_trace,
    complex_view,
    dz,
    dz_vectors,
    dzbar,
    gradient,
)
from .pairings import _modulus, _norms, _per_point, _svdvals, _worst_modulus, bilinear_dot


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
    return _per_point(_modulus(bilinear_dot(v, v)))


def weak_conformality(phi, x0):
    """Best-fit conformality factor and the Gram deviation |dphi^T dphi - L I|.

    The factor is trace(dphi^T dphi)/dim; residual 0 means conformal at the
    point or a branch point (factor 0 forces dphi = 0).
    """
    D = phi.jacobian(x0)
    return _gram_deviation(D.swapaxes(-1, -2) @ D)


def _gram_deviation(G):
    """(trace(G)/n, |G - trace(G)/n I|) for an n x n Gram matrix G: two
    floats, or two arrays for an (N, n, n) stack."""
    n = G.shape[-1]
    lam = np.trace(G, axis1=-2, axis2=-1) / n
    return _per_point(lam), _norms(G - lam[..., None, None] * np.eye(n), 2)


def pluriconformality_residual(phi, x0):
    """max |<dphi(dz_i), dphi(dz_j)>| over i <= j; 0 for holomorphic maps."""
    m = phi.domain_dim // 2
    grad = gradient(phi.jets(x0, 1))
    vs = [dz(grad, i) for i in range(m)]
    return _worst_modulus([bilinear_dot(vs[i], vs[j]) for i in range(m) for j in range(i, m)])


def harmonicity_residual(phi, x0):
    """Euclidean norm of the flat tension field (the componentwise Laplacian)."""
    return _harmonicity(phi.jets(x0, 2))


def _harmonicity(jets):
    """:func:`harmonicity_residual` read from order-2 jets of the map."""
    return _norms(_laplace_trace(jets), 1)


def real_isotropy_residual(phi, z0, R):
    """max |<dz^r phi, dz^s phi>| over 1 <= r <= s <= R, m = 1 only."""
    return real_isotropy_residuals(phi, z0, R)[0]


def real_isotropy_residuals(phi, z0, R):
    """The full residual of :func:`real_isotropy_residual` and the diagonal
    one, max |<dz^r phi, dz^r phi>| over 1 <= r <= R, which suffices by the
    isotropy-reduction lemma; from one evaluation of the dz vectors: the
    diagonal pairings are among the full sweep's."""
    if phi.domain_dim != 2:
        raise JetError("real_isotropy_residual needs a 2-dimensional domain")
    vecs = dz_vectors(phi, z0, R)
    pairings = {(r, s): bilinear_dot(vecs[r], vecs[s]) for r in range(R) for s in range(r, R)}
    return (_worst_modulus(list(pairings.values())),
            _worst_modulus([pairings[r, r] for r in range(R)]))


def umbilic_residual(phi, z0):
    """Degree of independence of the first two C-identified dz derivatives.

    Smallest over largest singular value of the 2 x n matrix with rows the
    C^n views of dz phi and dz^2 phi; 0 iff they are linearly dependent,
    NaN where one is not finite.  A constant map (both rows zero) is
    degenerate and reports 0 by convention.
    """
    if phi.domain_dim != 2:
        raise JetError("umbilic_residual needs a 2-dimensional domain")
    v1, v2 = dz_vectors(phi, z0, 2)
    s = _svdvals(np.stack([complex_view(v1), complex_view(v2)], axis=-2))
    degenerate = s[..., 0] < 1e-14
    return _per_point(np.where(degenerate, 0.0, s[..., -1] / np.where(degenerate, 1.0, s[..., 0])))


def hwc_residual(phi, x0):
    """Horizontal weak conformality through the Gram identity.

    Returns (factor, |dphi dphi^T - factor I|): the differential maps the
    orthogonal complement of its kernel conformally onto the target iff the
    residual vanishes; a zero differential passes with factor 0.  At an
    array of points both are arrays.
    """
    return _hwc(phi.jacobian(x0))


def _hwc(D):
    """:func:`hwc_residual` read from the Jacobian D of the map."""
    return _gram_deviation(D @ D.swapaxes(-1, -2))


def harmonic_morphism_residual(phi, x0):
    """(harmonicity residual, horizontal-conformality residual); the map is a
    harmonic morphism at the point iff both vanish, read from one order-2 jet."""
    jets = phi.jets(x0, 2)
    return _harmonicity(jets), _hwc(gradient(jets).real)[1]


def pullback_harmonic_oracle(phi, g_coeffs, x0):
    """|Laplacian of Re(g(phi))| for a holomorphic polynomial g, targets C.

    Harmonic morphisms to C are exactly the maps for which this vanishes for
    every harmonic g; it is the definitional oracle for
    :func:`harmonic_morphism_residual`.
    """
    if phi.codomain_dim != 2:
        raise JetError("pullback oracle needs codomain C")
    (w,) = phi.complex_jets(x0, 2)
    return _per_point(abs(_laplace_trace(_horner(g_coeffs, w).real)))


def one_one_geodesic_residual(phi, x0):
    """max over i, j of |d^2 phi / dz_i dzbar_j|; 0 iff all mixed Wirtinger
    Hessians vanish (flat Kaehler domain)."""
    m = phi.domain_dim // 2
    jets = phi.jets(x0, 2)
    grads = [gradient(dz(jets, i)) for i in range(m)]
    return _worst_modulus([_norms(dzbar(grad, j), 1) for grad in grads for j in range(m)])


def holomorphy_residual(phi, J_dom, J_tgt, x0):
    """|dphi J_dom - J_tgt dphi| (Frobenius); 0 iff (J_dom, J_tgt)-holomorphic.

    Each structure is a structure or its matrix.  At an (N, domain_dim)
    array of points J_tgt may also give one matrix per row, as a structure
    of an (N, n, n) stack or the stack itself.
    """
    D = phi.jacobian(x0)
    A = np.asarray(getattr(J_dom, "matrix", J_dom), dtype=float)
    B = np.asarray(getattr(J_tgt, "matrix", J_tgt), dtype=float)
    if A.shape[-1] != phi.domain_dim or B.shape[-1] != phi.codomain_dim:
        raise JetError("structure dimensions do not match the map")
    return _norms(D @ A - B @ D, 2)
