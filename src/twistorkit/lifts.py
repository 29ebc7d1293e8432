"""Twistor lifts for maps from a surface into R^4 and their vertical residuals.

A lift pairs the base map with a field of Hermitian structures along it.  The
strictly compatible lift of a weakly conformal map rotates the tangent plane
(J dphi_x = dphi_y) and sends the normal part u of dz^2 phi = u + iv to -v;
the orientation of the resulting structure is computed, not assumed.  The
vertical-holomorphy residuals and the (1,0)-space stability residuals below
are the pointwise shadows of the two twistor-space structures: condition
a = 2 corresponds to harmonicity of the projection, a = 1 to real isotropy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import JetSpace, _as_real_point, dz, dzbar, gradient, values
from .structures import HermitianStructure, is_positive

INDEPENDENCE_SV_RATIO = 1e-6


class LiftError(ValueError):
    pass


@dataclass
class TwistorLift:
    """A map together with a structure field on the target along it.

    ``structure_field(point, order)`` returns the 2n x 2n matrix of the
    structure as jets in the domain variables, truncated at ``order``.
    """

    base_map: object
    structure_field: object
    sign: int = +1
    both_signs_valid: bool = False

    def structure_jets(self, point, order):
        """The structure matrix as jets at a domain point given in real or
        complex coordinates."""
        return self.structure_field(_as_real_point(point, self.base_map.domain_dim), order)

    def structure(self, point):
        return HermitianStructure(values(self.structure_jets(point, 0)).real.copy())


def _dot(u, v):
    """Real inner product of vectors with jet entries."""
    out = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        out = out + a * b
    return out


def _norm(u):
    return _dot(u, u).sqrt()


def strictly_compatible_lift_r4(phi, z0):
    """Strictly compatible twistor lift of a weakly conformal map into R^4.

    Requires dphi(z0) != 0.  When {dz phi, dz^2 phi} are linearly independent
    the structure is unique up to the reported orientation sign; when they
    are dependent (the totally umbilic branch) any rotation of the normal
    plane works, both signs are valid, and the positively oriented choice is
    returned.
    """
    if phi.codomain_dim != 4 or phi.domain_dim != 2:
        raise LiftError("strictly compatible lifts are built for maps R^2 -> R^4")
    jets0 = phi.jets(z0, 2)
    grad0 = gradient(jets0)
    dx0, dy0 = grad0[:, 0].real.copy(), grad0[:, 1].real.copy()
    if np.linalg.norm(dx0) < 1e-12:
        raise LiftError("branch point: dphi vanishes at the base point")
    scale = max(1.0, dx0 @ dx0)
    if abs(dx0 @ dy0) > 1e-6 * scale or abs(dx0 @ dx0 - dy0 @ dy0) > 1e-6 * scale:
        raise LiftError("map is not weakly conformal at the base point")
    d1 = dz(grad0, 0)
    d2 = values([dz(dz(j, 0), 0) for j in jets0])
    rows = np.array([d1, d2])
    s = np.linalg.svd(rows, compute_uv=False)
    umbilic = s[-1] <= INDEPENDENCE_SV_RATIO * s[0]
    if not umbilic:
        iso = max(abs(np.sum(d1 * d2)), abs(np.sum(d2 * d2)))
        if iso > 1e-6 * max(1.0, float(np.abs(d2) @ np.abs(d2))):
            raise LiftError(
                "dz and dz^2 do not span an isotropic plane: no strictly "
                "compatible structure contains both (map is not real "
                "isotropic through order 2)")

    def structure_field(point, order):
        space_jets = phi.jets(point, order + 2)
        f1 = [j.partial(0).real for j in space_jets]
        f2 = [j.partial(1).real for j in space_jets]
        n1 = _norm(f1)
        f1 = [v / n1 for v in f1]
        n2 = _norm(f2)
        f2 = [v / n2 for v in f2]
        if umbilic:
            # normal plane is free: positively oriented completion
            f3 = _complete_frame(f1, f2, point, order + 1)
            f4 = _complete_frame(f1, f2, point, order + 1, skip=f3)
        else:
            u, v = [], []
            for j in space_jets:
                h = dz(dz(j, 0), 0)
                u.append(h.real)
                v.append(h.imag)
            f3 = _project_out(u, [f1, f2])
            n3 = _norm(f3)
            f3 = [w / n3 for w in f3]
            f4 = _project_out([-w for w in v], [f1, f2])
            n4 = _norm(f4)
            f4 = [w / n4 for w in f4]
        if umbilic:
            frame = values([f1, f2, f3, f4]).real.T
            if np.linalg.det(frame) < 0:
                f4 = [-w for w in f4]
        J = [[f2[a] * f1[b] - f1[a] * f2[b] + f4[a] * f3[b] - f3[a] * f4[b]
              for b in range(4)] for a in range(4)]
        return J

    lift = TwistorLift(phi, structure_field, both_signs_valid=umbilic)
    J0 = HermitianStructure(values(lift.structure_jets(z0, 0)).real.copy(), tol=1e-8)
    lift.sign = +1 if is_positive(J0) else -1
    return lift


def _project_out(vec, frames):
    out = list(vec)
    for f in frames:
        c = _dot(out, f)
        out = [o - c * fi for o, fi in zip(out, f)]
    return out


def _complete_frame(f1, f2, point, order, skip=None):
    """First coordinate direction with a large component normal to the span."""
    frames = [f1, f2] + ([skip] if skip is not None else [])
    best, best_norm = None, -1.0
    space = JetSpace(point, order)
    for i in range(4):
        e = [space.const(1.0 if k == i else 0.0) for k in range(4)]
        cand = _project_out(e, frames)
        n = _dot(cand, cand).value.real
        if n > best_norm:
            best_norm, best = n, cand
    return [c / _norm(best) for c in best]


def constant_lift(phi, J):
    """Lift with a structure field constant in the domain variables."""
    Jm = np.asarray(getattr(J, "matrix", J), dtype=float)
    n = Jm.shape[0]

    def structure_field(point, order):
        space = JetSpace(point, order)
        return [[space.const(Jm[a, b]) for b in range(n)] for a in range(n)]

    sign = +1 if is_positive(HermitianStructure(Jm)) else -1
    return TwistorLift(phi, structure_field, sign=sign)


def matrix_field_lift(phi, field_fn, sign=+1):
    """Lift from a user function returning the structure matrix of jets.

    ``field_fn(space)`` receives a :class:`JetSpace` over the domain point
    and returns the 2n x 2n structure matrix with jet entries.
    """

    def structure_field(point, order):
        return field_fn(JetSpace(point, order))

    return TwistorLift(phi, structure_field, sign=sign)


def vertical_part(lift, z0, X, order=1):
    """Directional derivative of the structure field along a domain vector.

    For flat targets this is the vertical component of the lift derivative;
    it always lands in the vertical space at the current structure.
    """
    grad = gradient(lift.structure_jets(z0, max(order, 1))).real
    out = np.zeros(grad.shape[:2])
    for v, xv in enumerate(np.asarray(X, dtype=float)):
        if xv != 0:
            out += xv * grad[..., v]
    return out


def j_vertical_residual(lift, z0, a, order=1):
    """Vertical-holomorphy defect of a structure field, a in {1, 2}.

    Frobenius norm of grad_{J0 X} J - (-1)^(a+1) J grad_X J, maximized over
    the two coordinate directions of the surface domain; a = 1 encodes the
    integrable-side condition, a = 2 the one projecting to harmonic maps.
    """
    if a not in (1, 2):
        raise LiftError("a must be 1 or 2")
    M = lift.structure_jets(z0, max(order, 1))
    J0v = values(M).real.copy()
    sgn = 1.0 if a == 1 else -1.0
    grad = gradient(M).real
    dJx, dJy = grad[..., 0].copy(), grad[..., 1].copy()
    # J0 on the domain: dx -> dy, dy -> -dx
    r1 = np.linalg.norm(dJy - sgn * (J0v @ dJx))
    r2 = np.linalg.norm(-dJx - sgn * (J0v @ dJy))
    return float(max(r1, r2))


def t10_stability_residual(lift, z0, direction="z", order=1):
    """Stability defect of the (1,0)-space of the structure field.

    Differentiates a frame of the (1,0)-space along dz (direction "z") or
    dzbar ("zbar") and measures the component falling into the (0,1)-space
    at the base point; 0 iff the derivative stays inside the (1,0)-space.
    For strict lifts, direction "z" corresponds to the a = 1 condition and
    "zbar" to a = 2.
    """
    if direction not in ("z", "zbar"):
        raise LiftError("direction must be 'z' or 'zbar'")
    M = lift.structure_jets(z0, max(order, 1))
    n = len(M)
    J0 = values(M).real
    P0 = 0.5 * (np.eye(n) - 1j * J0)
    Q0 = 0.5 * (np.eye(n) + 1j * J0)
    # frame columns: P(z) c_j for pivot columns c_j chosen at the base point
    piv = _pivot_columns(P0, n // 2)
    dP = (dz if direction == "z" else dzbar)(gradient(M), 0)
    worst = 0.0
    for c in piv:
        col = P0[:, c]
        scale = np.linalg.norm(col)
        if scale < 1e-12:
            raise LiftError("frame rank deficiency at the base point")
        worst = max(worst, float(np.linalg.norm(Q0 @ dP[:, c]) / scale))
    return worst


def _pivot_columns(P, count):
    norms = np.linalg.norm(P, axis=0)
    order = np.argsort(-norms)
    chosen, basis = [], []
    for c in order:
        v = P[:, c].copy()
        for b in basis:
            v -= (np.conj(b) @ v) * b
        if np.linalg.norm(v) > 1e-8:
            basis.append(v / np.linalg.norm(v))
            chosen.append(int(c))
        if len(chosen) == count:
            break
    if len(chosen) < count:
        raise LiftError("frame rank deficiency at the base point")
    return chosen
