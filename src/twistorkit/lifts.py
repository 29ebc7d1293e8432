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

from dataclasses import dataclass, field

import numpy as np

from .jets import (JetSpace, _as_real_point, _map_rows, dz, dzbar, gradient, merge_rows,
                   stack, values, where)
from .pairings import worst_residual
from .structures import HermitianStructure, is_positive

INDEPENDENCE_SV_RATIO = 1e-6


class LiftError(ValueError):
    pass


@dataclass
class TwistorLift:
    """A map together with a structure field on the target along it.

    ``structure_field(point, order)`` returns the 2n x 2n matrix of the
    structure as jets in the domain variables, truncated at ``order``: one
    (2n, 2n) jet or nested sequences.  At an (N, dim) array of points it
    returns batched jets, one row per point.

    The lift keeps the order-1 structure jets of the last point, or point
    array, it was asked for, and serves order-0 and order-1 requests there
    from them: the values of order-0, -1 and -2 jets agree bitwise.
    """

    base_map: object
    structure_field: object
    sign: int = +1
    both_signs_valid: bool = False
    _memo: tuple = field(default=None, init=False, repr=False, compare=False)

    def structure_jets(self, point, order):
        """The structure matrix as one jet at a domain point given in real or
        complex coordinates, or at an (N, dim) array of points.  The
        order-1 matrix is shared with later requests at the same point."""
        point = _as_real_point(point, self.base_map.domain_dim)
        if order > 1:
            return stack(self.structure_field(point, order))
        memo = self._memo
        if memo is None or memo[0].shape != point.shape or memo[0].tobytes() != point.tobytes():
            memo = self._memo = (point.copy(), stack(self.structure_field(point, 1)))
        return memo[1].truncated(order)

    def structure(self, point):
        """The structure at a point, or a list of them, one per row of an
        (N, dim) array of points."""
        J = values(self.structure_jets(point, 0)).real
        if J.ndim == 2:
            return HermitianStructure(J)
        return [HermitianStructure(row) for row in J]


def strictly_compatible_lift_r4(phi, z0):
    """Strictly compatible twistor lift of a weakly conformal map into R^4.

    Requires dphi(z0) != 0.  When {dz phi, dz^2 phi} are linearly independent
    the structure is unique up to the reported orientation sign; when they
    are dependent (the totally umbilic branch) any rotation of the normal
    plane works, both signs are valid, and the positively oriented choice is
    returned.

    At an (N, 2) array of points the lift is built for every row at once:
    ``sign`` and ``both_signs_valid`` become arrays with one entry per row,
    the structure field is evaluated at (N, 2) arrays, each row on its own
    branch, and a row that fails raises LiftError naming it.
    """
    if phi.codomain_dim != 4 or phi.domain_dim != 2:
        raise LiftError("strictly compatible lifts are built for maps R^2 -> R^4")
    z0 = _as_real_point(z0, 2)
    jets0 = phi.jets(z0, 2)
    grad0 = gradient(jets0)
    d1 = dz(grad0, 0)
    d2 = values(dz(dz(jets0, 0), 0))
    batched = z0.ndim > 1
    umbilic = _rows(_umbilic, batched, grad0, d1, d2)

    def structure_field(point, order):
        if np.shape(point)[:-1] != np.shape(umbilic):
            raise LiftError(f"a lift built at {np.size(umbilic)} points is evaluated at "
                            f"points of shape {z0.shape}, got shape {np.shape(point)}")
        if umbilic.all() or not umbilic.any():
            return _frame_structure(phi, point, order, umbilic.any())
        return merge_rows(umbilic, _frame_structure(phi, point[umbilic], order, True),
                          _frame_structure(phi, point[~umbilic], order, False))

    lift = TwistorLift(phi, structure_field, both_signs_valid=umbilic)
    lift.sign = _rows(_orientation, batched, values(lift.structure_jets(z0, 0)).real)
    return lift


def _rows(fn, batched, *arrays):
    """``fn`` of the read-offs at one point, or the array of its results over
    the rows of a batch; a row that raises LiftError is named."""
    if not batched:
        return fn(*arrays)
    return np.array(_map_rows(fn, zip(*arrays), LiftError))


def _umbilic(grad0, d1, d2):
    """Whether dz phi and dz^2 phi are dependent at a point, from the
    gradient and both Wirtinger derivatives there; raises at a branch point,
    a point where phi is not weakly conformal, or one where no strictly
    compatible structure exists."""
    dx0, dy0 = grad0[:, 0].real, grad0[:, 1].real
    if np.linalg.norm(dx0) < 1e-12:
        raise LiftError("branch point: dphi vanishes at the base point")
    scale = max(1.0, dx0 @ dx0)
    if not (abs(dx0 @ dy0) <= 1e-6 * scale and abs(dx0 @ dx0 - dy0 @ dy0) <= 1e-6 * scale):
        raise LiftError("map is not weakly conformal at the base point")
    rows = np.array([d1, d2])
    s = np.linalg.svd(rows, compute_uv=False)
    umbilic = s[-1] <= INDEPENDENCE_SV_RATIO * s[0]
    if not umbilic:
        iso = worst_residual([abs(np.sum(d1 * d2)), abs(np.sum(d2 * d2))])
        if not iso <= 1e-6 * max(1.0, float(np.abs(d2) @ np.abs(d2))):
            raise LiftError(
                "dz and dz^2 do not span an isotropic plane: no strictly "
                "compatible structure contains both (map is not real "
                "isotropic through order 2)")
    return umbilic


def _orientation(J0):
    return +1 if is_positive(HermitianStructure(J0, tol=1e-8)) else -1


def _frame_structure(phi, point, order, umbilic):
    """J = f2 (x) f1 - f1 (x) f2 + f4 (x) f3 - f3 (x) f4 for the frame
    f1, f2 of the tangent plane and f3, f4 of the normal plane at ``point``
    (one point or a batch), on the umbilic branch or the other."""
    jets = phi.jets(point, order + 2)
    # J needs the frame at ``order`` only: a product of truncated jets has
    # the bits of the coefficients it keeps
    f1 = _unit(jets.partial(0).real).truncated(order)
    f2 = _unit(jets.partial(1).real).truncated(order)
    if umbilic:
        # normal plane is free: positively oriented completion
        f3 = _complete_frame(f1, f2, order)
        f4 = _complete_frame(f1, f2, order, skip=f3)
        frame = np.swapaxes(values([f1, f2, f3, f4]).real, -1, -2)
        f4 = where(np.linalg.det(frame) < 0, -f4, f4)
    else:
        h = dz(dz(jets, 0), 0)
        f3 = _unit(_project_out(h.real, (f1, f2)))
        f4 = _unit(_project_out(-h.imag, (f1, f2)))
    return f2[:, None] * f1 - f1[:, None] * f2 + f4[:, None] * f3 - f3[:, None] * f4


def _unit(vec):
    """A vector jet divided by its jet norm sqrt(vec . vec); one
    reciprocal serves every entry, as each ``v / n`` would compute it."""
    return vec * (vec @ vec).sqrt().reciprocal()


def _project_out(vec, frames):
    for f in frames:
        vec = vec - (vec @ f) * f
    return vec


def _complete_frame(f1, f2, order, skip=None):
    """First coordinate direction with a large component normal to the span,
    chosen row by row for a batch."""
    frames = [f1, f2] + ([skip] if skip is not None else [])
    best, best_norm = None, -1.0
    eye = np.broadcast_to(np.eye(4), f1.base.shape[:-1] + (4, 4))
    for e in JetSpace(f1.base, order).const(eye):
        cand = _project_out(e, frames)
        n = (cand @ cand).value.real
        better = n > best_norm
        best = cand if best is None else where(better, cand, best)
        best_norm = np.where(better, n, best_norm)
    return _unit(best)


def vertical_part(lift, z0, X):
    """Directional derivative of the structure field along a domain vector.

    For flat targets this is the vertical component of the lift derivative;
    it always lands in the vertical space at the current structure.  At an
    (N, 2) array of points X is one vector or one per row, and the result
    has one matrix per row.
    """
    grad = gradient(lift.structure_jets(z0, 1)).real
    out = np.zeros(grad.shape[:-1])
    X = np.asarray(X, dtype=float)
    for v in range(X.shape[-1]):
        # a zero component adds +-0.0 to a sum that started at +0.0: no change
        out += X[..., v, None, None] * grad[..., v]
    return out


def j_vertical_residual(lift, z0, a):
    """Vertical-holomorphy defect of a structure field, a in {1, 2}.

    Frobenius norm of grad_{J0 X} J - (-1)^(a+1) J grad_X J, maximized over
    the two coordinate directions of the surface domain; a = 1 encodes the
    integrable-side condition, a = 2 the one projecting to harmonic maps.
    At an (N, 2) array of points it returns one residual per row.
    """
    if a not in (1, 2):
        raise LiftError("a must be 1 or 2")
    z0 = _as_real_point(z0, lift.base_map.domain_dim)
    M = lift.structure_jets(z0, 1)
    sgn = 1.0 if a == 1 else -1.0

    def residual(J0v, grad):
        dJx, dJy = grad[..., 0], grad[..., 1]
        # J0 on the domain: dx -> dy, dy -> -dx
        r1 = np.linalg.norm(dJy - sgn * (J0v @ dJx))
        r2 = np.linalg.norm(-dJx - sgn * (J0v @ dJy))
        return float(worst_residual([r1, r2]))

    return _rows(residual, z0.ndim > 1, values(M).real, gradient(M).real)


def t10_stability_residual(lift, z0, direction="z"):
    """Stability defect of the (1,0)-space of the structure field.

    Differentiates a frame of the (1,0)-space along dz (direction "z") or
    dzbar ("zbar") and measures the component falling into the (0,1)-space
    at the base point; 0 iff the derivative stays inside the (1,0)-space.
    For strict lifts, direction "z" corresponds to the a = 1 condition and
    "zbar" to a = 2.  At an (N, 2) array of points it returns one residual
    per row.
    """
    if direction not in ("z", "zbar"):
        raise LiftError("direction must be 'z' or 'zbar'")
    z0 = _as_real_point(z0, lift.base_map.domain_dim)
    M = lift.structure_jets(z0, 1)
    n = len(M)

    def residual(J0, dP):
        P0 = 0.5 * (np.eye(n) - 1j * J0)
        Q0 = 0.5 * (np.eye(n) + 1j * J0)
        # frame columns: P(z) c_j for pivot columns c_j chosen at the base point
        piv = _pivot_columns(P0, n // 2)
        defects = []
        for c in piv:
            col = P0[:, c]
            scale = np.linalg.norm(col)
            if scale < 1e-12:
                raise LiftError("frame rank deficiency at the base point")
            defects.append(float(np.linalg.norm(Q0 @ dP[:, c]) / scale))
        return worst_residual(defects)

    dP = (dz if direction == "z" else dzbar)(gradient(M), 0)
    return _rows(residual, z0.ndim > 1, values(M).real, dP)


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
