"""Twistor lifts for maps from a surface into R^4 and their vertical residuals.

A lift pairs the base map with the order-1 jets of a Hermitian structure
along it, at the points it was built at.  The strictly compatible lift of a
weakly conformal map rotates the tangent plane (J dphi_x = dphi_y) and sends
the normal part u of dz^2 phi = u + iv to -v; the orientation of the
resulting structure is computed, not assumed.  Where dz^2 phi depends on
dz phi (the umbilic branch) the normal plane is free, and the lift is
A + *A for the tangent 2-form A: on R^4 the positive orthogonal structures
are the unit self-dual 2-forms (Atiyah, Hitchin & Singer 1978), so no normal
frame is chosen; each frame pair is one jet of two stacked rows, and one
order-3 evaluation of the map builds the lift.  The vertical-holomorphy
residuals and the (1,0)-space stability residuals below are the pointwise
shadows of the two twistor-space structures: condition a = 2 corresponds to
harmonicity of the projection, a = 1 to real isotropy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import _as_real_point, dz, dzbar, gradient, merge_rows, split_rows, stack, values
from .pairings import (_dots, _modulus, _norms, _raise_first, _svdvals, _worst_modulus,
                       _worst_norm)
from .structures import HermitianStructure, is_positive

INDEPENDENCE_SV_RATIO = 1e-6


class LiftError(ValueError):
    pass


@dataclass(frozen=True)
class TwistorLift:
    """A map together with the jets of a structure on the target along it.

    ``jets`` is the 2n x 2n matrix of the structure as one order-1 jet in
    the domain variables, at one point or batched at an (N, dim) array of
    points; ``sign`` and ``both_signs_valid`` are per row in a batch.  A
    lift with a fixed structure J is ``TwistorLift(phi, JetSpace(P, 1).const(J))``.
    """

    base_map: object
    jets: object
    sign: int = +1
    both_signs_valid: bool = False

    def structure_jets(self, point, order):
        """The structure matrix as one jet of order 0 or 1 at the points the
        lift was built at, given in real or complex coordinates.  Another
        point, or a higher order, raises LiftError."""
        point = _as_real_point(point, self.base_map.domain_dim)
        base = self.jets.base
        if order > 1 or not np.array_equal(point, base):
            raise LiftError(f"a lift built at {base[..., 0].size} points of shape {base.shape} "
                            f"is read there at order 0 or 1, got order {order} at points of "
                            f"shape {point.shape}")
        return self.jets.truncated(order)

    def structure(self, point):
        """The structure at a point, or the (N, 2n, 2n) stack of them at an
        (N, dim) array of points, validated as one stack whose error names
        the first matrix that fails."""
        return HermitianStructure(values(self.structure_jets(point, 0)).real)


def strictly_compatible_lift_r4(phi, z0):
    """Strictly compatible twistor lift of a weakly conformal map into R^4.

    Requires a finite z0 and dphi(z0) != 0.  When {dz phi, dz^2 phi} are
    linearly independent the structure is unique up to the reported
    orientation sign; when they are dependent (the totally umbilic branch)
    any rotation of the normal plane works, both signs are valid, and the
    positively oriented A + *A is returned.  One order-3 evaluation of phi
    at z0 serves the umbilic test and the order-1 structure the lift keeps.

    At an (N, 2) array of points the lift is built for every row at once:
    ``sign`` and ``both_signs_valid`` become arrays with one entry per row,
    each row takes its own branch, and a row that fails raises LiftError
    naming it.
    """
    if phi.codomain_dim != 4 or phi.domain_dim != 2:
        raise LiftError("strictly compatible lifts are built for maps R^2 -> R^4")
    z0 = _as_real_point(z0, 2)
    finite = np.isfinite(z0).all(axis=-1)
    if finite.size and np.argmin(finite):  # an earlier row may fail first
        strictly_compatible_lift_r4(phi, z0[:np.argmin(finite)])
    _raise_first(LiftError, [(~finite, "the base point is not finite")])
    jets0 = phi.jets(z0, 3)
    grad0 = gradient(jets0)
    umbilic = _umbilic(grad0, dz(grad0, 0), values(dz(dz(jets0, 0), 0)))

    J = _frame_structure(jets0, umbilic)
    sign = np.where(is_positive(HermitianStructure(values(J).real, tol=1e-8)), 1, -1)
    return TwistorLift(phi, J, int(sign) if sign.ndim == 0 else sign, umbilic)


def _umbilic(grad0, d1, d2):
    """Whether dz phi and dz^2 phi are dependent at a point, from the
    gradient and both Wirtinger derivatives there, or at each point of a
    batch of them.  Raises at a branch point, or where phi is not weakly
    conformal, dz phi or dz^2 phi is not finite, or no strictly compatible
    structure exists, checked in that order; a batch raises what its first
    failing row would raise alone, naming the row."""
    dx0, dy0 = grad0[..., 0].real, grad0[..., 1].real
    xx = _dots(dx0, dx0)
    scale = np.fmax(1.0, xx)  # max(1.0, xx): 1.0 where xx is NaN
    branch = np.asarray(_norms(dx0, 1)) < 1e-12
    nonconformal = ~((abs(_dots(dx0, dy0)) <= 1e-6 * scale)
                     & (abs(xx - _dots(dy0, dy0)) <= 1e-6 * scale))
    pairs = np.stack([d1, d2], axis=-2)
    finite = np.isfinite(pairs).all(axis=(-2, -1))
    s = _svdvals(pairs)
    umbilic = s[..., -1] <= INDEPENDENCE_SV_RATIO * s[..., 0]
    a = np.abs(d2)
    bound = 1e-6 * np.fmax(1.0, _dots(a, a))
    anisotropic = ~umbilic & ~((_modulus(np.sum(d1 * d2, axis=-1)) <= bound)
                               & (_modulus(np.sum(d2 * d2, axis=-1)) <= bound))
    _raise_first(LiftError, [
        (branch, "branch point: dphi vanishes at the base point"),
        (nonconformal, "map is not weakly conformal at the base point"),
        (~finite, "dz and dz^2 are not finite at the base point"),
        (anisotropic, "dz and dz^2 do not span an isotropic plane: no strictly compatible "
                      "structure contains both (map is not real isotropic through order 2)")])
    return umbilic


def _frame_structure(jets, umbilic):
    """The order-1 J = A + f4 (x) f3 - f3 (x) f4, with A = f2 (x) f1 - f1 (x) f2,
    from the order-3 jets of the map at one point or a batch; on the umbilic
    branch J = A + *A, and a batch mixing the branches splits its rows.  Each
    frame pair, f1, f2 and f3, f4, is one (2, 4) jet of rows at order 1."""
    if np.any(umbilic) and not np.all(umbilic):
        on, off = split_rows(umbilic, jets)
        return merge_rows(umbilic, _frame_structure(on, True), _frame_structure(off, False))
    # the coefficients a jet keeps do not depend on those it drops
    low = jets.truncated(2)
    f1, f2 = tangent = _unit(stack([low.partial(0), low.partial(1)]).real)
    A = f2[:, None] * f1 - f1[:, None] * f2
    if np.any(umbilic):
        # the normal plane is free: a unit self-dual 2-form is a positive
        # orthogonal structure, and A + *A is the one through the tangent plane
        return A + A[_STAR_ROWS, _STAR_COLS] * np.broadcast_to(_STAR_SIGNS, A.coef.shape[:-1])
    h = dz(dz(jets, 0), 0)
    f3, f4 = _unit(_project_out(stack([h.real, -h.imag]), tangent))
    return A + f4[:, None] * f3 - f3[:, None] * f4


# The Hodge star on skew 4 x 4 matrices: (*A)[i, j] = eps_ijkl A[k, l] for the
# complementary pair k < l of i, j is _STAR_SIGNS[i, j] * A[_STAR_ROWS, _STAR_COLS][i, j]
_STAR_ROWS = np.array([[0, 2, 1, 1], [2, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]])
_STAR_COLS = np.array([[0, 3, 3, 2], [3, 0, 3, 2], [3, 3, 0, 1], [2, 2, 1, 0]])
_STAR_SIGNS = np.array([[0, 1, -1, 1], [-1, 0, 1, -1], [1, -1, 0, 1], [-1, 1, -1, 0]], float)


def _unit(vec):
    """A vector jet, or each row of a stack along the last axis, over its jet
    norm sqrt(v . v); one reciprocal serves a row, as each ``v / n`` would."""
    return vec * (vec[..., None, :] @ vec[..., :, None])[..., 0, 0].sqrt().reciprocal()[..., None]


def _project_out(vec, frames):
    for f in frames:
        vec = vec - (vec @ f)[..., None] * f
    return vec


def vertical_part(lift, z0, X):
    """Directional derivative of the structure field along a domain vector.

    For flat targets this is the vertical component of the lift derivative;
    it always lands in the vertical space at the current structure.  At an
    (N, 2) array of points X is one vector or one per row, and the result
    has one matrix per row.
    """
    grad = gradient(lift.structure_jets(z0, 1)).real
    return (np.asarray(X, dtype=float)[..., None, None, :] * grad).sum(axis=-1)


def j_vertical_residual(lift, z0, a):
    """Vertical-holomorphy defect of a structure field, a in {1, 2}.

    Frobenius norm of grad_{J0 X} J - (-1)^(a+1) J grad_X J, maximized over
    the two coordinate directions of the surface domain; a = 1 encodes the
    integrable-side condition, a = 2 the one projecting to harmonic maps.
    At an (N, 2) array of points it returns one residual per row.
    """
    if a not in (1, 2):
        raise LiftError("a must be 1 or 2")
    M = lift.structure_jets(z0, 1)
    sgn = 1.0 if a == 1 else -1.0
    J0, grad = values(M).real, gradient(M).real
    dJx, dJy = grad[..., 0], grad[..., 1]
    # J0 on the domain: dx -> dy, dy -> -dx
    return _worst_norm([dJy - sgn * (J0 @ dJx), -dJx - sgn * (J0 @ dJy)], J0.shape[:-2])


def t10_stability_residual(lift, z0, direction="z"):
    """Stability defect of the (1,0)-space of the structure field.

    The largest, over the columns P0 e_c of P0 = (I - i J0) / 2, which span
    the (1,0)-space at the base point, of |Q0 dP e_c| / |P0 e_c|: the part
    of the derivative of P e_c along dz (direction "z") or dzbar ("zbar") in
    the (0,1)-space, Q0 = I - P0.  P^2 = P gives Q0 dP = Q0 dP P0, so it is 0
    iff the derivative of the (1,0)-space stays inside it.  For strict lifts,
    direction "z" corresponds to the a = 1 condition and "zbar" to a = 2.  At
    an (N, 2) array of points it returns one residual per row, NaN in a row
    whose structure is not finite.
    """
    if direction not in ("z", "zbar"):
        raise LiftError("direction must be 'z' or 'zbar'")
    M = lift.structure_jets(z0, 1)
    n = len(M)
    J0 = values(M).real
    dP = (dz if direction == "z" else dzbar)(gradient(M), 0)
    P0 = 0.5 * (np.eye(n) - 1j * J0)
    Q0 = 0.5 * (np.eye(n) + 1j * J0)
    # each column a matrix-vector product on the column's own strides, as
    # one point takes it; |P0 e_c| >= 1/2, the norm of its real part e_c / 2
    defect = [_norms((Q0 @ dP[..., :, c, None])[..., 0], 1) / _norms(P0[..., :, c], 1)
              for c in range(n)]
    return _worst_modulus(defect)
