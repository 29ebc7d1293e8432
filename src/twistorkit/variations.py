"""First-order (Jacobi) residuals for one-parameter families of maps.

A family phi(t, x) is a :class:`SmoothMap` of the 1 + 2m variables
(t, x_1, ..., x_2m), t first, so it can be evaluated at any t.  The residuals
read its joint jets at (0, x0), where every "vanishes to first order in t"
clause becomes an exact coefficient test, with no finite differencing in t.
Flat targets throughout: the tension field is the componentwise Laplacian and
the Jacobi operator has no curvature term.
"""

from __future__ import annotations

import numpy as np

from .jets import (
    Jet,
    JetError,
    JetSpace,
    SmoothMap,
    _laplace_trace,
    _real_split,
    gradient,
    laplacian,
    values,
)
from .pairings import _worst_modulus


def affine_family(phi0, v):
    """The family phi0 + t v of a base map and a variation field."""
    if phi0.domain_dim != v.domain_dim or phi0.codomain_dim != v.codomain_dim:
        raise JetError("base map and variation dimensions differ")

    def evaluator(point, order):
        space, x = JetSpace(point, order), point[..., 1:]
        return (_embed(phi0.jets(x, order), space)
                + space.var(0) * _embed(v.jets(x, order), space))

    return SmoothMap(1 + phi0.domain_dim, phi0.codomain_dim, evaluator)


def complex_family(m, n, fn):
    """The family of a function of (t, z_1, ..., z_m) jet variables; ``t`` is
    handed over as a real jet."""

    def evaluator(point, order):
        return _real_split(fn(*JetSpace(point, order).complex_vars(real=1)))

    return SmoothMap(1 + 2 * m, 2 * n, evaluator)


def _jets_at_t0(fam, x0, space_order):
    """The jets of a family at (0, x0), of total order space_order + 1 so that
    every t-coefficient up to that space order is exact; at an (N, 2m) array
    of points x0 they are batched, with base point (0, x0[r]) in row r."""
    x0 = np.asarray(x0, dtype=float)
    base = np.concatenate([np.zeros(x0.shape[:-1] + (1,)), x0], axis=-1)
    return fam.jets(base, space_order + 1)


def _embed(jet, space):
    """Inject a jet in x-variables, of the space's order, into the (t, x)
    space of a family."""
    tgt = space.const(0.0).table
    out = np.zeros(jet.coef.shape[:-1] + (tgt.size,), dtype=complex)
    for pos, alpha in enumerate(jet.table.indices):
        out[..., tgt.position[(0,) + alpha]] = jet.coef[..., pos]
    return Jet(tgt, space.base, out)


def jacobi_operator_flat(v, x0):
    """Flat-target Jacobi operator: minus the componentwise Laplacian of the
    field (the sign convention makes it the linearization of minus the
    tension).  At an (N, 2m) array of points, one row per point."""
    return -laplacian(v, x0)


def tension_first_order(fam, x0):
    """(tension of phi_0, d/dt at 0 of the tension of phi_t) at a point.

    For an affine family phi_0 + t v the t-slot equals minus the Jacobi
    operator of v exactly.  At an (N, 2m) array of points both have one row
    per point.
    """
    jets = _jets_at_t0(fam, x0, 2)
    return tuple(_laplace_trace(jets, (k,)) for k in (0, 1))


def first_order_residual(fam, x0, R):
    """Base and first-order isotropy residual along a family of surface maps.

    The max over 1 <= r <= R of the diagonal pairings <dz^r phi_t, dz^r
    phi_t>, and of their t-derivatives; the diagonal suffices to first order
    by the isotropy-reduction lemma, and R = 1 is weak conformality.

    Returns ``(base_residual, t_residual)``: two floats at one point, two
    arrays with one row per point at an (N, 2) array of points.
    """
    if fam.domain_dim != 3:
        raise JetError("first-order residuals need a family of surface maps, "
                       f"domain (t, x, y), got dimension {fam.domain_dim}")
    vec = _jets_at_t0(fam, x0, R)
    base, t1 = [], []
    for _ in range(R):
        vec = (vec.partial(1) - 1j * vec.partial(2)) * 0.5  # dz^r phi_t, r = 1 .. R
        s = vec @ vec
        base.append(values(s))
        t1.append(gradient(s)[..., 0])  # d/dt
    return _worst_modulus(base), _worst_modulus(t1)
