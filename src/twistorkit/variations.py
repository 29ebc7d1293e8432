"""First-order (Jacobi) residuals for one-parameter families of maps.

A family phi(t, x) enters the jet system with t as one extra leading
variable; every "vanishes to first order in t" clause then becomes an exact
coefficient test on the joint jet, with no finite differencing in t.  Flat
targets throughout: the tension field is the componentwise Laplacian and the
Jacobi operator has no curvature term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import (
    Jet,
    JetError,
    JetSpace,
    _complex_pairs,
    _laplace_trace,
    _real_split,
    gradient,
    laplacian,
    stack,
    values,
)
from .pairings import _modulus, worst_residual


@dataclass
class MapFamily:
    """phi(t, x) through a joint jet evaluator.

    ``evaluator(x0, space_order)`` returns the real output components (one
    vector jet, or scalar jets that ``jets`` stacks) in the 1 + 2m variables
    (t, x_1, ..., x_2m) at base point (0, x0), with total order space_order
    + 1 so that every required t-coefficient is exact.  At an (N, 2m) array
    of points x0 the jets are batched, with base point (0, x0[r]) in row r.
    phi(0, .) must evaluate identically to the embedded base map.
    """

    domain_dim: int
    codomain_dim: int
    evaluator: object

    def jets(self, x0, space_order):
        x0 = np.asarray(x0, dtype=float)
        return stack(self.evaluator(x0, space_order))

    @classmethod
    def affine(cls, phi0, v):
        """The family phi0 + t v of a base map and a variation field."""
        if phi0.domain_dim != v.domain_dim or phi0.codomain_dim != v.codomain_dim:
            raise JetError("base map and variation dimensions differ")

        def evaluator(x0, space_order):
            order = space_order + 1
            space = JetSpace(_family_base(x0), order)
            return (_embed(phi0.jets(x0, order), space)
                    + space.var(0) * _embed(v.jets(x0, order), space))

        return cls(phi0.domain_dim, phi0.codomain_dim, evaluator)

    @classmethod
    def from_complex(cls, m, n, fn):
        """Family from a function of (t, z_1, ..., z_m) jet variables; ``t``
        is handed over as a real jet."""

        def evaluator(x0, space_order):
            t, *xs = JetSpace(_family_base(x0), space_order + 1).vars()
            return _real_split(fn(t, *_complex_pairs(xs)))

        return cls(2 * m, 2 * n, evaluator)


def _family_base(x0):
    """The base point (0, x0) of a family's jets, row by row for an (N, 2m)
    array of points."""
    return np.concatenate([np.zeros(x0.shape[:-1] + (1,)), x0], axis=-1)


def _embed(jet, space):
    """Inject a jet in x-variables, of the space's order, into the (t, x)
    space of a family."""
    tgt = space.const(0.0).table
    out = np.zeros(jet.coef.shape[:-1] + (tgt.size,), dtype=complex)
    for pos, alpha in enumerate(jet.table.indices):
        out[..., tgt.position[(0,) + alpha]] = jet.coef[..., pos]
    return Jet(tgt, space.base, out)


@dataclass
class LiftFamily:
    """A map family together with a structure-field family J(t, x)."""

    maps: MapFamily
    structure: object  # (x0, space_order) -> matrix of joint jets

    def structure_jets(self, x0, space_order):
        return stack(self.structure(np.asarray(x0, dtype=float), space_order))


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
    jets = fam.jets(x0, 2)
    return tuple(_laplace_trace(jets, (k,)) for k in (0, 1))


def _family_dz(jets, i):
    """d/dz_i in the space variables of a joint (t, x) jet (0-based pairs)."""
    return (jets.partial(1 + 2 * i) - 1j * jets.partial(2 + 2 * i)) * 0.5


def first_order_residual(fam, x0, kind, R=1):
    """Base and first-order residual of a property along a family.

    ``kind`` is one of:

    - ``"conformal"``: the pairing <dz phi_t, dz phi_t> and its t-derivative
      (surface domain).
    - ``"isotropy"``: max over 1 <= r <= R of the diagonal pairings
      <dz^r phi_t, dz^r phi_t>; the diagonal suffices to first order by the
      isotropy-reduction lemma.
    - ``"psi_holomorphy"``: for a :class:`LiftFamily`, the defect
      d phi_t (J X) - J_t d phi_t X and its t-derivative, maximized over the
      coordinate directions.

    Returns ``(base_residual, t_residual)``.
    """
    if kind == "psi_holomorphy":
        return _psi_holomorphy_residual(fam, x0)
    maps = fam.maps if isinstance(fam, LiftFamily) else fam
    if maps.domain_dim != 2:
        raise JetError("conformal/isotropy families need a surface domain")
    need = 1 if kind == "conformal" else R
    vec = maps.jets(x0, need)
    base, t1 = [], []
    for _ in range(need):
        vec = _family_dz(vec, 0)  # dz^r phi_t for r = 1 .. need
        s = vec @ vec
        base.append(abs(values(s)))
        t1.append(abs(gradient(s)[0]))  # d/dt
    return worst_residual(base), worst_residual(t1)


def _psi_holomorphy_residual(fam, x0):
    jets = fam.maps.jets(x0, 1)
    M = fam.structure_jets(x0, 1)
    dx, dy = jets.partial(1), jets.partial(2)
    base, t1 = [], []
    # domain structure: dx -> dy, dy -> -dx
    for defect, source in ((dy, dx), (-dx, dy)):
        defect = defect - M @ source
        base.extend(_modulus(values(defect)))
        t1.extend(_modulus(gradient(defect)[:, 0]))  # d/dt
    return worst_residual(base), worst_residual(t1)
