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

from .jets import Jet, JetError, JetSpace, _laplace_trace, gradient, values


@dataclass
class MapFamily:
    """phi(t, x) through a joint jet evaluator.

    ``evaluator(x0, space_order)`` returns one jet per real output component
    in the 1 + 2m variables (t, x_1, ..., x_2m) at base point (0, x0), with
    total order space_order + 1 so that every required t-coefficient is
    exact.  phi(0, .) must evaluate identically to the embedded base map.
    """

    domain_dim: int
    codomain_dim: int
    evaluator: object

    def jets(self, x0, space_order):
        x0 = np.asarray(x0, dtype=float)
        return self.evaluator(x0, space_order)

    @classmethod
    def affine(cls, phi0, v):
        """The family phi0 + t v of a base map and a variation field."""
        if phi0.domain_dim != v.domain_dim or phi0.codomain_dim != v.codomain_dim:
            raise JetError("base map and variation dimensions differ")

        def evaluator(x0, space_order):
            base = np.concatenate([[0.0], x0])
            order = space_order + 1
            space = JetSpace(base, order)
            t = space.var(0)
            b = [_embed(j, space) for j in phi0.jets(x0, order)]
            w = [_embed(j, space) for j in v.jets(x0, order)]
            return [bj + t * wj for bj, wj in zip(b, w)]

        return cls(phi0.domain_dim, phi0.codomain_dim, evaluator)

    @classmethod
    def from_complex(cls, m, n, fn):
        """Family from a function of (t, z_1, ..., z_m) jet variables; ``t``
        is handed over as a real jet."""

        def evaluator(x0, space_order):
            base = np.concatenate([[0.0], x0])
            space = JetSpace(base, space_order + 1)
            t = space.var(0)
            xs = [space.var(1 + i) for i in range(2 * m)]
            zs = [xs[2 * j] + 1j * xs[2 * j + 1] for j in range(m)]
            ws = fn(t, *zs)
            if isinstance(ws, Jet):
                ws = [ws]
            out = []
            for w in ws:
                out.append(w.real)
                out.append(w.imag)
            return out

        return cls(2 * m, 2 * n, evaluator)


def _embed(jet, space):
    """Inject a jet in x-variables into the (t, x) space of a family."""
    out = np.zeros(space.const(0.0).table.size, dtype=complex)
    tgt = space.const(0.0).table
    for pos, alpha in enumerate(jet.table.indices):
        if jet.table.degrees[pos] > space.order:
            continue
        out[tgt.position[(0,) + alpha]] = jet.coef[pos]
    return Jet(tgt, space.base, out)


@dataclass
class LiftFamily:
    """A map family together with a structure-field family J(t, x)."""

    maps: MapFamily
    structure: object  # (x0, space_order) -> matrix of joint jets

    def structure_jets(self, x0, space_order):
        return self.structure(np.asarray(x0, dtype=float), space_order)


def jacobi_operator_flat(v, x0, order=2):
    """Flat-target Jacobi operator: minus the componentwise Laplacian of the
    field (the sign convention makes it the linearization of minus the
    tension)."""
    from .jets import laplacian

    return -laplacian(v, x0, order=max(order, 2))


def tension_first_order(fam, x0):
    """(tension of phi_0, d/dt at 0 of the tension of phi_t) at a point.

    For an affine family phi_0 + t v the t-slot equals minus the Jacobi
    operator of v exactly.
    """
    jets = fam.jets(x0, 2)
    tau0 = np.array([_laplace_trace(j, (0,)) for j in jets])
    tau1 = np.array([_laplace_trace(j, (1,)) for j in jets])
    return tau0, tau1


def _family_dz(jets, i):
    """d/dz_i in the space variables of joint (t, x) jets (0-based pairs)."""
    return [(j.partial(1 + 2 * i) - 1j * j.partial(2 + 2 * i)) * 0.5 for j in jets]


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
    jets = maps.jets(x0, need)
    base = t1 = 0.0
    vecs = []
    cur = jets
    for _ in range(need):
        cur = _family_dz(cur, 0)
        vecs.append(cur)
    rng = [1] if kind == "conformal" else range(1, R + 1)
    for r in rng:
        vr = vecs[r - 1]
        s = vr[0] * vr[0]
        for comp in vr[1:]:
            s = s + comp * comp
        v0, v1 = values(s), gradient(s)[0]  # value and d/dt
        base = max(base, abs(v0))
        t1 = max(t1, abs(v1))
    return base, t1


def _psi_holomorphy_residual(fam, x0):
    maps = fam.maps
    jets = maps.jets(x0, 1)
    M = fam.structure_jets(x0, 1)
    n = len(M)
    dx = [j.partial(1) for j in jets]
    dy = [j.partial(2) for j in jets]
    base = t1 = 0.0
    # domain structure: dx -> dy, dy -> -dx
    for target, source in ((dy, dx), ([-c for c in dx], dy)):
        for a in range(n):
            defect = target[a]
            for b in range(n):
                defect = defect - M[a][b] * source[b]
            v0, v1 = values(defect), gradient(defect)[0]
            base = max(base, abs(v0))
            t1 = max(t1, abs(v1))
    return base, t1
