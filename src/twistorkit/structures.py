"""Positive Hermitian structures on R^(2k) and their twistor-space algebra.

Covers the pointwise layer: orthogonal complex structures J, the bijection
with isotropic k-planes in C^(2k), the SO(2k) action, the vertical tangent
space (skew matrices anticommuting with J) with its own complex structure,
and the holomorphic mu-chart on an open dense subset of the structure space.
"""

from __future__ import annotations

import numpy as np

from .jets import complex_view
from .pairings import is_isotropic_span

STRUCTURE_TOL = 1e-10


class StructureError(ValueError):
    pass


class HermitianStructure:
    """An orthogonal complex structure: J real, J@J = -I, J.T@J = I.

    A (..., 2k, 2k) stack of matrices holds one structure per matrix; each
    is validated, and an error names the first that fails.
    """

    def __init__(self, matrix, tol=STRUCTURE_TOL, check=True):
        J = np.asarray(matrix, dtype=float)
        if J.ndim < 2 or J.shape[-1] != J.shape[-2] or J.shape[-1] % 2:
            raise StructureError(f"need a square even-dimensional matrix, got {J.shape}")
        if check:
            eye = np.eye(J.shape[-1])
            for defect, claim in ((J @ J + eye, "J @ J != -I"),
                                  (J.swapaxes(-1, -2) @ J - eye, "J.T @ J != I")):
                bad = np.abs(defect).max(axis=(-2, -1)) > tol
                if bad.any():
                    where = "" if J.ndim == 2 else f"matrix {np.argwhere(bad)[0].tolist()}: "
                    raise StructureError(f"{where}{claim} within tolerance")
        self.matrix = J

    @property
    def k(self):
        return self.matrix.shape[-1] // 2

    @property
    def dim(self):
        return self.matrix.shape[-1]

    def __repr__(self):
        return f"HermitianStructure(dim={self.dim})"


class IsotropicSubspace:
    """A k-dimensional isotropic subspace of C^(2k), spanned by basis rows."""

    def __init__(self, basis):
        B = np.atleast_2d(np.asarray(basis, dtype=complex))
        k, d = B.shape
        if d != 2 * k:
            raise StructureError(f"basis must be k x 2k, got {B.shape}")
        ok, res = is_isotropic_span(list(B), tol=np.sqrt(STRUCTURE_TOL))
        if not ok:
            raise StructureError(f"rows are not isotropic (residual {res:g})")
        if np.linalg.matrix_rank(B, tol=1e-8) != k:
            raise StructureError("basis rows are rank deficient")
        self.basis = B

    @property
    def k(self):
        return self.basis.shape[0]


def canonical_structure(k):
    """Block-diagonal positive structure sending e_{2i} -> e_{2i+1} (0-based)."""
    if k < 1:
        raise StructureError("k must be >= 1")
    J = np.zeros((2 * k, 2 * k))
    for i in range(k):
        J[2 * i + 1, 2 * i] = 1.0
        J[2 * i, 2 * i + 1] = -1.0
    return HermitianStructure(J, check=False)


def adapted_basis(J):
    """Orthonormal basis b_1, J b_1, ..., b_k, J b_k via greedy Gram-Schmidt.

    Pivots on the coordinate vector with the largest remaining norm, so the
    construction is deterministic and never divides by a small pivot.  For a
    stack of structures, one basis (as columns) per matrix.
    """
    Jm = J.matrix
    n = Jm.shape[-1]
    eye = np.eye(n) + np.zeros(Jm.shape)
    # the first row of each matrix in the stack's rows of n entries
    first = n * np.arange(Jm.size // (n * n)).reshape(Jm.shape[:-2])
    cols = []  # (column, its transpose), each of shape (..., n, 1) and (..., 1, n)
    # Each product of a row and a column is a BLAS dot product, bitwise the
    # 1-D ``@``; np.sum would sum in another order
    # (test_adapted_basis_of_one_matrix_matches_vector_loop_bitwise).
    for _ in range(n // 2):
        resid = eye
        for c, cT in cols:
            resid = resid - c * cT
        norms = np.linalg.norm(resid, axis=-2)
        # resid is symmetric entry by entry, so its row at the pivot is the column
        bT = resid.reshape(-1, n)[first + np.argmax(norms, axis=-1)][..., None, :]
        bT = bT / np.sqrt(bT @ bT.swapaxes(-1, -2))
        b = bT.swapaxes(-1, -2)
        jb = Jm @ b
        for c, cT in cols:
            jb = jb - (cT @ jb) * c
        jb = jb / np.sqrt(jb.swapaxes(-1, -2) @ jb)
        cols.extend([(b, bT), (jb, jb.swapaxes(-1, -2))])
    return np.concatenate([c for c, _ in cols], axis=-1)


def is_positive(J):
    """Whether the orientation induced by an adapted basis is positive; one
    bool per matrix of a stack of structures.

    The assembled frame is orthonormal, so its determinant is +-1 and the
    sign test has no tolerance ambiguity.
    """
    return np.linalg.det(adapted_basis(J)) > 0


def so_action(S, J):
    """Conjugation action S . J = S J S^(-1) of the orthogonal group; S and J
    broadcast over stacks of matrices."""
    S = np.asarray(S, dtype=float)
    if np.max(np.abs(S.swapaxes(-1, -2) @ S - np.eye(S.shape[-1]))) > 1e-8:
        raise StructureError("S is not orthogonal within tolerance")
    return HermitianStructure(S @ J.matrix @ S.swapaxes(-1, -2))


def to_isotropic(J):
    """The (1,0)-eigenspace {u - i J u} of a structure, as basis rows."""
    B = adapted_basis(J)
    rows = []
    for i in range(J.k):
        u = B[:, 2 * i]
        rows.append(u - 1j * (J.matrix @ u))
    return IsotropicSubspace(np.array(rows))


def from_isotropic(F):
    """The unique structure acting as +i on F and -i on its conjugate.

    Computed through the Hermitian projector P onto F: J = i (P - conj(P)),
    which is real whenever F is isotropic of full rank and meets its
    conjugate trivially.  No basis choice inside F is needed.
    """
    B = F.basis if isinstance(F, IsotropicSubspace) else np.atleast_2d(np.asarray(F, complex))
    k, d = B.shape
    stacked = np.vstack([B, np.conj(B)])
    if np.linalg.matrix_rank(stacked, tol=1e-8) != 2 * k:
        raise StructureError("subspace meets its conjugate nontrivially")
    ok, res = is_isotropic_span(list(B), tol=1e-8)
    if not ok:
        raise StructureError(f"subspace is not isotropic (residual {res:g})")
    gram = np.conj(B) @ B.T
    P = B.T @ np.linalg.solve(gram, np.conj(B))
    J = 1j * (P - np.conj(P))
    if np.max(np.abs(J.imag)) > 1e-9:
        raise StructureError("projector construction produced a non-real J")
    return HermitianStructure(J.real)


def mj_residual(lam, J):
    """Distance of a matrix from the vertical space at J.

    Frobenius norm of the symmetric part plus that of the anticommutator
    with J; zero exactly on skew matrices anticommuting with J.
    """
    lam = np.asarray(lam, dtype=float)
    Jm = J.matrix
    return float(np.linalg.norm(lam + lam.T) + np.linalg.norm(lam @ Jm + Jm @ lam))


def mj_basis(J):
    """Orthonormal basis of the vertical space, via an SVD null space.

    The space has dimension k(k-1), matching dim SO(2k)/U(k).
    """
    n = J.matrix.shape[0]
    Jm = J.matrix
    rows = []
    E = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            E[a, b] = 1.0
            sym = E + E.T
            ac = E @ Jm + Jm @ E
            rows.append(np.concatenate([sym.ravel(), ac.ravel()]))
            E[a, b] = 0.0
    C = np.array(rows).T  # columns are constraint values of the E_{ab} basis
    _, s, vt = np.linalg.svd(C, full_matrices=True)
    rank = int(np.sum(s > 1e-9 * s[0]))
    return [v.reshape(n, n) for v in vt[rank:]]


def jv_apply(J, lam):
    """The vertical complex structure: lambda -> J @ lambda; squares to -id."""
    if mj_residual(lam, J) > 1e-8:
        raise StructureError("matrix is not in the vertical space at J")
    return J.matrix @ np.asarray(lam, dtype=float)


# ---------------------------------------------------------------------------
# the mu-chart on an open dense subset of the positive structures

def _mu_pairs(k, mu=None):
    """The (i, j) of the entries of mu in M(mu): the strict upper triangle of
    a k x k matrix, row-major.  Checks the length of ``mu`` when given."""
    if mu is not None and len(mu) != k * (k - 1) // 2:
        raise StructureError(f"mu must have length k(k-1)/2 = {k*(k-1)//2}")
    return [(i, j) for i in range(k) for j in range(i + 1, k)]


def mu_matrix(mu, k):
    """Skew k x k complex matrix with the strict upper triangle filled
    row-major from mu."""
    mu = np.asarray(mu, dtype=complex).ravel()
    M = np.zeros((k, k), dtype=complex)
    for m, (i, j) in zip(mu, _mu_pairs(k, mu)):
        M[i, j], M[j, i] = m, -m
    return M


def structure_from_mu(mu, k):
    """Positive structure whose (1,0)-cotangent space is spanned by
    dq^i - M(mu)^i_j dqbar^j; mu = 0 gives the canonical structure."""
    M = mu_matrix(mu, k)
    Mbar = np.conj(M)
    rows = []
    for j in range(k):
        v = np.zeros(2 * k, dtype=complex)
        v[2 * j] += 0.5
        v[2 * j + 1] += -0.5j
        for i in range(k):
            if Mbar[i, j] != 0:
                v[2 * i] += 0.5 * Mbar[i, j]
                v[2 * i + 1] += 0.5j * Mbar[i, j]
        rows.append(v)
    return from_isotropic(IsotropicSubspace(np.array(rows)))


def mu_from_structure(J):
    """Chart coordinates of a structure in the mu-chart (defined off a
    measure-zero set where the chart degenerates)."""
    k = J.k
    F = to_isotropic(J).basis
    # columns: the d/dq and d/dqbar components of the (0,1)-basis conj(F)
    A = complex_view(np.conj(F)).T
    Bm = np.conj(complex_view(F)).T
    if abs(np.linalg.det(Bm)) < 1e-12:
        raise StructureError("structure is outside the mu-chart")
    M = A @ np.linalg.inv(Bm)
    if np.max(np.abs(M + M.T)) > 1e-8:
        raise StructureError("recovered chart matrix is not skew")
    return np.array([M[i, j] for i, j in _mu_pairs(k)])


def twistor_chart(q, mu):
    """Chart map (q, J(mu)) -> (w, mu) with w = q - M(mu) qbar.

    Works on plain complex vectors and on jet-valued inputs alike; ``q`` is a
    length-k sequence and ``mu`` a length-k(k-1)/2 sequence.
    """
    k = len(q)
    mu = list(mu)
    # (entry, sign) of M(mu) at (i, j), i != j
    entry = {}
    for m, (i, j) in zip(mu, _mu_pairs(k, mu)):
        entry[i, j], entry[j, i] = (m, 1.0), (m, -1.0)
    w = []
    for i in range(k):
        wi = q[i]
        for j in range(k):
            if i != j:
                m, sign = entry[i, j]
                qbar = q[j].conj() if hasattr(q[j], "conj") else np.conj(q[j])
                wi = wi - sign * m * qbar
        w.append(wi)
    return w, mu
