"""Positive Hermitian structures on R^(2k) and their twistor-space algebra.

Covers the pointwise layer: orthogonal complex structures J, the bijection
with isotropic k-planes in C^(2k), the SO(2k) action, the vertical tangent
space (skew matrices anticommuting with J) with its own complex structure,
and the holomorphic mu-chart on an open dense subset of the structure space.

Every function of structures, subspaces or chart coordinates but
:func:`twistor_chart` also takes stacks: a :class:`HermitianStructure` of a
``(..., 2k, 2k)`` stack, an :class:`IsotropicSubspace` of a ``(..., k, 2k)``
stack of bases, and ``(..., k(k-1)/2)`` chart coordinates.  The result
holds one value per matrix, each bitwise that matrix's result alone;
validation runs per matrix, and an error names the first matrix that fails.  numpy's stacked
``matmul``, ``linalg`` and reductions make the same kernel call per matrix
as for one; :func:`to_isotropic` forms J u as one matrix-vector product per
column, because one product with the k columns at once rounds otherwise.
"""

from __future__ import annotations

import numpy as np

from .jets import complex_view
from .pairings import _norms, _triu, is_isotropic_span

STRUCTURE_TOL = 1e-10


class StructureError(ValueError):
    pass


def _require(bad, claim, residual=None):
    """Raise ``StructureError(claim)`` if ``bad`` is set anywhere: one bool
    for one matrix, or one per matrix of a stack, whose error names the
    first failing matrix.  With ``residual``, shaped as ``bad``, the message
    ends with that matrix's residual.  Each test is written so that a NaN
    sets ``bad``: ``~(defect <= tol)``, not ``defect > tol``."""
    bad = np.asarray(bad)
    if bad.any():
        at = np.argwhere(bad)[0].tolist()
        where = f"matrix {at}: " if at else ""
        tail = "" if residual is None else f" (residual {np.asarray(residual)[tuple(at)]:g})"
        raise StructureError(f"{where}{claim}{tail}")


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
                _require(~(np.abs(defect).max(axis=(-2, -1)) <= tol), f"{claim} within tolerance")
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
    """A k-dimensional isotropic subspace of C^(2k), spanned by basis rows;
    a (..., k, 2k) stack of bases holds one subspace per basis."""

    def __init__(self, basis):
        B = np.atleast_2d(np.asarray(basis, dtype=complex))
        k, d = B.shape[-2:]
        if d != 2 * k:
            raise StructureError(f"basis must be k x 2k, got {B.shape}")
        ok, res = is_isotropic_span(B, tol=np.sqrt(STRUCTURE_TOL))
        _require(np.logical_not(ok), "rows are not isotropic", res)
        _require(np.linalg.matrix_rank(B, tol=1e-8) != k, "basis rows are rank deficient")
        self.basis = B

    @property
    def k(self):
        return self.basis.shape[-2]


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
        # resid is symmetric entry by entry, so its row at the pivot is the
        # column; one flat index takes it, where take_along_axis gives the
        # same bits but slows is_positive 10-20 % at ten 6 x 6 structures
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
    _require(~(np.abs(S.swapaxes(-1, -2) @ S - np.eye(S.shape[-1])).max(axis=(-2, -1)) <= 1e-8),
             "S is not orthogonal within tolerance")
    return HermitianStructure(S @ J.matrix @ S.swapaxes(-1, -2))


def to_isotropic(J):
    """The (1,0)-eigenspace {u - i J u} of a structure, as basis rows."""
    B = adapted_basis(J)
    # J u of each column u as its own (n, n) @ (n, 1) product, the matrix-
    # vector product of one column (test_to_isotropic_takes_one_product_per_column)
    rows = [B[..., :, 2 * i] - 1j * (J.matrix @ B[..., :, 2 * i, None])[..., 0]
            for i in range(J.k)]
    return IsotropicSubspace(np.stack(rows, axis=-2))


def from_isotropic(F):
    """The unique structure acting as +i on F and -i on its conjugate.

    Computed through the Hermitian projector P onto F: J = i (P - conj(P)),
    which is real whenever F is isotropic of full rank and meets its
    conjugate trivially.  No basis choice inside F is needed.
    """
    B = F.basis if isinstance(F, IsotropicSubspace) else np.atleast_2d(np.asarray(F, complex))
    k = B.shape[-2]
    _require(~np.isfinite(B).all(axis=(-2, -1)), "basis has a non-finite entry")
    stacked = np.concatenate([B, np.conj(B)], axis=-2)
    _require(np.linalg.matrix_rank(stacked, tol=1e-8) != 2 * k,
             "subspace meets its conjugate nontrivially")
    ok, res = is_isotropic_span(B, tol=1e-8)
    _require(np.logical_not(ok), "subspace is not isotropic", res)
    BT = B.swapaxes(-1, -2)
    gram = np.conj(B) @ BT
    P = BT @ np.linalg.solve(gram, np.conj(B))
    J = 1j * (P - np.conj(P))
    _require(~(np.abs(J.imag).max(axis=(-2, -1)) <= 1e-9),
             "projector construction produced a non-real J")
    return HermitianStructure(J.real)


def mj_residual(lam, J):
    """Distance of a matrix from the vertical space at J: a float, or one
    per matrix of a stack of matrices or of structures.

    Frobenius norm of the symmetric part plus that of the anticommutator
    with J; zero exactly on skew matrices anticommuting with J.
    """
    lam = np.asarray(lam, dtype=float)
    Jm = J.matrix
    return _norms(lam + lam.swapaxes(-1, -2), 2) + _norms(lam @ Jm + Jm @ lam, 2)


def mj_basis(J):
    """Orthonormal basis of the vertical space, via an SVD null space: a
    (k(k-1), 2k, 2k) array, or one basis per structure of a stack.

    The space has dimension k(k-1), matching dim SO(2k)/U(k).  The null
    spaces of a stack must have one dimension, or the result would be ragged.
    """
    Jm = J.matrix[..., None, :, :]
    n = Jm.shape[-1]
    E = np.eye(n * n).reshape(n * n, n, n)  # E[a n + b] is the unit matrix at (a, b)
    sym = E + E.swapaxes(-1, -2)
    ac = E @ Jm + Jm @ E
    flat = ac.shape[:-2] + (n * n,)
    # columns are constraint values of the E_{ab} basis
    C = np.concatenate([np.broadcast_to(sym, ac.shape).reshape(flat), ac.reshape(flat)],
                       axis=-1).swapaxes(-1, -2)
    # the reduced factorisation has the same vt, bit for bit
    # (test_vertical_space_of_a_stack_matches_each_matrix_bitwise)
    _, s, vt = np.linalg.svd(C, full_matrices=False)
    rank = np.sum(s > 1e-9 * s[..., :1], axis=-1)
    _require(rank != rank.flat[0], "null space dimension differs from the first matrix's")
    return vt[..., rank.flat[0]:, :].reshape(vt.shape[:-2] + (-1, n, n))


def jv_apply(J, lam):
    """The vertical complex structure: lambda -> J @ lambda; squares to -id."""
    lam = np.asarray(lam, dtype=float)
    _require(np.logical_not(mj_residual(lam, J) <= 1e-8),
             "matrix is not in the vertical space at J")
    return J.matrix @ lam


# ---------------------------------------------------------------------------
# the mu-chart on an open dense subset of the positive structures

def _mu_pairs(k, count=None):
    """The rows and the columns (i, j) of the entries of mu in M(mu): the
    strict upper triangle of a k x k matrix, row-major.  Checks the length
    ``count`` of mu when given."""
    if count is not None and count != k * (k - 1) // 2:
        raise StructureError(f"mu must have length k(k-1)/2 = {k*(k-1)//2}")
    return _triu(k, 1)


def mu_matrix(mu, k):
    """Skew k x k complex matrix with the strict upper triangle filled
    row-major from mu; one matrix per row of a (..., k(k-1)/2) stack."""
    mu = np.atleast_1d(np.asarray(mu, dtype=complex))
    i, j = _mu_pairs(k, mu.shape[-1])
    M = np.zeros(mu.shape[:-1] + (k, k), dtype=complex)
    M[..., i, j] = mu
    M[..., j, i] = -mu
    return M


def structure_from_mu(mu, k):
    """Positive structure whose (1,0)-cotangent space is spanned by
    dq^i - M(mu)^i_j dqbar^j; mu = 0 gives the canonical structure.  A
    (..., k(k-1)/2) stack of mu gives a stack of structures."""
    MbarT = np.conj(mu_matrix(mu, k)).swapaxes(-1, -2)
    rows = np.zeros(MbarT.shape[:-2] + (k, 2 * k), dtype=complex)
    j = np.arange(k)
    rows[..., j, 2 * j] += 0.5
    rows[..., j, 2 * j + 1] += -0.5j
    # row j gains 0.5 Mbar[i, j] (1, i) at columns (2i, 2i + 1); an entry
    # that gains a zero, as from the zero diagonal of Mbar, keeps its bits
    rows[..., 0::2] += 0.5 * MbarT
    rows[..., 1::2] += 0.5j * MbarT
    return from_isotropic(IsotropicSubspace(rows))


def mu_from_structure(J):
    """Chart coordinates of a structure in the mu-chart (defined off a
    measure-zero set where the chart degenerates); one row of coordinates
    per structure of a stack."""
    F = to_isotropic(J).basis
    # columns: the d/dq and d/dqbar components of the (0,1)-basis conj(F)
    A = complex_view(np.conj(F)).swapaxes(-1, -2)
    Bm = np.conj(complex_view(F)).swapaxes(-1, -2)
    _require(~(np.abs(np.linalg.det(Bm)) >= 1e-12), "structure is outside the mu-chart")
    M = A @ np.linalg.inv(Bm)
    _require(~(np.abs(M + M.swapaxes(-1, -2)).max(axis=(-2, -1)) <= 1e-8),
             "recovered chart matrix is not skew")
    return M[(...,) + _mu_pairs(J.k)]


def twistor_chart(q, mu):
    """Chart map (q, J(mu)) -> (w, mu) with w = q - M(mu) qbar.

    Works on plain complex vectors and on jet-valued inputs alike; ``q`` is a
    length-k sequence and ``mu`` a length-k(k-1)/2 sequence.
    """
    mu = list(mu)
    qbar = [x.conj() if hasattr(x, "conj") else np.conj(x) for x in q]
    w = list(q)
    # M(mu) is m at (i, j) and -m at (j, i); the pairs run row-major over the
    # upper triangle, so each w_i subtracts its terms in increasing j
    for m, i, j in zip(mu, *_mu_pairs(len(q), len(mu))):
        w[i] = w[i] - m * qbar[j]
        w[j] = w[j] + m * qbar[i]
    return w, mu
