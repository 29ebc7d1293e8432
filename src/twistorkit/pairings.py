"""Complex-bilinear and Hermitian pairings on complexified Euclidean space.

The bilinear pairing extends the Euclidean dot product to C^d *without*
conjugation; isotropy of subspaces is always meant with respect to it.
"""

from __future__ import annotations

import functools
import math

import numpy as np


class DimensionError(ValueError):
    pass


def _pair(u, v):
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim == 0:
        raise DimensionError(f"vector shapes differ: {u.shape} vs {v.shape}")
    return u, v


def _sum_rows(w):
    """Sum over the last axis: a complex number for one vector, one value per
    row for an (..., d) array.  Row r is bitwise the sum of row r alone."""
    s = np.sum(w, axis=-1)
    return complex(s) if s.ndim == 0 else s


def bilinear_dot(u, v):
    """<u, v> = sum u_a v_a, with no conjugation.

    Symmetric and complex-bilinear; restricts to the Euclidean dot product on
    real vectors.  For (..., d) arrays it pairs row with row.
    """
    u, v = _pair(u, v)
    return _sum_rows(u * v)


def hermitian_dot(u, v):
    """Sesquilinear pairing <u, v-bar>; positive-definite on the diagonal.
    For (..., d) arrays it pairs row with row."""
    u, v = _pair(u, v)
    return _sum_rows(u * np.conj(v))


def _modulus(z):
    """|z| of a complex number or entry by entry of an array, bitwise as
    Python ``abs``; ``np.abs`` of a complex array can differ from it in the
    last bit (test_modulus_is_python_abs_where_np_abs_is_not)."""
    return np.hypot(np.real(z), np.imag(z))


# The batch contract of the pointwise checkers: at one point a checker
# returns a float; at an (N, d) array of points, an empty one included, it
# returns one residual per row, each bitwise the residual at that row's point.

def _per_point(x):
    """A float for a 0-d result (one point), the array of rows otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def _raise_first(error, failures):
    """Raise ``error`` for the first point at which one of the ``(mask,
    message)`` failures holds, a point's failures taken in order; the masks
    have the leading shape of the points, and a batch names the row."""
    bad = failures[0][0]
    for mask, _ in failures[1:]:
        bad = bad | mask
    if np.count_nonzero(bad):
        r = np.argmax(np.reshape(bad, -1))
        message = next(msg for mask, msg in failures if np.reshape(mask, -1)[r])
        raise error(f"row {r}: {message}" if np.ndim(bad) else message)


def _norms(x, ndim):
    """``np.linalg.norm`` of an ``ndim``-axis array, a float, or of each
    ``ndim``-axis block of a stack of them, an array over the leading axes.

    A stack is normed as the dot product of each flattened block with itself,
    one BLAS dot per block as ``np.linalg.norm`` takes it (a complex block
    as the dots of its strided real and imaginary parts); the norm of an
    ``axis=`` reduction sums in another order.  The blocks are copied to C
    order first, which is the order ``np.linalg.norm`` reads a block in when
    the block is C-contiguous or a real or imaginary view of one
    (test_norms_of_a_stack_are_the_norms_of_its_blocks_bitwise).
    """
    if x.ndim == ndim:
        return float(np.linalg.norm(x))
    lead, block = x.shape[:x.ndim - ndim], x.shape[x.ndim - ndim:]
    f = np.ascontiguousarray(x).reshape(lead + (math.prod(block),))
    parts = (f.real, f.imag) if np.iscomplexobj(f) else (f,)
    return np.sqrt(sum(_dots(p, p) for p in parts))


def _svdvals(M):
    """The singular values of a matrix or of each matrix of a stack, largest
    first; NaN for a matrix with a NaN or inf entry, which is zeroed out of
    the stack first, as it can make the SVD of the whole stack raise."""
    finite = np.isfinite(M).all(axis=(-2, -1))
    s = np.linalg.svd(np.where(finite[..., None, None], M, 0.0), compute_uv=False)
    return np.where(finite[..., None], s, np.nan)


def _dots(u, v):
    """u . v over the last axis, bitwise the 1-D ``u @ v`` of each row: the
    stacked (1, n) @ (n, 1) ``@`` takes one BLAS dot per row with the rows'
    own strides, where np.sum would sum in another order."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _worst_modulus(values):
    """The largest modulus of the values, 0.0 for none and NaN if any is
    NaN: a float when they are numbers, one value per row when they are
    arrays of one shape (N,)."""
    return _per_point(np.max(_modulus(np.asarray(values)), axis=0, initial=0.0))


def _worst_norm(matrices, lead):
    """The largest Frobenius norm among the (..., k, k) arrays at each point
    of the leading shape ``lead``: a float at one point, 0.0 for none and
    NaN if any is NaN.  Each array is fresh, so its matrices are normed as
    one at a time."""
    norms = [_norms(F, 2) for F in matrices]
    return _worst_modulus(np.reshape(norms, (len(norms),) + lead))


@functools.cache
def _triu(k, offset=0):
    """``np.triu_indices(k, offset)``, made once per (k, offset) and read-only:
    the rows and columns of the upper triangle of a k x k matrix from the
    ``offset``-th diagonal, row-major."""
    rows, cols = np.triu_indices(k, offset)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def is_isotropic_span(basis, tol=1e-10):
    """Whether all pairwise bilinear pairings of the basis vectors vanish.

    Returns ``(flag, max_residual)`` where the residual is the largest
    pairing magnitude over unordered pairs (including self-pairings), NaN if
    any is NaN.  A (..., k, d) stack of bases gives one flag and one residual
    per basis.
    """
    B = np.asarray(basis, dtype=complex)
    if B.ndim < 2 or not B.shape[-2]:
        raise DimensionError(f"need a nonempty list of vectors, got shape {B.shape}")
    i, j = _triu(B.shape[-2])
    worst = _per_point(np.max(_modulus(bilinear_dot(B[..., i, :], B[..., j, :])), axis=-1))
    return worst <= tol, worst
