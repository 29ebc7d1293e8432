"""Complex-bilinear and Hermitian pairings on complexified Euclidean space.

The bilinear pairing extends the Euclidean dot product to C^d *without*
conjugation; isotropy of subspaces is always meant with respect to it.
"""

from __future__ import annotations

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


def _norms(x, ndim):
    """``np.linalg.norm`` of an ``ndim``-axis array, a float, or of each
    x[r] of a stack of them, an array.  A stack is normed row by row: the
    norm of an ``axis=`` reduction sums in another order."""
    if x.ndim == ndim:
        return float(np.linalg.norm(x))
    return np.array([np.linalg.norm(r) for r in x])


def _worst_modulus(values):
    """The largest modulus of the values, 0.0 for none and NaN if any is
    NaN: a float when they are numbers, one value per row when they are
    arrays of one shape (N,)."""
    return _per_point(np.max(_modulus(np.asarray(values)), axis=0, initial=0.0))


def worst_residual(residuals):
    """The running ``max`` of the residuals from 0.0, except that a NaN
    residual is returned: ``max(worst, nan)`` keeps ``worst``, which would
    let a NaN residual pass."""
    worst = 0.0
    for r in residuals:
        if r != r:
            return r
        worst = max(worst, r)
    return worst


def is_isotropic_span(basis, tol=1e-10):
    """Whether all pairwise bilinear pairings of the basis vectors vanish.

    Returns ``(flag, max_residual)`` where the residual is the largest
    pairing magnitude over unordered pairs (including self-pairings).
    """
    basis = [np.asarray(b, dtype=complex) for b in basis]
    if not basis:
        raise DimensionError("empty basis")
    worst = worst_residual([abs(bilinear_dot(u, v))
                            for i, u in enumerate(basis) for v in basis[i:]])
    return worst <= tol, worst
