"""Truncated multivariate Taylor (jet) arithmetic and Wirtinger calculus.

A :class:`Jet` is the Taylor expansion of a smooth function at a base point,
truncated at a fixed total order.  Sums, products and quotients of jets are
exact modulo truncation, so all derivatives read off a jet are exact up to
floating-point rounding -- this is the derivative engine behind every
residual checker in the package.  Complex coefficients are allowed
throughout; a complex-valued jet represents a C-valued function of real
variables, and conjugation acts on coefficients.

The identification C^m = R^(2m) is fixed once and for all as
``z_j = x_{2j} + i x_{2j+1}`` (0-based pairs), and the Wirtinger operators
``dz``/``dzbar`` are derived from it.  This module is the only place that
reads either the coefficient layout or that identification: other modules
take values and first derivatives through :func:`values`, :func:`gradient`,
``dz``/``dzbar`` and :func:`dz_vectors`, and :class:`SmoothMap` accepts
points in real or complex form.

A jet's ``base`` is a read-only float array of shape ``(*batch, nvars)``
and its ``coef`` has shape ``(*batch, *shape, size)``: no batch axis at one
point, one row per point for a batch, and component axes ``shape`` that
make a vector or matrix of jets one :class:`Jet`.  Everything acts entry by
entry, and each entry of a result is bitwise that of its scalar jet alone;
the read-offs put the batch axis first.
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import product as _iproduct

import numpy as np

from .pairings import _raise_first


class JetError(ValueError):
    pass


class _Table:
    """Enumeration of multi-indices of total degree <= order, with cached
    convolution and differentiation index maps.  Indices are sorted by
    (degree, lex) so lower-order tables are prefixes of higher-order ones."""

    def __init__(self, nvars, order):
        self.nvars = nvars
        self.order = order
        idx = [a for a in _iproduct(range(order + 1), repeat=nvars) if sum(a) <= order]
        idx.sort(key=lambda a: (sum(a), a))
        self.indices = idx
        self.position = {a: i for i, a in enumerate(idx)}
        self.degrees = np.array([sum(a) for a in idx])
        self.size = len(idx)
        # prefix length per degree, for truncation
        self._prefix = np.searchsorted(self.degrees, np.arange(order + 2))
        self.zeros = np.zeros(self.size, dtype=complex)
        self.zeros.flags.writeable = False
        self.eye = np.eye(nvars)

    def prefix_size(self, order):
        return int(self._prefix[order + 1])

    @functools.cached_property
    def triples(self):
        """(I, J, K): the product of coefficients I[t] and J[t] adds into
        position K[t]."""
        I, J, K = [], [], []
        for i, a in enumerate(self.indices):
            for j, b in enumerate(self.indices):
                if self.degrees[i] + self.degrees[j] <= self.order:
                    I.append(i)
                    J.append(j)
                    K.append(self.position[tuple(x + y for x, y in zip(a, b))])
        return np.array(I), np.array(J), np.array(K)

    # Shared by all tables.  Five units of each perfbench workload use at
    # most 50 (table, row count) pairs, 12 of them for one table; a batch
    # size per request would otherwise add an entry per request
    # (test_row_targets_cache_stays_bounded_over_many_batch_sizes).
    @functools.lru_cache(maxsize=128)
    def row_targets(self, rows):
        """K of :attr:`triples` into the flattened coefficients of ``rows``
        rows, row after row: K + size * r in row r."""
        return (self.triples[2] + self.size * np.arange(rows)[:, None]).ravel()

    @functools.cache
    def partial_map(self, var):
        """(src, mult) so that (d/dx_var f).coef[q] = mult[q] * f.coef[src[q]]
        over the prefix table of order-1."""
        n = self.prefix_size(self.order - 1) if self.order > 0 else 0
        src = np.zeros(n, dtype=int)
        mult = np.zeros(n)
        for q in range(n):
            b = self.indices[q]
            up = tuple(x + (1 if k == var else 0) for k, x in enumerate(b))
            src[q] = self.position[up]
            mult[q] = b[var] + 1
        return src, mult

    @functools.cached_property
    def compose_plan(self):
        """(k, e): the monomial at position q is the product of x_k**e with
        k = k[s, q] and e = e[s, q] over the steps s where e[s, q] > 0, its
        variables in increasing order from step 0."""
        factors = [[(k, e) for k, e in enumerate(a) if e] for a in self.indices]
        k = np.zeros((max(map(len, factors)), self.size), dtype=int)
        e = np.zeros_like(k)
        for q, fs in enumerate(factors):
            for s, ke in enumerate(fs):
                k[s, q], e[s, q] = ke
        return k, e


# products per _mul_rows call in compose: bounds its transient arrays
_COMPOSE_PRODUCTS = 1 << 16
# products per block of _mul_rows: its complex temporaries (64 KB) stay under
# glibc's 128 KB mmap threshold, so large batches reuse heap pages
_MUL_PRODUCTS = 1 << 12


@functools.cache
def _table(nvars, order):
    """The one :class:`_Table` for (nvars, order); jets of the same space
    share it, so an identity test on tables tells them apart cheaply."""
    return _Table(nvars, order)


def _factorial_multi(alpha):
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


class Jet:
    """Truncated Taylor expansion of a scalar, vector or matrix quantity at a
    base point.

    ``coef[..., i]`` is the coefficient of ``prod (x_k - base_k)**alpha_k``
    for the multi-index ``alpha = table.indices[i]``; the derivative of order
    alpha at the base point is ``alpha! * coef[..., i]``.  Row r of a batch
    is expanded at ``base[r]``; ``jet[i]`` and ``jet[:, b]`` index the
    component axes, and ``@`` contracts them.
    """

    __slots__ = ("table", "base", "coef")
    # numpy operators defer to the jet's: an array on either side of an
    # operator is a scalar operand, never an array of jets
    __array_ufunc__ = None

    def __init__(self, table, base, coef):
        self.table = table
        self.base = base
        self.coef = coef

    # -- construction -------------------------------------------------
    @staticmethod
    def constant(value, nvars, order, base):
        """The constant jet of ``value``: see :meth:`JetSpace.const`."""
        t = _table(nvars, order)
        shape = value.shape if isinstance(value, np.ndarray) and value.ndim else base.shape[:-1]
        if shape[:base.ndim - 1] != base.shape[:-1]:
            raise JetError(f"a constant of shape {shape} for a batch {base.shape[:-1]}")
        c = np.zeros(shape + (t.size,), dtype=complex)
        c[..., 0] = value
        return Jet(t, base, c)

    # -- metadata ------------------------------------------------------
    @property
    def nvars(self):
        return self.table.nvars

    @property
    def order(self):
        return self.table.order

    @property
    def shape(self):
        """The component shape: () for a scalar jet."""
        return self.coef.shape[self.base.ndim - 1:-1]

    @property
    def value(self):
        """The constant term: a numpy scalar for a scalar jet at one point."""
        return self.coef[..., 0][()]

    def __repr__(self):
        return f"Jet(nvars={self.nvars}, order={self.order}, value={self.value})"

    # -- components ------------------------------------------------------
    def __len__(self):
        if not self.shape:
            raise TypeError("len() of a scalar jet")
        return self.shape[0]

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, key):
        """The entries ``key`` picks from the component axes, as numpy indexes
        an array of the component shape; the batch and table axes stay."""
        key = (slice(None),) * (self.base.ndim - 1) + (key if type(key) is tuple else (key,))
        return Jet(self.table, self.base, self.coef[key + (slice(None),)])

    # -- helpers ---------------------------------------------------------
    def _like(self, coef):
        return Jet(self.table, self.base, coef)

    def truncated(self, order):
        if order > self.order:
            raise JetError(f"cannot raise jet order {self.order} -> {order}")
        if order == self.order:
            return self
        t = _table(self.nvars, order)
        return Jet(t, self.base, self.coef[..., : t.size].copy())

    def _coerce(self, other):
        """Align two jets to a common table, the lower of the two orders, and
        to a common number of axes, with length-1 component axes after the
        batch axes of the jet with fewer: numpy then broadcasts entry against
        entry."""
        ta, tb = self.table, other.table
        x, y = self.coef, other.coef
        a, b = self.base, other.base
        if a is not b:
            if ta.nvars != tb.nvars:
                raise JetError(f"jet variable count mismatch: {ta.nvars} vs {tb.nvars}")
            if not np.array_equal(a, b):
                raise JetError("jet base points differ")
        if ta is tb and x.ndim == y.ndim:
            return self, other
        # The lower-order table is a prefix of the higher one, so a view of the
        # leading coefficients truncates; the operation copies into a new array.
        t = ta if ta.order <= tb.order else tb
        nb = a.ndim - 1
        x, y = x[..., :t.size], y[..., :t.size]
        if x.ndim != y.ndim:
            x = x.reshape(x.shape[:nb] + (1,) * (y.ndim - x.ndim) + x.shape[nb:])
            y = y.reshape(y.shape[:nb] + (1,) * (x.ndim - y.ndim) + y.shape[nb:])
        return Jet(t, a, x), Jet(t, b, y)

    # -- ring operations ---------------------------------------------
    # A scalar acts on ``coef`` directly.  Sums and differences equal, bit
    # for bit, those with the constant jet of the scalar: adding
    # ``table.zeros`` turns -0.0 into +0.0 as the constant's zero
    # coefficients do (test_scalar_operands_match_constant_jet_path).
    # Products equal them in value only: ``coef * s`` keeps the sign of a
    # -0.0 coefficient, where the convolution, which adds every product into
    # +0.0, gives +0.0.  An array scalar holds one value per row and entry.
    def _per_row(self, other):
        """``other`` unless it is an array with other than one value per row
        and entry of this jet, which is an error."""
        if type(other) is np.ndarray and other.ndim and other.shape != self.coef.shape[:-1]:
            raise JetError(f"an array operand holds one value per row and entry: got "
                           f"shape {other.shape} for jets of shape {self.coef.shape[:-1]}")
        return other

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b = self._coerce(other)
            return Jet(a.table, a.base, a.coef + b.coef)
        other = self._per_row(other)
        c = self.coef + self.table.zeros
        c[..., 0] = self.value + other
        return Jet(self.table, self.base, c)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            a, b = self._coerce(other)
            return Jet(a.table, a.base, a.coef - b.coef)
        other = self._per_row(other)
        c = self.coef.copy()
        c[..., 0] = self.value - other
        return Jet(self.table, self.base, c)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return Jet(self.table, self.base, -self.coef)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            if type(other) is np.ndarray and other.ndim:
                return Jet(self.table, self.base, self.coef * self._per_row(other)[..., None])
            return Jet(self.table, self.base, self.coef * complex(other))
        a, b = self._coerce(other)
        # np.add.at adds into each position in the order of the triples, so
        # each row and entry sums its products as the scalar jet at one point
        # does.  Flattening costs a one-jet product 0.6-1.7 us, 15-30 %, so a
        # scalar jet at one point indexes its coefficients directly.
        t, c = a.table, a.coef
        if c.ndim == 1:
            I, J, K = t.triples
            out = np.zeros(t.size, dtype=complex)
            np.add.at(out, K, c[I] * b.coef[J])
        else:
            out = _mul_rows(t, c, b.coef)
        return Jet(t, a.base, out)

    __rmul__ = __mul__

    def __matmul__(self, other):
        """numpy's ``@`` of vectors and matrices of jets.  Each entry sums its
        products left to right from the first, as ``@`` of object arrays of
        jets does; one pass of the product kernel makes all the products."""
        if not isinstance(other, Jet):
            return NotImplemented
        if not self.shape or other.shape[-2:][:1] != self.shape[-1:]:
            raise JetError(f"matrix product of jets of shapes {self.shape} and {other.shape}")
        A = self.coef[..., None, :, :] if len(self.shape) == 1 else self.coef
        B = other.coef[..., :, None, :] if len(other.shape) == 1 else other.coef
        a, b = self._like(A[..., :, :, None, :])._coerce(other._like(B[..., None, :, :, :]))
        P = _mul_rows(a.table, a.coef, b.coef)
        # not P.sum(axis=-3), which does not add left to right where that axis
        # is numpy's inner one, as for order-0 jets times a vector
        # (test_matmul_of_order_0_jets_sums_left_to_right_bitwise)
        out = P[..., 0, :, :]
        for j in range(1, P.shape[-3]):
            out = out + P[..., j, :, :]
        if len(self.shape) == 1:
            out = out[..., 0, :, :]
        if len(other.shape) == 1:
            out = out[..., 0, :]
        return Jet(a.table, a.base, out)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        if type(other) is np.ndarray and other.ndim:
            other = self._per_row(other)[..., None]
        return self._like(self.coef / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, n):
        try:
            n = operator.index(n)
            if n < 0:
                raise ValueError
        except (TypeError, ValueError):
            raise JetError("jet powers must be nonnegative integers") from None
        if n == 0:
            return Jet.constant(np.ones(self.coef.shape[:-1]), self.nvars, self.order, self.base)
        out = None
        base = self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def conj(self):
        return self._like(np.conj(self.coef))

    @property
    def real(self):
        return self._like(self.coef.real.astype(complex))

    @property
    def imag(self):
        return self._like(self.coef.imag.astype(complex))

    # -- analytic composition ------------------------------------------
    def _series(self, coefficients):
        """sum_k a[k] * (self - value)**k, truncated, with a = coefficients(c)
        at the constant terms c: a[k] = f^(k)(c)/k!, one value per row and
        entry.  The coefficient functions are array code that gives each
        entry the bits of the same code on that entry alone as a numpy
        scalar, so a batch expands like its rows; their powers are
        ``np.power``, as the array ``**`` takes k = 2 as ``np.square``,
        whose bits differ
        (test_batched_series_partials_and_truncation_match_rows_bitwise,
        test_batched_reciprocal_matches_rows_where_power_and_square_differ)."""
        c = self.value
        if not c.size:  # an empty batch: no row to expand
            return self._like(np.zeros_like(self.coef))
        a = coefficients(c)
        n = min(len(a), self.order + 1)
        if n == 1:
            return Jet.constant(a[0], self.nvars, self.order, self.base)
        u = self - c
        p = u
        out = p * a[1] + a[0]
        for k in range(2, n):
            p = p * u
            out = out + p * a[k]
        return out

    def reciprocal(self):
        def coefficients(c):
            _require_nonzero(c, "division")
            return [(-1) ** k / np.power(c, k + 1) for k in range(self.order + 1)]

        return self._series(coefficients)

    def sqrt(self):
        def coefficients(c):
            _require_nonzero(c, "sqrt")
            a = [np.sqrt(c)]
            for k in range(1, self.order + 1):
                a.append(a[-1] * (0.5 - (k - 1)) / k / c)
            return a

        return self._series(coefficients)

    def exp(self):
        def coefficients(c):
            e = np.exp(c)
            return [e / math.factorial(k) for k in range(self.order + 1)]

        return self._series(coefficients)

    def log(self):
        def coefficients(c):
            _require_nonzero(c, "log")
            a = [np.log(c)]
            for k in range(1, self.order + 1):
                a.append((-1) ** (k + 1) / (k * np.power(c, k)))
            return a

        return self._series(coefficients)

    # -- derivatives ----------------------------------------------------
    def coefficient(self, alpha):
        pos = self.table.position[tuple(alpha)]
        return self.coef[..., pos][()]

    def deriv(self, alpha):
        """Exact partial derivative of multi-order alpha at the base point."""
        alpha = tuple(alpha)
        if sum(alpha) > self.order:
            raise JetError(f"derivative order {alpha} exceeds jet order {self.order}")
        return _factorial_multi(alpha) * self.coefficient(alpha)

    def partial(self, var):
        """Jet of d(self)/dx_var, one order lower."""
        if self.order == 0:
            raise JetError("cannot differentiate an order-0 jet")
        src, mult = self.table.partial_map(var)
        t = _table(self.nvars, self.order - 1)
        return Jet(t, self.base, self.coef.take(src, axis=-1) * mult)


def _require_nonzero(c, what):
    """Raise JetError at a zero constant term, naming the first such entry
    of an array of them."""
    _raise_first(JetError, [(c == 0, f"jet {what} requires a nonzero constant term")])


def _mul_rows(t, a, b):
    """Products of the coefficient arrays a and b of table t, entry by entry
    after numpy broadcasts them against each other: each entry is bitwise
    the product of the scalar jets of that entry alone.  The products are
    formed in blocks over the leading axis of at most _MUL_PRODUCTS, or of
    one leading index; an operand whose leading axis has length 1, or is
    missing, broadcasts against every block."""
    I, J, _ = t.triples
    lead = a.shape[:-1] if a.shape == b.shape else np.broadcast(a[..., 0], b[..., 0]).shape
    out = np.zeros(lead + (t.size,), dtype=complex)
    step = max(1, _MUL_PRODUCTS // (len(I) * math.prod(lead[1:])))
    for lo in range(0, lead[0], step):
        x, y, o = (a, b, out) if step >= lead[0] else (
            c[lo:lo + step] if c.ndim > len(lead) and len(c) > 1 else c for c in (a, b, out))
        p = (x.take(I, axis=-1) * y.take(J, axis=-1)).reshape(-1)
        np.add.at(o.reshape(-1), t.row_targets(len(p) // len(I)), p)
    return out


class JetSpace:
    """Factory for jets sharing one base point and truncation order.

    An ``(N, nvars)`` array of base points makes batched jets.  The base is
    a read-only float array, a copy unless a read-only one is passed back in
    (``JetSpace(jet.base, order)``), so the jets of one space share one base
    object.
    """

    def __init__(self, base_point, order):
        base = np.atleast_1d(np.asarray(base_point, dtype=float))
        if base.ndim > 2:
            raise JetError(f"a batch of base points is an (N, nvars) array, got shape "
                           f"{base.shape}")
        if base.flags.writeable:
            base = base.copy()
            base.flags.writeable = False
        self.base = base
        self.nvars = base.shape[-1]
        self.order = int(order)

    def var(self, i):
        return self.vars()[i]

    def const(self, value):
        """The constant jet of a number, or of an array whose leading axes are
        the batch axes (none at one point) and the rest the component shape."""
        return Jet.constant(value, self.nvars, self.order, self.base)

    def _var_coefs(self):
        """The table, and the variables' coefficients as one (nvars, *batch, size) array."""
        t = _table(self.nvars, self.order)
        c = np.zeros((self.nvars,) + self.base.shape[:-1] + (t.size,), dtype=complex)
        c[..., 0] = self.base.T
        if self.order >= 1:  # e_i of every row, see gradient
            c[..., self.nvars:0:-1] = t.eye if c.ndim == 2 else t.eye[:, None]
        return t, c

    def vars(self):
        t, c = self._var_coefs()
        return [Jet(t, self.base, x) for x in c]

    def complex_vars(self, real=0):
        """The first ``real`` variables as they are, then z_j = x_{2j} + i x_{2j+1}
        of the rest; requires an even number of the rest."""
        t, c = self._var_coefs()
        return [Jet(t, self.base, x) for x in (*c[:real], *_complex_pairs(c[real:]))]


# ---------------------------------------------------------------------------
# point conversions C^m <-> R^(2m)

def complex_to_real_point(z):
    """Real coordinates of a point of C^m, or of each row of an (N, m) array."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],))
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


def _as_real_point(x, dim):
    """A point of R^dim, or an (N, dim) array of them, from real coordinates
    or from complex ones (complex input, or a real array of dim/2 entries per
    point) through complex_to_real_point."""
    x = np.atleast_1d(np.asarray(x))
    if np.iscomplexobj(x) or 2 * x.shape[-1] == dim:
        return complex_to_real_point(x)
    return np.asarray(x, dtype=float)


def real_to_complex_point(x):
    """The point of C^m with real coordinates x, or of each row of an
    (..., 2m) array: the inverse of complex_to_real_point."""
    return complex_view(np.asarray(x, dtype=float))


def complex_view(vec):
    """Pair consecutive entries of a real-component vector: v_{2j}+i v_{2j+1},
    along the last axis of an (..., 2n) array.

    This is the C^n-identified view of a (complexified) tangent vector; the
    full 2n-component vector is the primary representation and is what the
    bilinear pairings consume.  An odd count raises rather than broadcasting
    the last entry against a partner it does not have.
    """
    vec = np.asarray(vec)
    if vec.shape[-1] % 2:
        raise JetError(
            f"complex pairing needs an even number of entries, got {vec.shape[-1]}")
    return vec[..., 0::2] + 1j * vec[..., 1::2]


def _complex_pairs(xs):
    """The pairing of :func:`complex_view` for a vector jet of real
    components, one vector jet of complex ones, or for the (nvars, *batch,
    size) coefficients of variables, theirs; both give the bits of
    ``x + 1j * y`` of scalar jets."""
    if len(xs) % 2:
        raise JetError(f"complex pairing needs an even number of entries, got {len(xs)}")
    if isinstance(xs, Jet):
        c = xs.coef.reshape(xs.coef.shape[:-2] + (len(xs) // 2, 2, xs.table.size))
        return xs._like(c[..., 0, :] + c[..., 1, :] * 1j)
    return xs[0::2] + xs[1::2] * 1j


def _real_split(ws):
    """Real and imaginary parts of a complex jet or of a sequence of them,
    interleaved in one vector jet, as :func:`_complex_pairs` pairs them."""
    w = stack([ws] if isinstance(ws, Jet) and not ws.shape else ws)
    parts = np.empty(w.coef.shape[:-1] + (2, w.table.size), dtype=complex)
    parts[..., 0, :], parts[..., 1, :] = w.coef.real, w.coef.imag
    return w._like(parts.reshape(w.coef.shape[:-2] + (2 * w.coef.shape[-2], w.table.size)))


# ---------------------------------------------------------------------------
# smooth maps between flat spaces

class SmoothMap:
    """A map R^(2m) -> R^(2n) given by a jet evaluator.

    ``evaluator(point, order)`` returns the real output components, scalar
    jets or one vector jet, deterministically (same point and order give
    identical coefficients); :meth:`jets` stacks them once.
    """

    def __init__(self, domain_dim, codomain_dim, evaluator):
        self.domain_dim = int(domain_dim)
        self.codomain_dim = int(codomain_dim)
        self.evaluator = evaluator

    def jets(self, point, order):
        """One vector jet of the real components at a point of R^domain_dim in
        real or complex coordinates (see :func:`_as_real_point`), batched at
        an (N, domain_dim) array of points."""
        point = _as_real_point(point, self.domain_dim)
        if point.shape[-1] != self.domain_dim:
            raise JetError(
                f"point dimension {point.shape[-1]} != domain dimension {self.domain_dim}")
        out = stack(self.evaluator(point, order))
        out = out if out.shape else out[None]  # a scalar jet is the one component
        if out.shape != (self.codomain_dim,):
            raise JetError("evaluator returned wrong number of components")
        return out

    def complex_jets(self, point, order):
        return _complex_pairs(self.jets(point, order))

    def __call__(self, point):
        return values(self.jets(point, 0)).real

    def jacobian(self, point):
        return gradient(self.jets(point, 1)).real

    @classmethod
    def from_complex(cls, m, n, fn):
        """Build a map from a function of complex jet variables.

        ``fn`` receives m complex jets (with ``.conj()`` available) and must
        return n complex jets; real and imaginary parts become the 2n real
        components.
        """
        return cls(2 * m, 2 * n, lambda point, order:
                   _real_split(fn(*JetSpace(point, order).complex_vars())))

    @classmethod
    def from_real(cls, domain_dim, codomain_dim, fn):
        return cls(domain_dim, codomain_dim,
                   lambda point, order: fn(*JetSpace(point, order).vars()))


# ---------------------------------------------------------------------------
# read-off of values and first derivatives

def stack(jets):
    """One jet from a nested sequence of jets at one base point, the nesting
    as leading component axes, truncated to the lowest order."""
    if isinstance(jets, Jet):
        return jets
    items = [j if isinstance(j, Jet) else stack(j) for j in jets]
    if not items:
        raise JetError("no jets to stack")
    low = items[0]
    t, base = low.table, low.base
    if any(j.table is not t or j.base is not base for j in items):
        low = min(items, key=lambda x: x.order)
        items = [low._coerce(j)[1] for j in items]
    out = np.array([j.coef for j in items])
    # np.array and a copy stack after a batch axis twice as fast as np.stack
    return Jet(low.table, low.base, out.swapaxes(0, 1).copy() if base.ndim > 1 else out)


def values(jets):
    """Values at the base point of a jet or of a nested sequence of jets at
    one base point, stacked with the same nesting, after the batch axis of
    batched jets."""
    return stack(jets).coef[..., 0].copy()[()]


def gradient(jets):
    """First derivatives at the base point of a jet or of a nested sequence
    of jets at one base point: ``gradient(jets)[..., v]`` is d/dx_v, after
    the batch axis and the nesting.  In every table the unit multi-index e_v
    sits at position nvars - v (degree 1, lex order).

    The ``.real`` of this or of :func:`values` is a strided view."""
    jet = stack(jets)
    if jet.order == 0:
        raise JetError("an order-0 jet has no gradient")
    return jet.coef[..., jet.nvars:0:-1].copy()


def _embed(jet, space):
    """Inject a jet in the variables after the first of ``space``, of the
    space's order, into that space: a family's x-jet into its (t, x) space."""
    t = _table(space.nvars, space.order)
    out = np.zeros(jet.coef.shape[:-1] + (t.size,), dtype=complex)
    out[..., [t.position[(0,) + a] for a in jet.table.indices]] = jet.coef
    return Jet(t, space.base, out)


def merge_rows(mask, a, b):
    """A batched jet over all rows of ``mask`` from jets ``a`` over the rows
    where it is set and ``b`` over the others, of one table and shape."""
    mask = np.asarray(mask, dtype=bool)
    base = np.empty(mask.shape + (a.nvars,))
    base[mask], base[~mask] = a.base, b.base
    base.flags.writeable = False
    coef = np.empty(mask.shape + a.coef.shape[1:], dtype=complex)
    coef[mask], coef[~mask] = a.coef, b.coef
    return Jet(a.table, base, coef)


def split_rows(mask, jet):
    """The jets over the rows of a batched jet where ``mask`` is set and over
    the others: the inverse of :func:`merge_rows`."""
    mask = np.asarray(mask, dtype=bool)
    return tuple(Jet(jet.table, JetSpace(jet.base[m], 0).base, jet.coef[m])
                 for m in (mask, ~mask))


# ---------------------------------------------------------------------------
# Wirtinger operators

def _xy_pair(f, i):
    """(d/dx_{2i}, d/dx_{2i+1}) of a jet, or of a :func:`gradient` array."""
    if isinstance(f, Jet):
        return f.partial(2 * i), f.partial(2 * i + 1)
    return f[..., 2 * i], f[..., 2 * i + 1]


def dz(f, i=0):
    """d/dz_i = (d/dx_{2i} - i d/dx_{2i+1}) / 2 of a jet (a jet one order
    lower), or at the base point from a :func:`gradient` array."""
    dx, dy = _xy_pair(f, i)
    return (dx - 1j * dy) * 0.5


def dzbar(f, i=0):
    """d/dzbar_i = (d/dx_{2i} + i d/dx_{2i+1}) / 2, like :func:`dz`."""
    dx, dy = _xy_pair(f, i)
    return (dx + 1j * dy) * 0.5


def dz_vectors(phi, z0, r):
    """Iterated d/dz_0 derivatives of orders 1..r of every real component at
    z0, from one jet evaluation at order r.

    Each is the complex 2n-vector of Wirtinger derivatives of the real
    components (flat target, so iterated covariant derivatives are plain
    partials).  Use :func:`complex_view` for the C^n-identified view.
    """
    jets = phi.jets(z0, r)
    out = []
    for _ in range(r):
        jets = dz(jets)
        out.append(values(jets))
    return out


def dz_power(phi, r, z0):
    """Exact r-th iterated d/dz_0 derivative of every real component: the
    last of :func:`dz_vectors`, from jets of order r."""
    if r < 1:
        raise JetError("dz_power needs r >= 1")
    return dz_vectors(phi, z0, r)[-1]


def laplacian(phi, x0):
    """Sum of pure second partials over all domain coordinates (flat spaces),
    one row per point at an (N, domain_dim) array of points."""
    return _laplace_trace(phi.jets(x0, 2))


def _laplace_trace(jet, lead=()):
    """Real part of 2 * (sum of the pure second-order coefficients) over the
    variables after the fixed leading exponents ``lead``, entry by entry: the
    Laplacian at the base point when ``lead`` is empty."""
    d = jet.nvars - len(lead)
    s = 0.0
    for v in range(d):
        e = lead + tuple(2 if c == v else 0 for c in range(d))
        s += 2.0 * jet.coefficient(e).real
    return s


def _horner(coeffs, t):
    """sum_k coeffs[k] t**k by Horner's rule from the highest coefficient.
    The sum has the type of ``t`` also for a constant polynomial and for no
    coefficients (0): a jet ``t`` gives a jet."""
    out = None
    for c in reversed(list(coeffs)):
        out = c if out is None else out * t + c
    out = 0.0 if out is None else out
    if isinstance(t, Jet) and not isinstance(out, Jet):
        return Jet.constant(np.broadcast_to(out, t.coef.shape[:-1]), t.nvars, t.order, t.base)
    return out


# ---------------------------------------------------------------------------
# composition and local inversion of jet maps

def compose(f, gs):
    """Substitute the offsets ``gs`` (a vector jet, or scalar jets, in new
    variables, with zero constant terms) for x_k - base_k in jet ``f``.

    Each row and component of f is bitwise the composition of its scalar jet
    alone: one term per nonzero coefficient of degree 1..order, in table
    order, the coefficient times the powers of the offsets one factor at a
    time.  One gather takes those coefficients for all rows, each step of
    the table's :meth:`_Table.compose_plan` multiplies one more factor into
    the terms that have it, and ``np.add.at`` adds the terms into their
    rows in table order, one block of terms after another.
    """
    f, g = stack(f), stack(gs)
    ft, gt = f.table, g.table
    if f.base.shape[:-1] != g.base.shape[:-1]:
        raise JetError("composed jets and offsets have different batches")
    # rows: (batch row, component of f); the offsets of batch row b are G[b]
    C = f.coef.reshape(f.base[..., 0].size, -1, ft.size)
    G = g.coef.reshape(len(C), -1, gt.size)
    if np.any(G[..., 0] != 0):  # a NaN too; -0.0 passes
        raise JetError("composition offsets must have zero constant term")
    order = min(gt.order, ft.order)
    out = np.zeros(C.shape[:-1] + (gt.size,), dtype=complex)
    out[..., 0] = C[..., 0]
    # monomials of degree 1..order form a contiguous run of f's table; a zero
    # coefficient adds no term, a NaN one does
    run = C[..., 1:ft.prefix_size(order)].transpose(2, 0, 1)
    pos, b, m = np.nonzero(run)
    c = run[pos, b, m]
    pos += 1
    rows = b * C.shape[1] + m
    # powers[e - 1, b, k] is the e-th power of offset k of row b
    powers = np.empty((order,) + G.shape, dtype=complex)
    powers[0] = G
    for e in range(1, order):
        powers[e] = _mul_rows(gt, powers[e - 1], G)
    ks, es = ft.compose_plan
    flat = out.reshape(-1)
    # blocks of terms keep each _mul_rows call within _COMPOSE_PRODUCTS
    # products; adding the blocks in turn keeps each target's table order
    step = max(1, _COMPOSE_PRODUCTS // len(gt.triples[0]))
    for lo in range(0, len(pos), step):
        blk = slice(lo, lo + step)
        p, r = pos[blk], b[blk]
        # c first: complex SIMD products are not bitwise commutative
        # (test_compose_over_rows_matches_one_jet_compose_bitwise)
        term = c[blk, None] * powers[es[0, p] - 1, r, ks[0, p]]
        for s in range(1, len(ks)):
            sel = np.flatnonzero(es[s, p])
            if not len(sel):
                break
            q = p[sel]
            term[sel] = _mul_rows(gt, term[sel], powers[es[s, q] - 1, r[sel], ks[s, q]])
        targets = rows[blk, None] * gt.size + np.arange(gt.size)
        np.add.at(flat, targets.reshape(-1), term.reshape(-1))
    return Jet(gt, g.base, out.reshape(f.coef.shape[:-1] + (gt.size,)))


def _matvec_rows(A, X):
    """A @ X for constant matrices A and the coefficients X of a vector of
    jets, summed over the columns left to right as numpy's object-array ``@``
    sums the jets: one row of products at a time, not BLAS, which sums in
    another order (the lock of demo 05 and
    test_invert_jet_map_over_rows_matches_object_array_body_bitwise)."""
    acc = X[..., 0, None, :] * A[..., :, 0, None]
    for j in range(1, X.shape[-2]):
        acc = acc + X[..., j, None, :] * A[..., :, j, None]
    return acc


def _inverse_linear_part(F):
    """np.linalg.inv of the Jacobian of the vector jet F, or of each row's; a
    JetError names the first row whose value or Jacobian is not finite, else
    the first singular one (a zero LU pivot, as ``inv`` and ``slogdet`` find)."""
    finite = np.isfinite(F.coef[..., :F.nvars + 1]).reshape(F.base.shape[:-1] + (-1,))
    _raise_first(JetError, [(~finite.all(axis=-1),
                             "jet map inversion requires a finite value and linear part")])
    A = gradient(F)
    try:
        return np.linalg.inv(A)
    except np.linalg.LinAlgError:
        message = "jet map inversion requires an invertible linear part"
        if A.shape[-1] == A.shape[-2]:  # slogdet, as inv, raises on a non-square A
            _raise_first(JetError, [(np.linalg.slogdet(A)[0] == 0, message)])
        raise JetError(message) from None


def invert_jet_map(F):
    """Local series inverse of a jet map.

    F is a vector jet (or a sequence of scalar jets) of K components in K
    variables at y0, at one point or batched.  Returns the vector jet G, in
    variables w = F(y) - F(y0) at base point F(y0), that represents y - y0.
    A row whose value or Jacobian is not finite, or whose Jacobian is
    singular, raises JetError naming it.
    """
    F = stack(F)
    order = F.order
    Ainv = _inverse_linear_part(F)
    space = JetSpace(values(F).real, order)
    t, c = space._var_coefs()
    w = Jet(t, space.base, c.swapaxes(0, -2)) - space.base
    # shifted forward map: components of F(y0 + u) - F(y0) as series in u
    Fs = F._like(F.coef.copy())
    Fs.coef[..., 0] = 0.0
    G = w._like(_matvec_rows(Ainv, w.coef))
    for _ in range(max(1, order)):
        R = compose(Fs, G) - w
        if np.max(np.abs(R.coef)) == 0:
            break
        G = G - w._like(_matvec_rows(Ainv, R.coef))
    return G
