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

A jet's ``base`` is a read-only float array of shape ``(..., nvars)`` and
its ``coef`` has shape ``(..., size)``.  A jet at one point is the case with
no leading axis; a jet at a batch of points has one leading axis, one row
per point.  The ring operations, the analytic functions, ``partial`` and
``truncated`` act row by row, and a scalar operand may be a number or an
array with one value per row.  Row r of every result is bitwise the result
for the jet at the point of row r alone; the read-offs put the batch axis
first, and those of a jet at one point are numpy scalars and arrays.
"""

from __future__ import annotations

import math
from itertools import product as _iproduct

import numpy as np


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
        self._mul = None
        self._partial = {}

    def prefix_size(self, order):
        return int(self._prefix[order + 1])

    def mul_triples(self, rows=1):
        """(I, J, K): the product of coefficients I[t] and J[t] adds into
        position K[t].  For ``rows`` rows the three index the flattened
        coefficients of the rows, row after row: I + size * r in row r."""
        if self._mul is None:
            I, J, K = [], [], []
            for i, a in enumerate(self.indices):
                da = self.degrees[i]
                for j, b in enumerate(self.indices):
                    if da + self.degrees[j] > self.order:
                        continue
                    I.append(i)
                    J.append(j)
                    K.append(self.position[tuple(x + y for x, y in zip(a, b))])
            self._mul = {1: (np.array(I), np.array(J), np.array(K))}
        triples = self._mul.get(rows)
        if triples is None:
            shift = self.size * np.arange(rows)[:, None]
            triples = self._mul[rows] = tuple((x + shift).ravel() for x in self._mul[1])
        return triples

    def partial_map(self, var):
        """(src, mult) so that (d/dx_var f).coef[q] = mult[q] * f.coef[src[q]]
        over the prefix table of order-1."""
        if var not in self._partial:
            n = self.prefix_size(self.order - 1) if self.order > 0 else 0
            src = np.zeros(n, dtype=int)
            mult = np.zeros(n)
            for q in range(n):
                b = self.indices[q]
                up = tuple(x + (1 if k == var else 0) for k, x in enumerate(b))
                src[q] = self.position[up]
                mult[q] = b[var] + 1
            self._partial[var] = (src, mult)
        return self._partial[var]


_TABLES = {}


def _table(nvars, order):
    """The one :class:`_Table` for (nvars, order); jets of the same space
    share it, so an identity test on tables tells them apart cheaply."""
    t = _TABLES.get((nvars, order))
    if t is None:
        t = _TABLES[nvars, order] = _Table(nvars, order)
    return t


def _factorial_multi(alpha):
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


class Jet:
    """Truncated Taylor expansion of one scalar quantity at a base point.

    ``coef[i]`` is the coefficient of ``prod (x_k - base_k)**alpha_k`` for the
    multi-index ``alpha = table.indices[i]``; the derivative of order alpha at
    the base point is ``alpha! * coef[i]``.  A batched jet has ``coef`` of
    shape ``(N, size)``, row r expanded at ``base[r]``; the methods read
    ``coef[..., i]`` and so serve both layouts.
    """

    __slots__ = ("table", "base", "coef")

    def __init__(self, table, base, coef):
        self.table = table
        self.base = base
        self.coef = coef

    # -- construction -------------------------------------------------
    @staticmethod
    def constant(value, nvars, order, base):
        t = _table(nvars, order)
        c = np.zeros(base.shape[:-1] + (t.size,), dtype=complex)
        c[..., 0] = value
        return Jet(t, base, c)

    @staticmethod
    def variable(i, nvars, order, base):
        t = _table(nvars, order)
        c = np.zeros(base.shape[:-1] + (t.size,), dtype=complex)
        c[..., 0] = base[..., i]
        if order >= 1:
            c[..., nvars - i] = 1.0  # e_i of every row, see gradient
        return Jet(t, base, c)

    # -- metadata ------------------------------------------------------
    @property
    def nvars(self):
        return self.table.nvars

    @property
    def order(self):
        return self.table.order

    @property
    def value(self):
        """The constant term: a numpy scalar for a jet at one point, one
        value per row for a batch."""
        return self.coef[..., 0][()]

    def __repr__(self):
        return f"Jet(nvars={self.nvars}, order={self.order}, value={self.value})"

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
        """Align two jets to a common table, the lower of the two orders."""
        ta, tb = self.table, other.table
        if ta is tb and other.base is self.base:
            return self, other
        if ta.nvars != tb.nvars:
            raise JetError(f"jet variable count mismatch: {ta.nvars} vs {tb.nvars}")
        a, b = self.base, other.base
        if a is not b and not np.array_equal(a, b):
            raise JetError("jet base points differ")
        # The lower-order table is a prefix of the higher one, so a view of the
        # leading coefficients truncates; the operation copies into a new array.
        if ta.order < tb.order:
            return self, Jet(ta, b, other.coef[..., : ta.size])
        if tb.order < ta.order:
            return Jet(tb, a, self.coef[..., : tb.size]), other
        return self, other

    # -- ring operations ---------------------------------------------
    # A scalar acts on ``coef`` directly.  Sums and differences equal, bit
    # for bit, those with the constant jet of the scalar: adding
    # ``table.zeros`` turns -0.0 into +0.0 as adding the constant's zero
    # coefficients did.  Products equal them in value only: ``coef * s``
    # keeps the sign of a -0.0 coefficient, where the convolution, which
    # adds every product into +0.0, gives +0.0.  For a batch the scalar may
    # be an array of one value per row; put the jet on the left, since an
    # array on the left would make an object array of jets.
    def _per_row(self, other):
        """``other`` unless it is an array with other than one value per row
        of this jet's batch, which is an error (a single jet has no rows)."""
        if type(other) is np.ndarray and other.ndim and other.shape != self.coef.shape[:-1]:
            rows = "a single jet" if self.coef.ndim == 1 else f"a batch of {len(self.coef)} rows"
            raise JetError(f"an array operand holds one value per row: got shape "
                           f"{other.shape} for {rows}")
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
        c = self.table.zeros - self.coef
        c[..., 0] = other - self.value
        return Jet(self.table, self.base, c)

    def __neg__(self):
        return Jet(self.table, self.base, -self.coef)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            if type(other) is np.ndarray and other.ndim:
                if other.dtype == object:
                    return NotImplemented  # the array maps the product over its jets
                return Jet(self.table, self.base, self.coef * self._per_row(other)[..., None])
            return Jet(self.table, self.base, self.coef * complex(other))
        a, b = self._coerce(other)
        # np.add.at adds into each position in the order of the triples, so
        # row r of a batch sums its products as the single jet of row r does.
        # Flattening costs a one-jet product 0.6-1.7 us, 15-30 %, so a single
        # jet indexes its coefficients directly.
        t, c = a.table, a.coef
        if c.ndim == 1:
            I, J, K = t.mul_triples()
            out = np.zeros(t.size, dtype=complex)
            np.add.at(out, K, c[I] * b.coef[J])
        else:
            out = _mul_rows(t, c, b.coef)
        return Jet(t, a.base, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        if type(other) is np.ndarray and other.ndim:
            other = self._per_row(other)[..., None]
        return self._like(self.coef / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise JetError("jet powers must be nonnegative integers")
        if n == 0:
            return Jet.constant(1.0, self.nvars, self.order, self.base)
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
        return (self + self.conj()) * 0.5

    @property
    def imag(self):
        return (self - self.conj()) * (-0.5j)

    # -- analytic composition ------------------------------------------
    def _series(self, coefficients):
        """sum_k a[k] * (self - value)**k, truncated, with a = coefficients(c)
        at the constant term c: a[k] = f^(k)(c)/k!.  For a batch, a[k] holds
        one value per row, each from the same scalar code as for one jet (numpy
        array and scalar complex arithmetic can differ in the last bit)."""
        c = self.value
        if c.ndim == 0:
            a = coefficients(c)
        else:
            a = [np.array(k) for k in zip(*_map_rows(coefficients, zip(c)))]
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
            if c == 0:
                raise JetError("jet division requires a nonzero constant term")
            return [(-1) ** k / c ** (k + 1) for k in range(self.order + 1)]

        return self._series(coefficients)

    def sqrt(self):
        def coefficients(c):
            if c == 0:
                raise JetError("jet sqrt requires a nonzero constant term")
            a = [np.sqrt(complex(c))]
            for k in range(1, self.order + 1):
                a.append(a[-1] * (0.5 - (k - 1)) / k / c)
            return a

        return self._series(coefficients)

    def exp(self):
        def coefficients(c):
            e = np.exp(complex(c))
            return [e / math.factorial(k) for k in range(self.order + 1)]

        return self._series(coefficients)

    def log(self):
        def coefficients(c):
            if c == 0:
                raise JetError("jet log requires a nonzero constant term")
            a = [np.log(complex(c))]
            for k in range(1, self.order + 1):
                a.append((-1) ** (k + 1) / (k * c ** k))
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


def _mul_rows(t, a, b):
    """Products of the (N, size) coefficient rows a and b of table t, row by
    row: row r is bitwise the product of the jets of row r alone."""
    I, J, K = t.mul_triples(len(a))
    out = np.zeros(a.shape, dtype=complex)
    np.add.at(out.reshape(-1), K, a.reshape(-1)[I] * b.reshape(-1)[J])
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
        return Jet.variable(i, self.nvars, self.order, self.base)

    def const(self, value):
        return Jet.constant(value, self.nvars, self.order, self.base)

    def const_array(self, values):
        """Object array of constant jets with the shape of ``values``: the
        vectors and matrices of jets that numpy's ``@``, ``np.outer`` and
        elementwise operators act on."""
        values = np.asarray(values)
        out = np.empty(values.shape, dtype=object)
        for idx, v in np.ndenumerate(values):
            out[idx] = self.const(v)
        return out

    def vars(self):
        return [self.var(i) for i in range(self.nvars)]

    def complex_vars(self):
        """z_j = x_{2j} + i x_{2j+1}; requires an even number of variables."""
        return _complex_pairs(self.vars())


def _map_rows(fn, rows, error=JetError):
    """``[fn(*row) for row in rows]``; an ``error`` raised at a row is raised
    again with the row's index in front of its message."""
    out = []
    for r, row in enumerate(rows):
        try:
            out.append(fn(*row))
        except error as exc:
            raise error(f"row {r}: {exc}") from None
    return out


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
    x = np.asarray(x, dtype=float)
    if x.shape[-1] % 2:
        raise JetError(
            f"complex pairing needs an even number of entries, got {x.shape[-1]}")
    return x[..., 0::2] + 1j * x[..., 1::2]


def complex_view(vec):
    """Pair consecutive entries of a real-component vector: v_{2j}+i v_{2j+1}.

    This is the C^n-identified view of a (complexified) tangent vector; the
    full 2n-component vector is the primary representation and is what the
    bilinear pairings consume.  An odd count raises rather than broadcasting
    the last entry against a partner it does not have.
    """
    vec = np.asarray(vec)
    if len(vec) % 2:
        raise JetError(f"complex pairing needs an even number of entries, got {len(vec)}")
    return vec[0::2] + 1j * vec[1::2]


def _complex_pairs(xs):
    """The pairing of :func:`complex_view` for a sequence of real jets, as a
    list of complex jets.  It pairs jet by jet: an object array would add
    numpy's dispatch to every evaluation of a complex map."""
    if len(xs) % 2:
        raise JetError(f"complex pairing needs an even number of entries, got {len(xs)}")
    return [x + 1j * y for x, y in zip(xs[0::2], xs[1::2])]


def _real_split(ws):
    """Real and imaginary parts of a complex jet or of a sequence of them,
    interleaved: the real components that :func:`_complex_pairs` pairs."""
    if isinstance(ws, Jet):
        ws = [ws]
    return [part for w in ws for part in (w.real, w.imag)]


# ---------------------------------------------------------------------------
# smooth maps between flat spaces

class SmoothMap:
    """A map R^(2m) -> R^(2n) given by a jet evaluator.

    ``evaluator(point, order)`` must return one :class:`Jet` per real output
    component, deterministically (same point and order give identical
    coefficients).
    """

    def __init__(self, domain_dim, codomain_dim, evaluator, name=None):
        self.domain_dim = int(domain_dim)
        self.codomain_dim = int(codomain_dim)
        self.evaluator = evaluator
        self.name = name

    def jets(self, point, order):
        """Jets of the real components at a point of R^domain_dim, given in
        real coordinates or in complex ones (see :func:`_as_real_point`); at
        an (N, domain_dim) array of points, batched jets with one row each."""
        point = _as_real_point(point, self.domain_dim)
        if point.shape[-1] != self.domain_dim:
            raise JetError(
                f"point dimension {point.shape[-1]} != domain dimension {self.domain_dim}")
        out = self.evaluator(point, order)
        if len(out) != self.codomain_dim:
            raise JetError("evaluator returned wrong number of components")
        return out

    def complex_jets(self, point, order):
        return _complex_pairs(self.jets(point, order))

    def __call__(self, point):
        return values(self.jets(point, 0)).real.copy()

    def jacobian(self, point):
        return gradient(self.jets(point, 1)).real.copy()

    @classmethod
    def from_complex(cls, m, n, fn, name=None):
        """Build a map from a function of complex jet variables.

        ``fn`` receives m complex jets (with ``.conj()`` available) and must
        return n complex jets; real and imaginary parts become the 2n real
        components.
        """

        def evaluator(point, order):
            return _real_split(fn(*JetSpace(point, order).complex_vars()))

        return cls(2 * m, 2 * n, evaluator, name=name)

    @classmethod
    def from_real(cls, domain_dim, codomain_dim, fn, name=None):
        def evaluator(point, order):
            space = JetSpace(point, order)
            out = fn(*space.vars())
            if isinstance(out, Jet):
                out = [out]
            return list(out)

        return cls(domain_dim, codomain_dim, evaluator, name=name)


# ---------------------------------------------------------------------------
# read-off of values and first derivatives

def values(jets):
    """Values at the base point of a jet or of a nested sequence of jets,
    stacked with the same nesting, after the batch axis of batched jets."""
    return _batch_first(_stack_values(jets), jets, 0)


def _stack_values(jets):
    if isinstance(jets, Jet):
        return jets.value
    return np.array([_stack_values(j) for j in jets])


def gradient(jets):
    """First derivatives at the base point of a jet or of a nested sequence
    of jets: ``gradient(jets)[..., v]`` is d/dx_v, after the batch axis and
    the nesting.  In every table the unit multi-index e_v sits at position
    nvars - v (degree 1, lex order).

    The ``.real`` of this or of :func:`values` is a strided view; callers
    copy it before matrix products, which on a strided operand skip BLAS
    and can differ from it in the last bit."""
    return _batch_first(_stack_gradients(jets), jets, 1)


def _stack_gradients(jets):
    if isinstance(jets, Jet):
        if jets.order == 0:
            raise JetError("an order-0 jet has no gradient")
        return jets.coef[..., jets.nvars:0:-1]
    return np.array([_stack_gradients(j) for j in jets])


def _batch_first(out, jets, trailing):
    """A read-off stacked as the nesting of ``jets``, with the batch axis of
    batched jets moved from behind the nesting (and before the ``trailing``
    axes of one jet's read-off) to the front, contiguous so that each row is
    laid out as the read-off of one jet."""
    first = jets
    while not isinstance(first, Jet):
        first = first[0]
    if first.coef.ndim == 1 or first is jets:
        return out
    return np.ascontiguousarray(np.moveaxis(out, out.ndim - 1 - trailing, 0))


def where(mask, a, b):
    """Rows of jet ``a`` where ``mask`` is set and rows of ``b`` elsewhere,
    entry by entry for arrays of jets; a single boolean picks ``a`` or ``b``
    whole."""
    if np.ndim(mask) == 0:
        return a if mask else b

    def pick(x, y):
        x, y = x._coerce(y)
        return Jet(x.table, x.base, np.where(mask[..., None], x.coef, y.coef))

    return np.frompyfunc(pick, 2, 1)(a, b)


def merge_rows(mask, a, b):
    """Batched jets over all rows of ``mask`` from jets ``a`` over the rows
    where it is set and ``b`` over the others, entry by entry for arrays of
    jets of one table."""
    mask = np.asarray(mask, dtype=bool)
    first_a, first_b = (np.asarray(x, dtype=object).flat[0] for x in (a, b))
    base = np.empty(mask.shape + (first_a.nvars,))
    base[mask], base[~mask] = first_a.base, first_b.base
    base.flags.writeable = False

    def merge(x, y):
        coef = np.empty(mask.shape + (x.table.size,), dtype=complex)
        coef[mask], coef[~mask] = x.coef, y.coef
        return Jet(x.table, base, coef)

    return np.frompyfunc(merge, 2, 1)(a, b)


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


def dz_vectors(phi, z0, r, direction=0):
    """Iterated d/dz_{direction} derivatives of orders 1..r of every real
    component at z0, from one jet evaluation at order r.

    Each is the complex 2n-vector of Wirtinger derivatives of the real
    components (flat target, so iterated covariant derivatives are plain
    partials).  Use :func:`complex_view` for the C^n-identified view.
    """
    jets = phi.jets(z0, r)
    out = []
    for _ in range(r):
        jets = [dz(j, direction) for j in jets]
        out.append(values(jets))
    return out


def dz_power(phi, r, z0, direction=0):
    """Exact r-th iterated d/dz_{direction} derivative of every real
    component: the last of :func:`dz_vectors`, from jets of order r."""
    if r < 1:
        raise JetError("dz_power needs r >= 1")
    return dz_vectors(phi, z0, r, direction)[-1]


def laplacian(phi, x0, order=2):
    """Sum of pure second partials over all domain coordinates (flat spaces),
    one row per point at an (N, domain_dim) array of points."""
    if order < 2:
        raise JetError("laplacian needs jet order >= 2")
    jets = phi.jets(x0, order)
    return _batch_first(np.array([_laplace_trace(jet) for jet in jets]), jets, 0)


def _laplace_trace(jet, lead=()):
    """Real part of 2 * (sum of the pure second-order coefficients) over the
    variables after the fixed leading exponents ``lead``: the Laplacian at the
    base point when ``lead`` is empty."""
    d = jet.nvars - len(lead)
    s = 0.0
    for v in range(d):
        e = lead + tuple(2 if c == v else 0 for c in range(d))
        s += 2.0 * jet.coefficient(e).real
    return s


def _horner(coeffs, t):
    """sum_k coeffs[k] t**k by Horner's rule from the highest coefficient;
    0.0 for no coefficients."""
    out = None
    for c in reversed(list(coeffs)):
        out = c if out is None else out * t + c
    return 0.0 if out is None else out


# ---------------------------------------------------------------------------
# composition and local inversion of jet maps

def _at_one_point(jets, name):
    """Raise unless every jet is expanded at one point, with no batch axis."""
    for j in jets:
        if j.coef.ndim != 1:
            raise JetError(f"{name} needs jets at one point, got a batch of "
                           f"{len(j.coef)} rows")


def _coef_rows(jets, name):
    """The shared table of ``jets`` and their coefficients as (K, size) rows."""
    t = jets[0].table
    if any(j.table is not t for j in jets):
        raise JetError(f"{name} must share a table")
    return t, np.array([j.coef for j in jets])


def compose(f, gs):
    """Substitute jets gs (in new variables) for the offsets of jet f, or of
    each jet of a sequence f.

    All g in gs must share a table; g_k stands for x_k - base_k of f's space,
    so each g must have zero constant term.  The jets of a sequence f share a
    table too, and one pass over it substitutes into all of them, as rows of
    one coefficient array; row k is bitwise the composition of f[k] alone.
    All jets are at one point.  Returns a jet, or a list of jets for a
    sequence.
    """
    fs = [f] if isinstance(f, Jet) else list(f)
    _at_one_point([*fs, *gs], "compose")
    ft, C = _coef_rows(fs, "composed jets")
    gt, G = _coef_rows(gs, "composition offsets")
    if np.any(np.abs(G[:, 0]) > 0):
        raise JetError("composition offsets must have zero constant term")
    powers = [None, G]  # powers[e][k] is gs[k] ** e
    for _ in range(1, gt.order):
        powers.append(_mul_rows(gt, powers[-1], G))
    out = np.zeros((len(C), gt.size), dtype=complex)
    out[:, 0] = C[:, 0]
    # monomials of degree 1..order form a contiguous run of f's table
    for pos in range(1, ft.prefix_size(min(gt.order, ft.order))):
        rows = np.flatnonzero(C[:, pos])  # a zero coefficient adds no term
        if not len(rows):
            continue
        term = None
        for k, e in enumerate(ft.indices[pos]):
            if not e:
                continue
            p = powers[e][k]
            # c first: the product kernel multiplied the constant jet of c into
            # p in that operand order, and complex SIMD products are not
            # bitwise commutative.
            term = (C[rows, pos, None] * p if term is None
                    else _mul_rows(gt, term, np.broadcast_to(p, term.shape)))
        out[rows] = out[rows] + term
    out = [Jet(gt, gs[0].base, row) for row in out]
    return out[0] if isinstance(f, Jet) else out


def _matvec_rows(A, X):
    """A @ X for a constant matrix A and the coefficient rows X of a vector of
    jets, summed over the columns left to right as numpy's object-array ``@``
    sums the jets: one row of products at a time, not BLAS."""
    acc = X[0] * A[:, 0, None]
    for j in range(1, len(X)):
        acc = acc + X[j] * A[:, j, None]
    return acc


def _plus_zero(t, X):
    """``jet + 0.0`` on each coefficient row of X: -0.0 becomes +0.0, as sums
    started from 0 do."""
    out = X + t.zeros
    out[:, 0] = X[:, 0] + 0.0
    return out


def invert_jet_map(F):
    """Local series inverse of a jet map.

    F is a list of K jets of one table in K variables (taken at some base
    y0).  Returns an object array G of K jets, in variables w = F(y) - F(y0),
    representing y - y0; the base point of the returned jets is F(y0) split
    into real parts.  The jets of F are at one point.  The inversion works on
    the (K, size) coefficient rows of the components, one pass over the
    table per round.
    """
    _at_one_point(F, "invert_jet_map")
    order = F[0].order
    Ainv = np.linalg.inv(gradient(F))
    space = JetSpace(values(F).real, order)
    w = [x - b for x, b in zip(space.vars(), space.base)]
    t, W = w[0].table, np.array([x.coef for x in w])
    # shifted forward map: components of F(y0 + u) - F(y0) as series in u
    Fs = [f._like(f.coef.copy()) for f in F]
    for f in Fs:
        f.coef[0] = 0.0
    G = _plus_zero(t, _matvec_rows(Ainv, W))
    for _ in range(max(1, order)):
        R = np.array([r.coef for r in compose(Fs, [Jet(t, space.base, g) for g in G])]) - W
        if np.max(np.abs(R)) == 0:
            break
        G = G - _plus_zero(t, _matvec_rows(Ainv, R))
    out = np.empty(len(G), dtype=object)
    out[:] = [Jet(t, space.base, g) for g in G]
    return out
