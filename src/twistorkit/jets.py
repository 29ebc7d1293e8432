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
"""

from __future__ import annotations

import math
from itertools import product as _iproduct

import numpy as np

DEFAULT_JET_ORDER = 4


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

    def mul_triples(self):
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
            self._mul = (np.array(I), np.array(J), np.array(K))
        return self._mul

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
    the base point is ``alpha! * coef[i]``.
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
        c = np.zeros(t.size, dtype=complex)
        c[0] = value
        return Jet(t, base, c)

    @staticmethod
    def variable(i, nvars, order, base):
        t = _table(nvars, order)
        c = np.zeros(t.size, dtype=complex)
        c[0] = base[i]
        if order >= 1:
            c[nvars - i] = 1.0  # e_i, see gradient
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
        return self.coef[0]

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
        return Jet(t, self.base, self.coef[: t.size].copy())

    def _coerce(self, other):
        """Align two jets to a common table, the lower of the two orders."""
        ta, tb = self.table, other.table
        if ta is tb and other.base is self.base:
            return self, other
        if ta.nvars != tb.nvars:
            raise JetError(f"jet variable count mismatch: {ta.nvars} vs {tb.nvars}")
        a, b = self.base, other.base
        if not ((type(a) is tuple and type(b) is tuple and a == b)
                or np.array_equal(np.asarray(a), np.asarray(b))):
            raise JetError("jet base points differ")
        # The lower-order table is a prefix of the higher one, so a view of the
        # leading coefficients truncates; the operation copies into a new array.
        if ta.order < tb.order:
            return self, Jet(ta, b, other.coef[: ta.size])
        if tb.order < ta.order:
            return Jet(tb, a, self.coef[: tb.size]), other
        return self, other

    # -- ring operations ---------------------------------------------
    # A scalar acts on ``coef`` directly.  The results equal, bit for bit,
    # those of the same operation with the constant jet of the scalar:
    # adding ``table.zeros`` turns -0.0 into +0.0 as adding the constant's
    # zero coefficients did.
    def __add__(self, other):
        if isinstance(other, Jet):
            a, b = self._coerce(other)
            return Jet(a.table, a.base, a.coef + b.coef)
        c = self.coef + self.table.zeros
        c[0] = self.coef[0] + other
        return Jet(self.table, self.base, c)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            a, b = self._coerce(other)
            return Jet(a.table, a.base, a.coef - b.coef)
        c = self.coef.copy()
        c[0] = self.coef[0] - other
        return Jet(self.table, self.base, c)

    def __rsub__(self, other):
        c = self.table.zeros - self.coef
        c[0] = other - self.coef[0]
        return Jet(self.table, self.base, c)

    def __neg__(self):
        return Jet(self.table, self.base, -self.coef)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.table, self.base, self.coef * complex(other))
        a, b = self._coerce(other)
        I, J, K = a.table.mul_triples()
        out = np.zeros(a.table.size, dtype=complex)
        np.add.at(out, K, a.coef[I] * b.coef[J])
        return Jet(a.table, a.base, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
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
    def _series(self, a):
        """sum_k a[k] * (self - value)**k, truncated; a[k] = f^(k)(value)/k!."""
        n = min(len(a), self.order + 1)
        if n == 1:
            return Jet.constant(a[0], self.nvars, self.order, self.base)
        u = self - self.value
        p = u
        out = a[1] * p + a[0]
        for k in range(2, n):
            p = p * u
            out = out + a[k] * p
        return out

    def reciprocal(self):
        c = self.value
        if c == 0:
            raise JetError("jet division requires a nonzero constant term")
        return self._series([(-1) ** k / c ** (k + 1) for k in range(self.order + 1)])

    def sqrt(self):
        c = self.value
        if c == 0:
            raise JetError("jet sqrt requires a nonzero constant term")
        r = np.sqrt(complex(c))
        a = [r]
        for k in range(1, self.order + 1):
            a.append(a[-1] * (0.5 - (k - 1)) / k / c)
        return self._series(a)

    def exp(self):
        e = np.exp(complex(self.value))
        return self._series([e / math.factorial(k) for k in range(self.order + 1)])

    def log(self):
        c = self.value
        if c == 0:
            raise JetError("jet log requires a nonzero constant term")
        a = [np.log(complex(c))]
        for k in range(1, self.order + 1):
            a.append((-1) ** (k + 1) / (k * c ** k))
        return self._series(a)

    # -- derivatives ----------------------------------------------------
    def coefficient(self, alpha):
        return self.coef[self.table.position[tuple(alpha)]]

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
        return Jet(t, self.base, self.coef[src] * mult)


class JetSpace:
    """Factory for jets sharing one base point and truncation order."""

    def __init__(self, base_point, order):
        self.base = tuple(float(x) for x in np.atleast_1d(base_point))
        self.order = int(order)
        self.nvars = len(self.base)

    def var(self, i):
        return Jet.variable(i, self.nvars, self.order, self.base)

    def const(self, value):
        return Jet.constant(value, self.nvars, self.order, self.base)

    def vars(self):
        return [self.var(i) for i in range(self.nvars)]

    def complex_vars(self):
        """z_j = x_{2j} + i x_{2j+1}; requires an even number of variables."""
        if self.nvars % 2:
            raise JetError("complex variables need an even-dimensional space")
        xs = self.vars()
        return [xs[2 * j] + 1j * xs[2 * j + 1] for j in range(self.nvars // 2)]


# ---------------------------------------------------------------------------
# point conversions C^m <-> R^(2m)

def complex_to_real_point(z):
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty(2 * z.size)
    out[0::2] = z.real
    out[1::2] = z.imag
    return out


def _as_real_point(x, dim):
    """A point of R^dim from real coordinates, or from complex ones (complex
    input, or a real array of dim/2 entries) through complex_to_real_point."""
    x = np.atleast_1d(np.asarray(x))
    if np.iscomplexobj(x) or 2 * x.size == dim:
        return complex_to_real_point(x)
    return np.asarray(x, dtype=float)


def real_to_complex_point(x):
    x = np.asarray(x, dtype=float)
    return x[0::2] + 1j * x[1::2]


def complex_view(vec):
    """Pair consecutive entries of a real-component vector: v_{2j}+i v_{2j+1}.

    This is the C^n-identified view of a (complexified) tangent vector; the
    full 2n-component vector is the primary representation and is what the
    bilinear pairings consume.
    """
    vec = np.asarray(vec)
    return vec[0::2] + 1j * vec[1::2]


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
        real coordinates or in complex ones (see :func:`_as_real_point`)."""
        point = _as_real_point(point, self.domain_dim)
        if point.size != self.domain_dim:
            raise JetError(
                f"point dimension {point.size} != domain dimension {self.domain_dim}")
        out = self.evaluator(point, order)
        if len(out) != self.codomain_dim:
            raise JetError("evaluator returned wrong number of components")
        return out

    def complex_jets(self, point, order):
        js = self.jets(point, order)
        return [js[2 * k] + 1j * js[2 * k + 1] for k in range(self.codomain_dim // 2)]

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
            space = JetSpace(point, order)
            ws = fn(*space.complex_vars())
            if isinstance(ws, Jet):
                ws = [ws]
            out = []
            for w in ws:
                out.append(w.real)
                out.append(w.imag)
            return out

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
    stacked with the same nesting."""
    if isinstance(jets, Jet):
        return jets.coef[0]
    return np.array([values(j) for j in jets])


def gradient(jets):
    """First derivatives at the base point of a jet or of a nested sequence
    of jets: ``gradient(jets)[..., v]`` is d/dx_v.  In every table the unit
    multi-index e_v sits at position nvars - v (degree 1, lex order).

    The ``.real`` of this or of :func:`values` is a strided view; callers
    copy it before matrix products, which on a strided operand skip BLAS
    and can differ from it in the last bit."""
    if isinstance(jets, Jet):
        if jets.order == 0:
            raise JetError("an order-0 jet has no gradient")
        return jets.coef[jets.nvars:0:-1]
    return np.array([gradient(j) for j in jets])


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


def dz_power(phi, r, z0, direction=0, order=None):
    """Exact r-th iterated d/dz_{direction} derivative of every real
    component: the last of :func:`dz_vectors`.

    The jets are evaluated at order r; ``order`` (default
    ``DEFAULT_JET_ORDER``) does not change them, it only caps r.
    """
    if r < 1:
        raise JetError("dz_power needs r >= 1")
    order = DEFAULT_JET_ORDER if order is None else order
    if r > order:
        raise JetError(f"r={r} exceeds jet order {order}")
    return dz_vectors(phi, z0, r, direction)[-1]


def laplacian(phi, x0, order=2):
    """Sum of pure second partials over all domain coordinates (flat spaces)."""
    if order < 2:
        raise JetError("laplacian needs jet order >= 2")
    return np.array([_laplace_trace(jet) for jet in phi.jets(x0, order)])


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

def compose(f, gs):
    """Substitute jets gs (in new variables) for the offsets of jet f.

    All g in gs must share a table; g_k stands for x_k - base_k of f's space,
    so each g must have zero constant term.
    """
    g0 = gs[0]
    for g in gs:
        if abs(g.value) > 0:
            raise JetError("composition offsets must have zero constant term")
    order = g0.order
    powers = []
    for g in gs:
        ps = [None, g]
        for _ in range(1, order):
            ps.append(ps[-1] * g)
        powers.append(ps)
    out = Jet.constant(f.coef[0], g0.nvars, order, g0.base)
    # monomials of degree 1..order form a contiguous run of f's table
    for pos in range(1, f.table.prefix_size(min(order, f.order))):
        c = f.coef[pos]
        if c == 0:
            continue
        term = None
        for k, e in enumerate(f.table.indices[pos]):
            if not e:
                continue
            p = powers[k][e]
            # c first: the product kernel multiplied the constant jet of c into
            # p in that operand order, and complex SIMD products are not
            # bitwise commutative.
            term = Jet(p.table, p.base, c * p.coef) if term is None else term * p
        out = out + term
    return out


def invert_jet_map(F):
    """Local series inverse of a jet map.

    F is a list of K jets in K variables (taken at some base y0).  Returns a
    list G of K jets, in variables w = F(y) - F(y0), representing y - y0; the
    base point of the returned jets is F(y0) split into real parts.
    """
    K = len(F)
    order = F[0].order
    q0 = np.array([f.value for f in F])
    A = gradient(F)
    Ainv = np.linalg.inv(A)
    new_base = tuple(v.real for v in q0)
    w = [Jet.variable(i, K, order, new_base) - new_base[i] for i in range(K)]
    # shifted forward map: components of F(y0 + u) - q0 as series in u
    Fs = [f._like(f.coef.copy()) for f in F]
    for f in Fs:
        f.coef[0] = 0.0
    G = [sum(Ainv[i, j] * w[j] for j in range(K)) for i in range(K)]
    for _ in range(max(1, order)):
        R = [compose(Fs[i], G) - w[i] for i in range(K)]
        if all(np.max(np.abs(r.coef)) == 0 for r in R):
            break
        G = [G[i] - sum(Ainv[i, j] * R[j] for j in range(K)) for i in range(K)]
    return G
