"""Jet arithmetic, Wirtinger operators and the pairing layer."""

import numpy as np
import pytest

from twistorkit.jets import (
    Jet,
    JetError,
    JetSpace,
    SmoothMap,
    complex_view,
    dz,
    dz_power,
    _table,
    dzbar,
    gradient,
    invert_jet_map,
    laplacian,
    values,
)
from twistorkit.pairings import (
    DimensionError,
    bilinear_dot,
    hermitian_dot,
    is_isotropic_span,
)

RNG = np.random.default_rng(20240811)


# ---------------------------------------------------------------------------
# jet ring

def test_product_coefficients_are_convolutions():
    for _ in range(30):
        space = JetSpace(RNG.uniform(-1, 1, 2), 3)
        x, y = space.vars()
        ca, cb = RNG.normal(size=4), RNG.normal(size=4)
        f = ca[0] + ca[1] * x + ca[2] * y + ca[3] * x * y
        g = cb[0] + cb[1] * x + cb[2] * y + cb[3] * y * y
        prod = f * g
        fd = {a: f.coef[i] for i, a in enumerate(f.table.indices)}
        gd = {a: g.coef[i] for i, a in enumerate(g.table.indices)}
        conv = {}
        for a, va in fd.items():
            for b, vb in gd.items():
                key = (a[0] + b[0], a[1] + b[1])
                if sum(key) <= 3:
                    conv[key] = conv.get(key, 0.0) + va * vb
        for i, a in enumerate(prod.table.indices):
            assert abs(prod.coef[i] - conv.get(a, 0.0)) <= 1e-13


def test_division_and_analytic_functions():
    space = JetSpace([0.4, -0.3], 5)
    x, y = space.vars()
    f = (1 + x * x + y).sqrt()
    assert abs(f.value - np.sqrt(1 + 0.4 ** 2 - 0.3)) < 1e-14
    g = f * f
    assert abs(g.coefficient((2, 0)) - 1.0) < 1e-13
    h = (x.exp()).log()
    assert abs(h.deriv((1, 0)) - 1.0) < 1e-13
    q = (2 + x) / (2 + x)
    assert abs(q.value - 1.0) < 1e-15
    assert np.max(np.abs(q.coef[1:])) < 1e-15


def test_division_requires_nonzero_constant():
    space = JetSpace([0.0, 0.0], 3)
    x, _ = space.vars()
    with pytest.raises(JetError):
        (1 + x) / x


def test_mixed_base_points_rejected():
    a = JetSpace([0.0], 2).var(0)
    b = JetSpace([1.0], 2).var(0)
    assert a.table is b.table
    for op in (lambda: a + b, lambda: a - b, lambda: a * b):
        with pytest.raises(JetError, match="base points differ"):
            op()
    with pytest.raises(JetError, match="variable count"):
        a * JetSpace([0.0, 0.0], 2).var(0)


def test_deriv_order_guard():
    f = JetSpace([0.0], 2).var(0)
    with pytest.raises(JetError):
        f.deriv((3,))


# ---------------------------------------------------------------------------
# fast paths: scalar operands, shared tables, interned tables

SCALARS = [3, -2, 0.0, -0.0, 1.5, 1j, complex(-0.5, 2.0),
           np.float64(0.7), np.complex128(1 - 2j), np.int64(4)]


def _random_jet(nvars, order):
    space = JetSpace(RNG.uniform(-1, 1, nvars), order)
    t = _table(nvars, order)
    coef = RNG.normal(size=t.size) + 1j * RNG.normal(size=t.size)
    coef[RNG.random(t.size) < 0.2] = -0.0
    return Jet(t, space.base, coef)


@pytest.mark.parametrize("shape", [(1, 0), (2, 3), (3, 2), (2, 4), (6, 2)])
def test_scalar_operands_match_constant_jet_path(shape):
    a = _random_jet(*shape)
    for s in SCALARS:
        x, c = a._coerce(Jet.constant(s, a.nvars, a.order, a.base))
        for got, want in [(a + s, x + c), (s + a, c + x), (a - s, x - c),
                          (s - a, c - x), (a * s, x * c), (s * a, x * c)]:
            assert got.table is a.table and got.base is a.base
            assert np.array_equal(got.coef, want.coef)
    assert np.array_equal((-a).coef, (0 - a).coef)


def test_scalar_operands_leave_the_jet_unchanged():
    a = _random_jet(2, 3)
    before = a.coef.copy()
    for s in SCALARS:
        a + s, s - a, a - s, a * s
    assert np.array_equal(a.coef.view(float), before.view(float))


def test_mixed_orders_truncate_to_the_lower():
    base = (0.3, -0.2)
    x = JetSpace(base, 4).var(0)
    y = JetSpace(base, 2).var(1)
    for f in (x + y, y - x, x * y, y * x):
        assert f.order == 2 and f.table is _table(2, 2)
    assert np.array_equal((x * y).coef, (x.truncated(2) * y).coef)


def test_equal_but_distinct_base_tuples_combine():
    base = RNG.uniform(-1, 1, 2)
    x = JetSpace(base, 3).var(0)
    y = JetSpace(list(base), 3).var(1)
    assert x.base is not y.base and x.base == y.base
    assert np.array_equal((x * y).coef, (x * JetSpace(base, 3).var(1)).coef)


def test_tables_are_interned_prefixes():
    for nvars in (1, 2, 3, 6):
        assert _table(nvars, 3) is _table(nvars, 3)
        assert JetSpace(np.zeros(nvars), 3).var(0).table is _table(nvars, 3)
        lo, hi = _table(nvars, 2), _table(nvars, 4)
        assert hi.indices[: lo.size] == lo.indices
        assert np.array_equal(hi.degrees[: lo.size], lo.degrees)


def test_integer_powers_match_repeated_products():
    x, y = JetSpace([0.4, -0.7], 4).vars()
    f = 1.5 + x - 2j * y * x
    expect = JetSpace([0.4, -0.7], 4).const(1.0)
    for n in range(7):
        assert np.allclose((f ** n).coef, expect.coef, rtol=1e-13, atol=0)
        expect = expect * f
    assert np.array_equal((f ** 0).coef, JetSpace([0.4, -0.7], 4).const(1.0).coef)
    assert np.array_equal((f ** 1).coef, f.coef)
    with pytest.raises(JetError):
        f ** -1


# ---------------------------------------------------------------------------
# Wirtinger calculus

def test_dz_of_holomorphic_monomial():
    phi = SmoothMap.from_complex(1, 1, lambda z: [z * z])
    v = dz_power(phi, 1, 3.0 + 0j, order=2)
    # real-component vector (3, -3i); C-identified value 2z = 6
    assert np.allclose(v, [3.0, -3.0j])
    assert np.allclose(complex_view(v), [6.0])
    assert abs(bilinear_dot(v, v)) < 1e-14


def test_dz_of_antiholomorphic_vanishes():
    phi = SmoothMap.from_complex(1, 1, lambda z: [z.conj()])
    v = dz_power(phi, 1, 0.7 - 0.2j, order=1)
    # full Wirtinger derivative of zbar has zero (1,0)-content: view is 0
    assert abs(complex_view(v)[0]) < 1e-15
    w = dzbar(phi.complex_jets(np.array([0.7, -0.2]), 1)[0], 0)
    assert abs(w.value - 1.0) < 1e-15


def test_dz_second_derivative_c_view():
    phi = SmoothMap.from_complex(1, 2, lambda z: [z * z + z.conj(), z * z + z.conj()])
    v2 = dz_power(phi, 2, 0.3 + 0.9j, order=3)
    assert np.allclose(complex_view(v2), [2.0, 2.0])


def test_dz_power_order_guard():
    phi = SmoothMap.from_complex(1, 1, lambda z: [z])
    with pytest.raises(JetError):
        dz_power(phi, 3, 0.0 + 0j, order=2)


def test_dz_matches_richardson_finite_differences():
    # independent numeric oracle for 50 random degree-4 polynomial maps
    for _ in range(50):
        co = RNG.normal(size=(4, 5, 5))

        def ev(x, y, co=co):
            out = []
            for comp in co:
                acc = 0.0 * x
                for i in range(5):
                    for j in range(5):
                        if i + j <= 4:
                            acc = acc + comp[i, j] * x ** i * y ** j
                out.append(acc)
            return out

        phi = SmoothMap.from_real(2, 4, ev)
        z0 = RNG.uniform(-0.5, 0.5, 2)
        v = dz_power(phi, 1, z0, order=1)

        def val(p):
            return np.array([j.value.real for j in phi.jets(p, 0)])

        def fd(h):
            ddx = (val(z0 + [h, 0]) - val(z0 - [h, 0])) / (2 * h)
            ddy = (val(z0 + [0, h]) - val(z0 - [0, h])) / (2 * h)
            return 0.5 * (ddx - 1j * ddy)

        rich = (4 * fd(5e-5) - fd(1e-4)) / 3
        rel = np.max(np.abs(v - rich)) / max(1.0, np.max(np.abs(v)))
        assert rel <= 1e-5


def test_laplacian_values():
    harm = SmoothMap.from_real(2, 2, lambda x, y: [x * x - y * y, 0 * x])
    assert np.allclose(laplacian(harm, [0.3, 0.8]), [0.0, 0.0])
    bump = SmoothMap.from_real(2, 2, lambda x, y: [x * x, 0 * x])
    assert np.allclose(laplacian(bump, [0.3, 0.8]), [2.0, 0.0])
    with pytest.raises(JetError):
        laplacian(bump, [0.0, 0.0], order=1)


def test_evaluator_is_deterministic():
    phi = SmoothMap.from_complex(1, 2, lambda z: [(1 + z * z.conj()).sqrt(), z.exp()])
    p = np.array([0.3, -0.9])
    a = phi.jets(p, 3)
    b = phi.jets(p, 3)
    for ja, jb in zip(a, b):
        assert np.array_equal(ja.coef, jb.coef)


def test_laplacian_of_closed_form_morphism():
    from twistorkit.factory import closed_form_r6

    phi = closed_form_r6()
    rng = np.random.default_rng(5)
    count = 0
    while count < 10:
        q = rng.uniform(-1, 1, 6)
        qc = q[0::2] + 1j * q[1::2]
        if abs(1 + np.conj(qc[0]) - np.conj(qc[1])) <= 0.2:
            continue
        count += 1
        assert np.linalg.norm(laplacian(phi, q)) <= 1e-9


def test_holomorphic_maps_are_pluriconformal():
    # <dz phi, dz phi> = 0 for every holomorphic polynomial C -> C^n
    for _ in range(20):
        co = RNG.normal(size=(3, 4)) + 1j * RNG.normal(size=(3, 4))

        def fn(z, co=co):
            out = []
            for row in co:
                acc = None
                for c in reversed(row):
                    acc = c if acc is None else acc * z + c
                out.append(acc)
            return out

        phi = SmoothMap.from_complex(1, 3, fn)
        z0 = RNG.uniform(-1, 1, 2)
        v = dz_power(phi, 1, z0, order=1)
        assert abs(bilinear_dot(v, v)) <= 1e-12


# ---------------------------------------------------------------------------
# read-off of values and first derivatives

def _random_jet(nvars, order):
    xs = JetSpace(RNG.uniform(-1, 1, nvars), order).vars()
    c = RNG.normal(size=3) + 1j * RNG.normal(size=3)
    return (c[0] * xs[0] * xs[-1] + c[1] * xs[-1] + c[2]).exp()


def _bits(a):
    return np.asarray(a).tobytes()


def test_values_and_gradient_read_nested_jets_bitwise():
    for nvars in (1, 2, 3, 6):
        # a 2 x 3 matrix of jets with mixed orders, as a nested list
        M = [[_random_jet(nvars, order) for order in (1, 2, 4)] for _ in range(2)]
        vals, grad = values(M), gradient(M)
        assert vals.shape == (2, 3) and grad.shape == (2, 3, nvars)
        for a in range(2):
            for b in range(3):
                assert _bits(vals[a, b]) == _bits(M[a][b].coef[0])
                for v in range(nvars):
                    assert _bits(grad[a, b, v]) == _bits(M[a][b].partial(v).value)
        jet = M[0][0]
        assert _bits(gradient(jet)) == _bits([jet.partial(v).value for v in range(nvars)])
    with pytest.raises(JetError):
        gradient(JetSpace([0.1], 0).var(0))


def test_wirtinger_of_gradient_matches_jet_operator_bitwise():
    for m in (1, 2, 3):
        jets = [_random_jet(2 * m, order) for order in (1, 2, 3, 2)]
        grad = gradient(jets)
        for i in range(m):
            for op in (dz, dzbar):
                assert _bits(op(grad, i)) == _bits([op(j, i).value for j in jets])


def test_smooth_map_takes_complex_or_real_points():
    phi = SmoothMap.from_complex(2, 1, lambda z, w: [z * w.conj() + (z * z).exp()])
    zc = np.array([0.3 - 0.2j, -0.5 + 0.7j])
    for complex_form in (zc, list(zc)):
        for a, b in zip(phi.jets(complex_form, 3), phi.jets([0.3, -0.2, -0.5, 0.7], 3)):
            assert a.base == b.base and _bits(a.coef) == _bits(b.coef)
    # a real array of half the domain dimension is read as complex coordinates
    psi = SmoothMap.from_complex(1, 1, lambda z: [z * z])
    assert _bits(psi.jacobian(np.array([0.5]))) == _bits(psi.jacobian([0.5, 0.0]))


# ---------------------------------------------------------------------------
# jet-map inversion

def test_invert_jet_map_second_order():
    space = JetSpace([0.5, -0.2], 3)
    y0, y1 = space.vars()
    F = [y0 + y1 * y1, y1 + 0.3 * y0 * y0]
    G = invert_jet_map(F)
    # spot-check by composing numerically at a nearby target offset
    w = np.array([1e-3, -2e-3])
    y = np.array([0.5, -0.2]) + np.array(
        [sum(G[i].coef[p] * np.prod(w ** np.array(a))
             for p, a in enumerate(G[i].table.indices)).real
         for i in range(2)])
    val = np.array([y[0] + y[1] ** 2, y[1] + 0.3 * y[0] ** 2])
    target = np.array([F[0].value.real, F[1].value.real]) + w
    assert np.max(np.abs(val - target)) < 1e-10


# ---------------------------------------------------------------------------
# pairings

def test_bilinear_dot_examples():
    assert bilinear_dot([1, 1j], [1, 1j]) == 0
    assert bilinear_dot([1, 0], [0, 1]) == 0
    u = RNG.normal(size=5) + 1j * RNG.normal(size=5)
    v = RNG.normal(size=5) + 1j * RNG.normal(size=5)
    assert abs(bilinear_dot(u, v) - bilinear_dot(v, u)) < 1e-15
    with pytest.raises(DimensionError):
        bilinear_dot([1, 2], [1, 2, 3])


def test_hermitian_dot_examples():
    assert hermitian_dot([1, 1j], [1, 1j]) == 2
    assert hermitian_dot([1, 1j], [1, -1j]) == 0
    u = RNG.normal(size=6) + 1j * RNG.normal(size=6)
    h = hermitian_dot(u, u)
    assert abs(h.imag) < 1e-14 and h.real >= 0


def test_isotropic_span():
    e = np.eye(4)
    ok, res = is_isotropic_span([e[0] - 1j * e[1]])
    assert ok and res == 0
    ok, res = is_isotropic_span([e[0]])
    assert not ok and res == 1
    ok, res = is_isotropic_span([e[0] - 1j * e[1], e[2] - 1j * e[3]])
    assert ok and res == 0
    with pytest.raises(DimensionError):
        is_isotropic_span([])
