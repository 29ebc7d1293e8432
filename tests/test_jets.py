"""Jet arithmetic, Wirtinger operators and the pairing layer."""

import zlib

import numpy as np
import pytest

from twistorkit import jets
from twistorkit.jets import (
    Jet,
    JetError,
    JetSpace,
    SmoothMap,
    complex_view,
    compose,
    dz,
    dz_power,
    _table,
    dzbar,
    gradient,
    invert_jet_map,
    laplacian,
    merge_rows,
    real_to_complex_point,
    split_rows,
    stack,
    values,
)
from twistorkit.pairings import (
    DimensionError,
    bilinear_dot,
    hermitian_dot,
    is_isotropic_span,
)

from jet_objects import objects



@pytest.fixture
def rng(request):
    """A generator seeded from the test's own name: no test's data depends on
    which tests ran before it."""
    return np.random.default_rng(zlib.crc32(request.node.name.encode()))


# ---------------------------------------------------------------------------
# jet ring

def test_product_coefficients_are_convolutions(rng):
    for _ in range(30):
        space = JetSpace(rng.uniform(-1, 1, 2), 3)
        x, y = space.vars()
        ca, cb = rng.normal(size=4), rng.normal(size=4)
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


def _random_jet(rng, nvars, order):
    space = JetSpace(rng.uniform(-1, 1, nvars), order)
    t = _table(nvars, order)
    coef = rng.normal(size=t.size) + 1j * rng.normal(size=t.size)
    coef[rng.random(t.size) < 0.2] = -0.0
    return Jet(t, space.base, coef)


@pytest.mark.parametrize("shape", [(1, 0), (2, 3), (3, 2), (2, 4), (6, 2)])
def test_scalar_operands_match_constant_jet_path(shape, rng):
    a = _random_jet(rng, *shape)
    for s in SCALARS:
        x, c = a._coerce(Jet.constant(s, a.nvars, a.order, a.base))
        for got, want in [(a + s, x + c), (s + a, c + x), (a - s, x - c), (s - a, c - x)]:
            assert got.table is a.table and got.base is a.base
            assert _bits(got.coef) == _bits(want.coef)
        # a product keeps the sign of a -0.0 coefficient, the convolution does not
        for got in (a * s, s * a):
            assert got.table is a.table and got.base is a.base
            assert _bits(got.coef + 0.0) == _bits((x * c).coef + 0.0)
    assert np.array_equal((-a).coef, (0 - a).coef)


def test_scalar_operands_leave_the_jet_unchanged(rng):
    a = _random_jet(rng, 2, 3)
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


def test_equal_but_distinct_base_tuples_combine(rng):
    base = rng.uniform(-1, 1, 2)
    x = JetSpace(base, 3).var(0)
    y = JetSpace(list(base), 3).var(1)
    assert x.base is not y.base and _bits(x.base) == _bits(y.base)
    assert np.array_equal((x * y).coef, (x * JetSpace(base, 3).var(1)).coef)


def test_base_is_a_read_only_array_kept_when_passed_back():
    for point in ([0.3, -0.2], (0.5,), np.array([[0.1, 0.2], [0.3, 0.4]])):
        space = JetSpace(point, 2)
        assert type(space.base) is np.ndarray and not space.base.flags.writeable
        assert _bits(space.base) == _bits(np.asarray(point, dtype=float))
        assert JetSpace(space.base, 1).base is space.base


def test_single_jet_read_offs_are_numpy_scalars():
    x, y = JetSpace([0.3, -0.2], 2).vars()
    f = x * y + 1.5
    for got in (f.value, f.coefficient((1, 1)), f.deriv((1, 1)), values(f)):
        assert isinstance(got, np.complex128)
    assert values(f) == f.value == 1.5 + 0.3 * -0.2 and f.coefficient((1, 1)) == 1.0


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
    for n in (np.int64(2), np.int32(3), np.uint8(0)):
        assert _bits((f ** n).coef) == _bits((f ** int(n)).coef)
    for bad in (-1, np.int64(-2), 1.5, 2.0, np.float64(2.0), "2"):
        with pytest.raises(JetError, match="nonnegative integers"):
            f ** bad


# ---------------------------------------------------------------------------
# Wirtinger calculus

def test_dz_of_holomorphic_monomial():
    phi = SmoothMap.from_complex(1, 1, lambda z: [z * z])
    v = dz_power(phi, 1, 3.0 + 0j)
    # real-component vector (3, -3i); C-identified value 2z = 6
    assert np.allclose(v, [3.0, -3.0j])
    assert np.allclose(complex_view(v), [6.0])
    assert abs(bilinear_dot(v, v)) < 1e-14


def test_dz_of_antiholomorphic_vanishes():
    phi = SmoothMap.from_complex(1, 1, lambda z: [z.conj()])
    v = dz_power(phi, 1, 0.7 - 0.2j)
    # full Wirtinger derivative of zbar has zero (1,0)-content: view is 0
    assert abs(complex_view(v)[0]) < 1e-15
    w = dzbar(phi.complex_jets(np.array([0.7, -0.2]), 1)[0], 0)
    assert abs(w.value - 1.0) < 1e-15


def test_dz_second_derivative_c_view():
    phi = SmoothMap.from_complex(1, 2, lambda z: [z * z + z.conj(), z * z + z.conj()])
    v2 = dz_power(phi, 2, 0.3 + 0.9j)
    assert np.allclose(complex_view(v2), [2.0, 2.0])


def test_dz_matches_richardson_finite_differences(rng):
    # independent numeric oracle for 50 random degree-4 polynomial maps
    for _ in range(50):
        co = rng.normal(size=(4, 5, 5))

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
        z0 = rng.uniform(-0.5, 0.5, 2)
        v = dz_power(phi, 1, z0)

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


def test_evaluator_is_deterministic():
    phi = SmoothMap.from_complex(1, 2, lambda z: [(1 + z * z.conj()).sqrt(), z.exp()])
    p = np.array([0.3, -0.9])
    a = phi.jets(p, 3)
    b = phi.jets(p, 3)
    for ja, jb in zip(a, b):
        assert np.array_equal(ja.coef, jb.coef)


def test_smooth_map_jets_are_one_vector_jet_of_the_scalar_component_bits(rng):
    def fn(z):
        return [(1 + z * z.conj()).sqrt(), z.exp() * -0.0]

    phi = SmoothMap.from_complex(1, 2, fn)
    for p in (rng.uniform(-1, 1, 2), rng.uniform(-1, 1, (BATCH, 2))):
        x, y = JetSpace(p, 3).vars()
        parts = [part for w in fn(x + 1j * y) for part in (w.real, w.imag)]
        jets, zs = phi.jets(p, 3), phi.complex_jets(p, 3)
        assert jets.shape == (4,) and jets.coef.flags.c_contiguous and zs.shape == (2,)
        for k, part in enumerate(parts):
            assert _bits(jets[k].coef) == _bits(part.coef)
        for k in range(2):
            assert _bits(zs[k].coef) == _bits((parts[2 * k] + 1j * parts[2 * k + 1]).coef)
        # a scalar jet from the function is the one component
        assert SmoothMap.from_real(2, 1, lambda x, y: x * y).jets(p, 2).shape == (1,)
        one = SmoothMap.from_complex(1, 1, lambda z: z * z).jets(p, 2)
        assert one.shape == (2,) and _bits(one.coef) == _bits(
            SmoothMap.from_complex(1, 1, lambda z: [z * z]).jets(p, 2).coef)
    with pytest.raises(JetError, match="wrong number"):
        SmoothMap(2, 3, lambda p, order: JetSpace(p, order).vars()).jets([0.1, 0.2], 1)


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


def test_holomorphic_maps_are_pluriconformal(rng):
    # <dz phi, dz phi> = 0 for every holomorphic polynomial C -> C^n
    for _ in range(20):
        co = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))

        def fn(z, co=co):
            out = []
            for row in co:
                acc = None
                for c in reversed(row):
                    acc = c if acc is None else acc * z + c
                out.append(acc)
            return out

        phi = SmoothMap.from_complex(1, 3, fn)
        z0 = rng.uniform(-1, 1, 2)
        v = dz_power(phi, 1, z0)
        assert abs(bilinear_dot(v, v)) <= 1e-12


def _variables_one_at_a_time(space):
    """The variables and their complex pairs as built before one array held
    them: one zero coefficient array each, with the base coordinate as the
    constant term and 1.0 at the unit position nvars - i, paired as
    ``x + 1j * y``."""
    t = _table(space.nvars, space.order)
    xs = []
    for i in range(space.nvars):
        c = np.zeros(space.base.shape[:-1] + (t.size,), dtype=complex)
        c[..., 0] = space.base[..., i]
        if space.order >= 1:
            c[..., space.nvars - i] = 1.0
        xs.append(Jet(t, space.base, c))
    return xs, [x + 1j * y for x, y in zip(xs[0::2], xs[1::2])]


@pytest.mark.parametrize("nvars", [2, 6])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("batch", [(), (1,), (5,)])
def test_variables_from_one_array_match_one_variable_at_a_time_bitwise(nvars, order, batch):
    rng = np.random.default_rng(10 * nvars + order)
    base = rng.uniform(-1, 1, batch + (nvars,))
    base.reshape(-1)[::3] = -0.0
    space = JetSpace(base, order)
    want_x, want_z = _variables_one_at_a_time(space)
    one_var = [space.var(i) for i in range(space.nvars)]
    for got, want in ((space.vars(), want_x), (one_var, want_x),
                      (space.complex_vars(), want_z)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.table is w.table and g.base is space.base
            assert g.coef.shape == w.coef.shape and _bits(g.coef) == _bits(w.coef)
    with pytest.raises(JetError, match="even number of entries, got 3"):
        JetSpace(np.zeros(batch + (3,)), order).complex_vars()
    # the first variable as it is and the rest paired, as complex_family takes t
    space = JetSpace(np.concatenate([base[..., :1], base], axis=-1), order)
    t, *xs = _variables_one_at_a_time(space)[0]
    want = [t] + [x + 1j * y for x, y in zip(xs[0::2], xs[1::2])]
    got = space.complex_vars(real=1)
    assert [g.coef.shape for g in got] == [w.coef.shape for w in want]
    assert [_bits(g.coef) for g in got] == [_bits(w.coef) for w in want]


SERIES_CONSTANTS = [0.7 - 0.3j, -1.3 + 2.1j, -0.0 + 2.0j, 1e-300 + 0j, 3e-170 - 2e-170j,
                    1e300 + 0j, 1e154 + 1e154j, complex(np.inf, 0.0), complex(np.nan, 1.0),
                    complex(1.0, -np.inf)]


@pytest.mark.parametrize("order", range(7))
def test_one_point_series_powers_match_np_power_bitwise(order):
    # the numpy scalar's ``**`` equals ``np.power`` bitwise, and a one-point
    # jet expands as a batch of one does
    t = _table(2, order)
    for c in map(np.complex128, SERIES_CONSTANTS):
        coef = np.linspace(0.25, 1.0, t.size) * (1 - 0.5j)
        coef[0] = c
        one = Jet(t, np.array([0.1, -0.2]), coef)
        batch = Jet(t, one.base[None], coef[None])
        with np.errstate(all="ignore"):
            for k in range(1, order + 2):
                assert _bits(c ** k) == _bits(np.power(c, k))
            for op in ("reciprocal", "log"):
                assert _bits(getattr(one, op)().coef) == _bits(getattr(batch, op)().coef[0])


@np.errstate(invalid="ignore")  # inf - inf in the infinite entries
def test_real_split_is_each_entrys_real_and_imaginary_part_bitwise(rng):
    for batch, order in (((), 2), ((4,), 3)):
        t = _table(3, order)
        coef = rng.normal(size=batch + (2, t.size)) + 1j * rng.normal(size=batch + (2, t.size))
        coef.reshape(-1)[::5] = complex(-0.0, -0.0)
        coef.reshape(-1)[1::7] = complex(np.inf, np.nan)
        w = Jet(t, rng.uniform(-1, 1, batch + (3,)), coef)
        # (re w0, im w0, re w1, im w1) from the whole vector's real and imag
        want = stack([w.real, w.imag]).coef.swapaxes(-3, -2).reshape(batch + (4, t.size))
        for ws in (w, list(w)):
            got = jets._real_split(ws).coef
            assert got.shape == want.shape and _bits(got) == _bits(want)
        assert _bits(jets._real_split(w[1]).coef) == _bits(stack([w[1].real, w[1].imag]).coef)


# ---------------------------------------------------------------------------
# read-off of values and first derivatives

def _random_exp_jet(rng, base, order):
    xs = JetSpace(base, order).vars()
    c = rng.normal(size=3) + 1j * rng.normal(size=3)
    return (c[0] * xs[0] * xs[-1] + c[1] * xs[-1] + c[2]).exp()


def _bits(a):
    return np.asarray(a).tobytes()


def test_values_and_gradient_read_nested_jets_bitwise(rng):
    for nvars in (1, 2, 3, 6):
        # a 2 x 3 matrix of jets with mixed orders at one point, as a nested list
        base = rng.uniform(-1, 1, nvars)
        M = [[_random_exp_jet(rng, base, order) for order in (1, 2, 4)]
             for _ in range(2)]
        vals, grad = values(M), gradient(M)
        assert vals.shape == (2, 3) and grad.shape == (2, 3, nvars)
        for a in range(2):
            for b in range(3):
                assert _bits(vals[a, b]) == _bits(M[a][b].coef[0])
                for v in range(nvars):
                    assert _bits(grad[a, b, v]) == _bits(M[a][b].partial(v).value)
        jet = M[0][0]
        assert _bits(gradient(jet)) == _bits([jet.partial(v).value for v in range(nvars)])
    # batched leaves at one base point: the batch axis comes first
    P, Q = rng.uniform(-1, 1, (2, 4, 2))
    pair = [JetSpace(P, 2).var(0).exp(), JetSpace(P, 1).var(1) * 2.0]
    assert values(pair).shape == (4, 2) and gradient(pair).shape == (4, 2, 2)
    for r in range(4):
        for k, jet in enumerate(pair):
            assert _bits(values(pair)[r, k]) == _bits(jet.coef[r, 0])
            assert _bits(gradient(pair)[r, k]) == _bits(jet.coef[r, 2:0:-1])
    with pytest.raises(JetError):
        gradient(JetSpace([0.1], 0).var(0))
    with pytest.raises(JetError, match="base points differ"):
        stack([pair[0], JetSpace(Q, 1).var(1)])


@pytest.mark.parametrize("read", [values, gradient])
def test_reads_of_leaves_at_different_base_points_raise(read, rng):
    # as stack of them does (test_values_and_gradient_read_nested_jets_bitwise)
    P, Q = rng.uniform(-1, 1, (2, 4, 2))
    for apart in ([JetSpace(P, 2).var(0).exp(), JetSpace(Q, 1).var(1) * 2.0],
                  [[JetSpace(P[0], 1).var(0)], [JetSpace(Q[0], 1).var(0)]]):
        with pytest.raises(JetError, match="base points differ"):
            read(apart)


def test_wirtinger_of_gradient_matches_jet_operator_bitwise(rng):
    for m in (1, 2, 3):
        base = rng.uniform(-1, 1, 2 * m)
        jets = [_random_exp_jet(rng, base, order) for order in (1, 2, 3, 2)]
        grad = gradient(jets)
        for i in range(m):
            for op in (dz, dzbar):
                assert _bits(op(grad, i)) == _bits([op(j, i).value for j in jets])


def test_complex_pairing_rejects_an_odd_count():
    phi = SmoothMap.from_real(2, 3, lambda x, y: [x, y, x * y])
    for pair in (lambda: real_to_complex_point([1.0, 2.0, 3.0]),
                 lambda: complex_view(np.zeros(1)),
                 lambda: phi.complex_jets([0.1, 0.2], 1),
                 lambda: JetSpace([0.1, 0.2, 0.3], 1).complex_vars()):
        with pytest.raises(JetError, match="even number"):
            pair()
    assert _bits(real_to_complex_point([1.0, -0.0, 3.0, 4.0])) == _bits([1 + 0j, 3 + 4j])


def test_smooth_map_takes_complex_or_real_points():
    phi = SmoothMap.from_complex(2, 1, lambda z, w: [z * w.conj() + (z * z).exp()])
    zc = np.array([0.3 - 0.2j, -0.5 + 0.7j])
    for complex_form in (zc, list(zc)):
        for a, b in zip(phi.jets(complex_form, 3), phi.jets([0.3, -0.2, -0.5, 0.7], 3)):
            assert _bits(a.base) == _bits(b.base) and _bits(a.coef) == _bits(b.coef)
    # a real array of half the domain dimension is read as complex coordinates
    psi = SmoothMap.from_complex(1, 1, lambda z: [z * z])
    assert _bits(psi.jacobian(np.array([0.5]))) == _bits(psi.jacobian([0.5, 0.0]))


# ---------------------------------------------------------------------------
# batched jets: row r of every result is the result for the jet of row r

BATCH = 5
BATCH_SHAPES = [(1, 2), (2, 3), (3, 2), (6, 2)]


def _batch_of(rows, base=None):
    """One batched jet from jets of one table, row r expanded at
    ``rows[r].base`` unless a batch ``base`` is given."""
    if base is None:
        base = np.array([j.base for j in rows])
    return Jet(rows[0].table, base, np.array([j.coef for j in rows]))


def _row(batch, r):
    """The single jet of row r of a batch."""
    return Jet(batch.table, batch.base[r], batch.coef[r].copy())


def _random_batch(rng, nvars, order, base=None):
    return _batch_of([_random_jet(rng, nvars, order) for _ in range(BATCH)], base)


def _assert_rows_match(got, want_of_row, rows=BATCH):
    assert got.coef.shape[0] == rows
    for r in range(rows):
        want = want_of_row(r)
        assert got.table is want.table
        assert _bits(got.coef[r]) == _bits(want.coef)


@pytest.mark.parametrize("shape", BATCH_SHAPES)
def test_batched_ring_operations_match_rows_bitwise(shape, rng):
    a = _random_batch(rng, *shape)
    b = _random_batch(rng, *shape, base=a.base)
    b.coef[:, 0] = 2.0 + rng.random(BATCH)        # b divides: nonzero constant terms
    s = rng.normal(size=BATCH) + 1j * rng.normal(size=BATCH)
    s[1], s[2] = -0.0, 0.0                        # one scalar per row, zeros signed
    t = rng.normal(size=BATCH) + 2.5              # a real divisor per row
    ops = [lambda x, y, c, d: x + y, lambda x, y, c, d: x - y,
           lambda x, y, c, d: x * y, lambda x, y, c, d: x / y,
           lambda x, y, c, d: x + c, lambda x, y, c, d: x - c,
           lambda x, y, c, d: x * c, lambda x, y, c, d: x * d,
           lambda x, y, c, d: x / d, lambda x, y, c, d: x / (c + d),
           lambda x, y, c, d: 1.5 - x, lambda x, y, c, d: -0.0 + x,
           lambda x, y, c, d: (2 - 1j) * x, lambda x, y, c, d: 1 / y,
           lambda x, y, c, d: -x, lambda x, y, c, d: x.real * y.imag]
    for op in ops:
        _assert_rows_match(op(a, b, s, t),
                           lambda r: op(_row(a, r), _row(b, r), s[r], t[r]))


def test_row_targets_cache_stays_bounded_over_many_batch_sizes(rng):
    # products of one table at 200 batch sizes: the cache of row targets
    # holds no more than its bound, and each row is still the product of
    # its jets alone
    t = _table(2, 3)
    base = JetSpace(rng.uniform(-1, 1, (200, 2)), 3).base
    A, B = rng.normal(size=(2, 200, t.size)) + 1j * rng.normal(size=(2, 200, t.size))
    ones = np.array([(Jet(t, base[r], A[r]) * Jet(t, base[r], B[r])).coef for r in range(200)])
    bound = jets._Table.row_targets.cache_parameters()["maxsize"]
    assert bound is not None
    for rows in range(1, 201):
        rows_base = base[:rows]
        prod = Jet(t, rows_base, A[:rows]) * Jet(t, rows_base, B[:rows])
        assert jets._Table.row_targets.cache_info().currsize <= bound
        assert _bits(prod.coef) == _bits(ones[:rows])


@pytest.mark.parametrize("lead_a, lead_b", [
    ((50,), (50,)), ((1,), (50,)), ((50,), (1,)), ((), (50,)), ((50,), ()),
], ids=["equal", "a-broadcasts", "b-broadcasts", "a-no-lead", "b-no-lead"])
def test_mul_rows_in_blocks_is_the_one_pass_product_bitwise(lead_a, lead_b, rng, monkeypatch):
    # isotropy-reduction's (50, 4)-entry order-4 products: 14000 products,
    # more than one block, and a leading axis of length 1 or none broadcasts
    t = _table(2, 4)
    a, b = (rng.normal(size=s + (4, t.size)) + 1j * rng.normal(size=s + (4, t.size))
            for s in (lead_a, lead_b))
    a.reshape(-1)[::7], b.reshape(-1)[::5] = -0.0, np.nan
    assert 50 * 4 * len(t.triples[0]) > 3 * jets._MUL_PRODUCTS
    blocked = jets._mul_rows(t, a, b)
    monkeypatch.setattr(jets, "_MUL_PRODUCTS", 1 << 40)
    whole = jets._mul_rows(t, a, b)
    assert blocked.shape == whole.shape == (50, 4, t.size)
    assert _bits(blocked) == _bits(whole)


@pytest.mark.parametrize("shape", BATCH_SHAPES)
def test_batched_series_partials_and_truncation_match_rows_bitwise(shape, rng):
    nvars, order = shape
    a = _random_batch(rng, nvars, order)
    a.coef[:, 0] = rng.normal(size=BATCH) + 1j * rng.normal(size=BATCH)
    a.coef[0, 0] = -1.0 - 0.0j                    # on the branch cut of sqrt and log
    ops = [Jet.reciprocal, Jet.sqrt, Jet.exp, Jet.log, lambda x: x ** 3]
    ops += [lambda x, v=v: x.partial(v) for v in range(nvars)]
    ops += [lambda x, k=k: x.truncated(k) for k in range(order + 1)]
    for op in ops:
        _assert_rows_match(op(a), lambda r: op(_row(a, r)))


def test_batched_reciprocal_matches_rows_where_power_and_square_differ():
    # the array ``c ** 2`` is np.square(c), whose bits differ from the scalar
    # power at some constant terms; which ones depends on numpy's SIMD path
    # (598 of these 2000 under AVX-512, none under X86_V2), so every row is
    # compared, and the batched series must not use np.square
    rng = np.random.default_rng(22)
    c = rng.normal(size=2000) + 1j * rng.normal(size=2000)
    space = JetSpace(np.zeros((len(c), 2)), 3)
    a = space.var(0) * 0.5 + space.var(1) * space.var(0) + space.const(c)
    assert _bits(a.value) == _bits(c)
    _assert_rows_match(a.reciprocal(), lambda r: _row(a, r).reciprocal(), rows=len(c))


@pytest.mark.parametrize("op, what", [("reciprocal", "division"), ("sqrt", "sqrt"),
                                      ("log", "log")])
def test_batched_zero_constant_term_names_its_row(op, what):
    space = JetSpace(np.array([[0.5, 0.1], [0.0, 0.3], [0.0, -0.2]]), 3)
    message = f"jet {what} requires a nonzero constant term"
    with pytest.raises(JetError, match=f"^row 1: {message}$"):
        getattr(space.var(0), op)()
    with pytest.raises(JetError, match=f"^{message}$"):
        getattr(JetSpace([0.0, 0.3], 3).var(0), op)()


def test_batched_exp_at_a_zero_constant_term_is_the_exp_of_each_row():
    space = JetSpace(np.array([[0.5, 0.1], [0.0, 0.3], [0.0, -0.2]]), 3)
    a = space.var(0) * space.var(1) + space.var(0)
    _assert_rows_match(a.exp(), lambda r: _row(a, r).exp(), rows=3)


@pytest.mark.parametrize("shape", BATCH_SHAPES)
def test_batched_mixed_orders_truncate_row_by_row(shape, rng):
    nvars, order = shape
    hi = _random_batch(rng, nvars, order + 1)
    lo = _random_batch(rng, nvars, order, base=hi.base)
    for op in (lambda x, y: x + y, lambda x, y: y - x, lambda x, y: x * y,
               lambda x, y: y * x):
        got = op(hi, lo)
        assert got.order == order
        _assert_rows_match(got, lambda r: op(_row(hi, r), _row(lo, r)))


def test_batched_read_offs_put_the_batch_first(rng):
    a = _random_batch(rng, 3, 2)
    b = _random_batch(rng, 3, 2, base=a.base)
    M = np.array([[a, b, a], [b, b, a]])
    vals, grad = values(M), gradient(M)
    assert vals.shape == (BATCH, 2, 3) and grad.shape == (BATCH, 2, 3, 3)
    for r in range(BATCH):
        Mr = [[_row(j, r) for j in row] for row in M]
        assert _bits(vals[r]) == _bits(values(Mr))
        assert _bits(grad[r]) == _bits(gradient(Mr))
    assert _bits(values(a)) == _bits(a.coef[:, 0])
    assert gradient(a).shape == (BATCH, 3)


def test_batched_smooth_map_jets_match_points_bitwise(rng):
    phi = SmoothMap.from_complex(
        1, 2, lambda t: [(t + t * t.conj()) / (1 + t * t.conj()), (t * t).exp().sqrt()])
    P = rng.uniform(-0.9, 0.9, (BATCH, 2))
    for order in (0, 1, 3):
        batch = phi.jets(P, order)
        for r in range(BATCH):
            for got, want in zip(batch, phi.jets(P[r], order)):
                assert got.base is batch[0].base and _bits(want.base) == _bits(P[r])
                assert _bits(got.coef[r]) == _bits(want.coef)
    assert _bits(phi.jacobian(P)[3]) == _bits(phi.jacobian(P[3]))
    # complex coordinates: one complex entry per row
    zc = P[:, 0] + 1j * P[:, 1]
    assert _bits(phi(zc[:, None])) == _bits(phi(P))


def test_batched_errors_name_the_row():
    inv = SmoothMap.from_complex(1, 1, lambda z: [1 / z])
    P = np.array([[0.5, 0.1], [0.3, -0.2], [0.0, 0.0]])
    with pytest.raises(JetError, match="row 2: jet division requires a nonzero"):
        inv.jets(P, 1)
    for other in (JetSpace(P[:2], 1).var(0), JetSpace(P[0], 1).var(0)):
        with pytest.raises(JetError, match="base points differ"):
            JetSpace(P, 1).var(0) + other


def test_array_operands_hold_one_value_per_row():
    single = JetSpace([0.1, 0.2], 1).var(0)
    batch = JetSpace(np.array([[0.1, 0.2], [0.3, 0.4]]), 1).var(0)
    ops = [lambda x, c: x * c, lambda x, c: x / c, lambda x, c: x + c,
           lambda x, c: x - c]
    for op in ops:
        for jet, c in ((single, np.array([1.0, 2.0, 3.0])), (single, np.array([2.0])),
                       (batch, np.array([1.0, 2.0, 3.0])), (batch, np.array([2.0])),
                       (batch, np.ones((2, 1)))):
            with pytest.raises(JetError, match="one value per row"):
                op(jet, c)
        # a 0-d array is a scalar
        assert _bits(op(single, np.array(2.0)).coef) == _bits(op(single, 2.0).coef)


# ---------------------------------------------------------------------------
# vectors and matrices of jets: component axes, checked against numpy object
# arrays of the same scalar jets

def _jet_array(rng, space, shape):
    """A jet of component ``shape`` at the point or batch of ``space``, with
    random coefficients and -0.0 and NaN entries mixed in; the constant
    terms are finite and nonzero, so that every entry divides."""
    t = _table(space.nvars, space.order)
    size = space.base.shape[:-1] + shape + (t.size,)
    coef = rng.normal(size=size) + 1j * rng.normal(size=size)
    coef[rng.random(size) < 0.15] = -0.0
    coef[rng.random(size) < 0.03] = complex(np.nan, -0.0)
    coef[..., 1].flat[0], coef[..., -1].flat[-1] = -0.0, complex(np.nan, 0.0)
    coef[..., 0] = 1.5 + rng.random(size[:-1])
    return Jet(t, space.base, coef)


def _same(got, want):
    """``got`` is bitwise, entry by entry, the jets of ``want``: a scalar
    jet, or an object array or nested list of scalar jets."""
    want = want if isinstance(want, Jet) else np.array(want, dtype=object)
    assert got.shape == (() if isinstance(want, Jet) else want.shape)
    for idx in np.ndindex(*got.shape):
        w = want[idx]
        assert got.table is w.table and _bits(got.base) == _bits(w.base)
        assert _bits(got[idx].coef) == _bits(w.coef), idx


COMPONENT_SPACES = [((1,), 2), ((2,), 3), ((3,), 2), ((BATCH, 2), 3), ((BATCH, 3), 2)]


@pytest.mark.parametrize("base_shape, order", COMPONENT_SPACES)
def test_component_operations_match_object_arrays_bitwise(base_shape, order, rng):
    space = JetSpace(rng.uniform(-1, 1, base_shape), order)
    u, v = _jet_array(rng, space, (4,)), _jet_array(rng, space, (4,))
    X, Y = _jet_array(rng, space, (3, 4)), _jet_array(rng, space, (4, 2))
    ou, ov, oX, oY = (objects(j) for j in (u, v, X, Y))
    A = rng.normal(size=(3, 4))
    A[0, 1] = -0.0
    C = space.const(np.broadcast_to(A, space.base.shape[:-1] + A.shape))
    c = u[0]
    pairs = [(u @ v, ou @ ov), (X @ Y, oX @ oY), (X @ u, oX @ ou), (v @ Y, ov @ oY),
             (C @ Y, objects(C) @ oY), (u[:, None] * v, np.outer(ou, ov)),
             (c * v, [c * e for e in ov]), (v * c, [e * c for e in ov]),
             (u - v, ou - ov), (u + v, ou + ov), (u / c, [e / c for e in ou]),
             (X * 2.5, oX * 2.5), (-X, -oX), (X[:, 1], oX[:, 1]), (X[2], oX[2]),
             (Y[1:, :1], oY[1:, :1])]
    for op in (lambda e: e.partial(0), lambda e: e.truncated(order - 1),
               lambda e: e.real, lambda e: e ** 2):
        pairs.append((op(X), [[op(e) for e in row] for row in oX]))
    for got, want in pairs:
        _same(got, want)
    # each entry of @ sums its products from the first, left to right
    dot = ou[0] * ov[0]
    for k in range(1, 4):
        dot = dot + ou[k] * ov[k]
    _same(u @ v, dot)
    # read-offs of a nested sequence of vector jets: batch axes first
    nested = [[u, v], [v, u]]
    vals, grad = values(nested), gradient(nested)
    lead = space.base.shape[:-1]
    assert vals.shape == lead + (2, 2, 4) and grad.shape == lead + (2, 2, 4, space.nvars)
    assert vals.flags.c_contiguous and grad.flags.c_contiguous
    for i, j, k in np.ndindex(2, 2, 4):
        e = objects(nested[i][j])[k]
        assert _bits(vals[..., i, j, k]) == _bits(values(e))
        assert _bits(grad[..., i, j, k, :]) == _bits(gradient(e))


@pytest.mark.parametrize("base_shape", [(2,), (BATCH, 2)])
def test_matmul_of_order_0_jets_sums_left_to_right_bitwise(base_shape, rng):
    """An order-0 jet has one coefficient, so times a vector the summed axis
    of the products is numpy's inner one; ``@`` still adds each entry's
    products left to right, as object arrays of jets do."""
    space = JetSpace(rng.uniform(-1, 1, base_shape), 0)
    t = _table(2, 0)

    def jets(shape):
        size = space.base.shape[:-1] + shape + (1,)
        scale = 10.0 ** rng.uniform(-4, 4, size)
        return Jet(t, space.base, (rng.normal(size=size) + 1j * rng.normal(size=size)) * scale)

    for _ in range(10):
        X, u, v = jets((3, 12)), jets((12,)), jets((12,))
        ou, ov = objects(u), objects(v)
        dot = ou[0] * ov[0]
        for k in range(1, 12):
            dot = dot + ou[k] * ov[k]
        _same(u @ v, dot)
        _same(X @ v, objects(X) @ ov)


def test_merge_rows_matches_object_arrays_bitwise(rng):
    space = JetSpace(rng.uniform(-1, 1, (BATCH, 2)), 3)
    mask = np.array([True, False, False, True, False])
    for shape in ((), (4,), (2, 3)):
        a, b = _jet_array(rng, space, shape), _jet_array(rng, space, shape)
        on = Jet(a.table, JetSpace(space.base[mask], 3).base, a.coef[mask])
        off = Jet(b.table, JetSpace(space.base[~mask], 3).base, b.coef[~mask])
        merged = merge_rows(mask, on, off)
        _same(merged, np.frompyfunc(lambda x, y: merge_rows(mask, x, y), 2, 1)(
            objects(on), objects(off)))
        for r in range(BATCH):
            assert _bits(merged.coef[r]) == _bits((a if mask[r] else b).coef[r])
        assert _bits(merged.base) == _bits(space.base)


def test_split_rows_is_the_inverse_of_merge_rows_bitwise(rng):
    phi = SmoothMap.from_complex(1, 2, lambda z: [z * z.conj() * z, 1 / (2 + z * z)])
    P = rng.uniform(-1, 1, (BATCH, 2))
    whole = phi.jets(P, 3)
    for mask in (np.array([True, False, False, True, False]), np.ones(BATCH, dtype=bool)):
        on, off = split_rows(mask, whole)
        merged = merge_rows(mask, on, off)
        assert merged.table is whole.table
        assert _bits(merged.base) == _bits(whole.base) and _bits(merged.coef) == _bits(whole.coef)
        # each part is the map evaluated on its rows alone
        for part, rows in ((on, mask), (off, ~mask)):
            alone = phi.jets(P[rows], 3)
            assert part.table is alone.table and not part.base.flags.writeable
            assert _bits(part.base) == _bits(alone.base) and _bits(part.coef) == _bits(alone.coef)


def test_const_takes_a_number_or_values_with_the_batch_axes_first(rng):
    one = JetSpace([0.2, -0.4], 3)
    batch = JetSpace(rng.uniform(-1, 1, (BATCH, 2)), 3)
    for vals in (np.arange(6.0).reshape(2, 3), np.array([1 - 2j, -0.0]), np.zeros((2, 1, 2))):
        for space, lead in ((one, ()), (batch, (BATCH,))):
            v = np.broadcast_to(vals, lead + vals.shape)
            jet = space.const(v)
            assert jet.shape == vals.shape and jet.coef.shape[:-1] == v.shape
            for idx in np.ndindex(*v.shape):
                assert _bits(jet.coef[idx]) == _bits(one.const(v[idx]).coef)
    assert batch.const(1.5).shape == () and batch.const(1.5).coef.shape[:-1] == (BATCH,)
    per_row = rng.normal(size=BATCH)
    assert _bits(batch.const(per_row).value) == _bits(per_row.astype(complex))
    # an array whose leading axes are not the batch axes is an error
    for vals in (np.eye(2), np.ones((1, 2)), np.ones((BATCH + 1, BATCH)), np.ones(BATCH + 1)):
        with pytest.raises(JetError, match="for a batch"):
            batch.const(vals)
    assert batch.const(np.ones((BATCH, 1))).shape == (1,)


def test_stack_indexing_and_iteration(rng):
    space = JetSpace(rng.uniform(-1, 1, (BATCH, 2)), 2)
    x, y = space.vars()
    M = stack([[x, y, x * y], [y, x + 1.0, x]])
    assert M.shape == (2, 3) and len(M) == 2 and M.coef.shape == (BATCH, 2, 3, 6)
    assert _bits(M[1, 1].coef) == _bits((x + 1.0).coef)
    assert _bits(M[:, 2][0].coef) == _bits((x * y).coef)
    assert [_bits(j.coef) for j in M[0]] == [_bits(j.coef) for j in (x, y, x * y)]
    assert [j.shape for j in M] == [(3,), (3,)]
    assert stack(M) is M and stack([M, M]).shape == (2, 2, 3)
    # mixed orders are truncated to the lowest, as arithmetic does
    low = stack([x, JetSpace(space.base, 1).var(1)])
    assert low.order == 1 and _bits(low[0].coef) == _bits(x.truncated(1).coef)
    # an Ellipsis spans the component axes only; an index past them is an error
    assert _bits(M[..., 0].coef) == _bits(M[:, 0].coef) and M[..., None].shape == (2, 3, 1)
    for bad in (lambda: M[0, 0, 0], lambda: M[..., 0, 0, 0], lambda: x[0], lambda: len(x),
                lambda: iter(x)):
        with pytest.raises((IndexError, TypeError)):
            bad()
    with pytest.raises(JetError, match="base points differ"):
        stack([x, JetSpace(space.base + 1.0, 2).var(0)])
    for a, b in ((x, M[0]), (M[0], x), (M, M), (M[0], M[:, 0])):
        with pytest.raises(JetError, match="matrix product of jets of shapes"):
            a @ b


def test_scalar_jets_stay_single_elements_of_object_arrays():
    x, y = JetSpace([0.1, 0.2], 2).vars()
    for arr in (np.array([x, y], dtype=object), np.array([x, y])):
        assert arr.shape == (2,) and arr[0] is x and arr[1] is y


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


def test_batched_inversion_and_composition_match_rows_bitwise():
    phi = SmoothMap.from_real(2, 2, lambda x, y: [x + y * y, y + 0.3 * x * x])
    P = np.array([[0.5, -0.2], [0.1, 0.4], [-0.3, 0.2]])
    for order in (1, 2, 3):
        F = phi.jets(P, order)
        G = invert_jet_map(F)
        assert G.shape == (2,) and G.coef.shape[0] == len(P)
        FG = compose(F, G)
        for r, p in enumerate(P):
            one = invert_jet_map(phi.jets(p, order))
            assert _bits(G.base[r]) == _bits(one.base)
            assert _bits(G.coef[r]) == _bits(one.coef)
            assert _bits(FG.coef[r]) == _bits(compose(phi.jets(p, order), one).coef)
        with pytest.raises(JetError, match="different batches"):
            compose(F, one)


def _reference_compose(f, gs):
    """compose of one jet as it was written jet by jet: the powers of each
    offset built per call, one jet product per factor of each monomial."""
    g0 = gs[0]
    order = g0.order
    powers = []
    for g in gs:
        ps = [None, g]
        for _ in range(1, order):
            ps.append(ps[-1] * g)
        powers.append(ps)
    out = Jet.constant(f.coef[0], g0.nvars, order, g0.base)
    for pos in range(1, f.table.prefix_size(min(order, f.order))):
        c = f.coef[pos]
        if c == 0:
            continue
        term = None
        for k, e in enumerate(f.table.indices[pos]):
            if not e:
                continue
            p = powers[k][e]
            term = Jet(p.table, p.base, c * p.coef) if term is None else term * p
        out = out + term
    return out


def _reference_invert_jet_map(F):
    """invert_jet_map as it was written over object arrays of jets: numpy's
    object ``@`` and one :func:`_reference_compose` per component."""
    order = F[0].order
    Ainv = np.linalg.inv(gradient(F))
    space = JetSpace(values(F).real, order)
    w = np.array([x - space.base[i] for i, x in enumerate(space.vars())])
    Fs = [f._like(f.coef.copy()) for f in F]
    for f in Fs:
        f.coef[0] = 0.0
    G = Ainv @ w + 0.0
    for _ in range(max(1, order)):
        R = np.array([_reference_compose(f, G) for f in Fs]) - w
        if all(np.max(np.abs(r.coef)) == 0 for r in R):
            break
        G = G - (Ainv @ R + 0.0)
    return G


def _random_jet_map(rng, nvars, order, dyadic):
    """K = nvars jets at one point with an invertible linear part: random or
    dyadic polynomial terms, some reciprocal and complex factors, and signed
    zeros (-0.0 real or imaginary parts) scattered over the coefficients."""
    base = rng.integers(-8, 8, nvars) / 8 if dyadic else rng.uniform(-1, 1, nvars)
    xs = JetSpace(base, order).vars()

    def c():
        return rng.integers(-4, 5) / 16 if dyadic else 0.3 * rng.normal()

    F = []
    for i in range(nvars):
        f = xs[i] * 1.0
        for j in range(nvars):
            f = f + xs[j] * c()
            if order >= 2 and rng.random() < 0.5:
                f = f + xs[j] * xs[(i + j) % nvars] * c()
        if rng.random() < 0.3:
            f = f + 1 / (2 + xs[(i + 1) % nvars])
        if rng.random() < 0.3:
            f = f * (1 + 1j * c())
        coef = f.coef.copy()
        signed = rng.random(coef.shape) < 0.2
        coef[signed] = [complex(-0.0, rng.choice([0.0, -0.0])) for _ in range(signed.sum())]
        coef[0] = f.coef[0]
        coef[nvars - i] += 1.5  # d f_i / d x_i: keeps the Jacobian invertible
        F.append(Jet(f.table, f.base, coef))
    return F


def test_invert_jet_map_over_rows_matches_object_array_body_bitwise(rng):
    count = 0
    for trial in range(600):
        nvars, order = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        F = _random_jet_map(rng, nvars, order, dyadic=trial % 2 == 1)
        got, want = invert_jet_map(F), _reference_invert_jet_map(F)
        assert got.shape == (nvars,)
        for g, w in zip(got, want):
            assert g.table is w.table
            assert _bits(g.base) == _bits(w.base)
            assert _bits(g.coef) == _bits(w.coef), (trial, nvars, order)
        count += any(np.signbit(f.coef.real).any() for f in F)
    assert count > 500  # signed zeros reached most maps


def test_compose_over_rows_matches_one_jet_compose_bitwise(rng):
    for trial in range(120):
        nvars, order = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        F = _random_jet_map(rng, nvars, order, dyadic=trial % 2 == 1)
        offsets = list(invert_jet_map(F))
        rows = compose(F, offsets)
        assert len(rows) == nvars
        for f, row in zip(F, rows):
            assert _bits(row.coef) == _bits(compose(f, offsets).coef)
            assert _bits(row.coef) == _bits(_reference_compose(f, offsets).coef)


def test_compose_and_inversion_truncate_mixed_orders_to_the_lowest():
    space = JetSpace([0.5, -0.2], 2)
    x, y = space.vars()
    low = JetSpace(space.base, 1).vars()
    got = compose(x * y, [x - 0.5, low[1] + 0.2])
    want = compose(x * y, [(x - 0.5).truncated(1), low[1] + 0.2])
    assert got.order == 1 and _bits(got.coef) == _bits(want.coef)
    got = invert_jet_map([x + y * y, low[1]])
    want = invert_jet_map([(x + y * y).truncated(1), low[1]])
    assert got.order == 1 and _bits(got.coef) == _bits(want.coef)
    with pytest.raises(JetError, match="variable count mismatch"):
        compose(x * y, [x - 0.5, JetSpace([0.1], 2).var(0) - 0.1])
    with pytest.raises(JetError, match="zero constant term"):
        compose(x * y, [x, y])
    # a NaN constant term is not a zero one; a -0.0 one is
    with pytest.raises(JetError, match="zero constant term"):
        compose(x * y, [x - 0.5, y - np.nan])
    neg = -(x - 0.5)
    assert np.signbit(neg.value.real)
    assert _bits(compose(x * y, [neg, y + 0.2]).coef) == _bits(
        compose(x * y, [0.5 - x, y + 0.2]).coef)


def test_invert_jet_map_names_a_singular_linear_part():
    message = "jet map inversion requires an invertible linear part"
    x, y = JetSpace([0.0, 0.3], 2).vars()
    with pytest.raises(JetError, match=f"^{message}$"):
        invert_jet_map([x * x + y, y])           # d/dx of x * x is 0 at x = 0
    x, y = JetSpace(np.array([[0.5, -0.2], [0.0, 0.3], [0.0, 0.1]]), 2).vars()
    with pytest.raises(JetError, match=f"^row 1: {message}$"):
        invert_jet_map([x * x + y, y])
    for F in ([x, y, x * y], [x]):                # not K components in K variables
        with pytest.raises(JetError, match=f"^{message}$"):
            invert_jet_map(F)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_invert_jet_map_names_a_non_finite_base_point(bad):
    message = "jet map inversion requires a finite value and linear part"
    phi = SmoothMap.from_real(2, 2, lambda x, y: [x + y * y, y - x * x])
    with np.errstate(invalid="ignore"):  # inf - inf in the jet products
        with pytest.raises(JetError, match=f"^{message}$"):
            invert_jet_map(phi.jets([bad, 0.5], 2))
        # a singular row after the non-finite one: the non-finite row is named
        P = np.array([[0.5, -0.2], [0.1, 0.4], [0.5, bad], [0.0, 0.0]])
        with pytest.raises(JetError, match=f"^row 2: {message}$"):
            invert_jet_map(phi.jets(P, 2))
        # a linear part that is not finite at a finite value
        x, y = JetSpace(np.array([[0.5, -0.2], [0.1, 0.4]]), 1).vars()
        with pytest.raises(JetError, match=f"^row 1: {message}$"):
            invert_jet_map([x * np.array([1.0, bad]), y])


def _random_vector_batch(rng, rows, comps, nvars, order, zero_share):
    """A batch of ``rows`` vector jets of ``comps`` components: complex
    normal coefficients, about ``zero_share`` of them 0.0 and some of the
    others signed zeros."""
    t = _table(nvars, order)
    shape = (rows, comps, t.size)
    coef = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    coef[rng.random(shape) < zero_share] = 0.0
    for z in (complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)):
        coef[rng.random(shape) < 0.05] = z
    return Jet(t, rng.uniform(-1, 1, (rows, nvars)), coef)


def _assert_compose_matches_rows(F, G):
    """compose of the batches F and G, row r bitwise compose of row r alone
    and each of its components bitwise :func:`_reference_compose`."""
    got = compose(F, G)
    for r in range(len(F.base)):
        f, g = _row(F, r), _row(G, r)
        one = compose(f, g)
        assert _bits(got.coef[r]) == _bits(one.coef)
        for fi, want in zip(f, one):
            assert _bits(want.coef) == _bits(_reference_compose(fi, list(g)).coef)
    return got


@pytest.mark.parametrize("f_shape, g_shape", [
    ((3, 3), (2, 3)),      # rows with different zero patterns
    ((3, 3), (2, 2)),      # f of higher order than the offsets
    ((2, 1), (3, 3)),      # offsets of higher order than f
    ((2, 2), (4, 4)),
    ((6, 3), (6, 3)),      # a 6-variable, order-3 map
])
def test_compose_kernel_matches_rows_and_the_jet_by_jet_reference_bitwise(f_shape, g_shape, rng):
    (kf, of), (kg, og) = f_shape, g_shape
    for zero_share in (0.0, 0.5, 0.9):
        F = _random_vector_batch(rng, BATCH, 2, kf, of, zero_share)
        G = _random_vector_batch(rng, BATCH, kf, kg, og, zero_share)
        G.coef[..., 0] = rng.choice([0.0, -0.0], G.coef.shape[:-1])
        F.coef[1, :, 1:] = 0.0                    # a row of constants
        _assert_compose_matches_rows(F, G)
        # an offset whose every coefficient is zero
        G.coef[2, 0] = 0.0
        _assert_compose_matches_rows(F, G)


@pytest.mark.parametrize("terms", [1, 2, 7])
def test_compose_over_blocks_of_terms_is_the_compose_in_one_block_bitwise(terms, rng, monkeypatch):
    # blocks of `terms` terms each, cut inside a table position too
    F = _random_vector_batch(rng, BATCH, 3, 3, 3, 0.5)
    G = _random_vector_batch(rng, BATCH, 3, 3, 3, 0.5)
    G.coef[..., 0] = 0.0
    monkeypatch.setattr(jets, "_COMPOSE_PRODUCTS", 1 << 40)
    whole = compose(F, G)
    monkeypatch.setattr(jets, "_COMPOSE_PRODUCTS", terms * len(G.table.triples[0]))
    assert _bits(_assert_compose_matches_rows(F, G).coef) == _bits(whole.coef)


def test_compose_skips_non_finite_offsets_under_zero_coefficients(rng):
    F = _random_vector_batch(rng, 3, 2, 3, 3, 0.0)
    G = _random_vector_batch(rng, 3, 3, 2, 3, 0.0)
    G.coef[..., 0] = 0.0
    G.coef[:, 1, 1], G.coef[:, 1, 4] = np.inf, np.nan
    # row 0 of F has no monomial with x_1, row 1 only x_1**2 in component 1,
    # and row 2 none with x_1 but a NaN coefficient in component 0
    with_x1 = [i for i, a in enumerate(F.table.indices) if a[1]]
    F.coef[0, :, with_x1] = 0.0
    F.coef[1, :, with_x1] = 0.0
    F.coef[1, 1, F.table.position[(0, 2, 0)]] = 0.5
    F.coef[2, :, with_x1] = 0.0
    F.coef[2, 0, F.table.position[(1, 0, 1)]] = np.nan
    with np.errstate(invalid="ignore"):
        got = _assert_compose_matches_rows(F, G)
    assert np.isfinite(got.coef[0]).all() and np.isfinite(got.coef[1, 0]).all()
    assert not np.isfinite(got.coef[1, 1]).all() and np.isnan(got.coef[2, 0]).any()
    assert np.isfinite(got.coef[2, 1]).all()


@pytest.mark.parametrize("batched", [False, True])
def test_quotient_is_the_product_with_the_reciprocal_bitwise(batched, rng):
    # the euclid h of factory shares one reciprocal between two quotients
    for nvars, order in BATCH_SHAPES:
        if batched:
            a, b = _random_batch(rng, nvars, order), _random_batch(rng, nvars, order)
            b = Jet(b.table, a.base, b.coef)
        else:
            a = _random_jet(rng, nvars, order)
            b = Jet(a.table, a.base, _random_jet(rng, nvars, order).coef)
        b.coef[..., 0] += 2.0
        assert _bits((a / b).coef) == _bits((a * b.reciprocal()).coef)


# ---------------------------------------------------------------------------
# pairings

def test_bilinear_dot_examples(rng):
    assert bilinear_dot([1, 1j], [1, 1j]) == 0
    assert bilinear_dot([1, 0], [0, 1]) == 0
    u = rng.normal(size=5) + 1j * rng.normal(size=5)
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    assert abs(bilinear_dot(u, v) - bilinear_dot(v, u)) < 1e-15
    with pytest.raises(DimensionError):
        bilinear_dot([1, 2], [1, 2, 3])


def test_hermitian_dot_examples(rng):
    assert hermitian_dot([1, 1j], [1, 1j]) == 2
    assert hermitian_dot([1, 1j], [1, -1j]) == 0
    u = rng.normal(size=6) + 1j * rng.normal(size=6)
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
