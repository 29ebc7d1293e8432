"""Hermitian structures, isotropic subspaces, vertical space, mu-chart."""

import numpy as np
import pytest

from twistorkit.structures import (
    HermitianStructure,
    IsotropicSubspace,
    StructureError,
    adapted_basis,
    canonical_structure,
    from_isotropic,
    is_positive,
    jv_apply,
    mj_basis,
    mj_residual,
    mu_from_structure,
    mu_matrix,
    so_action,
    structure_from_mu,
    to_isotropic,
    twistor_chart,
)

RNG = np.random.default_rng(987)


def random_so(n, rng=RNG):
    Q, R = np.linalg.qr(rng.normal(size=(n, n)))
    Q = Q @ np.diag(np.sign(np.diag(R)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def random_structure(k, rng=RNG):
    return so_action(random_so(2 * k, rng), canonical_structure(k))


def test_canonical_structure():
    J = canonical_structure(1)
    assert np.allclose(J.matrix, [[0, -1], [1, 0]])
    assert is_positive(canonical_structure(2))
    F = to_isotropic(canonical_structure(2)).basis
    # spans {e_{2i-1} - i e_{2i}}
    target = np.array([[1, -1j, 0, 0], [0, 0, 1, -1j]])
    stacked = np.vstack([F, target])
    assert np.linalg.matrix_rank(stacked, tol=1e-9) == 2


def test_structure_invariants_enforced():
    with pytest.raises(StructureError):
        HermitianStructure(np.eye(2))
    with pytest.raises(StructureError):
        HermitianStructure(np.array([[0.0, -2.0], [0.5, 0.0]]))


def test_reflection_flips_positivity():
    for k in (1, 2, 3):
        J = canonical_structure(k)
        refl = np.eye(2 * k)
        refl[0, 0] = -1
        assert not is_positive(so_action(refl, J))


def test_so_action_preserves_everything():
    for _ in range(200):
        k = int(RNG.integers(1, 4))
        S = random_so(2 * k)
        J = so_action(S, canonical_structure(k))
        n = 2 * k
        assert np.max(np.abs(J.matrix @ J.matrix + np.eye(n))) < 1e-10
        assert is_positive(J)
    with pytest.raises(StructureError):
        so_action(2 * np.eye(2), canonical_structure(1))


def test_so_action_is_group_action():
    for _ in range(25):
        k = int(RNG.integers(1, 4))
        S1, S2 = random_so(2 * k), random_so(2 * k)
        J = random_structure(k)
        lhs = so_action(S1 @ S2, J).matrix
        rhs = so_action(S1, so_action(S2, J)).matrix
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_isotropic_roundtrip_both_ways():
    for _ in range(100):
        k = int(RNG.integers(1, 4))
        J = random_structure(k)
        F = to_isotropic(J)
        assert np.max(np.abs(from_isotropic(F).matrix - J.matrix)) < 1e-10
        # span equality after the other round trip
        F2 = to_isotropic(from_isotropic(F))
        stacked = np.vstack([F.basis, F2.basis])
        assert np.linalg.matrix_rank(stacked, tol=1e-8) == k


def test_from_isotropic_examples():
    e = np.eye(2)
    assert np.allclose(from_isotropic(np.array([[1, -1j]])).matrix,
                       canonical_structure(1).matrix)
    assert np.allclose(from_isotropic(np.array([[1, 1j]])).matrix,
                       -canonical_structure(1).matrix)
    # complex-orthogonal rotations of F0 keep positivity (SO(C, 2k) action)
    sexpm = pytest.importorskip("scipy.linalg").expm

    for _ in range(20):
        k = int(RNG.integers(1, 4))
        K = RNG.normal(size=(2 * k, 2 * k)) + 1j * RNG.normal(size=(2 * k, 2 * k))
        K = 0.4 * (K - K.T)  # complex skew => expm is complex orthogonal, det 1
        S = sexpm(K)
        assert np.max(np.abs(S.T @ S - np.eye(2 * k))) < 1e-10
        F0 = to_isotropic(canonical_structure(k)).basis
        assert is_positive(from_isotropic(F0 @ S.T))


def test_from_isotropic_errors():
    with pytest.raises(StructureError):
        from_isotropic(np.array([[1.0, 0.0]]))  # not isotropic
    with pytest.raises(StructureError):
        IsotropicSubspace(np.array([[1, -1j, 0, 0], [1, -1j, 0, 0]]))  # rank


def test_mj_residual_and_basis():
    for k in (1, 2, 3):
        J = canonical_structure(k)
        assert mj_residual(np.zeros((2 * k, 2 * k)), J) == 0
        # J is skew but commutes with itself: |2 J^2|_F = 2 sqrt(2k)
        assert abs(mj_residual(J.matrix, J) - 2 * np.sqrt(2 * k)) < 1e-12
        assert len(mj_basis(J)) == k * (k - 1)
    J = random_structure(3)
    assert len(mj_basis(J)) == 6
    assert np.max(np.abs(jv_apply(J, np.zeros((6, 6))))) == 0.0


def test_so_action_fixed_point():
    J0 = canonical_structure(2)
    assert np.allclose(so_action(np.eye(4), J0).matrix, J0.matrix)
    assert np.allclose(so_action(J0.matrix, J0).matrix, J0.matrix)


def test_jv_apply_is_complex_structure():
    for _ in range(20):
        k = int(RNG.integers(2, 4))
        J = random_structure(k)
        basis = mj_basis(J)
        lam = sum(RNG.normal() * b for b in basis)
        jv = jv_apply(J, lam)
        assert mj_residual(jv, J) < 1e-10
        assert np.max(np.abs(jv_apply(J, jv) + lam)) < 1e-10
    with pytest.raises(StructureError):
        jv_apply(canonical_structure(2), np.eye(4))


def test_mu_matrix_layout():
    M = mu_matrix([2.0 + 1j], 2)
    assert np.allclose(M, [[0, 2 + 1j], [-2 - 1j, 0]])
    M3 = mu_matrix([1, 2, 3], 3)
    assert np.allclose(M3, [[0, 1, 2], [-1, 0, 3], [-2, -3, 0]])


def test_structure_from_mu():
    assert np.allclose(structure_from_mu([], 1).matrix, canonical_structure(1).matrix)
    assert np.allclose(structure_from_mu([0.0], 2).matrix, canonical_structure(2).matrix)
    for _ in range(50):
        k = int(RNG.integers(2, 4))
        mu = RNG.normal(size=k * (k - 1) // 2) + 1j * RNG.normal(size=k * (k - 1) // 2)
        J = structure_from_mu(mu, k)
        assert is_positive(J)
        assert np.max(np.abs(mu_from_structure(J) - mu)) < 1e-9


def test_twistor_chart_values():
    w, mu = twistor_chart(np.array([1 + 2j, 3.0, 4j]), [0.5j, 0.0, 0.0])
    # w1 = q1 - mu1 conj(q2), w2 = q2 + mu1 conj(q1), w3 = q3
    assert abs(w[0] - ((1 + 2j) - 0.5j * 3.0)) < 1e-15
    assert abs(w[1] - (3.0 + 0.5j * (1 - 2j))) < 1e-15
    assert abs(w[2] - 4j) < 1e-15
    w0, _ = twistor_chart(np.array([1 + 2j, 3.0]), [0.0])
    assert abs(w0[0] - (1 + 2j)) < 1e-15 and abs(w0[1] - 3.0) < 1e-15


def test_chart_identity_of_displayed_data():
    # verbatim displayed fibre data: h third slot with the minus sign; the
    # chart image is (xi1, xi2, f(z) - xi1 - xi2) with mu = (z, 0, 0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        z, x1, x2 = rng.normal(size=3) + 1j * rng.normal(size=3)
        den = 1 + abs(z) ** 2
        q = np.array([(x1 + z * np.conj(x2)) / den,
                      (x2 - z * np.conj(x1)) / den,
                      z - x1 - x2])
        w, _ = twistor_chart(q, [z, 0.0, 0.0])
        assert abs(w[0] - x1) < 1e-12
        assert abs(w[1] - x2) < 1e-12
        assert abs(w[2] - (z - x1 - x2)) < 1e-12


# ---------------------------------------------------------------------------
# stacks of structures

@pytest.mark.parametrize("k", [1, 2, 3])
def test_positivity_of_a_stack_matches_each_matrix(k):
    rng = np.random.default_rng(100 + k)
    S = np.array([random_so(2 * k, rng) for _ in range(40)])
    refl = np.eye(2 * k)
    refl[0, 0] = -1.0
    S[1::2] = refl @ S[1::2]  # every other rotation composed with a reflection
    stack = so_action(S, canonical_structure(k))
    singles = [so_action(s, canonical_structure(k)) for s in S]
    assert stack.matrix.tobytes() == np.array([J.matrix for J in singles]).tobytes()
    positive = is_positive(stack)
    assert positive.dtype == bool and positive.shape == (40,)
    assert positive.tolist() == [bool(is_positive(J)) for J in singles]
    assert positive.tolist() == [True, False] * 20
    reflected = so_action(refl, stack)
    assert is_positive(reflected).tolist() == [bool(is_positive(so_action(refl, J)))
                                               for J in singles]
    assert adapted_basis(stack).tobytes() == np.array(
        [adapted_basis(J) for J in singles]).tobytes()
    grid = HermitianStructure(stack.matrix.reshape(4, 10, 2 * k, 2 * k))
    assert is_positive(grid).tolist() == np.reshape(positive, (4, 10)).tolist()


def test_stack_validation_names_the_matrix():
    J = canonical_structure(2).matrix
    stack = np.array([J, J, 2 * J])
    with pytest.raises(StructureError, match=r"^matrix \[2\]: J @ J != -I"):
        HermitianStructure(stack)
    HermitianStructure(stack[:2])
    with pytest.raises(StructureError, match="square even-dimensional"):
        HermitianStructure(np.zeros((2, 3, 3)))


def _vector_loop_adapted_basis(Jm):
    """adapted_basis of one matrix written vector by vector."""
    n = Jm.shape[0]
    cols = []
    for _ in range(n // 2):
        resid = np.eye(n)
        for c in cols:
            resid -= np.outer(c, c)
        norms = np.linalg.norm(resid, axis=0)
        b = resid[:, int(np.argmax(norms))]
        b = b / np.linalg.norm(b)
        jb = Jm @ b
        for c in cols:
            jb = jb - (c @ jb) * c
        jb = jb / np.linalg.norm(jb)
        cols.extend([b, jb])
    return np.column_stack(cols)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_adapted_basis_of_one_matrix_matches_vector_loop_bitwise(k):
    rng = np.random.default_rng(200 + k)
    for _ in range(100):
        J = random_structure(k, rng)
        assert adapted_basis(J).tobytes() == _vector_loop_adapted_basis(J.matrix).tobytes()


# ---------------------------------------------------------------------------
# the isotropic planes, vertical space and mu-chart of stacks, against the
# one-matrix code written out

def _one_matrix_to_isotropic(J):
    """to_isotropic's basis rows of one structure, a vector at a time."""
    B = adapted_basis(J)
    return np.array([B[:, 2 * i] - 1j * (J.matrix @ B[:, 2 * i]) for i in range(J.k)])


def _one_matrix_from_isotropic(B):
    """from_isotropic's matrix for one basis, validation left out."""
    P = B.T @ np.linalg.solve(np.conj(B) @ B.T, np.conj(B))
    return (1j * (P - np.conj(P))).real


def _one_matrix_mj_basis(J):
    """mj_basis of one structure, one unit matrix at a time."""
    n, Jm = J.dim, J.matrix
    rows = []
    E = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            E[a, b] = 1.0
            rows.append(np.concatenate([(E + E.T).ravel(), (E @ Jm + Jm @ E).ravel()]))
            E[a, b] = 0.0
    _, s, vt = np.linalg.svd(np.array(rows).T, full_matrices=True)
    return np.array([v.reshape(n, n) for v in vt[int(np.sum(s > 1e-9 * s[0])):]])


def _one_matrix_mj_residual(lam, J):
    Jm = J.matrix
    return float(np.linalg.norm(lam + lam.T) + np.linalg.norm(lam @ Jm + Jm @ lam))


def _one_matrix_mu_rows(mu, k):
    """structure_from_mu's basis rows for one mu, a row at a time."""
    Mbar = np.conj(mu_matrix(mu, k))
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
    return np.array(rows)


def _one_matrix_mu(J):
    """mu_from_structure of one structure, validation left out."""
    F = to_isotropic(J).basis
    M = (np.conj(F[:, 0::2]) + 1j * np.conj(F[:, 1::2])).T @ np.linalg.inv(
        np.conj(F[:, 0::2] + 1j * F[:, 1::2]).T)
    return np.array([M[i, j] for i in range(J.k) for j in range(i + 1, J.k)])


def _bits(x):
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_isotropic_planes_of_a_stack_match_each_matrix_bitwise(k):
    rng = np.random.default_rng(300 + k)
    stack = so_action(np.array([random_so(2 * k, rng) for _ in range(40)]),
                      canonical_structure(k))
    singles = [HermitianStructure(J) for J in stack.matrix]
    F = to_isotropic(stack)
    assert F.basis.shape == (40, k, 2 * k) and F.k == k
    one = [to_isotropic(J) for J in singles]
    assert one[0].basis.shape == (k, 2 * k)
    assert _bits(F.basis) == _bits([f.basis for f in one]) == _bits(
        [_one_matrix_to_isotropic(J) for J in singles])
    assert _bits(IsotropicSubspace(F.basis).basis) == _bits(F.basis)
    back = from_isotropic(F).matrix
    assert back.shape == (40, 2 * k, 2 * k)
    assert _bits(back) == _bits([from_isotropic(f).matrix for f in one]) == _bits(
        [_one_matrix_from_isotropic(f.basis) for f in one])
    assert _bits(from_isotropic(F.basis).matrix) == _bits(back)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_vertical_space_of_a_stack_matches_each_matrix_bitwise(k):
    rng = np.random.default_rng(400 + k)
    stack = so_action(np.array([random_so(2 * k, rng) for _ in range(40)]),
                      canonical_structure(k))
    singles = [HermitianStructure(J) for J in stack.matrix]
    basis = mj_basis(stack)
    assert basis.shape == (40, k * (k - 1), 2 * k, 2 * k)
    assert _bits(basis) == _bits([mj_basis(J) for J in singles]) == _bits(
        [_one_matrix_mj_basis(J) for J in singles])
    lam = np.einsum("nm,nmab->nab", rng.normal(size=(40, k * (k - 1))), basis)
    jv = jv_apply(stack, lam)
    assert _bits(jv) == _bits([jv_apply(J, x) for J, x in zip(singles, lam)])
    for x in (lam, jv, rng.normal(size=(40, 2 * k, 2 * k))):
        res = mj_residual(x, stack)
        one = [mj_residual(y, J) for J, y in zip(singles, x)]
        assert res.shape == (40,) and all(type(r) is float for r in one)
        assert _bits(res) == _bits(one) == _bits(
            [_one_matrix_mj_residual(y, J) for J, y in zip(singles, x)])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_mu_chart_of_a_stack_matches_each_matrix_bitwise(k):
    rng = np.random.default_rng(500 + k)
    m = k * (k - 1) // 2
    mu = rng.normal(size=(40, m)) + 1j * rng.normal(size=(40, m))
    stack = structure_from_mu(mu, k)
    singles = [structure_from_mu(x, k) for x in mu]
    assert _bits(stack.matrix) == _bits([J.matrix for J in singles]) == _bits(
        [from_isotropic(_one_matrix_mu_rows(x, k)).matrix for x in mu])
    back = mu_from_structure(stack)
    one = [mu_from_structure(J) for J in singles]
    assert back.shape == (40, m) and one[0].shape == (m,)
    assert _bits(back) == _bits(one)
    if k > 1:
        assert _bits(one) == _bits([_one_matrix_mu(J) for J in singles])


@pytest.mark.parametrize("k", [2, 3])
def test_to_isotropic_takes_one_product_per_column(k):
    # J u of each column u alone: one (2k, 2k) @ (2k, k) product of all the
    # columns can round differently, which moves the isotropic-roundtrip and
    # mu-chart-roundtrip residuals
    rng = np.random.default_rng(600 + k)
    for _ in range(100):
        J = random_structure(k, rng)
        assert _bits(to_isotropic(J).basis) == _bits(_one_matrix_to_isotropic(J))


def test_stack_errors_name_the_first_failing_matrix():
    F = to_isotropic(canonical_structure(2)).basis
    bent = F.copy()
    bent[1, 0] += 1.0  # row 1 no longer isotropic
    with pytest.raises(StructureError, match=r"^matrix \[2\]: rows are not isotropic \(residual "):
        IsotropicSubspace([F, F, bent, bent])
    with pytest.raises(StructureError, match=r"^matrix \[1\]: basis rows are rank deficient$"):
        IsotropicSubspace([F, F[[0, 0]]])
    self_conjugate = np.array([[1, -1j, 0, 0], [1, 1j, 0, 0]])
    with pytest.raises(StructureError, match=r"^matrix \[0, 1\]: subspace meets its conjugate"):
        from_isotropic([[F, self_conjugate]])
    with pytest.raises(StructureError, match=r"^matrix \[1\]: subspace is not isotropic"):
        from_isotropic([F, F + [[0, 0, 0.01, 0], [0, 0, 0, 0]]])
    with pytest.raises(StructureError, match=r"^matrix \[1\]: S is not orthogonal"):
        so_action(np.array([np.eye(4), 2 * np.eye(4)]), canonical_structure(2))
    J = so_action(np.array([np.eye(4)] * 3), canonical_structure(2))
    lam = mj_basis(J)[:, 0]
    lam[2] += np.eye(4)
    with pytest.raises(StructureError, match=r"^matrix \[2\]: matrix is not in the vertical"):
        jv_apply(J, lam)
    refl = np.diag([-1.0, 1.0, 1.0, 1.0])
    with pytest.raises(StructureError, match=r"^matrix \[1\]: structure is outside the mu-chart"):
        mu_from_structure(so_action(np.array([np.eye(4), refl, refl]), canonical_structure(2)))
    # one matrix keeps its messages
    with pytest.raises(StructureError, match=r"^rows are not isotropic \(residual 1\)$"):
        IsotropicSubspace(bent)
    with pytest.raises(StructureError, match=r"^structure is outside the mu-chart$"):
        mu_from_structure(so_action(refl, canonical_structure(2)))


def _unchecked(J):
    return HermitianStructure(J, check=False)


# name -> (a valid input, the call that validates it); the input's last two
# axes are one matrix or basis
NON_FINITE_CASES = {
    "HermitianStructure": (canonical_structure(2).matrix, HermitianStructure),
    "IsotropicSubspace": (to_isotropic(canonical_structure(2)).basis, IsotropicSubspace),
    "from_isotropic": (to_isotropic(canonical_structure(2)).basis, from_isotropic),
    "to_isotropic": (canonical_structure(2).matrix, lambda J: to_isotropic(_unchecked(J))),
    "so_action": (np.eye(4), lambda S: so_action(S, canonical_structure(2))),
    "jv_apply": (mj_basis(canonical_structure(2))[0],
                 lambda lam: jv_apply(canonical_structure(2), lam)),
    "mu_from_structure": (canonical_structure(2).matrix,
                          lambda J: mu_from_structure(_unchecked(J))),
    "structure_from_mu": (np.array([0.3 + 0.1j]), lambda mu: structure_from_mu(mu, 2)),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("whole", [False, True], ids=["entry", "whole"])
@pytest.mark.parametrize("stack", [False, True], ids=["one", "stack"])
@pytest.mark.parametrize("name", sorted(NON_FINITE_CASES))
def test_non_finite_input_raises_a_structure_error_naming_the_matrix(name, stack, whole, value):
    good, validate = NON_FINITE_CASES[name]
    bad = good.astype(complex if np.iscomplexobj(good) else float)
    if whole:
        bad[...] = value
    else:
        bad[(0,) * bad.ndim] = value
    # at a stack, matrices 1 and 2 of three are bad, and the error names 1;
    # one matrix is named by none
    given = np.stack([good, bad, bad]) if stack else bad
    with np.errstate(all="ignore"), pytest.raises(StructureError) as info:
        validate(given)
    message = str(info.value)
    assert message.startswith("matrix [1]: ") if stack else not message.startswith("matrix [")


def test_vertical_space_of_a_stack_needs_one_dimension():
    J = canonical_structure(2).matrix
    mixed = HermitianStructure(np.array([J, J, np.zeros((4, 4))]), check=False)
    with pytest.raises(StructureError, match=r"^matrix \[2\]: null space dimension differs"):
        mj_basis(mixed)
    assert mj_basis(HermitianStructure(mixed.matrix[:2], check=False)).shape == (2, 2, 4, 4)
