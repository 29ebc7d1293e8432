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
    from scipy.linalg import expm as sexpm

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
