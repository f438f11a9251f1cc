import numpy as np
import pytest
import scipy.linalg

from tensorreg import linalg
from tensorreg.linalg import (
    NotPositiveDefiniteError,
    gen_sym_eig_top,
    pinv,
    spd_solve,
    sym_eig_top,
)
from tensorreg.regress import KernelSpec, gram


def rand_spd(n, seed, shift=0.0):
    b = np.random.default_rng(seed).standard_normal((n, n))
    return b @ b.T + (n + shift) * np.eye(n)


def test_spd_solve_known_2x2():
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    x = spd_solve(a, np.array([1.0, 2.0]))
    np.testing.assert_allclose(x, [1.0 / 11.0, 7.0 / 11.0], atol=1e-14)


def test_spd_solve_matches_generic_solver():
    for seed in range(5):
        a = rand_spd(8, seed)
        b = np.random.default_rng(100 + seed).standard_normal((8, 3))
        np.testing.assert_allclose(spd_solve(a, b), np.linalg.solve(a, b), atol=1e-9)
        v = b[:, 0]
        x = spd_solve(a, v)
        assert x.shape == (8,)
        np.testing.assert_allclose(a @ x, v, atol=1e-9)


def test_spd_solve_not_pd_reports_pivot():
    with pytest.raises(NotPositiveDefiniteError) as exc:
        spd_solve(np.diag([1.0, -1.0]), np.zeros(2))
    assert exc.value.pivot == 1
    assert "pivot 1" in str(exc.value)
    assert isinstance(exc.value, np.linalg.LinAlgError)
    with pytest.raises(NotPositiveDefiniteError) as exc:
        spd_solve(np.diag([-1.0, 2.0]), np.zeros(2))
    assert exc.value.pivot == 0


def test_spd_solve_input_validation():
    with pytest.raises(ValueError, match="symmetric"):
        spd_solve(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError, match="square"):
        spd_solve(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError, match="leading dimension"):
        spd_solve(np.eye(2), np.zeros(3))


def test_sym_eig_top_known_diagonal():
    values, vectors = sym_eig_top(np.diag([1.0, 2.0, 3.0]), 2)
    np.testing.assert_allclose(values, [3.0, 2.0], atol=1e-14)
    np.testing.assert_allclose(vectors, [[0, 0], [0, 1], [1, 0]], atol=1e-14)


def test_sym_eig_top_sign_convention_tie():
    # eigenvector of [[0,-1],[-1,0]] at +1 has equal-magnitude entries; the
    # first one must come out positive
    values, vectors = sym_eig_top(np.array([[0.0, -1.0], [-1.0, 0.0]]), 1)
    assert values[0] == pytest.approx(1.0, abs=1e-14)
    assert vectors[0, 0] == pytest.approx(np.sqrt(0.5), abs=1e-14)
    assert vectors[1, 0] == pytest.approx(-np.sqrt(0.5), abs=1e-14)


def test_sym_eig_top_construct_and_recover():
    rng = np.random.default_rng(7)
    q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    w = np.array([6.0, 4.0, 2.0, 1.0, 0.5])
    a = q @ np.diag(w) @ q.T
    values, vectors = sym_eig_top(a, 3)
    np.testing.assert_allclose(values, w[:3], atol=1e-10)
    for j in range(3):
        # residual check is basis-free
        r = a @ vectors[:, j] - values[j] * vectors[:, j]
        assert np.linalg.norm(r) <= 1e-10
    np.testing.assert_allclose(vectors.T @ vectors, np.eye(3), atol=1e-12)


def test_sym_eig_top_descending_and_deterministic():
    a = rand_spd(9, 3)
    values1, vectors1 = sym_eig_top(a, 9)
    assert np.all(np.diff(values1) <= 1e-12)
    values2, vectors2 = sym_eig_top(a, 9)
    assert np.array_equal(values1, values2)
    assert np.array_equal(vectors1, vectors2)


def test_sym_eig_top_clamp_and_validation():
    with pytest.warns(UserWarning, match="clamped"):
        values, _ = sym_eig_top(np.eye(3), 5)
    assert values.shape == (3,)
    with pytest.raises(ValueError, match=">= 1"):
        sym_eig_top(np.eye(3), 0)
    with pytest.raises(ValueError, match="symmetric"):
        sym_eig_top(np.array([[1.0, 2.0], [0.0, 1.0]]), 1)
    for bad in (np.nan, np.inf, -np.inf):
        a = np.eye(3)
        a[0, 2] = a[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            sym_eig_top(a, 2)


@pytest.mark.parametrize("n", [1, 10, 50, 300])
def test_sym_eig_top_is_bitwise_scipy_eigh(n):
    # the direct dsyevr call is what eigh(subset_by_index=...) runs
    b = np.random.default_rng(n).standard_normal((n, n))
    a = b + b.T
    for r in sorted({1, max(1, n // 3), n}):
        values, vectors = sym_eig_top(a, r)
        w, v = scipy.linalg.eigh(a, subset_by_index=[n - r, n - 1])
        assert np.array_equal(values, w[::-1])
        flips = np.where(vectors[0] * v[0, ::-1] < 0, -1.0, 1.0)
        assert np.array_equal(vectors, v[:, ::-1] * flips)


@pytest.mark.parametrize("n", [5, 256, 300, 600])
@pytest.mark.parametrize("order", ["C", "F"])
def test_sym_eig_top_symmetrizes_in_place_to_the_same_bits(n, order):
    # a checked call averages a copy and leaves `a` as it was; an unchecked
    # one averages `a` itself, a block pair at a time (sizes across the
    # 256-row block), and must give the same pairs: eigh's of (a + a.T) / 2.
    # `a` is asymmetric in its last bits.
    b = np.random.default_rng(n).standard_normal((n, n))
    a = np.array(b @ b.T, order=order)
    a[np.triu_indices(n, 1)] = np.nextafter(a[np.triu_indices(n, 1)], np.inf)
    before = a.copy()
    for r in (1, min(n, 7)):
        values, vectors = sym_eig_top(a, r)
        assert np.array_equal(a, before)
        w, v = scipy.linalg.eigh((a + a.T) / 2.0, subset_by_index=[n - r, n - 1])
        assert np.array_equal(values, w[::-1])
        assert np.array_equal(np.abs(vectors), np.abs(v[:, ::-1]))
        unchecked = sym_eig_top(a.copy(order=order), r, check=False)
        assert np.array_equal(unchecked[0], values) and np.array_equal(unchecked[1], vectors)


def _symmetric(kind, n, seed):
    """An exactly symmetric n x n matrix of one kind: PSD, indefinite,
    rank-deficient (a linear-kernel Gram of n // 3 + 1 features) or an rbf
    Gram."""
    rng = np.random.default_rng(seed)
    if kind == "psd":
        b = rng.standard_normal((n, n))
        return gram(b, KernelSpec(kind="linear"))
    if kind == "indefinite":
        b = rng.standard_normal((n, n))
        return (b + b.T) / 2.0
    x = rng.standard_normal((n, n // 3 + 1 if kind == "rank-deficient" else 4))
    return gram(x, KernelSpec(kind="linear") if kind == "rank-deficient" else KernelSpec(kind="rbf", sigma=2.0))


@pytest.mark.parametrize("n", [1, 2, 24, 25, 26, 300])  # across dsyevd's switch to divide and conquer at 25
@pytest.mark.parametrize("kind", ["psd", "indefinite", "rank-deficient", "rbf"])
def test_eigh_in_place_is_bitwise_numpy_eigh(n, kind):
    # values, vectors and their C layout, with the vectors in a's own memory
    a = _symmetric(kind, n, seed=n)
    assert np.array_equal(a, a.T)
    w, v = np.linalg.eigh(a)
    buf = a.copy()
    values, vectors = linalg._eigh_in_place(buf)
    assert vectors is buf and vectors.flags.c_contiguous and v.flags.c_contiguous
    assert np.array_equal(values, w) and np.array_equal(vectors, v)


def test_eigh_in_place_raises_what_eigh_raises():
    # a NaN in an rbf Gram: dsyevd reports no convergence
    a = _symmetric("rbf", 20, seed=0)
    a[4, 5] = a[5, 4] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
        np.linalg.eigh(a)
    with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
        linalg._eigh_in_place(a)


def test_gen_sym_eig_top_identity_metric_is_ordinary():
    vals, vecs = gen_sym_eig_top(np.diag([2.0, 1.0, 0.0]), np.eye(3), 2)
    np.testing.assert_allclose(vals, [2.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(vecs, [[1, 0], [0, 1], [0, 0]], atol=1e-14)


def test_gen_sym_eig_top_pencil_properties():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((6, 4))
        s = c @ c.T
        m = rand_spd(6, 50 + seed)
        vals, vecs = gen_sym_eig_top(s, m, 3)
        assert vecs.shape == (6, 3)
        # M-orthonormal columns
        np.testing.assert_allclose(vecs.T @ m @ vecs, np.eye(3), atol=1e-9)
        # each column solves the pencil
        for j in range(3):
            r = s @ vecs[:, j] - vals[j] * (m @ vecs[:, j])
            assert np.linalg.norm(r) <= 1e-8
        # eigenvalues agree with the library generalized solver
        ref = scipy.linalg.eigh(s, m, eigvals_only=True)[::-1][:3]
        np.testing.assert_allclose(vals, ref, atol=1e-9)


def test_gen_sym_eig_top_m_not_pd():
    with pytest.raises(NotPositiveDefiniteError) as exc:
        gen_sym_eig_top(np.eye(2), np.diag([1.0, 0.0]), 1)
    assert exc.value.pivot == 1


def test_gen_sym_eig_top_validation():
    with pytest.raises(ValueError, match="S is"):
        gen_sym_eig_top(np.eye(2), np.eye(3), 1)
    with pytest.raises(ValueError, match=">= 1"):
        gen_sym_eig_top(np.eye(2), np.eye(2), 0)
    with pytest.warns(UserWarning, match="clamped"):
        vals, _ = gen_sym_eig_top(np.eye(2), np.eye(2), 4)
    assert vals.shape == (2,)


def test_pinv_moore_penrose_identities():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 5))  # rank 3
    ap = pinv(a)
    np.testing.assert_allclose(a @ ap @ a, a, atol=1e-10)
    np.testing.assert_allclose(ap @ a @ ap, ap, atol=1e-10)
    np.testing.assert_allclose((a @ ap).T, a @ ap, atol=1e-10)
    np.testing.assert_allclose((ap @ a).T, ap @ a, atol=1e-10)
    with pytest.raises(ValueError, match="tol"):
        pinv(a, tol=0.0)
