import io

import numpy as np
import pytest

import oracles
from tensorreg import tensor
from tensorreg.tensor import (
    TuckerFactors,
    dematricize,
    frobenius_norm,
    hosvd_truncated,
    inner,
    matricize,
    mode_product,
    multi_mode_product,
    read_dten,
    read_matrix_csv,
    tucker_reconstruct,
    vectorize,
    write_dten,
    write_matrix_csv,
)

RNG_SHAPES = [(4, 3), (3, 4, 2), (2, 3, 2, 4), (5, 1, 3)]


def rand_tensor(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def test_matricize_known_222():
    # entries 1..8 with value = 1 + i0 + 2*i1 + 4*i2
    t = np.zeros((2, 2, 2))
    for i0 in range(2):
        for i1 in range(2):
            for i2 in range(2):
                t[i0, i1, i2] = 1 + i0 + 2 * i1 + 4 * i2
    assert matricize(t, 0).tolist() == [[1, 3, 5, 7], [2, 4, 6, 8]]
    assert matricize(t, 1).tolist() == [[1, 2, 5, 6], [3, 4, 7, 8]]
    assert matricize(t, 2).tolist() == [[1, 2, 3, 4], [5, 6, 7, 8]]
    assert vectorize(t).tolist() == [1, 2, 3, 4, 5, 6, 7, 8]


def test_matricize_matches_loop_oracle():
    for seed, shape in enumerate(RNG_SHAPES):
        t = rand_tensor(shape, seed)
        for mode in range(t.ndim):
            np.testing.assert_array_equal(matricize(t, mode), oracles.matricize_loops(t, mode))


def test_vectorize_is_mode0_column_stack():
    for seed, shape in enumerate(RNG_SHAPES):
        t = rand_tensor(shape, seed)
        np.testing.assert_array_equal(vectorize(t), matricize(t, 0).ravel(order="F"))
        np.testing.assert_array_equal(vectorize(t), oracles.vectorize_loops(t))


def test_dematricize_round_trip():
    for seed, shape in enumerate(RNG_SHAPES):
        t = rand_tensor(shape, seed)
        for mode in range(t.ndim):
            np.testing.assert_array_equal(dematricize(matricize(t, mode), mode, shape), t)


def test_matricize_mode_out_of_range():
    t = rand_tensor((2, 3), 0)
    with pytest.raises(ValueError, match="mode"):
        matricize(t, 2)
    with pytest.raises(ValueError, match="mode"):
        matricize(t, -1)


def test_dematricize_shape_mismatch():
    with pytest.raises(ValueError, match="fold"):
        dematricize(np.zeros((2, 5)), 0, (2, 3))
    # the other dims multiply to 2^64, which an int64 product wraps to 0
    with pytest.raises(ValueError, match="fold"):
        dematricize(np.zeros((1, 0)), 0, (1, 2**32, 2**32))


def test_frobenius_norm_known():
    assert frobenius_norm([[1, 2], [3, 4]]) == pytest.approx(np.sqrt(30), rel=1e-15)
    t = rand_tensor((3, 4, 2), 5)
    assert frobenius_norm(t) == pytest.approx(np.linalg.norm(vectorize(t)), rel=1e-15)


def test_inner_matches_loops_and_adjoint():
    rng = np.random.default_rng(2)
    s = rng.standard_normal((3, 4, 2))
    t = rng.standard_normal((3, 4, 2))
    assert inner(s, t) == pytest.approx(oracles.inner_loops(s, t), rel=1e-12)
    # adjoint identity: <T x_n M, S> == <T, S x_n M^T>
    for mode, dim_out in ((0, 5), (1, 2), (2, 4)):
        m = rng.standard_normal((dim_out, s.shape[mode]))
        big = mode_product(s, m, mode)
        other = rng.standard_normal(big.shape)
        lhs = inner(big, other)
        rhs = inner(s, mode_product(other, m.T, mode))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_inner_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        inner(np.zeros((2, 2)), np.zeros((2, 3)))


def test_mode_product_defining_relation():
    rng = np.random.default_rng(3)
    t = rng.standard_normal((3, 4, 2))
    for mode in range(3):
        m = rng.standard_normal((5, t.shape[mode]))
        out = mode_product(t, m, mode)
        np.testing.assert_allclose(matricize(out, mode), m @ matricize(t, mode), atol=1e-13)
        np.testing.assert_allclose(out, oracles.mode_product_loops(t, m, mode), atol=1e-12)


def test_mode_product_composition_rules():
    rng = np.random.default_rng(4)
    t = rng.standard_normal((3, 4, 2))
    a = rng.standard_normal((5, 4))
    b = rng.standard_normal((6, 5))
    # same mode composes through the matrix product
    np.testing.assert_allclose(
        mode_product(mode_product(t, a, 1), b, 1), mode_product(t, b @ a, 1), atol=1e-12
    )
    # distinct modes commute
    c = rng.standard_normal((2, 3))
    np.testing.assert_allclose(
        mode_product(mode_product(t, a, 1), c, 0),
        mode_product(mode_product(t, c, 0), a, 1),
        atol=1e-12,
    )


def test_mode_product_validation():
    t = rand_tensor((3, 4), 1)
    with pytest.raises(ValueError, match="columns"):
        mode_product(t, np.zeros((2, 5)), 0)
    with pytest.raises(ValueError, match="matrix"):
        mode_product(t, np.zeros(3), 0)


def test_mode_vector_product():
    rng = np.random.default_rng(5)
    t = rng.standard_normal((3, 4, 2))
    for mode in range(3):
        v = rng.standard_normal(t.shape[mode])
        out = oracles.mode_vector_product(t, v, mode)
        ref = np.squeeze(mode_product(t, v[None, :], mode), axis=mode)
        np.testing.assert_allclose(out, ref, atol=1e-13)
    with pytest.raises(ValueError, match="vector"):
        oracles.mode_vector_product(t, np.zeros(5), 0)


def test_kronecker_identities():
    # matricize(T, n) = U_n G_(n) kron(U_p..U_{n+1}, U_{n-1}..U_0)^T and the
    # vectorized form with the full reversed Kronecker product
    rng = np.random.default_rng(6)
    core = rng.standard_normal((2, 3, 2))
    factors = [
        np.linalg.qr(rng.standard_normal((4, 2)))[0],
        np.linalg.qr(rng.standard_normal((5, 3)))[0],
        np.linalg.qr(rng.standard_normal((3, 2)))[0],
    ]
    t = tucker_reconstruct(TuckerFactors(core=core, factors=factors))
    for mode in range(3):
        others = [factors[k] for k in range(3) if k != mode]
        kron = np.kron(others[1], others[0])
        lhs = matricize(t, mode)
        rhs = factors[mode] @ matricize(core, mode) @ kron.T
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    full = np.kron(np.kron(factors[2], factors[1]), factors[0])
    np.testing.assert_allclose(vectorize(t), full @ vectorize(core), atol=1e-12)


def test_tucker_reconstruct_matches_loops():
    rng = np.random.default_rng(7)
    core = rng.standard_normal((2, 2, 3))
    factors = [rng.standard_normal((3, 2)), rng.standard_normal((2, 2)), rng.standard_normal((4, 3))]
    t = tucker_reconstruct(TuckerFactors(core=core, factors=factors))
    np.testing.assert_allclose(t, oracles.tucker_loops(core, factors), atol=1e-12)


def test_tucker_factor_rotation_invariance():
    rng = np.random.default_rng(8)
    core = rng.standard_normal((2, 3, 2))
    factors = [
        np.linalg.qr(rng.standard_normal((4, 2)))[0],
        np.linalg.qr(rng.standard_normal((5, 3)))[0],
        np.linalg.qr(rng.standard_normal((3, 2)))[0],
    ]
    t = tucker_reconstruct(TuckerFactors(core=core, factors=factors))
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    rotated = TuckerFactors(
        core=mode_product(core, q.T, 1),
        factors=[factors[0], factors[1] @ q, factors[2]],
    )
    np.testing.assert_allclose(tucker_reconstruct(rotated), t, atol=1e-10)


def test_tucker_factors_validation():
    with pytest.raises(ValueError, match="factors"):
        TuckerFactors(core=np.zeros((2, 2)), factors=[np.zeros((3, 2))])
    with pytest.raises(ValueError, match="factor 1"):
        TuckerFactors(core=np.zeros((2, 2)), factors=[np.zeros((3, 2)), np.zeros((3, 3))])
    tf = TuckerFactors(core=np.zeros((2, 3)), factors=[np.zeros((4, 2)), np.zeros((5, 3))])
    assert tf.shape == (4, 5)
    assert tf.ranks == (2, 3)


def test_multilinear_rank():
    rng = np.random.default_rng(9)
    core = rng.standard_normal((2, 3, 2))
    factors = [
        np.linalg.qr(rng.standard_normal((5, 2)))[0],
        np.linalg.qr(rng.standard_normal((6, 3)))[0],
        np.linalg.qr(rng.standard_normal((4, 2)))[0],
    ]
    t = tucker_reconstruct(TuckerFactors(core=core, factors=factors))
    assert oracles.multilinear_rank(t) == (2, 3, 2)
    assert oracles.multilinear_rank(np.zeros((3, 3))) == (0, 0)
    m = rng.standard_normal((4, 6))
    assert oracles.multilinear_rank(m) == (4, 4)
    with pytest.raises(ValueError, match="tol"):
        oracles.multilinear_rank(m, tol=0.0)


def test_hosvd_exact_at_true_ranks():
    rng = np.random.default_rng(10)
    core = rng.standard_normal((2, 3, 2))
    factors = [
        np.linalg.qr(rng.standard_normal((5, 2)))[0],
        np.linalg.qr(rng.standard_normal((6, 3)))[0],
        np.linalg.qr(rng.standard_normal((4, 2)))[0],
    ]
    t = tucker_reconstruct(TuckerFactors(core=core, factors=factors))
    out = hosvd_truncated(t, (2, 3, 2))
    err = frobenius_norm(tucker_reconstruct(out) - t) / frobenius_norm(t)
    assert err <= 1e-9
    assert out.max_orthonormality_defect() <= 1e-10


def test_hosvd_error_weakly_decreasing_in_rank():
    t = rand_tensor((5, 6, 4), 11)
    last = None
    for r in ((1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4)):
        err = frobenius_norm(tucker_reconstruct(hosvd_truncated(t, r)) - t)
        if last is not None:
            assert err <= last + 1e-12
        last = err


def test_hosvd_clamps_with_warning():
    t = rand_tensor((3, 4), 12)
    with pytest.warns(UserWarning, match="clamped"):
        out = hosvd_truncated(t, (5, 2))
    assert out.ranks == (3, 2)
    with pytest.raises(ValueError, match="ranks"):
        hosvd_truncated(t, (2, 2, 2))
    with pytest.raises(ValueError, match=">= 1"):
        hosvd_truncated(t, (0, 2))


def test_dten_round_trip_bits():
    for seed, shape in enumerate([(7,), (4, 3), (3, 4, 2), (2, 3, 2, 2)]):
        t = rand_tensor(shape, 20 + seed)
        buf = io.BytesIO()
        write_dten(t, buf)
        data = buf.getvalue()
        assert data.startswith(f"DTEN 1 {len(shape)} ".encode())
        back = read_dten(io.BytesIO(data))
        assert back.shape == t.shape
        np.testing.assert_array_equal(back, t)
        buf2 = io.BytesIO()
        write_dten(back, buf2)
        assert buf2.getvalue() == data


def test_dten_file_paths(tmp_path):
    t = rand_tensor((3, 2, 4), 30)
    p = tmp_path / "t.dten"
    write_dten(t, p)
    np.testing.assert_array_equal(read_dten(p), t)


def test_dten_errors():
    with pytest.raises(ValueError, match="not a DTEN"):
        read_dten(io.BytesIO(b"nope 1 1 3\n" + b"\0" * 24))
    with pytest.raises(ValueError, match="version"):
        read_dten(io.BytesIO(b"DTEN 9 1 3\n" + b"\0" * 24))
    with pytest.raises(ValueError, match="truncated"):
        read_dten(io.BytesIO(b"DTEN 1 1 3\n" + b"\0" * 8))
    with pytest.raises(ValueError, match="header"):
        read_dten(io.BytesIO(b"DTEN 1 2 3\n" + b"\0" * 24))
    # 3037000500^2 * 2 entries wrap to 290948384 in int64
    with pytest.raises(ValueError, match="expected 147573952592004000000 bytes, got 24"):
        read_dten(io.BytesIO(b"DTEN 1 3 3037000500 3037000500 2\n" + b"\0" * 24))
    # only the header form write_dten writes: single spaces, canonical decimals
    for header in (b"DTEN 1 1 1_0", b"DTEN 1 1\t3", b"DTEN\t1 1 3", b"DTEN 1 1 +3", b"DTEN 1 +1 3",
                   b"DTEN 1 1 03", b"DTEN 1 1 010", b"DTEN 1 1 3 ", b"DTEN 1  1 3", b"DTEN 1 1 3\r",
                   b"DTEN 1 0"):
        with pytest.raises(ValueError, match="malformed DTEN header"):
            read_dten(io.BytesIO(header + b"\n" + b"\0" * 80))
    with pytest.raises(ValueError, match=r"bad DTEN dimensions \(3, 0\)"):
        read_dten(io.BytesIO(b"DTEN 1 2 3 0\n"))


class _Pipe(io.BytesIO):
    """A stream that cannot seek, like a pipe or /dev/stdin."""

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")

    def tell(self):
        raise io.UnsupportedOperation("tell")


def test_dten_from_a_stream_that_cannot_seek():
    t = rand_tensor((3, 2, 4), 32)
    buf = io.BytesIO()
    write_dten(t, buf)
    np.testing.assert_array_equal(read_dten(_Pipe(buf.getvalue())), t)
    with pytest.raises(ValueError, match="expected 1599999999999999999984 bytes, got 64"):
        read_dten(_Pipe(b"DTEN 1 2 99999999999999999999 2\n" + b"\0" * 64))


def test_matrix_csv_round_trip(tmp_path):
    m = rand_tensor((4, 3), 31)
    p = tmp_path / "m.csv"
    write_matrix_csv(m, p)
    np.testing.assert_array_equal(read_matrix_csv(p), m)
    with pytest.raises(ValueError, match="order"):
        write_matrix_csv(rand_tensor((2, 2, 2), 0), tmp_path / "bad.csv")


def test_matrix_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2\n3\n")
    with pytest.raises(ValueError, match="ragged"):
        read_matrix_csv(p)
    p.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_matrix_csv(p)
    p.write_text("1,x\n")
    with pytest.raises(ValueError, match="bad.csv:1"):
        read_matrix_csv(p)


@pytest.mark.parametrize(
    "shape, rows",
    [((45, 31, 12), (None, 50, None)), ((24, 36, 44), (41, 38, 35)), ((13, 22, 50), (22, 56, 18))],
)
def test_multi_mode_product_is_bitwise_the_matricized_definition(shape, rows):
    # at these sizes BLAS rounds a column of a GEMM by its place in the
    # matrix, so only the matricization's own column order passes
    rng = np.random.default_rng(sum(shape))
    t = rng.standard_normal(shape)
    mats = [None if r is None else rng.standard_normal((r, d)) for r, d in zip(rows, shape)]
    want = t
    for i, m in enumerate(mats):
        if m is not None:
            want = dematricize(m @ matricize(want, i), i, want.shape[:i] + (m.shape[0],) + want.shape[i + 1 :])
    assert np.array_equal(multi_mode_product(t, mats), want)


def test_multi_mode_product_skips_none():
    rng = np.random.default_rng(13)
    t = rng.standard_normal((3, 4, 2))
    a = rng.standard_normal((2, 4))
    out = multi_mode_product(t, [None, a, None])
    np.testing.assert_allclose(out, mode_product(t, a, 1), atol=1e-13)
