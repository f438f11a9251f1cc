"""DTEN I/O in bounded chunks, mode Grams from views of Y, and the memory
peaks of fit, predict and save.

Property tests: DTEN files round-trip bit for bit (NaN payloads, infinities
and -0.0 included) whatever the memory layout of the tensor written, the read
path (`readinto` into the array, or into a growing one from a stream that
cannot seek) and the chunk size; and the mode Grams of C-ordered,
column-major and strided Y equal the products of the unfoldings.  The I/O
chunk, the first pipe capacity and the slab-Gram batch are patched down to
a few entries, so every loop runs many times.

Memory tests (tracemalloc, which sees numpy's allocations): reading a file
or a pipe holds one copy of the data, writing one holds none, the fits, the
CV path and the mode Grams read Y in place, a batch prediction holds little beyond its
output, and a model is saved from its own memory and loaded into one copy.  The training data's finite
check makes no array of Y's size, a kernel fit holds four N x N arrays
at its peak, three when the pencil goes through G_0 (four when the helper
forms G_0 beside the decomposition) or when it forms K itself, and a
kernel matrix is built in its own output, with no n x d0 temporary for its
row norms.  A CLI `predict`
process (its peak RSS, `helpers.cli_peak_rss`) holds column blocks of the
prediction, not the prediction.

The prediction stream: with the column block patched down to 1-3 columns,
CLI `predict` files are bitwise the batch prediction, the training error is
the RMSE of the training predictions, and a bad input fails before anything
is written.
"""

import contextlib
import io
import json
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import helpers
from tensorreg import cli, harness, regress, tensor
from tensorreg.regress import (
    HolrrModel,
    KernelSpec,
    RegressionProblem,
    gram,
    holrr_fit,
    holrr_predict_batch,
    kernel_cross,
    kholrr_fit,
    load_model,
    path_predict,
    save_model,
)
from tensorreg.tensor import matricize, read_dten, write_dten
from test_streamed_fit import helper_on  # noqa: F401  (a fixture)
from test_tensor import _Pipe

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

# any double, NaN payloads and -0.0 included
tensors = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=5, min_side=1, max_side=4),
    elements=st.floats(allow_nan=True, allow_infinity=True),
)


def _laid_out(a: np.ndarray, layout: str) -> np.ndarray:
    """The entries of `a` in C order, column-major, or a non-contiguous view."""
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "strided":
        return np.repeat(a, 2, axis=-1)[..., ::2]
    return np.ascontiguousarray(a)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).view(np.uint64)


@SETTINGS
@given(tensors, st.sampled_from(("C", "F", "strided")), st.integers(1, 40))
def test_dten_round_trip_is_bitwise(a, layout, chunk):
    t = _laid_out(a, layout)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "_IO_CHUNK", chunk)
        mp.setattr(tensor, "_PIPE_START", 8)  # a pipe read grows its array from one entry
        buf = io.BytesIO()
        write_dten(t, buf)
        data = buf.getvalue()
        header = f"DTEN 1 {a.ndim} {' '.join(map(str, a.shape))}\n".encode("ascii")
        assert data == header + a.astype("<f8").tobytes(order="F")
        back = read_dten(io.BytesIO(data))
        assert back.shape == a.shape and back.dtype == np.float64
        np.testing.assert_array_equal(_bits(back), _bits(a))
        again = io.BytesIO()
        write_dten(back, again)
        assert again.getvalue() == data
        # the same payload arriving in blocks, column-major pieces of it
        pieces = np.array_split(np.asfortranarray(back).reshape(-1, order="F"), 3)
        streamed = io.BytesIO()
        write_dten(a.shape, streamed, (p.reshape(1, -1, order="F") for p in pieces))
        assert streamed.getvalue() == data
        np.testing.assert_array_equal(_bits(read_dten(_Pipe(data))), _bits(a))


@SETTINGS
@given(
    st.integers(0, 2**31 - 1),
    hnp.array_shapes(min_dims=2, max_dims=5, min_side=1, max_side=5),
    st.sampled_from(("C", "F", "strided")),
    st.integers(1, 3),
)
def test_blocked_mode_grams_match_the_unfoldings(seed, shape, layout, batch):
    y = _laid_out(np.random.default_rng(seed).standard_normal(shape), layout)
    with pytest.MonkeyPatch.context() as mp:
        # a middle mode's slab Grams in batches of one to a few
        mp.setattr(regress, "_BATCH_BYTES", 32 * batch)
        grams = regress._mode_grams(y, [True] * y.ndim)
    for i, g in enumerate(grams):
        yi = matricize(y, i)
        ref = yi @ yi.T
        assert np.linalg.norm(g - ref) <= 1e-12 * np.linalg.norm(ref)


def test_write_dten_blocks_must_fill_the_shape():
    for blocks in ([np.zeros(5)], [np.zeros(6), np.zeros(1)], []):
        with pytest.raises(ValueError, match="do not fill the shape"):
            write_dten((2, 3), io.BytesIO(), blocks)


# about 8 MB of outputs, column-major like a tensor read from a DTEN file
N, SHAPE = 1000, (10, 10, 10)


@pytest.fixture
def y_file(tmp_path):
    y = np.asfortranarray(np.random.default_rng(3).standard_normal((N,) + SHAPE))
    path = tmp_path / "y.dten"
    write_dten(y, path)
    return y, path


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_dten_holds_one_copy(y_file):
    y, path = y_file
    assert _peak_bytes(read_dten, path) <= 1.1 * y.nbytes


def test_read_dten_from_a_pipe_holds_one_copy(y_file):
    y, path = y_file
    pipe = _Pipe(path.read_bytes())
    assert _peak_bytes(read_dten, pipe) <= 1.25 * y.nbytes

    def bogus():
        with pytest.raises(ValueError, match="got 64"):
            read_dten(_Pipe(b"DTEN 1 2 99999999999999999999 2\n" + b"\0" * 64))

    assert _peak_bytes(bogus) <= 1 << 20


def test_write_dten_copies_nothing(y_file, tmp_path):
    y, _ = y_file

    def write():
        with open(tmp_path / "out.dten", "wb") as f:
            write_dten(y, f)

    assert _peak_bytes(write) <= 0.1 * y.nbytes


def test_holrr_fit_reads_y_in_place(y_file):
    y, _ = y_file
    x = np.random.default_rng(4).standard_normal((N, 10))
    peak = _peak_bytes(lambda: holrr_fit(RegressionProblem(x=x, y=y, ranks=(3, 3, 3, 3), gamma=1e-3)))
    assert peak <= 0.5 * y.nbytes


def test_finite_check_of_training_data_is_blockwise(y_file):
    y, _ = y_file
    x = np.ones((N, 3))
    assert _peak_bytes(RegressionProblem, x, y, (1, 1, 1, 1)) <= 0.05 * y.nbytes
    # a strided view is checked in bounded blocks too, and a NaN in its last entry is seen
    rows = y[: N // 2]
    assert not rows.flags.f_contiguous and not rows.flags.c_contiguous
    assert _peak_bytes(RegressionProblem, x[: N // 2], rows, (1, 1, 1, 1)) <= 0.05 * y.nbytes
    bad = y.copy(order="F")[: N // 2]
    bad[-1, -1, -1, -1] = np.nan
    with pytest.raises(ValueError, match="training data must be finite"):
        RegressionProblem(x[: N // 2], bad, (1, 1, 1, 1))


def _g0_route_kernel_fit_peak(layout) -> float:
    """The traced peak of a kernel fit whose pencil goes through G_0 (D >= N),
    in N x N arrays."""
    n = 300
    rng = np.random.default_rng(10)
    x, y = rng.standard_normal((n, 6)), _laid_out(rng.standard_normal((n, 8, 8, 5)), layout)
    spec = KernelSpec(kind="rbf", sigma=2.0)
    k = gram(x, spec)
    return _peak_bytes(kholrr_fit, k, y, (5, 2, 2, 2), 1e-3, x, spec) / k.nbytes


@pytest.mark.parametrize("layout", ["C", "F"])
def test_kholrr_fit_holds_three_gram_sized_arrays(layout, monkeypatch):
    # D >= N, so the pencil goes through G_0: Q of eigh(K), then G_0 and
    # Q^T G_0 (G_0 goes before the second product), then Q and the pencil,
    # which the only gamma scales in place and sym_eig_top symmetrizes in
    # place.  The mode-0 Gram of a C-ordered Y is one product.  No helper,
    # as at two BLAS threads, whatever the count this process runs
    monkeypatch.setattr(tensor, "_blas_threads", lambda: 2)
    assert _g0_route_kernel_fit_peak(layout) <= 3.5


@pytest.mark.parametrize("layout", ["C", "F"])
def test_kholrr_fit_beside_the_helper_holds_four_gram_sized_arrays(layout, helper_on):
    # the helper forms G_0 while dsyevd decomposes K in place: K, its
    # workspace of 2 N^2 doubles and G_0 at once
    assert _g0_route_kernel_fit_peak(layout) <= 4.5


def test_kholrr_fit_holds_four_gram_sized_arrays():
    # Q of eigh(K), the pencil Q^T G_0 Q and its scaled copy D P D, which
    # sym_eig_top symmetrizes in place and dsyevr works in (a fit skips the
    # symmetry check, whose temporary was one more N x N buffer)
    n = 300
    rng = np.random.default_rng(10)
    x, y = rng.standard_normal((n, 6)), rng.standard_normal((n, 4, 3, 2))
    spec = KernelSpec(kind="rbf", sigma=2.0)
    k = gram(x, spec)
    assert _peak_bytes(kholrr_fit, k, y, (5, 2, 2, 2), 1e-3, x, spec) <= 4.5 * k.nbytes


def test_a_fit_that_forms_its_gram_holds_three_gram_sized_arrays():
    # D < N, so no G_0: the fit's own K, which dsyevd decomposes in place
    # and which becomes Q, beside dsyevd's workspace of 2 N^2 doubles; then
    # Q and the pencil.  A fit handed K by its caller also held K's eigh
    # output and an average or a copy of K, and forming K took four
    n = 300
    rng = np.random.default_rng(10)
    x, y = rng.standard_normal((n, 6)), rng.standard_normal((n, 4, 3, 2))
    spec = KernelSpec(kind="rbf", sigma=2.0)
    assert _peak_bytes(harness.fit_method, "kholrr", x, y, 1e-3, (5, 2, 2, 2), spec) <= 3.5 * 8 * n * n


@pytest.mark.parametrize("spec", [KernelSpec(kind="linear"), KernelSpec(kind="polynomial", degree=3),
                                  KernelSpec(kind="rbf", sigma=2.0)], ids=["linear", "polynomial", "rbf"])
def test_kernels_are_built_in_their_output(spec):
    # the kernel in the GEMM's output, an rbf one a row block at a time; the
    # Gram symmetrized in place, a block pair at a time
    rng = np.random.default_rng(12)
    x, x_val = rng.standard_normal((2000, 10)), rng.standard_normal((1000, 10))
    assert _peak_bytes(gram, x, spec) <= 1.1 * 8 * 2000 * 2000
    assert _peak_bytes(kernel_cross, spec, x_val, x) <= 1.1 * 8 * 1000 * 2000
    # d0 = 200: the rbf row norms are summed a row block at a time, with no
    # n x d0 array of squares
    x = rng.standard_normal((2000, 200))
    assert _peak_bytes(gram, x, spec) <= 1.1 * 8 * 2000 * 2000
    assert _peak_bytes(kernel_cross, spec, x[:500], x[:1000]) <= 1.1 * 8 * 500 * 1000


@pytest.mark.parametrize("layout", ["C", "F"])
def test_kholrr_fit_reads_y_in_place(layout):
    # q is square: the pencil comes from the mode-0 Gram, and no N x D product is formed
    rng = np.random.default_rng(5)
    x = rng.standard_normal((200, 30))
    y = _laid_out(rng.standard_normal((200, 20, 20, 20)), layout)
    spec = KernelSpec(kind="rbf", sigma=5.0)
    k = gram(x, spec)
    peak = _peak_bytes(lambda: kholrr_fit(k, y, (5, 3, 3, 3), 1e-3, x, spec))
    assert peak <= 0.5 * y.nbytes


@pytest.mark.parametrize("layout, kernel", [("C", True), ("F", True), ("C", False)])
def test_path_predict_reads_y_in_place(layout, kernel):
    # the CV path is the fit at many points: no unfolding of Y is copied, and
    # beside Y it holds Z = q^T Y_(0) (d0 x D) only for a thin primal q.  The
    # path runs as its generator is consumed, so the walk is measured whole
    rng = np.random.default_rng(9)
    x, x_val = rng.standard_normal((200, 30)), rng.standard_normal((20, 30))
    y = _laid_out(rng.standard_normal((200, 20, 20, 20)), layout)
    spec = KernelSpec(kind="rbf", sigma=5.0) if kernel else None
    points = []
    peak = _peak_bytes(lambda: points.extend(p for p, _ in path_predict(x, y, x_val, [1e-3], [(5, 3, 3, 3)], spec)))
    assert points == [(1e-3, (5, 3, 3, 3))]
    assert peak <= 0.5 * y.nbytes


@pytest.mark.parametrize("layout", ["C", "F"])
def test_mode_grams_read_y_in_place(layout):
    y = _laid_out(np.random.default_rng(6).standard_normal((200, 20, 20, 20)), layout)
    assert _peak_bytes(regress._mode_grams, y, [True] * y.ndim) <= 0.1 * y.nbytes


@pytest.mark.parametrize("kernel", [False, True])
def test_predict_batch_holds_about_its_output(y_file, kernel):
    y, _ = y_file
    rng = np.random.default_rng(7)
    x, x_new = rng.standard_normal((N, 10)), rng.standard_normal((N, 10))
    if kernel:
        spec = KernelSpec(kind="rbf", sigma=3.0)
        # the block loop alone: the fitted factors, kernel-free, on kernel rows
        fitted = kholrr_fit(gram(x, spec), y, (3, 3, 3, 3), 1e-3, x, spec)
        model, rows = HolrrModel(fitted.factors, fitted.gamma), kernel_cross(spec, x_new, x)
    else:
        model, rows = holrr_fit(RegressionProblem(x=x, y=y, ranks=(3, 3, 3, 3), gamma=1e-3)), x_new
    assert _peak_bytes(holrr_predict_batch, model, rows) <= 1.1 * y.nbytes


def test_save_model_writes_from_the_model_memory(y_file, tmp_path):
    # krls preset: the core is the N x D dual ridge solution, column-major
    # like a fit of the Y the CLI reads
    y, _ = y_file
    x = np.random.default_rng(8).standard_normal((N, 10))
    spec = KernelSpec(kind="rbf", sigma=3.0)
    model = kholrr_fit(gram(x, spec), y, (N, *SHAPE), 1e-3, x, spec)
    assert model.factors.core.shape == y.shape
    payload = model.factors.core.nbytes + x.nbytes
    assert _peak_bytes(save_model, model, tmp_path / "model.bin") <= 0.1 * payload


@pytest.mark.parametrize("kernel", [False, True])
def test_load_model_holds_one_copy(y_file, tmp_path, kernel):
    # full rank: an rls core of d0 x D, or a krls core of N x D
    y, _ = y_file
    x = np.random.default_rng(9).standard_normal((N, 100))
    if kernel:
        spec = KernelSpec(kind="rbf", sigma=3.0)
        model = kholrr_fit(gram(x, spec), y, (N, *SHAPE), 1e-3, x, spec)
    else:
        model = holrr_fit(RegressionProblem(x=x, y=y, ranks=(100, *SHAPE), gamma=1e-3))
    path = tmp_path / "model.bin"
    save_model(model, path)
    assert all(u is None for u in model.factors.factors)
    assert _peak_bytes(load_model, path) <= 1.1 * path.stat().st_size


def _cli(*argv) -> tuple:
    """(exit code, stdout, stderr) of `cli.main` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**31 - 1),
    st.booleans(),
    st.sampled_from(("C", "F", "strided")),
    hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=4),
    st.integers(1, 3),
)
def test_cli_predict_and_training_error_stream_column_blocks(seed, kernel, layout, dims, cols):
    rng = np.random.default_rng(seed)
    n, d0 = 7, 3
    x, y = rng.standard_normal((n, d0)), np.asfortranarray(rng.standard_normal((n, *dims)))
    x_new = _laid_out(rng.standard_normal((n, d0)), layout)
    ranks = [int(rng.integers(1, d + 1)) for d in (n if kernel else d0, *dims)]
    width = y[0].size
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        # blocks of `cols` columns of the n-row prediction, the last one
        # short unless cols divides D
        mp.setattr(regress, "_PREDICT_BYTES", 8 * n * cols)
        d = Path(tmp)
        for name, a in (("x", x), ("y", y), ("x_new", x_new)):
            write_dten(a, d / f"{name}.dten")
        code, out, _ = _cli("fit", "--x", d / "x.dten", "--y", d / "y.dten", "--ranks", ",".join(map(str, ranks)),
                            "--gamma", "0.01", "--out", d / "model.bin", *(["--kernel", "rbf:2"] if kernel else []))
        assert code == 0
        model = load_model(d / "model.bin")
        ref = harness.rmse(y, model.predict(x))
        assert json.loads(out)["training_rmse"] == pytest.approx(ref, rel=1e-12, abs=0)

        assert _cli("predict", "--model", d / "model.bin", "--x", d / "x_new.dten", "--out", d / "pred.dten")[0] == 0
        # the file holds the bits of the batch prediction of the rows it read
        np.testing.assert_array_equal(_bits(read_dten(d / "pred.dten")), _bits(model.predict(read_dten(d / "x_new.dten"))))
        # and streamed blocks are those of the batch prediction whatever the rows' layout
        pred = model.predict(x_new)
        shape, blocks = regress.predict_blocks(model, x_new)
        streamed = [b.copy(order="F") for b in blocks()]
        assert shape == y.shape
        assert [b.shape[1] for b in streamed] == [cols] * (width // cols) + [width % cols] * (width % cols > 0)
        np.testing.assert_array_equal(_bits(np.hstack(streamed)), _bits(pred.reshape(n, -1, order="F")))
        assert np.linalg.norm(pred - read_dten(d / "pred.dten")) <= 1e-12 * np.linalg.norm(pred)
        # against the materialized coefficient tensor
        rows = kernel_cross(model.kernel, x_new, x) if kernel else x_new
        ref = np.tensordot(rows, tensor.tucker_reconstruct(model.factors), axes=(1, 0))
        assert np.linalg.norm(pred - ref) <= 1e-10 * max(np.linalg.norm(ref), 1e-300)

        # failures found before the first block: nothing is written
        files = sorted(os.listdir(d))
        bad_rows = [(x_new[:, :-1], "columns" if not kernel else "incompatible input shapes")]
        nan_row = x_new.copy()
        nan_row[int(rng.integers(n))] = np.nan
        bad_rows.append((nan_row, "kernel inputs must be finite" if kernel else "input rows must be finite"))
        for bad, message in bad_rows:
            write_dten(bad, d / "x_new.dten")
            code, _, err = _cli("predict", "--model", d / "model.bin", "--x", d / "x_new.dten", "--out", d / "bad.dten")
            assert code == 2 and message in err
            assert sorted(os.listdir(d)) == files


def test_cli_predict_process_holds_blocks_not_the_prediction(tmp_path):
    # a 64 MB prediction against a 1-row one, each predicted by the CLI in a
    # process of its own: the difference in peak RSS is what the
    # prediction costs beyond its file
    rng = np.random.default_rng(11)
    x, y = rng.standard_normal((40, 5)), rng.standard_normal((40, 20, 20, 20))
    save_model(holrr_fit(RegressionProblem(x=x, y=y, ranks=(3, 3, 3, 3), gamma=1e-3)), tmp_path / "m.bin")
    n = 1000
    out_bytes = 8 * n * y[0].size
    peaks = []
    for rows in (1, n):
        write_dten(rng.standard_normal((rows, 5)), tmp_path / "x.dten")
        code, peak = helpers.cli_peak_rss(
            ["predict", "--model", tmp_path / "m.bin", "--x", tmp_path / "x.dten", "--out", tmp_path / "p.dten"]
        )
        assert code == 0
        peaks.append(peak)
    assert (tmp_path / "p.dten").stat().st_size > out_bytes
    assert peaks[1] - peaks[0] <= 0.25 * out_bytes, peaks
