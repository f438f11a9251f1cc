"""CLI `fit` reads Y from its DTEN file in pieces and never holds it whole.

A `tensor.DtenColumns` reads runs of a regular file's payload into two
reused buffers, and `regress._streamed` forms every statistic of Y from them:
pass 1 reads blocks of whole columns of Y_(0) for the pencil (summed over
the blocks after a thin SVD) or G_0 and the Grams of the modes whose slabs
fit in the chunk, and pass 2 the last mode's slabs for its Gram and the
core's rows; a middle mode whose slab exceeds the chunk takes a strided
pass of its own.  These tests pin:

- the numbers: a streamed fit matches the in-memory fit of the same Y within
  1e-12 relative on every route (Z = q^T Y_(0) after a thin SVD, Z after
  eigh(K) with D < N, and G_0 with D >= N), for Y of order 2 to 4, with the
  chunk patched to a few entries and to less than one slab of the last
  mode; a Y that fits in one chunk is read once and gets the in-memory bits;
- the reads: a CLI fit with a cut last mode reads its file twice, and once
  more for its training error;
- the memory: a streamed fit's traced peak is at most 0.4 x Y, and so is
  what a 64 MB Y adds to a CLI fit process's peak RSS; a thin fit with
  d0 = 50 keeps no d0 x D array;
- the failures: a truncated file, one that continues past its payload, or a
  NaN in the last chunk exits 2 with one `tensorreg:` line and leaves no
  model file;
- the bytes: reruns are byte-identical, a fit from a pipe reads Y whole and
  writes the bytes of the in-memory fit, and the `fit` event says how Y was
  read.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from tensorreg import cli, harness, regress, tensor
from tensorreg.datagen import SynthSpec, gen_linear_synthetic
from tensorreg.regress import KernelSpec, RegressionProblem, gram, holrr_fit, kholrr_fit, save_model
from tensorreg.tensor import DtenColumns, read_dten, write_dten

LINEAR = KernelSpec(kind="linear")


def _fit(y, x, ranks, kernel):
    if kernel is None:
        return holrr_fit(RegressionProblem(x, y, ranks, 1e-2))
    return kholrr_fit(gram(x, kernel), y, ranks, 1e-2, x, kernel)


def _planted(seed, route, modes):
    """(x, y, x_test, ranks, kernel) of a problem with clear spectral gaps at
    its ranks, shaped for `route`: a thin primal q (d0 < N), a kernel q with
    D < N (Z), or a square q with D >= N (G_0, from a kernel or from X with
    d0 >= N)."""
    rng = np.random.default_rng(seed)
    sides = (6, 12) if modes == 1 else (2, 5) if modes == 2 else (2, 4)
    dims = tuple(int(d) for d in rng.integers(*sides, size=modes, endpoint=True))
    width = math.prod(dims)
    d0, n, kernel = 3, int(rng.integers(8, 20)), None
    if route == "z":
        n, kernel = width + int(rng.integers(1, 6)), LINEAR
    elif route == "g0":
        n = int(rng.integers(3, width + 1))
        kernel = LINEAR if rng.integers(2) else None
        d0 = 3 if kernel else n + 2
    ranks = (int(rng.integers(1, min(d0, n) + 1)), *(int(rng.integers(1, d)) for d in dims))
    data = gen_linear_synthetic(SynthSpec(input_dim=d0, output_dims=dims, ranks=ranks, n_train=n, n_test=5,
                                          noise_std=0.01, seed=seed))
    return data.x_train, data.y_train, data.x_test, ranks, kernel


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**31 - 1), st.sampled_from(("thin", "z", "g0")), st.integers(1, 3),
       st.sampled_from(("few", "sub-slab", "whole")))
def test_streamed_fits_match_in_memory_fits(seed, route, modes, chunk):
    x, y, x_test, ranks, kernel = _planted(seed, route, modes)
    n, dims = y.shape[0], y.shape[1:]
    slab = math.prod(dims[:-1])  # columns of Y_(0) in one slab of the last mode
    rng = np.random.default_rng(seed)
    # entries per read, half the chunk
    entries = {"few": int(rng.integers(1, 6)), "sub-slab": n * int(rng.integers(1, slab + 1)) - 1, "whole": 1 << 20}
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "y.dten"
        write_dten(y, path)
        mp.setattr(tensor, "_IO_CHUNK", 16 * entries[chunk])
        with DtenColumns(path) as source:
            streamed = _fit(source, x, ranks, kernel)
        expect = _fit(read_dten(path), x, ranks, kernel)
    a, b = streamed.predict(x_test), expect.predict(x_test)
    if chunk == "whole":  # one block: the in-memory statistics, bit for bit
        np.testing.assert_array_equal(a, b)
    assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)
    assert streamed.ranks == expect.ranks and streamed.warnings == expect.warnings


def test_the_last_mode_takes_a_strided_pass_over_each_slab(tmp_path, monkeypatch):
    # reads of 24 entries hold 3 columns of Y_(0), one (8, 3) slab of mode
    # 1: G_0 and mode 1's Gram come from 8 blocks of 3 columns; a slab of
    # mode 2 (24 x 4) or of mode 3 (96 x 2) exceeds a read, so each is read
    # as runs of 24 / d_i rows, one pass per mode
    rng = np.random.default_rng(3)
    y = rng.standard_normal((8, 3, 4, 2))
    write_dten(y, tmp_path / "y.dten")
    monkeypatch.setattr(tensor, "_IO_CHUNK", 16 * 24)  # two reads of 24 entries in flight
    passes, real = [], DtenColumns.reads
    monkeypatch.setattr(DtenColumns, "reads", lambda self, requests, *ahead: real(self, passes.append(list(requests)) or passes[-1], *ahead))
    with DtenColumns(tmp_path / "y.dten") as source:
        grams, product = regress._streamed(source, [True] * 4, np.eye(8))
    blocks, *strided = passes
    assert blocks == [(24, 1, 24 * a, 24) for a in range(8)]
    assert [{count for _, count, _, _ in p} for p in strided] == [{4}, {2}]
    assert max(rows * count for p in passes for rows, count, _, _ in p) == 24
    np.testing.assert_array_equal(product, y.reshape(8, -1, order="F"))
    for i, g in enumerate(grams):
        yi = tensor.matricize(y, i)
        assert np.linalg.norm(g - yi @ yi.T) <= 1e-13 * np.linalg.norm(yi @ yi.T)


def _spy_reads(monkeypatch) -> list:
    """Record the requests of every `DtenColumns.reads` call: one per pass."""
    passes, real = [], DtenColumns.reads
    monkeypatch.setattr(DtenColumns, "reads", lambda self, requests, *ahead: real(self, passes.append(list(requests)) or passes[-1], *ahead))
    return passes


@pytest.mark.parametrize("kernel", [[], ["--kernel", "rbf:3"]], ids=["thin", "g0-kernel"])
def test_a_streamed_cli_fit_reads_its_file_twice_and_once_for_its_training_error(tmp_path, monkeypatch, kernel):
    # reads of 450 entries, 15 of Y_(0)'s 60 columns: pass 1 reads blocks of
    # 12 columns (whole slabs of modes 1 and 2) for the pencil or G_0 and
    # those modes' Grams, pass 2 the last mode's (360, 5) view in ranges of
    # 90 rows (3 N) for its Gram and the core's rows, and the training error
    # reads Y_(0) once more.  The G_0 route read the file once more for the
    # rows, and a thin q kept Z = q^T Y_(0)
    _files(tmp_path)
    monkeypatch.setattr(tensor, "_IO_CHUNK", 16 * 450)
    passes = _spy_reads(monkeypatch)
    code, _, _ = _cli("fit", "--x", tmp_path / "x.dten", "--y", tmp_path / "y.dten", "--ranks", "3,2,2,2",
                      "--out", tmp_path / "m.bin", *kernel)
    assert code == 0
    blocks, last, training = passes
    assert blocks == [(30 * 12, 1, 30 * 12 * a, 30 * 12) for a in range(5)]
    assert last == [(90, 5, start, 360) for start in range(0, 360, 90)]
    assert training == [(30 * 60, 1, 0, 30 * 60)]


@pytest.mark.parametrize("kernel", [None, LINEAR], ids=["thin", "g0-kernel"])
def test_a_y_that_fits_in_one_read_is_read_once(tmp_path, monkeypatch, kernel):
    # and fitted as the array it holds: the bits of the fit of `read_dten`'s Y
    x, _ = _files(tmp_path)
    passes = _spy_reads(monkeypatch)
    with DtenColumns(tmp_path / "y.dten") as source:
        streamed = _fit(source, x, (3, 2, 2, 2), kernel)
    assert passes == [[(30 * 60, 1, 0, 30 * 60)]]
    expect = _fit(read_dten(tmp_path / "y.dten"), x, (3, 2, 2, 2), kernel)
    assert np.array_equal(streamed.factors.core, expect.factors.core)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kernel", [None, KernelSpec(kind="rbf", sigma=20.0)], ids=["thin", "g0-kernel"])
def test_a_streamed_fit_holds_chunks_not_y(tmp_path, kernel, monkeypatch):
    # 6.4 MB of Y read in chunks of 1/8 of it: Z (d0 x D) is 0.05 Y, and a
    # kernel fit's N x N arrays 0.05 Y each
    rng = np.random.default_rng(12)
    x, y = rng.standard_normal((200, 10)), rng.standard_normal((200, 20, 20, 10))
    write_dten(y, tmp_path / "y.dten")
    k = None if kernel is None else gram(x, kernel)
    monkeypatch.setattr(tensor, "_IO_CHUNK", y.nbytes // 8)

    def fit():
        with DtenColumns(tmp_path / "y.dten") as source:
            if kernel is None:
                holrr_fit(RegressionProblem(x, source, (5, 3, 3, 3), 1e-3))
            else:
                kholrr_fit(k, source, (5, 3, 3, 3), 1e-3, x, kernel)

    assert _peak_bytes(fit) <= 0.4 * y.nbytes


def test_a_streamed_thin_fit_keeps_no_z(tmp_path, monkeypatch):
    # d0 = 50 < N: the pencil sums Z_b Z_b^T over the blocks of pass 1, and
    # the core's rows come from the last mode's pass, so the fit holds its
    # two reads, the rows (R0 x D) and their projection by
    # `multi_mode_product` (no larger), q and the SVD's copy of X
    # (N x d0 each) and the Grams, with a tenth to spare.  A kept
    # Z = q^T Y_(0) (d0 x D) alone is 1.6 MB more
    rng = np.random.default_rng(15)
    n, d0, dims, ranks = 200, 50, (20, 20, 10), (5, 3, 3, 3)
    x, y = rng.standard_normal((n, d0)), rng.standard_normal((n, *dims))
    write_dten(y, tmp_path / "y.dten")
    monkeypatch.setattr(tensor, "_IO_CHUNK", y.nbytes // 8)

    def fit():
        with DtenColumns(tmp_path / "y.dten") as source:
            holrr_fit(RegressionProblem(x, source, ranks, 1e-3))

    width = math.prod(dims)
    budget = y.nbytes // 8 + 8 * (2 * ranks[0] * width + 2 * n * d0 + sum(d * d for d in dims))
    assert _peak_bytes(fit) <= 1.1 * budget < 8 * d0 * width


def test_cli_fit_process_holds_chunks_not_y(tmp_path):
    # a 64 MB Y against a 1-row one, each fitted by the CLI in a process of
    # its own: the difference in peak RSS is what Y costs the fit and its
    # training error, a chunk and Z; read whole it would be at least Y
    rng = np.random.default_rng(13)
    peaks = []
    for n in (1, 1000):
        write_dten(rng.standard_normal((n, 5)), tmp_path / "x.dten")
        write_dten(rng.standard_normal((n, 20, 20, 20)), tmp_path / "y.dten")
        code, peak = helpers.cli_peak_rss(["fit", "--x", tmp_path / "x.dten", "--y", tmp_path / "y.dten",
                                           "--ranks", "3,3,3,3", "--out", tmp_path / "m.bin"])
        assert code == 0
        peaks.append(peak)
    y_bytes = 8 * 1000 * 20**3
    assert (tmp_path / "y.dten").stat().st_size > y_bytes
    assert peaks[1] - peaks[0] <= 0.4 * y_bytes, peaks


def _cli(*argv) -> tuple:
    """(exit code, stdout, stderr) of `cli.main` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _files(tmp_path, n=30, dims=(4, 3, 5), seed=14):
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((n, 6)), rng.standard_normal((n, *dims))
    write_dten(x, tmp_path / "x.dten")
    write_dten(y, tmp_path / "y.dten")
    return x, y


@pytest.fixture
def helper_on(monkeypatch):
    """Start the helper thread on every square-q fit with a Gram to form."""
    monkeypatch.setattr(regress, "_blas_threads", lambda: 1)
    monkeypatch.setattr(regress, "_OVERLAP_FLOPS", 0)


def _spoil(path: Path, how: str) -> str:
    """Spoil the DTEN file at `path`; the message its fit exits with."""
    data = bytearray(path.read_bytes())
    payload = len(data) - len(data.partition(b"\n")[0]) - 1
    if how == "truncated":
        path.write_bytes(data[:-8])
        return f"tensorreg: DTEN payload truncated: expected {payload} bytes, got {payload - 8}\n"
    if how == "past":
        path.write_bytes(data + b"\0" * 8)
        return f"tensorreg: DTEN file continues past its payload of {payload} bytes\n"
    data[-8:] = np.array([np.nan]).tobytes()  # the last entry, in the last chunk
    path.write_bytes(data)
    return "tensorreg: training data must be finite\n"


@pytest.mark.parametrize("how", ["truncated", "past", "nan"])
@pytest.mark.parametrize("kernel", [[], ["--kernel", "rbf:3"]], ids=["primal", "kernel"])
def test_a_bad_y_file_exits_2_and_leaves_no_model(tmp_path, monkeypatch, how, kernel, helper_on):
    # chunks of 7 columns: the NaN is read in the last block, on the helper
    # thread for the kernel fit
    _files(tmp_path)
    monkeypatch.setattr(tensor, "_IO_CHUNK", 8 * 30 * 7)
    message = _spoil(tmp_path / "y.dten", how)
    base = threading.active_count()
    code, out, err = _cli("fit", "--x", tmp_path / "x.dten", "--y", tmp_path / "y.dten", "--ranks", "3,2,2,2",
                          "--out", tmp_path / "m.bin", *kernel)
    assert code == 2 and out == "" and err == message, err
    assert not (tmp_path / "m.bin").exists() and threading.active_count() == base


@pytest.mark.parametrize("kernel", [[], ["--kernel", "rbf:3"]], ids=["primal", "kernel"])
def test_streamed_cli_fits_rerun_byte_identical(tmp_path, monkeypatch, kernel):
    _files(tmp_path)
    monkeypatch.setattr(tensor, "_IO_CHUNK", 8 * 30 * 7)
    models, events = [], []
    for out in ("a.bin", "b.bin"):
        code, stdout, _ = _cli("fit", "--x", tmp_path / "x.dten", "--y", tmp_path / "y.dten", "--ranks", "3,2,2,2",
                               "--out", tmp_path / out, *kernel)
        assert code == 0
        models.append((tmp_path / out).read_bytes())
        events.append(json.loads(stdout))
    assert models[0] == models[1]
    assert events[0]["y_read"] == "streamed" and events[0]["training_rmse"] == events[1]["training_rmse"]


def _in_memory_model(x, y, kernel) -> bytes:
    buf = io.BytesIO()
    save_model(harness.fit_method("kholrr" if kernel else "holrr", x, y, 1e-3, (3, 2, 2, 2), kernel), buf)
    return buf.getvalue()


@pytest.mark.parametrize("kernel", [[], ["--kernel", "rbf:3"]], ids=["primal", "kernel"])
def test_a_pipe_fit_reads_y_whole_and_writes_the_in_memory_bytes(tmp_path, kernel):
    x, _ = _files(tmp_path)
    y = read_dten(tmp_path / "y.dten")
    expect = _in_memory_model(x, y, KernelSpec.from_string(kernel[1]) if kernel else None)
    fifo = tmp_path / "y.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=((tmp_path / "y.dten").read_bytes(),))
    writer.start()
    code, out, _ = _cli("fit", "--x", tmp_path / "x.dten", "--y", fifo, "--ranks", "3,2,2,2",
                        "--out", tmp_path / "pipe.bin", *kernel)
    writer.join()
    assert code == 0 and json.loads(out)["y_read"] == "in_memory"
    assert (tmp_path / "pipe.bin").read_bytes() == expect
    # the same through the standard input of a process of its own
    code, _ = helpers.cli_peak_rss(["fit", "--x", tmp_path / "x.dten", "--y", "/dev/stdin", "--ranks", "3,2,2,2",
                                    "--out", tmp_path / "stdin.bin", *kernel], stdin=tmp_path / "y.dten")
    assert code == 0 and (tmp_path / "stdin.bin").read_bytes() == expect
    # a regular file whose Y fits in one chunk is one block: the same bytes
    code, out, _ = _cli("fit", "--x", tmp_path / "x.dten", "--y", tmp_path / "y.dten", "--ranks", "3,2,2,2",
                        "--out", tmp_path / "file.bin", *kernel)
    assert code == 0 and json.loads(out)["y_read"] == "streamed"
    assert (tmp_path / "file.bin").read_bytes() == expect
