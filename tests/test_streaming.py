"""DTEN I/O in bounded chunks and mode Grams over row blocks.

Property tests: DTEN files round-trip bit for bit (NaN payloads, infinities
and -0.0 included) whatever the memory layout of the tensor written, the read
path (`readinto` into the array, or into a growing one from a stream that
cannot seek) and the chunk size; and the blocked mode Grams equal the
unblocked products.  The I/O chunk, the first pipe capacity and the row block
are patched down to a few entries, so every loop runs many times and row
blocks come out odd-sized.

Memory tests (tracemalloc, which sees numpy's allocations): reading a file
or a pipe holds one copy of the data, writing one holds none, and a fit
holds only blocks of Y on top of it.
"""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tensorreg import regress, tensor
from tensorreg.regress import RegressionProblem, holrr_fit
from tensorreg.tensor import matricize, read_dten, write_dten
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
        np.testing.assert_array_equal(_bits(read_dten(_Pipe(data))), _bits(a))


@SETTINGS
@given(
    st.integers(0, 2**31 - 1),
    hnp.array_shapes(min_dims=2, max_dims=5, min_side=1, max_side=5),
    st.sampled_from(("C", "F", "strided")),
    st.integers(1, 3),
)
def test_blocked_mode_grams_match_the_unfoldings(seed, shape, layout, rows_per_block):
    y = _laid_out(np.random.default_rng(seed).standard_normal(shape), layout)
    row_bytes = 8 * y[:1].size
    with pytest.MonkeyPatch.context() as mp:
        # rows_per_block rows and a few bytes: blocks of 1-3 rows, the last one short
        mp.setattr(regress, "_BLOCK_BYTES", rows_per_block * row_bytes + row_bytes // 2)
        blocks = regress.row_blocks(y)
        grams = regress._mode_grams(y)
    assert [r.start for r in blocks] == list(range(0, y.shape[0], rows_per_block))
    assert blocks[-1].stop == y.shape[0]
    for i, g in enumerate(grams, start=1):
        yi = matricize(y, i)
        ref = yi @ yi.T
        assert np.linalg.norm(g - ref) <= 1e-12 * np.linalg.norm(ref)


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


def test_holrr_fit_holds_blocks_of_y(y_file, monkeypatch):
    y, _ = y_file
    x = np.random.default_rng(4).standard_normal((N, 10))
    monkeypatch.setattr(regress, "_BLOCK_BYTES", y.nbytes // 16)
    peak = _peak_bytes(lambda: holrr_fit(RegressionProblem(x=x, y=y, ranks=(3, 3, 3, 3), gamma=1e-3)))
    assert peak <= 0.5 * y.nbytes
