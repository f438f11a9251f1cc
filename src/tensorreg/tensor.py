"""Dense tensor algebra: matricization, mode products, Tucker form, file formats.

Tensors are plain float64 numpy arrays of order >= 1.  All linearizations are
column-major (first index fastest), so ``vectorize`` is a memory
reinterpretation of the mode-0 matricization and the classical Kronecker
identities hold with factors multiplied in reverse mode order:

    matricize(T, n) = U_n @ matricize(G, n) @ kron(U_p, ..., U_{n+1}, U_{n-1}, ..., U_0).T
    vectorize(T)    = kron(U_p, ..., U_0) @ vectorize(G)

Modes are 0-based, matching numpy axes.

A DTEN file holds exactly its header line and its column-major payload.
`read_dten` reads one into a single array; `DtenColumns` reads a regular
file in pieces instead (runs of the payload into reused buffers, by a
reading rule of its own), so a fit can form its statistics of Y without
holding Y.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import re
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "TuckerFactors",
    "matricize",
    "dematricize",
    "vectorize",
    "mode_product",
    "multi_mode_product",
    "inner",
    "frobenius_norm",
    "tucker_reconstruct",
    "hosvd_truncated",
    "read_dten",
    "DtenColumns",
    "write_dten",
    "read_matrix_csv",
    "write_matrix_csv",
]

DTEN_MAGIC = "DTEN"
DTEN_VERSION = 1
# the one header form: magic, version, order and dims, single spaces, canonical decimals
_DTEN_HEADER = re.compile(rf"{DTEN_MAGIC} {DTEN_VERSION}(?: (?:0|[1-9][0-9]*))+")
# bytes per read or write call of a DTEN payload
_IO_CHUNK = 1 << 24
# first capacity of a DTEN payload read from a stream that cannot seek
_PIPE_START = 1 << 16
# longest DTEN header line read, without its newline
_DTEN_LINE = 4096


def _as_tensor(t) -> np.ndarray:
    a = np.asarray(t, dtype=np.float64)
    if a.ndim < 1:
        a = a.reshape(1)
    return a


def _check_mode(t: np.ndarray, mode: int) -> None:
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for order-{t.ndim} tensor")


def matricize(t, mode: int) -> np.ndarray:
    """Mode-`mode` matricization, shape (d_mode, prod of the other dims).

    Column j enumerates the remaining indices with the lowest mode varying
    fastest, i.e. j = i_0 + i_1*d_0 + ... skipping `mode`.
    """
    t = _as_tensor(t)
    _check_mode(t, mode)
    return np.moveaxis(t, mode, 0).reshape(t.shape[mode], -1, order="F")


def dematricize(m, mode: int, shape) -> np.ndarray:
    """Inverse of :func:`matricize` for a tensor of the given shape."""
    m = np.asarray(m, dtype=np.float64)
    shape = tuple(int(d) for d in shape)
    if not 0 <= mode < len(shape):
        raise ValueError(f"mode {mode} out of range for order-{len(shape)} tensor")
    rest = shape[:mode] + shape[mode + 1 :]
    if m.shape != (shape[mode], math.prod(rest)):
        raise ValueError(f"matrix shape {m.shape} does not fold into {shape} at mode {mode}")
    folded = m.reshape((shape[mode],) + rest, order="F")
    return np.moveaxis(folded, 0, mode)


def vectorize(t) -> np.ndarray:
    """Column-major flattening; column stack of the mode-0 matricization."""
    return _as_tensor(t).reshape(-1, order="F")


def mode_product(t, m, mode: int) -> np.ndarray:
    """Mode-`mode` product with a matrix: result_(mode) = m @ t_(mode)."""
    return multi_mode_product(t, [m], [mode])


def multi_mode_product(t, mats, modes=None) -> np.ndarray:
    """Apply mode products for several modes in one call, in turn.

    `mats` may contain None to skip a mode.  `modes` defaults to
    0..len(mats)-1.  Each product is one GEMM, m @ t_(mode), on the
    matricization `matricize` makes (a copy unless it is already a view), and
    its result folds back as a view, so it rounds bitwise as
    dematricize(m @ matricize(t, mode), mode, shape): BLAS rounds a column by
    its place in the matrix, so no other column order would.
    """
    t = _as_tensor(t)
    for m, mode in zip(mats, range(len(mats)) if modes is None else modes):
        if m is None:
            continue
        m = np.asarray(m, dtype=np.float64)
        _check_mode(t, mode)
        if m.ndim != 2 or m.shape[1] != t.shape[mode]:
            raise ValueError(f"mode {mode} of size {t.shape[mode]} needs a matrix with that many columns, got shape {m.shape}")
        front = [mode, *range(mode), *range(mode + 1, t.ndim)]  # moveaxis(mode, 0)
        out = m @ t.transpose(front).reshape(t.shape[mode], -1, order="F")
        back = [*range(1, mode + 1), 0, *range(mode + 1, t.ndim)]  # moveaxis(0, mode)
        t = out.reshape([out.shape[0], *(t.shape[i] for i in front[1:])], order="F").transpose(back)
    return t


def inner(s, t) -> float:
    """Entrywise inner product <S, T>."""
    s = _as_tensor(s)
    t = _as_tensor(t)
    if s.shape != t.shape:
        raise ValueError(f"shape mismatch {s.shape} vs {t.shape}")
    return float(np.dot(vectorize(s), vectorize(t)))


def frobenius_norm(t) -> float:
    # ravel in memory order: a view of a C- or column-major tensor, not a copy
    return float(np.linalg.norm(_as_tensor(t).ravel(order="K")))


@dataclass
class TuckerFactors:
    """Tucker form: core of shape (R_0..R_p) and factor i of shape (d_i, R_i).
    A factor of None is the identity (d_i = R_i): no block, no product."""

    core: np.ndarray
    factors: list = field(default_factory=list)

    def __post_init__(self):
        self.core = _as_tensor(self.core)
        self.factors = [None if u is None else np.asarray(u, dtype=np.float64) for u in self.factors]
        if len(self.factors) != self.core.ndim:
            raise ValueError(
                f"{len(self.factors)} factors for an order-{self.core.ndim} core"
            )
        for i, u in enumerate(self.factors):
            if u is not None and (u.ndim != 2 or u.shape[1] != self.core.shape[i]):
                raise ValueError(
                    f"factor {i} has shape {u.shape}, core mode {i} has size {self.core.shape[i]}"
                )

    @property
    def shape(self) -> tuple:
        return tuple(r if u is None else u.shape[0] for r, u in zip(self.core.shape, self.factors))

    @property
    def ranks(self) -> tuple:
        return self.core.shape

    def max_orthonormality_defect(self) -> float:
        worst = 0.0
        for u in self.factors:
            if u is not None:
                worst = max(worst, float(np.max(np.abs(u.T @ u - np.eye(u.shape[1])))))
        return worst


def tucker_reconstruct(f: TuckerFactors) -> np.ndarray:
    """Materialize core x_0 U_0 ... x_p U_p without forming Kronecker products."""
    return multi_mode_product(f.core, f.factors)


def _sign_flips(u: np.ndarray) -> np.ndarray:
    """-1 for each column whose largest-magnitude entry (first on ties) is
    negative, else +1."""
    top = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    return np.where(top < 0, -1.0, 1.0)


def _fix_signs(u: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column positive (first on ties)."""
    return u * _sign_flips(u)


def hosvd_truncated(t, ranks) -> TuckerFactors:
    """Truncated higher-order SVD at the requested multilinear ranks.

    Ranks above the mode dimension are clamped with a warning.
    Exact when `ranks` >= the true multilinear rank of `t`.
    """
    t = _as_tensor(t)
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != t.ndim:
        raise ValueError(f"{len(ranks)} ranks for an order-{t.ndim} tensor")
    if any(r < 1 for r in ranks):
        raise ValueError("ranks must be >= 1")
    factors = []
    for mode, r in enumerate(ranks):
        if r > t.shape[mode]:
            warnings.warn(
                f"rank {r} clamped to {t.shape[mode]} at mode {mode}",
                stacklevel=2,
            )
            r = t.shape[mode]
        u, _, _ = np.linalg.svd(matricize(t, mode), full_matrices=False)
        factors.append(_fix_signs(u[:, :r]))
    core = multi_mode_product(t, [u.T for u in factors])
    return TuckerFactors(core=core, factors=factors)


# ---------------------------------------------------------------------------
# file formats


def _opened(path_or_file, mode):
    """A context manager giving a file: a file the caller opened is left open
    on exit, a path is opened in `mode` and closed on exit."""
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        return contextlib.nullcontext(path_or_file)
    return open(path_or_file, mode)


def write_dten(t, path_or_file, blocks=None) -> None:
    """Write the DTEN v1 format: ASCII header line, then little-endian doubles.

    Header is ``DTEN 1 <order> <d_0> ... <d_p>``: single spaces, decimal
    fields without sign or leading zeros.  The payload is the column-major
    linearization, 8 bytes per entry, written block by block: with `blocks`,
    `t` is only the tensor's shape and `blocks` yields arrays whose
    column-major entries, one block after another, are the payload (a
    prediction streamed in column blocks); their total must fill the shape.
    Without, the blocks are `_IO_CHUNK`-byte slices of the tensor's own
    memory: a column-major float64 tensor (what `read_dten` returns) is
    written without a copy, any other layout costs one.
    """
    if blocks is None:
        t = _as_tensor(t)
        shape, flat = t.shape, np.ascontiguousarray(vectorize(t), dtype="<f8")
        step = max(1, _IO_CHUNK // 8)
        blocks = (flat[a : a + step] for a in range(0, flat.size, step))
    else:
        shape = tuple(int(d) for d in t)
    with _opened(path_or_file, "wb") as f:
        dims = " ".join(str(d) for d in shape)
        f.write(f"{DTEN_MAGIC} {DTEN_VERSION} {len(shape)} {dims}\n".encode("ascii"))
        left = math.prod(shape)
        for block in blocks:
            entries = np.asarray(block, dtype="<f8").reshape(-1, order="F")
            left -= entries.size
            if left < 0:
                break
            f.write(memoryview(entries).cast("B"))
        if left:
            raise ValueError(f"DTEN blocks do not fill the shape {shape}")


def _read_line_bytes(f, limit: int, name: str) -> bytes:
    """A `name` header line up to its newline (not kept), at most `limit`
    bytes, so no more than that is read from a file without one; what follows
    the line is not consumed."""
    line = f.readline(limit + 1)
    if line.endswith(b"\n"):
        return line[:-1]
    if len(line) > limit:
        raise ValueError(f"{name} header line too long")
    return line


def _bytes_left(f):
    """Bytes from the position of `f` to its end, or None if `f` cannot seek."""
    try:
        pos = f.tell()
        end = f.seek(0, os.SEEK_END)
        f.seek(pos)
    except (AttributeError, OSError):
        return None
    return end - pos


def _parse_dten_header(line: bytes) -> tuple:
    """Shape from a header line; exactly the form `write_dten` writes is accepted."""
    text = line.decode("ascii", errors="replace")
    fields = text.split()
    if len(fields) < 3 or fields[0] != DTEN_MAGIC:
        raise ValueError("not a DTEN file")
    if fields[1] != str(DTEN_VERSION):
        raise ValueError(f"unsupported DTEN version {fields[1]}")
    if not _DTEN_HEADER.fullmatch(text):
        raise ValueError("malformed DTEN header")
    order = int(fields[2])
    if order < 1 or len(fields) != 3 + order:
        raise ValueError("malformed DTEN header")
    shape = tuple(int(d) for d in fields[3:])
    if any(d < 1 for d in shape):
        raise ValueError(f"bad DTEN dimensions {shape}")
    return shape


def _check_payload(nbytes: int, left, whole: bool = True) -> None:
    """Raise unless `left` bytes (None: a stream that cannot seek) hold a
    payload of `nbytes` and, in a `whole` file, end where it ends."""
    if left is not None and nbytes > left:
        raise ValueError(f"DTEN payload truncated: expected {nbytes} bytes, got {left}")
    if whole and left is not None and nbytes < left:
        raise ValueError(f"DTEN file continues past its payload of {nbytes} bytes")


def read_dten(path_or_file) -> np.ndarray:
    """Read a DTEN v1 tensor (see `write_dten`) into one column-major array.

    The header must be exactly what `write_dten` writes; anything else raises
    "malformed DTEN header".  The payload is read with `readinto` straight
    into the returned array, so reading holds one copy of the data.  From a
    seekable file its size is checked against the bytes left before anything
    is allocated.  A stream that cannot seek (a pipe) is read into an array
    that grows (by `resize`, at most doubling) as the bytes arrive, so a bogus
    huge header allocates nothing up front.  A path names a whole file, which
    must end where the payload ends; an open file is read up to the end of
    this tensor's payload only (a model file's blocks follow one another).
    """
    whole = not hasattr(path_or_file, "read")
    with _opened(path_or_file, "rb") as f:
        shape = _parse_dten_header(_read_line_bytes(f, _DTEN_LINE, "DTEN"))
        # exact Python ints: an int64 product wraps for huge dims
        nbytes = 8 * math.prod(shape)
        left = _bytes_left(f)
        _check_payload(nbytes, left, whole)
        data = np.empty(min(nbytes, _PIPE_START) // 8 if left is None else nbytes // 8, dtype="<f8")
        got = 0
        while got < nbytes:
            if got == data.nbytes:
                # no view of `data` may be alive here: resize moves the memory
                data.resize(min(nbytes, 2 * got) // 8, refcheck=False)
            with memoryview(data).cast("B") as view:
                n = f.readinto(view[got : min(data.nbytes, got + _IO_CHUNK)])
            if not n:
                raise ValueError(f"DTEN payload truncated: expected {nbytes} bytes, got {got}")
            got += n
        if whole and left is None:
            _check_payload(nbytes, nbytes + len(f.read(1)))
        return data.astype(np.float64, copy=False).reshape(shape, order="F")


@functools.cache
def _blas_threads():
    """The thread count of the OpenBLAS that numpy bundles, read once per
    process through its C API, or None where numpy bundles none."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class DtenColumns:
    """A DTEN file read in pieces, never whole: `shape` and `ndim` of the
    tensor Y it holds, and runs of its column-major payload (`reads`).  The
    columns of the mode-0 unfolding Y_(0) (N x D) lie one after another in
    the payload, so a block of them is one run (`columns`).

    Opening reads the header and checks that the file is exactly the
    payload it announces (as `read_dten` of a path does), so a truncated
    file, or one that continues past its payload, raises ValueError before
    any entry is read.  The file must be regular (it is read at offsets, more
    than once).  A context manager: leaving it closes the file."""

    def __init__(self, path):
        self._file = open(path, "rb")
        try:
            self.shape = _parse_dten_header(_read_line_bytes(self._file, _DTEN_LINE, "DTEN"))
            self._start = self._file.tell()
            _check_payload(8 * math.prod(self.shape), _bytes_left(self._file))
        except BaseException:
            self._file.close()
            raise
        self._bufs = []
        self._opener = threading.get_ident()

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def read_size(self) -> int:
        """Entries of one read: half `_IO_CHUNK`, so that two fit in it."""
        return max(1, _IO_CHUNK // 16)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._file.close()
        return False

    def reads(self, requests):
        """For each (rows, count, start, step) of `requests`, a column-major
        (rows, count) array whose column k is entries start + k step +
        [0, rows) of the payload, read with `os.preadv` (one read when the
        runs are adjacent, step == rows), into a reused buffer of `read_size`
        entries (less for a smaller Y, more for a larger request), so each
        array is valid until the next is asked for.  The one reading rule:
        a call of more than one request, on the thread that opened the file,
        while numpy's OpenBLAS runs one thread (so the reader has a core of
        its own), reads ahead: a reader thread, joined when the generator
        closes, reads the next request into a second buffer, allocated only
        then, while the caller uses the other.  Any other call reads inline."""
        requests = list(requests)
        ahead = len(requests) > 1 and threading.get_ident() == self._opener and _blas_threads() == 1
        size = max([min(self.read_size, math.prod(self.shape))] + [rows * count for rows, count, _, _ in requests])
        self._bufs = [b for b in self._bufs if b.size >= size]
        self._bufs += [np.empty(size, dtype="<f8") for _ in range(1 + ahead - len(self._bufs))]

        def fill(k, slot):
            rows, count, start, step = requests[k]
            flat = self._bufs[slot][: rows * count]
            run, runs = (flat.size, 1) if step == rows else (rows, count)
            with memoryview(flat).cast("B") as view:
                for c in range(runs):
                    self._read(view[8 * c * run : 8 * (c + 1) * run], start + c * step)
            return flat.reshape(rows, count, order="F")

        if not ahead:
            for k in range(len(requests)):
                yield fill(k, 0)
            return
        with ThreadPoolExecutor(max_workers=1, thread_name_prefix="tensorreg-read") as reader:
            pending = reader.submit(fill, 0, 0)
            for k in range(len(requests)):
                out = pending.result()
                if k + 1 < len(requests):
                    pending = reader.submit(fill, k + 1, (k + 1) % 2)
                yield out

    def columns(self, width: int):
        """(a, block) for a = 0, width, 2 width, ...: block the N x w columns
        [a, a + w) of Y_(0), w = width but at the end, from `reads`."""
        n, total = self.shape[0], math.prod(self.shape[1:])
        spans = [(a, min(width, total - a)) for a in range(0, total, width)]
        blocks = self.reads((n * w, 1, n * a, n * w) for a, w in spans)
        for (a, w), block in zip(spans, blocks):
            yield a, block.reshape(n, w, order="F")

    def _read(self, view, entry: int) -> None:
        got = 0
        while got < len(view):
            n = os.preadv(self._file.fileno(), [view[got:]], self._start + 8 * entry + got)
            if not n:  # the file shrank since it was opened
                raise ValueError(f"DTEN payload truncated: no bytes at offset {self._start + 8 * entry + got}")
            got += n


def write_matrix_csv(m, path_or_file) -> None:
    """Order-2 tensors only; one row per line, repr-precision floats, as
    ASCII bytes to a path or a binary file."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"CSV export is for matrices, got order {m.ndim}")
    with _opened(path_or_file, "wb") as f:
        for row in m:
            f.write((",".join(repr(float(v)) for v in row) + "\n").encode("ascii"))


def read_matrix_csv(path) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="ascii") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(v) for v in line.split(",")])
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: ragged rows")
    return np.asarray(rows, dtype=np.float64)
