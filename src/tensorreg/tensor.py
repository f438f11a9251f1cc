"""Dense tensor algebra: matricization, mode products, Tucker form, file formats.

Tensors are plain float64 numpy arrays of order >= 1.  All linearizations are
column-major (first index fastest), so ``vectorize`` is a memory
reinterpretation of the mode-0 matricization and the classical Kronecker
identities hold with factors multiplied in reverse mode order:

    matricize(T, n) = U_n @ matricize(G, n) @ kron(U_p, ..., U_{n+1}, U_{n-1}, ..., U_0).T
    vectorize(T)    = kron(U_p, ..., U_0) @ vectorize(G)

Modes are 0-based, matching numpy axes.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TuckerFactors",
    "matricize",
    "dematricize",
    "vectorize",
    "mode_product",
    "mode_vector_product",
    "multi_mode_product",
    "inner",
    "frobenius_norm",
    "tucker_reconstruct",
    "multilinear_rank",
    "hosvd_truncated",
    "read_dten",
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
    t = _as_tensor(t)
    m = np.asarray(m, dtype=np.float64)
    _check_mode(t, mode)
    if m.ndim != 2:
        raise ValueError("mode_product expects a matrix")
    if m.shape[1] != t.shape[mode]:
        raise ValueError(
            f"matrix has {m.shape[1]} columns, tensor mode {mode} has size {t.shape[mode]}"
        )
    out_shape = t.shape[:mode] + (m.shape[0],) + t.shape[mode + 1 :]
    return dematricize(m @ matricize(t, mode), mode, out_shape)


def mode_vector_product(t, v, mode: int) -> np.ndarray:
    """Contract mode `mode` with a vector; the result drops that mode."""
    t = _as_tensor(t)
    v = np.asarray(v, dtype=np.float64)
    _check_mode(t, mode)
    if v.ndim != 1 or v.shape[0] != t.shape[mode]:
        raise ValueError(f"vector of length {v.shape} does not match mode {mode} of {t.shape}")
    out = mode_product(t, v[None, :], mode)
    out = np.squeeze(out, axis=mode)
    if out.ndim == 0:
        out = out.reshape(1)[0]
        return float(out)
    return out


def multi_mode_product(t, mats, modes=None) -> np.ndarray:
    """Apply mode products for several modes in one call.

    `mats` may contain None to skip a mode.  `modes` defaults to 0..len(mats)-1.
    """
    t = _as_tensor(t)
    if modes is None:
        modes = range(len(mats))
    out = t
    for m, mode in zip(mats, modes):
        if m is None:
            continue
        out = mode_product(out, m, mode)
    return out


def inner(s, t) -> float:
    """Entrywise inner product <S, T>."""
    s = _as_tensor(s)
    t = _as_tensor(t)
    if s.shape != t.shape:
        raise ValueError(f"shape mismatch {s.shape} vs {t.shape}")
    return float(np.dot(vectorize(s), vectorize(t)))


def frobenius_norm(t) -> float:
    return float(np.linalg.norm(_as_tensor(t).ravel()))


@dataclass
class TuckerFactors:
    """Tucker form: core of shape (R_0..R_p) and factor i of shape (d_i, R_i)."""

    core: np.ndarray
    factors: list = field(default_factory=list)
    clamped: bool = False

    def __post_init__(self):
        self.core = _as_tensor(self.core)
        self.factors = [np.asarray(u, dtype=np.float64) for u in self.factors]
        if len(self.factors) != self.core.ndim:
            raise ValueError(
                f"{len(self.factors)} factors for an order-{self.core.ndim} core"
            )
        for i, u in enumerate(self.factors):
            if u.ndim != 2 or u.shape[1] != self.core.shape[i]:
                raise ValueError(
                    f"factor {i} has shape {u.shape}, core mode {i} has size {self.core.shape[i]}"
                )

    @property
    def shape(self) -> tuple:
        return tuple(u.shape[0] for u in self.factors)

    @property
    def ranks(self) -> tuple:
        return self.core.shape

    def max_orthonormality_defect(self) -> float:
        worst = 0.0
        for u in self.factors:
            g = u.T @ u
            worst = max(worst, float(np.max(np.abs(g - np.eye(u.shape[1])))))
        return worst


def tucker_reconstruct(f: TuckerFactors) -> np.ndarray:
    """Materialize core x_0 U_0 ... x_p U_p without forming Kronecker products."""
    return multi_mode_product(f.core, f.factors)


def multilinear_rank(t, tol: float = 1e-9) -> tuple:
    """Per-mode ranks: singular values above tol * largest, each matricization."""
    t = _as_tensor(t)
    if tol <= 0:
        raise ValueError("tol must be positive")
    ranks = []
    for mode in range(t.ndim):
        sv = np.linalg.svd(matricize(t, mode), compute_uv=False)
        top = sv[0] if sv.size else 0.0
        ranks.append(int(np.sum(sv > tol * top)) if top > 0 else 0)
    return tuple(ranks)


def _fix_signs(u: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column positive (first on ties)."""
    u = np.array(u, dtype=np.float64)
    for j in range(u.shape[1]):
        col = u[:, j]
        i = int(np.argmax(np.abs(col)))
        if col[i] < 0:
            u[:, j] = -col
    return u


def hosvd_truncated(t, ranks) -> TuckerFactors:
    """Truncated higher-order SVD at the requested multilinear ranks.

    Ranks above the mode dimension are clamped (warning + flag on the result).
    Exact when `ranks` >= the true multilinear rank of `t`.
    """
    t = _as_tensor(t)
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != t.ndim:
        raise ValueError(f"{len(ranks)} ranks for an order-{t.ndim} tensor")
    if any(r < 1 for r in ranks):
        raise ValueError("ranks must be >= 1")
    clamped = False
    factors = []
    for mode, r in enumerate(ranks):
        if r > t.shape[mode]:
            warnings.warn(
                f"rank {r} clamped to {t.shape[mode]} at mode {mode}",
                stacklevel=2,
            )
            r = t.shape[mode]
            clamped = True
        u, _, _ = np.linalg.svd(matricize(t, mode), full_matrices=False)
        factors.append(_fix_signs(u[:, :r]))
    core = multi_mode_product(t, [u.T for u in factors])
    return TuckerFactors(core=core, factors=factors, clamped=clamped)


# ---------------------------------------------------------------------------
# file formats


def _open_maybe(path_or_file, mode):
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        return path_or_file, False
    return open(path_or_file, mode), True


def write_dten(t, path_or_file) -> None:
    """Write the DTEN v1 format: ASCII header line, then little-endian doubles.

    Header is ``DTEN 1 <order> <d_0> ... <d_p>``: single spaces, decimal
    fields without sign or leading zeros.  The payload is the column-major
    linearization, 8 bytes per entry, written in `_IO_CHUNK`-byte slices of
    the tensor's own memory: a column-major float64 tensor (what `read_dten`
    returns) is written without a copy, any other layout costs one.
    """
    t = _as_tensor(t)
    flat = np.ascontiguousarray(vectorize(t), dtype="<f8")
    f, close = _open_maybe(path_or_file, "wb")
    try:
        dims = " ".join(str(d) for d in t.shape)
        f.write(f"{DTEN_MAGIC} {DTEN_VERSION} {t.ndim} {dims}\n".encode("ascii"))
        payload = memoryview(flat).cast("B")
        for start in range(0, payload.nbytes, _IO_CHUNK):
            f.write(payload[start : start + _IO_CHUNK])
    finally:
        if close:
            f.close()


def _read_line_bytes(f) -> bytes:
    # read up to \n one byte at a time so the binary payload is not consumed
    out = bytearray()
    while True:
        b = f.read(1)
        if not b:
            break
        if b == b"\n":
            break
        out.extend(b)
        if len(out) > 4096:
            raise ValueError("DTEN header line too long")
    return bytes(out)


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


def read_dten(path_or_file) -> np.ndarray:
    """Read a DTEN v1 tensor (see `write_dten`) into one column-major array.

    The header must be exactly what `write_dten` writes; anything else raises
    "malformed DTEN header".  The payload is read with `readinto` straight
    into the returned array, so reading holds one copy of the data.  From a
    seekable file its size is checked against the bytes left before anything
    is allocated.  A stream that cannot seek (a pipe) is read into an array
    that grows (by `resize`, at most doubling) as the bytes arrive, so a bogus
    huge header allocates nothing up front.
    """
    f, close = _open_maybe(path_or_file, "rb")
    try:
        shape = _parse_dten_header(_read_line_bytes(f))
        # exact Python ints: an int64 product wraps for huge dims
        nbytes = 8 * math.prod(shape)
        left = _bytes_left(f)
        if left is not None and nbytes > left:
            raise ValueError(f"DTEN payload truncated: expected {nbytes} bytes, got {left}")
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
        return data.astype(np.float64, copy=False).reshape(shape, order="F")
    finally:
        if close:
            f.close()


def write_matrix_csv(m, path) -> None:
    """Order-2 tensors only; one row per line, repr-precision floats."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"CSV export is for matrices, got order {m.ndim}")
    with open(path, "w", encoding="ascii") as f:
        for row in m:
            f.write(",".join(repr(float(v)) for v in row))
            f.write("\n")


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
