"""Low-rank regression with tensor-structured outputs.

Given inputs X (N x d0) and outputs stacked into a tensor Y (N x d1 x ... x dp),
the main fit constrains the coefficient tensor W (d0 x d1 x ... x dp) to
multilinear rank (R0..Rp) and minimizes the ridge objective

    L(W) = ||W x_0 X - Y||_F^2 + gamma ||W||_F^2.

The minimizer over each mode separately is a spectral projection, which gives
the closed-form fit below: the input-side subspace solves the pencil
(X^T Y_(0) Y_(0)^T X) u = lambda (X^T X + gamma I) u, each output-side subspace
is a top eigenspace of Y_(i) Y_(i)^T, and the core is the projected ridge
solution, which the pencil's own basis gives without a linear solve.
The fit costs one small eigenproblem per mode and carries a (p+1)-factor
approximation guarantee relative to the exact rank-constrained minimizer.

The kernel variant replaces X by the Gram matrix and learns a dual coefficient
tensor C (N x d1 x ... x dp), never materialized: a kernel model is the same
`HolrrModel`, its kernel and training rows its input map, with C in the same
Tucker form, C = G x_0 A x_1 U_1 ... x_p U_p, the dual basis A (N x R0) as
factor 0.  Every predict entry point takes input rows, and a kernel model
first maps each to its kernel vector k against the training rows, whose
norms and finite check the model computes once: a row costs N kernel terms
and one `multi_mode_product`, G x_0 (A^T k) x_1 U_1 ... x_p U_p.

Every fit takes its input side from one decomposition of the fit rows' Gram,
X X^T (or K) = Q diag(lam) Q^T (thin SVD of X, or eigh(K) clipped at 0), in
which the pencil is a symmetric eigenproblem and the ridge inverse is
1 / (lam + gamma), set to 0 where lam + gamma <= 1e-12 max(lam): the one
pseudo-inverse rule, relative to scale, behind the "pseudo-inverse pencil,
restricting to its range" warning of a singular input Gram.  One function,
`_statistics`, reads Y, and the path of fits runs on what it forms: the
output-mode Grams, the input pencil and the products a Q^T Y_(0) for the
core.  It reads Y only by GEMMs on its own memory: the mode Grams
Y_(i) Y_(i)^T come from strided views of it, and when Q is square (every
kernel fit, and X with d0 >= N) and the outputs are at least as wide as N,
the pencil runs through the mode-0 Gram, D Q^T (Y_(0) Y_(0)^T) Q D, so the
N x D product Q^T Y_(0) is never formed.

Y may also be a `tensor.DtenColumns`, the DTEN file CLI `fit` reads in
pieces (`_streamed`): each statistic is a sum over runs of the file, read
into two buffers of half `tensor._IO_CHUNK` each, so the fit holds those
buffers and the statistics, never Y.  One pass reads blocks of whole
columns of Y_(0), whole slabs of the leading modes, checks each finite and
forms Z (after a thin SVD), G_0 and those modes' Grams from it; each other
cut mode (the last, unless Y fits in one block) takes a strided pass over
its slabs.  A Y that fits in one block gets the in-memory bits; a larger
one sums in another order, and may differ in the last bits.  When BLAS
runs one thread, a pass on the calling thread reads the file's next block
on a reader thread while it uses the current one; the reader copies bytes
only, and ends with its pass.

A large fit with a square Q can run on two threads, which split its work
and not its BLAS calls: the Grams of Y need no Q, so one helper thread
(`_helper`, opened and joined inside the fit) forms the output-mode Grams,
and G_0 when the pencil goes through it, while the calling thread
decomposes the inputs (eigh(K), or the SVD of X with d0 >= N).  The
calling thread then joins the helper and forms everything that needs Q
(the pencil, Z = Q^T Y_(0) and the rows of the core) and runs every
eigenproblem of the path.  The helper starts only where it pays
(`_overlaps`): when numpy's OpenBLAS runs one thread, so that the two
threads do not ask for the same cores twice, and when the Grams and the
decomposition are each large enough to outweigh the thread's start.  Every
other fit (a thin SVD of X, d0 < N, among them) forms the Grams on the
calling thread after the decomposition, with no thread started.  The
helper runs private functions, numpy and a `DtenColumns`' reads only;
each statistic is the same calls on the same operands on either thread,
so the bits do not depend on the helper.

A batch prediction is one loop (`predict_blocks`): B = X U_0 (K_x A for a
kernel model) and C_(0) = matricize(G x_1 U_1 ... x_p U_p, 0) are formed
once, and the n x D prediction Y_(0) comes out in column blocks of about
1 MiB, one GEMM B C_(0)[:, cols] each.  `holrr_predict_batch` writes the
blocks into one column-major array; the CLI streams them to its file and
sums the training error with no n x D prediction formed.  Every array a
model holds is column-major, as its file stores it (`_column_major`, run
when a model is constructed), so a fitted model predicts the bits of its
own file.

The flat baselines are rank presets of the same fit on vectorized outputs:
`rls_fit` (ridge) is `holrr_fit` at full rank (d0, D), and the kernel
baselines krls and klrr are `kholrr_fit` at (N, D) and (R, D) (through
`harness.fit_method`).  A mode at full rank keeps no factor (None in
`TuckerFactors`: the identity, never stored or multiplied).  `lrr_fit`
(ridge followed by a rank-R projection of the vectorized outputs, both from
one thin SVD of X) keeps its own D x D eigenproblem: it is the fit-time
baseline.  The CV path (`path_predict`) is the fit itself at many
(gamma, ranks) points, which share the decomposition, the Grams and their
eigenvectors: selection streams one path per split and input side over the
union of its methods' presets (`harness._select`).
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import json
import math
import operator
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.linalg import blas

from . import linalg, tensor
from .tensor import (
    DtenColumns,
    TuckerFactors,
    _opened,
    _read_line_bytes,
    _sign_flips,
    matricize,
    mode_product,
    multi_mode_product,
    read_dten,
    tucker_reconstruct,
    write_dten,
)

__all__ = [
    "KernelSpec",
    "RegressionProblem",
    "HolrrModel",
    "rls_fit",
    "lrr_fit",
    "holrr_fit",
    "holrr_predict",
    "holrr_predict_batch",
    "predict_blocks",
    "gram",
    "kernel_cross",
    "path_predict",
    "kholrr_fit",
    "kholrr_predict",
    "kholrr_predict_batch",
    "save_model",
    "load_model",
]

MODEL_MAGIC = "HOLRR"
MODEL_VERSION = 3
# longest JSON header line of a model file, without its newline; far above
# what `save_model` writes: 529 bytes for 9 output modes, every rank clamped
# and the singular-Gram note
_MODEL_LINE = 1 << 16

_KERNEL_KINDS = ("linear", "rbf", "polynomial")

# bytes of a batch of slab Grams (`_axis_gram`) and of a block `_all_finite` checks
_BATCH_BYTES = 1 << 18
# bytes of a column block of a prediction (`predict_blocks`)
_PREDICT_BYTES = 1 << 20
# least work, in flops, of each side of a fit for the helper thread to pay
# (`_overlaps`): below it, starting the thread and handing the GIL between
# the two costs more than the overlap saves
_OVERLAP_FLOPS = 1e7

@dataclass
class KernelSpec:
    """Kernel description: linear x.y, rbf exp(-||x-y||^2 / (2 sigma^2)),
    polynomial (x.y + offset)^degree."""

    kind: str = "linear"
    sigma: float = 1.0
    degree: int = 2
    offset: float = 1.0

    def __post_init__(self):
        if self.kind == "poly":
            self.kind = "polynomial"
        if self.kind not in _KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        self.sigma = float(self.sigma)
        self.degree = int(self.degree)
        self.offset = float(self.offset)
        # else k(x, x) = exp(-0/0), or sigma**2 overflows
        if self.kind == "rbf" and not (self.sigma > 0 and 0 < 2.0 * (self.sigma * self.sigma) < np.inf):
            raise ValueError(f"rbf bandwidth must be positive, with 2 sigma^2 > 0 and finite in floating point: got {self.sigma!r}")
        if self.kind == "polynomial" and self.degree < 1:
            raise ValueError("polynomial degree must be >= 1")
        if self.kind == "polynomial" and not 0 <= self.offset < np.inf:
            raise ValueError("polynomial offset must be finite and >= 0")

    @staticmethod
    def from_string(text: str) -> "KernelSpec":
        """Parse CLI syntax: linear | rbf:sigma | poly:degree[,offset]."""
        head, _, rest = text.strip().partition(":")
        head = head.lower()
        try:
            if head == "linear":
                if rest:
                    raise ValueError("linear kernel takes no parameters")
                return KernelSpec(kind="linear")
            if head == "rbf":
                return KernelSpec(kind="rbf", sigma=float(rest))
            if head in ("poly", "polynomial"):
                parts = rest.split(",")
                if len(parts) == 1:
                    return KernelSpec(kind="polynomial", degree=int(parts[0]))
                if len(parts) == 2:
                    return KernelSpec(
                        kind="polynomial", degree=int(parts[0]), offset=float(parts[1])
                    )
                raise ValueError("polynomial kernel takes degree[,offset]")
        except ValueError as e:
            raise ValueError(f"bad kernel spec {text!r}: {e}") from None
        raise ValueError(f"bad kernel spec {text!r}")

    def to_dict(self) -> dict:
        return asdict(self)


def _cross(kernel: KernelSpec, xa, xb, na=None, nb=None) -> np.ndarray:
    """`kernel_cross`, with `na`/`nb` the squared row norms of xa/xb where a
    caller keeps them: rows that come with their norms are known finite."""
    xa = np.asarray(xa, dtype=np.float64)
    xb = np.asarray(xb, dtype=np.float64)
    if xa.ndim != 2 or xb.ndim != 2 or xa.shape[1] != xb.shape[1]:
        raise ValueError(f"incompatible input shapes {xa.shape} and {xb.shape}")
    if not ((na is not None or np.isfinite(xa).all()) and (nb is not None or np.isfinite(xb).all())):
        raise ValueError("kernel inputs must be finite")
    dots = xa @ xb.T
    if kernel.kind == "linear":
        return dots
    if kernel.kind == "polynomial":
        with np.errstate(over="ignore"):
            k = (dots + kernel.offset) ** kernel.degree
        if not _all_finite(k):
            raise ValueError(f"polynomial kernel (degree {kernel.degree}, offset {kernel.offset}) overflows on these inputs")
        return k
    sq = (_row_norms(xa) if na is None else na)[:, None] + (_row_norms(xb) if nb is None else nb)[None, :] - 2.0 * dots
    np.clip(sq, 0.0, None, out=sq)
    return np.exp(-sq / (2.0 * kernel.sigma**2))


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Squared row norms, summed on C-ordered rows: every layout of the same
    rows gives the same bits."""
    x = np.ascontiguousarray(x)
    return np.sum(x * x, axis=1)


def kernel_cross(kernel: KernelSpec, xa, xb) -> np.ndarray:
    """Matrix of k(xa_i, xb_j), shape (len(xa), len(xb))."""
    return _cross(kernel, xa, xb)


def gram(x, kernel: KernelSpec) -> np.ndarray:
    """Training Gram matrix, symmetrized, from C-ordered rows."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    g = kernel_cross(kernel, x, x)
    return (g + g.T) / 2.0


def _check_gamma(gamma) -> float:
    gamma = float(gamma)
    if not (np.isfinite(gamma) and gamma >= 0):
        raise ValueError("gamma must be finite and >= 0")
    return gamma


def _input_side(x=None, k=None):
    """(q, lam, m, s) with the fit rows' Gram X X^T (or K) = q diag(lam) q^T,
    from the thin SVD X = q diag(sqrt(lam)) m^T (s = 1) or eigh(K) clipped at
    0 (m = q, s = lam^-1/2 taken as 0 where lam <= 1e-12 max(lam)).  The
    factor-0 map M = m diag(s) takes coefficients on q to input space.  K is
    decomposed as it is when exactly symmetric (as `gram` makes it), else
    as (K + K^T) / 2."""
    if k is None:
        q, sv, vt = np.linalg.svd(x, full_matrices=False)
        return q, sv * sv, vt.T, np.ones(sv.size)
    lam, q = np.linalg.eigh(k if np.array_equal(k, k.T) else (k + k.T) / 2.0)
    lam = np.clip(lam, 0.0, None)
    return q, lam, q, np.sqrt(_ridge_inverse(lam, 0.0))


def _ridge_inverse(lam: np.ndarray, gamma: float) -> np.ndarray:
    """1 / (lam + gamma), and 0 where lam + gamma <= 1e-12 max(lam): the one
    pseudo-inverse rule of every fit."""
    denom = lam + gamma
    keep = denom > 1e-12 * lam.max()
    return np.where(keep, 1.0 / np.where(keep, denom, 1.0), 0.0)


@dataclass
class RegressionProblem:
    """Training data plus target multilinear rank (R0..Rp) and ridge gamma.
    y is an array, or a `DtenColumns` of its DTEN file, which the fit reads
    in pieces and checks finite as it reads them."""

    x: np.ndarray
    y: np.ndarray
    ranks: tuple
    gamma: float = 1e-3

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        streamed = isinstance(self.y, DtenColumns)
        if not streamed:
            self.y = np.asarray(self.y, dtype=np.float64)
        self.ranks = tuple(int(r) for r in self.ranks)
        self.gamma = _check_gamma(self.gamma)
        if self.x.ndim != 2:
            raise ValueError("x must be a matrix of input rows")
        if self.y.ndim < 2:
            raise ValueError("y must stack at least order-1 outputs")
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"{self.x.shape[0]} input rows but {self.y.shape[0]} output slices"
            )
        if len(self.ranks) != self.y.ndim:
            raise ValueError(
                f"need {self.y.ndim} ranks (input mode plus output modes), got {len(self.ranks)}"
            )
        if any(r < 1 for r in self.ranks):
            raise ValueError("ranks must be >= 1")
        if not (_all_finite(self.x) and (streamed or _all_finite(self.y))):
            raise ValueError("training data must be finite")


def _all_finite(a: np.ndarray) -> bool:
    """np.isfinite(a).all(), checked `_BATCH_BYTES` / 8 entries at a time."""
    blocks = np.nditer(a, flags=["external_loop", "buffered", "zerosize_ok"], buffersize=_BATCH_BYTES // 8)
    return all(np.isfinite(block).all() for block in blocks)


def _column_major(model) -> None:
    """Make the model's core, factors and kernel training rows column-major, as
    `load_model` gives them, so fitted and loaded models predict the same bits."""
    tf = model.factors
    model.factors = replace(tf, core=np.asfortranarray(tf.core), factors=[u if u is None else np.asfortranarray(u) for u in tf.factors])
    if model.kernel is not None:
        model.train_inputs = np.asfortranarray(model.train_inputs)


@dataclass
class HolrrModel:
    """Fitted coefficient tensor in Tucker form; factors[0] is the input side
    (None, the identity, at full rank).  A kernel model (`kernel` set) maps
    each input row to its kernel vector against `train_inputs` first: its
    factors hold the dual coefficient tensor C, factors[0] the dual basis A
    (N x R0), and `dual_values` the pencil values of A's columns."""

    factors: TuckerFactors
    gamma: float
    warnings: tuple = ()
    kernel: KernelSpec = None
    train_inputs: np.ndarray = None
    dual_values: np.ndarray = field(default_factory=lambda: np.zeros(0))
    _train_terms: tuple = field(default=(None, None), init=False, repr=False, compare=False)
    __post_init__ = _column_major

    @property
    def ranks(self) -> tuple:
        """The multilinear rank (R0..Rp): the core's shape."""
        return self.factors.ranks

    @property
    def dual_vectors(self) -> np.ndarray:
        """A kernel model's dual basis A: the pencil's dual eigenvectors (None at full rank)."""
        return self.factors.factors[0]

    def coefficients(self) -> np.ndarray:
        """Materialize the full coefficient tensor W (C for a kernel model)."""
        return tucker_reconstruct(self.factors)

    def predict(self, x) -> np.ndarray:
        """Stacked predictions for a matrix of input rows."""
        return holrr_predict_batch(self, x)


def _contiguous(y: np.ndarray) -> np.ndarray:
    """`y` itself when it is column-major or C-ordered, else a column-major copy."""
    return y if y.flags.f_contiguous or y.flags.c_contiguous else np.asfortranarray(y)


def _times_rows(a: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """a @ y0 laid out like y0, so that it folds back like Y without a copy."""
    return (y0.T @ a.T).T if y0.flags.f_contiguous else a @ y0


def _axis_gram(v: np.ndarray) -> np.ndarray:
    """Gram of axis 1 of a column-major (L, d, T) view v: S S^T for L = 1,
    s^T s for T = 1 (one slab s = (L, d)), else the sum of s^T s over the T
    slabs, taken `_BATCH_BYTES` of slab Grams at a time."""
    d = v.shape[1]
    if v.shape[0] == 1:
        return v[0] @ v[0].T
    if v.shape[2] == 1:
        return v[:, :, 0].T @ v[:, :, 0]
    slabs = v.transpose(2, 0, 1)
    step = max(1, _BATCH_BYTES // (8 * d * d))
    g = np.zeros((d, d))
    for a in range(0, slabs.shape[0], step):
        b = slabs[a : a + step]
        g += (b.transpose(0, 2, 1) @ b).sum(axis=0)
    return g


def _mode_grams(y, cut) -> list:
    """The mode Grams G_i = Y_(i) Y_(i)^T, i = 0..p (None where `cut` is
    False), each from GEMMs on strided views of Y's own memory: no unfolding
    is copied.  A C-ordered Y is read as the column-major y.T, its modes
    reversed; any other layout is made column-major once.  A `DtenColumns`
    Y is read from its file (`_streamed`)."""
    if isinstance(y, DtenColumns):  # beside the decomposition, which has the other core: no reader thread
        return _streamed(y, cut, ahead=False)[0]
    grams = [None] * y.ndim
    if any(cut):
        y = _contiguous(y)
        t, modes = (y, range(y.ndim)) if y.flags.f_contiguous else (y.T, range(y.ndim - 1, -1, -1))
        for j, i in enumerate(modes):
            if cut[i]:
                grams[i] = _axis_gram(t.reshape(math.prod(t.shape[:j]), t.shape[j], -1, order="F"))
    return grams


def _streamed(y: DtenColumns, cut, a=None, ahead=True) -> tuple:
    """(grams, product): the mode Grams of `_mode_grams`' `cut` and, with
    `a`, a @ Y_(0) (column-major), of a Y read from its file in reads of
    half `tensor._IO_CHUNK` bytes (`DtenColumns.reads`, each read ahead on
    a reader thread with `ahead` when BLAS runs one thread).

    One pass reads Y_(0) in blocks of whole columns, checks each finite and
    adds its part to the product and to G_0.  A block's width is a multiple
    of the columns one (L_i, d_i) slab of mode i spans, for every leading
    mode i whose slab fits in one read (all but the last mode when one slab
    of the last mode fits), so those modes' Grams come from the same blocks
    (`_axis_gram`).  Each other cut mode takes a strided pass of its own:
    the Gram of each of its slabs sums p^T p over row ranges p of the slab,
    each range read as d_i runs.  A Y that fits in one read is one block,
    and gets the bits of the in-memory statistics."""
    shape = y.shape
    n, entries = shape[0], max(1, tensor._IO_CHUNK // 16)  # two reads in flight, half the chunk each
    ahead = ahead and _blas_threads() == 1  # as for `_overlaps`: a multi-threaded BLAS has no core to spare
    cols = [1, *itertools.accumulate(shape[1:], operator.mul)]  # columns of Y_(0) per slab of mode i
    rows = [1, *(n * c for c in cols[:-1])]  # the L of mode i's (L, d_i, T) view
    wide = max(1, entries // n)
    last = max(i for i, c in enumerate(cols) if c <= wide)  # the modes each block holds whole slabs of
    width = min(cols[-1], wide // cols[last] * cols[last])
    grams = [None] * len(shape)
    product = None if a is None else np.empty((cols[-1], len(a))).T
    # G_0 of several blocks sums in BLAS's own accumulator (its upper
    # triangle, mirrored at the end): no N x N product per block to add
    summed = cut[0] and width < cols[-1]
    if summed:
        grams[0] = np.zeros((n, n), order="F")
    if a is not None or any(cut):
        for c0, block in y.columns(width, ahead):
            if not _all_finite(block):
                raise ValueError("training data must be finite")
            if a is not None:
                np.matmul(block.T, a.T, out=product.T[c0 : c0 + block.shape[1]])
            if summed:
                grams[0] = blas.dsyrk(1.0, block, beta=1.0, c=grams[0], overwrite_c=1)
            for i in range(summed, last + 1):
                if cut[i]:
                    g = _axis_gram(block.reshape(rows[i], shape[i], -1, order="F"))
                    grams[i] = g if grams[i] is None else np.add(grams[i], g, out=grams[i])
    if summed:
        for j in range(n - 1):
            grams[0][j + 1 :, j] = grams[0][j, j + 1 :]
    for i in range(last + 1, len(shape)):
        if cut[i]:
            d, length = shape[i], rows[i]
            step = max(1, entries // d)
            ranges = [(slab * length * d + r, min(step, length - r)) for slab in range(cols[-1] // cols[i])
                      for r in range(0, length, step)]
            for p in y.reads(((size, d, start, length) for start, size in ranges), ahead):
                grams[i] = p.T @ p if grams[i] is None else np.add(grams[i], p.T @ p, out=grams[i])
    return grams, product


def _pencil_via_g0(n: int, width: int) -> bool:
    """Whether a square q's pencil D q^T Y_(0) Y_(0)^T q D goes through the
    mode-0 Gram G_0 (0.5 N^2 D + 2 N^3 flops, no N x D array) rather than
    Z = q^T Y_(0) (1.5 N^2 D flops): when D >= N, where Z would be larger
    than one N x N array and no cheaper."""
    return width >= n


def _orthonormalize(a: np.ndarray):
    """(u, t) with u t = a: u the Q of the QR of a's sign-fixed columns,
    flipped so that diag(t) >= 0."""
    f = _sign_flips(a)
    q, r = np.linalg.qr(a * f)
    flip = np.sign(np.diag(r))
    flip[flip == 0] = 1.0
    return q * flip, flip[:, None] * r * f


def _unit_columns(a: np.ndarray):
    """(u, t) with u t = a: u a's columns at unit norm and sign-fixed."""
    norms = np.linalg.norm(a, axis=0)
    scale = np.where(norms > 1e-300, norms, 1.0)
    f = _sign_flips(a / scale)
    return a / scale * f, np.diag(scale * f)


def _helper() -> ThreadPoolExecutor:
    """The one helper thread of a fit, for a `with` block around the work it
    runs beside the calling thread."""
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="tensorreg-statistics")


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


def _overlaps(shape, cut, width) -> bool:
    """Whether a fit forms the Grams of Y (of `shape`, those `cut` as in
    `_mode_grams`) on the helper thread while this thread decomposes its
    N x width input side (K, or X with d0 = width >= N).  Only when BLAS
    runs one thread, so that each thread has a core to itself, and when
    each side is worth `_OVERLAP_FLOPS`: the Grams N D d_i flops per cut
    mode (N for G_0), the decomposition 10 N^2 width, as eigh and the SVD
    run about 10x slower per N^2 width than the Grams' GEMMs for N of a
    few hundred."""
    n, size = shape[0], math.prod(shape)
    grams = size * sum(d for d, c in zip(shape, cut) if c)
    return min(grams, 10 * n * n * width) >= _OVERLAP_FLOPS and _blas_threads() == 1


def _statistics(y, inputs, cuts, wide):
    """(side, rows, pencil, grams): the decomposition side =
    `_input_side(*inputs)` and the statistics of Y that the path of fits runs
    on, and the one reader of Y.  grams holds the output-mode Grams
    Y_(i) Y_(i)^T, i = 1..p, None where cuts[i - 1] is 0; pencil is
    q^T Y_(0) Y_(0)^T q, or None unless `wide` (some point keeps a factor 0);
    rows(a) is a q^T Y_(0) folded to (len(a), d1..dp).  Y_(0) is a view of Y,
    its columns in Y's memory order, or for a `DtenColumns` Y the columns of
    its file, read in pieces (`_streamed`).  When q is square (a Gram K, or X
    with d0 >= N) and `_pencil_via_g0`, the pencil is q^T G_0 q from the
    mode-0 Gram and rows(a) is (a q^T) Y_(0), so Z = q^T Y_(0) is never
    formed; else Z is formed once.  The Grams need no q: when q is square and
    `_overlaps`, the helper thread (`_helper`) forms them while this thread
    decomposes the inputs, and is joined before the first product with q;
    otherwise this thread forms them after the decomposition, for a thin q
    from a file in the pass that forms Z.  A file is read once for the Grams
    (one strided pass more for each mode whose slab exceeds a read, the
    last mode among them), once for Z and once per rows(a) on the G_0
    route."""
    x, k = inputs
    n, width = y.shape[0], math.prod(y.shape[1:])
    square = k is not None or x.shape[1] >= x.shape[0]
    via_g0 = square and _pencil_via_g0(n, width)
    cut = [via_g0 and wide, *cuts]
    streamed = isinstance(y, DtenColumns)
    if streamed:
        order = "F"

        def times(a):  # a @ Y_(0), column-major
            return _streamed(y, [False] * len(cut), a)[1]
    else:
        y = _contiguous(y)
        order = "F" if y.flags.f_contiguous else "C"
        times = functools.partial(_times_rows, y0=y.reshape(n, -1, order=order))
    z = None
    if square and _overlaps(y.shape, cut, x.shape[1] if k is None else k.shape[0]):
        with _helper() as pool:
            formed = pool.submit(_mode_grams, y, cut)
            side = _input_side(x, k)
            g0, *grams = formed.result()
        del formed  # its result holds G_0, which the pencil replaces below
    else:
        side = _input_side(x, k)
        if streamed and not square:  # Z comes in the pass over the file that forms the Grams
            (g0, *grams), z = _streamed(y, cut, side[0].T)
        else:
            g0, *grams = _mode_grams(y, cut)
    q = side[0]
    if z is None and not via_g0:
        z = times(q.T)
    pencil = None
    if wide and via_g0:
        pencil = q.T @ g0
        del g0  # q^T G_0 replaces it before the second product
        pencil = pencil @ q
    elif wide:
        pencil = z @ z.T

    def rows(a):
        r = times(a @ q.T) if via_g0 else _times_rows(a, z)
        return r.reshape((len(a), *y.shape[1:]), order=order)

    return side, rows, pencil, grams


def _tucker_path(y, inputs, gammas, rank_tuples, normalize=None):
    """(side, points): the one fit behind every method at each point of
    gammas x rank_tuples, from side = `_input_side(*inputs)`, whose m has
    dim rows (d0, or N), and the statistics of Y (`_statistics`), its only
    reader of Y; both are formed before this returns.  points yields
    ((gamma, ranks), TuckerFactors, pencil values, notes) per point; factor 0
    is M c, or with `normalize` u0 of (u0, t) = normalize(M c), t applied to
    mode 0 of the core.  The clamped ranks are the core's shape.

    With Z = q^T Y_(0), inv = `_ridge_inverse` and D = sqrt(lam inv), R0 >=
    dim keeps no factor 0 and the core is the ridge solution
    M diag(sqrt(lam) inv) Z.  A smaller R0 (clamped to the directions inv
    keeps) takes the top-R0 eigenvectors w of D Z Z^T D: c = sqrt(inv) w has
    c^T diag(lam + gamma) c = I, so the projected ridge solve is the identity
    and the core is w^T D Z.  Ri < di projects the core on the top-Ri
    eigenvectors of the mode Gram.  Rank clamps and a singular input Gram are
    noted, not warned.  Every point takes prefixes of shared eigenvectors:
    each mode Gram's up to the largest Ri cut, and per gamma the pencil's up
    to the largest R0; the last gamma scales the pencil in place.
    """
    x, k = inputs
    dims, dim = y.shape[1:], (x.shape[1] if k is None else k.shape[0])
    wide = any(r[0] < dim for r in rank_tuples)  # some point keeps a factor 0
    cuts = [max((r[i] for r in rank_tuples if r[i] < d), default=0) for i, d in enumerate(dims, start=1)]
    side, rows, pencil, grams = _statistics(y, inputs, cuts, wide)
    q, lam, m, s = side
    out = [None if g is None else linalg.sym_eig_top(g, c, check=False)[1] for g, c in zip(grams, cuts)]
    del grams

    def points():
        for i, gamma in enumerate(gammas):
            inv = _ridge_inverse(np.append(lam, np.zeros(dim - lam.size)), gamma)
            singular = not inv.all()
            kept = max(1, int(np.count_nonzero(inv[: lam.size])))
            inv = inv[: lam.size]
            d = np.sqrt(lam * inv)
            full = rows(m * (s * np.sqrt(lam) * inv)) if any(r[0] >= dim for r in rank_tuples) else None
            top = max((min(r[0], kept) for r in rank_tuples if r[0] < dim), default=0)
            if top:
                if i == len(gammas) - 1:  # the last gamma scales the pencil in place
                    np.multiply(pencil, d[:, None], out=pencil)
                    np.multiply(pencil, d, out=pencil)
                    vals, vecs = linalg.sym_eig_top(pencil, top, check=False)
                else:
                    vals, vecs = linalg.sym_eig_top(d[:, None] * pencil * d, top, check=False)
                head = rows(vecs.T * d)
            for ranks in rank_tuples:
                limits = (dim if ranks[0] >= dim else kept, *dims)
                noted = [f"rank {r} clamped to {c} at mode {i}" for i, (r, c) in enumerate(zip(ranks, limits)) if r > c]
                r0, *out_ranks = map(min, ranks, limits)
                if singular:
                    noted.append("input gram singular at this gamma; using the pseudo-inverse pencil, restricting to its range")
                if r0 == dim:
                    u0, values, core = None, np.zeros(0), full
                else:
                    w = vecs[:, :r0]
                    u0, values, core = m @ (s[:, None] * (np.sqrt(inv)[:, None] * w)), vals[:r0], head[:r0]
                factors = [None if r == di else u[:, :r] for u, r, di in zip(out, out_ranks, dims)]
                core = multi_mode_product(core, [None if u is None else u.T for u in factors], range(1, y.ndim))
                if normalize is not None and u0 is not None:
                    u0, t = normalize(u0)
                    core = mode_product(core, t, 0)
                yield (gamma, ranks), TuckerFactors(core=core, factors=[u0, *factors]), values, noted

    return side, points()


def _tucker_fit(y, ranks, gamma: float, inputs, normalize=_orthonormalize):
    """(factors, values, notes, side): `_tucker_path` at one point, factor 0
    made by `normalize`; each note is also warned."""
    side, points = _tucker_path(y, inputs, [gamma], [ranks], normalize)
    _, tf, values, noted = next(points)
    for msg in noted:
        warnings.warn(msg, stacklevel=3)
    return tf, values, noted, side


def holrr_fit(prob: RegressionProblem) -> HolrrModel:
    """Closed-form multilinear-rank-constrained ridge fit (`_tucker_fit`)
    from the thin SVD of X; factor 0 is orthonormal.

    Directions where X^T X + gamma I is at or below 1e-12 of the top
    eigenvalue of X^T X (gamma = 0 with rank-deficient X) are dropped with
    the "pseudo-inverse pencil" warning.  Ranks are clamped to feasible
    values (R0 >= d0 to d0, R0 < d0 to the directions kept; Ri <= di) with a
    warning recorded on the model.
    """
    tf, _, noted, _ = _tucker_fit(prob.y, prob.ranks, prob.gamma, (prob.x, None))
    return HolrrModel(factors=tf, gamma=prob.gamma, warnings=tuple(noted))


def holrr_predict(model: HolrrModel, x) -> np.ndarray:
    """Predict the output tensor for a single input row."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("holrr_predict expects a single input vector")
    if model.kernel is not None:
        x = _cross(model.kernel, model.train_inputs, x[None, :], _train_norms(model))[:, 0]
    u0, *rest = model.factors.factors
    if x.shape[0] != model.factors.shape[0]:
        raise ValueError(f"input has length {x.shape[0]}, model expects {model.factors.shape[0]}")
    if model.kernel is None and not np.isfinite(x).all():
        raise ValueError("input rows must be finite")
    return multi_mode_product(model.factors.core, [(x if u0 is None else u0.T @ x)[None, :], *rest])[0]


def _block_width(n: int) -> int:
    """Columns of each block of an n-row prediction: about `_PREDICT_BYTES`."""
    return max(1, _PREDICT_BYTES // (8 * max(1, n)))


def predict_blocks(model: HolrrModel, x) -> tuple:
    """(shape, blocks): the one block loop behind every batch prediction of
    input rows x.  The rows are checked (shape, and finite for every model),
    and the kernel rows (for a kernel model), B = rows U_0 and
    C_(0) = matricize(core x_1 U_1 ... x_p U_p, 0) formed, before this
    returns, so a bad x fails before the first block.
    blocks(out) yields the n x D prediction Y_(0) in column blocks of about
    `_PREDICT_BYTES`, each one GEMM B C_(0)[:, cols] into a column-major
    block: `out[:, cols]` of a column-major n x D `out`, or without `out` one
    reused buffer, each block valid until the next."""
    rows = np.ascontiguousarray(x, dtype=np.float64)  # C-ordered: the GEMMs round alike for every layout
    if model.kernel is not None:
        rows = _cross(model.kernel, rows, model.train_inputs, nb=_train_norms(model))
    if rows.ndim != 2:
        raise ValueError("expected a matrix of input rows")
    if rows.shape[1] != model.factors.shape[0]:
        raise ValueError(f"input has {rows.shape[1]} columns, model expects {model.factors.shape[0]}")
    if model.kernel is None and not _all_finite(rows):
        raise ValueError("input rows must be finite")
    u0, *rest = model.factors.factors
    b = rows if u0 is None else rows @ u0
    c = multi_mode_product(model.factors.core, rest, range(1, len(rest) + 1))
    c0 = matricize(c, 0)
    n, width = b.shape[0], c0.shape[1]
    step = _block_width(n)

    def blocks(out=None):
        buf = np.empty((n, min(step, width)), order="F") if out is None else None
        for a in range(0, width, step):
            w = min(step, width - a)
            yield np.matmul(b, c0[:, a : a + w], out=buf[:, :w] if out is None else out[:, a : a + w])

    return (n, *c.shape[1:]), blocks


def holrr_predict_batch(model: HolrrModel, x) -> np.ndarray:
    """Stacked predictions for a matrix of input rows, written block by block
    into one column-major array."""
    shape, blocks = predict_blocks(model, x)
    out = np.empty(shape, order="F")
    for _ in blocks(out.reshape(shape[0], -1, order="F")):
        pass
    return out


def _ridge(x, y_flat, gamma: float) -> tuple:
    """(W_RLS, Y, side): `holrr_fit` at full rank (d0, D) on vectorized
    outputs, with the thin SVD of X (`_input_side`) it is fitted from."""
    if np.ndim(y_flat) != 2:
        raise ValueError("y_flat must be a matrix of vectorized outputs")
    prob = RegressionProblem(x, y_flat, (*np.shape(x)[1:2], np.shape(y_flat)[1]), gamma)
    tf, _, _, side = _tucker_fit(prob.y, prob.ranks, prob.gamma, (prob.x, None))
    return HolrrModel(tf, prob.gamma).coefficients(), prob.y, side


def rls_fit(x, y_flat, gamma: float) -> np.ndarray:
    """Ridge solution (X^T X + gamma I)^-1 X^T Y: the coefficients of
    `holrr_fit` at full rank (d0, D).  At gamma = 0 with X^T X singular it is
    the minimum-norm least-squares solution, with the pseudo-inverse warning.
    """
    return _ridge(x, y_flat, gamma)[0]


def _flat_rank(rank: int, width: int) -> tuple:
    """(rank, notes): a flat baseline's rank clamped to [1, width], the
    vectorized output dimension, each clamp noted."""
    if rank < 1:
        return 1, [f"rank {rank} clamped to 1"]
    if rank > width:
        return width, [f"rank {rank} clamped to output dimension {width}"]
    return rank, []


def lrr_fit(x, y_flat, rank: int, gamma: float) -> np.ndarray:
    """Rank-constrained ridge on vectorized outputs.

    W = W_RLS V V^T with V the top-`rank` eigenvectors of Y^T P Y, P the ridge
    hat matrix of X; W_RLS and P come from one thin SVD of X.  `rank` is
    clamped to [1, D] with a warning; at D it returns W_RLS, bitwise
    `rls_fit`'s.
    """
    w_rls, y, (q, lam, _, _) = _ridge(x, y_flat, gamma)
    width = w_rls.shape[1]
    rank, notes = _flat_rank(rank, width)
    for msg in notes:
        warnings.warn(msg, stacklevel=2)
    if rank == width:
        return w_rls
    # Y^T P Y for the ridge hat matrix P = q diag(lam inv) q^T
    e = np.sqrt(lam * _ridge_inverse(lam, gamma))[:, None] * (q.T @ y)
    v = linalg.sym_eig_top(e.T @ e, rank, check=False)[1]
    return w_rls @ v @ v.T


def path_predict(x_fit, y_fit, x_val, gammas, rank_tuples, kernel: KernelSpec = None):
    """Validation predictions of holrr_fit (kholrr_fit when `kernel` is given)
    at every (gamma, ranks) point: `_tucker_path` over one decomposition of
    the fit rows, each point predicted on X_val (or K_val).

    The decomposition (and K_val) is made before this returns; the generator
    returned yields ((gamma, ranks), prediction (n_val, d1..dp)) one point at
    a time, as the path reaches it.  Ranks must be >= 1.
    """
    x_fit = np.asarray(x_fit, dtype=np.float64)
    x_val = np.asarray(x_val, dtype=np.float64)
    if kernel is None:
        inputs, rows = (x_fit, None), x_val
    else:
        inputs, rows = (None, gram(x_fit, kernel)), kernel_cross(kernel, x_val, x_fit)
    _, path = _tucker_path(np.asarray(y_fit, dtype=np.float64), inputs, gammas, [tuple(r) for r in rank_tuples])
    return ((point, holrr_predict_batch(HolrrModel(tf, point[0]), rows)) for point, tf, _, _ in path)


def kholrr_fit(k, y, ranks, gamma: float, train_inputs, kernel: KernelSpec) -> HolrrModel:
    """Dual multilinear-rank-constrained ridge fit from a Gram matrix.

    The same fit (`_tucker_fit`) as holrr_fit with eigh(K) = Q diag(lam) Q^T
    in place of the SVD of X: the pencil coefficients c map to the dual basis
    A = Q diag(lam^-1/2) c with unit columns (lam^-1/2 taken as 0 where lam
    is at or below 1e-12 max(lam)), and the dual coefficient tensor is

        C = G x_0 A x_1 U_1 ... x_p U_p.

    C is never materialized: the model keeps G, A and the U_i.  The dual
    eigenpairs (pencil values and the columns of A) are kept on the model;
    their feature-space transport X^T A recovers the primal pencil
    directions.  R0 >= N keeps no A: G is then the dual ridge solution
    Q diag(P inv) Q^T Y, P the directions lam^-1/2 keeps.  A singular
    K + gamma I warns "pseudo-inverse pencil, restricting to its range", and
    a smaller R0 is clamped to the directions kept, like holrr_fit's.
    """
    k = np.asarray(k, dtype=np.float64)
    train_inputs = np.asarray(train_inputs, dtype=np.float64)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError("gram matrix must be square")
    if train_inputs.shape[0] != k.shape[0]:
        raise ValueError("train_inputs row count must match the gram matrix")
    prob = RegressionProblem(x=train_inputs, y=y, ranks=ranks, gamma=gamma)
    tf, values, noted, _ = _tucker_fit(prob.y, prob.ranks, prob.gamma, (None, k), _unit_columns)
    return HolrrModel(tf, prob.gamma, tuple(noted), kernel, train_inputs, values)


def _train_norms(model: HolrrModel) -> np.ndarray:
    """Squared row norms of a kernel model's training rows, which are checked
    finite: computed once per `train_inputs` object (reassigning recomputes)."""
    if model._train_terms[0] is not model.train_inputs:
        x = np.asarray(model.train_inputs, dtype=np.float64)
        if not np.isfinite(x).all():
            raise ValueError("kernel inputs must be finite")
        model._train_terms = (model.train_inputs, _row_norms(x))
    return model._train_terms[1]


def kholrr_predict(model: HolrrModel, x) -> np.ndarray:
    """`holrr_predict` of a single input vector, under its kernel name."""
    if np.ndim(x) != 1:
        raise ValueError("kholrr_predict expects a single input vector")
    return holrr_predict(model, x)


def kholrr_predict_batch(model: HolrrModel, x) -> np.ndarray:
    """`holrr_predict_batch` of a matrix of input rows, under its kernel name."""
    return holrr_predict_batch(model, x)


# ---------------------------------------------------------------------------
# model files


def _json_line(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")


def _layout(model) -> tuple:
    """(header line, blocks) of a model file, all but its magic line: the one
    description of the layout, which `save_model` writes and `load_model`
    checks.  Each block is the model's own memory."""
    blocks = {"core": model.factors.core}
    blocks.update((f"factor{i}", u) for i, u in enumerate(model.factors.factors) if u is not None)
    kernel = None
    if model.kernel is not None:
        kernel = model.kernel.to_dict()
        blocks["train_inputs"] = model.train_inputs
        if model.dual_values.size:  # krls/klrr models have no dual eigenpairs
            blocks["dual_values"] = model.dual_values
    kind = "holrr" if kernel is None else "kholrr"
    header = dict(kind=kind, ranks=list(model.ranks), gamma=model.gamma, kernel=kernel,
                  warnings=list(model.warnings), blocks=list(blocks))
    return _json_line(header), blocks


def save_model(model, path_or_file) -> None:
    """Write a fitted model: magic line, one JSON header line, then the DTEN
    blocks core, factor0..factorp (none for a factor that is the identity)
    and, for a kernel model, train_inputs and (when non-empty) dual_values."""
    if not isinstance(model, HolrrModel):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    line, blocks = _layout(model)
    with _opened(path_or_file, "wb") as f:
        f.write(f"{MODEL_MAGIC} {MODEL_VERSION}\n".encode("ascii") + line)
        for block in blocks.values():
            write_dten(block, f)


def _model_from_header(header: dict, blocks: dict, version: str):
    if header["kind"] not in ("holrr", "kholrr"):
        raise ValueError(f"unknown model kind {header['kind']!r}")
    ranks = tuple(int(r) for r in header["ranks"])
    gamma = _check_gamma(header["gamma"])
    warns = tuple(str(w) for w in header["warnings"])
    # only HOLRR 3 leaves out a factor's block, for the identity
    lookup = blocks.get if version == str(MODEL_VERSION) else blocks.__getitem__
    if "coeff" in blocks:  # HOLRR 1 kernel file: its dense C is the core, with identity factors
        blocks = {"core": blocks["coeff"], "train_inputs": blocks["train_inputs"]}
        ranks, lookup = blocks["core"].shape, blocks.get
    core = blocks["core"]
    factors = TuckerFactors(core=core, factors=[lookup(f"factor{i}") for i in range(core.ndim)])
    if ranks != factors.ranks:
        raise ValueError(f"header ranks {ranks} do not match the core's shape {factors.ranks}")
    if header["kind"] == "holrr":
        return HolrrModel(factors, gamma, warns)
    x, dual_values = blocks["train_inputs"], blocks.get("dual_values", np.zeros(0))
    if x.ndim != 2 or x.shape[0] != factors.shape[0]:
        raise ValueError("model blocks factor0 and train_inputs disagree on N")
    if dual_values.ndim != 1 or dual_values.size not in (0, ranks[0]):
        raise ValueError(f"model block dual_values has shape {dual_values.shape}; R0 is {ranks[0]}")
    return HolrrModel(factors, gamma, warns, KernelSpec(**header["kernel"]), x, dual_values)


def load_model(path_or_file):
    """Read a model file back as a HolrrModel (with its kernel, for a kernel fit).

    Every block must be finite and agree with the header and the other
    blocks, and the file must be exactly what `save_model` writes for the
    model it loads as.  Blocks are read straight from the file, one copy; a
    block that parsed is what `write_dten` writes back, so only the header
    line is compared with `_layout`'s, and nothing may follow the last block.
    HOLRR 1 and 2 files read too: they store every factor, an identity one as
    an explicit block, and a HOLRR 1 kernel file's dense dual tensor loads as
    the core with identity (None) factors (its dual eigenpairs are dropped).
    """
    with _opened(path_or_file, "rb") as f:
        # bounded: a file that is not a model is not read whole
        head, _, version = f.readline(64).decode("ascii", errors="replace").rstrip("\n").partition(" ")
        if head != MODEL_MAGIC:
            raise ValueError("not a model file")
        if version not in ("1", "2", str(MODEL_VERSION)):
            raise ValueError(f"unsupported model version {version}")
        line = _read_line_bytes(f, _MODEL_LINE, "model")
        try:
            header = json.loads(line.decode("ascii"))
            blocks = {name: read_dten(f) for name in header["blocks"]}
            for name, block in blocks.items():
                if not _all_finite(block):
                    raise ValueError(f"model block {name} is not finite")
            model = _model_from_header(header, blocks, version)
        except (KeyError, TypeError, OverflowError, RecursionError) as e:
            # the header is outside input: a missing key, a wrong JSON type, a
            # number past float range or nesting past the recursion limit
            raise ValueError(f"malformed model header ({type(e).__name__}: {e})") from None
        if "coeff" not in blocks and (_layout(model)[0] != line + b"\n" or f.read(1)):
            raise ValueError("model file differs from what save_model writes: a non-canonical header or block, or trailing bytes")
        return model
