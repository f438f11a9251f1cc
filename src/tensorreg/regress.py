"""Low-rank regression with tensor-structured outputs.

Given inputs X (N x d0) and outputs stacked into a tensor Y (N x d1 x ... x dp),
the main fit constrains the coefficient tensor W (d0 x d1 x ... x dp) to
multilinear rank (R0..Rp) and minimizes the ridge objective

    L(W) = ||W x_0 X - Y||_F^2 + gamma ||W||_F^2.

The minimizer over each mode separately is a spectral projection, which gives
the closed-form fit below: the input-side subspace solves the pencil
(X^T Y_(0) Y_(0)^T X) u = lambda (X^T X + gamma I) u, each output-side subspace
is a top eigenspace of Y_(i) Y_(i)^T, and the core is a projected ridge solve.
The fit costs one small eigenproblem per mode and carries a (p+1)-factor
approximation guarantee relative to the exact rank-constrained minimizer.

The kernel variant replaces X by the Gram matrix and learns a dual coefficient
tensor C (N x d1 x ... x dp) with f(x) = C contracted with the kernel vector
of x against the training inputs.  C is never materialized: the kernel model
keeps it in the same Tucker form as the primal one, C = G x_0 A x_1 U_1 ...
x_p U_p with the dual basis A (N x R0) as factor 0, and predicts through
`holrr_predict`/`holrr_predict_batch` applied to kernel vectors.

Every fit takes its input side from one decomposition of the fit rows' Gram,
X X^T (or K) = Q diag(lam) Q^T (thin SVD of X, or eigh(K) clipped at 0), in
which the pencil is a symmetric eigenproblem and the ridge inverse is
1 / (lam + gamma), set to 0 where lam + gamma <= 1e-12 max(lam): the one
pseudo-inverse rule, relative to scale, behind the "pseudo-inverse pencil,
restricting to its range" warning of a singular input Gram.

`rls_fit` (ridge) and `lrr_fit` (ridge followed by a rank-R projection of the
vectorized outputs) are the flat baselines; `krls_fit`/`klrr_fit` are their
dual forms.
"""

from __future__ import annotations

import io
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import linalg
from .linalg import NotPositiveDefiniteError
from .tensor import (
    TuckerFactors,
    _fix_signs,
    dematricize,
    matricize,
    mode_vector_product,
    multi_mode_product,
    read_dten,
    tucker_reconstruct,
    write_dten,
)

__all__ = [
    "KernelSpec",
    "RegressionProblem",
    "HolrrModel",
    "KernelHolrrModel",
    "rls_fit",
    "lrr_fit",
    "holrr_fit",
    "holrr_predict",
    "holrr_predict_batch",
    "gram",
    "kernel_cross",
    "kernel_vec",
    "krls_fit",
    "klrr_fit",
    "lrr_path_predict",
    "row_blocks",
    "kholrr_fit",
    "kholrr_predict",
    "kholrr_predict_batch",
    "save_model",
    "load_model",
]

MODEL_MAGIC = "HOLRR"
MODEL_VERSION = 2

_KERNEL_KINDS = ("linear", "rbf", "polynomial")

# bytes of Y per row block (`row_blocks`) of the mode Grams and the CLI's training error
_BLOCK_BYTES = 1 << 24

_CORE_FALLBACK = "projected gram singular; using pseudo-inverse core solve"
_SINGULAR_INPUT = (
    "input gram singular at this gamma; using the pseudo-inverse pencil, restricting to its range"
)


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
        if self.kind == "rbf" and not self.sigma > 0:
            raise ValueError("rbf bandwidth must be positive")
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
        return {
            "kind": self.kind,
            "sigma": self.sigma,
            "degree": self.degree,
            "offset": self.offset,
        }


def kernel_cross(kernel: KernelSpec, xa, xb) -> np.ndarray:
    """Matrix of k(xa_i, xb_j), shape (len(xa), len(xb))."""
    xa = np.asarray(xa, dtype=np.float64)
    xb = np.asarray(xb, dtype=np.float64)
    if xa.ndim != 2 or xb.ndim != 2 or xa.shape[1] != xb.shape[1]:
        raise ValueError(f"incompatible input shapes {xa.shape} and {xb.shape}")
    if not (np.isfinite(xa).all() and np.isfinite(xb).all()):
        raise ValueError("kernel inputs must be finite")
    dots = xa @ xb.T
    if kernel.kind == "linear":
        return dots
    if kernel.kind == "polynomial":
        return (dots + kernel.offset) ** kernel.degree
    sq = (
        np.sum(xa * xa, axis=1)[:, None]
        + np.sum(xb * xb, axis=1)[None, :]
        - 2.0 * dots
    )
    np.clip(sq, 0.0, None, out=sq)
    return np.exp(-sq / (2.0 * kernel.sigma**2))


def gram(x, kernel: KernelSpec) -> np.ndarray:
    """Training Gram matrix, symmetrized."""
    g = kernel_cross(kernel, x, x)
    return (g + g.T) / 2.0


def kernel_vec(kernel: KernelSpec, x_train, x) -> np.ndarray:
    """Vector of k(x_train_n, x) for a single input x."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("kernel_vec expects a single input vector")
    return kernel_cross(kernel, x_train, x[None, :])[:, 0]


def _check_gamma(gamma) -> float:
    gamma = float(gamma)
    if not (np.isfinite(gamma) and gamma >= 0):
        raise ValueError("gamma must be finite and >= 0")
    return gamma


def _solve(a: np.ndarray, b: np.ndarray, msg: str, noted: list = None) -> np.ndarray:
    """Solve a x = b by Cholesky; when `a` is not positive definite, warn with
    `msg` (also appended to `noted`) and use the pseudo-inverse instead."""
    try:
        return linalg.spd_solve(a, b)
    except NotPositiveDefiniteError:
        if noted is not None:
            noted.append(msg)
        warnings.warn(msg, stacklevel=3)
        return linalg.pinv(a) @ b


def _spectrum(x=None, k=None):
    """(q, lam, v) with the fit rows' Gram X X^T (or K) = q diag(lam) q^T:
    from the thin SVD X = q diag(sqrt(lam)) v^T, or from eigh(K) with lam
    clipped at 0 (v is None)."""
    if k is None:
        q, s, vt = np.linalg.svd(x, full_matrices=False)
        return q, s * s, vt.T
    lam, q = np.linalg.eigh((k + k.T) / 2.0)
    return q, np.clip(lam, 0.0, None), None


def _ridge_inverse(lam: np.ndarray, gamma: float) -> np.ndarray:
    """1 / (lam + gamma), and 0 where lam + gamma <= 1e-12 max(lam): the one
    pseudo-inverse rule of every fit."""
    denom = lam + gamma
    keep = denom > 1e-12 * lam.max()
    return np.where(keep, 1.0 / np.where(keep, denom, 1.0), 0.0)


def _pencil(lam, z, gamma: float, r: int, dim: int, noted: list):
    """Top-r pairs of the pencil (X^T Y_(0) Y_(0)^T X, X^T X + gamma I) from
    Z = q^T Y_(0): the top eigenpairs (values, w) of D Z Z^T D, D = sqrt(lam inv),
    give vectors V c, c = sqrt(inv) w.  `dim` is the order of the input Gram
    (d0, or N for a kernel); its directions past len(lam) have lam = 0."""
    inv = _ridge_inverse(np.append(lam, np.zeros(dim - lam.size)), gamma)
    if not inv.all():
        noted.append(_SINGULAR_INPUT)
        warnings.warn(_SINGULAR_INPUT, stacklevel=3)
    inv = inv[: lam.size]
    d = np.sqrt(lam * inv)
    res = linalg.sym_eig_top(d[:, None] * (z @ z.T) * d, r)
    return res.values, np.sqrt(inv)[:, None] * res.vectors


def _core(lam, z, gamma: float, c, factors: list, shape: tuple, noted: list) -> np.ndarray:
    """Core (c^T diag(lam + gamma) c)^-1 c^T diag(sqrt(lam)) Z of input
    coefficients c, folded to (R0, d1..dp) and projected on the output factors."""
    left = (c.T * (lam + gamma)) @ c
    m_map = _solve((left + left.T) / 2.0, c.T * np.sqrt(lam), _CORE_FALLBACK, noted)
    core = dematricize(m_map @ z, 0, (c.shape[1],) + shape[1:])
    return multi_mode_product(core, [u.T for u in factors], range(1, len(shape)))


@dataclass
class RegressionProblem:
    """Training data plus target multilinear rank (R0..Rp) and ridge gamma."""

    x: np.ndarray
    y: np.ndarray
    ranks: tuple
    gamma: float = 1e-3

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
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
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise ValueError("training data must be finite")


@dataclass
class HolrrModel:
    """Fitted coefficient tensor in Tucker form; factors[0] is the input side."""

    factors: TuckerFactors
    ranks: tuple
    gamma: float
    warnings: tuple = ()

    def coefficients(self) -> np.ndarray:
        """Materialize the full coefficient tensor W."""
        return tucker_reconstruct(self.factors)

    def predict(self, x) -> np.ndarray:
        """Stacked predictions for a matrix of input rows."""
        return holrr_predict_batch(self, x)


@dataclass
class KernelHolrrModel:
    """Dual fit: the dual coefficient tensor C in Tucker form, factors[0] the
    dual basis A (N x R0), contracted against kernel vectors."""

    factors: TuckerFactors
    train_inputs: np.ndarray
    kernel: KernelSpec
    ranks: tuple
    gamma: float
    dual_values: np.ndarray = field(default_factory=lambda: np.zeros(0))
    warnings: tuple = ()

    @property
    def dual_vectors(self) -> np.ndarray:
        """The dual basis A: the pencil's dual eigenvectors for a kholrr fit."""
        return self.factors.factors[0]

    def predict(self, x) -> np.ndarray:
        """Stacked predictions for a matrix of input rows."""
        return kholrr_predict_batch(self, x)


def rls_fit(x, y_flat, gamma: float) -> np.ndarray:
    """Ridge solution (X^T X + gamma I)^-1 X^T Y, one output column at a time.

    Falls back to the pseudo-inverse (with a warning) when gamma = 0 and
    X^T X is singular.
    """
    x = np.asarray(x, dtype=np.float64)
    y_flat = np.asarray(y_flat, dtype=np.float64)
    gamma = _check_gamma(gamma)
    if x.shape[0] != y_flat.shape[0]:
        raise ValueError("row count mismatch between x and y")
    a = x.T @ x + gamma * np.eye(x.shape[1])
    return _solve(a, x.T @ y_flat, "normal equations singular; using pseudo-inverse")


def lrr_fit(x, y_flat, rank: int, gamma: float) -> np.ndarray:
    """Rank-constrained ridge on vectorized outputs.

    W = W_RLS V V^T with V the top-`rank` eigenvectors of Y^T P Y, P the ridge
    hat matrix of X.  `rank` at or above the output dimension returns W_RLS.
    """
    x = np.asarray(x, dtype=np.float64)
    y_flat = np.asarray(y_flat, dtype=np.float64)
    w_rls = rls_fit(x, y_flat, gamma)
    width = y_flat.shape[1]
    if rank < 1:
        warnings.warn(f"rank {rank} clamped to 1", stacklevel=2)
        rank = 1
    if rank >= width:
        if rank > width:
            warnings.warn(f"rank {rank} clamped to output dimension {width}", stacklevel=2)
        return w_rls
    # Y^T P Y for the ridge hat matrix P = q diag(lam inv) q^T
    q, lam, _ = _spectrum(x)
    e = np.sqrt(lam * _ridge_inverse(lam, gamma))[:, None] * (q.T @ y_flat)
    v = linalg.sym_eig_top(e.T @ e, rank).vectors
    return w_rls @ v @ v.T


def _orthonormalize(u: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(u)
    flip = np.sign(np.diag(r))
    flip[flip == 0] = 1.0
    return q * flip[None, :]


def row_blocks(y) -> list:
    """Slices of consecutive rows (mode-0 indices) of `y`, each at most
    `_BLOCK_BYTES` of it and at least one row: the blocks in which sums over
    the rows of a large output tensor are taken."""
    n = y.shape[0]
    step = max(1, _BLOCK_BYTES // max(1, y[:1].nbytes))
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


def _mode_grams(y: np.ndarray) -> list:
    """The mode Grams Y_(i) Y_(i)^T, i >= 1, each summed over `row_blocks`
    of Y: G_i = sum_B B_(i) B_(i)^T.  The only copies made are one block's
    unfoldings, where `matricize(y, i)` of the whole of a column-major Y
    would copy all of it for every mode.  When Y fits in one block the Grams
    are exactly the unblocked products."""
    grams = [np.zeros((d, d)) for d in y.shape[1:]]
    for rows in row_blocks(y):
        block = y[rows]
        for i, g in enumerate(grams, start=1):
            bi = matricize(block, i)
            g += bi @ bi.T
    return grams


def _output_factors(y: np.ndarray, ranks) -> list:
    """Top-R_i eigenvectors of each mode Gram (`_mode_grams`), i >= 1."""
    return [linalg.sym_eig_top((g + g.T) / 2.0, r).vectors for g, r in zip(_mode_grams(y), ranks)]


def _clamp_rank(requested: int, limit: int, mode: int, noted: list) -> int:
    if requested > limit:
        msg = f"rank {requested} clamped to {limit} at mode {mode}"
        noted.append(msg)
        warnings.warn(msg, stacklevel=3)
        return limit
    return requested


def holrr_fit(prob: RegressionProblem) -> HolrrModel:
    """Closed-form multilinear-rank-constrained ridge fit.

    The input factor is the top-R0 pencil eigenspace from the thin SVD of X
    and the core the projected ridge solve on Z = Q^T Y_(0) (`_pencil`,
    `_core`).  Ranks are clamped to feasible values (R0 <= min(d0, N),
    Ri <= di) with a warning recorded on the model.  Directions where
    X^T X + gamma I is at or below 1e-12 of the top eigenvalue of X^T X
    (gamma = 0 with rank-deficient X) are dropped with the "pseudo-inverse
    pencil" warning.
    """
    x, y, ranks, gamma = prob.x, prob.y, prob.ranks, prob.gamma
    n, d0 = x.shape
    noted: list = []
    r0 = _clamp_rank(ranks[0], min(d0, n), 0, noted)
    out_ranks = [_clamp_rank(ranks[i + 1], y.shape[i + 1], i + 1, noted) for i in range(y.ndim - 1)]
    factors = _output_factors(y, out_ranks)
    q, lam, v = _spectrum(x)
    z = q.T @ matricize(y, 0)
    _, c = _pencil(lam, z, gamma, r0, d0, noted)
    u0 = _orthonormalize(_fix_signs(v @ c))
    core = _core(lam, z, gamma, v.T @ u0, factors, y.shape, noted)
    tf = TuckerFactors(core=core, factors=[u0] + factors)
    return HolrrModel(factors=tf, ranks=(r0, *out_ranks), gamma=gamma, warnings=tuple(noted))


def holrr_predict(model: HolrrModel, x) -> np.ndarray:
    """Predict the output tensor for a single input (a kernel model's kernel vector)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("holrr_predict expects a single input vector")
    u0 = model.factors.factors[0]
    if x.shape[0] != u0.shape[0]:
        raise ValueError(f"input has length {x.shape[0]}, model expects {u0.shape[0]}")
    t = mode_vector_product(model.factors.core, u0.T @ x, 0)
    return multi_mode_product(t, model.factors.factors[1:])


def holrr_predict_batch(model: HolrrModel, x) -> np.ndarray:
    """Stacked predictions for a matrix of input rows (kernel rows for a kernel model)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a matrix of input rows")
    mats = [x @ model.factors.factors[0]] + model.factors.factors[1:]
    return multi_mode_product(model.factors.core, mats)


def krls_fit(k, y_flat, gamma: float) -> np.ndarray:
    """Dual ridge coefficients (K + gamma I)^-1 Y."""
    k = np.asarray(k, dtype=np.float64)
    y_flat = np.asarray(y_flat, dtype=np.float64)
    gamma = _check_gamma(gamma)
    a = k + gamma * np.eye(k.shape[0])
    return _solve(a, y_flat, "gram matrix singular; using pseudo-inverse")


def klrr_fit(k, y_flat, rank: int, gamma: float) -> np.ndarray:
    """Dual form of lrr_fit: krls coefficients projected onto the top output
    directions of Y^T K (K + gamma I)^-1 Y."""
    k = np.asarray(k, dtype=np.float64)
    y_flat = np.asarray(y_flat, dtype=np.float64)
    base = krls_fit(k, y_flat, gamma)
    width = y_flat.shape[1]
    if rank < 1:
        warnings.warn(f"rank {rank} clamped to 1", stacklevel=2)
        rank = 1
    if rank >= width:
        if rank > width:
            warnings.warn(f"rank {rank} clamped to output dimension {width}", stacklevel=2)
        return base
    s = y_flat.T @ (k @ base)
    v = linalg.sym_eig_top((s + s.T) / 2.0, rank).vectors
    return base @ v @ v.T


def lrr_path_predict(x_fit, y_flat, x_val, gammas, ranks, kernel: KernelSpec = None):
    """Validation predictions of lrr_fit (klrr_fit when `kernel` is given) at
    every (gamma, rank) point, from one decomposition of the fit rows.

    With the fit Gram G = Q diag(lam) Q^T from `_spectrum`, Z = Q^T Y and
    inv = `_ridge_inverse`(lam, gamma), the ridge prediction is (B inv) Z for
    the validation basis B (X_val V S, or K_val Q), and the lrr output
    subspace at gamma is the top right singular subspace of
    diag(sqrt(lam inv)) Z, so every rank is a prefix of one small SVD per
    gamma.

    Returns {(gamma, rank): prediction}, predictions n_val x D; a rank at or
    above D gives the unprojected ridge prediction.  Ranks must be >= 1.
    """
    y_flat = np.asarray(y_flat, dtype=np.float64)
    if kernel is None:
        q, lam, v = _spectrum(x_fit)
        basis = (x_val @ v) * np.sqrt(lam)
    else:
        q, lam, _ = _spectrum(k=gram(x_fit, kernel))
        basis = kernel_cross(kernel, x_val, x_fit) @ q
    z = q.T @ y_flat
    preds = {}
    for gamma in gammas:
        inv = _ridge_inverse(lam, gamma)
        scaled = basis * inv
        full = scaled @ z
        v_all = np.linalg.svd(np.sqrt(lam * inv)[:, None] * z, full_matrices=False)[2].T
        for r in ranks:
            if r >= y_flat.shape[1]:
                preds[gamma, r] = full
            else:
                v = v_all[:, :r]
                preds[gamma, r] = (scaled @ (z @ v)) @ v.T
    return preds


def kholrr_fit(k, y, ranks, gamma: float, train_inputs, kernel: KernelSpec) -> KernelHolrrModel:
    """Dual multilinear-rank-constrained ridge fit from a Gram matrix.

    Same route as holrr_fit with eigh(K) = Q diag(lam) Q^T in place of the
    SVD of X: the pencil coefficients c map to the dual basis
    A = Q diag(lam^-1/2) c (unit columns, lam^-1/2 taken as 0 where lam is at
    or below 1e-12 max(lam)), the output factors are unchanged, and the dual
    coefficient tensor is

        C = G x_0 A x_1 U_1 ... x_p U_p,
        G = Y x_0 (A^T K (K + gamma I) A)^-1 A^T K x_1 U_1^T ... x_p U_p^T.

    C is never materialized: the model keeps G, A and the U_i.  The dual
    eigenpairs (pencil values and the columns of A) are kept on the model;
    their feature-space transport X^T A recovers the primal pencil
    directions.  A singular K + gamma I (by the same 1e-12 rule) warns
    "pseudo-inverse pencil, restricting to its range".
    """
    k = np.asarray(k, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    train_inputs = np.asarray(train_inputs, dtype=np.float64)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError("gram matrix must be square")
    n = k.shape[0]
    if train_inputs.shape[0] != n:
        raise ValueError("train_inputs row count must match the gram matrix")
    prob = RegressionProblem(x=train_inputs, y=y, ranks=ranks, gamma=gamma)
    y, ranks, gamma = prob.y, prob.ranks, prob.gamma
    noted: list = []
    r0 = _clamp_rank(ranks[0], n, 0, noted)
    out_ranks = [_clamp_rank(ranks[i + 1], y.shape[i + 1], i + 1, noted) for i in range(y.ndim - 1)]
    factors = _output_factors(y, out_ranks)

    q, lam, _ = _spectrum(k=k)
    z = q.T @ matricize(y, 0)
    dual_values, c = _pencil(lam, z, gamma, r0, n, noted)
    a = q @ (np.sqrt(_ridge_inverse(lam, 0.0))[:, None] * c)
    norms = np.linalg.norm(a, axis=0)
    # column-major like a loaded model's blocks, so both predict bitwise alike
    a = np.asfortranarray(_fix_signs(a / np.where(norms > 1e-300, norms, 1.0)))
    # K A = Q diag(sqrt(lam)) (Q^T A): the coefficients of A's range in the core
    core = _core(lam, z, gamma, np.sqrt(lam)[:, None] * (q.T @ a), factors, y.shape, noted)
    tf = TuckerFactors(core=core, factors=[a] + factors)
    return KernelHolrrModel(
        tf, train_inputs, kernel, (r0, *out_ranks), gamma, dual_values, warnings=tuple(noted)
    )


def kholrr_predict(model: KernelHolrrModel, x) -> np.ndarray:
    """Predict the output tensor for a single input vector."""
    return holrr_predict(model, kernel_vec(model.kernel, model.train_inputs, x))


def kholrr_predict_batch(model: KernelHolrrModel, x) -> np.ndarray:
    """Stacked predictions for a matrix of input rows."""
    return holrr_predict_batch(model, kernel_cross(model.kernel, x, model.train_inputs))


# ---------------------------------------------------------------------------
# model files


def _json_line(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")


def _encode(model) -> bytes:
    """The header line and DTEN blocks of a model file (all but its magic line)."""
    if not isinstance(model, (HolrrModel, KernelHolrrModel)):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    blocks = {"core": model.factors.core}
    blocks.update((f"factor{i}", u) for i, u in enumerate(model.factors.factors))
    kernel = None
    if isinstance(model, KernelHolrrModel):
        kernel = model.kernel.to_dict()
        blocks["train_inputs"] = model.train_inputs
        if model.dual_values.size:  # krls/klrr models have no dual eigenpairs
            blocks["dual_values"] = model.dual_values
    kind = "holrr" if kernel is None else "kholrr"
    header = dict(kind=kind, ranks=list(model.ranks), gamma=model.gamma, kernel=kernel,
                  warnings=list(model.warnings), blocks=list(blocks))
    buf = io.BytesIO()
    buf.write(_json_line(header))
    for block in blocks.values():
        write_dten(block, buf)
    return buf.getvalue()


def save_model(model, path_or_file) -> None:
    """Write a fitted model: magic line, one JSON header line, then the DTEN
    blocks core, factor0..factorp and, for a kernel model, train_inputs and
    (when non-empty) dual_values."""
    data = f"{MODEL_MAGIC} {MODEL_VERSION}\n".encode("ascii") + _encode(model)
    if hasattr(path_or_file, "write"):
        path_or_file.write(data)
    else:
        Path(path_or_file).write_bytes(data)


def _model_from_header(header: dict, blocks: dict):
    if header["kind"] not in ("holrr", "kholrr"):
        raise ValueError(f"unknown model kind {header['kind']!r}")
    ranks = tuple(int(r) for r in header["ranks"])
    gamma = _check_gamma(header["gamma"])
    warns = tuple(str(w) for w in header["warnings"])
    if "coeff" in blocks:  # HOLRR 1 kernel file: its dense C is the core, with identity factors
        core = blocks["coeff"]
        blocks = {"core": core, "train_inputs": blocks["train_inputs"]}
        blocks.update((f"factor{i}", np.eye(d)) for i, d in enumerate(core.shape))
        ranks = core.shape
    core = blocks["core"]
    factors = TuckerFactors(core=core, factors=[blocks[f"factor{i}"] for i in range(core.ndim)])
    if ranks != factors.ranks:
        raise ValueError(f"header ranks {ranks} do not match the core's shape {factors.ranks}")
    if header["kind"] == "holrr":
        return HolrrModel(factors, ranks, gamma, warns)
    x, dual_values = blocks["train_inputs"], blocks.get("dual_values", np.zeros(0))
    if x.ndim != 2 or x.shape[0] != factors.shape[0]:
        raise ValueError("model blocks factor0 and train_inputs disagree on N")
    if dual_values.ndim != 1 or dual_values.size not in (0, ranks[0]):
        raise ValueError(f"model block dual_values has shape {dual_values.shape}; R0 is {ranks[0]}")
    return KernelHolrrModel(factors, x, KernelSpec(**header["kernel"]), ranks, gamma, dual_values, warns)


def load_model(path_or_file):
    """Read a model file back; returns HolrrModel or KernelHolrrModel.

    Every block must be finite and agree with the header and the other
    blocks, and the file must be exactly what `save_model` writes for the
    model it loads as.  A HOLRR 1 file reads too: its primal layout is the
    current one, and a kernel file's dense dual tensor loads as the core with
    identity factors (its dual eigenpairs are dropped).
    """
    data = path_or_file.read() if hasattr(path_or_file, "read") else Path(path_or_file).read_bytes()
    f = io.BytesIO(data)
    head, _, version = f.readline().decode("ascii", errors="replace").rstrip("\n").partition(" ")
    if head != MODEL_MAGIC:
        raise ValueError("not a model file")
    if version not in ("1", str(MODEL_VERSION)):
        raise ValueError(f"unsupported model version {version}")
    start = f.tell()
    header = json.loads(f.readline().decode("ascii"))
    try:
        blocks = {name: read_dten(f) for name in header["blocks"]}
        for name, block in blocks.items():
            if not np.isfinite(block).all():
                raise ValueError(f"model block {name} is not finite")
        model = _model_from_header(header, blocks)
    except (KeyError, TypeError) as e:
        # the header is outside input: a missing key or a wrong JSON type
        raise ValueError(f"malformed model header ({type(e).__name__}: {e})") from None
    if "coeff" not in blocks and _encode(model) != data[start:]:
        raise ValueError("model file differs from what save_model writes: a non-canonical header or block, or trailing bytes")
    return model
