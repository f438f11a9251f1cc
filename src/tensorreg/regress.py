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
of x against the training inputs.

`rls_fit` (ridge) and `lrr_fit` (ridge followed by a rank-R projection of the
vectorized outputs) are the flat baselines; `krls_fit`/`klrr_fit` are their
dual forms.
"""

from __future__ import annotations

import io
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import NotPositiveDefiniteError
from .tensor import (
    TuckerFactors,
    _fix_signs,
    matricize,
    mode_product,
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
    "kholrr_fit",
    "kholrr_predict",
    "kholrr_predict_batch",
    "save_model",
    "load_model",
]

MODEL_MAGIC = "HOLRR"
MODEL_VERSION = 1

_KERNEL_KINDS = ("linear", "rbf", "polynomial")

_CORE_FALLBACK = "projected gram singular; using pseudo-inverse core solve"


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
        if self.kind == "polynomial" and self.offset < 0:
            raise ValueError("polynomial offset must be >= 0")

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
    """Dual fit: coeff is N x d1 x ... x dp, contracted against kernel vectors."""

    coeff: np.ndarray
    train_inputs: np.ndarray
    kernel: KernelSpec
    ranks: tuple
    gamma: float
    dual_values: np.ndarray = field(default_factory=lambda: np.zeros(0))
    dual_vectors: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    warnings: tuple = ()

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


def _ridge_hat(x: np.ndarray, gamma: float) -> np.ndarray:
    # X (X^T X + gamma I)^-1 X^T; exact column-space projector at gamma = 0
    if gamma == 0:
        p = x @ linalg.pinv(x)
    else:
        a = x.T @ x + gamma * np.eye(x.shape[1])
        p = x @ _solve(a, x.T, "normal equations singular; using pseudo-inverse")
    return (p + p.T) / 2.0


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
    p = _ridge_hat(x, gamma)
    s = y_flat.T @ (p @ y_flat)
    v = linalg.sym_eig_top((s + s.T) / 2.0, rank).vectors
    return w_rls @ v @ v.T


def _pencil_top_pinv(s: np.ndarray, m: np.ndarray, r: int):
    # top eigenpairs of pinv(M) S restricted to range(M); fallback for the
    # gamma = 0, singular-M case
    w, q = np.linalg.eigh((m + m.T) / 2.0)
    w = np.clip(w, 0.0, None)
    top = float(w.max()) if w.size else 0.0
    keep = w > 1e-12 * max(top, 1.0)
    inv_half = np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)
    p = q * inv_half[None, :]
    sigma = p.T @ s @ p
    res = linalg.sym_eig_top((sigma + sigma.T) / 2.0, r)
    return res.values, _fix_signs(p @ res.vectors)


def _orthonormalize(u: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(u)
    flip = np.sign(np.diag(r))
    flip[flip == 0] = 1.0
    return q * flip[None, :]


def _output_factors(y: np.ndarray, ranks) -> list:
    factors = []
    for i, r in enumerate(ranks, start=1):
        yi = matricize(y, i)
        g = yi @ yi.T
        res = linalg.sym_eig_top((g + g.T) / 2.0, r)
        factors.append(res.vectors)
    return factors


def _clamp_rank(requested: int, limit: int, mode: int, noted: list) -> int:
    if requested > limit:
        msg = f"rank {requested} clamped to {limit} at mode {mode}"
        noted.append(msg)
        warnings.warn(msg, stacklevel=3)
        return limit
    return requested


def holrr_fit(prob: RegressionProblem) -> HolrrModel:
    """Closed-form multilinear-rank-constrained ridge fit.

    Ranks are clamped to feasible values (R0 <= min(d0, N), Ri <= di) with a
    warning recorded on the model.  gamma = 0 with rank-deficient X falls back
    to pseudo-inverse solves instead of failing.
    """
    x, y, gamma = prob.x, prob.y, prob.gamma
    n, d0 = x.shape
    p = y.ndim - 1
    noted: list = []
    r0 = _clamp_rank(prob.ranks[0], min(d0, n), 0, noted)
    out_ranks = [
        _clamp_rank(prob.ranks[i + 1], y.shape[i + 1], i + 1, noted) for i in range(p)
    ]

    a = x.T @ x + gamma * np.eye(d0)
    y0 = matricize(y, 0)
    b = x.T @ y0
    s = b @ b.T
    try:
        _, u0_raw = linalg.gen_sym_eig_top((s + s.T) / 2.0, a, r0)
    except NotPositiveDefiniteError:
        msg = "input gram singular at gamma=0; using pseudo-inverse pencil"
        noted.append(msg)
        warnings.warn(msg, stacklevel=2)
        _, u0_raw = _pencil_top_pinv((s + s.T) / 2.0, a, r0)
    u0 = _orthonormalize(u0_raw)

    core_gram = u0.T @ a @ u0
    m_map = _solve((core_gram + core_gram.T) / 2.0, u0.T @ x.T, _CORE_FALLBACK, noted)

    factors = [u0] + _output_factors(y, out_ranks)
    core = multi_mode_product(y, [m_map] + [u.T for u in factors[1:]])
    tf = TuckerFactors(core=core, factors=factors)
    return HolrrModel(
        factors=tf,
        ranks=(r0, *out_ranks),
        gamma=gamma,
        warnings=tuple(noted),
    )


def holrr_predict(model: HolrrModel, x) -> np.ndarray:
    """Predict the output tensor for a single input vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("holrr_predict expects a single input vector")
    u0 = model.factors.factors[0]
    if x.shape[0] != u0.shape[0]:
        raise ValueError(f"input has length {x.shape[0]}, model expects {u0.shape[0]}")
    t = mode_vector_product(model.factors.core, u0.T @ x, 0)
    rest = model.factors.factors[1:]
    if not rest:
        return t
    return multi_mode_product(np.asarray(t), rest, range(len(rest)))


def holrr_predict_batch(model: HolrrModel, x) -> np.ndarray:
    """Stacked predictions for a matrix of input rows."""
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

    With the fit Gram G = Q diag(lam) Q^T (Q, lam from the thin SVD of X, or
    eigh(K) with lam clipped at 0) and Z = Q^T Y, the ridge prediction is
    (B / (lam + gamma)) Z for the validation basis B (X_val V S, or K_val Q),
    and the lrr output subspace at gamma is the top right singular subspace of
    diag(sqrt(lam / (lam + gamma))) Z, so every rank is a prefix of one small
    SVD per gamma.  Directions with lam + gamma <= 1e-12 max(lam) get weight
    0: the pseudo-inverse semantics of the gamma = 0 fits.

    Returns {(gamma, rank): prediction}, predictions n_val x D; a rank at or
    above D gives the unprojected ridge prediction.  Ranks must be >= 1.
    """
    y_flat = np.asarray(y_flat, dtype=np.float64)
    if kernel is None:
        q, s, vt = np.linalg.svd(x_fit, full_matrices=False)
        lam = s * s
        basis = (x_val @ vt.T) * s
    else:
        lam, q = np.linalg.eigh(gram(x_fit, kernel))
        lam = np.clip(lam, 0.0, None)
        basis = kernel_cross(kernel, x_val, x_fit) @ q
    z = q.T @ y_flat
    cutoff = 1e-12 * lam.max()
    preds = {}
    for gamma in gammas:
        denom = lam + gamma
        keep = denom > cutoff
        inv = np.where(keep, 1.0 / np.where(keep, denom, 1.0), 0.0)
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


def _dual_pencil_top(k: np.ndarray, y0: np.ndarray, gamma: float, r: int, noted: list):
    # top eigenpairs of (K + gamma I)^-1 Y_(0) Y_(0)^T K via the symmetric
    # congruence D Z Z^T D with D = (Lam + gamma)^-1/2 Lam^1/2 in the eigenbasis
    # of K; eigenvectors map back through Q diag((Lam+gamma)^-1/2 Lam^-1/2)
    lam, q = np.linalg.eigh((k + k.T) / 2.0)
    lam = np.clip(lam, 0.0, None)
    top = float(lam.max()) if lam.size else 0.0
    cutoff = 1e-12 * max(top, 1.0)
    denom = lam + gamma
    if np.any(denom <= cutoff):
        msg = "gram matrix singular at gamma=0; restricting to its range"
        noted.append(msg)
        warnings.warn(msg, stacklevel=3)
    inv_reg = np.where(denom > cutoff, 1.0 / np.sqrt(np.where(denom > cutoff, denom, 1.0)), 0.0)
    root = np.sqrt(lam)
    inv_root = np.where(lam > cutoff, 1.0 / np.sqrt(np.where(lam > cutoff, lam, 1.0)), 0.0)
    z = q.T @ y0
    e = (inv_reg * root)[:, None] * z
    sigma = e @ e.T
    res = linalg.sym_eig_top((sigma + sigma.T) / 2.0, r)
    a = q @ ((inv_reg * inv_root)[:, None] * res.vectors)
    norms = np.linalg.norm(a, axis=0)
    safe = norms > 1e-300
    a[:, safe] = a[:, safe] / norms[safe][None, :]
    return res.values, _fix_signs(a)


def kholrr_fit(k, y, ranks, gamma: float, train_inputs, kernel: KernelSpec) -> KernelHolrrModel:
    """Dual multilinear-rank-constrained ridge fit from a Gram matrix.

    Same structure as holrr_fit with X replaced by K: the input-side subspace
    comes from the dual pencil (K + gamma I)^-1 Y_(0) Y_(0)^T K, the output
    factors are unchanged, and the dual coefficient tensor is

        C = G x_0 A x_1 U_1 ... x_p U_p,
        G = Y x_0 (A^T K (K + gamma I) A)^-1 A^T K x_1 U_1^T ... x_p U_p^T.

    The dual eigenpairs (values and the columns of A) are kept on the model;
    their feature-space transport X^T A recovers the primal pencil directions.
    """
    k = np.asarray(k, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    train_inputs = np.asarray(train_inputs, dtype=np.float64)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError("gram matrix must be square")
    n = k.shape[0]
    if y.shape[0] != n:
        raise ValueError(f"{n} gram rows but {y.shape[0]} output slices")
    if train_inputs.shape[0] != n:
        raise ValueError("train_inputs row count must match the gram matrix")
    prob = RegressionProblem(x=train_inputs, y=y, ranks=ranks, gamma=gamma)
    y, ranks, gamma = prob.y, prob.ranks, prob.gamma
    p = y.ndim - 1
    noted: list = []
    r0 = _clamp_rank(ranks[0], n, 0, noted)
    out_ranks = [_clamp_rank(ranks[i + 1], y.shape[i + 1], i + 1, noted) for i in range(p)]

    y0 = matricize(y, 0)
    dual_values, a = _dual_pencil_top(k, y0, gamma, r0, noted)

    ka = k @ a
    left = a.T @ (k @ ka) + gamma * (a.T @ ka)
    m_map = _solve((left + left.T) / 2.0, ka.T, _CORE_FALLBACK, noted)

    factors = _output_factors(y, out_ranks)
    core = multi_mode_product(y, [m_map] + [u.T for u in factors])
    coeff = multi_mode_product(core, [a] + factors)
    return KernelHolrrModel(
        coeff=coeff,
        train_inputs=train_inputs,
        kernel=kernel,
        ranks=(r0, *out_ranks),
        gamma=gamma,
        dual_values=dual_values,
        dual_vectors=a,
        warnings=tuple(noted),
    )


def kholrr_predict(model: KernelHolrrModel, x) -> np.ndarray:
    """Predict the output tensor for a single input vector."""
    kx = kernel_vec(model.kernel, model.train_inputs, x)
    out = mode_vector_product(model.coeff, kx, 0)
    return np.asarray(out)


def kholrr_predict_batch(model: KernelHolrrModel, x) -> np.ndarray:
    cross = kernel_cross(model.kernel, np.asarray(x, dtype=np.float64), model.train_inputs)
    return mode_product(model.coeff, cross, 0)


# ---------------------------------------------------------------------------
# model files


def _json_line(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")


def save_model(model, path_or_file) -> None:
    """Write a fitted model: magic line, one JSON header line, DTEN blocks."""
    if isinstance(model, HolrrModel):
        header = {
            "kind": "holrr",
            "ranks": list(model.ranks),
            "gamma": model.gamma,
            "kernel": None,
            "warnings": list(model.warnings),
            "blocks": ["core"] + [f"factor{i}" for i in range(len(model.factors.factors))],
        }
        blocks = [model.factors.core] + list(model.factors.factors)
    elif isinstance(model, KernelHolrrModel):
        header = {
            "kind": "kholrr",
            "ranks": list(model.ranks),
            "gamma": model.gamma,
            "kernel": model.kernel.to_dict(),
            "warnings": list(model.warnings),
            "blocks": ["coeff", "train_inputs", "dual_values", "dual_vectors"],
        }
        blocks = [
            model.coeff,
            model.train_inputs,
            np.atleast_1d(model.dual_values),
            np.atleast_2d(model.dual_vectors),
        ]
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")

    buf = io.BytesIO()
    buf.write(f"{MODEL_MAGIC} {MODEL_VERSION}\n".encode("ascii"))
    buf.write(_json_line(header))
    for block in blocks:
        write_dten(block, buf)
    data = buf.getvalue()
    if hasattr(path_or_file, "write"):
        path_or_file.write(data)
    else:
        with open(path_or_file, "wb") as f:
            f.write(data)


def _model_from_header(header: dict, blocks: dict):
    ranks = tuple(int(r) for r in header["ranks"])
    gamma = float(header["gamma"])
    warns = tuple(header.get("warnings", []))
    if header["kind"] == "holrr":
        factors = [blocks[f"factor{i}"] for i in range(len(header["blocks"]) - 1)]
        return HolrrModel(
            factors=TuckerFactors(core=blocks["core"], factors=[np.atleast_2d(u) for u in factors]),
            ranks=ranks,
            gamma=gamma,
            warnings=warns,
        )
    if header["kind"] == "kholrr":
        model = KernelHolrrModel(
            coeff=blocks["coeff"],
            train_inputs=np.atleast_2d(blocks["train_inputs"]),
            kernel=KernelSpec(**header["kernel"]),
            ranks=ranks,
            gamma=gamma,
            dual_values=np.atleast_1d(blocks["dual_values"]),
            dual_vectors=np.atleast_2d(blocks["dual_vectors"]),
            warnings=warns,
        )
        rows = {model.coeff.shape[0], model.train_inputs.shape[0], model.dual_vectors.shape[0]}
        if len(rows) != 1:
            raise ValueError("model blocks coeff, train_inputs and dual_vectors disagree on N")
        return model
    raise ValueError(f"unknown model kind {header['kind']!r}")


def load_model(path_or_file):
    """Read a model file back; returns HolrrModel or KernelHolrrModel."""
    if hasattr(path_or_file, "read"):
        f = path_or_file
        close = False
    else:
        f = open(path_or_file, "rb")
        close = True
    try:
        magic = f.readline().decode("ascii", errors="replace").split()
        if len(magic) != 2 or magic[0] != MODEL_MAGIC:
            raise ValueError("not a model file")
        if magic[1] != str(MODEL_VERSION):
            raise ValueError(f"unsupported model version {magic[1]}")
        header = json.loads(f.readline().decode("ascii"))
        try:
            return _model_from_header(header, {name: read_dten(f) for name in header["blocks"]})
        except (KeyError, TypeError) as e:
            # the header is outside input: a missing key or a wrong JSON type
            raise ValueError(f"malformed model header ({type(e).__name__}: {e})") from None
    finally:
        if close:
            f.close()
