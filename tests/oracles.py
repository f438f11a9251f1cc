"""Loop-based reference implementations, kept independent of the library's
reshape/BLAS code paths so tests compare two routes to the same value, and
small helpers that only tests use, built on the library's public functions."""

import numpy as np

from tensorreg.regress import kernel_cross
from tensorreg.tensor import matricize, multi_mode_product


def matricize_loops(t, mode):
    """Column index: remaining indices, lowest mode varying fastest."""
    t = np.asarray(t, dtype=float)
    dims = t.shape
    rest = [d for k, d in enumerate(dims) if k != mode]
    out = np.zeros((dims[mode], int(np.prod(rest))))
    for idx in np.ndindex(*dims):
        col = 0
        stride = 1
        for k in range(len(dims)):
            if k == mode:
                continue
            col += idx[k] * stride
            stride *= dims[k]
        out[idx[mode], col] = t[idx]
    return out


def vectorize_loops(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.size)
    for idx in np.ndindex(*t.shape):
        pos = 0
        stride = 1
        for k in range(len(t.shape)):
            pos += idx[k] * stride
            stride *= t.shape[k]
        out[pos] = t[idx]
    return out


def mode_product_loops(t, m, mode):
    t = np.asarray(t, dtype=float)
    m = np.asarray(m, dtype=float)
    out_shape = t.shape[:mode] + (m.shape[0],) + t.shape[mode + 1 :]
    out = np.zeros(out_shape)
    for idx in np.ndindex(*out_shape):
        acc = 0.0
        for j in range(t.shape[mode]):
            src = idx[:mode] + (j,) + idx[mode + 1 :]
            acc += m[idx[mode], j] * t[src]
        out[idx] = acc
    return out


def inner_loops(s, t):
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    acc = 0.0
    for idx in np.ndindex(*s.shape):
        acc += s[idx] * t[idx]
    return acc


def tucker_loops(core, factors):
    core = np.asarray(core, dtype=float)
    out_shape = tuple(u.shape[0] for u in factors)
    out = np.zeros(out_shape)
    for oidx in np.ndindex(*out_shape):
        acc = 0.0
        for cidx in np.ndindex(*core.shape):
            w = core[cidx]
            for k, u in enumerate(factors):
                w *= u[oidx[k], cidx[k]]
            acc += w
        out[oidx] = acc
    return out


def ridge_loss(w, x, y, gamma):
    """||W x_0 X - Y||_F^2 + gamma ||W||_F^2 computed with plain einsum."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    flat_w = w.reshape(w.shape[0], -1, order="F")
    flat_y = y.reshape(y.shape[0], -1, order="F")
    resid = x @ flat_w - flat_y
    return float(np.sum(resid**2) + gamma * np.sum(flat_w**2))


def mode_vector_product(t, v, mode):
    """Contract mode `mode` with a vector; the result drops that mode."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.shape[0] != t.shape[mode]:
        raise ValueError(f"vector of length {v.shape} does not match mode {mode} of {t.shape}")
    out = np.squeeze(multi_mode_product(t, [v[None, :]], [mode]), axis=mode)
    return float(out) if out.ndim == 0 else out


def multilinear_rank(t, tol=1e-9):
    """Per-mode ranks: singular values above tol * largest, each matricization."""
    t = np.asarray(t, dtype=float)
    if tol <= 0:
        raise ValueError("tol must be positive")
    ranks = []
    for mode in range(t.ndim):
        sv = np.linalg.svd(matricize(t, mode), compute_uv=False)
        top = sv[0] if sv.size else 0.0
        ranks.append(int(np.sum(sv > tol * top)) if top > 0 else 0)
    return tuple(ranks)


def kernel_vec(kernel, x_train, x):
    """Vector of k(x_train_n, x) for a single input x."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("kernel_vec expects a single input vector")
    return kernel_cross(kernel, x_train, x[None, :])[:, 0]
