"""Symmetric solvers shared by the regression code.

Everything is dense LAPACK: these matrices top out at a few thousand square,
so full decompositions are fine and bit-deterministic on one platform.

Eigenvector sign convention used throughout: the largest-magnitude entry of
each returned eigenvector is positive (first such entry on ties), so repeated
fits serialize identically.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import cho_solve, eigh, lapack, solve_triangular

from .tensor import _fix_signs

__all__ = [
    "NotPositiveDefiniteError",
    "spd_solve",
    "sym_eig_top",
    "gen_sym_eig_top",
    "pinv",
]

_SYM_TOL = 1e-10


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Cholesky hit a non-positive pivot; `pivot` is 0-based."""

    def __init__(self, pivot: int):
        self.pivot = int(pivot)
        super().__init__(f"matrix is not positive definite (pivot {self.pivot})")


def _check_symmetric(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got {a.shape}")
    top = max(float(a.max()), -float(a.min())) if a.size else 0.0  # max |a_ij|
    if not np.isfinite(top):  # a NaN or inf entry
        raise ValueError(f"{name} must be finite")
    if float(np.max(abs(a - a.T))) > _SYM_TOL * max(1.0, top):  # abs() of a temporary reuses it
        raise ValueError(f"{name} is not symmetric")
    return a


def _cholesky_lower(a: np.ndarray) -> np.ndarray:
    c, info = lapack.dpotrf(a, lower=1)
    if info > 0:
        raise NotPositiveDefiniteError(info - 1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return c


def spd_solve(a, b) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A via Cholesky."""
    a = _check_symmetric(a, "A")
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"b has leading dimension {b.shape[0]}, A is {a.shape[0]} square")
    return cho_solve((_cholesky_lower(a), True), b, check_finite=False)


def pinv(a, tol: float = 1e-12) -> np.ndarray:
    """Moore-Penrose pseudo-inverse; tol is relative to the largest singular value."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    return np.linalg.pinv(np.asarray(a, dtype=np.float64), rcond=tol)


def sym_eig_top(a, r: int, check: bool = True):
    """Top-r eigenpairs (values, vectors) of symmetric `a`: values
    descending, vectors (dim, r) with sign-fixed columns.

    r larger than the dimension clamps with a warning.  One dsyevr call, as
    scipy's eigh(subset_by_index=...) makes, without its per-call overhead.
    `a` must be square, finite and symmetric to 1e-10 of its largest entry,
    else ValueError; `check=False` skips that pass for a float64 `a`
    symmetric by construction (every fit's Grams and pencils), which is
    still symmetrized, and a non-finite entry fails in dsyevr
    (LinAlgError).
    """
    if check:
        a = _check_symmetric(a, "A")
    if r < 1:
        raise ValueError("r must be >= 1")
    if r > a.shape[0]:
        warnings.warn(f"eigenpair count {r} clamped to dimension {a.shape[0]}", stacklevel=2)
        r = a.shape[0]
    n = a.shape[0]
    work, iwork, _ = lapack.dsyevr_lwork(n, lower=1)
    # the top r pairs only, ascending; sym.T is sym, and column-major, so not copied
    sym = (a + a.T) / 2.0
    w, v, found, _, info = lapack.dsyevr(
        sym.T, range="I", lower=1, il=n - r + 1, iu=n, lwork=int(work), liwork=int(iwork), overwrite_a=1
    )
    if info != 0 or found != r:
        raise np.linalg.LinAlgError(f"dsyevr failed with info {info} ({found} of {r} pairs)")
    return w[r - 1 :: -1], _fix_signs(v[:, ::-1])


def gen_sym_eig_top(s, m, r: int):
    """Top-r eigenpairs of the pencil S u = lambda M u (S PSD, M PD).

    Whitened through the Cholesky factor of M: with M = L L^T the problem
    becomes the ordinary symmetric one for L^-1 S L^-T, and solutions map back
    as u = L^-T w, which makes the returned columns M-orthonormal.

    Returns (values, vectors); vectors is (dim, r), sign-fixed.
    Raises NotPositiveDefiniteError when M is not positive definite.

    The fits do not use it; it is the tests' reference solver, accurate only
    for a well-conditioned M: whitening leaves the small end of the spectrum
    as rounding noise (X^T X + 1e-4 I, N = 50, d0 = 160: it reads
    lambda_20 / lambda_1 = 2.6e-9 where the true ratio is 2.2e-17).
    """
    s = _check_symmetric(s, "S")
    m = _check_symmetric(m, "M")
    if s.shape != m.shape:
        raise ValueError(f"S is {s.shape}, M is {m.shape}")
    if r < 1:
        raise ValueError("r must be >= 1")
    if r > m.shape[0]:
        warnings.warn(f"eigenpair count {r} clamped to dimension {m.shape[0]}", stacklevel=2)
        r = m.shape[0]
    ell = _cholesky_lower(m)
    half = solve_triangular(ell, s, lower=True)
    white = solve_triangular(ell, half.T, lower=True)
    w, v = eigh((white + white.T) / 2.0, subset_by_index=[m.shape[0] - r, m.shape[0] - 1])
    back = solve_triangular(ell.T, v[:, ::-1], lower=False)
    return w[::-1], _fix_signs(back)
