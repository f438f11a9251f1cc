"""Symmetric solvers shared by the regression code.

Everything is dense LAPACK: these matrices top out at a few thousand square,
so full decompositions are fine and bit-deterministic on one platform.

Eigenvector sign convention used throughout: the largest-magnitude entry of
each returned eigenvector is positive (first such entry on ties), so repeated
fits serialize identically.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, lapack, solve_triangular

from .tensor import _fix_signs

__all__ = [
    "NotPositiveDefiniteError",
    "SymEigResult",
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
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    if float(np.max(np.abs(a - a.T))) > _SYM_TOL * scale:
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
    vec = b.ndim == 1
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"b has leading dimension {b.shape[0]}, A is {a.shape[0]} square")
    c = _cholesky_lower(a)
    x, info = lapack.dpotrs(c, b if not vec else b[:, None], lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpotrs failed with info {info}")
    return x[:, 0] if vec else x


def pinv(a, tol: float = 1e-12) -> np.ndarray:
    """Moore-Penrose pseudo-inverse; tol is relative to the largest singular value."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    return np.linalg.pinv(np.asarray(a, dtype=np.float64), rcond=tol)


@dataclass
class SymEigResult:
    """Top eigenpairs of a symmetric matrix, eigenvalues descending."""

    values: np.ndarray
    vectors: np.ndarray
    clamped: bool = False


def sym_eig_top(a, r: int) -> SymEigResult:
    """Top-r eigenpairs of symmetric `a`, descending, sign-fixed columns.

    r larger than the dimension clamps with a warning.
    """
    a = _check_symmetric(a, "A")
    if r < 1:
        raise ValueError("r must be >= 1")
    clamped = False
    if r > a.shape[0]:
        warnings.warn(f"eigenpair count {r} clamped to dimension {a.shape[0]}", stacklevel=2)
        r = a.shape[0]
        clamped = True
    # eigh returns only the requested top r pairs, ascending
    w, v = eigh((a + a.T) / 2.0, subset_by_index=[a.shape[0] - r, a.shape[0] - 1])
    return SymEigResult(values=w[::-1], vectors=_fix_signs(v[:, ::-1]), clamped=clamped)


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
