"""Property tests: holrr and linear-kernel kholrr predictions do not depend on
the order of the training rows or on an orthogonal change of input basis, and
are unchanged by x -> c x with gamma -> c^2 gamma, including gamma = 0 with
rank-deficient X (the singular-Gram cutoff is relative to the data's scale).

The data has a planted multilinear rank and little noise, so every cut sits
at a clear spectral gap and the fitted subspaces are well defined.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorreg.datagen import random_lowrank_tensor
from tensorreg.regress import KernelSpec, RegressionProblem, gram, holrr_fit, kholrr_fit

RANKS = (2, 2, 2)
SETTINGS = settings(max_examples=15, deadline=None, derandomize=True)

cases = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**31 - 1),
        "n": st.integers(8, 24),
        "d0": st.integers(3, 7),
        "gamma": st.sampled_from([0.0, 1e-3, 1.0]),
    }
)


def _planted(seed, n, d0, gamma):
    rng = np.random.default_rng(seed)
    w = random_lowrank_tensor((d0, 4, 3), RANKS, seed=seed)
    x = rng.standard_normal((n + 5, d0))
    if gamma == 0:
        x[:, -1] = x[:, 0]  # X^T X singular: the fits take the pseudo-inverse pencil
    y = np.einsum("ni,ijk->njk", x, w) + 1e-2 * rng.standard_normal((n + 5, 4, 3))
    return x[:n], y[:n], x[n:], rng


def _predictions(x, y, x_test, gamma):
    spec = KernelSpec(kind="linear")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        primal = holrr_fit(RegressionProblem(x, y, RANKS, gamma))
        dual = kholrr_fit(gram(x, spec), y, RANKS, gamma, x, spec)
    return primal.predict(x_test), dual.predict(x_test)


def _assert_same(got, want):
    for g, w in zip(got, want):
        assert np.linalg.norm(g - w) <= 1e-8 * np.linalg.norm(w)


@SETTINGS
@given(cases)
def test_predictions_invariant_to_training_row_order(case):
    x, y, x_test, rng = _planted(**case)
    perm = rng.permutation(len(x))
    _assert_same(
        _predictions(x[perm], y[perm], x_test, case["gamma"]),
        _predictions(x, y, x_test, case["gamma"]),
    )


@SETTINGS
@given(cases)
def test_predictions_invariant_to_orthogonal_input_rotation(case):
    x, y, x_test, rng = _planted(**case)
    q = np.linalg.qr(rng.standard_normal((x.shape[1],) * 2))[0]
    _assert_same(
        _predictions(x @ q, y, x_test @ q, case["gamma"]),
        _predictions(x, y, x_test, case["gamma"]),
    )


@SETTINGS
@given(cases, st.sampled_from([1e-8, 1e-4, 1e-2, 10.0, 1e4]))
def test_predictions_equivariant_to_input_scale(case, c):
    x, y, x_test, _ = _planted(**case)
    gamma = case["gamma"]
    _assert_same(
        _predictions(c * x, y, c * x_test, c * c * gamma),
        _predictions(x, y, x_test, gamma),
    )
