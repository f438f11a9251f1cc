"""Property tests: holrr and linear-kernel kholrr predictions do not depend on
the order of the training rows or on an orthogonal change of input basis, and
are unchanged by x -> c x with gamma -> c^2 gamma, including gamma = 0 with
rank-deficient X (the singular-Gram cutoff is relative to the data's scale).

The data has a planted multilinear rank and little noise, so every cut sits
at a clear spectral gap and the fitted subspaces are well defined.

The layout property: a model predicts the same bits for C-ordered,
column-major and strided copies of the same rows, primal or kernel.

The contraction property: on random Tucker models of order 2-5 (factors kept
or None, C- or F-ordered cores, flat p = 1 presets), a single-row prediction
equals the batch row and the dense coefficient contraction, and one
`multi_mode_product` call is bitwise the chain of single mode products.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorreg.datagen import random_lowrank_tensor
from tensorreg.regress import (
    HolrrModel,
    KernelSpec,
    RegressionProblem,
    gram,
    holrr_fit,
    holrr_predict,
    holrr_predict_batch,
    kholrr_fit,
)
from tensorreg.tensor import TuckerFactors, dematricize, matricize, mode_product, multi_mode_product

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


tucker_models = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**31 - 1),
        "order": st.integers(2, 5),
        "kept": st.lists(st.booleans(), min_size=5, max_size=5),  # mode i keeps a factor
        "fortran": st.booleans(),
        "flat": st.booleans(),  # order 2 with no output factor: the rls/lrr/krls/klrr presets
    }
)


def _tucker_model(seed, order, kept, fortran, flat):
    rng = np.random.default_rng(seed)
    if flat:
        order, kept = 2, [kept[0], False]
    ranks = tuple(int(r) for r in rng.integers(1, 4, size=order))
    core = rng.standard_normal(ranks)
    core = np.asfortranarray(core) if fortran else np.ascontiguousarray(core)
    # orthonormal columns, as every fit's factors have; a factor of None is the identity
    factors = [
        np.linalg.qr(rng.standard_normal((r + int(rng.integers(0, 3)), r)))[0] if keep else None
        for r, keep in zip(ranks, kept)
    ]
    model = HolrrModel(TuckerFactors(core=core, factors=factors), ranks, 0.0)
    return model, rng.standard_normal((3, model.factors.shape[0]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tucker_models)
def test_one_contraction_serves_every_predict(case):
    model, x = _tucker_model(**case)
    tf = model.factors
    batch = holrr_predict_batch(model, x)
    dense = np.tensordot(x, model.coefficients(), axes=(1, 0))
    for i in range(len(x)):
        row = holrr_predict(model, x[i])
        assert row.shape == tf.shape[1:]
        assert np.max(np.abs(row - batch[i])) <= 1e-12
        assert np.max(np.abs(row - dense[i])) <= 1e-12

    # one call is bitwise the chain of single products, each of them the
    # matricized definition dematricize(u @ matricize(t, i), i, shape)
    chain = definition = tf.core
    for i, u in enumerate(tf.factors):
        if u is not None:
            chain = mode_product(chain, u, i)
            shape = list(definition.shape)
            shape[i] = u.shape[0]
            definition = dematricize(u @ matricize(definition, i), i, shape)
    whole = multi_mode_product(tf.core, tf.factors)
    assert np.array_equal(whole, chain) and np.array_equal(whole, definition)


layouts = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**31 - 1),
        "n": st.integers(1, 30),
        "d0": st.integers(2, 48),
        "r0": st.integers(1, 48),  # at or above min(N, d0): no factor 0
        "kernel": st.sampled_from([None, "linear", "rbf:3", "poly:2"]),
    }
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(layouts)
def test_predictions_do_not_depend_on_the_row_layout(case):
    rng = np.random.default_rng(case["seed"])
    d0, n = case["d0"], case["n"]
    x, y = rng.standard_normal((20, d0)), rng.standard_normal((20, 4, 3))
    ranks = (case["r0"], 2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if case["kernel"] is None:
            model = holrr_fit(RegressionProblem(x, y, ranks, 1e-3))
        else:
            spec = KernelSpec.from_string(case["kernel"])
            model = kholrr_fit(gram(x, spec), y, ranks, 1e-3, x, spec)
    rows = rng.standard_normal((n, d0))
    strided = np.zeros((2 * n, 3 * d0))
    strided[::2, ::3] = rows
    preds = {model.predict(r).tobytes() for r in (rows, np.asfortranarray(rows), strided[::2, ::3])}
    assert len(preds) == 1
