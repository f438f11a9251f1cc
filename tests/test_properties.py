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
equals the batch row and the dense coefficient contraction, whichever order
its model takes (the examples reach both v^T C_(0) and the chain), a model
and its `load_model` copy give the same bits for every row, and one
`multi_mode_product` call is bitwise the chain of single mode products.

The invariance suite, for all six methods of `harness.fit_method` on random
data: permuting the training rows leaves the predictions unchanged, and
rotating one output mode of Y by an orthogonal Q rotates them by the same Q,
within 1e-10 relative.  And a fitted model predicts the bits of its own file:
`predict`, `predict_blocks` and single-row predictions of the model equal
those of `load_model(save_model(model))`, for C- and F-ordered Y.  Every
predict entry point takes input rows, for every model: the single-row
functions give the same bits, and so do the batch ones and the joined
blocks, each single row within 1e-12 of its batch row.
"""

import io
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorreg.datagen import random_lowrank_tensor
from tensorreg.harness import METHODS, fit_method
from tensorreg.regress import (
    HolrrModel,
    KernelSpec,
    RegressionProblem,
    gram,
    holrr_fit,
    holrr_predict,
    holrr_predict_batch,
    kholrr_fit,
    kholrr_predict,
    kholrr_predict_batch,
    load_model,
    predict_blocks,
    save_model,
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
    model = HolrrModel(TuckerFactors(core=core, factors=factors), 0.0)
    return model, rng.standard_normal((3, model.factors.shape[0]))


def test_one_contraction_serves_every_predict():
    orders = set()  # True where a model's rows take v^T C_(0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(tucker_models)
    def check(case):
        model, x = _tucker_model(**case)
        tf = model.factors
        batch = holrr_predict_batch(model, x)
        dense = np.tensordot(x, model.coefficients(), axes=(1, 0))
        f = io.BytesIO()
        save_model(model, f)
        loaded = load_model(io.BytesIO(f.getvalue()))
        for i in range(len(x)):
            row = holrr_predict(model, x[i])
            assert row.shape == tf.shape[1:]
            assert np.max(np.abs(row - batch[i])) <= 1e-12
            assert np.max(np.abs(row - dense[i])) <= 1e-12
            assert row.tobytes() == holrr_predict(loaded, x[i]).tobytes()
        orders.add(model._row_terms[1] is not None)

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

    check()
    assert orders == {False, True}


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


def _random_problem(seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((25, 6)), rng.standard_normal((25, 4, 5, 3)), rng.standard_normal((7, 6)), rng


def _fit_every_method(x, y):
    """{method: model} of every `fit_method` method; lrr and klrr keep rank 3."""
    spec = KernelSpec(kind="rbf", sigma=3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return {m: fit_method(m, x, y, 1e-2, (3, 2, 3, 2), spec) for m in METHODS}


def _assert_close(got, want):
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(0, 2**31 - 1))
def test_every_method_is_invariant_to_training_row_order(seed):
    x, y, x_test, rng = _random_problem(seed)
    perm = rng.permutation(len(x))
    permuted = _fit_every_method(x[perm], y[perm])
    for method, model in _fit_every_method(x, y).items():
        _assert_close(permuted[method].predict(x_test), model.predict(x_test))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(0, 2**31 - 1), st.integers(1, 3))
def test_every_method_is_equivariant_to_output_mode_rotation(seed, mode):
    x, y, x_test, rng = _random_problem(seed)
    q = np.linalg.qr(rng.standard_normal((y.shape[mode],) * 2))[0]
    rotated = _fit_every_method(x, mode_product(y, q, mode))
    for method, model in _fit_every_method(x, y).items():
        _assert_close(rotated[method].predict(x_test), mode_product(model.predict(x_test), q, mode))


@settings(max_examples=5, deadline=None, derandomize=True)
@given(st.integers(0, 2**31 - 1))
def test_a_fitted_model_predicts_the_bits_of_its_file(seed):
    x, y, x_test, _ = _random_problem(seed)
    for layout in (np.ascontiguousarray, np.asfortranarray):
        for method, model in _fit_every_method(x, layout(y)).items():
            f = io.BytesIO()
            save_model(model, f)
            loaded = load_model(io.BytesIO(f.getvalue()))
            assert model.predict(x_test).tobytes() == loaded.predict(x_test).tobytes(), method
            streams = [b"".join(b.tobytes() for b in predict_blocks(m, x_test)[1]()) for m in (model, loaded)]
            assert streams[0] == streams[1], method
            row = kholrr_predict if model.kernel is not None else holrr_predict
            for r in x_test:
                assert row(model, r).tobytes() == row(loaded, r).tobytes(), method


@settings(max_examples=5, deadline=None, derandomize=True)
@given(st.integers(0, 2**31 - 1))
def test_every_predict_entry_point_takes_input_rows(seed):
    x, y, x_test, _ = _random_problem(seed)
    for method, fitted in _fit_every_method(x, y).items():
        f = io.BytesIO()
        save_model(fitted, f)
        for model in (fitted, load_model(io.BytesIO(f.getvalue()))):
            assert (model.kernel is not None) == method.startswith("k"), method
            batch = model.predict(x_test)
            shape, blocks = predict_blocks(model, x_test)
            joined = np.concatenate([b.copy() for b in blocks()], axis=1).reshape(shape, order="F")
            for other in (holrr_predict_batch(model, x_test), kholrr_predict_batch(model, x_test), joined):
                assert other.tobytes() == batch.tobytes(), method
            for i, r in enumerate(x_test):
                row = holrr_predict(model, r)
                assert row.tobytes() == kholrr_predict(model, r).tobytes(), method
                assert np.max(np.abs(row - batch[i])) <= 1e-12, method
