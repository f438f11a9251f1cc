import dataclasses
import functools
import io
import json
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg

import oracles
from tensorreg import linalg, regress
from tensorreg.datagen import (
    SynthSpec,
    gen_linear_synthetic,
    random_lowrank_tensor,
    square_features,
)
from tensorreg.harness import fit_method
from tensorreg.linalg import gen_sym_eig_top
from tensorreg.regress import (
    HolrrModel,
    KernelSpec,
    RegressionProblem,
    gram,
    holrr_fit,
    holrr_predict,
    holrr_predict_batch,
    kernel_cross,
    kholrr_fit,
    kholrr_predict,
    kholrr_predict_batch,
    load_model,
    lrr_fit,
    rls_fit,
    save_model,
)
from tensorreg.tensor import (
    TuckerFactors,
    matricize,
    mode_product,
    tucker_reconstruct,
    vectorize,
    write_dten,
)


def small_problem(seed, n=30, dims=(4, 5, 3, 4), ranks=(3, 2, 2, 3), gamma=1e-3, noise=0.05):
    spec = SynthSpec(
        input_dim=dims[0],
        output_dims=dims[1:],
        ranks=ranks,
        n_train=n,
        n_test=10,
        noise_std=noise,
        seed=seed,
    )
    data = gen_linear_synthetic(spec)
    return RegressionProblem(x=data.x_train, y=data.y_train, ranks=ranks, gamma=gamma), data


# --- rls ------------------------------------------------------------------


def test_rls_scalar_frozen():
    x = np.array([[1.0], [2.0]])
    y = np.array([[1.0], [2.0]])
    np.testing.assert_allclose(rls_fit(x, y, 0.0), [[1.0]], atol=1e-14)
    np.testing.assert_allclose(rls_fit(x, y, 1.0), [[5.0 / 6.0]], atol=1e-14)


def test_rls_matches_normal_equations():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20, 6))
    y = rng.standard_normal((20, 4))
    for gamma in (1e-3, 1.0):
        w = rls_fit(x, y, gamma)
        ref = np.linalg.solve(x.T @ x + gamma * np.eye(6), x.T @ y)
        np.testing.assert_allclose(w, ref, atol=1e-10)


def test_rls_singular_falls_back_to_min_norm():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((10, 3))
    x = np.hstack([x, x[:, :1]])  # dependent column
    y = rng.standard_normal((10, 2))
    with pytest.warns(UserWarning, match="pseudo-inverse"):
        w = rls_fit(x, y, 0.0)
    ref = np.linalg.lstsq(x, y, rcond=None)[0]
    np.testing.assert_allclose(w, ref, atol=1e-8)


def test_rls_and_lrr_match_the_augmented_least_squares_oracle():
    # nearly rank-deficient X (rank 8 plus 1e-3 noise, 50 x 160) at gamma =
    # 1e-4, where normal equations (the squared condition number) lose 1e-9
    gamma = 1e-4
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x, x_test = (rng.standard_normal((n, 8)) @ rng.standard_normal((8, 160)) for n in (50, 20))
        x = x + 1e-3 * rng.standard_normal(x.shape)
        y = rng.standard_normal((50, 12))
        aug_x = np.vstack([x, np.sqrt(gamma) * np.eye(160)])
        w_ls = np.linalg.lstsq(aug_x, np.vstack([y, np.zeros((160, 12))]), rcond=None)[0]
        # lrr at rank 3: the oracle ridge solution projected on the top
        # eigenvectors of Y^T P Y = Y^T X W_ls
        v = np.linalg.eigh(y.T @ (x @ w_ls))[1][:, ::-1][:, :3]
        for w, w_ref in ((rls_fit(x, y, gamma), w_ls), (lrr_fit(x, y, 3, gamma), w_ls @ v @ v.T)):
            ref = x_test @ w_ref
            assert np.linalg.norm(x_test @ w - ref) <= 1e-10 * np.linalg.norm(ref), seed


def test_rls_validation():
    with pytest.raises(ValueError, match="gamma"):
        rls_fit(np.eye(2), np.eye(2), -1.0)
    with pytest.raises(ValueError, match="2 input rows but 3 output slices"):
        rls_fit(np.eye(2), np.zeros((3, 1)), 0.0)
    with pytest.raises(ValueError, match="y_flat must be a matrix"):
        rls_fit(np.eye(2), np.zeros((2, 1, 1)), 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rls_and_lrr_reject_non_finite_data(bad):
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal((12, 4)), rng.standard_normal((12, 3))
    for fit in (lambda a, b: rls_fit(a, b, 1e-3), lambda a, b: lrr_fit(a, b, 2, 1e-3)):
        for side in (0, 1):
            data = [x.copy(), y.copy()]
            data[side][3, 1] = bad
            with pytest.raises(ValueError, match="training data must be finite"):
                fit(*data)


# --- lrr ------------------------------------------------------------------


def test_lrr_recovers_rank_one_map():
    rng = np.random.default_rng(2)
    u = rng.standard_normal((5, 1))
    v = rng.standard_normal((1, 7))
    w_true = u @ v
    x = rng.standard_normal((40, 5))
    y = x @ w_true
    w = lrr_fit(x, y, 1, 0.0)
    np.testing.assert_allclose(w, w_true, atol=1e-8)


def test_lrr_full_rank_passthrough_and_clamp():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((15, 4))
    y = rng.standard_normal((15, 3))
    base = rls_fit(x, y, 0.1)
    np.testing.assert_array_equal(lrr_fit(x, y, 3, 0.1), base)
    with pytest.warns(UserWarning, match="clamped"):
        np.testing.assert_array_equal(lrr_fit(x, y, 9, 0.1), base)
    with pytest.warns(UserWarning, match="clamped"):
        w = lrr_fit(x, y, 0, 0.1)
    assert np.linalg.matrix_rank(w, tol=1e-10) <= 1


def test_lrr_rank_bound_and_loss():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((30, 6))
    y = rng.standard_normal((30, 8))
    for r in (1, 2, 4):
        w = lrr_fit(x, y, r, 1e-2)
        assert np.linalg.matrix_rank(w, tol=1e-10) <= r
    # more rank never hurts the ridge objective here
    losses = [
        oracles.ridge_loss(lrr_fit(x, y, r, 1e-2), x, y, 1e-2) for r in (1, 2, 4, 8)
    ]
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_lrr_takes_one_thin_svd_of_x(monkeypatch):
    # W_RLS and the ridge hat matrix P of Y^T P Y share one decomposition
    rng = np.random.default_rng(5)
    x = rng.standard_normal((30, 6))
    y = rng.standard_normal((30, 8))
    gamma = 1e-2
    q, lam, _, _ = regress._input_side(x)
    e = np.sqrt(lam * regress._ridge_inverse(lam, gamma))[:, None] * (q.T @ y)
    _, v = linalg.sym_eig_top(e.T @ e, 3)
    expect = rls_fit(x, y, gamma) @ v @ v.T
    calls, svd = [], np.linalg.svd

    def spy(a, *args, **kw):
        calls.append(a.shape)
        return svd(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "svd", spy)
    np.testing.assert_array_equal(lrr_fit(x, y, 3, gamma), expect)
    assert calls == [x.shape]
    # the fit still checks its problem first and warns a singular input Gram
    with pytest.raises(ValueError, match="finite"):
        lrr_fit(np.full_like(x, np.nan), y, 3, gamma)
    x[:, 0] = 0.0
    with pytest.warns(UserWarning, match="pseudo-inverse"):
        lrr_fit(x, y, 3, 0.0)


# --- holrr ----------------------------------------------------------------


def test_holrr_interpolates_noiseless_full_rank():
    # N = d0 square invertible X, gamma = 0, exact ranks: residual vanishes
    for seed in range(3):
        data = gen_linear_synthetic(
            SynthSpec(
                input_dim=6,
                output_dims=(4, 3, 5),
                ranks=(4, 3, 2, 3),
                n_train=6,
                n_test=5,
                noise_std=0.0,
                seed=seed,
            )
        )
        prob = RegressionProblem(data.x_train, data.y_train, (4, 3, 2, 3), 0.0)
        model = holrr_fit(prob)
        pred = holrr_predict_batch(model, data.x_train)
        rel = np.linalg.norm(pred - data.y_train) / np.linalg.norm(data.y_train)
        assert rel <= 1e-7


def test_holrr_full_ranks_equals_rls():
    prob, _ = small_problem(5, ranks=(4, 5, 3, 4))
    model = holrr_fit(prob)
    w = model.coefficients()
    w_rls = rls_fit(prob.x, matricize(prob.y, 0), prob.gamma)
    np.testing.assert_allclose(
        w.reshape(w.shape[0], -1, order="F"), w_rls, atol=1e-8
    )


def test_holrr_coefficients_obey_rank_constraint():
    prob, _ = small_problem(6)
    model = holrr_fit(prob)
    got = oracles.multilinear_rank(model.coefficients(), tol=1e-8)
    assert all(g <= r for g, r in zip(got, prob.ranks))
    assert model.ranks == prob.ranks
    assert model.factors.max_orthonormality_defect() <= 1e-10


def test_holrr_predict_is_coefficient_contraction():
    prob, data = small_problem(7)
    model = holrr_fit(prob)
    w = model.coefficients()
    for i in range(4):
        x = data.x_test[i]
        ref = oracles.mode_vector_product(w, x, 0)
        np.testing.assert_allclose(holrr_predict(model, x), ref, atol=1e-10)
    batch = holrr_predict_batch(model, data.x_test[:4])
    singles = np.stack([holrr_predict(model, data.x_test[i]) for i in range(4)])
    np.testing.assert_allclose(batch, singles, atol=1e-10)
    assert batch.shape == (4,) + data.y_test.shape[1:]


def test_holrr_prediction_rank_bound():
    prob, data = small_problem(8)
    model = holrr_fit(prob)
    pred = holrr_predict_batch(model, data.x_test)
    got = oracles.multilinear_rank(pred, tol=1e-8)
    # output modes of the stacked predictions live in the fitted subspaces
    assert all(g <= r for g, r in zip(got[1:], prob.ranks[1:]))


def test_holrr_matrix_case_within_factor_two_of_lrr():
    # order-1 outputs: the guarantee gives loss(holrr) <= 2 * loss(any rank-R map)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((40, 6))
    w_true = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 7))
    y = x @ w_true + 0.1 * rng.standard_normal((40, 7))
    gamma = 1e-2
    prob = RegressionProblem(x, y, (2, 2), gamma)
    model = holrr_fit(prob)
    loss_h = oracles.ridge_loss(model.coefficients(), x, y, gamma)
    loss_l = oracles.ridge_loss(lrr_fit(x, y, 2, gamma), x, y, gamma)
    assert loss_h <= 2.0 * loss_l + 1e-9


def test_holrr_loss_beats_sampled_low_rank_maps_up_to_factor():
    prob, _ = small_problem(10, n=25, noise=0.1)
    model = holrr_fit(prob)
    loss_fit = oracles.ridge_loss(model.coefficients(), prob.x, prob.y, prob.gamma)
    p_plus_1 = prob.y.ndim  # input mode plus output modes
    dims = (prob.x.shape[1],) + prob.y.shape[1:]
    rng = np.random.default_rng(11)
    for k in range(50):
        w = random_lowrank_tensor(dims, prob.ranks, seed=1000 + k)
        w = w * float(rng.uniform(0.2, 2.0))
        loss_other = oracles.ridge_loss(w, prob.x, prob.y, prob.gamma)
        assert loss_fit <= p_plus_1 * loss_other + 1e-9


def test_holrr_zero_outputs():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((10, 4))
    y = np.zeros((10, 3, 2))
    model = holrr_fit(RegressionProblem(x, y, (2, 2, 2), 1e-3))
    assert np.all(model.factors.core == 0)
    pred = holrr_predict_batch(model, x)
    assert np.all(pred == 0)
    assert np.isfinite(model.coefficients()).all()


def test_holrr_rank_clamping_recorded():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((10, 4))
    y = rng.standard_normal((10, 3, 2))
    with pytest.warns(UserWarning, match="clamped"):
        model = holrr_fit(RegressionProblem(x, y, (9, 5, 2), 1e-3))
    assert model.ranks == (4, 3, 2)
    assert model.warnings == ("rank 9 clamped to 4 at mode 0", "rank 5 clamped to 3 at mode 1")


@pytest.mark.parametrize("method", ["rls", "lrr", "holrr", "krls", "klrr", "kholrr"])
def test_model_ranks_are_the_core_shape(method):
    # a model's ranks are read from its core, fitted or loaded, and cannot be set apart from it
    rng = np.random.default_rng(16)
    x, y = rng.standard_normal((12, 5)), rng.standard_normal((12, 4, 3))
    spec = KernelSpec(kind="rbf", sigma=2.0) if method.startswith("k") else None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # ranks (9, 9, 2) clamp
        models = [fit_method(method, x, y, 1e-2, ranks, spec) for ranks in ((2, 2, 2), (9, 9, 2), (3, 4, 3))]
    for model in models:
        buf = io.BytesIO()
        save_model(model, buf)
        back = load_model(io.BytesIO(buf.getvalue()))
        for m in (model, back):
            assert m.ranks == m.factors.core.shape and all(type(r) is int for r in m.ranks)
        assert "ranks" not in {f.name for f in dataclasses.fields(model)}
        with pytest.raises(TypeError):
            dataclasses.replace(model, ranks=(9, 9, 9))
    assert models[1].ranks[1] == 4


def test_holrr_gamma_zero_rank_deficient_inputs():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((12, 3))
    x = np.hstack([x, x[:, :1]])
    y = rng.standard_normal((12, 3, 2))
    with pytest.warns(UserWarning, match="pseudo-inverse pencil"):
        model = holrr_fit(RegressionProblem(x, y, (2, 2, 2), 0.0))
    assert any("pseudo-inverse" in w for w in model.warnings)
    assert np.isfinite(holrr_predict_batch(model, x)).all()


def test_a_full_rank_output_mode_keeps_no_factor_and_runs_no_eigh(monkeypatch):
    # modes 1 and 3 at full rank (5 and 4); mode 2 cut to 2 of 3
    prob, data = small_problem(47, dims=(6, 5, 3, 4), ranks=(2, 5, 2, 4))
    spec = KernelSpec(kind="rbf", sigma=3.0)
    real, sizes = linalg.sym_eig_top, []
    monkeypatch.setattr(linalg, "sym_eig_top", lambda a, r, **kw: sizes.append(len(a)) or real(a, r, **kw))
    fits = [
        (lambda: holrr_fit(prob), 6),
        (lambda: kholrr_fit(gram(prob.x, spec), prob.y, prob.ranks, prob.gamma, prob.x, spec), 30),
    ]
    for fit, pencil in fits:
        sizes.clear()
        model = fit()
        assert sorted(sizes) == [3, pencil]  # the input pencil and mode 2 only
        assert [u is None for u in model.factors.factors[1:]] == [True, False, True]
        # the same fit with the full eigenbases of modes 1 and 3 stored
        core, factors = model.factors.core, list(model.factors.factors)
        for i in (1, 3):
            yi = matricize(prob.y, i)
            factors[i] = np.linalg.eigh(yi @ yi.T)[1]
            core = mode_product(core, factors[i].T, i)
        explicit = dataclasses.replace(model, factors=TuckerFactors(core, factors))
        want = explicit.predict(data.x_test)
        assert np.linalg.norm(model.predict(data.x_test) - want) <= 1e-12 * np.linalg.norm(want)


def test_gamma_zero_training_error_never_rises_with_r0():
    # rank-7 X: its last 3 columns repeat the first 3.  R0 past the kept
    # directions clamps to 7 instead of filling U0 with arbitrary columns,
    # up to the primal fit's full rank R0 = d0 = 10, which keeps no U0
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20, 10))
    x[:, 7:] = x[:, :3]
    y = rng.standard_normal((20, 4, 3, 5))
    spec = KernelSpec(kind="linear")
    errors, kernel_errors = [], []
    for r0 in range(1, 11):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = holrr_fit(RegressionProblem(x, y, (r0, 4, 3, 5), 0.0))
            kmodel = kholrr_fit(gram(x, spec), y, (r0, 4, 3, 5), 0.0, x, spec)
        full = r0 == 10
        assert model.ranks[0] == (10 if full else min(r0, 7)) and kmodel.ranks[0] == min(r0, 7)
        assert (model.factors.factors[0] is None) == full
        for m in (model, kmodel):
            clamped = r0 > 7 and not (full and m is model)
            assert (f"rank {r0} clamped to 7 at mode 0" in m.warnings) == clamped
            assert not any("core solve" in w for w in m.warnings)
        assert any("clamped" in str(w.message) for w in caught) == (r0 > 7)
        errors.append(np.sqrt(np.mean((model.predict(x) - y) ** 2)))
        kernel_errors.append(np.sqrt(np.mean((kmodel.predict(x) - y) ** 2)))
    assert all(b <= a * (1 + 1e-12) for a, b in zip(errors, errors[1:])), errors
    np.testing.assert_allclose(kernel_errors, errors, rtol=1e-10)


def test_holrr_refit_is_bit_identical():
    prob, _ = small_problem(15)
    buf1, buf2 = io.BytesIO(), io.BytesIO()
    save_model(holrr_fit(prob), buf1)
    save_model(holrr_fit(prob), buf2)
    assert buf1.getvalue() == buf2.getvalue()


def test_regression_problem_validation():
    x = np.zeros((4, 2))
    y = np.zeros((4, 3))
    with pytest.raises(ValueError, match="matrix"):
        RegressionProblem(np.zeros(4), y, (1, 1), 0.0)
    with pytest.raises(ValueError, match="order-1"):
        RegressionProblem(x, np.zeros(4), (1,), 0.0)
    with pytest.raises(ValueError, match="output slices"):
        RegressionProblem(x, np.zeros((5, 3)), (1, 1), 0.0)
    with pytest.raises(ValueError, match="ranks"):
        RegressionProblem(x, y, (1,), 0.0)
    with pytest.raises(ValueError, match=">= 1"):
        RegressionProblem(x, y, (0, 1), 0.0)
    with pytest.raises(ValueError, match="gamma"):
        RegressionProblem(x, y, (1, 1), -0.5)
    bad = y.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        RegressionProblem(x, bad, (1, 1), 0.0)


@pytest.mark.parametrize("gamma", [np.nan, np.inf])
def test_fits_reject_non_finite_gamma(gamma):
    prob, _ = small_problem(41)
    x, y_flat = prob.x, matricize(prob.y, 0)
    k = gram(x, KernelSpec())
    fits = [
        lambda: RegressionProblem(x, prob.y, prob.ranks, gamma),
        lambda: rls_fit(x, y_flat, gamma),
        lambda: lrr_fit(x, y_flat, 2, gamma),
        lambda: fit_method("krls", x, prob.y, gamma, kernel=KernelSpec()),
        lambda: fit_method("klrr", x, prob.y, gamma, (2,), KernelSpec()),
        lambda: kholrr_fit(k, prob.y, prob.ranks, gamma, x, KernelSpec()),
    ]
    for fit in fits:
        with pytest.raises(ValueError, match="gamma must be finite and >= 0"):
            fit()


def test_holrr_predict_validation():
    prob, _ = small_problem(16)
    model = holrr_fit(prob)
    with pytest.raises(ValueError, match="single input"):
        holrr_predict(model, np.zeros((2, 4)))
    with pytest.raises(ValueError, match="^input has 9 columns, model expects 4$"):  # the batch's message: a row is a batch of one
        holrr_predict(model, np.zeros(9))
    with pytest.raises(ValueError, match="matrix"):
        holrr_predict_batch(model, np.zeros(4))


def test_a_batch_of_no_rows_predicts_an_empty_tensor():
    # primal and kernel models alike: an empty (0, d1..dp), not a reshape error
    prob, data = small_problem(16)
    spec = KernelSpec(kind="rbf", sigma=2.0)
    primal = holrr_fit(prob)
    dual = kholrr_fit(gram(prob.x, spec), prob.y, prob.ranks, prob.gamma, prob.x, spec)
    for predict, model in ((holrr_predict_batch, primal), (holrr_predict_batch, dual),
                           (kholrr_predict_batch, dual), (HolrrModel.predict, dual)):
        out = predict(model, data.x_test[:0])
        assert out.shape == (0, *prob.y.shape[1:]) and out.dtype == np.float64


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_primal_predict_rejects_non_finite_rows(bad):
    # every entry point, fitted and loaded: not a NaN prediction
    prob, data = small_problem(16)
    model = holrr_fit(prob)
    buf = io.BytesIO()
    save_model(model, buf)
    buf.seek(0)
    rows = data.x_test.copy()
    rows[-1, 2] = bad
    for m in (model, load_model(buf)):
        for predict in (lambda: holrr_predict(m, rows[-1]), lambda: holrr_predict_batch(m, rows),
                        lambda: regress.predict_blocks(m, rows), lambda: m.predict(rows)):
            with pytest.raises(ValueError, match="^input rows must be finite$"):
                predict()


def _orthonormal_model(d0, ranks, dims, seed=0):
    rng = np.random.default_rng(seed)
    factors = [np.linalg.qr(rng.standard_normal((d, r)))[0] for d, r in zip((d0, *dims), ranks)]
    return HolrrModel(TuckerFactors(rng.standard_normal(ranks), factors), 1e-3)


def test_each_row_takes_the_cheaper_contraction_order(monkeypatch):
    calls = []
    real = regress.multi_mode_product
    monkeypatch.setattr(regress, "multi_mode_product", lambda *a: calls.append(1) or real(*a))

    def rows(model, x):
        """(rows, multi_mode_product calls) of 100 single-row predicts."""
        calls.clear()
        out = np.stack([holrr_predict(model, x[i % len(x)]) for i in range(100)])
        made = len(calls)
        assert np.max(np.abs(out[: len(x)] - holrr_predict_batch(model, x))) <= 1e-12
        return out, made

    x = np.random.default_rng(1).standard_normal((7, 10))
    # the paper's shape: v^T C_(0) is 6,000 multiply-adds against the chain's
    # 13,248, so C_(0) is formed once and cached
    paper = _orthonormal_model(10, (6, 4, 4, 8), (10, 10, 10))
    first, made = rows(paper, x)
    assert made == 1 and paper._row_terms[1].shape == (6, 1000)
    # fit-predict-mid's shape: the chain, 162,500 against 270,000, on every row
    mid = _orthonormal_model(50, (10, 5, 5, 5), (30, 30, 30))
    assert rows(mid, np.random.default_rng(2).standard_normal((7, 50)))[1] == 100
    assert mid._row_terms[1] is None
    # no output factor (the rls/krls presets): a tie, R0 D either way, takes the chain
    flat = HolrrModel(TuckerFactors(paper.factors.core.reshape(6, -1), [paper.factors.factors[0], None]), 1e-3)
    assert rows(flat, x)[1] == 100 and flat._row_terms[1] is None
    # reassigning the factors recomputes the choice and the cached C_(0)
    paper.factors = dataclasses.replace(paper.factors, core=2.0 * paper.factors.core)
    doubled, made = rows(paper, x)
    assert np.array_equal(doubled, 2.0 * first) and made == 1
    paper.factors = flat.factors
    assert rows(paper, x)[1] == 100 and paper._row_terms[1] is None


# --- kernels ----------------------------------------------------------------


def test_kernel_values_frozen():
    lin = KernelSpec(kind="linear")
    assert kernel_cross(lin, [[1.0, 2.0]], [[3.0, 4.0]])[0, 0] == pytest.approx(11.0)
    poly = KernelSpec(kind="polynomial", degree=2, offset=1.0)
    assert kernel_cross(poly, [[1.0, 0.0]], [[1.0, 0.0]])[0, 0] == pytest.approx(4.0)
    rbf = KernelSpec(kind="rbf", sigma=2.0)
    # ||x-y||^2 = 8 -> exp(-8/8) = e^-1
    got = kernel_cross(rbf, [[0.0, 0.0]], [[2.0, 2.0]])[0, 0]
    assert got == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_gram_matrix_properties():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((12, 3))
    for spec in (
        KernelSpec(kind="linear"),
        KernelSpec(kind="rbf", sigma=1.5),
        KernelSpec(kind="polynomial", degree=3, offset=0.5),
    ):
        k = gram(x, spec)
        assert np.array_equal(k, k.T)
        assert np.linalg.eigvalsh(k).min() >= -1e-8
    k = gram(x, KernelSpec(kind="rbf", sigma=0.7))
    np.testing.assert_allclose(np.diag(k), np.ones(12), atol=1e-12)


def test_kernel_vec_is_gram_column():
    rng = np.random.default_rng(18)
    x = rng.standard_normal((9, 4))
    spec = KernelSpec(kind="rbf", sigma=1.1)
    k = gram(x, spec)
    np.testing.assert_allclose(oracles.kernel_vec(spec, x, x[3]), k[:, 3], atol=1e-12)
    with pytest.raises(ValueError, match="single input"):
        oracles.kernel_vec(spec, x, x[:2])


def test_kernel_cross_validation():
    spec = KernelSpec(kind="linear")
    with pytest.raises(ValueError, match="incompatible"):
        kernel_cross(spec, np.zeros((2, 3)), np.zeros((2, 4)))
    bad = np.zeros((2, 3))
    bad[0, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        kernel_cross(spec, bad, np.zeros((2, 3)))


def _kernel_formula(kernel, xa, xb):
    """The kernel as its formula reads, each step a new array."""
    dots = xa @ xb.T
    if kernel.kind == "linear":
        return dots
    if kernel.kind == "polynomial":
        return (dots + kernel.offset) ** kernel.degree
    sq = regress._row_norms(xa)[:, None] + regress._row_norms(xb)[None, :] - 2.0 * dots
    np.clip(sq, 0.0, None, out=sq)
    return np.exp(-sq / (2.0 * kernel.sigma**2))


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("n, d0", [(0, 3), (1, 1), (7, 300), (100, 5), (33, 4096), (1000, 200), (3, 40000)])
def test_row_norms_keep_the_bits_of_one_sum_per_row(n, d0, layout):
    # summed a block of C-ordered rows at a time (one row per block at
    # d0 = 40000, 163 at d0 = 200, every row in one block at d0 <= 5): each
    # row's sum runs in the order of the whole C-ordered sum
    x = np.asarray(np.random.default_rng(n + d0).standard_normal((n, d0)), order=layout)
    c = np.ascontiguousarray(x)
    assert np.array_equal(regress._row_norms(x), np.sum(c * c, axis=1))


@pytest.mark.parametrize("spec", [KernelSpec(kind="linear"), KernelSpec(kind="polynomial", degree=3, offset=0.5),
                                  KernelSpec(kind="rbf", sigma=1.3)], ids=["linear", "polynomial", "rbf"])
@pytest.mark.parametrize("na, nb", [(1, 1), (7, 300), (300, 1000), (1000, 7), (299, 299)])
def test_kernels_built_in_place_keep_the_bits_of_their_formula(spec, na, nb):
    # rbf rows go in blocks of `_BATCH_BYTES`: 32 rows of 1000 columns, with
    # a shorter last block; the Gram is symmetrized in place, bitwise
    # (G + G^T) / 2
    rng = np.random.default_rng(na + nb)
    xa, xb = rng.standard_normal((na, 5)), rng.standard_normal((nb, 5))
    expect = _kernel_formula(spec, xa, xb)
    assert np.array_equal(kernel_cross(spec, xa, xb), expect)
    assert np.array_equal(regress._cross(spec, xa, xb, nb=regress._row_norms(xb)), expect)
    g = _kernel_formula(spec, xb, xb)
    assert np.array_equal(gram(xb, spec), (g + g.T) / 2.0)


def _same_model(a, b):
    assert a.factors.core.tobytes() == b.factors.core.tobytes()
    for ua, ub in zip(a.factors.factors, b.factors.factors):
        assert (ua is None) == (ub is None) and (ua is None or ua.tobytes() == ub.tobytes())
    assert a.dual_values.tobytes() == b.dual_values.tobytes() and a.warnings == b.warnings


@pytest.mark.parametrize("dims", [(4, 3, 2), (4, 3, 5)], ids=["z", "g0"])  # D < N and D >= N
@pytest.mark.parametrize("ranks", [(3, 2, 2, 2), (30, 4, 3, 2)], ids=["cut", "full"])
def test_a_fit_that_forms_its_gram_gives_the_bits_of_a_callers_gram(dims, ranks):
    rng = np.random.default_rng(19)
    x, y = rng.standard_normal((30, 4)), rng.standard_normal((30, *dims))
    spec = KernelSpec(kind="rbf", sigma=2.0)
    expect = kholrr_fit(gram(x, spec), y, ranks, 1e-3, x, spec)
    _same_model(kholrr_fit(None, y, ranks, 1e-3, x, spec), expect)
    _same_model(fit_method("kholrr", x, y, 1e-3, ranks, spec), expect)
    with pytest.raises(ValueError, match="a gram matrix or a kernel"):
        kholrr_fit(None, y, ranks, 1e-3, x, None)


@pytest.mark.parametrize("layout", ["C", "F"])
def test_kholrr_fit_leaves_a_callers_gram_untouched(layout):
    # the fit decomposes a copy: K exactly symmetric, and K asymmetric in its
    # last bit, which is fitted as (K + K^T) / 2
    rng = np.random.default_rng(23)
    x, y = rng.standard_normal((40, 3)), rng.standard_normal((40, 3, 4))
    spec = KernelSpec(kind="rbf", sigma=1.5)
    k = np.array(gram(x, spec), order=layout)
    asym = k.copy(order=layout)
    upper = np.triu_indices(40, 1)
    asym[upper] = np.nextafter(asym[upper], np.inf)
    for gram_k, fitted_as in ((k, k), (asym, (asym + asym.T) / 2.0)):
        before = gram_k.copy(order=layout)
        model = kholrr_fit(gram_k, y, (4, 2, 3), 1e-3, x, spec)
        assert gram_k.tobytes(order="A") == before.tobytes(order="A") and gram_k.flags.f_contiguous == (layout == "F")
        _same_model(model, kholrr_fit(np.ascontiguousarray(fitted_as), y, (4, 2, 3), 1e-3, x, spec))
    assert not np.array_equal(asym, asym.T)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_gram_is_a_data_error(bad):
    # the fit checks its own copy of a caller's K: at a cut R0 an infinity
    # failed in dsyevr and a NaN in dsyevd, and at full R0 an infinity gave
    # a model with a non-finite core
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((20, 3)), rng.standard_normal((20, 3, 2))
    spec = KernelSpec(kind="rbf", sigma=2.0)
    k = gram(x, spec)
    k[4, 5] = k[5, 4] = bad
    for ranks in ((3, 2, 2), (20, 3, 2)):
        with pytest.raises(ValueError, match="^gram matrix must be finite$"):
            kholrr_fit(k, y, ranks, 1e-3, x, spec)


# --- a kernel model computes its training-row terms once ---------------------

KERNELS = (
    KernelSpec(kind="linear"),
    KernelSpec(kind="polynomial", degree=2, offset=0.5),
    KernelSpec(kind="rbf", sigma=2.0),
)


def _kernel_model(spec, seed=31):
    prob, data = small_problem(seed)
    model = kholrr_fit(gram(prob.x, spec), prob.y, prob.ranks, prob.gamma, prob.x, spec)
    return model, data.x_test


@pytest.mark.parametrize("spec", KERNELS, ids=lambda s: s.kind)
def test_kholrr_rows_are_the_uncached_kernel_vector_and_the_batch_rows(spec):
    model, x = _kernel_model(spec)
    batch = kholrr_predict_batch(model, x)
    # the kernel-free model of the same factors, applied to kernel rows
    dual = HolrrModel(model.factors, model.gamma)
    assert model.kernel is not None and dual.kernel is None
    assert np.array_equal(batch, holrr_predict_batch(dual, kernel_cross(spec, x, model.train_inputs)))
    for i in range(len(x)):
        row = kholrr_predict(model, x[i])
        assert np.array_equal(row, holrr_predict(dual, oracles.kernel_vec(spec, model.train_inputs, x[i])))
        assert np.max(np.abs(row - batch[i])) <= 1e-12


def test_kholrr_predict_computes_the_training_row_norms_once(monkeypatch):
    model, x = _kernel_model(KernelSpec(kind="rbf", sigma=2.0))
    rows, np_sum = [], np.sum

    def spy(a, *args, **kw):
        rows.append(np.shape(a)[0])
        return np_sum(a, *args, **kw)

    monkeypatch.setattr(np, "sum", spy)
    for i in range(100):
        kholrr_predict(model, x[i % len(x)])
    kholrr_predict_batch(model, x)
    # the training rows' norms once; each query's own norms on every call
    assert rows.count(len(model.train_inputs)) == 1
    assert rows.count(1) == 100 and rows.count(len(x)) == 1


def test_reassigned_train_inputs_predict_as_a_freshly_built_model():
    model, x = _kernel_model(KernelSpec(kind="rbf", sigma=2.0))
    before = kholrr_predict(model, x[1])
    moved = model.train_inputs + 0.25
    model.train_inputs = moved
    fresh = HolrrModel(model.factors, model.gamma, kernel=model.kernel, train_inputs=moved, dual_values=model.dual_values)
    assert np.array_equal(kholrr_predict(model, x[1]), kholrr_predict(fresh, x[1]))
    assert not np.array_equal(kholrr_predict(model, x[1]), before)
    assert np.array_equal(kholrr_predict_batch(model, x), kholrr_predict_batch(fresh, x))


def test_kernel_model_inputs_are_checked_finite():
    model, x = _kernel_model(KernelSpec(kind="rbf", sigma=2.0))
    bad = model.train_inputs.copy()
    bad[3, 1] = np.nan
    hand = HolrrModel(model.factors, model.gamma, kernel=model.kernel, train_inputs=bad)
    assert hand.kernel is not None
    query = x[0].copy()
    query[2] = np.inf
    kholrr_predict(model, x[0])  # the query keeps its check once the training rows are cached
    for predict, m, q in ((kholrr_predict, hand, x[0]), (kholrr_predict_batch, hand, x),
                          (kholrr_predict, model, query), (kholrr_predict_batch, model, query[None, :])):
        with pytest.raises(ValueError, match="kernel inputs must be finite"):
            predict(m, q)
    with pytest.raises(ValueError, match="single input"):
        kholrr_predict(model, x[:2])


def test_kholrr_predict_names_itself_on_a_non_vector():
    model, x = _kernel_model(KernelSpec(kind="rbf", sigma=2.0))
    for bad in (x[:2], x[0, 0]):
        with pytest.raises(ValueError, match="^kholrr_predict expects a single input vector$"):
            kholrr_predict(model, bad)


def _route_problem(width):
    # N = 40 kernel rows; outputs 5 x 2 x (width / 10) wide
    rng = np.random.default_rng(41)
    x, y = rng.standard_normal((40, 5)), rng.standard_normal((40, 5, 2, width // 10))
    return x, y, rng.standard_normal((9, 5))


def _bitwise_points(a, b):
    # two path points hold the same bits: key, every factor, core, values and notes
    (pa, tfa, va, na), (pb, tfb, vb, nb) = a, b
    assert pa == pb and na == nb and va.tobytes() == vb.tobytes()
    assert tfa.core.shape == tfb.core.shape and tfa.core.tobytes(order="A") == tfb.core.tobytes(order="A")
    for ua, ub in zip(tfa.factors, tfb.factors):
        assert (ua is None) == (ub is None)
        assert ua is None or (ua.shape == ub.shape and ua.tobytes(order="A") == ub.tobytes(order="A"))


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("route, n, d0, dims", [
    ("thin", 30, 6, (4, 3, 5)),  # primal q, N x d0: Z = q^T Y_(0)
    ("z", 40, 5, (3, 2, 3)),  # square (kernel) q with D < N: Z
    ("g0", 20, 5, (4, 3, 5)),  # square q with D >= N: the mode-0 Gram
])
def test_the_path_reads_y_only_through_its_statistics(route, n, d0, dims, layout, monkeypatch):
    # `_statistics` formed from the real Y gives the path the same bits on a Y
    # of NaNs: the path reads nothing of Y but its shape and its statistics
    rng = np.random.default_rng(61)
    x = rng.standard_normal((n, d0))
    y = np.asarray(rng.standard_normal((n, *dims)), order=layout)
    inputs = (x, None) if route == "thin" else (None, functools.partial(gram, x, KernelSpec(kind="rbf", sigma=2.0)))
    dim = d0 if route == "thin" else n
    gammas = [0.0, 1e-3, 0.1, 1.0]
    rank_tuples = [(2, 2, 2, 3), (dim, *dims), (dim + 3, dims[0] + 2, 1, 2), (4, 1, dims[1], dims[2]), (1, 1, 1, 1)]
    expect = list(regress._tucker_path(y, inputs, gammas, rank_tuples)[1])
    real, routes, calls = regress._statistics, [], []
    via_g0 = regress._pencil_via_g0
    with monkeypatch.context() as mp:
        mp.setattr(regress, "_pencil_via_g0", lambda n, w: routes.append(via_g0(n, w)) or routes[-1])
        mp.setattr(regress, "_statistics", lambda y_nan, *args: calls.append(y_nan) or real(y, *args))
        got = list(regress._tucker_path(np.full(y.shape, np.nan, order=layout), inputs, gammas, rank_tuples)[1])
    assert len(calls) == 1 and np.isnan(calls[0]).all()
    assert routes == {"thin": [], "z": [False], "g0": [True]}[route]
    assert len(got) == len(expect) == len(gammas) * len(rank_tuples)
    for a, b in zip(expect, got):
        _bitwise_points(a, b)
    # full rank, a cut and a clamp all ran
    assert any(tf.factors[0] is None for _, tf, _, _ in got) and any(tf.factors[0] is not None for _, tf, _, _ in got)
    assert any(any("clamped" in note for note in notes) for *_, notes in got)


@pytest.mark.parametrize("width", [20, 80])
def test_square_q_pencil_routes_agree(width, monkeypatch):
    # the pencil through Z = q^T Y_(0) and through G_0 give the same fit,
    # with D below N and above it
    x, y, x_test = _route_problem(width)
    spec = KernelSpec(kind="rbf", sigma=2.0)
    preds = []
    for via_g0 in (False, True):
        monkeypatch.setattr(regress, "_pencil_via_g0", lambda n, w, via_g0=via_g0: via_g0)
        model = kholrr_fit(gram(x, spec), y, (4, 3, 2, 2), 1e-3, x, spec)
        preds.append(kholrr_predict_batch(model, x_test))
    assert np.linalg.norm(preds[0] - preds[1]) <= 1e-12 * np.linalg.norm(preds[1])


@pytest.mark.parametrize("width, formed", [(20, False), (30, False), (40, True), (80, True)])
def test_square_q_forms_g0_only_when_the_outputs_are_at_least_n_wide(width, formed, monkeypatch):
    # N = 40: the Z route for D < N (no larger than one N x N, and cheaper),
    # the mode-0 Gram for D >= N; the one first pass forms the pencil's
    # Gram either way, and takes no q exactly on the G_0 route
    x, y, _ = _route_problem(width)
    passes, mode_grams = [], regress._mode_grams

    def spy(y, cut, q=None):
        passes.append((cut[0], q is None))
        return mode_grams(y, cut, q)

    monkeypatch.setattr(regress, "_mode_grams", spy)
    spec = KernelSpec(kind="rbf", sigma=2.0)
    kholrr_fit(gram(x, spec), y, (4, 3, 2, 2), 1e-3, x, spec)
    assert passes == [(True, formed)]


def test_kernel_spec_parsing():
    assert KernelSpec.from_string("linear").kind == "linear"
    spec = KernelSpec.from_string("rbf:0.5")
    assert spec.kind == "rbf" and spec.sigma == 0.5
    spec = KernelSpec.from_string("poly:2")
    assert spec.kind == "polynomial" and spec.degree == 2 and spec.offset == 1.0
    spec = KernelSpec.from_string("polynomial:3,0.5")
    assert spec.degree == 3 and spec.offset == 0.5
    for bad in ("rbf", "linear:1", "poly:1,2,3", "foo", "poly:zzz"):
        with pytest.raises(ValueError, match="kernel"):
            KernelSpec.from_string(bad)


def test_kernel_spec_validation():
    assert KernelSpec(kind="poly").kind == "polynomial"
    with pytest.raises(ValueError, match="unknown kernel"):
        KernelSpec(kind="sigmoid")
    with pytest.raises(ValueError, match="bandwidth"):
        KernelSpec(kind="rbf", sigma=0.0)
    # 2 sigma^2 underflows to 0: the Gram's diagonal would be 0/0
    with pytest.raises(ValueError, match=r"bandwidth must be positive, with 2 sigma\^2 > 0 .*got 1e-300"):
        KernelSpec.from_string("rbf:1e-300")
    # sigma^2 overflows: a ValueError, not Python's OverflowError from sigma**2
    with pytest.raises(ValueError, match=r"bandwidth .*got 1e\+200"):
        KernelSpec.from_string("rbf:1e200")
    with pytest.raises(ValueError, match="degree"):
        KernelSpec(kind="polynomial", degree=0)
    with pytest.raises(ValueError, match="offset"):
        KernelSpec(kind="polynomial", offset=-1.0)


def test_polynomial_kernel_overflow_is_a_value_error():
    # (x.y + 1)^3 past float range: named, not an inf Gram or a RuntimeWarning
    model, x = _kernel_model(KernelSpec(kind="polynomial", degree=3))
    message = r"polynomial kernel \(degree 3, offset 1.0\) overflows on these inputs"
    for rows in (x * 1e120, x[:1] * 1e120):
        with pytest.raises(ValueError, match=message):
            kholrr_predict_batch(model, rows)
    with pytest.raises(ValueError, match=message):
        kholrr_predict(model, x[0] * 1e120)
    with pytest.raises(ValueError, match=message):
        gram(model.train_inputs * 1e120, model.kernel)


# --- dual baselines ---------------------------------------------------------


def test_krls_linear_kernel_matches_rls():
    rng = np.random.default_rng(19)
    x = rng.standard_normal((25, 5))
    y = rng.standard_normal((25, 6))
    gamma = 0.3
    spec = KernelSpec(kind="linear")
    x_test = rng.standard_normal((7, 5))
    pred_dual = fit_method("krls", x, y, gamma, kernel=spec).predict(x_test)
    pred_primal = x_test @ rls_fit(x, y, gamma)
    np.testing.assert_allclose(pred_dual, pred_primal, atol=1e-8)


def test_klrr_linear_kernel_matches_lrr():
    rng = np.random.default_rng(20)
    x = rng.standard_normal((25, 5))
    y = rng.standard_normal((25, 6))
    gamma = 0.3
    spec = KernelSpec(kind="linear")
    x_test = rng.standard_normal((7, 5))
    pred_dual = fit_method("klrr", x, y, gamma, (3,), spec).predict(x_test)
    pred_primal = x_test @ lrr_fit(x, y, 3, gamma)
    np.testing.assert_allclose(pred_dual, pred_primal, atol=1e-8)
    # klrr at R >= D is krls: the same dual coefficients, bit for bit
    krls = tucker_reconstruct(fit_method("krls", x, y, gamma, kernel=spec).factors)
    np.testing.assert_array_equal(tucker_reconstruct(fit_method("klrr", x, y, gamma, (6,), spec).factors), krls)
    with pytest.warns(UserWarning, match="rank 9 clamped to output dimension 6"):
        np.testing.assert_array_equal(tucker_reconstruct(fit_method("klrr", x, y, gamma, (9,), spec).factors), krls)


def test_krls_matches_the_explicit_feature_ridge_oracle():
    # (x.y)^2 on d0 = 10 has 55 features, so K (N = 67) is rank-deficient
    spec = KernelSpec(kind="polynomial", degree=2, offset=0.0)
    gamma = 1e-4
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        x, x_test = rng.standard_normal((67, 10)), rng.standard_normal((15, 10))
        y = rng.standard_normal((67, 7))
        u, sv, vt = np.linalg.svd(square_features(x), full_matrices=False)
        ref = square_features(x_test) @ vt.T @ ((sv / (sv**2 + gamma))[:, None] * (u.T @ y))
        pred = fit_method("krls", x, y, gamma, kernel=spec).predict(x_test)
        assert np.linalg.norm(pred - ref) <= 1e-12 * np.linalg.norm(ref), seed


def test_krls_validation():
    with pytest.raises(ValueError, match="gamma"):
        fit_method("krls", np.eye(3), np.zeros((3, 2)), -1.0, kernel=KernelSpec())


# --- the flat baselines as rank-constrained holrr -------------------------


def test_lrr_equals_holrr_at_full_output_rank_on_flat_outputs():
    # lrr is holrr on vectorized outputs with the output mode kept whole
    for seed in range(20):
        prob, _ = small_problem(100 + seed, dims=(6, 4, 3, 2), ranks=(2, 2, 2, 2), gamma=0.05)
        y_flat = matricize(prob.y, 0)
        w_lrr = lrr_fit(prob.x, y_flat, 2, prob.gamma)
        model = holrr_fit(RegressionProblem(prob.x, y_flat, (2, y_flat.shape[1]), prob.gamma))
        w_holrr = model.coefficients()
        assert np.linalg.norm(w_lrr - w_holrr) <= 1e-12 * np.linalg.norm(w_lrr)


def test_klrr_predictions_equal_kholrr_at_full_output_rank():
    spec = KernelSpec(kind="rbf", sigma=2.0)
    for seed in range(20):
        prob, data = small_problem(200 + seed, dims=(6, 4, 3, 2), ranks=(2, 2, 2, 2), gamma=0.05)
        y_flat = matricize(prob.y, 0)
        k = gram(prob.x, spec)
        p_klrr = matricize(fit_method("klrr", prob.x, prob.y, prob.gamma, (2,), spec).predict(data.x_test), 0)
        model = kholrr_fit(k, y_flat, (2, y_flat.shape[1]), prob.gamma, prob.x, spec)
        p_kholrr = kholrr_predict_batch(model, data.x_test)
        assert np.linalg.norm(p_klrr - p_kholrr) <= 1e-11 * np.linalg.norm(p_klrr)


# --- kernel holrr -----------------------------------------------------------


def kernel_problem(seed, gamma=1e-3):
    prob, data = small_problem(seed, n=25, gamma=gamma)
    spec = KernelSpec(kind="linear")
    k = gram(prob.x, spec)
    return prob, data, spec, k


@pytest.mark.parametrize("spec", [KernelSpec(kind="linear"), KernelSpec(kind="rbf", sigma=10.0)])
def test_kholrr_dual_values_match_the_pencil_at_40_digits(spec):
    """The pencil values against eigsy of D Q^T Y_(0) Y_(0)^T Q D in mpmath,
    with K = Q diag(lam) Q^T and D = sqrt(lam / (lam + gamma)) in 40 digits
    too: an oracle that shares no float64 rounding with the fit.  X is rank
    5 plus 1e-3 noise, so the linear K has cond ~1e8; the outputs follow the
    inputs, as the model assumes (outputs outside the range of X make the
    values as sensitive as K's smallest eigenvalues, ~1e-10 relative)."""
    rng = np.random.default_rng(12)
    x = rng.standard_normal((14, 5)) @ rng.standard_normal((5, 30)) + 1e-3 * rng.standard_normal((14, 30))
    y = mode_product(rng.standard_normal((30, 3, 4)), x, 0) + 0.01 * rng.standard_normal((14, 3, 4))
    gamma = 1e-6
    k = gram(x, spec)
    model = kholrr_fit(k, y, (4, 3, 4), gamma, x, spec)
    with mpmath.workdps(40):
        lam, q = mpmath.eigsy(mpmath.matrix(k.tolist()))
        d = mpmath.diag([mpmath.sqrt(v / (v + gamma)) for v in lam])
        z = q.T * mpmath.matrix(matricize(y, 0).tolist())
        values = mpmath.eigsy(d * z * z.T * d, eigvals_only=True)
        ref = np.array(sorted((float(v) for v in values), reverse=True)[:4])
    assert np.max(np.abs(model.dual_values - ref) / ref) <= 1e-12


def test_holrr_thin_q_factor_spans_the_pencil_eigenspace_at_40_digits():
    """Factor 0 of a primal fit with N > d0 (q thin, the Z route) against
    the top-R0 eigenspace of the pencil (X^T Y_(0) Y_(0)^T X, X^T X + gamma I)
    in mpmath at 40 digits: eigsy of X^T X = V diag(lam) V^T, whitening
    W = V diag((lam + gamma)^-1/2), then eigsy of W^T X^T Y_(0) Y_(0)^T X W,
    whose top eigenvectors c give the pencil directions W c.  X is rank 5
    plus 1e-3 noise, so X^T X has cond ~1e8."""
    gamma, r0 = 1e-6, 4
    for seed in range(4):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((40, 5)) @ rng.standard_normal((5, 12)) + 1e-3 * rng.standard_normal((40, 12))
        y = mode_product(rng.standard_normal((12, 3, 4)), x, 0) + 0.01 * rng.standard_normal((40, 3, 4))
        u0 = holrr_fit(RegressionProblem(x, y, (r0, 3, 4), gamma)).factors.factors[0]
        with mpmath.workdps(40):
            xm = mpmath.matrix(x.tolist())
            lam, v = mpmath.eigsy(xm.T * xm)
            w = v * mpmath.diag([1 / mpmath.sqrt(val + gamma) for val in lam])
            b = w.T * xm.T * mpmath.matrix(matricize(y, 0).tolist())
            values, c = mpmath.eigsy(b * b.T)
            top = sorted(range(12), key=lambda i: -values[i])
            gap = float((values[top[r0 - 1]] - values[top[r0]]) / values[top[r0 - 1]])
            basis = mpmath.qr(w * mpmath.matrix([[c[i, j] for j in top[:r0]] for i in range(12)]), mode="skinny")[0]
            ref = np.array(basis.tolist(), dtype=float)
        assert gap >= 0.1, seed  # the eigenspace is well defined
        assert np.linalg.norm(ref - u0 @ (u0.T @ ref), 2) <= 1e-10, seed  # sin of the largest angle


def test_kholrr_linear_kernel_matches_holrr():
    for seed in range(3):
        prob, data, spec, k = kernel_problem(30 + seed)
        primal = holrr_fit(prob)
        dual = kholrr_fit(k, prob.y, prob.ranks, prob.gamma, prob.x, spec)
        p1 = holrr_predict_batch(primal, data.x_test)
        p2 = kholrr_predict_batch(dual, data.x_test)
        scale = np.linalg.norm(p1)
        assert np.linalg.norm(p1 - p2) <= 1e-8 * max(scale, 1.0)
        one = kholrr_predict(dual, data.x_test[0])
        np.testing.assert_allclose(one, p2[0], atol=1e-10)


def test_kholrr_dual_vectors_transport_to_primal_pencil():
    prob, _, spec, k = kernel_problem(33)
    dual = kholrr_fit(k, prob.y, prob.ranks, prob.gamma, prob.x, spec)
    x, y = prob.x, prob.y
    b = x.T @ matricize(y, 0)
    s = b @ b.T
    m = x.T @ x + prob.gamma * np.eye(x.shape[1])
    for j in range(dual.dual_vectors.shape[1]):
        v = x.T @ dual.dual_vectors[:, j]
        lam = dual.dual_values[j]
        resid = np.linalg.norm(s @ v - lam * (m @ v))
        assert resid <= 1e-7 * max(np.linalg.norm(v), 1e-12) * max(np.linalg.norm(s), 1.0)


def test_kholrr_polynomial_interpolates_quadratic_map():
    # noiseless outputs quadratic in x; (x.y)^2 matches the squared-feature map
    rng = np.random.default_rng(34)
    n, d = 30, 5
    x = rng.standard_normal((n, d))
    w = random_lowrank_tensor((d * d, 6, 5), (4, 3, 2), seed=35)
    feats = square_features(x)
    y = np.einsum("nf,fab->nab", feats, w)
    spec = KernelSpec(kind="polynomial", degree=2, offset=0.0)
    k = gram(x, spec)
    np.testing.assert_allclose(k, feats @ feats.T, atol=1e-8)
    with pytest.warns(UserWarning, match="restricting"):
        model = kholrr_fit(k, y, (4, 3, 2), 0.0, x, spec)
    pred = kholrr_predict_batch(model, x)
    rel = np.linalg.norm(pred - y) / np.linalg.norm(y)
    assert rel <= 1e-7
    # generalizes off the training set because the feature map is exact
    x_new = rng.standard_normal((8, d))
    y_new = np.einsum("nf,fab->nab", square_features(x_new), w)
    rel_new = np.linalg.norm(kholrr_predict_batch(model, x_new) - y_new) / np.linalg.norm(y_new)
    assert rel_new <= 1e-6


def test_kholrr_rank_clamped_to_sample_count():
    prob, _, spec, k = kernel_problem(36)
    big = (k.shape[0] + 5,) + prob.ranks[1:]
    # the full-sample cut also leaves the projected gram near-singular, so a
    # second fallback warning may fire alongside the clamp
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = kholrr_fit(k, prob.y, big, prob.gamma, prob.x, spec)
    assert any("clamped" in str(w.message) for w in caught)
    assert model.ranks[0] == k.shape[0]
    assert any("clamped" in w for w in model.warnings)


def test_kholrr_validation():
    prob, _, spec, k = kernel_problem(37)
    with pytest.raises(ValueError, match="square"):
        kholrr_fit(k[:, :3], prob.y, prob.ranks, 0.1, prob.x, spec)
    with pytest.raises(ValueError, match="output slices"):
        kholrr_fit(k, prob.y[:-1], prob.ranks, 0.1, prob.x, spec)
    with pytest.raises(ValueError, match="train_inputs"):
        kholrr_fit(k, prob.y, prob.ranks, 0.1, prob.x[:-1], spec)
    with pytest.raises(ValueError, match="ranks"):
        kholrr_fit(k, prob.y, prob.ranks[:-1], 0.1, prob.x, spec)
    with pytest.raises(ValueError, match="gamma"):
        kholrr_fit(k, prob.y, prob.ranks, -0.1, prob.x, spec)
    # non-finite data is a data error, not a failed eigensolve
    bad_y = prob.y.copy()
    bad_y[0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="training data must be finite"):
        kholrr_fit(k, bad_y, prob.ranks, 0.1, prob.x, spec)
    bad_x = prob.x.copy()
    bad_x[1, 1] = np.inf
    with pytest.raises(ValueError, match="training data must be finite"):
        kholrr_fit(k, prob.y, prob.ranks, 0.1, bad_x, spec)


# --- model files ------------------------------------------------------------


def test_save_load_holrr_round_trip(tmp_path):
    prob, data = small_problem(38)
    model = holrr_fit(prob)
    path = tmp_path / "m.holrr"
    save_model(model, path)
    back = load_model(path)
    assert back.ranks == model.ranks
    assert back.gamma == model.gamma
    assert back.warnings == model.warnings
    np.testing.assert_array_equal(back.factors.core, model.factors.core)
    for u, v in zip(back.factors.factors, model.factors.factors):
        np.testing.assert_array_equal(u, v)
    np.testing.assert_array_equal(
        holrr_predict_batch(back, data.x_test), holrr_predict_batch(model, data.x_test)
    )
    buf = io.BytesIO()
    save_model(back, buf)
    assert buf.getvalue() == path.read_bytes()


def test_save_load_kholrr_round_trip(tmp_path):
    prob, data, spec, k = kernel_problem(39)
    model = kholrr_fit(k, prob.y, prob.ranks, prob.gamma, prob.x, spec)
    path = tmp_path / "m.kholrr"
    save_model(model, path)
    back = load_model(path)
    assert back.kernel == model.kernel
    assert back.ranks == model.ranks
    np.testing.assert_array_equal(back.factors.core, model.factors.core)
    for u, v in zip(back.factors.factors, model.factors.factors, strict=True):
        np.testing.assert_array_equal(u, v)
    np.testing.assert_array_equal(back.dual_values, model.dual_values)
    np.testing.assert_array_equal(
        kholrr_predict_batch(back, data.x_test), kholrr_predict_batch(model, data.x_test)
    )
    buf = io.BytesIO()
    save_model(back, buf)
    assert buf.getvalue() == path.read_bytes()


def test_model_file_errors(tmp_path):
    with pytest.raises(ValueError, match="not a model file"):
        load_model(io.BytesIO(b"JUNK 1\n{}\n"))
    with pytest.raises(ValueError, match="version"):
        load_model(io.BytesIO(b"HOLRR 9\n{}\n"))
    bad = io.BytesIO(
        b"HOLRR 1\n" + b'{"kind":"mystery","ranks":[1],"gamma":0.0,"blocks":[]}\n'
    )
    with pytest.raises(ValueError, match="unknown model kind"):
        load_model(bad)
    with pytest.raises(TypeError, match="serialize"):
        save_model(object(), tmp_path / "x.bin")
    # headers that are not objects or lack a required key
    for header in (b"[1, 2]", b'"holrr"', b'{"ranks":[1],"gamma":0.0,"blocks":[]}',
                   b'{"kind":"holrr","ranks":[1],"gamma":0.0}', b'{"kind":"holrr","blocks":[],"gamma":0.0}',
                   b'{"kind":"holrr","blocks":[],"ranks":[1]}',
                   b'{"kind":"holrr","blocks":[],"ranks":[1],"gamma":' + b"1" * 400 + b"}"):  # past float range
        with pytest.raises(ValueError, match="malformed model header"):
            load_model(io.BytesIO(b"HOLRR 1\n" + header + b"\n"))
    # blocks and header values that are non-finite or disagree with each other
    prob, _ = small_problem(43, ranks=(2, 2, 2, 2))
    kprob, _, spec, k = kernel_problem(44)
    nan_core = holrr_fit(prob)
    nan_core.factors.core[0, 0, 0, 0] = np.nan
    nan_gamma = dataclasses.replace(holrr_fit(prob), gamma=float("nan"))
    kmodel = kholrr_fit(k, kprob.y, kprob.ranks, kprob.gamma, kprob.x, spec)
    long_duals = dataclasses.replace(kmodel, dual_values=np.arange(7.0))
    nan_offset = dataclasses.replace(kmodel, kernel=KernelSpec(kind="polynomial"))
    nan_offset.kernel.offset = float("nan")
    cases = [
        (nan_core, "model block core is not finite"),
        (nan_gamma, "gamma must be finite"),
        (long_duals, r"dual_values has shape \(7,\); R0 is 3"),
        (nan_offset, "offset must be finite"),
    ]
    for model, message in cases:
        buf = io.BytesIO()
        save_model(model, buf)
        with pytest.raises(ValueError, match=message):
            load_model(io.BytesIO(buf.getvalue()))
    # a file is read only in the exact form save_model writes
    buf = io.BytesIO()
    save_model(holrr_fit(prob), buf)
    good = buf.getvalue()
    assert load_model(io.BytesIO(good)).ranks == (2, 2, 2, 2)
    dten = good.index(b"DTEN 1 4 2 2 2 2\n")
    path = tmp_path / "bad.bin"
    for bad, message in (
        (good.replace(b'"ranks":[2,2,2,2]', b'"ranks":[9,9,9,9]', 1),
         r"header ranks \(9, 9, 9, 9\) do not match the core's shape \(2, 2, 2, 2\)"),
        (good + b"\0", "differs from what save_model writes"),
        (good.replace(b'"gamma":0.001', b'"gamma":1e-3'), "differs from what save_model writes"),
        (good[:dten] + good[dten:].replace(b"DTEN 1 4", b"DTEN 1  4", 1), "malformed DTEN header"),
    ):
        path.write_bytes(bad)
        for source in (io.BytesIO(bad), path):
            with pytest.raises(ValueError, match=message):
                load_model(source)


def test_holrr_1_kernel_file_loads_its_dense_tensor_as_an_identity_tucker():
    prob, data, _, _ = kernel_problem(45)
    spec = KernelSpec(kind="rbf", sigma=2.0)
    model = kholrr_fit(gram(prob.x, spec), prob.y, prob.ranks, prob.gamma, prob.x, spec)
    # the HOLRR 1 layout: the dense dual tensor C and the dual eigenpairs
    blocks = {
        "coeff": tucker_reconstruct(model.factors),
        "train_inputs": model.train_inputs,
        "dual_values": model.dual_values,
        "dual_vectors": model.dual_vectors,
    }
    header = {"kind": "kholrr", "ranks": list(model.ranks), "gamma": model.gamma,
              "kernel": spec.to_dict(), "warnings": list(model.warnings), "blocks": list(blocks)}
    v1 = io.BytesIO()
    v1.write(b"HOLRR 1\n" + json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n")
    for block in blocks.values():
        write_dten(block, v1)
    back = load_model(io.BytesIO(v1.getvalue()))
    assert back.factors.core.shape == (25, 5, 3, 4) and back.ranks == (25, 5, 3, 4)
    assert all(u is None for u in back.factors.factors)  # no N x N identity is built
    np.testing.assert_array_equal(back.factors.core, blocks["coeff"])
    assert back.dual_values.size == 0
    want = model.predict(data.x_test)
    assert np.linalg.norm(back.predict(data.x_test) - want) <= 1e-12 * np.linalg.norm(want)
    again = io.BytesIO()
    save_model(back, again)
    assert again.getvalue().startswith(b"HOLRR 3\n")
    np.testing.assert_array_equal(load_model(io.BytesIO(again.getvalue())).factors.core, blocks["coeff"])


def test_holrr_1_primal_file_loads_bitwise():
    prob, data = small_problem(46)
    model = holrr_fit(prob)
    buf = io.BytesIO()
    save_model(model, buf)
    v3 = buf.getvalue()
    assert v3.startswith(b"HOLRR 3\n")
    back = load_model(io.BytesIO(b"HOLRR 1\n" + v3[len(b"HOLRR 3\n"):]))  # the same layout
    np.testing.assert_array_equal(back.factors.core, model.factors.core)
    for u, v in zip(back.factors.factors, model.factors.factors, strict=True):
        np.testing.assert_array_equal(u, v)
    np.testing.assert_array_equal(back.predict(data.x_test), model.predict(data.x_test))
    again = io.BytesIO()
    save_model(back, again)
    assert again.getvalue() == v3


def test_holrr_2_file_with_explicit_identity_factors_loads_and_reencodes_bytewise():
    prob, data = small_problem(48, ranks=(3, 5, 2, 4))
    model = holrr_fit(prob)  # modes 1 and 3 at full rank keep no factor
    assert [u is None for u in model.factors.factors] == [False, True, False, True]
    # the HOLRR 2 form of the same fit: an identity block for each full mode
    eyes = [np.eye(d) if u is None else u for u, d in zip(model.factors.factors, model.factors.shape)]
    explicit = HolrrModel(TuckerFactors(model.factors.core, eyes), model.gamma, model.warnings)
    buf = io.BytesIO()
    save_model(explicit, buf)
    body = buf.getvalue()[len(b"HOLRR 3\n"):]
    back = load_model(io.BytesIO(b"HOLRR 2\n" + body))
    np.testing.assert_array_equal(back.factors.factors[1], np.eye(5))
    np.testing.assert_array_equal(back.predict(data.x_test), explicit.predict(data.x_test))
    again = io.BytesIO()
    save_model(back, again)
    assert again.getvalue() == b"HOLRR 3\n" + body
    want = model.predict(data.x_test)
    assert np.linalg.norm(back.predict(data.x_test) - want) <= 1e-12 * np.linalg.norm(want)
    # HOLRR 1 and 2 files store every factor: one without a factor block is malformed
    compact = io.BytesIO()
    save_model(model, compact)
    for old in (b"HOLRR 1\n", b"HOLRR 2\n"):
        with pytest.raises(ValueError, match="malformed model header"):
            load_model(io.BytesIO(old + compact.getvalue()[len(b"HOLRR 3\n"):]))


def test_load_model_rejects_kernel_blocks_that_disagree_on_n():
    prob, _, spec, k = kernel_problem(42)
    model = kholrr_fit(k, prob.y, prob.ranks, prob.gamma, prob.x, spec)
    model.train_inputs = model.train_inputs[:-1]
    buf = io.BytesIO()
    save_model(model, buf)
    buf.seek(0)
    with pytest.raises(ValueError, match="disagree on N"):
        load_model(buf)


def test_vectorized_prediction_consistency():
    # flattening a tensor prediction matches predicting against the flat W
    prob, data = small_problem(40)
    model = holrr_fit(prob)
    w = model.coefficients()
    flat = w.reshape(w.shape[0], -1, order="F")
    pred = holrr_predict_batch(model, data.x_test)
    np.testing.assert_allclose(
        pred.reshape(pred.shape[0], -1, order="F"),
        data.x_test @ flat,
        atol=1e-10,
    )
    np.testing.assert_allclose(
        vectorize(pred[0]), flat.T @ data.x_test[0], atol=1e-10
    )


# --- input pencil oracles ---------------------------------------------------


def _pencil_oracle(x, y, gamma, r):
    """Top-(r + 1) pencil pairs from gen_sym_eig_top, on range(M) when M is singular."""
    b = x.T @ matricize(y, 0)
    s = b @ b.T
    m = x.T @ x + gamma * np.eye(x.shape[1])
    basis = scipy.linalg.orth(m)  # all of R^d0 when M is positive definite
    s, m = basis.T @ s @ basis, basis.T @ m @ basis
    vals, vecs = gen_sym_eig_top((s + s.T) / 2.0, (m + m.T) / 2.0, r + 1)
    return vals, basis @ vecs


@pytest.mark.parametrize(
    "case, n, d0, gamma",
    [("gamma > 0", 30, 6, 0.1), ("gamma = 0, dependent column", 30, 6, 0.0), ("N < d0", 8, 12, 0.1)],
)
def test_holrr_input_factor_is_the_top_pencil_eigenspace(case, n, d0, gamma):
    ranks = (3, 2, 2, 3)
    _, data = small_problem(50 + n + d0, n=n, dims=(d0, 5, 3, 4), ranks=ranks, noise=0.01)
    x = data.x_train
    if gamma == 0:
        x = np.hstack([x, x[:, :1]])  # X^T X singular: the oracle works on its range
    vals, vecs = _pencil_oracle(x, data.y_train, gamma, ranks[0])
    assert vals[2] - vals[3] > 1e-3 * vals[0], case  # a clear gap at R0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the gamma = 0 pseudo-inverse pencil
        model = holrr_fit(RegressionProblem(x, data.y_train, ranks, gamma))
        spec = KernelSpec(kind="linear")
        dual = kholrr_fit(gram(x, spec), data.y_train, ranks, gamma, x, spec)
    angle = scipy.linalg.subspace_angles(model.factors.factors[0], vecs[:, :3]).max()
    assert np.sin(angle) <= 1e-10, (case, angle)
    np.testing.assert_allclose(dual.dual_values, vals[:3], rtol=1e-10)
    # both fits flag a singular input Gram with the one shared warning, and only then
    singular = [any("pseudo-inverse pencil, restricting" in w for w in m.warnings) for m in (model, dual)]
    assert singular == [gamma == 0] * 2, case


def test_no_fit_or_cv_path_checks_its_eigenproblems_for_symmetry(monkeypatch):
    # every Gram and pencil of a fit is symmetric by construction, so only
    # the public solver's own callers pay `_check_symmetric`
    calls, real = [], linalg._check_symmetric
    monkeypatch.setattr(linalg, "_check_symmetric", lambda a, name: calls.append(name) or real(a, name))
    prob, data = small_problem(31)
    spec = KernelSpec(kind="rbf", sigma=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for method in ("rls", "lrr", "holrr", "krls", "klrr", "kholrr"):
            fit_method(method, prob.x, prob.y, 1e-2, (3, 2, 2, 3), spec)
        for kernel in (None, spec):
            list(regress.path_predict(prob.x, prob.y, data.x_test, [1e-3, 1.0], [(3, 2, 2, 3), (2, 4, 3, 4)], kernel))
        lrr_fit(prob.x, matricize(prob.y, 0), 5, 1e-2)
    assert calls == []
    # the public solver keeps its check and its messages
    linalg.sym_eig_top(np.eye(3), 1)
    assert calls == ["A"]
    with pytest.raises(ValueError, match="^A is not symmetric$"):
        linalg.sym_eig_top(np.triu(np.ones((3, 3))), 1)
