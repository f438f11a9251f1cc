import dataclasses
import io
import json
import warnings

import numpy as np
import pytest
import scipy.linalg

import oracles
from tensorreg.datagen import (
    SynthSpec,
    gen_linear_synthetic,
    random_lowrank_tensor,
    square_features,
)
from tensorreg.linalg import gen_sym_eig_top
from tensorreg.regress import (
    KernelSpec,
    RegressionProblem,
    gram,
    holrr_fit,
    holrr_predict,
    holrr_predict_batch,
    kernel_cross,
    kernel_vec,
    kholrr_fit,
    kholrr_predict,
    kholrr_predict_batch,
    klrr_fit,
    krls_fit,
    load_model,
    lrr_fit,
    rls_fit,
    save_model,
)
from tensorreg.tensor import (
    matricize,
    mode_vector_product,
    multilinear_rank,
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


def test_rls_validation():
    with pytest.raises(ValueError, match="gamma"):
        rls_fit(np.eye(2), np.eye(2), -1.0)
    with pytest.raises(ValueError, match="row count"):
        rls_fit(np.eye(2), np.zeros((3, 1)), 0.0)


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
    got = multilinear_rank(model.coefficients(), tol=1e-8)
    assert all(g <= r for g, r in zip(got, prob.ranks))
    assert model.ranks == prob.ranks
    assert model.factors.max_orthonormality_defect() <= 1e-10


def test_holrr_predict_is_coefficient_contraction():
    prob, data = small_problem(7)
    model = holrr_fit(prob)
    w = model.coefficients()
    for i in range(4):
        x = data.x_test[i]
        ref = mode_vector_product(w, x, 0)
        np.testing.assert_allclose(holrr_predict(model, x), ref, atol=1e-10)
    batch = holrr_predict_batch(model, data.x_test[:4])
    singles = np.stack([holrr_predict(model, data.x_test[i]) for i in range(4)])
    np.testing.assert_allclose(batch, singles, atol=1e-10)
    assert batch.shape == (4,) + data.y_test.shape[1:]


def test_holrr_prediction_rank_bound():
    prob, data = small_problem(8)
    model = holrr_fit(prob)
    pred = holrr_predict_batch(model, data.x_test)
    got = multilinear_rank(pred, tol=1e-8)
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
    assert any("clamped" in w for w in model.warnings)


def test_holrr_gamma_zero_rank_deficient_inputs():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((12, 3))
    x = np.hstack([x, x[:, :1]])
    y = rng.standard_normal((12, 3, 2))
    with pytest.warns(UserWarning, match="pseudo-inverse pencil"):
        model = holrr_fit(RegressionProblem(x, y, (2, 2, 2), 0.0))
    assert any("pseudo-inverse" in w for w in model.warnings)
    assert np.isfinite(holrr_predict_batch(model, x)).all()


def test_gamma_zero_training_error_never_rises_with_r0():
    # rank-7 X: its last 3 columns repeat the first 3.  R0 past the kept
    # directions clamps to 7 instead of filling U0 with arbitrary columns
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
        for m in (model, kmodel):
            assert m.ranks[0] == min(r0, 7)
            assert (f"rank {r0} clamped to 7 at mode 0" in m.warnings) == (r0 > 7)
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
        lambda: krls_fit(k, y_flat, gamma),
        lambda: klrr_fit(k, y_flat, 2, gamma),
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
    with pytest.raises(ValueError, match="length"):
        holrr_predict(model, np.zeros(9))
    with pytest.raises(ValueError, match="matrix"):
        holrr_predict_batch(model, np.zeros(4))


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
    np.testing.assert_allclose(kernel_vec(spec, x, x[3]), k[:, 3], atol=1e-12)
    with pytest.raises(ValueError, match="single input"):
        kernel_vec(spec, x, x[:2])


def test_kernel_cross_validation():
    spec = KernelSpec(kind="linear")
    with pytest.raises(ValueError, match="incompatible"):
        kernel_cross(spec, np.zeros((2, 3)), np.zeros((2, 4)))
    bad = np.zeros((2, 3))
    bad[0, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        kernel_cross(spec, bad, np.zeros((2, 3)))


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
    with pytest.raises(ValueError, match="degree"):
        KernelSpec(kind="polynomial", degree=0)
    with pytest.raises(ValueError, match="offset"):
        KernelSpec(kind="polynomial", offset=-1.0)


# --- dual baselines ---------------------------------------------------------


def test_krls_linear_kernel_matches_rls():
    rng = np.random.default_rng(19)
    x = rng.standard_normal((25, 5))
    y = rng.standard_normal((25, 6))
    gamma = 0.3
    spec = KernelSpec(kind="linear")
    alpha = krls_fit(gram(x, spec), y, gamma)
    x_test = rng.standard_normal((7, 5))
    pred_dual = kernel_cross(spec, x_test, x) @ alpha
    pred_primal = x_test @ rls_fit(x, y, gamma)
    np.testing.assert_allclose(pred_dual, pred_primal, atol=1e-8)


def test_klrr_linear_kernel_matches_lrr():
    rng = np.random.default_rng(20)
    x = rng.standard_normal((25, 5))
    y = rng.standard_normal((25, 6))
    gamma = 0.3
    spec = KernelSpec(kind="linear")
    alpha = klrr_fit(gram(x, spec), y, 3, gamma)
    x_test = rng.standard_normal((7, 5))
    pred_dual = kernel_cross(spec, x_test, x) @ alpha
    pred_primal = x_test @ lrr_fit(x, y, 3, gamma)
    np.testing.assert_allclose(pred_dual, pred_primal, atol=1e-8)
    np.testing.assert_array_equal(klrr_fit(gram(x, spec), y, 6, gamma), krls_fit(gram(x, spec), y, gamma))


def test_krls_validation():
    with pytest.raises(ValueError, match="gamma"):
        krls_fit(np.eye(3), np.zeros((3, 2)), -1.0)


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
        dual = klrr_fit(k, y_flat, 2, prob.gamma)
        p_klrr = kernel_cross(spec, data.x_test, prob.x) @ dual
        model = kholrr_fit(k, y_flat, (2, y_flat.shape[1]), prob.gamma, prob.x, spec)
        p_kholrr = kholrr_predict_batch(model, data.x_test)
        assert np.linalg.norm(p_klrr - p_kholrr) <= 1e-11 * np.linalg.norm(p_klrr)


# --- kernel holrr -----------------------------------------------------------


def kernel_problem(seed, gamma=1e-3):
    prob, data = small_problem(seed, n=25, gamma=gamma)
    spec = KernelSpec(kind="linear")
    k = gram(prob.x, spec)
    return prob, data, spec, k


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
                   b'{"kind":"holrr","blocks":[],"ranks":[1]}'):
        with pytest.raises(ValueError, match="malformed model header"):
            load_model(io.BytesIO(b"HOLRR 1\n" + header + b"\n"))
    # blocks and header values that are non-finite or disagree with each other
    prob, _ = small_problem(43, ranks=(2, 2, 2, 2))
    kprob, _, spec, k = kernel_problem(44)
    nan_core = holrr_fit(prob)
    nan_core.factors.core[0, 0, 0, 0] = np.nan
    nan_gamma = dataclasses.replace(holrr_fit(prob), gamma=float("nan"))
    big_ranks = dataclasses.replace(holrr_fit(prob), ranks=(9, 9, 9, 9))
    kmodel = kholrr_fit(k, kprob.y, kprob.ranks, kprob.gamma, kprob.x, spec)
    long_duals = dataclasses.replace(kmodel, dual_values=np.arange(7.0))
    nan_offset = dataclasses.replace(kmodel, kernel=KernelSpec(kind="polynomial"))
    nan_offset.kernel.offset = float("nan")
    cases = [
        (nan_core, "model block core is not finite"),
        (nan_gamma, "gamma must be finite"),
        (big_ranks, r"header ranks \(9, 9, 9, 9\) do not match the core's shape \(2, 2, 2, 2\)"),
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
    for bad in (good + b"\0", good.replace(b'"gamma":0.001', b'"gamma":1e-3')):
        with pytest.raises(ValueError, match="differs from what save_model writes"):
            load_model(io.BytesIO(bad))
    with pytest.raises(ValueError, match="malformed DTEN header"):
        load_model(io.BytesIO(good[:dten] + good[dten:].replace(b"DTEN 1 4", b"DTEN 1  4", 1)))


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
    np.testing.assert_array_equal(back.factors.core, blocks["coeff"])
    assert back.dual_values.size == 0
    want = model.predict(data.x_test)
    assert np.linalg.norm(back.predict(data.x_test) - want) <= 1e-12 * np.linalg.norm(want)
    again = io.BytesIO()
    save_model(back, again)
    assert again.getvalue().startswith(b"HOLRR 2\n")
    np.testing.assert_array_equal(load_model(io.BytesIO(again.getvalue())).factors.core, blocks["coeff"])


def test_holrr_1_primal_file_loads_bitwise():
    prob, data = small_problem(46)
    model = holrr_fit(prob)
    buf = io.BytesIO()
    save_model(model, buf)
    v2 = buf.getvalue()
    assert v2.startswith(b"HOLRR 2\n")
    back = load_model(io.BytesIO(b"HOLRR 1\n" + v2[len(b"HOLRR 2\n"):]))  # the same layout
    np.testing.assert_array_equal(back.factors.core, model.factors.core)
    for u, v in zip(back.factors.factors, model.factors.factors, strict=True):
        np.testing.assert_array_equal(u, v)
    np.testing.assert_array_equal(back.predict(data.x_test), model.predict(data.x_test))
    again = io.BytesIO()
    save_model(back, again)
    assert again.getvalue() == v2


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
