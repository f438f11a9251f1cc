import io
import json
import os
import stat
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import helpers
from tensorreg import datagen, harness, linalg, regress
from tensorreg.datagen import SynthSpec, gen_linear_synthetic, substream
from tensorreg.harness import (
    DEFAULT_STATIONS,
    METHODS,
    VARIABLES,
    ForecastDataset,
    GridSpec,
    atomic_write_bytes,
    _grid_points,
    _resolve_kernel,
    _run_synth_task,
    build_forecast_dataset,
    cv_folds,
    default_config,
    fit_method,
    grid_search_cv,
    load_metoffice,
    measure_fit_seconds,
    normalize_forecast,
    predict_method,
    rmse,
    run_experiment,
    write_report,
)
from tensorreg.regress import KernelSpec, gram, kernel_cross, kholrr_fit, rls_fit
from tensorreg.tensor import dematricize, matricize, tucker_reconstruct


def test_rmse_values():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([[0.0, 0.0]], [[3.0, 4.0]]) == pytest.approx(np.sqrt(12.5))
    assert rmse(np.zeros((2, 3, 4)), np.ones((2, 3, 4))) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="shape mismatch"):
        rmse(np.zeros(3), np.zeros(4))


def test_atomic_write_bytes(tmp_path):
    p = tmp_path / "out.bin"
    atomic_write_bytes(p, b"hello")
    assert p.read_bytes() == b"hello"
    atomic_write_bytes(p, b"replaced")
    assert p.read_bytes() == b"replaced"
    assert [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")] == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"])
def test_atomic_write_gives_a_new_file_the_mode_open_gives(tmp_path, umask, mode):
    # 0o666 less the umask, not a temp file's 0600
    old = os.umask(umask)
    try:
        atomic_write_bytes(tmp_path / "out.bin", b"hello")
        with open(tmp_path / "plain.bin", "wb"):
            pass
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "out.bin").st_mode) == mode
    assert stat.S_IMODE(os.stat(tmp_path / "plain.bin").st_mode) == mode


def small_data(seed=0, n=24):
    spec = SynthSpec(
        input_dim=4,
        output_dims=(3, 2),
        ranks=(2, 2, 2),
        n_train=n,
        n_test=8,
        noise_std=0.05,
        seed=seed,
    )
    return gen_linear_synthetic(spec)


def test_fit_predict_adapters_all_methods():
    data = small_data()
    kernel = KernelSpec(kind="rbf", sigma=2.0)
    for method in ("rls", "lrr", "holrr", "krls", "klrr", "kholrr"):
        fm = fit_method(
            method,
            data.x_train,
            data.y_train,
            1e-2,
            ranks=(2, 2, 2),
            kernel=kernel if method.startswith("k") else None,
        )
        pred = predict_method(fm, data.x_test)
        assert pred.shape == (8, 3, 2)
        assert np.isfinite(pred).all()
        assert rmse(data.y_test, pred) < 5.0


def test_adapters_linear_kernel_duals_match_primal():
    data = small_data(1)
    lin = KernelSpec(kind="linear")
    for primal, dual in (("rls", "krls"), ("lrr", "klrr"), ("holrr", "kholrr")):
        fp = fit_method(primal, data.x_train, data.y_train, 0.5, ranks=(2, 2, 2))
        fd = fit_method(dual, data.x_train, data.y_train, 0.5, ranks=(2, 2, 2), kernel=lin)
        np.testing.assert_allclose(
            predict_method(fp, data.x_test), predict_method(fd, data.x_test), atol=1e-7
        )


def test_flat_baseline_models_predict_bitwise_like_the_flat_solution():
    data = small_data(4)
    rbf = KernelSpec(kind="rbf", sigma=2.0)
    # the fits read Y in its memory order: both sides get it column-major
    y = np.asfortranarray(data.y_train)
    y_flat = matricize(y, 0)
    shape = (data.x_test.shape[0], *y.shape[1:])
    w = rls_fit(data.x_train, y_flat, 0.1)
    expect = dematricize(data.x_test @ w, 0, shape)
    got = fit_method("rls", data.x_train, y, 0.1).predict(data.x_test)
    np.testing.assert_array_equal(got, expect)
    # the dual ridge coefficients: kholrr at full rank (N, D) on vectorized outputs
    dual = tucker_reconstruct(kholrr_fit(gram(data.x_train, rbf), y_flat, y_flat.shape, 0.1, data.x_train, rbf).factors)
    expect = dematricize(kernel_cross(rbf, data.x_test, data.x_train) @ dual, 0, shape)
    got = fit_method("krls", data.x_train, y, 0.1, kernel=rbf).predict(data.x_test)
    np.testing.assert_array_equal(got, expect)


def test_fit_method_validation():
    data = small_data(2)
    with pytest.raises(ValueError, match="unknown method"):
        fit_method("boost", data.x_train, data.y_train, 0.1)
    with pytest.raises(ValueError, match="needs a kernel"):
        fit_method("krls", data.x_train, data.y_train, 0.1)
    with pytest.raises(ValueError, match="needs a kernel"):
        grid_search_cv(data.x_train, data.y_train, GridSpec(gammas=(0.1, 1.0), rank_candidates=((2,),)), "klrr")


@pytest.mark.parametrize("method", ["lrr", "klrr"])
def test_lrr_and_klrr_models_carry_their_rank_clamps(method):
    # R is clamped to [1, D] with D = 6, the vectorized output dimension
    data = small_data(2)
    spec = KernelSpec(kind="rbf", sigma=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        assert fit_method(method, data.x_train, data.y_train, 0.1, (6, 3, 2), spec).warnings == ()
    for rank, note in ((9, "rank 9 clamped to output dimension 6"), (0, "rank 0 clamped to 1")):
        with pytest.warns(UserWarning) as caught:
            model = fit_method(method, data.x_train, data.y_train, 0.1, (rank, 3, 2), spec)
        assert model.warnings == (note,)
        assert [str(w.message) for w in caught] == [note]
        twin = fit_method(method, data.x_train, data.y_train, 0.1, (min(max(rank, 1), 6),), spec)
        np.testing.assert_array_equal(model.factors.core, twin.factors.core)


def test_measure_fit_seconds():
    data = small_data(3)
    t = measure_fit_seconds("rls", data.x_train, data.y_train, 0.1, repeats=2)
    assert t > 0.0


def test_cv_folds_partition():
    blocks = cv_folds(11, 3, seed=5)
    assert len(blocks) == 3
    union = np.sort(np.concatenate(blocks))
    np.testing.assert_array_equal(union, np.arange(11))
    again = cv_folds(11, 3, seed=5)
    for a, b in zip(blocks, again):
        np.testing.assert_array_equal(a, b)
    other = cv_folds(11, 3, seed=6)
    assert any(not np.array_equal(a, b) for a, b in zip(blocks, other))
    with pytest.raises(ValueError, match="cannot split"):
        cv_folds(2, 3, seed=0)
    with pytest.raises(ValueError, match="cannot split"):
        cv_folds(10, 1, seed=0)


def test_grid_spec_validation():
    with pytest.raises(ValueError, match="gammas"):
        GridSpec(gammas=(-1.0,))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="gammas must be finite"):
            GridSpec(gammas=(0.1, bad))
    with pytest.raises(ValueError, match="folds"):
        GridSpec(folds=1)
    for bad in ((), (0, 4, 4, 8), (6, -1, 4, 8)):
        with pytest.raises(ValueError, match="rank candidates"):
            GridSpec(rank_candidates=((6, 4, 4, 8), bad))


def test_grid_search_prefers_obviously_better_gamma():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((24, 3))
    w = rng.standard_normal((3, 4))
    y = x @ w  # noiseless linear data
    grid = GridSpec(gammas=(1e-8, 1e3), folds=3, seed=0)
    best, table = grid_search_cv(x, y, grid, "rls")
    assert best["gamma"] == 1e-8
    assert len(table) == 2
    assert best["score"] <= min(row["score"] for row in table) + 1e-12


def test_grid_search_tie_breaks_toward_smallest_point():
    x = np.random.default_rng(5).standard_normal((12, 3))
    y = np.zeros((12, 2, 2))
    grid = GridSpec(
        gammas=(1.0, 0.01),
        rank_candidates=((2, 2, 2), (1, 1, 1)),
        folds=2,
        seed=0,
    )
    best, table = grid_search_cv(x, y, grid, "holrr")
    assert all(row["score"] == 0.0 for row in table)
    assert best["gamma"] == 0.01
    assert best["ranks"] == (1, 1, 1)


def test_grid_search_requires_rank_candidates_for_rank_methods():
    data = small_data(6)
    grid = GridSpec(gammas=(0.1,), rank_candidates=())
    for method in ("lrr", "klrr", "holrr", "kholrr"):
        with pytest.raises(ValueError, match=f"^{method} needs at least one rank candidate$"):
            grid_search_cv(data.x_train, data.y_train, grid, method, KernelSpec("rbf"))


# (n, d0, output dims, gammas, rank candidates[, degenerate]); seed s runs
# case s % 5, so each case gets four seeds and the kernel methods cycle
# through the kernels.  lrr/klrr take the first rank of each candidate
_PATH_CASES = (
    (12, 20, (3, 4), (1e-2, 1.0, 10.0), ((2, 1, 4), (12, 3, 2), (15, 2, 3))),  # N < d0; R >= D; Ri = di
    (15, 6, (3, 4), (0.0, 1.0), ((3, 2, 4), (12, 3, 1)), "zeros"),  # gamma 0, rank-deficient X and K
    (30, 4, (3, 4), (1e-2, 1.0), ((2, 3, 3), (6, 1, 4), (11, 2, 2))),  # min(N, d0) < R < D
    (24, 5, (2, 3, 2), (0.1, 3.0), ((1, 1, 3, 2), (4, 2, 2, 1), (12, 2, 3, 2), (20, 1, 1, 1))),  # three output modes; R > D
    (21, 8, (4, 3), (0.0, 0.5), ((3, 4, 2), (5, 2, 3), (7, 4, 3)), "repeats"),  # gamma 0 with repeated columns; R0 above the kept rank
)
_PATH_KERNELS = (
    KernelSpec(kind="linear"),
    KernelSpec(kind="polynomial", degree=2, offset=0.0),
    KernelSpec(kind="rbf", sigma=2.0),
)


def _path_problem(seed):
    n, d0, dims, gammas, ranks, *degenerate = _PATH_CASES[seed % len(_PATH_CASES)]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d0))
    if degenerate == ["zeros"]:
        # exact zeros make X^T X and the linear/polynomial K exactly singular:
        # one more zero row than a fold holds leaves one in every fit set
        x[:, 0] = 0.0
        x[: n // 3 + 1] = 0.0
    elif degenerate == ["repeats"]:
        # rank 5: at gamma 0 the kept rank of X and of the linear K is below R0 = 7
        x[:, 5:] = x[:, :3]
    y = np.einsum("ni,i...->n...", x, rng.standard_normal((d0, *dims)))
    y += 0.1 * rng.standard_normal(y.shape)
    grid = GridSpec(gammas=gammas, rank_candidates=ranks, folds=3, seed=seed)
    kernels = _PATH_KERNELS[:2] if degenerate else _PATH_KERNELS
    return x, y, grid, kernels[seed // len(_PATH_CASES) % len(kernels)]


def _scores_fitting_every_point(x, y, grid, method, kernel):
    scores = {}
    for gamma, ranks in _grid_points(method, grid):
        errs = []
        for val in cv_folds(x.shape[0], grid.folds, grid.seed):
            fit = np.ones(x.shape[0], dtype=bool)
            fit[val] = False
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the gamma = 0 pseudo-inverse fallbacks and rank clamps
                model = fit_method(method, x[fit], y[fit], gamma, ranks, kernel)
            errs.append(rmse(y[val], model.predict(x[val])))
        scores[(gamma, ranks)] = float(np.mean(errs))
    return scores


def test_lrr_cv_path_matches_fitting_every_grid_point():
    # every method's CV path against a fit per grid point and fold
    worst = dict.fromkeys(METHODS, 0.0)
    for seed in range(20):
        x, y, grid, kernel = _path_problem(seed)
        for method in METHODS:
            k = kernel if method.startswith("k") else None
            ref = _scores_fitting_every_point(x, y, grid, method, k)
            _, table = grid_search_cv(x, y, grid, method, k)
            assert [(row["gamma"], row["ranks"]) for row in table] == list(ref)
            for row in table:
                expect = ref[(row["gamma"], row["ranks"])]
                worst[method] = max(worst[method], abs(row["score"] - expect) / expect)
    # rls/krls run the refit's own arithmetic; the others agree to rounding
    assert worst["rls"] == worst["krls"] == 0.0, worst
    assert max(worst.values()) <= 1e-13, worst


def test_cv_points_are_the_fits_at_one_rank_candidate():
    # with one rank candidate the path asks each eigenproblem for the
    # eigenpairs one fit asks for, and each point is that fit: its factor 0
    # normalized as the fit's, so the scores are equal, not close.  lrr refits
    # with its own D x D algorithm and agrees to rounding
    worst = 0.0
    for seed in range(10):
        x, y, grid, kernel = _path_problem(seed)
        for ranks in grid.rank_candidates:
            one = replace(grid, rank_candidates=(ranks,))
            for method in METHODS:
                k = kernel if method.startswith("k") else None
                ref = _scores_fitting_every_point(x, y, one, method, k)
                _, table = grid_search_cv(x, y, one, method, k)
                assert [(row["gamma"], row["ranks"]) for row in table] == list(ref)
                for row in table:
                    expect = ref[(row["gamma"], row["ranks"])]
                    if method == "lrr":
                        worst = max(worst, abs(row["score"] - expect) / expect)
                    else:
                        assert row["score"] == expect, (seed, ranks, method, row["score"], expect)
    assert worst <= 1e-13, worst


def test_lrr_cv_scores_without_per_point_fits(monkeypatch):
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kw):
            calls.append(name)
            return fn(*args, **kw)

        monkeypatch.setattr(f"tensorreg.{name}", wrapped)

    spy("harness.fit_method", fit_method)
    spy("linalg.sym_eig_top", linalg.sym_eig_top)
    for name in ("rls_fit", "lrr_fit", "holrr_fit", "kholrr_fit"):
        spy(f"regress.{name}", getattr(regress, name))
    for seed in range(len(_PATH_CASES)):
        x, y, grid, kernel = _path_problem(seed)
        for method in METHODS:
            calls.clear()
            grid_search_cv(x, y, grid, method, kernel if method.startswith("k") else None)
            # no fit, and per fold at most one pencil eigenproblem per gamma
            # and one per output mode some candidate cuts
            cut = 0
            if method in ("holrr", "kholrr"):
                cut = sum(any(rc[i] < d for rc in grid.rank_candidates) for i, d in enumerate(y.shape[1:], start=1))
            assert set(calls) <= {"linalg.sym_eig_top"}, calls
            assert len(calls) <= grid.folds * (len(grid.gammas) + cut), (method, seed, len(calls))
    calls.clear()

    # one synth-linear task: CV picks each method's point, then one refit
    # per method (rls, lrr, holrr): rls is holrr_fit at full rank, and lrr's
    # runs lrr_fit once, whose ridge step is the same full-rank fit made from
    # the one SVD it shares with its projection (no rls_fit or holrr_fit call)
    cfg = dict(default_config("synth-linear"), trials=1, train_sizes=[20])
    _run_synth_task((cfg, "synth-linear", 0, 0))
    assert calls.count("harness.fit_method") == 3
    assert calls.count("regress.lrr_fit") == 1
    assert calls.count("regress.rls_fit") == 0
    assert calls.count("regress.holrr_fit") == 2


def test_one_selection_of_every_method_matches_selecting_each_alone():
    # one _select scores all six methods from one path per fold and input
    # side.  A table is bitwise the method's own unless the union asks the
    # pencil for more eigenpairs than the method alone: lrr/klrr score a
    # first rank in [D, dim) at full rank, where holrr/kholrr cut, and
    # dsyevr's leading pairs round differently when more are asked for
    for seed in range(20):
        x, y, grid, kernel = _path_problem(seed)
        jobs = [(m, grid, kernel if m.startswith("k") else None) for m in METHODS]
        together = harness._select(harness._cv_splits(x, y, grid.folds, grid.seed), jobs)
        width = int(np.prod(y.shape[1:]))
        for (method, _, k), (best, table) in zip(jobs, together):
            ref_best, ref_table = grid_search_cv(x, y, grid, method, k)
            assert (best["gamma"], best["ranks"]) == (ref_best["gamma"], ref_best["ranks"]), (seed, method)
            if method in ("lrr", "klrr") and any(rc[0] >= width for rc in grid.rank_candidates):
                assert [(r["gamma"], r["ranks"]) for r in table] == [(r["gamma"], r["ranks"]) for r in ref_table]
                for row, ref in zip(table, ref_table):
                    assert abs(row["score"] - ref["score"]) <= 1e-14 * ref["score"], (seed, method)
            else:
                assert (best, table) == (ref_best, ref_table), (seed, method)


def _path_spy(monkeypatch) -> list:
    """The kernel argument of every `regress.path_predict` call."""
    calls, path_predict = [], regress.path_predict

    def spy(*args, **kw):
        calls.append(args[5])
        return path_predict(*args, **kw)

    monkeypatch.setattr(regress, "path_predict", spy)
    return calls


def test_selection_makes_one_path_per_split_and_input_side(tmp_path, monkeypatch):
    # rls, lrr and holrr share X; krls, klrr and kholrr share one kernel's Gram
    calls = _path_spy(monkeypatch)
    poly = KernelSpec(kind="polynomial", degree=2, offset=0.0)
    for name, sides in (("synth-linear", [None]), ("synth-nonlinear", [None, poly])):
        cfg = dict(default_config(name), trials=1, train_sizes=[20])
        calls.clear()
        _run_synth_task((cfg, name, 0, 0))
        assert calls == sides * cfg["cv_folds"], name
    met = tmp_path / "met"
    cfg = {"met_dir": str(met), "stations": helpers.write_station_dir(met, n_months=240)}
    calls.clear()
    report = run_experiment("forecast", cfg, timing="none", quick=True)
    tasks = len(report.records) // 6
    assert tasks == 3 * 2 * 3 and len(calls) == 2 * tasks  # one validation split per task
    assert all(k is None for k in calls[::2]) and all(k.kind == "rbf" for k in calls[1::2])


def test_a_task_whose_grids_have_one_point_copies_no_fold(monkeypatch):
    # nothing is searched, so no split is copied; two gammas make a search
    reached, cv_splits = [], harness._cv_splits

    def spy(*args):
        for split in cv_splits(*args):
            reached.append(split[2].shape[0])
            yield split

    monkeypatch.setattr(harness, "_cv_splits", spy)
    cfg = dict(default_config("synth-linear"), trials=1, train_sizes=[20], gammas=[1e-2])
    assert len(_run_synth_task((cfg, "synth-linear", 0, 0))) == 3 and reached == []
    cfg["gammas"] = [1e-2, 1e-1]
    _run_synth_task((cfg, "synth-linear", 0, 0))
    assert reached == [7, 7, 6]


def test_one_pass_selection_holds_one_fold_and_one_prediction_at_a_time():
    # the synth-cv shape: folds are copied one at a time and each point's
    # prediction is scored and dropped.  One fold copy is Y's size and the
    # path's working set (a prediction, its residual, Z, the cores) about
    # another: a second fold alive while the next is copied, a list of the
    # folds or the union's predictions held would each add at least 0.3 Y.
    # Selecting three methods at once holds at most one validation
    # prediction more than the leanest of them alone (at each gamma the
    # union keeps rls's full-rank core and the cut one of lrr/holrr)
    spec = SynthSpec(input_dim=10, output_dims=(10, 10, 10), ranks=(6, 4, 4, 8), n_train=100, n_test=1, noise_std=0.1, seed=0)
    data = gen_linear_synthetic(spec)
    x, y = data.x_train, data.y_train
    grid = GridSpec(gammas=harness.DEFAULT_GAMMAS, rank_candidates=((6, 4, 4, 8),), folds=3, seed=0)
    jobs = [(m, grid, None) for m in ("rls", "lrr", "holrr")]

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    together = peak(lambda: harness._select(harness._cv_splits(x, y, grid.folds, grid.seed), jobs))
    alone = [peak(lambda: grid_search_cv(x, y, grid, m)) for m, _, _ in jobs]
    prediction = max(len(v) for v in cv_folds(len(x), grid.folds, grid.seed)) * y[0].nbytes
    assert together <= 2.25 * y.nbytes, together / y.nbytes
    assert together <= min(alone) + prediction, (together, alone)


def test_median_sigma_is_bitwise_the_broadcast_median_in_quadratic_memory():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((60, 7)) * 3.0
    x[5] = x[2]  # a zero distance, which the median skips
    sq = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2)
    vals = np.sqrt(sq[np.triu_indices(len(x), k=1)])
    spec = _resolve_kernel({"kind": "rbf", "sigma": "median"}, x)
    assert spec.sigma == float(np.median(vals[vals > 0]))
    assert _resolve_kernel({"kind": "rbf", "sigma": "median"}, x[:1]).sigma == 1.0

    # N = 400, d0 = 160: an N x N x d0 difference tensor alone is 205 MB
    x = rng.standard_normal((400, 160))
    tracemalloc.start()
    try:
        _resolve_kernel({"kind": "rbf", "sigma": "median"}, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * 400 * 400 // 2, peak


# --- station-file ingestion -------------------------------------------------


def test_default_station_list():
    assert len(DEFAULT_STATIONS) == 16
    assert len(set(DEFAULT_STATIONS)) == 16
    assert VARIABLES == ("tmax", "tmin", "af", "rain", "sun")


def test_load_metoffice_synthetic_dir(tmp_path):
    helpers.write_station_dir(tmp_path, helpers.STATIONS_16[:4], n_months=24)
    data = load_metoffice(tmp_path, helpers.STATIONS_16[:4])
    assert data.values.shape == (24, 4, 5)
    assert data.months[0] == (1960, 1)
    assert data.months[-1] == (1961, 12)
    assert np.isfinite(data.values).all()
    # spot value against the generator
    np.testing.assert_allclose(
        data.values[3, 2], helpers.synthetic_values(2, 1960, 4), atol=1e-9
    )


def test_load_metoffice_flags_and_extras(tmp_path):
    name = "flagged"
    rows = [
        helpers.HEADER.format(title="Flagged"),
        helpers.station_row(2000, 1, [1.0, 2.0, 3.0, 4.0, 5.0], ("*", "", "#", "", "*")),
        helpers.station_row(2000, 2, [1.5, 2.5, 3.5, 4.5, 5.5]).rstrip("\n") + "  Provisional\n",
    ]
    (tmp_path / f"{name}data.txt").write_text("".join(rows))
    data = load_metoffice(tmp_path, [name])
    assert data.values.shape == (2, 1, 5)
    np.testing.assert_allclose(data.values[0, 0], [1.0, 2.0, 3.0, 4.0, 5.0])
    np.testing.assert_allclose(data.values[1, 0], [1.5, 2.5, 3.5, 4.5, 5.5])


def test_load_metoffice_drops_incomplete_months(tmp_path):
    a_rows = [
        helpers.HEADER.format(title="A"),
        helpers.station_row(2000, 1, [1, 1, 1, 1, 1]),
        helpers.station_row(2000, 2, [1, None, 1, 1, 1]),  # missing value
        helpers.station_row(2000, 3, [1, 1, 1, 1, 1]),
        helpers.station_row(2000, 4, [1, 1, 1, 1, 1]),
    ]
    b_rows = [
        helpers.HEADER.format(title="B"),
        helpers.station_row(2000, 1, [2, 2, 2, 2, 2]),
        helpers.station_row(2000, 2, [2, 2, 2, 2, 2]),
        # month 3 absent entirely
        helpers.station_row(2000, 4, [2, 2, 2, 2, 2]),
    ]
    (tmp_path / "aadata.txt").write_text("".join(a_rows))
    (tmp_path / "bbdata.txt").write_text("".join(b_rows))
    data = load_metoffice(tmp_path, ["aa", "bb"])
    assert data.months == [(2000, 1), (2000, 4)]
    assert data.values.shape == (2, 2, 5)


def test_load_metoffice_errors(tmp_path):
    with pytest.raises(FileNotFoundError, match="nosuchdata.txt"):
        load_metoffice(tmp_path, ["nosuch"])
    bad = tmp_path / "baddata.txt"
    bad.write_text(
        helpers.HEADER.format(title="Bad")
        + helpers.station_row(2000, 2, [1, 1, 1, 1, 1])
        + helpers.station_row(2000, 1, [1, 1, 1, 1, 1])
    )
    with pytest.raises(ValueError, match="dates not increasing"):
        load_metoffice(tmp_path, ["bad"])
    empty = tmp_path / "emptydata.txt"
    empty.write_text(helpers.HEADER.format(title="Empty"))
    with pytest.raises(ValueError, match="no data rows"):
        load_metoffice(tmp_path, ["empty"])
    garbled = tmp_path / "garbledata.txt"
    garbled.write_text(
        helpers.HEADER.format(title="Garble")
        + "   2000   1     abc     1.0     1.0     1.0     1.0\n"
    )
    with pytest.raises(ValueError, match="garbledata.txt:8"):
        load_metoffice(tmp_path, ["garble"])
    with pytest.raises(ValueError, match="at least one station"):
        load_metoffice(tmp_path, [])


def test_non_monotone_error_names_line(tmp_path):
    rows = [helpers.HEADER.format(title="X")]
    rows.append(helpers.station_row(2001, 5, [1, 1, 1, 1, 1]))
    rows.append(helpers.station_row(2001, 5, [2, 2, 2, 2, 2]))  # duplicate month
    (tmp_path / "dupdata.txt").write_text("".join(rows))
    with pytest.raises(ValueError, match=r"dupdata.txt:9: dates not increasing at 2001-05"):
        load_metoffice(tmp_path, ["dup"])


# --- forecasting windows ------------------------------------------------------


def test_forecast_hand_checked_layout(tmp_path):
    helpers.write_hand_fixture(tmp_path, n_stations=16)
    stations = [f"hand{i:02d}" for i in range(16)]
    data = load_metoffice(tmp_path, stations)
    ds = build_forecast_dataset(data, window=2, horizon=1)
    assert ds.x.shape == (1, 2 * 16 * 5)
    assert ds.y.shape == (1, 1, 16, 5)
    assert ds.target_months == [(2000, 3)]
    # x row is lag-major (oldest first), then station, then variable
    for lag in range(2):
        for si in (0, 3, 15):
            for vi in range(5):
                idx = (lag * 16 + si) * 5 + vi
                assert ds.x[0, idx] == helpers.hand_value(si, vi, lag + 1)
    for si in (0, 7):
        for vi in range(5):
            assert ds.y[0, 0, si, vi] == helpers.hand_value(si, vi, 3)


def test_forecast_horizon_blocks(tmp_path):
    helpers.write_hand_fixture(tmp_path, n_stations=2)
    data = load_metoffice(tmp_path, ["hand00", "hand01"])
    ds = build_forecast_dataset(data, window=1, horizon=2)
    assert ds.x.shape == (1, 10)
    assert ds.y.shape == (1, 2, 2, 5)
    assert ds.y[0, 0, 1, 2] == helpers.hand_value(1, 2, 2)
    assert ds.y[0, 1, 1, 2] == helpers.hand_value(1, 2, 3)


def test_forecast_skips_calendar_gaps(tmp_path):
    rows = [helpers.HEADER.format(title="Gap")]
    for month in (1, 2, 4, 5):  # no month 3
        rows.append(helpers.station_row(2000, month, [float(month)] * 5))
    (tmp_path / "gapdata.txt").write_text("".join(rows))
    data = load_metoffice(tmp_path, ["gap"])
    ds = build_forecast_dataset(data, window=1, horizon=1)
    assert ds.target_months == [(2000, 2), (2000, 5)]
    np.testing.assert_allclose(ds.x[0], [1.0] * 5)
    np.testing.assert_allclose(ds.x[1], [4.0] * 5)
    with pytest.raises(ValueError, match="window and horizon"):
        build_forecast_dataset(data, window=0, horizon=1)


def test_forecast_no_windows(tmp_path):
    rows = [helpers.HEADER.format(title="Sparse")]
    for month in (1, 4, 7):  # everything isolated
        rows.append(helpers.station_row(2000, month, [1.0] * 5))
    (tmp_path / "sparsedata.txt").write_text("".join(rows))
    data = load_metoffice(tmp_path, ["sparse"])
    with pytest.raises(ValueError, match="no calendar-consecutive windows"):
        build_forecast_dataset(data, window=1, horizon=1)


def test_normalize_forecast_uses_train_rows_only():
    x = np.array([[1.0, 5.0], [3.0, 5.0], [5.0, 5.0]])
    y = np.array([[[[2.0, 5.0]]], [[[4.0, 5.0]]], [[[6.0, 5.0]]]])
    ds = ForecastDataset(
        x=x,
        y=y,
        target_months=[(2000, 2), (2000, 3), (2000, 4)],
        station_names=("s",),
        variables=("a", "b"),
        window=1,
        horizon=1,
    )
    x_norm, y_norm, (mean, std) = normalize_forecast(ds, [0, 1])
    np.testing.assert_allclose(mean, [2.0, 5.0])
    np.testing.assert_allclose(std, [1.0, 1.0])  # zero spread forced to 1
    np.testing.assert_allclose(x_norm[:, 0], [-1.0, 1.0, 3.0])
    np.testing.assert_allclose(x_norm[:, 1], [0.0, 0.0, 0.0])
    np.testing.assert_allclose(y_norm[:, 0, 0, 0], [0.0, 2.0, 4.0])
    np.testing.assert_allclose(y_norm[:, 0, 0, 1], [0.0, 0.0, 0.0])


# --- experiment pipelines ----------------------------------------------------


def tiny_synth_config(**kw):
    cfg = {
        "trials": 2,
        "train_sizes": [12, 16],
        "test_size": 8,
        "input_dim": 4,
        "output_dims": [3, 2],
        "w_ranks": [2, 2, 2],
        "noise_std": 0.1,
        "gammas": [1e-2],
        "rank_candidates": [[2, 2, 2]],
        "cv_folds": 2,
        "seed": 3,
    }
    cfg.update(kw)
    return cfg


def test_run_synth_linear_records_and_files(tmp_path):
    out = tmp_path / "out"
    report = run_experiment("synth-linear", tiny_synth_config(), out_dir=out, timing="none")
    assert len(report.records) == 2 * 2 * 3  # sizes x trials x methods
    for r in report.records:
        assert r["experiment"] == "synth-linear"
        assert r["method"] in ("rls", "lrr", "holrr")
        assert np.isfinite(r["rmse"])
        assert r["fit_seconds"] == 0.0
    csv = (out / "report.csv").read_text().splitlines()
    assert csv[0] == "experiment,method,kernel,N,k,trial,seed,rmse,fit_seconds"
    assert len(csv) == 1 + len(report.records)
    payload = json.loads((out / "report.json").read_text())
    assert payload["experiment"] == "synth-linear"
    assert payload["config"]["train_sizes"] == [12, 16]
    aggs = {(a["method"], a["N"]): a for a in payload["aggregates"]}
    assert aggs[("holrr", 12)]["trials"] == 2
    plot = (out / "plot_rmse_vs_n.csv").read_text().splitlines()
    assert plot[0] == "N,rls,lrr,holrr"
    assert len(plot) == 3  # header plus one row per size


def test_run_experiment_reruns_byte_identical(tmp_path):
    cfg = tiny_synth_config()
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment("synth-linear", cfg, out_dir=a, timing="none")
    run_experiment("synth-linear", cfg, out_dir=b, timing="none")
    for fname in ("report.csv", "report.json", "plot_rmse_vs_n.csv"):
        assert (a / fname).read_bytes() == (b / fname).read_bytes(), fname


def test_wall_timing_changes_only_fit_seconds(tmp_path):
    cfg = tiny_synth_config()
    rep_none = run_experiment("synth-linear", cfg, timing="none")
    rep_wall = run_experiment("synth-linear", cfg, timing="wall")
    assert len(rep_none.records) == len(rep_wall.records)
    for rn, rw in zip(rep_none.records, rep_wall.records):
        assert rw["fit_seconds"] > 0.0
        for key in ("experiment", "method", "N", "trial", "seed", "rmse"):
            assert rn[key] == rw[key]
    with pytest.raises(ValueError, match="timing"):
        run_experiment("synth-linear", cfg, timing="cpu")


def test_parallel_jobs_match_serial():
    cfg = tiny_synth_config()
    rep1 = run_experiment("synth-linear", cfg, jobs=1, timing="none")
    rep2 = run_experiment("synth-linear", cfg, jobs=2, timing="none")
    assert rep1.records == rep2.records


@pytest.mark.parametrize("jobs, cpus, workers", [(5000, 64, 4), (5000, 3, 3), (3, 64, 3), (2, 1, None), (8, None, None)])
def test_jobs_start_no_more_workers_than_tasks_or_cpus(jobs, cpus, workers, monkeypatch):
    # the pool forks all its workers when it starts, so --jobs 5000 on 4
    # tasks would fork 5000 processes; one worker runs the tasks in process
    started = []

    class Pool:
        """Records its size and runs each task inline."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    cfg = tiny_synth_config()  # 2 trials x 2 sizes: 4 tasks
    serial = run_experiment("synth-linear", cfg, jobs=1, timing="none")
    monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    report = run_experiment("synth-linear", cfg, jobs=jobs, timing="none")
    assert started == ([] if workers is None else [workers])
    assert report.records == serial.records


def test_synth_uses_cv_when_grid_has_choices():
    cfg = tiny_synth_config(gammas=[1e-8, 1e3], trials=1, train_sizes=[16])
    report = run_experiment("synth-linear", cfg, timing="none")
    # noiseless-ish data: the tiny gamma should win for every method
    assert all(np.isfinite(r["rmse"]) for r in report.records)
    assert len(report.records) == 3


def test_quick_flag_shrinks_protocol():
    cfg = tiny_synth_config(
        trials=7,
        train_sizes=[20, 40, 60],
        gammas=[1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0],
    )
    report = run_experiment("synth-linear", cfg, timing="none", quick=True)
    assert report.config["trials"] == 5
    assert report.config["train_sizes"] == [20, 60]
    assert len(report.config["gammas"]) == 3
    assert len(report.records) == 2 * 5 * 3


def test_run_synth_nonlinear_smoke():
    cfg = tiny_synth_config(
        input_dim=3,
        w_ranks=[3, 2, 2],
        trials=1,
        train_sizes=[20],
        methods=[
            {"method": "rls"},
            {"method": "kholrr", "kernel": {"kind": "polynomial", "degree": 2, "offset": 0.0}},
        ],
        rank_candidates=[[3, 2, 2]],
    )
    report = run_experiment("synth-nonlinear", cfg, timing="none")
    assert len(report.records) == 2
    by_method = {r["method"]: r for r in report.records}
    assert by_method["kholrr"]["kernel"] == "polynomial"
    # the quadratic-feature kernel model beats the misspecified linear one
    assert by_method["kholrr"]["rmse"] < by_method["rls"]["rmse"]


def test_run_image_experiment(tmp_path):
    out = tmp_path / "img"
    cfg = {
        "seed": 1,
        "image": "fields",
        "height": 16,
        "width": 16,
        "task": "channels",
        "n_train": 40,
        "noise_std": 0.5,
        "trials": 2,
        "gamma": 1e-2,
        "lrr_ranks": [2],
        "holrr_ranks": [[3, 4, 4]],
    }
    report = run_experiment("image", cfg, out_dir=out, timing="none")
    assert len(report.records) == 2 * 3  # trials x (rls + 1 lrr + 1 holrr)
    variants = {r["_variant"] for r in report.records}
    assert variants == {"full", "2", "3-4-4"}
    for fname in (
        "recon_channels_rls.ppm",
        "recon_channels_lrr_2.ppm",
        "recon_channels_holrr_3-4-4.ppm",
    ):
        assert (out / fname).exists(), fname
    agg_variants = {a.get("variant") for a in report.aggregates}
    assert agg_variants == {"full", "2", "3-4-4"}
    assert all(np.isfinite(r["rmse"]) for r in report.records)


def test_a_failed_reconstruction_write_leaves_no_file(tmp_path, monkeypatch):
    # each recon_*.ppm streams into a temp file that is renamed when
    # complete: a write that fails after the header leaves neither
    real = datagen.write_ppm

    def partway(image, f):
        class Failing:
            def write(self, data):
                if f.tell():
                    raise OSError("disk full")
                return f.write(data)

        real(image, Failing())

    monkeypatch.setattr(datagen, "write_ppm", partway)
    cfg = {"seed": 1, "image": "fields", "height": 8, "width": 8, "task": "channels", "n_train": 20,
           "noise_std": 0.5, "trials": 1, "gamma": 1e-2, "lrr_ranks": [2], "holrr_ranks": [[3, 4, 4]]}
    out = tmp_path / "img"
    with pytest.raises(OSError, match="disk full"):
        run_experiment("image", cfg, out_dir=out, timing="none")
    assert out.is_dir() and not [p.name for p in out.iterdir() if p.name.startswith(("recon_", ".tmp-"))]


def test_image_experiment_rejects_empty_or_zero_rank_lists():
    cfg = {
        "seed": 1,
        "image": "fields",
        "height": 8,
        "width": 8,
        "task": "channels",
        "n_train": 20,
        "noise_std": 0.5,
        "trials": 1,
        "gamma": 1e-2,
        "lrr_ranks": [2],
        "holrr_ranks": [[3, 4, 4]],
    }
    bad = [("lrr_ranks", [0]), ("lrr_ranks", []), ("holrr_ranks", [[3, 0, 4]]), ("holrr_ranks", [[]]), ("holrr_ranks", [])]
    for key, value in bad:
        with pytest.raises(ValueError, match=f"{key} must be non-empty with every rank >= 1"):
            run_experiment("image", {**cfg, key: value}, timing="none")


def test_every_method_model_reads_back_from_its_file():
    data = gen_linear_synthetic(
        SynthSpec(input_dim=4, output_dims=(3, 2), ranks=(2, 2, 2), n_train=15, n_test=5, noise_std=0.1, seed=61)
    )
    kernel = regress.KernelSpec(kind="rbf", sigma=2.0)
    for method in METHODS:
        model = fit_method(method, data.x_train, data.y_train, 1e-2, (2, 2, 2), kernel)
        buf = io.BytesIO()
        regress.save_model(model, buf)
        back = regress.load_model(io.BytesIO(buf.getvalue()))
        assert type(back) is type(model), method
        np.testing.assert_array_equal(back.predict(data.x_test), model.predict(data.x_test))
        again = io.BytesIO()
        regress.save_model(back, again)
        assert again.getvalue() == buf.getvalue(), method


def test_flat_baseline_models_store_no_identity_factors():
    # rls/lrr/krls keep no factor at all and klrr only its N x R dual basis:
    # no N x N block (an explicit identity made a krls model file 947 bytes
    # at N = 6, against kholrr's 668)
    data = gen_linear_synthetic(
        SynthSpec(input_dim=3, output_dims=(2, 2), ranks=(2, 2, 2), n_train=6, n_test=1, noise_std=0.1, seed=71)
    )
    kernel = regress.KernelSpec(kind="rbf", sigma=2.0)
    for method in ("rls", "lrr", "krls", "klrr"):
        model = fit_method(method, data.x_train, data.y_train, 1e-2, (2, 2, 2), kernel)
        u0, *rest = model.factors.factors
        assert all(u is None for u in rest), method
        assert (u0 is None) == (method != "klrr") and (u0 is None or u0.shape == (6, 2)), method
        buf = io.BytesIO()
        regress.save_model(model, buf)
        assert b"DTEN 1 2 6 6\n" not in buf.getvalue(), method


def test_run_forecast_experiment(tmp_path):
    met = tmp_path / "met"
    stations = helpers.write_station_dir(met, n_months=80)
    cfg = {
        "seed": 2,
        "met_dir": str(met),
        "stations": stations,
        "window": 2,
        "horizons": [1, 2],
        "train_sizes": [30],
        "test_size": 20,
        "val_size": 10,
        "runs": 2,
        "methods": [
            {"method": "rls"},
            {"method": "holrr"},
            {"method": "krls", "kernel": {"kind": "rbf", "sigma": "median"}},
        ],
        "gammas": [1e-2, 1.0],
    }
    out = tmp_path / "fc"
    report = run_experiment("forecast", cfg, out_dir=out, timing="none")
    assert len(report.records) == 2 * 1 * 2 * 3  # horizons x sizes x runs x methods
    for r in report.records:
        assert r["k"] in (1, 2)
        assert r["N"] == 30
        assert np.isfinite(r["rmse"])
        assert r["rmse"] < 2.0  # z-scored outputs
    assert (out / "report.csv").exists()


def test_forecast_parallel_jobs_match_serial(tmp_path):
    # each task carries its ForecastDataset to the worker process
    met = tmp_path / "met"
    cfg = {"met_dir": str(met), "stations": helpers.write_station_dir(met, n_months=240)}
    rep1 = run_experiment("forecast", cfg, jobs=1, timing="none", quick=True)
    rep2 = run_experiment("forecast", cfg, jobs=2, timing="none", quick=True)
    assert len(rep1.records) == 3 * 2 * 3 * 6  # horizons x sizes x runs x methods
    assert rep1.records == rep2.records


def test_forecast_resolves_each_kernel_config_once_per_task(tmp_path, monkeypatch):
    # the median sigma is O(N^2): krls, klrr and kholrr share one rbf config
    met = tmp_path / "met"
    cfg = {"met_dir": str(met), "stations": helpers.write_station_dir(met, n_months=240)}
    medians, resolve = [], harness._resolve_kernel

    def spy(spec, x):
        if isinstance(spec, dict) and spec.get("sigma") == "median":
            medians.append(len(x))
        return resolve(spec, x)

    monkeypatch.setattr(harness, "_resolve_kernel", spy)
    report = run_experiment("forecast", cfg, timing="none", quick=True)
    assert len(medians) == 3 * 2 * 3  # horizons x sizes x runs: one per task
    assert len(report.records) == len(medians) * 6


def test_forecast_one_point_grid_fits_without_search(tmp_path, monkeypatch):
    met = tmp_path / "met"
    stations = helpers.write_station_dir(met, n_months=80)
    rbf = {"kind": "rbf", "sigma": "median"}
    cfg = {
        "seed": 4,
        "met_dir": str(met),
        "stations": stations,
        "horizons": [1, 2],
        "train_sizes": [30],
        "test_size": 20,
        "val_size": 10,
        "runs": 2,
        "methods": [{"method": m} for m in ("rls", "lrr", "holrr")] + [{"method": "kholrr", "kernel": rbf}],
        "gammas": [1e-2],
        "rank_candidates": [[6, 1, 4, 3]],
    }
    calls, path_predict = [], regress.path_predict

    def spy(*args, **kw):
        calls.append(args)
        return path_predict(*args, **kw)

    monkeypatch.setattr(regress, "path_predict", spy)
    report = run_experiment("forecast", cfg, timing="none")
    assert calls == []
    # each record is the fit at the one point on its task's rows
    data = load_metoffice(met, stations)
    assert len(report.records) == 2 * 2 * 4
    for r in report.records:
        ds = build_forecast_dataset(data, window=2, horizon=r["k"])
        tr, te = np.split(substream(r["seed"], "trial").permutation(len(ds.x))[:50], [30])
        x, y, _ = normalize_forecast(ds, tr)
        kernel = _resolve_kernel(rbf, x[tr]) if r["kernel"] else None
        model = fit_method(r["method"], x[tr], y[tr], 1e-2, (6, 1, 4, 3), kernel)
        assert r["rmse"] == rmse(y[te], model.predict(x[te])), r


def test_kernel_spec_entries_report_like_their_dict_form(tmp_path):
    poly = KernelSpec(kind="polynomial", degree=2, offset=0.0)
    reports = []
    for kernel in (poly, poly.to_dict()):
        cfg = tiny_synth_config(
            trials=1,
            methods=[{"method": "rls"}, {"method": "krls", "kernel": kernel}, {"method": "kholrr", "kernel": kernel}],
        )
        out = tmp_path / type(kernel).__name__
        reports.append((run_experiment("synth-linear", cfg, out_dir=out, timing="none"), out))
    (spec_rep, spec_out), (dict_rep, dict_out) = reports
    assert spec_rep.records == dict_rep.records
    assert [r["kernel"] for r in spec_rep.records[:3]] == ["", "polynomial", "polynomial"]
    for fname in ("report.csv", "report.json", "plot_rmse_vs_n.csv"):
        assert (spec_out / fname).read_bytes() == (dict_out / fname).read_bytes(), fname


def test_unknown_experiment():
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment("mystery")


def test_write_report_without_records(tmp_path):
    from tensorreg.harness import ExperimentReport

    rep = ExperimentReport(name="synth-linear", config={"seed": 0})
    write_report(rep, tmp_path)
    assert (tmp_path / "report.csv").read_text() == (
        "experiment,method,kernel,N,k,trial,seed,rmse,fit_seconds\n"
    )
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["aggregates"] == []
