import json
import math
import sys
import warnings

import numpy as np
import pytest

import helpers
from tensorreg import cli, harness, regress
from tensorreg.cli import main
from tensorreg.datagen import SynthSpec, gen_linear_synthetic
from tensorreg.regress import (
    KernelSpec,
    RegressionProblem,
    gram,
    holrr_fit,
    holrr_predict_batch,
    kholrr_fit,
    kholrr_predict_batch,
    load_model,
    save_model,
)
from tensorreg.tensor import read_dten, write_dten, write_matrix_csv


def make_problem_files(tmp_path, seed=0):
    spec = SynthSpec(
        input_dim=4,
        output_dims=(3, 2),
        ranks=(2, 2, 2),
        n_train=20,
        n_test=6,
        noise_std=0.05,
        seed=seed,
    )
    data = gen_linear_synthetic(spec)
    x_csv = tmp_path / "x.csv"
    y_dten = tmp_path / "y.dten"
    xt_csv = tmp_path / "xt.csv"
    write_matrix_csv(data.x_train, x_csv)
    write_dten(data.y_train, y_dten)
    write_matrix_csv(data.x_test, xt_csv)
    return data, x_csv, y_dten, xt_csv


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    events = [json.loads(line) for line in captured.out.splitlines() if line]
    return code, events, captured.err


def test_fit_then_predict_round_trip(tmp_path, capsys):
    data, x_csv, y_dten, xt_csv = make_problem_files(tmp_path)
    model_path = tmp_path / "model.bin"
    code, events, _ = run_cli(
        capsys,
        [
            "fit",
            "--x", str(x_csv),
            "--y", str(y_dten),
            "--ranks", "2,2,2",
            "--gamma", "0.01",
            "--out", str(model_path),
        ],
    )
    assert code == 0
    assert events[0]["event"] == "fit"
    assert events[0]["model"] == "holrr"
    assert events[0]["ranks"] == [2, 2, 2]
    assert np.isfinite(events[0]["training_rmse"])
    assert model_path.read_bytes().startswith(b"HOLRR 3\n")

    pred_path = tmp_path / "pred.dten"
    code, events, _ = run_cli(
        capsys,
        ["predict", "--model", str(model_path), "--x", str(xt_csv), "--out", str(pred_path)],
    )
    assert code == 0
    assert events[0]["event"] == "predict"
    assert events[0]["rows"] == 6

    # CSV cells are repr() of the exact doubles, so this pipeline is lossless;
    # the fit reads Y in its memory order, so the reference takes the
    # column-major layout the CLI reads from DTEN
    prob = RegressionProblem(x=data.x_train, y=np.asfortranarray(data.y_train), ranks=(2, 2, 2), gamma=0.01)
    ref = holrr_predict_batch(holrr_fit(prob), data.x_test)
    np.testing.assert_array_equal(read_dten(pred_path), ref)


def test_fit_kernel_model(tmp_path, capsys):
    data, x_csv, y_dten, xt_csv = make_problem_files(tmp_path, seed=1)
    model_path = tmp_path / "model.bin"
    code, events, _ = run_cli(
        capsys,
        [
            "fit",
            "--x", str(x_csv),
            "--y", str(y_dten),
            "--ranks", "2,2,2",
            "--gamma", "0.1",
            "--kernel", "rbf:2.0",
            "--out", str(model_path),
        ],
    )
    assert code == 0
    assert events[0]["model"] == "kholrr"
    loaded = load_model(model_path)
    assert loaded.kernel == KernelSpec(kind="rbf", sigma=2.0)

    pred_path = tmp_path / "pred.dten"
    code, events, _ = run_cli(
        capsys,
        ["predict", "--model", str(model_path), "--x", str(xt_csv), "--out", str(pred_path)],
    )
    assert code == 0
    spec = KernelSpec(kind="rbf", sigma=2.0)
    y = np.asfortranarray(data.y_train)  # the layout the CLI reads, as above
    ref_model = kholrr_fit(gram(data.x_train, spec), y, (2, 2, 2), 0.1, data.x_train, spec)
    np.testing.assert_array_equal(read_dten(pred_path), kholrr_predict_batch(ref_model, data.x_test))


def test_fit_reports_clamping_on_stderr(tmp_path, capsys):
    _, x_csv, y_dten, _ = make_problem_files(tmp_path, seed=2)
    model_path = tmp_path / "model.bin"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, events, err = run_cli(
            capsys,
            [
                "fit",
                "--x", str(x_csv),
                "--y", str(y_dten),
                "--ranks", "9,9,9",
                "--out", str(model_path),
            ],
        )
    assert code == 0
    assert events[0]["ranks"] == [4, 3, 2]
    assert events[0]["warnings"]
    assert "tensorreg: " in err and "clamped" in err
    # each note reaches stderr once, as its `tensorreg:` line, and no
    # UserWarning escapes the fit
    assert not [w for w in caught if issubclass(w.category, UserWarning)]
    for note in events[0]["warnings"]:
        assert err.count(note) == 1 and f"tensorreg: {note}\n" in err


@pytest.mark.parametrize("kernel", [None, "rbf:3.0"])
def test_csv_and_dten_inputs_give_the_same_bytes(tmp_path, capsys, kernel):
    # the same rows read C-ordered (CSV) or column-major (DTEN) give
    # byte-identical model and prediction files
    rng = np.random.default_rng(8)
    x, x_new = rng.standard_normal((40, 40)), rng.standard_normal((30, 40))
    write_dten(rng.standard_normal((40, 5, 4)), tmp_path / "y.dten")
    outputs = []
    for ext, write in (("csv", write_matrix_csv), ("dten", write_dten)):
        write(x, tmp_path / f"x.{ext}")
        write(x_new, tmp_path / f"xn.{ext}")
        model, pred = tmp_path / f"m_{ext}.bin", tmp_path / f"p_{ext}.dten"
        argv = ["fit", "--x", str(tmp_path / f"x.{ext}"), "--y", str(tmp_path / "y.dten"), "--ranks", "3,2,2"]
        assert main(argv + ["--out", str(model)] + (["--kernel", kernel] if kernel else [])) == 0
        assert main(["predict", "--model", str(model), "--x", str(tmp_path / f"xn.{ext}"), "--out", str(pred)]) == 0
        outputs.append((model.read_bytes(), pred.read_bytes()))
    capsys.readouterr()
    assert outputs[0] == outputs[1]


def test_exit_code_2_argument_and_file_errors(tmp_path, capsys):
    data, x_csv, y_dten, _ = make_problem_files(tmp_path, seed=3)
    out = str(tmp_path / "m.bin")
    assert main([]) == 2
    assert main(["fit", "--x", str(x_csv), "--y", str(y_dten), "--out", out]) == 2  # no ranks
    cases = [
        ["fit", "--x", str(x_csv), "--y", str(y_dten), "--ranks", "2,x", "--out", out],
        ["fit", "--x", str(tmp_path / "missing.csv"), "--y", str(y_dten), "--ranks", "2,2,2", "--out", out],
        ["fit", "--x", str(x_csv), "--y", str(y_dten), "--ranks", "2,2,2", "--kernel", "warp", "--out", out],
        ["fit", "--x", str(x_csv), "--y", str(y_dten), "--ranks", "2,2", "--out", out],  # wrong count
        ["predict", "--model", str(tmp_path / "missing.bin"), "--x", str(x_csv), "--out", out],
        ["tensor", "to-csv", str(y_dten)],  # OUT required
        ["tensor", "to-csv", str(y_dten), str(tmp_path / "y.csv")],  # order 3
    ]
    for argv in cases:
        assert main(argv) == 2, argv
    capsys.readouterr()


def test_exit_code_2_non_finite_gamma_or_data(tmp_path, capsys):
    data, x_csv, y_dten, _ = make_problem_files(tmp_path, seed=5)
    bad_y = data.y_train.copy()
    bad_y[0, 0, 0] = np.nan
    nan_y = tmp_path / "nan_y.dten"
    write_dten(bad_y, nan_y)
    out = tmp_path / "m.bin"
    cases = [
        ["--y", str(y_dten), "--gamma", "nan"],
        ["--y", str(y_dten), "--gamma", "inf"],
        ["--y", str(y_dten), "--gamma", "nan", "--kernel", "rbf:1.0"],
        ["--y", str(nan_y), "--kernel", "rbf:1.0"],
    ]
    for extra in cases:
        code = main(["fit", "--x", str(x_csv), "--ranks", "2,2,2", "--out", str(out), *extra])
        err = capsys.readouterr().err
        assert code == 2, extra
        assert "tensorreg: " in err and "finite" in err, extra
        assert not out.exists(), extra


def test_exit_code_2_malformed_model_file(tmp_path, capsys):
    _, x_csv, _, _ = make_problem_files(tmp_path, seed=6)
    bad = tmp_path / "bad.bin"
    for header in (b"[1, 2]", b'{"kind":"holrr","ranks":[1],"gamma":0.0}'):
        bad.write_bytes(b"HOLRR 1\n" + header + b"\n")
        code = main(["predict", "--model", str(bad), "--x", str(x_csv), "--out", str(tmp_path / "p.dten")])
        err = capsys.readouterr().err
        assert code == 2, header
        assert err.startswith("tensorreg: ") and "malformed model header" in err, header


def test_exit_code_2_model_file_without_a_factor_block(tmp_path, capsys):
    # HOLRR 3 leaves out an identity factor's block; a HOLRR 2 file may not
    data, _, _, xt_csv = make_problem_files(tmp_path, seed=8)
    model = holrr_fit(RegressionProblem(data.x_train, data.y_train, (2, 3, 2), 0.01))
    assert model.factors.factors[1] is None
    path = tmp_path / "m.bin"
    save_model(model, path)
    path.write_bytes(b"HOLRR 2\n" + path.read_bytes()[len(b"HOLRR 3\n"):])
    code = main(["predict", "--model", str(path), "--x", str(xt_csv), "--out", str(tmp_path / "p.dten")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("tensorreg: ") and "malformed model header" in err and "factor1" in err, err


def test_exit_code_2_non_finite_model_block(tmp_path, capsys):
    data, _, _, xt_csv = make_problem_files(tmp_path, seed=7)
    model = holrr_fit(RegressionProblem(data.x_train, data.y_train, (2, 2, 2), 0.01))
    model.factors.core[0, 0, 0] = np.nan
    bad = tmp_path / "nan.bin"
    save_model(model, bad)
    out = tmp_path / "p.dten"
    code = main(["predict", "--model", str(bad), "--x", str(xt_csv), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("tensorreg: ") and "model block core is not finite" in err, err
    assert not out.exists()


def test_exit_code_2_bad_config(tmp_path, capsys):
    bad_list = tmp_path / "list.json"
    bad_list.write_text("[1, 2]")
    assert main(["experiment", "synth-linear", "--config", str(bad_list), "--out-dir", str(tmp_path / "o")]) == 2
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{nope")
    assert main(["experiment", "synth-linear", "--config", str(bad_json), "--out-dir", str(tmp_path / "o")]) == 2
    assert main(["experiment", "mystery", "--out-dir", str(tmp_path / "o")]) == 2
    capsys.readouterr()


def test_exit_code_2_bad_rank_candidates(tmp_path, capsys):
    for candidates in ([[]], [[0, 4, 4, 8]]):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rank_candidates": candidates, "trials": 1, "train_sizes": [20]}))
        code = main(["experiment", "synth-linear", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2, candidates
        assert err.startswith("tensorreg: ") and "rank candidates" in err, candidates


def test_exit_code_2_rank_candidate_arity(tmp_path, capsys):
    # synth-linear's data has order 4: a shorter candidate must not reach the CV
    # path's per-mode indexing, and a longer one must not be cut there
    for candidate in ([6, 4, 4], [6, 4, 4, 8, 2]):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rank_candidates": [candidate], "trials": 1, "train_sizes": [20]}))
        code = main(["experiment", "synth-linear", "--quick", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2, candidate
        assert err == f"tensorreg: holrr needs 4 ranks (input mode plus output modes), got {tuple(candidate)}\n", err


def test_exit_code_2_fewer_than_two_cv_folds(tmp_path, capsys):
    # synth selection's folds come from cv_folds alone: fewer than 2 is a
    # tensorreg: line, even when every grid has one point
    for folds in (1, 0):
        cfg = experiment_config(tmp_path, cv_folds=folds)
        code = main(["experiment", "synth-linear", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("tensorreg: ") and "folds" in err and err.count("\n") == 1, (folds, err)


def test_exit_code_2_image_rank_zero(tmp_path, capsys):
    base = {"image": "fields", "height": 8, "width": 8, "n_train": 20, "trials": 1}
    for key, value in (("lrr_ranks", [0]), ("holrr_ranks", [[3, 0, 4]])):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**base, key: value}))
        code = main(["experiment", "image", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2, key
        assert err.startswith("tensorreg: ") and f"{key} must be non-empty" in err, err


def test_exit_code_2_numbers_past_float_range(tmp_path, capsys):
    # an rbf sigma whose square overflows, a 400-digit gamma, an infinite
    # trial count: each is a tensorreg: line, not an OverflowError traceback
    _, x_csv, y_dten, _ = make_problem_files(tmp_path, seed=10)
    out = tmp_path / "m.bin"
    code = main(["fit", "--x", str(x_csv), "--y", str(y_dten), "--ranks", "2,2,2", "--kernel", "rbf:1e200", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("tensorreg: ") and "bandwidth" in err, err
    assert not out.exists()
    huge_gamma = experiment_config(tmp_path, gammas=[10**400]).read_text()
    inf_trials = experiment_config(tmp_path).read_text().replace('"trials": 1,', '"trials": 1e400,')
    for text in (huge_gamma, inf_trials):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        code = main(["experiment", "synth-linear", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("tensorreg: "), (text, err)


def test_exit_code_2_polynomial_kernel_overflow(tmp_path, capsys):
    # (x.y + 1)^400 is past float range on these rows: a tensorreg: line
    # naming the kernel, with no RuntimeWarning and no late eigh failure
    _, x_csv, y_dten, _ = make_problem_files(tmp_path, seed=11)
    out = tmp_path / "m.bin"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["fit", "--x", str(x_csv), "--y", str(y_dten), "--ranks", "2,2,2", "--kernel", "poly:400", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and err == "tensorreg: polynomial kernel (degree 400, offset 1.0) overflows on these inputs\n", err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def test_exit_code_2_malformed_methods_entry(tmp_path, capsys):
    # checked before any task runs or the output directory is made
    for methods, shown in (([{"method": "rls"}, {"kernel": "rbf:2"}], "{'kernel': 'rbf:2'}"), ("rls", "'rls'")):
        cfg = experiment_config(tmp_path, methods=methods)
        code = main(["experiment", "synth-linear", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("tensorreg: ") and shown in err, (methods, err)
        assert not (tmp_path / "o").exists()


def test_exit_code_2_config_value_of_the_wrong_json_type(tmp_path, capsys):
    # null, a number or a stray key where a list, an object or a known key
    # belongs: a tensorreg: line with exit 2, not a TypeError traceback
    krls = {"method": "krls", "kernel": "rbf:2"}
    for kw in (
        {"cv_folds": None},
        {"gammas": None},
        {"gammas": [None]},
        {"rank_candidates": 5},
        {"trials": None},
        {"methods": [{"method": "rls", "gammas": 5}]},
        {"methods": [dict(krls, kernel=5)]},
        {"methods": [dict(krls, kernel={"kind": "rbf", "bogus": 1})]},
    ):
        cfg = experiment_config(tmp_path, **kw)
        code = main(["experiment", "synth-linear", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("tensorreg: malformed config (TypeError: ") and err.count("\n") == 1, (kw, err)
    # forecast's default met_dir is null
    code = main(["experiment", "forecast", "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("tensorreg: ") and "--met-dir" in err, err


def test_config_nested_too_deeply_to_report_leaves_no_report_file(tmp_path, capsys):
    # the run succeeds and the report's writer overflows on the nested value,
    # under a key nothing reads: no report file may be left half written
    for depth in (800, sys.getrecursionlimit() - 50):
        cfg = json.loads(experiment_config(tmp_path).read_text())
        text = json.dumps(cfg)[:-1] + ', "note": ' + "[" * depth + "]" * depth + "}"
        path = tmp_path / "deep.json"
        path.write_text(text)
        out_dir = tmp_path / f"o{depth}"
        code = main(["experiment", "synth-linear", "--config", str(path), "--out-dir", str(out_dir), "--timing", "none"])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("tensorreg: malformed config (RecursionError: ") and err.count("\n") == 1, err
        assert not [f for f in out_dir.iterdir() if f.name.startswith(("report", "plot_"))]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("suffix", [".csv", ".dten"])
def test_exit_code_2_non_finite_input_rows_to_predict(tmp_path, capsys, bad, suffix):
    # a primal model's rows are checked as a kernel model's are: one
    # tensorreg: line, no prediction file
    data, x_csv, y_dten, _ = make_problem_files(tmp_path, seed=8)
    model = tmp_path / "m.bin"
    assert main(["fit", "--x", str(x_csv), "--y", str(y_dten), "--ranks", "2,2,2", "--out", str(model)]) == 0
    capsys.readouterr()
    rows = data.x_test.copy()
    rows[-1, 1] = bad
    x_bad = tmp_path / f"bad{suffix}"
    (write_matrix_csv if suffix == ".csv" else write_dten)(rows, x_bad)
    out = tmp_path / "p.dten"
    code = main(["predict", "--model", str(model), "--x", str(x_bad), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and err == "tensorreg: input rows must be finite\n", err
    assert not out.exists()


def test_exit_code_2_dten_dims_beyond_the_file(tmp_path, capsys):
    for dims in ((99999999999999999999, 2), (3037000500, 3037000500, 2)):
        path = tmp_path / "huge.dten"
        path.write_bytes(f"DTEN 1 {len(dims)} {' '.join(map(str, dims))}\n".encode() + b"\0" * 64)
        code = main(["tensor", "info", str(path)])
        err = capsys.readouterr().err
        assert code == 2, dims
        # the exact byte count, not an int64 wrap-around or an OverflowError
        assert err.startswith("tensorreg: ") and f"expected {8 * math.prod(dims)} bytes, got 64" in err, err


def test_exit_code_2_non_canonical_dten_header(tmp_path, capsys):
    for header in (b"DTEN 1 1 1_0", b"DTEN 1 1\t3", b"DTEN 1 1 +3", b"DTEN 1 1 010", b"DTEN 1 1 3 "):
        path = tmp_path / "odd.dten"
        path.write_bytes(header + b"\n" + b"\0" * 80)
        code = main(["tensor", "info", str(path)])
        err = capsys.readouterr().err
        assert code == 2, header
        assert err == "tensorreg: malformed DTEN header\n", err


@pytest.mark.parametrize("command", ["info", "fit-y", "fit-y-kernel", "predict-x"])
def test_exit_code_2_dten_file_past_its_payload(tmp_path, capsys, command):
    # a file that continues past the payload its header announces (for
    # `tensor info`, a DTEN 1 2 3 2 header over a 3 x 4 payload) is rejected
    # before any statistic is formed or any file written
    data, x_csv, y_dten, xt_csv = make_problem_files(tmp_path, seed=3)
    bad = tmp_path / "bad.dten"
    bad.write_bytes(b"DTEN 1 2 3 2\n" + np.arange(12.0).astype("<f8").tobytes())
    if command.startswith("fit"):
        write_dten(data.y_train, bad)
        bad.write_bytes(bad.read_bytes() + b"\0" * 8)
        argv = ["fit", "--x", str(x_csv), "--y", str(bad), "--ranks", "2,2,2", "--out", str(tmp_path / "m.bin")]
        argv += ["--kernel", "rbf:2"] if command.endswith("kernel") else []
        nbytes = data.y_train.nbytes
    elif command == "predict-x":
        assert main(["fit", "--x", str(x_csv), "--y", str(y_dten), "--ranks", "2,2,2", "--out", str(tmp_path / "m.bin")]) == 0
        write_dten(data.x_test, bad)
        bad.write_bytes(bad.read_bytes() + b"\0")
        argv = ["predict", "--model", str(tmp_path / "m.bin"), "--x", str(bad), "--out", str(tmp_path / "p.dten")]
        nbytes = data.x_test.nbytes
    else:
        argv, nbytes = ["tensor", "info", str(bad)], 48
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"tensorreg: DTEN file continues past its payload of {nbytes} bytes\n", captured.err
    assert not (tmp_path / "p.dten").exists() and (command == "predict-x") == (tmp_path / "m.bin").exists()


def test_fit_training_rmse_is_the_rmse_of_the_training_predictions(tmp_path, capsys, monkeypatch):
    data, x_csv, y_dten, _ = make_problem_files(tmp_path, seed=5)
    # blocks of 4 columns (the last one short) of 20 rows
    monkeypatch.setattr(regress, "_PREDICT_BYTES", 4 * 8 * 20)
    for kernel in ([], ["--kernel", "rbf:2.0"]):
        model_path = tmp_path / "model.bin"
        code, events, _ = run_cli(
            capsys,
            ["fit", "--x", str(x_csv), "--y", str(y_dten), "--ranks", "2,2,2", "--gamma", "0.01",
             "--out", str(model_path)] + kernel,
        )
        assert code == 0
        ref = harness.rmse(data.y_train, load_model(model_path).predict(data.x_train))
        assert events[0]["training_rmse"] == pytest.approx(ref, rel=1e-12, abs=0)
        # the fitted model and the one its file loads as give the same stream
        loaded = cli._training_rmse(load_model(model_path), cli._read_matrix(x_csv), read_dten(y_dten))
        assert events[0]["training_rmse"] == loaded


def test_exit_code_2_out_dir_is_a_file(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main(["experiment", "synth-linear", "--quick", "--out-dir", str(taken)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("tensorreg: ") and "File exists" in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_exit_code_2_model_written_over_a_directory(tmp_path, capsys, monkeypatch):
    _, x_csv, y_dten, _ = make_problem_files(tmp_path, seed=9)
    monkeypatch.chdir(tmp_path)
    code = main(["fit", "--x", str(x_csv), "--y", str(y_dten), "--ranks", "2,2,2", "--out", "."])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("tensorreg: "), err
    assert not list(tmp_path.glob(".tmp-*"))  # the temp file is removed


def test_exit_code_3_numerical_failure(tmp_path, capsys, monkeypatch):
    _, x_csv, y_dten, _ = make_problem_files(tmp_path, seed=4)

    def boom(prob):
        raise np.linalg.LinAlgError("synthetic breakdown")

    monkeypatch.setattr("tensorreg.regress.holrr_fit", boom)
    code = main(
        ["fit", "--x", str(x_csv), "--y", str(y_dten), "--ranks", "2,2,2", "--out", str(tmp_path / "m.bin")]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert "numerical failure" in err
    assert not (tmp_path / "m.bin").exists()  # nothing written on failure


def test_tensor_info_writes_a_non_finite_number_as_null(tmp_path, capsys):
    path = tmp_path / "bad.dten"
    write_dten(np.array([[1.0, np.nan], [np.inf, 2.0]]), path)
    code = main(["tensor", "info", str(path)])
    out = capsys.readouterr().out

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    event = json.loads(out, parse_constant=reject)
    assert code == 0 and event["frobenius_norm"] is None and event["shape"] == [2, 2]
    assert cli._finite({"a": [1.5, -math.inf, (np.float64("nan"), 2)], "b": "NaN", "c": 3}) == {
        "a": [1.5, None, [None, 2]], "b": "NaN", "c": 3}


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    # build_parser() gives a new parser per call; main reuses one per process
    assert cli.build_parser() is not cli.build_parser()
    built, real = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        path = tmp_path / "m.dten"
        write_dten(np.ones((2, 2)), path)
        for _ in range(3):
            assert main(["tensor", "info", str(path)]) == 0
        assert main(["fit", "--bogus"]) == 2
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()


def test_tensor_info_and_convert(tmp_path, capsys):
    m = np.random.default_rng(5).standard_normal((4, 3))
    src = tmp_path / "m.dten"
    write_dten(m, src)
    code, events, _ = run_cli(capsys, ["tensor", "info", str(src)])
    assert code == 0
    assert events[0]["order"] == 2
    assert events[0]["shape"] == [4, 3]
    assert events[0]["frobenius_norm"] == pytest.approx(np.linalg.norm(m))

    csv_path = tmp_path / "m.csv"
    assert main(["tensor", "to-csv", str(src), str(csv_path)]) == 0
    back_path = tmp_path / "back.dten"
    assert main(["tensor", "from-csv", str(csv_path), str(back_path)]) == 0
    np.testing.assert_array_equal(read_dten(back_path), m)
    ref_csv = tmp_path / "ref.csv"
    write_matrix_csv(m, ref_csv)
    assert csv_path.read_text() == ref_csv.read_text()
    capsys.readouterr()


def test_ingest_met(tmp_path, capsys):
    met = tmp_path / "met"
    stations = helpers.write_station_dir(met, helpers.STATIONS_16[:4], n_months=30)
    out = tmp_path / "ds"
    code, events, _ = run_cli(
        capsys,
        [
            "ingest-met",
            "--dir", str(met),
            "--out-dir", str(out),
            "--window", "2",
            "--horizon", "1",
            "--stations", ",".join(stations),
        ],
    )
    assert code == 0
    assert events[0]["event"] == "ingest-met"
    assert events[0]["input_dim"] == 2 * 4 * 5
    x = read_dten(out / "x.dten")
    y = read_dten(out / "y.dten")
    assert x.shape == (28, 40)
    assert y.shape == (28, 1, 4, 5)
    meta = json.loads((out / "meta.json").read_text())
    assert meta["stations"] == stations
    assert meta["window"] == 2 and meta["horizon"] == 1
    assert len(meta["target_months"]) == 28


def experiment_config(tmp_path, **kw):
    cfg = {
        "trials": 1,
        "train_sizes": [12],
        "test_size": 6,
        "input_dim": 4,
        "output_dims": [3, 2],
        "w_ranks": [2, 2, 2],
        "noise_std": 0.1,
        "gammas": [1e-2],
        "rank_candidates": [[2, 2, 2]],
        "cv_folds": 2,
        "methods": [{"method": "rls"}, {"method": "holrr"}],
    }
    cfg.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_experiment_from_config_file(tmp_path, capsys):
    cfg_path = experiment_config(tmp_path, seed=5)
    out_a = tmp_path / "a"
    code, events, _ = run_cli(
        capsys,
        [
            "experiment", "synth-linear",
            "--config", str(cfg_path),
            "--out-dir", str(out_a),
            "--timing", "none",
        ],
    )
    assert code == 0
    assert events[0]["event"] == "experiment"
    assert events[0]["records"] == 2  # 1 size x 1 trial x 2 methods
    assert any(e["event"] == "aggregate" for e in events[1:])
    assert (out_a / "report.csv").exists()

    out_b = tmp_path / "b"
    assert main(
        [
            "experiment", "synth-linear",
            "--config", str(cfg_path),
            "--out-dir", str(out_b),
            "--timing", "none",
        ]
    ) == 0
    capsys.readouterr()
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()


def test_experiment_seed_precedence(tmp_path, capsys, monkeypatch):
    cfg_path = experiment_config(tmp_path)  # no seed inside

    def run(out, extra, env=None):
        if env is None:
            monkeypatch.delenv(cli.SEED_ENV, raising=False)
        else:
            monkeypatch.setenv(cli.SEED_ENV, env)
        argv = [
            "experiment", "synth-linear",
            "--config", str(cfg_path),
            "--out-dir", str(out),
            "--timing", "none",
        ] + extra
        assert main(argv) == 0
        capsys.readouterr()
        return (out / "report.csv").read_bytes()

    via_flag = run(tmp_path / "flag", ["--seed", "123"])
    via_env = run(tmp_path / "env", [], env="123")
    assert via_flag == via_env
    flag_beats_env = run(tmp_path / "both", ["--seed", "123"], env="999")
    assert flag_beats_env == via_flag
    other = run(tmp_path / "other", ["--seed", "7"])
    assert other != via_flag

    monkeypatch.setenv(cli.SEED_ENV, "not-a-number")
    assert main(
        [
            "experiment", "synth-linear",
            "--config", str(cfg_path),
            "--out-dir", str(tmp_path / "bad"),
            "--timing", "none",
        ]
    ) == 2
    capsys.readouterr()


def test_experiment_trials_override(tmp_path, capsys):
    cfg_path = experiment_config(tmp_path, seed=6)
    out = tmp_path / "t"
    code, events, _ = run_cli(
        capsys,
        [
            "experiment", "synth-linear",
            "--config", str(cfg_path),
            "--out-dir", str(out),
            "--timing", "none",
            "--trials", "3",
        ],
    )
    assert code == 0
    assert events[0]["records"] == 6  # 1 size x 3 trials x 2 methods
