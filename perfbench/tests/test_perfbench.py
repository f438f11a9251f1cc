"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import inspect
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tensorreg import tensor  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _ticks(*values):
    return iter(values).__next__


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    tr = tracing.Tracer(clock=_ticks(0, 1, 2, 3, 4, 5, 9, 10))
    with tr.span("root"):
        with tr.span("a"):
            with tr.span("b"):
                pass
        with tr.span("c"):
            pass
    stats = tracing.summarize(tr.dump())
    assert stats["root"] == {"calls": 1, "s": 10, "self_s": 3}
    assert stats["a"] == {"calls": 1, "s": 3, "self_s": 2}
    assert stats["b"] == {"calls": 1, "s": 1, "self_s": 1}
    assert stats["c"] == {"calls": 1, "s": 4, "self_s": 4}
    assert tracing.root_balance(tr.dump()) == (3, 7, 10)


def test_root_gate_trips_when_spans_miss_the_traced_time():
    # root [0, 10] > a [1, 9]: the root's self time is 2 s of 10
    tr = tracing.Tracer(clock=_ticks(0, 1, 9, 10))
    with tr.span("root"):
        with tr.span("a"):
            pass
    own, inclusive, duration = tracing.root_balance(tr.dump())
    assert own + inclusive == duration
    assert run.root_self_problems(own, duration) == []
    assert len(run.root_self_problems(own, duration * run.MAX_ROOT_SELF)) == 1


def test_paused_tracer_records_nothing():
    tr = tracing.Tracer()
    f = tr.wrap("m.f", lambda x: x + 1)
    with tr.paused():
        assert f(1) == 2
    assert tr.names == []
    f(1)
    assert tr.names == ["m.f"]


def test_inclusive_time_counts_a_nested_span_of_the_same_name_once():
    # outer f [0, 3] > inner f [1, 2]
    tr = tracing.Tracer(clock=_ticks(0, 1, 2, 3))
    f = tr.wrap("m.f", lambda inner: inner() if inner else None)
    f(lambda: f(None))
    stats = tracing.summarize(tr.dump())
    assert stats["m.f"] == {"calls": 2, "s": 3, "self_s": 3}


def test_overlapping_children_are_not_subtracted_twice():
    trace = {
        "names": ["p", "x", "y"],
        "parents": [-1, 0, 0],
        "starts": [0.0, 1.0, 2.0],
        "ends": [10.0, 5.0, 6.0],
    }
    assert tracing.summarize(trace)["p"]["self_s"] == pytest.approx(5.0)


def test_computed_bytes_and_calls_outside_an_ancestor():
    tr = tracing.Tracer()
    mat = tr.wrap("tensor.matricize", lambda t, mode: np.zeros((3, 4)))
    cv = tr.wrap("harness.grid_search_cv", lambda fit: fit())
    fit = tr.wrap("harness.fit_method", lambda: mat(None, 0))
    cv(fit)
    fit()
    trace = tr.dump()
    assert tracing.summarize(trace)["tensor.matricize"]["bytes"] == 2 * 3 * 4 * 8
    assert tracing.calls_outside(trace, "harness.fit_method", "harness.grid_search_cv") == 1


def test_instrument_rebinds_imported_names():
    mods = [importlib.import_module("tensorreg")]
    mods += [importlib.import_module(f"tensorreg.{m}") for m in tracing.MODULES]
    tensor_mod, regress_mod = mods[1], mods[3]
    before = tensor_mod.matricize
    tr = tracing.Tracer()
    try:
        traced = tracing.instrument(tr, modules=("tensor",))
        assert "tensor.matricize" in traced
        assert regress_mod.matricize is tensor_mod.matricize is not before
        regress_mod.matricize(np.ones((2, 3)), 0)
        assert tr.names == ["tensor.matricize"]
    finally:
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and hasattr(obj, "__wrapped__"):
                    setattr(mod, attr, obj.__wrapped__)


def test_names_and_units_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    units = [m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(UNIT.fullmatch(u) for u in units)
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_every_listed_metric_is_produced():
    timings = {"fit_s": [1.0], "predict_s": [1.0], "task_s": [1.0], "row_ms": [1.0, 2.0],
               "units": 1, "unit_phase_s": 1.0}
    measure = {"timings": timings, "peak_rss_mb": 1.0, "model_bytes": 1,
               "attempted": 1, "failed": 0}
    produced = run.end_to_end({"seconds": [1.0]}, measure, {"failed": 0, "test_rmse": 0.1})
    assert sorted(produced) == sorted(m["name"] for m in SPEC["end_to_end"])

    special = {"harness.refit_ratio", "proc.minflt", "proc.sys_s", "trace.spans",
               "trace.wall_s", "trace.root_self_s", "trace.overhead_frac"}
    for m in SPEC["per_layer"]:
        if m["name"] in special:
            continue
        func, _, stat = m["name"].rpartition(".")
        module, _, attr = func.partition(".")
        assert module in tracing.MODULES, m["name"]
        obj = getattr(importlib.import_module(f"tensorreg.{module}"), attr, None)
        assert inspect.isfunction(obj) and not attr.startswith("_"), m["name"]
        if stat in ("bytes", "n3"):
            assert tracing.EXTRA_STATS[func][0] == stat, m["name"]
        else:
            assert stat in ("calls", "s", "self_s"), m["name"]


def _check_dir(tmp_path, pred):
    w = workloads.Workload(3, (2, 2), (2, 2, 2), (5,), 4, ".csv")
    p = workloads.paths(w, tmp_path, 0)
    rng = np.random.default_rng(0)
    noise = rng.normal(0.0, 0.1, size=(4, 2, 2))
    y = rng.normal(size=(4, 2, 2))
    tensor.write_dten(y + noise, p["y_test"])
    tensor.write_dten(pred(y), p["pred"])
    floor = float(np.sqrt(np.mean(noise**2)))
    (tmp_path / "reference.json").write_text(json.dumps([{"floor": floor, "config": {}}]))
    measure = {"preds": [0], "rows_kept": [], "cv_rmse": {},
               "attempted": 4, "failed": 0}
    (tmp_path / "measure.json").write_text(json.dumps(measure))
    check = workloads.run_check(w, tmp_path)
    return check, run.error_rate(measure, check)


def test_a_correct_prediction_passes(tmp_path):
    check, rate = _check_dir(tmp_path, lambda y: y)
    assert check["failed"] == 0 and rate == 0.0
    floor = json.loads((tmp_path / "reference.json").read_text())[0]["floor"]
    assert check["test_rmse"] == pytest.approx(floor)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda y: np.where(np.arange(y.size).reshape(y.shape) == 3, np.nan, y),
        lambda y: y * 1.5,
        lambda y: y[:, :, :1],
    ],
    ids=["nan", "scaled", "shape"],
)
def test_a_corrupted_prediction_counts_in_error_rate(tmp_path, corrupt):
    check, rate = _check_dir(tmp_path, corrupt)
    assert check["failed"] == 1
    assert rate == pytest.approx(1 / 4)


def test_failed_operations_are_tallied():
    tally = workloads.Tally()
    tally.record("fit[0]", [])
    tally.record("fit[0]", workloads.row_problems(np.ones((2, 3)), (2, 2)))
    tally.record("row[0]", workloads.row_problems(np.full((2, 2), np.inf), (2, 2)))
    assert (tally.attempted, tally.failed) == (3, 2)


def test_a_missing_pin_refuses_the_run():
    env = {
        "thread_env": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None},
        "openblas_threads": {"libopenblas.so": 2},
        "tensorreg": "/elsewhere/tensorreg/__init__.py",
    }
    assert len(workloads.pin_problems(env)) == 3
    env = {
        "thread_env": {"OPENBLAS_NUM_THREADS": "1"},
        "openblas_threads": {"libopenblas.so": 1},
        "tensorreg": str(ROOT / "src" / "tensorreg" / "__init__.py"),
    }
    assert workloads.pin_problems(env) == []
