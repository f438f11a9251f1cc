"""The helper thread of a fit.

When q is square and `regress._overlaps` holds (numpy's BLAS runs one
thread, and the Grams and the decomposition are each large enough),
`regress._statistics` forms the Grams of Y that need no decomposition (the
output-mode Grams, and G_0 when the pencil goes through it) on one helper
thread while the calling thread decomposes the inputs (`_input_side`), and
joins it before the first product with q; otherwise the calling thread
forms them after the decomposition.  These tests pin what that may change
and what it may not:

- the choice: the helper starts for a large square-q fit at one BLAS
  thread only, not at two or an unknown count, not for a small fit, and
  `_blas_threads` reads the count the process runs;
- the bits: every fit and the CV path give the same core, factors and
  predictions with the helper swapped for an executor that runs each task
  inline, on every route: Z = q^T Y_(0) for a thin q (no helper) and for a
  kernel q with D < N, and G_0 for a square q from a kernel and from X with
  d0 >= N;
- the calling thread: every public tensorreg function of a fit or a CV path
  runs on it, and only private helpers run on the helper;
- the lifetime: no thread outlives a fit, also a fit whose decomposition
  fails (the CLI still exits 3), so `--jobs N` forks with no thread alive
  and equals the serial run;
- a fit that reads Y from its file (`tensor.DtenColumns`): its first pass
  forms the Grams on the helper, public functions stay on the calling
  thread, and a failed decomposition still joins the helper.

Past the choice, the tests run small problems with the helper forced on
(`helper_on`: one BLAS thread, no least size).
"""

import inspect
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from tensorreg import cli, datagen, harness, linalg, regress, tensor
from tensorreg.regress import KernelSpec, RegressionProblem, gram, holrr_fit, kholrr_fit, path_predict
from tensorreg.tensor import write_dten

MODULES = (tensor, linalg, regress, harness, datagen, cli)
SPEC = KernelSpec(kind="rbf", sigma=3.0)


class _Inline:
    """An executor that runs each task as it is submitted, on the calling thread."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        done = Future()
        try:
            done.set_result(fn(*args))
        except BaseException as e:
            done.set_exception(e)
        return done


@pytest.fixture
def helper_on(monkeypatch):
    """Start the helper on every square-q fit with a Gram to form."""
    monkeypatch.setattr(regress, "_blas_threads", lambda: 1)
    monkeypatch.setattr(regress, "_OVERLAP_FLOPS", 0)


def _problem(n, d0, dims, seed=7):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d0)), np.asfortranarray(rng.standard_normal((n, *dims))), rng.standard_normal((9, d0))


# (route, kernel, N, d0, output dims): D = prod(dims)
ROUTES = [
    ("thin", None, 60, 8, (4, 3, 3)),  # thin primal q (d0 < N): Z = q^T Y_(0), no helper
    ("z-kernel", SPEC, 60, 6, (4, 3, 3)),  # square q from K, D < N: Z
    ("g0-kernel", SPEC, 30, 6, (4, 3, 5)),  # square q from K, D >= N: G_0
    ("g0-primal", None, 30, 40, (4, 3, 5)),  # square q from X (d0 >= N), D >= N: G_0
]


def _fit(kernel, x, y, ranks, gamma):
    if kernel is None:
        return holrr_fit(RegressionProblem(x, y, ranks, gamma))
    return kholrr_fit(gram(x, kernel), y, ranks, gamma, x, kernel)


def _spy_grams(monkeypatch):
    """Record (thread id, cut) of every `_mode_grams` call that forms a Gram."""
    calls, real = [], regress._mode_grams

    def spy(y, cut):
        if any(cut):
            calls.append((threading.get_ident(), list(cut)))
        return real(y, cut)

    monkeypatch.setattr(regress, "_mode_grams", spy)
    return calls


def _gram_threads(monkeypatch, kernel, n, d0, dims) -> set:
    """The threads the Grams of one fit ran on: {True} the calling thread,
    {False} the helper."""
    x, y, _ = _problem(n, d0, dims)
    calls = _spy_grams(monkeypatch)
    _fit(kernel, x, y, (3, 2, 2, 2), 1e-3)
    assert calls
    return {ident == threading.get_ident() for ident, _ in calls}


@pytest.mark.parametrize("threads, on_helper", [(1, True), (2, False), (None, False)])
@pytest.mark.parametrize("kernel, d0", [(SPEC, 6), (None, 300)], ids=["kernel", "primal"])
def test_a_large_fit_starts_the_helper_at_one_blas_thread_only(threads, on_helper, kernel, d0, monkeypatch):
    # N = 200, D = 1000: Grams 4.6e7 flops (G_0 among them), the
    # decomposition 8e7 or 1.2e8: both past `_OVERLAP_FLOPS`.  At two BLAS
    # threads each thread's BLAS calls would ask for both cores, and an
    # unknown count is taken as not one.
    monkeypatch.setattr(regress, "_blas_threads", lambda: threads)
    assert _gram_threads(monkeypatch, kernel, 200, d0, (10, 10, 10)) == {not on_helper}


@pytest.mark.parametrize("route, kernel, n, d0, dims", ROUTES, ids=[r[0] for r in ROUTES])
def test_a_small_fit_starts_no_helper(route, kernel, n, d0, dims, monkeypatch):
    # each route's problem is under `_OVERLAP_FLOPS` on one side (the
    # kernel fits of synth-nonlinear and forecast are of this size), where
    # the thread's start would cost more than the overlap saves
    monkeypatch.setattr(regress, "_blas_threads", lambda: 1)
    assert _gram_threads(monkeypatch, kernel, n, d0, dims) == {True}


def test_the_least_size_counts_both_sides(monkeypatch):
    monkeypatch.setattr(regress, "_blas_threads", lambda: 1)
    cut = [True, True, True, True]
    assert regress._overlaps((100, 10, 10, 10), cut, 100)  # Grams 1.3e7, eigh(K) 1e7
    assert not regress._overlaps((100, 6, 6, 6), cut, 100)  # Grams 2.6e6
    assert not regress._overlaps((60, 20, 20, 20), cut, 60)  # Grams 5.8e7, eigh(K) 2.2e6
    assert not regress._overlaps((100, 10, 10, 10), [False] * 4, 100)  # nothing to form
    assert regress._overlaps((100, 10, 10, 10), cut, 200)  # X with d0 = 200: 2e7


def test_blas_threads_reads_the_count_the_process_runs():
    if regress._blas_threads() is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    code = "from tensorreg import regress; print(regress._blas_threads())"
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == threads


@pytest.mark.parametrize("route, kernel, n, d0, dims", ROUTES, ids=[r[0] for r in ROUTES])
def test_the_helper_thread_gives_the_serial_bits(route, kernel, n, d0, dims, monkeypatch, helper_on):
    x, y, x_val = _problem(n, d0, dims)
    calls = _spy_grams(monkeypatch)
    rank_sets = [(3, 2, 2, 2), (2, 4, 3, 3)]
    threaded = [_fit(kernel, x, y, ranks, 1e-3) for ranks in rank_sets]
    paths = list(path_predict(x, y, x_val, [1e-3, 0.5], rank_sets, kernel))
    # the Grams ran on the helper (on the calling thread after a thin SVD),
    # G_0 among them on the G_0 routes
    assert calls and all((ident == threading.get_ident()) == (route == "thin") for ident, _ in calls)
    assert all(cut[0] == route.startswith("g0") for _, cut in calls)
    monkeypatch.setattr(regress, "_helper", _Inline)
    calls.clear()
    serial = [_fit(kernel, x, y, ranks, 1e-3) for ranks in rank_sets]
    assert calls and all(ident == threading.get_ident() for ident, _ in calls)
    for a, b in zip(threaded, serial):
        assert np.array_equal(a.factors.core, b.factors.core)
        for ua, ub in zip(a.factors.factors, b.factors.factors):
            assert (ua is None) == (ub is None) and (ua is None or np.array_equal(ua, ub))
        assert np.array_equal(a.dual_values, b.dual_values)
    again = list(path_predict(x, y, x_val, [1e-3, 0.5], rank_sets, kernel))
    assert [p for p, _ in paths] == [p for p, _ in again] and len(paths) == 4
    for (_, a), (_, b) in zip(paths, again):
        assert np.array_equal(a, b)


def _record_public_calls(monkeypatch) -> list:
    """Wrap every public function of tensorreg (defined in its module, no
    leading underscore), at its module attribute and every name another
    module imported it under, to record (name, thread id) per call."""
    calls, wrappers = [], {}
    for mod in MODULES:
        for name, fn in inspect.getmembers(mod, inspect.isfunction):
            if fn.__module__ == mod.__name__ and not name.startswith("_"):

                def wrapper(*args, _fn=fn, _name=f"{mod.__name__}.{name}", **kwargs):
                    calls.append((_name, threading.get_ident()))
                    return _fn(*args, **kwargs)

                wrappers[fn] = wrapper
    for mod in MODULES:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                monkeypatch.setattr(mod, attr, wrappers[value])
    return calls


def test_public_functions_run_on_the_calling_thread(monkeypatch, helper_on):
    x, y, x_val = _problem(30, 40, (4, 3, 5))  # d0 >= N: the primal q is square too
    grams = _spy_grams(monkeypatch)
    calls = _record_public_calls(monkeypatch)
    for kernel in (None, SPEC):
        harness.fit_method("kholrr" if kernel else "holrr", x, y, 1e-3, (3, 2, 2, 2), kernel)
        list(regress.path_predict(x, y, x_val, [1e-3, 0.5], [(3, 2, 2, 2), (30, 4, 3, 5)], kernel))
    regress.lrr_fit(x, y.reshape(30, -1), 3, 1e-3)
    names = {name for name, _ in calls}
    assert {"tensorreg.regress.kholrr_fit", "tensorreg.regress.gram", "tensorreg.linalg.sym_eig_top",
            "tensorreg.tensor.multi_mode_product", "tensorreg.regress.holrr_predict_batch"} <= names
    assert all(ident == threading.get_ident() for _, ident in calls)
    # while the Grams of Y ran on the helper
    assert grams and all(ident != threading.get_ident() for ident, _ in grams)


def _alive(calls) -> set:
    """The threads that formed the recorded Grams and are still alive."""
    return {ident for ident, _ in calls} & {t.ident for t in threading.enumerate()} - {threading.get_ident()}


def test_no_thread_outlives_a_fit(monkeypatch, helper_on):
    x, y, x_val = _problem(30, 40, (4, 3, 5))
    calls = _spy_grams(monkeypatch)
    base = threading.active_count()
    _fit(None, x, y, (3, 2, 2, 2), 1e-3)
    _fit(SPEC, x, y, (3, 2, 2, 2), 1e-3)
    list(path_predict(x, y, x_val, [1e-3], [(3, 2, 2, 2)], None))
    list(path_predict(x, y, x_val, [1e-3], [(3, 2, 2, 2)], SPEC))
    assert len(calls) == 4 and all(ident != threading.get_ident() for ident, _ in calls)
    assert not _alive(calls) and threading.active_count() == base


def test_a_failed_decomposition_joins_the_helper(tmp_path, capsys, monkeypatch, helper_on):
    # eigh(K) fails while the helper still forms the Grams: the fit waits for
    # the helper, then raises, and leaves no thread behind
    x, y, _ = _problem(30, 6, (4, 3, 5))
    finished, real = [], regress._mode_grams

    def slow(y, cut):
        time.sleep(0.05)
        out = real(y, cut)
        finished.append(threading.get_ident())
        return out

    def broken(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(regress, "_mode_grams", slow)
    monkeypatch.setattr(np.linalg, "eigh", broken)
    base = threading.active_count()
    with pytest.raises(np.linalg.LinAlgError):
        _fit(SPEC, x, y, (3, 2, 2, 2), 1e-3)
    assert len(finished) == 1 and finished[0] != threading.get_ident()
    assert not _alive([(finished[0], None)]) and threading.active_count() == base
    write_dten(x, tmp_path / "x.dten")
    write_dten(y, tmp_path / "y.dten")
    code = cli.main(["fit", "--x", str(tmp_path / "x.dten"), "--y", str(tmp_path / "y.dten"), "--ranks", "3,2,2,2",
                     "--kernel", "rbf:3", "--out", str(tmp_path / "m.bin")])
    assert code == 3 and "numerical failure" in capsys.readouterr().err
    assert len(finished) == 2 and not (tmp_path / "m.bin").exists()
    assert threading.active_count() == base


def test_parallel_kernel_experiment_after_a_kernel_fit_matches_serial(monkeypatch, helper_on):
    # the in-process fit leaves no thread, so the worker processes fork clean
    x, y, _ = _problem(30, 6, (4, 3, 5))
    calls = _spy_grams(monkeypatch)
    base = threading.active_count()
    _fit(SPEC, x, y, (3, 2, 2, 2), 1e-3)
    assert calls and not _alive(calls) and threading.active_count() == base
    cfg = {"trials": 2, "train_sizes": [12, 16], "test_size": 8, "input_dim": 3, "output_dims": [3, 2],
           "w_ranks": [2, 2, 2], "gammas": [1e-2, 1.0], "rank_candidates": [[2, 2, 2]], "cv_folds": 2, "seed": 5}
    serial = harness.run_experiment("synth-nonlinear", cfg, jobs=1, timing="none")
    parallel = harness.run_experiment("synth-nonlinear", cfg, jobs=2, timing="none")
    assert {r["method"] for r in serial.records} >= {"krls", "klrr", "kholrr"}
    assert serial.records == parallel.records and serial.aggregates == parallel.aggregates


@pytest.mark.parametrize("kernel, d0", [(SPEC, 6), (None, 40)], ids=["kernel", "primal"])
def test_a_streamed_square_q_fit_reads_its_file_on_the_helper(tmp_path, monkeypatch, helper_on, kernel, d0):
    # Y read from its file (`tensor.DtenColumns`): the pass that forms the
    # Grams runs on the helper beside the decomposition, every public
    # function on the calling thread, and a Y that fits in one chunk gives
    # the bits of the in-memory fit
    x, y, _ = _problem(30, d0, (4, 3, 5))
    write_dten(y, tmp_path / "y.dten")
    grams = _spy_grams(monkeypatch)
    calls = _record_public_calls(monkeypatch)
    with tensor.DtenColumns(tmp_path / "y.dten") as source:
        streamed = _fit(kernel, x, source, (3, 2, 2, 2), 1e-3)
    assert grams and all(ident != threading.get_ident() for ident, _ in grams)
    assert calls and all(ident == threading.get_ident() for _, ident in calls)
    assert not _alive(grams)
    expect = _fit(kernel, x, y, (3, 2, 2, 2), 1e-3)
    assert np.array_equal(streamed.factors.core, expect.factors.core)
    assert all(np.array_equal(a, b) for a, b in zip(streamed.factors.factors, expect.factors.factors))


def test_a_failed_decomposition_joins_the_helper_reading_a_file(tmp_path, monkeypatch, helper_on):
    # eigh(K) fails while the helper reads Y from its file: the fit waits for
    # the helper, then raises, and leaves no thread behind
    x, y, _ = _problem(30, 6, (4, 3, 5))
    write_dten(y, tmp_path / "y.dten")
    finished, real = [], regress._mode_grams

    def slow(y, cut):
        time.sleep(0.05)
        out = real(y, cut)
        finished.append((threading.get_ident(), type(y)))
        return out

    def broken(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(regress, "_mode_grams", slow)
    monkeypatch.setattr(np.linalg, "eigh", broken)
    base = threading.active_count()
    with tensor.DtenColumns(tmp_path / "y.dten") as source, pytest.raises(np.linalg.LinAlgError):
        _fit(SPEC, x, source, (3, 2, 2, 2), 1e-3)
    assert finished == [(finished[0][0], tensor.DtenColumns)] and finished[0][0] != threading.get_ident()
    assert not _alive([(finished[0][0], None)]) and threading.active_count() == base


@pytest.mark.parametrize("threads, ahead", [(1, True), (2, False), (None, False)])
def test_a_streamed_fit_reads_ahead_at_one_blas_thread_only(tmp_path, monkeypatch, threads, ahead):
    # the reader thread takes a core of its own, as the helper does: at two
    # BLAS threads, or an unknown count, every read waits for its turn
    x, y, _ = _problem(60, 8, (4, 3, 3))
    write_dten(y, tmp_path / "y.dten")
    monkeypatch.setattr(regress, "_blas_threads", lambda: threads)
    monkeypatch.setattr(tensor, "_IO_CHUNK", 16 * 60 * 4)  # reads of 4 columns
    seen, real = [], tensor.DtenColumns.reads
    monkeypatch.setattr(tensor.DtenColumns, "reads", lambda self, requests, ahead=True: seen.append(ahead) or real(self, requests, ahead))
    with tensor.DtenColumns(tmp_path / "y.dten") as source:
        _fit(None, x, source, (3, 2, 2, 2), 1e-3)
        cli._training_rmse(regress.holrr_fit(RegressionProblem(x, y, (3, 2, 2, 2), 1e-3)), x, source)
    assert len(seen) >= 3 and set(seen) == {ahead}
