"""tensorreg benchmark workloads: input generation, the timed loop and the
output checks.

run.py starts this file three times per benchmark run, each time in a fresh
process whose environment pins BLAS to one thread:

    workloads.py setup   --workload W --seed S --dir D --trace T
    workloads.py measure --workload W --seed S --dir D --trace T --seconds N
    workloads.py check   --workload W --seed S --dir D

`setup` makes the inputs from the seed and writes them to D.  `measure` runs
the program on those files only and times it; its peak RSS therefore excludes
data generation.  `check` compares what `measure` left in D with the held-out
outputs, in a process of its own so that checking does not raise the measured
memory peak.  Each phase writes D/<phase>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import tensorreg
from tensorreg import cli, datagen, harness, regress, tensor

import tracing

ROOT = Path(__file__).resolve().parents[1]
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

NOISE_STD = 0.1
GAMMA = 1e-3
# held-out RMSE must lie in this band, as multiples of the seed's noise floor
# (the RMSE of the true coefficients); 1.3 x 0.1 is the 0.13 of acceptance check c6
RMSE_BAND = (0.9, 1.3)
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0
# share of the measured time spent in the single-row predict loop, in bursts
# after each CLI fit + predict
ROW_SHARE = 0.25
ROWS_PER_BURST = 10000
# at least 500 row samples, so the 5th percentile has 25 samples below it
MIN_ROWS = 500
ROWS_KEPT = 16
WARMUP_ROWS = 10


@dataclass(frozen=True)
class Workload:
    """One set of inputs.  Each entry of `n_train` is a dataset of its own;
    units cycle through them."""

    input_dim: int
    output_dims: tuple
    ranks: tuple  # multilinear rank of the true coefficients, and the fitted ranks
    n_train: tuple
    n_test: int
    x_suffix: str  # input rows as ".csv" or order-2 ".dten"
    kernel: str = None  # CLI --kernel value
    cv: bool = False  # a unit starts with the synth-linear CV protocol on its dataset
    fits_per_unit: int = 1
    min_units: int = 2


WORKLOADS = {
    # the paper's synthetic protocol (c6): N=100 first, so every run scores it
    "synth-cv": Workload(
        10, (10, 10, 10), (6, 4, 4, 8), (100, 20, 40, 60, 80), 100, ".csv",
        cv=True, fits_per_unit=10, min_units=1,
    ),
    "fit-predict-mid": Workload(50, (30, 30, 30), (10, 5, 5, 5), (500,), 500, ".csv"),
    # sigma 20 is about the median pairwise distance of standard normal rows in
    # 200 dims.  N=1000, not the N=2000 of the tall scale: a fit there takes
    # 7-9 s, and the 2 fits a run can afford spread 13% across seeds
    "kernel-tall": Workload(
        200, (20, 20, 20), (10, 5, 5, 5), (1000,), 500, ".dten", kernel="rbf:20"
    ),
}


def experiment_config(w: Workload, seed: int, j: int) -> dict:
    """synth-linear config of dataset j: one trial at one training size."""
    return {
        "seed": seed * 1000 + j,
        "trials": 1,
        "train_sizes": [w.n_train[j]],
        "test_size": w.n_test,
        "input_dim": w.input_dim,
        "output_dims": list(w.output_dims),
        "w_ranks": list(w.ranks),
        "noise_std": NOISE_STD,
    }


def data_spec(w: Workload, seed: int, j: int) -> datagen.SynthSpec:
    # the seed run_experiment derives for its only (size, trial) task, so the
    # CLI files and the CV protocol see the same data
    cfg = experiment_config(w, seed, j)
    return datagen.SynthSpec(
        input_dim=w.input_dim,
        output_dims=w.output_dims,
        ranks=w.ranks,
        n_train=w.n_train[j],
        n_test=w.n_test,
        noise_std=NOISE_STD,
        seed=datagen.derive_seed(cfg["seed"], 0, 0),
    )


def paths(w: Workload, d, j: int) -> dict:
    d = Path(d)
    return {
        "x": d / f"x{j}{w.x_suffix}",
        "y": d / f"y{j}.dten",
        "x_test": d / f"xt{j}{w.x_suffix}",
        "y_test": d / f"yt{j}.dten",
        "model": d / f"model{j}.bin",
        "pred": d / f"pred{j}.dten",
        "pred_again": d / f"pred{j}-again.dten",
        "exp": d / f"exp{j}",
    }


# ---------------------------------------------------------------------------
# environment record


def _openblas_threads() -> dict:
    """Live thread count of each OpenBLAS that numpy and scipy bundle."""
    out = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parents[1] / f"{pkg.__name__}.libs"
        for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
            handle = ctypes.CDLL(lib)
            for sym in (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[os.path.basename(lib)] = int(fn())
                    break
    return out


def _blas_version(pkg) -> str:
    try:
        return str(pkg.__config__.CONFIG["Build Dependencies"]["blas"]["version"])
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def env_record(seed: int) -> dict:
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _blas_version(np),
        "scipy_openblas": _blas_version(scipy),
        "openblas_threads": _openblas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in PIN_VARS},
        "tensorreg": str(Path(tensorreg.__file__).resolve()),
    }


def pin_problems(env: dict) -> list:
    """Reasons a result must not be reported: unpinned BLAS or a tensorreg
    imported from outside this checkout."""
    out = [f"{k}={v!r}, need '1'" for k, v in env["thread_env"].items() if v != "1"]
    out += [f"{lib} runs {n} threads" for lib, n in env["openblas_threads"].items() if n != 1]
    if not Path(env["tensorreg"]).is_relative_to(ROOT / "src"):
        out.append(f"tensorreg imported from {env['tensorreg']}, not {ROOT / 'src'}")
    return out


# ---------------------------------------------------------------------------
# setup


def _noise_floor(data) -> float:
    clean = np.tensordot(data.x_test, data.w_true, axes=(1, 0))
    return float(np.sqrt(np.mean((data.y_test - clean) ** 2)))


def _write_rows(m, path: Path) -> None:
    if path.suffix == ".csv":
        tensor.write_matrix_csv(m, path)
    else:
        tensor.write_dten(m, path)


def setup_once(w: Workload, seed: int, d) -> list:
    refs = []
    for j in range(len(w.n_train)):
        data = datagen.gen_linear_synthetic(data_spec(w, seed, j))
        p = paths(w, d, j)
        _write_rows(data.x_train, p["x"])
        tensor.write_dten(data.y_train, p["y"])
        _write_rows(data.x_test, p["x_test"])
        tensor.write_dten(data.y_test, p["y_test"])
        refs.append({"floor": _noise_floor(data), "config": experiment_config(w, seed, j)})
    return refs


def run_setup(w: Workload, seed: int, d, trace: bool) -> dict:
    seconds = []
    if trace:
        # one setup, so the datagen totals cover exactly one set of inputs;
        # only data generation is the program's work here, the file writes
        # are the benchmark's and stay out of the tensor.* numbers
        tracer = tracing.Tracer()
        tracing.instrument(tracer, modules=("datagen",))
        with tracer.span("setup"):
            refs = setup_once(w, seed, d)
        _write_json(Path(d) / "setup-spans.json", tracer.dump())
    else:
        while len(seconds) < SETUP_REPEATS or sum(seconds) < SETUP_MIN_S:
            t0 = time.perf_counter()
            refs = setup_once(w, seed, d)
            seconds.append(time.perf_counter() - t0)
    _write_json(Path(d) / "reference.json", refs)
    return {"seconds": seconds}


# ---------------------------------------------------------------------------
# measure


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _call(fn, *args) -> tuple:
    """(result, problems): an exception is a problem, not a crash."""
    try:
        return fn(*args), []
    except Exception:  # the operation fails; the benchmark counts it and goes on
        return None, [traceback.format_exc(limit=-3)]


def _cli(argv) -> list:
    rc, problems = _call(cli.main, [str(a) for a in argv])
    if not problems and rc != 0:
        problems = [f"exit code {rc}"]
    return problems


def row_problems(out, shape) -> list:
    out = np.asarray(out)
    if out.shape != tuple(shape):
        return [f"shape {out.shape}, expected {tuple(shape)}"]
    if not np.isfinite(out).all():
        return ["non-finite output"]
    return []


class Tally:
    """Operations attempted and failed, with what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def record(self, op: str, problems: list) -> None:
        self.attempted += 1
        self.fail(op, problems)

    def fail(self, op: str, problems: list) -> None:
        """Count a problem found later with an operation already attempted."""
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems)


class Runner:
    """Runs the workload's operations on the files in d; state shared across
    passes, so every fit is compared with the first fit of its dataset."""

    def __init__(self, w: Workload, d):
        self.w = w
        self.d = Path(d)
        self.tally = Tally()
        self.model_digest: dict = {}
        self.pred_digest: dict = {}
        self.cv_rmse: dict = {}
        self.model_bytes = None
        # context the benchmark's own loads run in; tracing passes it spans
        self.quiet = contextlib.nullcontext
        self.rows_run = 0
        self.rows_kept: dict = {}

    def task(self, j: int, cfg: dict) -> float:
        p = paths(self.w, self.d, j)
        t0 = time.perf_counter()
        report, problems = _call(
            harness.run_experiment, "synth-linear", cfg, p["exp"], 1, "none"
        )
        seconds = time.perf_counter() - t0
        if report is not None:
            scores = {r["method"]: r["rmse"] for r in report.records}
            if self.cv_rmse.setdefault(j, scores) != scores:
                problems.append("CV results differ from the first run of this dataset")
        self.tally.record(f"task[{j}]", problems)
        return seconds

    def fit_predict(self, j: int, timings: dict) -> None:
        w, p = self.w, paths(self.w, self.d, j)
        argv = ["fit", "--x", p["x"], "--y", p["y"], "--ranks", ",".join(map(str, w.ranks)),
                "--gamma", repr(GAMMA), "--out", p["model"]]
        if w.kernel:
            argv += ["--kernel", w.kernel]
        t0 = time.perf_counter()
        problems = _cli(argv)
        timings["fit_s"].append(time.perf_counter() - t0)
        if not problems:
            digest = _digest(p["model"])
            if self.model_digest.setdefault(j, digest) != digest:
                problems.append("model file not byte-identical to the first fit's")
            if self.model_bytes is None:
                self.model_bytes = os.path.getsize(p["model"])
        self.tally.record(f"fit[{j}]", problems)

        out = p["pred_again"] if j in self.pred_digest else p["pred"]
        t0 = time.perf_counter()
        problems = _cli(["predict", "--model", p["model"], "--x", p["x_test"], "--out", out])
        timings["predict_s"].append(time.perf_counter() - t0)
        if not problems:
            digest = _digest(out)
            if self.pred_digest.setdefault(j, digest) != digest:
                problems.append("predictions not byte-identical to the first predict's")
        self.tally.record(f"predict[{j}]", problems)

    def _row_source(self, j: int) -> tuple:
        p = paths(self.w, self.d, j)
        with self.quiet():
            model = regress.load_model(p["model"])
            if p["x_test"].suffix == ".csv":
                x = tensor.read_matrix_csv(p["x_test"])
            else:
                x = tensor.read_dten(p["x_test"])
        return model, x, not isinstance(model, regress.HolrrModel)

    def rows(self, j: int, timings: dict, seconds: float = None, count: int = None) -> int:
        """One-client closed loop of single-row predicts on dataset j's model,
        for `seconds` (at most ROWS_PER_BURST rows) or for exactly `count`
        rows; returns the number of rows run.  The model and rows are loaded
        untimed for each burst and dropped after it, so no CLI call runs with
        them resident."""
        model, x, kernel = self._row_source(j)
        predict = regress.kholrr_predict if kernel else regress.holrr_predict
        until = time.perf_counter() + (seconds or 0.0)
        kept = self.rows_kept.setdefault(j, {})
        n = 0
        while (n < count) if count is not None else (
            n < ROWS_PER_BURST and time.perf_counter() < until
        ):
            i = self.rows_run % x.shape[0]
            t0 = time.perf_counter()
            out, problems = _call(predict, model, x[i])
            timings["row_ms"].append((time.perf_counter() - t0) * 1e3)
            if not problems:
                problems = row_problems(out, self.w.output_dims)
                if len(kept) < ROWS_KEPT:
                    kept.setdefault(i, np.asarray(out))
            self.tally.record(f"row[{j}:{i}]", problems)
            self.rows_run += 1
            n += 1
        return n

    def run(self, refs: list, seconds: float = None, bursts: list = None) -> dict:
        """Units of work, with a burst of the row loop after every fit +
        predict, so rows take ROW_SHARE of the time and every metric samples
        the whole run.  Timed mode starts a unit while fewer than min_units
        ran or the unit is expected to end within `seconds`, then tops the row
        loop up to MIN_ROWS.  Replay mode runs exactly the bursts (row counts)
        of an earlier run."""
        w = self.w
        # an array, not a list of floats, so the peak RSS barely depends on
        # how many rows a run manages
        timings = {"fit_s": [], "predict_s": [], "task_s": [], "row_ms": array("d")}
        share = ROW_SHARE / (1 - ROW_SHARE)
        counts = []
        units = 0
        unit_time = 0.0
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if bursts is not None and len(counts) == len(bursts):
                break
            if bursts is None and units >= w.min_units and elapsed * (units + 1) / units > seconds:
                break
            j = units % len(w.n_train)
            spread_task = 0.0
            if w.cv:
                seconds_task = self.task(j, refs[j]["config"])
                timings["task_s"].append(seconds_task)
                unit_time += seconds_task
                spread_task = seconds_task / w.fits_per_unit
            for _ in range(w.fits_per_unit):
                t0 = time.perf_counter()
                self.fit_predict(j, timings)
                t1 = time.perf_counter()
                unit_time += t1 - t0
                if not w.cv:
                    timings["task_s"].append(t1 - t0)
                if bursts is None:
                    seconds_rows = (spread_task + t1 - t0) * share
                    counts.append(self.rows(j, timings, seconds=seconds_rows))
                else:
                    counts.append(self.rows(j, timings, count=bursts[len(counts)]))
            units += 1
        if bursts is None and len(timings["row_ms"]) < MIN_ROWS:
            counts[-1] += self.rows(j, timings, count=MIN_ROWS - len(timings["row_ms"]))
        timings.update(units=units, bursts=counts, unit_phase_s=unit_time,
                       wall_s=time.perf_counter() - start)
        return timings


def run_measure(w: Workload, d, seconds: float, trace: bool) -> dict:
    refs = json.loads((Path(d) / "reference.json").read_text())
    runner = Runner(w, d)
    result = {}
    if not trace:
        result["timings"] = runner.run(refs, seconds=seconds)
    else:
        # an untimed unit warms the first calls and file touches; then an
        # untraced pass and the same operations traced, whose wall time
        # difference is the tracing overhead
        runner.run(refs, bursts=[WARMUP_ROWS] * w.fits_per_unit)
        plain = runner.run(refs, seconds=seconds / 2)
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        runner.quiet = tracer.paused
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        with tracer.span("workload"):
            traced = runner.run(refs, bursts=plain["bursts"])
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        _write_json(Path(d) / "measure-spans.json", tracer.dump())
        result["timings"] = traced
        result["trace"] = {
            "untraced_wall_s": plain["wall_s"],
            "wall_s": wall,
            "minflt": ru1.ru_minflt - ru0.ru_minflt,
            "sys_s": ru1.ru_stime - ru0.ru_stime,
        }
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["timings"]["row_ms"] = result["timings"]["row_ms"].tolist()
    result["model_bytes"] = runner.model_bytes
    result["attempted"] = runner.tally.attempted
    result["failed"] = runner.tally.failed
    result["problems"] = runner.tally.problems
    result["cv_rmse"] = runner.cv_rmse
    result["preds"] = sorted(runner.pred_digest)
    kept = [(j, i, out) for j, rows in runner.rows_kept.items() for i, out in rows.items()]
    result["rows_kept"] = [[j, i] for j, i, _ in kept]
    np.save(Path(d) / "rows.npy", np.array([out for _, _, out in kept]))
    return result


# ---------------------------------------------------------------------------
# check


def read_dten_plain(path) -> np.ndarray:
    """DTEN reader independent of the program's: header line, then
    little-endian float64 in column-major order."""
    with open(path, "rb") as f:
        line = f.readline()
    head = line.split()
    if head[:2] != [b"DTEN", b"1"]:
        raise ValueError(f"{path}: not a DTEN v1 file")
    shape = tuple(int(v) for v in head[3 : 3 + int(head[2])])
    data = np.fromfile(path, dtype="<f8", offset=len(line))
    return data.reshape(shape, order="F")


def prediction_problems(pred, y_true, floor: float) -> list:
    """Shape, finiteness and held-out RMSE band of a batch prediction."""
    pred = np.asarray(pred)
    if pred.shape != y_true.shape:
        return [f"shape {pred.shape}, expected {y_true.shape}"]
    if not np.isfinite(pred).all():
        return ["non-finite output"]
    return rmse_problems(float(np.sqrt(np.mean((pred - y_true) ** 2))), floor, "held-out")


def rmse_problems(err: float, floor: float, what: str) -> list:
    lo, hi = RMSE_BAND[0] * floor, RMSE_BAND[1] * floor
    if not lo <= err <= hi:  # also catches nan
        return [f"{what} RMSE {err:.5g} outside [{lo:.5g}, {hi:.5g}]"]
    return []


def run_check(w: Workload, d) -> dict:
    d = Path(d)
    refs = json.loads((d / "reference.json").read_text())
    m = json.loads((d / "measure.json").read_text())
    tally = Tally()
    test_rmse = None
    kept = np.load(d / "rows.npy") if m["rows_kept"] else []
    for j in m["preds"]:
        p = paths(w, d, j)
        y = read_dten_plain(p["y_test"])
        pred = read_dten_plain(p["pred"])
        tally.fail(f"predict[{j}]", prediction_problems(pred, y, refs[j]["floor"]))
        if j == 0 and not w.cv:
            test_rmse = float(np.sqrt(np.mean((pred - y) ** 2)))
        scale = float(np.max(np.abs(pred))) or 1.0
        for (jj, i), row in zip(m["rows_kept"], kept):
            if jj == j and not np.allclose(row, pred[i], rtol=1e-9, atol=1e-12 * scale):
                tally.fail(f"row[{j}:{i}]", ["single-row predict differs from batch predict"])
    for key, scores in m["cv_rmse"].items():
        j = int(key)
        floor = refs[j]["floor"]
        problems = rmse_problems(scores.get("holrr", float("nan")), floor, "CV-selected holrr")
        for method, err in scores.items():
            if not err >= RMSE_BAND[0] * floor:
                problems.append(f"{method} RMSE {err} below {RMSE_BAND[0]} x noise floor")
        tally.fail(f"task[{j}]", problems)
        if j == 0:
            test_rmse = scores.get("holrr")
    return {"failed": tally.failed, "problems": tally.problems, "test_rmse": test_rmse}


# ---------------------------------------------------------------------------


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("phase", choices=("setup", "measure", "check"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seconds", type=float, help="measured time; measure needs it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.phase == "measure" and args.seconds is None:
        ap.error("measure needs --seconds")
    env = env_record(args.seed)
    refused = pin_problems(env)
    if refused:
        sys.stderr.write("perfbench: refusing to run: " + "; ".join(refused) + "\n")
        return 2
    w = WORKLOADS[args.workload]
    if args.phase == "setup":
        out = run_setup(w, args.seed, args.dir, bool(args.trace))
    elif args.phase == "measure":
        out = run_measure(w, args.dir, args.seconds, bool(args.trace))
    else:
        out = run_check(w, args.dir)
    out["env"] = env
    _write_json(Path(args.dir) / f"{args.phase}.json", out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
