"""Experiment harness: metrics, hyperparameter search, weather-data ingestion,
and the named experiment pipelines with CSV/JSON reporting.

Determinism contract: every random choice (fold assignment, trial data, row
splits) derives from the config seed through named substreams, so a rerun with
the same config produces identical records.  Wall-clock timing is the one
exception; run_experiment(timing="none") writes 0.0 there and makes report
files byte-stable.
"""

from __future__ import annotations

import json
import math
import os
import re
import tempfile
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import datagen, regress
from .datagen import substream
from .regress import KernelSpec
from .tensor import DtenColumns, TuckerFactors, dematricize, matricize

__all__ = [
    "rmse",
    "GridSpec",
    "cv_folds",
    "fit_method",
    "predict_method",
    "grid_search_cv",
    "measure_fit_seconds",
    "VARIABLES",
    "DEFAULT_STATIONS",
    "MetOfficeData",
    "ForecastDataset",
    "load_metoffice",
    "build_forecast_dataset",
    "normalize_forecast",
    "ExperimentReport",
    "default_config",
    "run_experiment",
    "write_report",
    "atomic_write",
    "atomic_write_bytes",
]

METHODS = ("rls", "lrr", "holrr", "krls", "klrr", "kholrr")


def rmse(y_true, y_pred) -> float:
    """Root mean squared error over all tensor entries."""
    a = np.asarray(y_true, dtype=np.float64)
    b = np.asarray(y_pred, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    d = a - b
    d *= d  # in place: no second temporary the size of the prediction
    return float(np.sqrt(np.mean(d)))


def atomic_write(path, write) -> None:
    """Call write(f) on a binary temp file in the directory of `path`, then
    rename it over `path`: readers see the old file or all of the new one,
    and `write` can stream its content without building it in memory."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path, data: bytes) -> None:
    """`atomic_write` of a bytes object."""
    atomic_write(path, lambda f: f.write(data))


# ---------------------------------------------------------------------------
# method adapters


def _preset(method: str, x, y, ranks, kernel=None) -> tuple:
    """(ranks, notes): the (R0, R1..Rp) at which `method` is the one fit,
    holrr_fit (kholrr_fit for the kernel methods, which need a `kernel`) on
    stacked data: rls at (d0, d1..dp), krls at (N, d1..dp), lrr/klrr at
    (R, d1..dp) for R = ranks[0] clamped to [1, D] (`regress._flat_rank`,
    whose notes these are; full rank at D), holrr/kholrr at `ranks`."""
    if method.startswith("k") and kernel is None:
        raise ValueError(f"{method} needs a kernel")
    (n, d0), dims = np.shape(x), np.shape(y)[1:]
    full = (n if method.startswith("k") else d0, *dims)
    if method in ("holrr", "kholrr"):
        if len(ranks) != len(dims) + 1:
            raise ValueError(f"{method} needs {len(dims) + 1} ranks (input mode plus output modes), got {tuple(ranks)}")
        return tuple(ranks), []
    if method in ("rls", "krls"):
        return full, []
    r, notes = regress._flat_rank(int(ranks[0]) if ranks else 1, math.prod(dims))
    return ((r, *dims) if r < math.prod(dims) else full), notes


def fit_method(method: str, x, y, gamma: float, ranks=None, kernel: KernelSpec = None):
    """Fit one method on stacked data; `ranks` is the full tuple for holrr
    variants and its first element feeds lrr variants.

    Returns a HolrrModel (with the kernel as its input map for the kernel
    methods), so every result predicts input rows through `.predict(x)`.  Every
    method but lrr is holrr_fit/kholrr_fit (which forms its kernel Gram
    itself) at its `_preset` ranks; lrr keeps
    its own D x D algorithm, folded into a model with no factors.  lrr and
    klrr models carry their rank clamp notes, which are also warned.  y may
    be a `DtenColumns` of its file for every method but lrr.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    x = np.asarray(x, dtype=np.float64)
    if not isinstance(y, DtenColumns):
        y = np.asarray(y, dtype=np.float64)
    preset, notes = _preset(method, x, y, ranks, kernel)
    if method == "lrr":  # lrr_fit warns the notes
        w = regress.lrr_fit(x, matricize(y, 0), int(ranks[0]) if ranks else 1, gamma)
        core = dematricize(w, 0, (x.shape[1], *y.shape[1:]))
        return regress.HolrrModel(TuckerFactors(core, [None] * core.ndim), float(gamma), tuple(notes))
    for msg in notes:
        warnings.warn(msg, stacklevel=2)
    if method.startswith("k"):
        model = regress.kholrr_fit(None, y, preset, gamma, x, kernel)
    else:
        model = regress.holrr_fit(regress.RegressionProblem(x=x, y=y, ranks=preset, gamma=gamma))
    return replace(model, warnings=(*notes, *model.warnings)) if notes else model


def predict_method(model, x) -> np.ndarray:
    """Stacked predictions for input rows."""
    return model.predict(x)


def measure_fit_seconds(method, x, y, gamma, ranks=None, kernel=None, repeats: int = 3) -> float:
    """Median wall-clock fit time over `repeats` runs."""
    times = []
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fit_method(method, x, y, gamma, ranks, kernel)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


# ---------------------------------------------------------------------------
# hyperparameter search


@dataclass
class GridSpec:
    """Hyperparameter candidates: gammas cross rank tuples, k-fold CV."""

    gammas: tuple = (1e-3,)
    rank_candidates: tuple = ()
    folds: int = 3
    seed: int = 0

    def __post_init__(self):
        self.gammas = tuple(float(g) for g in self.gammas)
        self.rank_candidates = tuple(tuple(int(r) for r in rc) for rc in self.rank_candidates)
        if not all(math.isfinite(g) and g >= 0 for g in self.gammas):
            raise ValueError("gammas must be finite and >= 0")
        if not all(rc and min(rc) >= 1 for rc in self.rank_candidates):
            raise ValueError("rank candidates must be non-empty with every rank >= 1")
        if self.folds < 2:
            raise ValueError("need at least 2 folds")


def _grid_points(method: str, grid: GridSpec) -> list:
    """(gamma, ranks) pairs; ties later resolve toward the earliest point."""
    gammas = sorted(grid.gammas)
    if method in ("rls", "krls"):
        points = [(g, None) for g in gammas]
    else:
        flat = method in ("lrr", "klrr")
        ranks = sorted({rc[:1] for rc in grid.rank_candidates}) if flat else sorted(grid.rank_candidates)
        if not ranks:
            raise ValueError(f"{method} needs at least one rank candidate")
        points = [(g, rc) for g in gammas for rc in ranks]
    if not points:
        raise ValueError("empty hyperparameter grid")
    return points


def cv_folds(n: int, folds: int, seed: int) -> list:
    """Validation index blocks from a seeded permutation of range(n)."""
    if folds < 2 or n < folds:
        raise ValueError(f"cannot split {n} rows into {folds} folds")
    perm = substream(seed, "cv").permutation(n)
    return list(np.array_split(perm, folds))


def _cv_splits(x, y, folds: int, seed: int):
    """(x_fit, y_fit, x_val, y_val) per `cv_folds` block: the blocks are drawn
    (and a bad fold count raised) at once, each split copied when reached."""
    blocks = cv_folds(x.shape[0], folds, seed)
    fit_masks = [np.isin(np.arange(x.shape[0]), val, invert=True) for val in blocks]
    return ((x[fit], y[fit], x[val], y[val]) for val, fit in zip(blocks, fit_masks))


def grid_search_cv(x, y, grid: GridSpec, method: str, kernel: KernelSpec = None):
    """k-fold cross validation over the grid; mean validation RMSE per point.

    Returns (best, table): best has the winning gamma/ranks/score, table one
    row per point.  Ties go to the smallest gamma, then the lexicographically
    smallest rank tuple.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return _select(_cv_splits(x, y, grid.folds, grid.seed), [(method, grid, kernel)])[0]


def _select(splits, jobs) -> list:
    """(best, table) per (method, grid, kernel) job: every grid point scored
    by its mean validation RMSE over the (x_fit, y_fit, x_val, y_val) splits.

    The splits are walked once.  On each, the jobs that share an input side
    (X, or the Gram of one kernel) are scored by one `regress.path_predict`
    over the union of their gammas and `_preset` rank tuples, each point as
    the path yields it.  With no jobs no split is reached.
    """
    if not jobs:
        return []
    points = [_grid_points(method, grid) for method, grid, _ in jobs]
    errors = [{point: [] for point in p} for p in points]
    for x_fit, y_fit, x_val, y_val in splits:
        sides = {}  # repr(side) -> (kernel or None, {(gamma, preset ranks): the error lists it scores})
        for (method, _, kernel), errs_j in zip(jobs, errors):
            side = kernel if method.startswith("k") else None
            wanted = sides.setdefault(repr(side), (side, {}))[1]
            for (g, r), errs in errs_j.items():
                wanted.setdefault((g, _preset(method, x_fit, y_fit, r, kernel)[0]), []).append(errs)
        for kernel, wanted in sides.values():
            gammas, rank_tuples = sorted({g for g, _ in wanted}), list(dict.fromkeys(r for _, r in wanted))
            for point, pred in regress.path_predict(x_fit, y_fit, x_val, gammas, rank_tuples, kernel):
                for errs in wanted.get(point, ()):
                    errs.append(rmse(y_val, pred))
        del x_fit, y_fit, x_val, y_val  # freed before the next split is copied
    results = []
    for p, errs in zip(points, errors):
        table = [{"gamma": g, "ranks": r, "score": float(np.mean(errs[(g, r)]))} for g, r in p]
        results.append((min(table, key=lambda row: (row["score"], row["gamma"], row["ranks"] or ())), table))
    return results


def _resolve_kernel(spec, x_train) -> KernelSpec:
    """Kernel config -> KernelSpec; sigma "median" becomes the median pairwise
    distance of the training rows."""
    if spec is None:
        return None
    if isinstance(spec, KernelSpec):
        return spec
    if isinstance(spec, str):
        return KernelSpec.from_string(spec)
    cfg = dict(spec)
    if cfg.get("sigma") == "median":
        x = np.asarray(x_train, dtype=np.float64)
        # the distances of each row to the later ones: O(N^2) memory, not an
        # N x N x d0 difference tensor, and the same sums bit for bit
        rows = [np.sum((x[i + 1 :] - x[i]) ** 2, axis=1) for i in range(len(x))]
        vals = np.sqrt(np.concatenate([np.zeros(0)] + rows))
        vals = vals[vals > 0]
        cfg["sigma"] = float(np.median(vals)) if vals.size else 1.0
    return KernelSpec(**cfg)


# ---------------------------------------------------------------------------
# Met Office historic station data

VARIABLES = ("tmax", "tmin", "af", "rain", "sun")

# 16 long-record stations from the public historic network; override per config
DEFAULT_STATIONS = (
    "aberporth",
    "armagh",
    "bradford",
    "braemar",
    "cambridge",
    "durham",
    "eastbourne",
    "eskdalemuir",
    "heathrow",
    "hurn",
    "lerwick",
    "leuchars",
    "oxford",
    "rossonwye",
    "sheffield",
    "stornoway",
)

_MISSING = "---"


@dataclass
class MetOfficeData:
    """Calendar-aligned monthly values: months[t] holds values[t, station, var]."""

    station_names: tuple
    months: list
    values: np.ndarray


def _parse_value(tok: str) -> float:
    tok = tok.rstrip("*#$")
    if tok == _MISSING or tok == "":
        return math.nan
    return float(tok)


def _parse_station_file(path) -> dict:
    """One station file -> {(year, month): 5 values}; NaN marks missing."""
    rows = {}
    last = None
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        for lineno, line in enumerate(f, 1):
            toks = line.split()
            if len(toks) < 2 + len(VARIABLES):
                continue
            if not re.fullmatch(r"\d{4}", toks[0]):
                continue
            try:
                year, month = int(toks[0]), int(toks[1])
            except ValueError:
                continue
            if not 1 <= month <= 12:
                continue
            try:
                vals = [_parse_value(t) for t in toks[2 : 2 + len(VARIABLES)]]
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
            stamp = year * 12 + (month - 1)
            if last is not None and stamp <= last:
                raise ValueError(f"{path}:{lineno}: dates not increasing at {year}-{month:02d}")
            last = stamp
            rows[(year, month)] = vals
    if not rows:
        raise ValueError(f"{path}: no data rows found")
    return rows


def _station_path(directory, name: str) -> str:
    tried = []
    for cand in (f"{name}data.txt", f"{name}.txt"):
        p = os.path.join(os.fspath(directory), cand)
        tried.append(p)
        if os.path.exists(p):
            return p
    raise FileNotFoundError(f"no data file for station {name!r}; tried {tried}")


def load_metoffice(directory, stations=None) -> MetOfficeData:
    """Load station files and keep only months where every station reports
    every variable.  Missing files or unparseable rows raise with the path."""
    stations = tuple(stations) if stations is not None else DEFAULT_STATIONS
    if not stations:
        raise ValueError("need at least one station")
    per_station = [_parse_station_file(_station_path(directory, s)) for s in stations]
    common = set(per_station[0])
    for rows in per_station[1:]:
        common &= set(rows)
    months = sorted(common)
    keep = []
    for ym in months:
        if all(np.isfinite(rows[ym]).all() for rows in per_station):
            keep.append(ym)
    if not keep:
        raise ValueError("no complete months shared by all stations")
    values = np.array([[rows[ym] for rows in per_station] for ym in keep])
    return MetOfficeData(station_names=stations, months=keep, values=values)


@dataclass
class ForecastDataset:
    """Sliding-window forecasting problem built from MetOfficeData.

    x rows concatenate the `window` preceding months (oldest lag first, then
    station, then variable); y samples are (horizon, stations, variables)."""

    x: np.ndarray
    y: np.ndarray
    target_months: list
    station_names: tuple
    variables: tuple
    window: int
    horizon: int


def build_forecast_dataset(data: MetOfficeData, window: int = 2, horizon: int = 1) -> ForecastDataset:
    """Windows are only formed over calendar-consecutive month runs."""
    if window < 1 or horizon < 1:
        raise ValueError("window and horizon must be >= 1")
    stamps = [y * 12 + (m - 1) for y, m in data.months]
    t_total, n_stations, n_vars = data.values.shape
    xs, ys, targets = [], [], []
    for t in range(window, t_total - horizon + 1):
        lo, hi = t - window, t + horizon
        if stamps[hi - 1] - stamps[lo] != hi - 1 - lo:
            continue
        xs.append(data.values[lo:t].ravel(order="C"))
        ys.append(data.values[t:hi])
        targets.append(data.months[t])
    if not xs:
        raise ValueError("no calendar-consecutive windows available")
    return ForecastDataset(
        x=np.asarray(xs),
        y=np.asarray(ys),
        target_months=targets,
        station_names=data.station_names,
        variables=VARIABLES,
        window=window,
        horizon=horizon,
    )


def normalize_forecast(ds: ForecastDataset, train_idx):
    """Per-variable z-scoring with statistics from the training rows only.

    Returns (x_norm, y_norm, stats); stats is (mean, std) per variable.
    """
    train_idx = np.asarray(train_idx, dtype=int)
    n_vars = len(ds.variables)
    blocks = ds.x[train_idx].reshape(len(train_idx), ds.window, len(ds.station_names), n_vars)
    mean = blocks.mean(axis=(0, 1, 2))
    std = blocks.std(axis=(0, 1, 2))
    std = np.where(std > 0, std, 1.0)
    x_norm = (
        (ds.x.reshape(ds.x.shape[0], ds.window, len(ds.station_names), n_vars) - mean) / std
    ).reshape(ds.x.shape)
    y_norm = (ds.y - mean) / std
    return x_norm, y_norm, (mean, std)


# ---------------------------------------------------------------------------
# named experiments

EXPERIMENTS = ("synth-linear", "synth-nonlinear", "image", "forecast")

DEFAULT_GAMMAS = tuple(float(g) for g in np.logspace(-4, 2, 7))


@dataclass
class ExperimentReport:
    name: str
    config: dict
    records: list = field(default_factory=list)
    aggregates: list = field(default_factory=list)


def default_config(name: str) -> dict:
    if name == "synth-linear":
        return {
            "seed": 0,
            "trials": 20,
            "train_sizes": [20, 40, 60, 80, 100],
            "test_size": 100,
            "input_dim": 10,
            "output_dims": [10, 10, 10],
            "w_ranks": [6, 4, 4, 8],
            "noise_std": 0.1,
            "methods": [{"method": "rls"}, {"method": "lrr"}, {"method": "holrr"}],
            "gammas": list(DEFAULT_GAMMAS),
            "rank_candidates": [[6, 4, 4, 8]],
            "cv_folds": 3,
        }
    if name == "synth-nonlinear":
        # the synth-linear protocol on a quadratic feature map, with the kernel methods added
        poly = {"kind": "polynomial", "degree": 2, "offset": 0.0}
        linear = default_config("synth-linear")
        return dict(linear, input_dim=5, w_ranks=[5, 6, 4, 2], rank_candidates=[[5, 6, 4, 2]],
                    methods=linear["methods"] + [{"method": m, "kernel": poly} for m in ("krls", "klrr", "kholrr")])
    if name == "image":
        return {
            "seed": 0,
            "image": "cross",
            "height": 50,
            "width": 50,
            "task": "channels",
            "n_train": 200,
            "noise_std": 1.0,
            "trials": 1,
            "gamma": 1e-2,
            "lrr_ranks": [1, 2, 3],
            "holrr_ranks": [[3, 2, 2], [3, 5, 5], [3, 10, 10]],
        }
    if name == "forecast":
        rbf = {"kind": "rbf", "sigma": "median"}
        return {
            "seed": 0,
            "met_dir": None,
            "stations": list(DEFAULT_STATIONS),
            "window": 2,
            "horizons": [1, 3, 5],
            "train_sizes": [50, 100],
            "test_size": 50,
            "val_size": 20,
            "runs": 10,
            "methods": [
                {"method": "rls"},
                {"method": "lrr"},
                {"method": "holrr"},
                {"method": "krls", "kernel": rbf},
                {"method": "klrr", "kernel": rbf},
                {"method": "kholrr", "kernel": rbf},
            ],
            "gammas": list(DEFAULT_GAMMAS),
            "rank_candidates": None,
            "normalize": True,
        }
    raise ValueError(f"unknown experiment {name!r}; expected one of {EXPERIMENTS}")


def _score_methods(cfg, experiment, train, test, splits, seed, ranks, **tags) -> list:
    """A record per method of `cfg`: (gamma, ranks) from one `_select` over
    `splits` unless its grid has one point, a timed refit on `train`, the
    RMSE on `test`.  `ranks` are the default rank candidates; `tags` fill N, k, trial."""
    (x, y), (x_test, y_test) = train, test
    jobs, kernels = [], {}  # each distinct kernel config resolved once (a median sigma is O(N^2))
    for entry in cfg["methods"]:
        key = repr(entry.get("kernel"))
        kernel = kernels[key] = kernels.get(key) or _resolve_kernel(entry.get("kernel"), x)
        candidates = entry.get("rank_candidates", cfg.get("rank_candidates"))
        grid = GridSpec(
            gammas=tuple(entry.get("gammas", cfg["gammas"])),
            rank_candidates=tuple(tuple(rc) for rc in (ranks if candidates is None else candidates)),
        )
        jobs.append((entry["method"], grid, kernel))
    points = [_grid_points(method, grid) for method, grid, _ in jobs]
    searched = _select(splits, [job for job, p in zip(jobs, points) if len(p) > 1])
    picks = iter([(best["gamma"], best["ranks"]) for best, _ in searched])
    records = []
    for (method, _, kernel), p in zip(jobs, points):
        gamma, point_ranks = next(picks) if len(p) > 1 else p[0]
        t0 = time.perf_counter()
        model = fit_method(method, x, y, gamma, point_ranks, kernel)
        seconds = time.perf_counter() - t0
        records.append(
            {
                "experiment": experiment,
                "method": method,
                "kernel": kernel.kind if kernel else "",
                **tags,
                "seed": seed,
                "rmse": rmse(y_test, predict_method(model, x_test)),
                "fit_seconds": seconds,
            }
        )
    return records


def _run_synth_task(args) -> list:
    """(config, name, size_index, trial) -> records, selected by k-fold CV."""
    cfg, name, si, trial = args
    n = int(cfg["train_sizes"][si])
    seed = datagen.derive_seed(cfg["seed"], si, trial)
    spec = datagen.SynthSpec(
        input_dim=int(cfg["input_dim"]),
        output_dims=tuple(cfg["output_dims"]),
        ranks=tuple(cfg["w_ranks"]),
        n_train=n,
        n_test=int(cfg["test_size"]),
        noise_std=float(cfg["noise_std"]),
        seed=seed,
    )
    data = (
        datagen.gen_linear_synthetic(spec)
        if name == "synth-linear"
        else datagen.gen_nonlinear_synthetic(spec)
    )
    train, test = (data.x_train, data.y_train), (data.x_test, data.y_test)
    # copied a fold at a time as selection walks them: none is alive during the refits
    splits = _cv_splits(*train, int(cfg.get("cv_folds", GridSpec.folds)), seed)
    return _score_methods(cfg, name, train, test, splits, seed, (), N=n, k="", trial=trial)


def _run_forecast_task(args) -> list:
    """(config, ForecastDataset, horizon_index, size_index, run) -> records,
    selected on one held-out validation split."""
    cfg, ds, hi, si, run = args
    n_train = int(cfg["train_sizes"][si])
    n_test = int(cfg["test_size"])
    n_val = int(cfg["val_size"])
    total = ds.x.shape[0]
    if n_train + n_test + n_val > total:
        raise ValueError(
            f"need {n_train + n_test + n_val} rows, dataset has {total}"
        )
    seed = datagen.derive_seed(cfg["seed"], hi, si, run)
    perm = substream(seed, "trial").permutation(total)
    tr = perm[:n_train]
    te = perm[n_train : n_train + n_test]
    va = perm[n_train + n_test : n_train + n_test + n_val]
    if cfg.get("normalize", True):
        x_all, y_all, _ = normalize_forecast(ds, tr)
    else:
        x_all, y_all = ds.x, ds.y
    train, test = (x_all[tr], y_all[tr]), (x_all[te], y_all[te])
    splits = [(*train, x_all[va], y_all[va])]
    # the rank candidates where neither the method entry nor the config names any
    modes = (min(2, ds.horizon), min(8, len(ds.station_names)), min(4, len(ds.variables)))
    ranks = [[10, *modes], [20, *modes]]
    return _score_methods(cfg, "forecast", train, test, splits, seed, ranks, N=n_train, k=ds.horizon, trial=run)


def _load_image(cfg) -> np.ndarray:
    image = cfg["image"]
    if isinstance(image, str) and not image.lower().endswith(".ppm"):
        return datagen.synthetic_image(image, cfg.get("height", 50), cfg.get("width", 50))
    return datagen.read_ppm(image)


def _run_image(cfg, out_dir) -> list:
    lrr = [("lrr", (int(r),)) for r in cfg["lrr_ranks"]]
    holrr = [("holrr", tuple(int(v) for v in rc)) for rc in cfg["holrr_ranks"]]
    for key, variants in (("lrr_ranks", lrr), ("holrr_ranks", holrr)):
        if not variants or not all(ranks and min(ranks) >= 1 for _, ranks in variants):
            raise ValueError(f"{key} must be non-empty with every rank >= 1")
    image = _load_image(cfg)
    task = cfg["task"]
    w_true = datagen.image_coefficients(image, task)
    records = []
    gamma = float(cfg["gamma"])
    for trial in range(int(cfg["trials"])):
        seed = datagen.derive_seed(cfg["seed"], trial)
        x, y = datagen.gen_image_measurements(
            image, task, n=int(cfg["n_train"]), noise_std=float(cfg["noise_std"]), seed=seed
        )
        for method, ranks in [("rls", None)] + lrr + holrr:
            variant = "-".join(str(r) for r in ranks) if ranks else "full"
            t0 = time.perf_counter()
            w_hat = fit_method(method, x, y, gamma, ranks).coefficients()
            seconds = time.perf_counter() - t0
            err = rmse(w_true, w_hat)
            records.append(
                {
                    "experiment": "image",
                    "method": method,
                    "kernel": "",
                    "N": int(cfg["n_train"]),
                    "k": "",
                    "trial": trial,
                    "seed": seed,
                    "rmse": err,
                    "fit_seconds": seconds,
                    "_variant": variant,
                }
            )
            if out_dir is not None and trial == 0:
                tag = method if ranks is None else f"{method}_{variant}"
                recon = datagen.coefficients_to_image(w_hat, task)
                datagen.write_ppm(recon, os.path.join(out_dir, f"recon_{task}_{tag}.ppm"))
    return records


def run_experiment(name: str, config: dict = None, out_dir=None, jobs: int = 1, timing: str = "wall", quick: bool = False) -> ExperimentReport:
    """Run a named experiment; returns the report and (optionally) writes
    report.csv / report.json / plot CSVs under out_dir.

    quick=True shrinks the protocol (sizes {20,60,100}, 5 trials, 3 gammas)
    for smoke runs.  timing="none" zeroes fit_seconds so reruns are
    byte-identical.
    """
    if timing not in ("wall", "none"):
        raise ValueError("timing must be 'wall' or 'none'")
    cfg = default_config(name)
    cfg.update(config or {})
    if quick:
        if name in ("synth-linear", "synth-nonlinear"):
            cfg["train_sizes"] = [n for n in (20, 60, 100) if n in cfg["train_sizes"]] or cfg["train_sizes"][:3]
            cfg["trials"] = min(5, int(cfg["trials"]))
            cfg["gammas"] = list(cfg["gammas"])[::3] or list(cfg["gammas"])
        elif name == "forecast":
            cfg["runs"] = min(3, int(cfg["runs"]))
            cfg["gammas"] = list(cfg["gammas"])[::3] or list(cfg["gammas"])

    methods = cfg.get("methods", [])  # the image experiment names its own
    if not isinstance(methods, list):
        raise ValueError(f"methods must be a list of method entries, got {methods!r}")
    for entry in methods:
        if not (isinstance(entry, dict) and entry.get("method") in METHODS):
            raise ValueError(f"methods entry {entry!r} is not a JSON object with a \"method\" from {METHODS}")

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    if name in ("synth-linear", "synth-nonlinear"):
        tasks = [
            (cfg, name, si, trial)
            for si in range(len(cfg["train_sizes"]))
            for trial in range(int(cfg["trials"]))
        ]
        chunks = _map_tasks(_run_synth_task, tasks, jobs)
    elif name == "forecast":
        if cfg["met_dir"] is None:
            raise ValueError("forecast needs the station data directory: pass --met-dir or set met_dir in the config")
        data = load_metoffice(cfg["met_dir"], cfg.get("stations"))
        chunks = []
        for hi, horizon in enumerate(cfg["horizons"]):
            ds = build_forecast_dataset(data, window=int(cfg["window"]), horizon=int(horizon))
            tasks = [
                (cfg, ds, hi, si, run)
                for si in range(len(cfg["train_sizes"]))
                for run in range(int(cfg["runs"]))
            ]
            chunks.extend(_map_tasks(_run_forecast_task, tasks, jobs))
    elif name == "image":
        chunks = [_run_image(cfg, out_dir)]
    else:
        raise ValueError(f"unknown experiment {name!r}; expected one of {EXPERIMENTS}")

    records = [r for chunk in chunks for r in chunk]
    if timing == "none":
        for r in records:
            r["fit_seconds"] = 0.0
    report = ExperimentReport(name=name, config=cfg, records=records)
    report.aggregates = _aggregate(records)
    if out_dir is not None:
        write_report(report, out_dir)
    return report


def _map_tasks(fn, tasks, jobs: int) -> list:
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=int(jobs)) as pool:
        return list(pool.map(fn, tasks, chunksize=1))


def _aggregate(records) -> list:
    groups = {}
    for r in records:
        key = (r["experiment"], r["method"], r["kernel"], r["N"], r["k"], r.get("_variant", ""))
        groups.setdefault(key, []).append(r)
    out = []
    for key in sorted(groups, key=lambda k: tuple(str(v) for v in k)):
        rows = groups[key]
        errs = np.array([r["rmse"] for r in rows])
        secs = np.array([r["fit_seconds"] for r in rows])
        agg = {
            "experiment": key[0],
            "method": key[1],
            "kernel": key[2],
            "N": key[3],
            "k": key[4],
            "mean_rmse": float(errs.mean()),
            "std_rmse": float(errs.std()),
            "mean_fit_seconds": float(secs.mean()),
            "trials": len(rows),
        }
        if key[5]:
            agg["variant"] = key[5]
        out.append(agg)
    return out


_CSV_COLUMNS = ("experiment", "method", "kernel", "N", "k", "trial", "seed", "rmse", "fit_seconds")


def write_report(report: ExperimentReport, out_dir) -> None:
    """report.csv (fixed columns), report.json (config + aggregates), and one
    plot CSV per (experiment, horizon) with mean RMSE per method against N.
    Every file's bytes are formed before the first is written, so a report
    that cannot be formed leaves no file behind."""
    lines = [",".join(_CSV_COLUMNS)]
    for r in report.records:
        lines.append(",".join(str(r[c]) for c in _CSV_COLUMNS))
    payload = {
        "experiment": report.name,
        "config": _jsonable(report.config),
        "aggregates": report.aggregates,
    }
    files = {
        "report.csv": ("\n".join(lines) + "\n").encode("ascii"),
        "report.json": (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("ascii"),
    }

    if len({a["N"] for a in report.aggregates}) > 1:
        # per horizon, {(method, kernel): {N: mean RMSE}} in record order
        tables = {}
        for r in report.records:
            tables.setdefault(r["k"], {}).setdefault((r["method"], r["kernel"]), {})
        for a in report.aggregates:
            tables[a["k"]][a["method"], a["kernel"]][a["N"]] = a["mean_rmse"]
        for k in sorted(tables, key=lambda v: (v == "", v)):
            means = tables[k]
            out = ["N," + ",".join(f"{m}:{kind}" if kind else m for m, kind in means)]
            for n in sorted({n for by_n in means.values() for n in by_n}):
                out.append(",".join([str(n)] + [repr(by_n[n]) if n in by_n else "" for by_n in means.values()]))
            suffix = f"_k{k}" if k != "" else ""
            files[f"plot_rmse_vs_n{suffix}.csv"] = ("\n".join(out) + "\n").encode("ascii")

    os.makedirs(out_dir, exist_ok=True)
    for name, data in files.items():
        atomic_write_bytes(os.path.join(out_dir, name), data)


def _jsonable(obj):
    if isinstance(obj, KernelSpec):
        return obj.to_dict()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj
