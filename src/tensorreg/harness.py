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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import datagen, regress
from .datagen import substream
from .regress import KernelSpec
from .tensor import TuckerFactors, dematricize, matricize

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
    return float(np.sqrt(np.mean((a - b) ** 2)))


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


def fit_method(method: str, x, y, gamma: float, ranks=None, kernel: KernelSpec = None):
    """Fit one method on stacked data; `ranks` is the full tuple for holrr
    variants and its first element feeds lrr variants.

    Returns a HolrrModel for the primal methods and a KernelHolrrModel for the
    kernel ones, so every result predicts through `.predict(x)`.  The flat
    baselines fold their coefficients (primal, or dual for krls/klrr) into
    the model's core with identity factors.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if method == "holrr":
        return regress.holrr_fit(regress.RegressionProblem(x=x, y=y, ranks=tuple(ranks), gamma=gamma))
    dual = method.startswith("k")
    if dual and kernel is None:
        raise ValueError(f"{method} needs a kernel")
    k_or_x = regress.gram(x, kernel) if dual else x
    if method == "kholrr":
        return regress.kholrr_fit(k_or_x, y, tuple(ranks), gamma, x, kernel)
    y_flat = matricize(y, 0)
    if method in ("rls", "krls"):
        w = (regress.krls_fit if dual else regress.rls_fit)(k_or_x, y_flat, gamma)
    else:
        r = int(ranks[0]) if ranks else 1
        w = (regress.klrr_fit if dual else regress.lrr_fit)(k_or_x, y_flat, r, gamma)
    core = dematricize(w, 0, (w.shape[0], *y.shape[1:]))
    factors = TuckerFactors(core=core, factors=[np.eye(d) for d in core.shape])
    if dual:
        return regress.KernelHolrrModel(
            factors=factors, train_inputs=x, kernel=kernel, ranks=core.shape, gamma=float(gamma)
        )
    return regress.HolrrModel(factors=factors, ranks=core.shape, gamma=float(gamma))


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
    elif method in ("lrr", "klrr"):
        firsts = sorted({rc[0] for rc in grid.rank_candidates})
        if not firsts:
            raise ValueError("lrr needs at least one rank candidate")
        points = [(g, (r,)) for g in gammas for r in firsts]
    else:
        ranks = sorted(grid.rank_candidates)
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


def _point_key(point):
    gamma, ranks = point
    return (gamma, ranks if ranks is not None else ())


def grid_search_cv(x, y, grid: GridSpec, method: str, kernel: KernelSpec = None):
    """k-fold cross validation over the grid; mean validation RMSE per point.

    Returns (best, table): best has the winning gamma/ranks/score, table one
    row per point.  Ties go to the smallest gamma, then the lexicographically
    smallest rank tuple.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    splits = []
    for val_idx in cv_folds(x.shape[0], grid.folds, grid.seed):
        mask = np.ones(x.shape[0], dtype=bool)
        mask[val_idx] = False
        splits.append((x[mask], y[mask], x[val_idx], y[val_idx]))
    return _select(splits, grid, method, kernel)


def _select(splits, grid: GridSpec, method: str, kernel=None):
    """Score every grid point by its mean validation RMSE over the
    (x_fit, y_fit, x_val, y_val) splits; returns (best, table).

    Every method scores a split's whole grid from one decomposition of its
    fit rows (`regress.path_predict`): holrr/kholrr at their rank tuples, and
    the flat baselines on flattened outputs, rls/krls unprojected and
    lrr/klrr at ranks (R, D).
    """
    points = _grid_points(method, grid)
    dual = method.startswith("k")
    if dual and kernel is None:
        raise ValueError(f"{method} needs a kernel")
    flat = method not in ("holrr", "kholrr")
    errors = {point: [] for point in points}
    for x_fit, y_fit, x_val, y_val in splits:
        width = math.prod(y_fit.shape[1:])
        # the path's (gamma, ranks) key of each point: lrr/klrr rank R is (R, D)
        keys = {(g, (r[0], width) if method in ("lrr", "klrr") else r): (g, r) for g, r in points}
        preds = regress.path_predict(
            x_fit,
            matricize(y_fit, 0) if flat else y_fit,
            x_val,
            sorted(set(grid.gammas)),
            list(dict.fromkeys(r for _, r in keys)),
            kernel if dual else None,
        )
        for key, point in keys.items():
            errors[point].append(rmse(y_val, preds[key].reshape(y_val.shape, order="F")))
    table = [{"gamma": g, "ranks": r, "score": float(np.mean(errors[(g, r)]))} for g, r in points]
    best = min(table, key=lambda row: (row["score"], _point_key((row["gamma"], row["ranks"]))))
    return best, table


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
        poly = {"kind": "polynomial", "degree": 2, "offset": 0.0}
        return {
            "seed": 0,
            "trials": 20,
            "train_sizes": [20, 40, 60, 80, 100],
            "test_size": 100,
            "input_dim": 5,
            "output_dims": [10, 10, 10],
            "w_ranks": [5, 6, 4, 2],
            "noise_std": 0.1,
            "methods": [
                {"method": "rls"},
                {"method": "lrr"},
                {"method": "holrr"},
                {"method": "krls", "kernel": poly},
                {"method": "klrr", "kernel": poly},
                {"method": "kholrr", "kernel": poly},
            ],
            "gammas": list(DEFAULT_GAMMAS),
            "rank_candidates": [[5, 6, 4, 2]],
            "cv_folds": 3,
        }
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


def _kernel_kind(entry: dict) -> str:
    kernel = entry.get("kernel")
    if kernel is None:
        return ""
    if isinstance(kernel, str):
        return KernelSpec.from_string(kernel).kind
    kind = kernel.get("kind", "linear")
    return "polynomial" if kind == "poly" else kind


def _run_synth_task(args) -> list:
    """(config, name, size_index, trial) -> records for every method."""
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
    records = []
    for entry in cfg["methods"]:
        method = entry["method"]
        kernel = _resolve_kernel(entry.get("kernel"), data.x_train)
        grid = GridSpec(
            gammas=tuple(entry.get("gammas", cfg["gammas"])),
            rank_candidates=tuple(tuple(rc) for rc in entry.get("rank_candidates", cfg["rank_candidates"])),
            folds=int(cfg["cv_folds"]),
            seed=seed,
        )
        points = _grid_points(method, grid)
        if len(points) > 1:
            best, _ = grid_search_cv(data.x_train, data.y_train, grid, method, kernel)
            gamma, ranks = best["gamma"], best["ranks"]
        else:
            gamma, ranks = points[0]
        t0 = time.perf_counter()
        model = fit_method(method, data.x_train, data.y_train, gamma, ranks, kernel)
        seconds = time.perf_counter() - t0
        err = rmse(data.y_test, predict_method(model, data.x_test))
        records.append(
            {
                "experiment": name,
                "method": method,
                "kernel": _kernel_kind(entry),
                "N": n,
                "k": "",
                "trial": trial,
                "seed": seed,
                "rmse": err,
                "fit_seconds": seconds,
            }
        )
    return records


def _run_forecast_task(args) -> list:
    cfg, ds_payload, hi, si, run = args
    ds = ForecastDataset(**ds_payload)
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
    records = []
    for entry in cfg["methods"]:
        method = entry["method"]
        kernel = _resolve_kernel(entry.get("kernel"), x_all[tr])
        candidates = entry.get("rank_candidates", cfg.get("rank_candidates"))
        if candidates is None:
            candidates = _default_forecast_ranks(ds.horizon, len(ds.station_names), len(ds.variables))
        grid = GridSpec(
            gammas=tuple(entry.get("gammas", cfg["gammas"])),
            rank_candidates=tuple(tuple(rc) for rc in candidates),
            seed=seed,
        )
        best, _ = _select([(x_all[tr], y_all[tr], x_all[va], y_all[va])], grid, method, kernel)
        t0 = time.perf_counter()
        model = fit_method(method, x_all[tr], y_all[tr], best["gamma"], best["ranks"], kernel)
        seconds = time.perf_counter() - t0
        err = rmse(y_all[te], predict_method(model, x_all[te]))
        records.append(
            {
                "experiment": "forecast",
                "method": method,
                "kernel": _kernel_kind(entry),
                "N": n_train,
                "k": ds.horizon,
                "trial": run,
                "seed": seed,
                "rmse": err,
                "fit_seconds": seconds,
            }
        )
    return records


def _default_forecast_ranks(horizon: int, n_stations: int, n_vars: int) -> list:
    r1 = min(2, horizon)
    return [
        [10, r1, min(8, n_stations), min(4, n_vars)],
        [20, r1, min(8, n_stations), min(4, n_vars)],
    ]


def _load_image(cfg) -> np.ndarray:
    image = cfg["image"]
    if isinstance(image, str) and not image.lower().endswith(".ppm"):
        return datagen.synthetic_image(image, cfg.get("height", 50), cfg.get("width", 50))
    return datagen.read_ppm(image)


def _safe_rank_tag(ranks) -> str:
    return "-".join(str(r) for r in ranks)


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
                    "_variant": _safe_rank_tag(ranks) if ranks else "full",
                }
            )
            if out_dir is not None and trial == 0:
                tag = f"{method}" if ranks is None else f"{method}_{_safe_rank_tag(ranks)}"
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
        data = load_metoffice(cfg["met_dir"], cfg.get("stations"))
        chunks = []
        for hi, horizon in enumerate(cfg["horizons"]):
            ds = build_forecast_dataset(data, window=int(cfg["window"]), horizon=int(horizon))
            payload = {
                "x": ds.x,
                "y": ds.y,
                "target_months": ds.target_months,
                "station_names": ds.station_names,
                "variables": ds.variables,
                "window": ds.window,
                "horizon": ds.horizon,
            }
            tasks = [
                (cfg, payload, hi, si, run)
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


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_report(report: ExperimentReport, out_dir) -> None:
    """report.csv (fixed columns), report.json (config + aggregates), and one
    plot CSV per (experiment, horizon) with mean RMSE per method against N."""
    os.makedirs(out_dir, exist_ok=True)
    lines = [",".join(_CSV_COLUMNS)]
    for r in report.records:
        lines.append(",".join(_csv_cell(r[c]) for c in _CSV_COLUMNS))
    atomic_write_bytes(os.path.join(out_dir, "report.csv"), ("\n".join(lines) + "\n").encode("ascii"))

    payload = {
        "experiment": report.name,
        "config": _jsonable(report.config),
        "aggregates": report.aggregates,
    }
    atomic_write_bytes(
        os.path.join(out_dir, "report.json"),
        (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("ascii"),
    )

    sizes = sorted({r["N"] for r in report.records})
    horizons = sorted({r["k"] for r in report.records}, key=lambda v: (v == "", v))
    if len(sizes) > 1:
        for k in horizons:
            rows = [r for r in report.records if r["k"] == k]
            methods = []
            for r in rows:
                label = r["method"] if not r["kernel"] else f"{r['method']}:{r['kernel']}"
                if label not in methods:
                    methods.append(label)
            out = ["N," + ",".join(methods)]
            for n in sorted({r["N"] for r in rows}):
                cells = [str(n)]
                for label in methods:
                    sel = [
                        r["rmse"]
                        for r in rows
                        if r["N"] == n
                        and (r["method"] if not r["kernel"] else f"{r['method']}:{r['kernel']}") == label
                    ]
                    cells.append(repr(float(np.mean(sel))) if sel else "")
                out.append(",".join(cells))
            suffix = f"_k{k}" if k != "" else ""
            atomic_write_bytes(
                os.path.join(out_dir, f"plot_rmse_vs_n{suffix}.csv"),
                ("\n".join(out) + "\n").encode("ascii"),
            )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj
