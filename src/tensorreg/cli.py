"""Command line interface.

Machine-readable results go to stdout as JSON lines; human diagnostics go to
stderr.  Exit codes: 0 success, 2 argument or file errors, 3 numerical
failures.  Output files are written atomically (temp file + rename).
Precedence for settings: command-line flag, then config file, then the
TENSORREG_SEED environment variable (seeds only), then built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import harness, regress
from .harness import atomic_write, atomic_write_bytes
from .regress import KernelSpec
from .tensor import frobenius_norm, read_dten, read_matrix_csv, write_dten, write_matrix_csv

SEED_ENV = "TENSORREG_SEED"


class CliError(Exception):
    pass


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _note(msg: str) -> None:
    sys.stderr.write(f"tensorreg: {msg}\n")


def _read_matrix(path) -> np.ndarray:
    if str(path).lower().endswith(".csv"):
        return read_matrix_csv(path)
    t = read_dten(path)
    if t.ndim != 2:
        raise CliError(f"{path}: expected an order-2 tensor of input rows, got order {t.ndim}")
    return t


def _write_tensor_atomic(t, path) -> None:
    atomic_write(path, lambda f: write_dten(t, f))


def _training_rmse(model, x, y) -> float:
    """RMSE of the model's predictions for the training rows, summed over the
    column blocks of `regress.predict_blocks`, the stream `predict` writes,
    so no N x D prediction is formed: each block's residual is taken in the
    block's memory, against the same columns of Y_(0) (contiguous in a
    column-major Y, as `read_dten` gives it)."""
    y0 = y.reshape(y.shape[0], -1, order="F")
    sq, a = 0.0, 0
    for block in regress.predict_blocks(model, x)[1]():
        block -= y0[:, a : a + block.shape[1]]
        a += block.shape[1]
        r = block.ravel(order="K")
        sq += float(r @ r)
    return math.sqrt(sq / y.size)


def _parse_ranks(text: str) -> tuple:
    try:
        ranks = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise CliError(f"bad --ranks value {text!r}; expected comma-separated integers") from None
    if not ranks:
        raise CliError("--ranks needs at least one value")
    return ranks


def _cmd_fit(args) -> int:
    x = _read_matrix(args.x)
    y = read_dten(args.y)
    ranks = _parse_ranks(args.ranks)
    gamma = float(args.gamma)
    kernel = None if args.kernel is None else KernelSpec.from_string(args.kernel)
    t0 = time.perf_counter()
    with warnings.catch_warnings():  # the fit's notes print once, as `tensorreg:` lines below
        warnings.simplefilter("ignore", UserWarning)
        model = harness.fit_method("kholrr" if kernel else "holrr", x, y, gamma, ranks, kernel)
    training_rmse = _training_rmse(model, x, y)
    seconds = time.perf_counter() - t0
    atomic_write(args.out, lambda f: regress.save_model(model, f))
    for w in model.warnings:
        _note(w)
    _emit(
        {
            "event": "fit",
            "model": "kholrr" if args.kernel else "holrr",
            "ranks": list(model.ranks),
            "gamma": gamma,
            "training_rmse": training_rmse,
            "fit_seconds": seconds,
            "out": str(args.out),
            "warnings": list(model.warnings),
        }
    )
    return 0


def _cmd_predict(args) -> int:
    model = regress.load_model(args.model)
    x = _read_matrix(args.x)
    shape, blocks = regress.predict_blocks(model, x)
    atomic_write(args.out, lambda f: write_dten(shape, f, blocks()))
    _emit({"event": "predict", "rows": int(x.shape[0]), "shape": list(shape), "out": str(args.out)})
    return 0


def _cmd_experiment(args) -> int:
    config = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as f:
            try:
                config = json.load(f)
            except RecursionError as e:  # nesting past the recursion limit
                raise CliError(f"{args.config}: malformed config ({type(e).__name__}: {e})") from None
        if not isinstance(config, dict):
            raise CliError(f"{args.config}: config must be a JSON object")
    if args.seed is not None:
        config["seed"] = args.seed
    elif "seed" not in config and os.environ.get(SEED_ENV):
        try:
            config["seed"] = int(os.environ[SEED_ENV])
        except ValueError:
            raise CliError(f"bad {SEED_ENV} value {os.environ[SEED_ENV]!r}") from None
    for key in ("met_dir", "image", "task"):
        val = getattr(args, key, None)
        if val is not None:
            config[key] = val
    if args.trials is not None:
        config["trials"] = args.trials
        config["runs"] = args.trials
    try:
        report = harness.run_experiment(
            args.name, config, out_dir=args.out_dir, jobs=args.jobs, timing=args.timing, quick=args.quick
        )
    except (TypeError, RecursionError) as e:  # a config value of the wrong JSON type, or nested too deeply to walk
        raise ValueError(f"malformed config ({type(e).__name__}: {e})") from None
    _emit(
        {
            "event": "experiment",
            "name": args.name,
            "records": len(report.records),
            "out_dir": str(args.out_dir),
        }
    )
    for agg in report.aggregates:
        _emit({"event": "aggregate", **agg})
    return 0


def _cmd_tensor(args) -> int:
    if args.action == "info":
        t = read_dten(args.path)
        _emit(
            {
                "event": "tensor-info",
                "path": str(args.path),
                "order": t.ndim,
                "shape": list(t.shape),
                "frobenius_norm": frobenius_norm(t),
            }
        )
        return 0
    if args.out is None:
        raise CliError(f"tensor {args.action} needs OUT")
    if args.action == "to-csv":
        t = read_dten(args.path)
        if t.ndim != 2:
            raise CliError(f"{args.path}: CSV conversion handles order-2 tensors, got order {t.ndim}")
        atomic_write(args.out, lambda f: write_matrix_csv(t, f))
    else:
        m = read_matrix_csv(args.path)
        _write_tensor_atomic(m, args.out)
    _emit({"event": "tensor-convert", "action": args.action, "path": str(args.path), "out": str(args.out)})
    return 0


def _cmd_ingest_met(args) -> int:
    stations = args.stations.split(",") if args.stations else None
    data = harness.load_metoffice(args.dir, stations)
    ds = harness.build_forecast_dataset(data, window=args.window, horizon=args.horizon)
    os.makedirs(args.out_dir, exist_ok=True)
    _write_tensor_atomic(ds.x, os.path.join(args.out_dir, "x.dten"))
    _write_tensor_atomic(ds.y, os.path.join(args.out_dir, "y.dten"))
    meta = {
        "stations": list(ds.station_names),
        "variables": list(ds.variables),
        "window": ds.window,
        "horizon": ds.horizon,
        "rows": int(ds.x.shape[0]),
        "target_months": [[int(y), int(m)] for y, m in ds.target_months],
    }
    atomic_write_bytes(
        os.path.join(args.out_dir, "meta.json"),
        (json.dumps(meta, sort_keys=True, indent=2) + "\n").encode("ascii"),
    )
    _emit(
        {
            "event": "ingest-met",
            "rows": int(ds.x.shape[0]),
            "input_dim": int(ds.x.shape[1]),
            "output_shape": list(ds.y.shape[1:]),
            "out_dir": str(args.out_dir),
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tensorreg", description="tensor-output regression toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a model from input rows and an output tensor")
    fit.add_argument("--x", required=True, help="input rows (.csv or order-2 .dten)")
    fit.add_argument("--y", required=True, help="stacked output tensor (.dten)")
    fit.add_argument("--ranks", required=True, help="comma-separated multilinear rank R0,R1,...")
    fit.add_argument("--gamma", type=float, default=1e-3)
    fit.add_argument("--kernel", default=None, help="linear | rbf:sigma | poly:degree[,offset]")
    fit.add_argument("--out", required=True, help="model file to write")
    fit.set_defaults(func=_cmd_fit)

    pred = sub.add_parser("predict", help="predict stacked outputs for input rows")
    pred.add_argument("--model", required=True)
    pred.add_argument("--x", required=True)
    pred.add_argument("--out", required=True, help="output .dten path")
    pred.set_defaults(func=_cmd_predict)

    exp = sub.add_parser("experiment", help="run a named experiment")
    exp.add_argument("name", choices=harness.EXPERIMENTS)
    exp.add_argument("--config", default=None, help="JSON config file")
    exp.add_argument("--out-dir", required=True)
    exp.add_argument("--seed", type=int, default=None)
    exp.add_argument("--jobs", type=int, default=1)
    exp.add_argument("--quick", action="store_true", help="reduced sizes/trials")
    exp.add_argument("--timing", choices=("wall", "none"), default="wall")
    exp.add_argument("--trials", type=int, default=None)
    exp.add_argument("--met-dir", dest="met_dir", default=None)
    exp.add_argument("--image", default=None)
    exp.add_argument("--task", default=None, choices=("channels", "height"))
    exp.set_defaults(func=_cmd_experiment)

    ten = sub.add_parser("tensor", help="inspect or convert DTEN files")
    ten.add_argument("action", choices=("info", "to-csv", "from-csv"))
    ten.add_argument("path")
    ten.add_argument("out", nargs="?", default=None)
    ten.set_defaults(func=_cmd_tensor)

    met = sub.add_parser("ingest-met", help="build a forecasting dataset from station files")
    met.add_argument("--dir", required=True)
    met.add_argument("--out-dir", required=True)
    met.add_argument("--window", type=int, default=2)
    met.add_argument("--horizon", type=int, default=1)
    met.add_argument("--stations", default=None, help="comma-separated station names")
    met.set_defaults(func=_cmd_ingest_met)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except np.linalg.LinAlgError as e:
        # LinAlgError subclasses ValueError, so it must be caught first
        _note(f"numerical failure: {e}")
        return 3
    except (CliError, OSError, ValueError, OverflowError) as e:  # OverflowError: a number past float or int range
        _note(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
