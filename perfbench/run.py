"""Run one tensorreg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fit-predict-mid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Inputs are made from --seed in a temporary
directory under .perfbench/.  --trace 0 prints the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer metrics of a traced run.  A table of
every metric, the sample counts and the environment record go to stderr; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The full record, with every traced function's totals,
is kept in .perfbench/result-<workload>-<seed>-<trace>.json.

See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
MAX_ROOT_SELF = 0.25
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def _phase(phase: str, args, tmp: str) -> dict:
    env = dict(os.environ, **PINNED, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "workloads.py"), phase, "--workload", args.workload,
           "--seed", str(args.seed), "--dir", tmp, "--trace", str(args.trace)]
    if phase == "measure":
        cmd += ["--seconds", str(args.seconds)]
    # guards against a hang; a measure phase normally takes about --seconds
    timeout = 60 + (3 * args.seconds if phase == "measure" else 0)
    try:
        # the CLI's JSON events go to stdout; only the phase's JSON file matters
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{phase} phase exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{phase} phase exited with code {proc.returncode}")
    return json.loads((Path(tmp) / f"{phase}.json").read_text())


def _quantile(values, q: float) -> float:
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def error_rate(measure: dict, check: dict) -> float:
    """Failed over attempted operations; check finds failures in operations
    the measure phase already counted as attempted."""
    return (measure["failed"] + check["failed"]) / measure["attempted"]


def end_to_end(setup: dict, measure: dict, check: dict) -> dict:
    t = measure["timings"]
    return {
        "setup_s": statistics.median(setup["seconds"]),
        "fit_s": statistics.median(t["fit_s"]),
        "predict_s": statistics.median(t["predict_s"]),
        "row_predict_ms_p5": _quantile(t["row_ms"], 0.05),
        "task_s": statistics.median(t["task_s"]),
        "tasks_per_s": t["units"] / t["unit_phase_s"],
        "peak_rss_mb": measure["peak_rss_mb"],
        "model_bytes": measure["model_bytes"],
        "test_rmse": check["test_rmse"],
        # a bound is a share of the metric's median, so no metric may read 0;
        # the error rate is reported as its complement
        "success_rate": 1.0 - error_rate(measure, check),
    }


def root_self_problems(own: float, wall_s: float) -> list:
    """The root span's self time is the benchmark's own work; the program's
    spans must account for most of the traced time."""
    if own > MAX_ROOT_SELF * wall_s:
        return [f"root span self time {own:.4f} s is over {MAX_ROOT_SELF:.0%}"
                f" of the traced wall time {wall_s:.4f} s"]
    return []


def per_layer(tmp: str, measure: dict) -> tuple:
    """(metrics, full per-function totals, problems) of a traced run."""
    spans = json.loads((Path(tmp) / "measure-spans.json").read_text())
    setup_spans = json.loads((Path(tmp) / "setup-spans.json").read_text())
    stats = tracing.merge(tracing.summarize(setup_spans), tracing.summarize(spans))
    tr = measure["trace"]
    own, _, _ = tracing.root_balance(spans)
    problems = root_self_problems(own, tr["wall_s"])
    fits = stats.get("harness.fit_method", {}).get("calls", 0)
    refits = tracing.calls_outside(spans, "harness.fit_method", "harness.grid_search_cv")
    special = {
        "harness.refit_ratio": refits / fits if fits else 0.0,
        "proc.minflt": tr["minflt"],
        "proc.sys_s": tr["sys_s"],
        "trace.spans": len(spans["names"]) + len(setup_spans["names"]),
        "trace.wall_s": tr["wall_s"],
        "trace.root_self_s": own,
        "trace.overhead_frac": tr["wall_s"] / tr["untraced_wall_s"] - 1.0,
    }
    return special, stats, problems


def layer_metric(name: str, special: dict, stats: dict):
    if name in special:
        return special[name]
    func, _, stat = name.rpartition(".")
    return stats.get(func, {}).get(stat, 0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tensorreg benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        if args.seconds < 1 or args.seed < 0:
            raise BenchError("--seconds must be >= 1 and --seed >= 0")
        if not (ROOT / "src" / "tensorreg" / "__init__.py").is_file():
            raise BenchError(f"no tensorreg sources under {ROOT / 'src'}")
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT, prefix="run-") as tmp:
            setup = _phase("setup", args, tmp)
            measure = _phase("measure", args, tmp)
            check = _phase("check", args, tmp)
            if args.trace:
                special, stats, trace_problems = per_layer(tmp, measure)
    except BenchError as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 1

    attempted = measure["attempted"]
    failed = measure["failed"] + check["failed"]
    problems = measure["problems"] + check["problems"]
    if args.trace:
        problems += trace_problems
        listed = spec["per_layer"]
        values = {m["name"]: layer_metric(m["name"], special, stats) for m in listed}
    else:
        stats = None
        listed = spec["end_to_end"]
        every = end_to_end(setup, measure, check)
        values = {m["name"]: every[m["name"]] for m in listed}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    t = measure["timings"]
    counts = {"units": t["units"], "fits": len(t["fit_s"]), "predicts": len(t["predict_s"]),
              "tasks": len(t["task_s"]), "row_samples": len(t["row_ms"]),
              "setup_repeats": len(setup["seconds"])}
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }

    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": measure["env"], "counts": counts, "problems": problems,
              "error_rate": error_rate(measure, check), "result": result, "functions": stats,
              "timings": t, "setup_s": setup["seconds"]}
    (OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    env = measure["env"]
    sys.stderr.write(
        f"# {args.workload} seed {args.seed}, {args.seconds} s, trace {args.trace}; "
        f"numpy {env['numpy']} (OpenBLAS {env['numpy_openblas']}), scipy {env['scipy']} "
        f"(OpenBLAS {env['scipy_openblas']}), nproc {env['nproc']}, threads {env['thread_env']}\n"
        f"# samples: {counts}; error_rate {failed}/{attempted}\n"
        # too unsteady across runs on a shared host to be metrics; shown for reference
        f"# row predict: p50 {_quantile(t['row_ms'], 0.50):.4g} ms,"
        f" p95 {_quantile(t['row_ms'], 0.95):.4g} ms, p98 {_quantile(t['row_ms'], 0.98):.4g} ms\n"
    )
    for name, m in metrics.items():
        sys.stderr.write(f"{name:40s} {m['value']:>16.6g} {m['unit']}\n")
    for p in problems[:20]:
        sys.stderr.write(f"problem: {p}\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
