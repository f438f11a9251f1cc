"""Shared fixtures: synthetic Met-Office-format station files, saved model
files, and the memory peak of a CLI command run in a process of its own."""

import functools
import io
import math
import os
import subprocess
import sys

import numpy as np

from tensorreg.datagen import SynthSpec, gen_linear_synthetic
from tensorreg.harness import fit_method
from tensorreg.regress import KernelSpec, save_model

HEADER = """{title}
Location: 224100E 252100N, Lat 52.139 Lon -4.570, 133 metres amsl
Estimated data is marked with a * after the value.
Missing data (more than 2 days missing in month) is marked by  ---.
Sunshine data taken from an automatic Kipp & Zonen sensor marked with a #
   yyyy  mm   tmax    tmin      af    rain     sun
              degC    degC    days      mm   hours
"""

STATIONS_16 = tuple(f"station{i:02d}" for i in range(16))


def station_row(year, month, vals, flags=("", "", "", "", "")):
    cells = []
    for v, flag in zip(vals, flags):
        cells.append("---" if v is None else f"{v:.1f}{flag}")
    return (
        f"   {year}  {month:2d}  "
        + "  ".join(f"{c:>7s}" for c in cells)
        + "\n"
    )


def synthetic_values(si, year, month):
    """Deterministic seasonal-ish values per station/month."""
    t = (year - 1960) * 12 + (month - 1)
    phase = 2 * math.pi * (month - 1) / 12
    tmax = 12.0 + 8.0 * math.sin(phase) + 0.3 * si + 0.01 * math.sin(0.7 * t + si)
    tmin = 4.0 + 6.0 * math.sin(phase) + 0.2 * si + 0.01 * math.cos(0.9 * t + 2 * si)
    af = max(0.0, 8.0 - 8.0 * math.sin(phase) + 0.1 * si)
    rain = 60.0 + 25.0 * math.sin(phase + 1.0 + 0.2 * si) + 0.5 * ((t * (si + 3)) % 7)
    sun = 90.0 + 60.0 * math.sin(phase - 0.3) + 1.0 * ((t + si) % 5)
    return [round(v, 1) for v in (tmax, tmin, af, rain, sun)]


def write_station_dir(dirpath, stations=STATIONS_16, start_year=1960, n_months=120):
    os.makedirs(dirpath, exist_ok=True)
    for si, name in enumerate(stations):
        lines = [HEADER.format(title=name.title())]
        for t in range(n_months):
            year = start_year + t // 12
            month = t % 12 + 1
            lines.append(station_row(year, month, synthetic_values(si, year, month)))
        with open(os.path.join(dirpath, f"{name}data.txt"), "w") as f:
            f.write("".join(lines))
    return list(stations)


def write_hand_fixture(dirpath, n_stations=16):
    """3 months per station with value = 100*station + 10*var + month."""
    stations = [f"hand{i:02d}" for i in range(n_stations)]
    os.makedirs(dirpath, exist_ok=True)
    for si, name in enumerate(stations):
        lines = [HEADER.format(title=name.title())]
        for month in (1, 2, 3):
            vals = [100.0 * si + 10.0 * v + month for v in range(5)]
            lines.append(station_row(2000, month, vals))
        with open(os.path.join(dirpath, f"{name}data.txt"), "w") as f:
            f.write("".join(lines))
    return stations


def hand_value(si, var, month):
    return 100.0 * si + 10.0 * var + month


@functools.cache
def saved_model(method: str) -> bytes:
    """The file `save_model` writes for a `method` fit of 6 rows of 3 inputs
    and 2x2 outputs (an rbf kernel for the kernel methods)."""
    data = gen_linear_synthetic(
        SynthSpec(input_dim=3, output_dims=(2, 2), ranks=(2, 2, 2), n_train=6, n_test=1, noise_std=0.1, seed=71)
    )
    model = fit_method(method, data.x_train, data.y_train, 1e-2, (2, 2, 2), KernelSpec(kind="rbf", sigma=2.0))
    buf = io.BytesIO()
    save_model(model, buf)
    return buf.getvalue()


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def cli_peak_rss(argv) -> tuple:
    """(exit code, peak RSS in bytes) of `python -m tensorreg.cli argv` in a
    child process with one BLAS thread.  The peak is the child's own
    `ru_maxrss`, read with `os.wait4`, so earlier children do not count."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tensorreg.cli", *map(str, argv)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss * 1024
