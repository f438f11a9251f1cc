"""Shared fixtures: synthetic Met-Office-format station files, saved model
files, and the memory peak of a CLI command run in a process of its own."""

import contextlib
import functools
import io
import math
import os
import shutil
import subprocess
import sys
import tempfile

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


# runs the CLI as `python -m tensorreg.cli` would, then writes the process's
# VmHWM (kB) to the file named by argv[1]
_PEAK_WRAPPER = """
import atexit, runpy, sys
def peak(path=sys.argv.pop(1)):
    with open("/proc/self/status") as f, open(path, "w") as out:
        out.write(next(line for line in f if line.startswith("VmHWM:")).split()[1])
atexit.register(peak)
runpy.run_module("tensorreg.cli", run_name="__main__", alter_sys=True)
"""


def cli_peak_rss(argv, stdin=None) -> tuple:
    """(exit code, peak RSS in bytes) of `python -m tensorreg.cli argv` in a
    child process with one BLAS thread, its standard input the file at
    `stdin` written into a pipe (or nothing).  The peak is the child's own
    VmHWM, which it reports as it exits: `ru_maxrss` would also count the
    memory this process had when it started the child (it is the high-water
    mark of the address space the child left at `exec` too)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "peak")
        proc = subprocess.Popen(
            [sys.executable, "-c", _PEAK_WRAPPER, report, *map(str, argv)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            stdin=subprocess.DEVNULL if stdin is None else subprocess.PIPE,
        )
        if stdin is not None:
            with open(stdin, "rb") as f, contextlib.suppress(BrokenPipeError), proc.stdin:
                shutil.copyfileobj(f, proc.stdin, 1 << 20)  # a child that fails early stops reading
        code = proc.wait()
        with open(report) as f:
            return code, int(f.read()) * 1024
