"""Malformed input files through the CLI: PPM images (`experiment image`),
CSV matrices (`tensor from-csv`, and `fit --x`), Met Office station files
(`ingest-met`), model files (`predict --model`) and experiment configs
(`experiment --config`).

Every input must end in exit 0, or in exit 2 with one `tensorreg:` line on
stderr.  An exception escaping `main` (a traceback and exit 1 from the
command line) fails the test.  The files are built from their grammar with
bad tokens mixed in (a sample "1e3", dims "100000", a month "13", ...) and
from byte edits and truncations of valid files.
"""

import contextlib
import io
import os
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from tensorreg.cli import main
from tensorreg.harness import METHODS
from tensorreg.regress import _MODEL_LINE, MODEL_MAGIC, MODEL_VERSION, load_model
from tensorreg.tensor import write_dten

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)
# rank clamps and the like on the files that parse
pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main([str(a) for a in argv])
    err = err.getvalue()
    assert code in (0, 2), (code, err)
    if code == 2:
        assert err.startswith("tensorreg: ") and err.count("\n") == 1, err
    return code


def _edited(data: bytes, edits, cut) -> bytes:
    """`data` with bytes overwritten at (position, value) pairs, then cut short."""
    out = bytearray(data)
    for pos, value in edits:
        out[pos % len(out)] = value
    return bytes(out[: len(out) - cut % (len(out) + 1)])


_edits = st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), max_size=3)


def _spoiled(draw, tokens: list, bad) -> list:
    """`tokens` with up to two of them replaced by draws of `bad`."""
    tokens = list(tokens)
    for pos, tok in draw(st.lists(st.tuples(st.integers(0, 1 << 10), bad), max_size=2)):
        tokens[pos % len(tokens)] = tok
    return tokens


_bad_numbers = st.sampled_from(
    ["", "1e3", "100000", "0", "-1", "256", "abc", "9" * 40, "1_0", "0x1", "3.5", "nan", "inf", "\xff", "#"]
)

# --- PPM ---------------------------------------------------------------------


@st.composite
def ppm_files(draw) -> bytes:
    """A small P3 or P6 image, some of its tokens spoiled."""
    magic = draw(st.sampled_from(["P3", "P3", "P6", "P6", "P5", "P3#c", ""]))
    wid, hei = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    head = _spoiled(draw, [magic, str(wid), str(hei), "255"], _bad_numbers)
    sep = draw(st.sampled_from([" ", "\n", "\n# note\n", "\t"]))
    count = 3 * wid * hei + draw(st.sampled_from([0, 0, 0, -1, 1]))
    if magic == "P6":
        return (sep.join(head) + "\n").encode("latin-1") + draw(st.binary(min_size=count, max_size=count))
    samples = [str(v) for v in draw(st.lists(st.integers(0, 255), min_size=count, max_size=count))]
    return sep.join(head + _spoiled(draw, samples, _bad_numbers)).encode("latin-1")


_VALID_PPM = b"P3\n2 1\n255\n0 12 255  7 8 9\n"


@SETTINGS
@given(st.one_of(ppm_files(), st.builds(_edited, st.just(_VALID_PPM), _edits, st.integers(0, 40))))
@example(b"P3\n100000 100000\n255\n1 2 3\n")  # 26 bytes that claim 3e10 samples
@example(b"P3\n1 1\n255\n1e3 2 3\n")
@example(_VALID_PPM)
def test_ppm_files_through_the_image_experiment(data):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "in.ppm")
        with open(path, "wb") as f:
            f.write(data)
        _run(["experiment", "image", "--image", path, "--out-dir", os.path.join(d, "out"), "--trials", "1"])


# --- CSV ---------------------------------------------------------------------


@st.composite
def csv_files(draw) -> bytes:
    """Rows of two numbers, some cells spoiled and the row count off by one."""
    rows = draw(st.integers(2, 4))
    cells = [repr(v) for v in draw(st.lists(st.floats(-1e3, 1e3), min_size=2 * rows, max_size=2 * rows))]
    cells = _spoiled(draw, cells, _bad_numbers | st.sampled_from([" 2 ", "1,2", "--1", "-inf"]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\n\n"]))
    return newline.join(",".join(cells[i : i + 2]) for i in range(0, len(cells), 2)).encode("latin-1")


_VALID_CSV = b"0.5,1.0\n-2.0,3.25\n1.5,0.0\n"


@SETTINGS
@given(
    st.one_of(
        csv_files(),
        st.builds(_edited, st.just(_VALID_CSV), _edits, st.integers(0, 30)),
    )
)
@example(b"1,2\n3,nan\n4,5\n")
@example(b"1,2\n3\n4,5\n")
def test_csv_files_through_from_csv_and_fit(data):
    y = np.random.default_rng(0).standard_normal((3, 2, 2))
    with tempfile.TemporaryDirectory() as d:
        path, y_path = os.path.join(d, "x.csv"), os.path.join(d, "y.dten")
        with open(path, "wb") as f:
            f.write(data)
        write_dten(y, y_path)
        _run(["tensor", "from-csv", path, os.path.join(d, "x.dten")])
        _run(["fit", "--x", path, "--y", y_path, "--ranks", "1,1,1", "--out", os.path.join(d, "m.bin")])


# --- station files ---------------------------------------------------------


def _station_text(rows) -> bytes:
    return (helpers.HEADER.format(title="Fuzz") + "".join(rows)).encode("latin-1")


_VALID_ROWS = [helpers.station_row(1960, m, helpers.synthetic_values(0, 1960, m)) for m in range(1, 7)]
_VALID_STATION = _station_text(_VALID_ROWS)


@st.composite
def station_files(draw) -> bytes:
    """Six months of one station, some year, month or value fields spoiled."""
    tokens = "\t".join(_VALID_ROWS).split(" ")
    bad = _bad_numbers | st.sampled_from(["13", "196", "19600", "---", "2.5*", "3#", "4$", "1e999", "1961", "1.5"])
    return _station_text(" ".join(_spoiled(draw, tokens, bad)).split("\t"))


@SETTINGS
@given(
    st.one_of(
        station_files(),
        st.builds(_edited, st.just(_VALID_STATION), _edits, st.integers(0, 200)),
    )
)
@example(_VALID_STATION)
def test_station_files_through_ingest_met(data):
    with tempfile.TemporaryDirectory() as d:
        with open(os.path.join(d, "fuzzdata.txt"), "wb") as f:
            f.write(data)
        argv = ["ingest-met", "--dir", d, "--out-dir", os.path.join(d, "out"), "--stations", "fuzz"]
        _run(argv + ["--window", "1", "--horizon", "1"])


# --- model files -------------------------------------------------------------

_MAGIC = f"{MODEL_MAGIC} {MODEL_VERSION}\n".encode("ascii")
# a header line that never ends: 64 MB without a newline
_ENDLESS = _MAGIC + b"x" * (64 << 20)


def _predict_with_model(data: bytes) -> int:
    with tempfile.TemporaryDirectory() as d:
        model, x = os.path.join(d, "m.bin"), os.path.join(d, "x.csv")
        with open(model, "wb") as f:
            f.write(data)
        with open(x, "wb") as f:
            f.write(b"0.5,1.0,-2.0\n1.5,0.0,3.25\n")  # two rows of the models' three inputs
        return _run(["predict", "--model", model, "--x", x, "--out", os.path.join(d, "p.dten")])


@SETTINGS
@given(st.builds(_edited, st.sampled_from(METHODS).map(helpers.saved_model), _edits, st.integers(0, 1 << 12)))
@example(_MAGIC + b"[" * 200_000)  # nested past the recursion limit, and past the header bound
@example(_MAGIC + b"[" * 50_000 + b"\n")  # nested past the recursion limit, within the bound
@example(helpers.saved_model("kholrr"))
def test_model_files_through_predict(data):
    _predict_with_model(data)


def test_an_endless_model_header_is_rejected_in_about_twice_its_bound():
    # the bounded readline's chunks and the line they join into
    assert _predict_with_model(_ENDLESS) == 2
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="model header line too long"):
            load_model(io.BytesIO(_ENDLESS))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * _MODEL_LINE, peak


# --- config files ------------------------------------------------------------

# a small synth experiment, each value raw JSON text
_CONFIG = {
    "trials": "1",
    "train_sizes": "[12]",
    "test_size": "4",
    "input_dim": "3",
    "output_dims": "[2, 2]",
    "w_ranks": "[2, 2, 2]",
    "noise_std": "0.1",
    "gammas": "[0.01, 1.0]",
    "rank_candidates": "[[2, 2, 2]]",
    "cv_folds": "2",
    "methods": '[{"method": "rls"}, {"method": "holrr"}, {"method": "kholrr", "kernel": {"kind": "rbf", "sigma": "median"}}]',
}


def _config_text(cfg: dict) -> bytes:
    return ("{" + ", ".join(f'"{k}": {v}' for k, v in cfg.items()) + "}").encode("ascii")


_VALID_CONFIG = _config_text(_CONFIG)

_bad_values = st.sampled_from(
    ["null", "true", "0", "-1", "2.5", "1e400", "-1e400", "1" + "0" * 30, '"x"', '"median"', "[]", "{}", "[[]]",
     "[0]", "[-1]", '["a"]', "[1e400]", "[[0, 2, 2]]", "[[2, 2]]", "[null]", "[{}]", '[{"method": "nope"}]',
     '[{"method": "lrr", "rank_candidates": [[0]]}]', '[{"method": "holrr", "gammas": []}]',
     '[{"method": "krls", "kernel": {"kind": "polynomial", "degree": -2}}]',
     '[{"method": "klrr", "kernel": {"kind": "rbf", "sigma": "x"}}]', '[{"method": "kholrr", "kernel": null}]',
     '[{"method": "kholrr", "kernel": "rbf"}]', '[{"method": "krls", "kernel": {"kind": "rbf"}}]']
)


@st.composite
def config_files(draw) -> bytes:
    """The small config with up to two values spoiled or one key added."""
    cfg = dict(_CONFIG)
    keys = st.sampled_from([*_CONFIG, "seed", "image", "task", "stations", "horizons"])
    for key, value in draw(st.lists(st.tuples(keys, _bad_values), max_size=2)):
        cfg[key] = value
    return _config_text(cfg)


@SETTINGS
@given(
    st.sampled_from(["synth-linear", "synth-nonlinear"]),
    st.one_of(config_files(), st.builds(_edited, st.just(_VALID_CONFIG), _edits, st.integers(0, 60))),
)
@example("synth-linear", b"[" * 200_000)  # nested past the recursion limit
@example("synth-linear", _VALID_CONFIG)
def test_config_files_through_experiment(name, data):
    _experiment_with_config(name, data)


def _experiment_with_config(name, data: bytes) -> int:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "config.json")
        with open(path, "wb") as f:
            f.write(data)
        return _run(["experiment", name, "--config", path, "--out-dir", os.path.join(d, "out"), "--timing", "none"])


def test_nesting_near_the_recursion_limit_in_a_model_header_or_config():
    # JSON is parsed in C and the values walked in Python frames, so a value
    # nested a little less deeply than the limit parses and then overflows
    # the stack: in a model header's kind or warnings, or (through the
    # report's writer) in a config.  Not a hypothesis test: hypothesis raises
    # the recursion limit while it runs one
    for depth in (sys.getrecursionlimit() - 50, sys.getrecursionlimit() - 200):
        deep = b"[" * depth + b"]" * depth
        for header in (b'{"blocks":[],"kind":%s}' % deep, b'{"blocks":[],"gamma":1,"kind":"holrr","ranks":[],"warnings":%s}' % deep):
            assert _predict_with_model(_MAGIC + header + b"\n") == 2
        assert _experiment_with_config("synth-linear", _VALID_CONFIG[:-1] + b', "note": ' + deep + b"}") == 2
