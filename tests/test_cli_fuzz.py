"""Malformed input files through the CLI: PPM images (`experiment image`),
CSV matrices (`tensor from-csv`, and `fit --x`) and Met Office station
files (`ingest-met`).

Every input must end in exit 0, or in exit 2 with a `tensorreg:` line on
stderr.  An exception escaping `main` (a traceback and exit 1 from the
command line) fails the test.  The files are built from their grammar with
bad tokens mixed in (a sample "1e3", dims "100000", a month "13", ...) and
from byte edits of valid files.
"""

import contextlib
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from tensorreg.cli import main
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
        assert any(line.startswith("tensorreg: ") for line in err.splitlines()), err
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
