"""Model files under corruption: every truncation, and single-byte flips (at
random, and of every byte's low and high bit), of saved models of all six
methods.

`load_model` must either raise ValueError or return a model whose blocks are
finite and which re-saves to the same bytes (a flip of the version digit to
an older readable version is normalized to the current magic line).  Nothing
here predicts: a corrupt model must be stopped at load.
"""

import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import saved_model
from tensorreg.harness import METHODS
from tensorreg.regress import MODEL_MAGIC, MODEL_VERSION, load_model, save_model

MAGIC = f"{MODEL_MAGIC} {MODEL_VERSION}\n".encode("ascii")


def _blocks(model):
    out = [model.factors.core, *(u for u in model.factors.factors if u is not None)]
    if model.kernel is not None:
        out += [model.train_inputs, model.dual_values]
    return out


@pytest.mark.parametrize("method", METHODS)
def test_every_truncation_of_a_model_file_is_rejected(method):
    data = saved_model(method)
    for size in range(len(data)):
        with pytest.raises(ValueError):
            load_model(io.BytesIO(data[:size]))


# the top byte of train_inputs[2, 0] = 1.03 (6 x 3, column-major after its
# DTEN header line); flipping 0x40 in it makes the entry NaN
_X20_HEAD = b"DTEN 1 2 6 3\n"
_X20_TOP = saved_model("kholrr").index(_X20_HEAD) + len(_X20_HEAD) + 2 * 8 + 7


def _rejected_or_round_trips(data: bytes) -> None:
    try:
        model = load_model(io.BytesIO(data))
    except ValueError:
        return
    assert all(np.isfinite(b).all() for b in _blocks(model))
    buf = io.BytesIO()
    save_model(model, buf)
    assert buf.getvalue() == MAGIC + data[data.index(b"\n") + 1 :]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(METHODS), st.integers(0, 2**16), st.integers(1, 255))
@example("kholrr", _X20_TOP, 0x40)
def test_a_flipped_byte_is_rejected_or_round_trips(method, pos, mask):
    data = bytearray(saved_model(method))
    pos %= len(data)
    data[pos] ^= mask
    _rejected_or_round_trips(bytes(data))


@pytest.mark.parametrize("method", METHODS)
def test_every_byte_flipped_in_its_low_or_high_bit_is_rejected_or_round_trips(method):
    # the round trip is the whole file re-encoded, so a file passes only if
    # its blocks as well as its header line are what save_model writes
    data = saved_model(method)
    for pos in range(len(data)):
        for mask in (0x01, 0x80):
            flipped = bytearray(data)
            flipped[pos] ^= mask
            _rejected_or_round_trips(bytes(flipped))
