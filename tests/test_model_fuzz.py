"""Model files under corruption: every truncation, and single-byte flips, of
saved models of all six methods.

`load_model` must either raise ValueError or return a model whose blocks are
finite and which re-saves to the same bytes (a flip of the version digit to
an older readable version is normalized to the current magic line).  Nothing
here predicts: a corrupt model must be stopped at load.
"""

import functools
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorreg.datagen import SynthSpec, gen_linear_synthetic
from tensorreg.harness import METHODS, fit_method
from tensorreg.regress import MODEL_MAGIC, MODEL_VERSION, KernelSpec, load_model, save_model

MAGIC = f"{MODEL_MAGIC} {MODEL_VERSION}\n".encode("ascii")


@functools.cache
def saved(method: str) -> bytes:
    data = gen_linear_synthetic(
        SynthSpec(input_dim=3, output_dims=(2, 2), ranks=(2, 2, 2), n_train=6, n_test=1, noise_std=0.1, seed=71)
    )
    model = fit_method(method, data.x_train, data.y_train, 1e-2, (2, 2, 2), KernelSpec(kind="rbf", sigma=2.0))
    buf = io.BytesIO()
    save_model(model, buf)
    return buf.getvalue()


def _blocks(model):
    out = [model.factors.core, *model.factors.factors]
    if hasattr(model, "train_inputs"):
        out += [model.train_inputs, model.dual_values]
    return out


@pytest.mark.parametrize("method", METHODS)
def test_every_truncation_of_a_model_file_is_rejected(method):
    data = saved(method)
    for size in range(len(data)):
        with pytest.raises(ValueError):
            load_model(io.BytesIO(data[:size]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(METHODS), st.integers(0, 2**16), st.integers(1, 255))
# byte 520 is the top byte of train_inputs[2, 0] = 1.03; the flip makes it NaN
@example("kholrr", 520, 0x40)
def test_a_flipped_byte_is_rejected_or_round_trips(method, pos, mask):
    data = bytearray(saved(method))
    pos %= len(data)
    data[pos] ^= mask
    try:
        model = load_model(io.BytesIO(bytes(data)))
    except ValueError:
        return
    assert all(np.isfinite(b).all() for b in _blocks(model))
    buf = io.BytesIO()
    save_model(model, buf)
    assert buf.getvalue() == MAGIC + bytes(data[data.index(b"\n") + 1 :])
