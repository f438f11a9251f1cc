"""Seeded data generation: low-rank ground truths, synthetic regression
problems, image measurement tasks, and PPM image files.

Randomness comes from numpy's PCG64 keyed by (seed, purpose substream), so
coefficient tensors, inputs and noise draw from disjoint streams and any one
of them can be regenerated bit-identically from the seed alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .tensor import TuckerFactors, _opened, mode_product, tucker_reconstruct

__all__ = [
    "substream",
    "derive_seed",
    "random_orthonormal",
    "random_lowrank_tensor",
    "SynthSpec",
    "SynthData",
    "gen_linear_synthetic",
    "gen_nonlinear_synthetic",
    "square_features",
    "gen_image_measurements",
    "image_coefficients",
    "coefficients_to_image",
    "synthetic_image",
    "read_ppm",
    "write_ppm",
]

# substream ids; every consumer of (seed, purpose) gets an independent stream
_PURPOSES = {
    "coeff": 0,
    "inputs": 1,
    "noise": 2,
    "cv": 3,
    "trial": 4,
    "misc": 5,
}


def substream(seed: int, purpose: str, *extra: int) -> np.random.Generator:
    """Independent generator for (seed, purpose, extra...)."""
    if purpose not in _PURPOSES:
        raise ValueError(f"unknown substream purpose {purpose!r}")
    key = (_PURPOSES[purpose],) + tuple(int(e) for e in extra)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed), spawn_key=key)))


def derive_seed(seed: int, *extra: int) -> int:
    """Stable child seed for nested runs (trials, sizes, folds)."""
    ss = np.random.SeedSequence(int(seed), spawn_key=(_PURPOSES["misc"],) + tuple(int(e) for e in extra))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


def random_orthonormal(rng: np.random.Generator, d: int, r: int) -> np.ndarray:
    """Orthonormal (d, r) factor from the QR of a Gaussian block."""
    if not 1 <= r <= d:
        raise ValueError(f"need 1 <= r <= d, got r={r}, d={d}")
    q, rr = np.linalg.qr(rng.standard_normal((d, r)))
    flip = np.sign(np.diag(rr))
    flip[flip == 0] = 1.0
    return q * flip[None, :]


def random_lowrank_tensor(dims, ranks, seed: int) -> np.ndarray:
    """Random tensor of multilinear rank `ranks`: Gaussian core times
    orthonormal factors, everything drawn from the coeff substream."""
    dims = tuple(int(d) for d in dims)
    ranks = tuple(int(r) for r in ranks)
    if len(dims) != len(ranks):
        raise ValueError(f"{len(ranks)} ranks for {len(dims)} dims")
    for d, r in zip(dims, ranks):
        if not 1 <= r <= d:
            raise ValueError(f"rank {r} not in [1, {d}]")
    rng = substream(seed, "coeff")
    core = rng.standard_normal(ranks)
    factors = [random_orthonormal(rng, d, r) for d, r in zip(dims, ranks)]
    return tucker_reconstruct(TuckerFactors(core=core, factors=factors))


@dataclass
class SynthSpec:
    """Synthetic regression problem description.

    `noise_std` is the standard deviation of the additive Gaussian noise on
    every output entry (pass sqrt(v) for variance v).
    """

    input_dim: int = 10
    output_dims: tuple = (10, 10, 10)
    ranks: tuple = (6, 4, 4, 8)
    n_train: int = 100
    n_test: int = 100
    noise_std: float = 0.1
    seed: int = 0

    def __post_init__(self):
        self.output_dims = tuple(int(d) for d in self.output_dims)
        self.ranks = tuple(int(r) for r in self.ranks)
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if self.n_train < 1 or self.n_test < 0:
            raise ValueError("bad sample counts")


@dataclass
class SynthData:
    """Generated problem: stacked train/test pairs plus the ground truth."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    w_true: np.ndarray


def _noisy_outputs(w, x, rng, noise_std) -> np.ndarray:
    y = mode_product(w, x, 0)
    if noise_std > 0:
        y = y + rng.normal(0.0, noise_std, size=y.shape)
    return y


def _synthetic(spec: SynthSpec, width: int, features) -> SynthData:
    """y = W x_0 features(x) + noise, W of shape (width, d1..dp) at multilinear
    rank spec.ranks: the one body of both synthetic tasks, whose draws differ
    only in the feature map."""
    w = random_lowrank_tensor((width, *spec.output_dims), spec.ranks, spec.seed)
    rng_x = substream(spec.seed, "inputs")
    rng_e = substream(spec.seed, "noise")
    x_train = rng_x.standard_normal((spec.n_train, spec.input_dim))
    x_test = rng_x.standard_normal((max(spec.n_test, 0), spec.input_dim))
    y_train = _noisy_outputs(w, features(x_train), rng_e, spec.noise_std)
    y_test = _noisy_outputs(w, features(x_test), rng_e, spec.noise_std)
    return SynthData(x_train, y_train, x_test, y_test, w)


def gen_linear_synthetic(spec: SynthSpec) -> SynthData:
    """Linear task: y = W x_0 x + noise with W of multilinear rank spec.ranks."""
    return _synthetic(spec, spec.input_dim, lambda x: x)


def square_features(x) -> np.ndarray:
    """Row-wise x (x) x features; maps (n, d) to (n, d*d)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    n, d = x.shape
    feats = (x[:, :, None] * x[:, None, :]).reshape(n, d * d)
    return feats[0] if single else feats


def gen_nonlinear_synthetic(spec: SynthSpec) -> SynthData:
    """Quadratic task: y = W x_0 (x (x) x) + noise.

    The returned w_true has input dimension spec.input_dim ** 2; models see the
    raw x rows.  A degree-2 polynomial kernel with zero offset reproduces the
    feature map exactly.
    """
    return _synthetic(spec, spec.input_dim**2, square_features)


# ---------------------------------------------------------------------------
# image measurement tasks

_IMAGE_TASKS = ("channels", "height")


def image_coefficients(image, task: str) -> np.ndarray:
    """Coefficient tensor for an (h, w, 3) image under the given task.

    task "channels": W is (3, h, w), inputs are per-channel weights in R^3.
    task "height":   W is (h, w, 3), inputs weight the rows in R^h.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"expected an (h, w, 3) image, got {image.shape}")
    if task == "channels":
        return np.transpose(image, (2, 0, 1)).copy()
    if task == "height":
        return image.copy()
    raise ValueError(f"unknown image task {task!r}; expected one of {_IMAGE_TASKS}")


def coefficients_to_image(w, task: str) -> np.ndarray:
    """Inverse of image_coefficients: back to (h, w, 3)."""
    w = np.asarray(w, dtype=np.float64)
    if task == "channels":
        return np.transpose(w, (1, 2, 0)).copy()
    if task == "height":
        return np.array(w)
    raise ValueError(f"unknown image task {task!r}; expected one of {_IMAGE_TASKS}")


def gen_image_measurements(image, task: str, n: int = 200, noise_std: float = 1.0, seed: int = 0):
    """Random linear measurements of an image: x ~ N(0, I), Y = W x_0 X + noise.

    Returns (x, y) with y stacked along mode 0.
    """
    w = image_coefficients(image, task)
    if n < 1:
        raise ValueError("n must be >= 1")
    if noise_std < 0:
        raise ValueError("noise_std must be >= 0")
    rng_x = substream(seed, "inputs")
    rng_e = substream(seed, "noise")
    x = rng_x.standard_normal((n, w.shape[0]))
    y = _noisy_outputs(w, x, rng_e, noise_std)
    return x, y


def synthetic_image(kind: str, height: int = 50, width: int = 50) -> np.ndarray:
    """Deterministic test images in [0,1]: "cross" (green cross on white),
    "fields" (stacked color fields), "shapes" (triangle and square)."""
    h, w = int(height), int(width)
    if h < 8 or w < 8:
        raise ValueError("image too small")
    img = np.ones((h, w, 3))
    if kind == "cross":
        bar_h = slice(h // 3, h - h // 3)
        bar_w = slice(w // 3, w - w // 3)
        img[bar_h, :] = (0.1, 0.65, 0.15)
        img[:, bar_w] = (0.1, 0.65, 0.15)
    elif kind == "fields":
        img[:, :] = (0.85, 0.30, 0.10)
        img[: h // 2, :] = (0.95, 0.55, 0.15)
        img[int(0.85 * h) :, :] = (0.40, 0.05, 0.05)
        edge = max(1, w // 20)
        img[:, :edge] = (0.60, 0.15, 0.08)
        img[:, -edge:] = (0.60, 0.15, 0.08)
    elif kind == "shapes":
        img[:, :] = (0.9, 0.9, 0.8)
        side = min(h, w) // 3
        r0, c0 = h // 8, w // 12
        img[r0 : r0 + side, c0 : c0 + side] = (0.2, 0.3, 0.8)
        peak_r, peak_c = h // 2, (2 * w) // 3
        tri_h = min(h - peak_r - 2, side + h // 6)
        for i in range(tri_h):
            half = (i * side) // (2 * tri_h) + 1
            img[peak_r + i, max(0, peak_c - half) : min(w, peak_c + half)] = (0.85, 0.15, 0.1)
    else:
        raise ValueError(f"unknown synthetic image kind {kind!r}")
    return img


# ---------------------------------------------------------------------------
# PPM files (8-bit P3/P6 <-> doubles in [0,1])


def _ppm_tokens(data: bytes):
    """(field, its end offset) for each whitespace-separated field; a '#'
    comment runs to the end of its line."""
    for m in re.finditer(rb"#[^\n]*|[^\s#]+", data):
        if not m[0].startswith(b"#"):
            yield m[0], m.end()


def read_ppm(path) -> np.ndarray:
    """Read an 8-bit P3 or P6 image as (h, w, 3) doubles in [0,1]."""
    with open(path, "rb") as f:
        data = f.read()
    toks = _ppm_tokens(data)
    try:
        magic, _ = next(toks)
        (wid, _), (hei, _), (maxval, end) = next(toks), next(toks), next(toks)
    except StopIteration:
        raise ValueError(f"{path}: truncated PPM header") from None
    if magic not in (b"P3", b"P6"):
        raise ValueError(f"{path}: not a PPM file (magic {magic!r})")
    try:
        wid, hei, maxval = int(wid), int(hei), int(maxval)
    except ValueError:
        raise ValueError(f"{path}: bad PPM header fields {wid!r} {hei!r} {maxval!r}") from None
    if wid < 1 or hei < 1:
        raise ValueError(f"{path}: bad dimensions {wid}x{hei}")
    if not 0 < maxval <= 255:
        raise ValueError(f"{path}: only 8-bit PPM supported (maxval {maxval})")
    count = wid * hei * 3
    if magic == b"P6":
        start = end + 1  # single whitespace byte after maxval
        raw = data[start : start + count]
        if len(raw) != count:
            raise ValueError(f"{path}: truncated P6 payload")
        vals = np.frombuffer(raw, dtype=np.uint8).astype(np.float64)
    else:
        # a sample takes a separator and a digit: bound the count by the payload before allocating
        room = (len(data) - end) // 2
        if count > room:
            raise ValueError(f"{path}: expected {count} P3 samples, the payload holds at most {room}")
        vals = np.empty(count)
        k = 0
        for tok, _ in toks:
            if k >= count:
                raise ValueError(f"{path}: trailing P3 samples")
            try:
                vals[k] = int(tok)
            except ValueError:
                raise ValueError(f"{path}: bad P3 sample {tok!r}") from None
            k += 1
        if k != count:
            raise ValueError(f"{path}: expected {count} P3 samples, got {k}")
        if vals.min() < 0 or vals.max() > maxval:
            raise ValueError(f"{path}: sample out of range")
    return (vals / maxval).reshape(hei, wid, 3)


def write_ppm(image, path_or_file) -> None:
    """Write (h, w, 3) doubles, clipped to [0,1] and quantized to 8 bits, as P6 to a path or binary file."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"expected an (h, w, 3) image, got {image.shape}")
    h, w, _ = image.shape
    q = np.rint(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    with _opened(path_or_file, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(q.tobytes())
