import numpy as np
import pytest

import oracles
from tensorreg.datagen import (
    SynthSpec,
    coefficients_to_image,
    derive_seed,
    gen_image_measurements,
    gen_linear_synthetic,
    gen_nonlinear_synthetic,
    image_coefficients,
    random_lowrank_tensor,
    random_orthonormal,
    read_ppm,
    square_features,
    substream,
    synthetic_image,
    write_ppm,
)
from tensorreg.regress import rls_fit
from tensorreg.tensor import matricize, mode_product


def test_substream_determinism_and_disjointness():
    a1 = substream(0, "coeff").standard_normal(6)
    a2 = substream(0, "coeff").standard_normal(6)
    np.testing.assert_array_equal(a1, a2)
    b = substream(0, "inputs").standard_normal(6)
    c = substream(1, "coeff").standard_normal(6)
    d = substream(0, "coeff", 1).standard_normal(6)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)
    assert not np.array_equal(a1, d)
    with pytest.raises(ValueError, match="purpose"):
        substream(0, "mystery")


def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    seen = {derive_seed(7, i, j) for i in range(5) for j in range(5)}
    assert len(seen) == 25
    assert all(0 <= s < 2**63 for s in seen)


def test_random_orthonormal():
    rng = substream(3, "coeff")
    u = random_orthonormal(rng, 7, 3)
    assert u.shape == (7, 3)
    np.testing.assert_allclose(u.T @ u, np.eye(3), atol=1e-12)
    v1 = random_orthonormal(substream(4, "coeff"), 5, 5)
    v2 = random_orthonormal(substream(4, "coeff"), 5, 5)
    np.testing.assert_array_equal(v1, v2)
    with pytest.raises(ValueError, match="1 <= r <= d"):
        random_orthonormal(rng, 3, 4)


def test_random_lowrank_tensor():
    w = random_lowrank_tensor((6, 5, 7), (3, 2, 4), seed=9)
    assert w.shape == (6, 5, 7)
    assert oracles.multilinear_rank(w) == (3, 2, 4)
    np.testing.assert_array_equal(w, random_lowrank_tensor((6, 5, 7), (3, 2, 4), seed=9))
    assert not np.array_equal(w, random_lowrank_tensor((6, 5, 7), (3, 2, 4), seed=10))
    with pytest.raises(ValueError, match="ranks for"):
        random_lowrank_tensor((6, 5), (3, 2, 1), seed=0)
    with pytest.raises(ValueError, match="not in"):
        random_lowrank_tensor((6, 5), (3, 7), seed=0)


def test_synth_spec_validation():
    with pytest.raises(ValueError, match="noise_std"):
        SynthSpec(noise_std=-0.1)
    with pytest.raises(ValueError, match="sample counts"):
        SynthSpec(n_train=0)


def small_spec(**kw):
    base = dict(
        input_dim=5,
        output_dims=(4, 3),
        ranks=(3, 2, 2),
        n_train=40,
        n_test=10,
        noise_std=0.1,
        seed=0,
    )
    base.update(kw)
    return SynthSpec(**base)


def test_gen_linear_shapes_and_determinism():
    data = gen_linear_synthetic(small_spec())
    assert data.x_train.shape == (40, 5)
    assert data.y_train.shape == (40, 4, 3)
    assert data.x_test.shape == (10, 5)
    assert data.y_test.shape == (10, 4, 3)
    assert data.w_true.shape == (5, 4, 3)
    again = gen_linear_synthetic(small_spec())
    np.testing.assert_array_equal(data.y_train, again.y_train)
    other = gen_linear_synthetic(small_spec(seed=1))
    assert not np.array_equal(data.y_train, other.y_train)


def test_gen_linear_noise_free_is_exact():
    data = gen_linear_synthetic(small_spec(noise_std=0.0))
    np.testing.assert_allclose(
        data.y_train, mode_product(data.w_true, data.x_train, 0), atol=1e-12
    )
    assert oracles.multilinear_rank(data.w_true) == (3, 2, 2)


def test_gen_linear_noise_level():
    spec = small_spec(n_train=300, n_test=300)
    data = gen_linear_synthetic(spec)
    resid = data.y_train - mode_product(data.w_true, data.x_train, 0)
    assert abs(float(np.std(resid)) - 0.1) < 0.01
    # train and test noise come from one stream but distinct draws
    resid_test = data.y_test - mode_product(data.w_true, data.x_test, 0)
    assert not np.array_equal(resid[: resid_test.shape[0]], resid_test)


def test_square_features_matches_kron():
    rng = substream(11, "inputs")
    x = rng.standard_normal((6, 4))
    feats = square_features(x)
    assert feats.shape == (6, 16)
    for i in range(6):
        np.testing.assert_allclose(feats[i], np.kron(x[i], x[i]), atol=1e-12)
    np.testing.assert_allclose(square_features(x[2]), feats[2], atol=1e-12)


def test_gen_nonlinear_consistency():
    spec = small_spec(noise_std=0.0)
    data = gen_nonlinear_synthetic(spec)
    assert data.w_true.shape == (25, 4, 3)
    np.testing.assert_allclose(
        data.y_train,
        mode_product(data.w_true, square_features(data.x_train), 0),
        atol=1e-10,
    )
    assert data.x_train.shape == (40, 5)


@pytest.mark.parametrize("seed", [0, 1, 7, 123, 2**31 - 1])
def test_both_synthetic_tasks_are_the_seeded_draws_bit_for_bit(seed):
    # one body: W from the coefficient stream, train then test rows from the
    # inputs stream, train then test noise from the noise stream; the tasks
    # differ only in the feature map applied to the rows
    spec = small_spec(seed=seed)
    for gen, width, features in ((gen_linear_synthetic, 5, lambda x: x), (gen_nonlinear_synthetic, 25, square_features)):
        data = gen(spec)
        w = random_lowrank_tensor((width, 4, 3), spec.ranks, seed)
        rng_x, rng_e = substream(seed, "inputs"), substream(seed, "noise")
        x_train, x_test = rng_x.standard_normal((40, 5)), rng_x.standard_normal((10, 5))
        y_train = mode_product(w, features(x_train), 0) + rng_e.normal(0.0, 0.1, size=(40, 4, 3))
        y_test = mode_product(w, features(x_test), 0) + rng_e.normal(0.0, 0.1, size=(10, 4, 3))
        for got, want in zip((data.w_true, data.x_train, data.x_test, data.y_train, data.y_test), (w, x_train, x_test, y_train, y_test)):
            assert got.tobytes() == want.tobytes(), gen.__name__


def test_image_coefficient_round_trips():
    img = synthetic_image("fields", 12, 10)
    for task, shape in (("channels", (3, 12, 10)), ("height", (12, 10, 3))):
        w = image_coefficients(img, task)
        assert w.shape == shape
        np.testing.assert_array_equal(coefficients_to_image(w, task), img)
    with pytest.raises(ValueError, match="unknown image task"):
        image_coefficients(img, "width")
    with pytest.raises(ValueError, match="unknown image task"):
        coefficients_to_image(np.zeros((3, 4, 5)), "width")
    with pytest.raises(ValueError, match="image"):
        image_coefficients(np.zeros((4, 5)), "channels")


def test_image_measurements_identify_the_image():
    img = synthetic_image("cross", 14, 14)
    x, y = gen_image_measurements(img, "channels", n=60, noise_std=0.0, seed=5)
    assert x.shape == (60, 3)
    assert y.shape == (60, 14, 14)
    w_est = rls_fit(x, matricize(y, 0), 0.0)
    w_true = image_coefficients(img, "channels")
    rel = np.linalg.norm(w_est - matricize(w_true, 0)) / np.linalg.norm(w_true)
    assert rel <= 1e-6
    with pytest.raises(ValueError, match="n must"):
        gen_image_measurements(img, "channels", n=0)
    with pytest.raises(ValueError, match="noise_std"):
        gen_image_measurements(img, "channels", noise_std=-1.0)


def test_synthetic_images():
    for kind in ("cross", "fields", "shapes"):
        img = synthetic_image(kind, 20, 24)
        assert img.shape == (20, 24, 3)
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert img.std() > 0.01  # not a constant field
    with pytest.raises(ValueError, match="unknown synthetic image"):
        synthetic_image("donut")
    with pytest.raises(ValueError, match="too small"):
        synthetic_image("cross", 4, 4)


def test_ppm_round_trip_p6_and_p3(tmp_path):
    rng = substream(21, "misc")
    img = rng.integers(0, 256, size=(9, 7, 3)).astype(np.float64) / 255.0
    p6 = tmp_path / "img.ppm"
    write_ppm(img, p6)
    np.testing.assert_array_equal(read_ppm(p6), img)
    # P3 is read only, from files made elsewhere: its bytes are written here literally
    p3 = tmp_path / "img3.ppm"
    samples = np.rint(img * 255.0).astype(int).reshape(-1, 3)
    p3.write_bytes(b"P3\n7 9\n255\n" + b"".join(b"%d %d %d\n" % tuple(row) for row in samples))
    np.testing.assert_array_equal(read_ppm(p3), img)
    assert p3.read_bytes().startswith(b"P3\n7 9\n255\n")
    assert p6.read_bytes().startswith(b"P6\n7 9\n255\n")


def test_ppm_quantization_and_clipping(tmp_path):
    img = np.full((8, 8, 3), 0.1)
    img[0, 0] = (-0.5, 1.5, 0.5)
    path = tmp_path / "q.ppm"
    write_ppm(img, path)
    back = read_ppm(path)
    assert back[0, 0, 0] == 0.0
    assert back[0, 0, 1] == 1.0
    assert back[1, 1, 0] == pytest.approx(np.rint(0.1 * 255) / 255, abs=1e-12)
    with pytest.raises(ValueError, match="image"):
        write_ppm(np.zeros((4, 4)), path)


def test_ppm_comments_and_whitespace(tmp_path):
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P3 # plain text\n# full comment line\n2 1 # dims\n255\n1 2 3  4 5 6\n")
    img = read_ppm(path)
    assert img.shape == (1, 2, 3)
    np.testing.assert_allclose(img[0, 0] * 255, [1, 2, 3], atol=1e-12)
    np.testing.assert_allclose(img[0, 1] * 255, [4, 5, 6], atol=1e-12)


def test_ppm_errors(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P7\n2 2\n255\n" + b"\0" * 12)
    with pytest.raises(ValueError, match="not a PPM"):
        read_ppm(path)
    path.write_bytes(b"P6\n2 2\n65535\n" + b"\0" * 24)
    with pytest.raises(ValueError, match="8-bit"):
        read_ppm(path)
    path.write_bytes(b"P6\n2 2\n255\n" + b"\0" * 5)
    with pytest.raises(ValueError, match="truncated P6"):
        read_ppm(path)
    path.write_bytes(b"P6\n2")
    with pytest.raises(ValueError, match="truncated PPM header"):
        read_ppm(path)
    path.write_bytes(b"P3\n1 1\n255\n1 2\n")
    with pytest.raises(ValueError, match="expected 3 P3 samples"):
        read_ppm(path)
    path.write_bytes(b"P3\n1 1\n255\n1 2 3 4\n")
    with pytest.raises(ValueError, match="trailing"):
        read_ppm(path)
    path.write_bytes(b"P3\n1 1\n255\n1 2 900\n")
    with pytest.raises(ValueError, match="out of range"):
        read_ppm(path)
    path.write_bytes(b"P6\n0 2\n255\n")
    with pytest.raises(ValueError, match="bad dimensions"):
        read_ppm(path)
