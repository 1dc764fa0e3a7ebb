"""PPM I/O and resampling baseline tests."""

import numpy as np
import pytest

from momogp.images import (
    bilinear_upsample,
    box_downsample,
    dataset_to_image,
    grid_coordinates,
    image_rmse,
    image_to_dataset,
    nearest_upsample,
    read_ppm,
    synthetic_image,
    write_ppm,
)


def tiny_image():
    img = np.zeros((2, 3, 3), dtype=np.uint8)
    img[0, 0] = (255, 0, 0)
    img[0, 1] = (0, 255, 0)
    img[0, 2] = (0, 0, 255)
    img[1, 0] = (10, 20, 30)
    img[1, 1] = (40, 50, 60)
    img[1, 2] = (70, 80, 90)
    return img


# ----------------------------------------------------------------------- io


def test_p6_write_read_roundtrip(tmp_path):
    path = tmp_path / "img.ppm"
    img = tiny_image()
    write_ppm(path, img)
    np.testing.assert_array_equal(read_ppm(path), img)
    assert [p.name for p in tmp_path.iterdir()] == ["img.ppm"]  # atomic, no temp


def test_p3_with_comments_and_whitespace(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(
        b"P3 # ascii pixmap\n# full-line comment\n 2 1\n255\n"
        b"255 0 0   # red pixel\n0 128 255\n"
    )
    img = read_ppm(path)
    np.testing.assert_array_equal(img, [[[255, 0, 0], [0, 128, 255]]])


def test_p6_binary_parsing_explicit_bytes(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P6\n2 1\n255\n" + bytes([1, 2, 3, 4, 5, 6]))
    np.testing.assert_array_equal(read_ppm(path), [[[1, 2, 3], [4, 5, 6]]])


def test_read_rejects_bad_files(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P5\n2 1\n255\n" + bytes(6))
    with pytest.raises(ValueError, match="magic"):
        read_ppm(path)
    path.write_bytes(b"P6\n2 1\n65535\n" + bytes(12))
    with pytest.raises(ValueError, match="8-bit"):
        read_ppm(path)
    path.write_bytes(b"P6\n2 1\n255\n" + bytes(3))
    with pytest.raises(ValueError, match="truncated"):
        read_ppm(path)
    path.write_bytes(b"P3\n2 1\n255\n1 2 3 4 5 999\n")
    with pytest.raises(ValueError, match="range"):
        read_ppm(path)
    path.write_bytes(b"P6\n2 1\n15\n" + bytes([200, 15, 0, 1, 2, 3]))
    with pytest.raises(ValueError, match="range"):
        read_ppm(path)
    path.write_bytes(b"P6\n2")
    with pytest.raises(ValueError, match="header"):
        read_ppm(path)


def test_maxval_below_255_is_rescaled(tmp_path):
    levels = np.arange(18).reshape(1, 6, 3) % 16  # every 4-bit sample value
    expected = np.floor(levels * 255 / 15 + 0.5).astype(np.uint8)
    header = b"6 1\n15\n"
    p3, p6 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    p3.write_bytes(b"P3\n" + header + " ".join(map(str, levels.ravel())).encode())
    p6.write_bytes(b"P6\n" + header + levels.astype(np.uint8).tobytes())
    for path in (p3, p6):
        np.testing.assert_array_equal(read_ppm(path), expected)
    assert read_ppm(p6)[0, 5].tolist() == [255, 0, 17]


def test_write_rounds_half_up_and_clamps(tmp_path):
    path = tmp_path / "img.ppm"
    img = np.array([[[0.4, 0.5, 254.5], [300.0, -5.0, 127.49]]])
    write_ppm(path, img)
    np.testing.assert_array_equal(read_ppm(path), [[[0, 1, 255], [255, 0, 127]]])


def test_write_rejects_bad_shape(tmp_path):
    with pytest.raises(ValueError):
        write_ppm(tmp_path / "x.ppm", np.zeros((4, 4)))


# --------------------------------------------------------------- resampling


def test_nearest_upsample_repeats_blocks():
    img = tiny_image()
    up = nearest_upsample(img, 2)
    assert up.shape == (4, 6, 3)
    np.testing.assert_array_equal(up[0:2, 0:2], np.broadcast_to(img[0, 0], (2, 2, 3)))
    np.testing.assert_array_equal(up[2:4, 4:6], np.broadcast_to(img[1, 2], (2, 2, 3)))


def test_bilinear_known_values_on_ramp():
    # single-row ramp 0, 100: output centres sit at source offsets
    # -0.25, 0.25, 0.75, 1.25 -> clamped interpolation 0, 25, 75, 100
    img = np.zeros((1, 2, 3))
    img[0, 1] = 100.0
    up = bilinear_upsample(img, 2)
    np.testing.assert_allclose(up[0, :, 0], [0.0, 25.0, 75.0, 100.0])


def test_bilinear_constant_image_is_exact():
    img = np.full((3, 5, 3), 42.0)
    np.testing.assert_allclose(bilinear_upsample(img, 3), 42.0)


def test_box_downsample_block_means():
    img = np.zeros((2, 2, 3))
    img[0, 0] = 10.0
    img[0, 1] = 20.0
    img[1, 0] = 30.0
    img[1, 1] = 60.0
    down = box_downsample(img, 2)
    np.testing.assert_allclose(down[0, 0], 30.0)
    with pytest.raises(ValueError):
        box_downsample(np.zeros((3, 4, 3)), 2)


def test_box_then_nearest_is_identity_for_flat_blocks():
    rng = np.random.default_rng(0)
    small = rng.integers(0, 256, size=(4, 4, 3)).astype(float)
    big = nearest_upsample(small, 2)
    np.testing.assert_allclose(box_downsample(big, 2), small)


def test_resample_factor_validation():
    with pytest.raises(ValueError):
        nearest_upsample(tiny_image(), 0)
    with pytest.raises(ValueError):
        bilinear_upsample(tiny_image(), 0)


# ------------------------------------------------------------------- bridge


def test_image_rmse_basics():
    a = np.zeros((2, 2, 3))
    b = np.full((2, 2, 3), 2.0)
    assert image_rmse(a, b) == pytest.approx(2.0)
    assert image_rmse(a, a) == 0.0
    with pytest.raises(ValueError):
        image_rmse(a, np.zeros((2, 3, 3)))


def test_grid_coordinates_are_pixel_centres():
    grid = grid_coordinates(2, 4)
    assert grid.shape == (8, 2)
    np.testing.assert_allclose(grid[0], [0.25, 0.125])
    np.testing.assert_allclose(grid[-1], [0.75, 0.875])
    # downsampled centres coincide with means of their block's centres
    fine = grid_coordinates(4, 4).reshape(4, 4, 2)
    coarse = grid_coordinates(2, 2).reshape(2, 2, 2)
    block = fine[:2, :2].reshape(-1, 2).mean(axis=0)
    np.testing.assert_allclose(block, coarse[0, 0])


def test_image_dataset_roundtrip():
    img = tiny_image()
    data = image_to_dataset(img)
    assert data.x.shape == (6, 2) and data.y.shape == (6, 3)
    back = dataset_to_image(data.y, 2, 3)
    np.testing.assert_array_equal(back, img)
    with pytest.raises(ValueError):
        dataset_to_image(data.y, 3, 3)


def test_synthetic_image_is_deterministic():
    a = synthetic_image(64)
    b = synthetic_image(64)
    assert a.shape == (64, 64, 3) and a.dtype == np.uint8
    np.testing.assert_array_equal(a, b)
    # contains both smooth regions and the sharp inserts
    assert (a == np.array([250, 215, 40], dtype=np.uint8)).all(axis=2).any()
    with pytest.raises(ValueError):
        synthetic_image(4)


def test_images_module_demo_cli(tmp_path):
    from momogp.images import _main

    out = tmp_path / "demo.ppm"
    assert _main([str(out), "--size", "16"]) == 0
    assert read_ppm(out).shape == (16, 16, 3)
