"""CSV loading, preprocessing and synthetic data tests."""

import numpy as np
import pytest

from momogp.data_pipeline import (
    Dataset,
    PipelineTransforms,
    apply_pca,
    apply_standardization,
    fit_pca,
    load_csv,
    split,
    standardize,
    synth_multioutput,
)


# ------------------------------------------------------------------ dataset


def test_dataset_shapes_and_1d_targets():
    data = Dataset(np.zeros((4, 2)), np.arange(4.0))
    assert data.n_rows == 4 and data.n_dims == 2 and data.n_outputs == 1
    with pytest.raises(ValueError):
        Dataset(np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError):
        Dataset(np.zeros((4, 2)), np.zeros((3, 1)))


# ---------------------------------------------------------------------- csv


def test_load_csv_with_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,t\n1,2,3\n4,5,6\n")
    data = load_csv(path, n_outputs=1)
    assert data.column_names == ["a", "b", "t"]
    np.testing.assert_array_equal(data.x, [[1, 2], [4, 5]])
    np.testing.assert_array_equal(data.y, [[3], [6]])


def test_load_csv_headerless_auto(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2,3\n4,5,6\n")
    data = load_csv(path, n_outputs=2)
    assert data.column_names is None
    assert data.n_dims == 1 and data.n_outputs == 2


def test_load_csv_rejects_bad_rows_with_line_numbers(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n1,2\noops,4\n")
    with pytest.raises(ValueError, match="row 3"):
        load_csv(path, n_outputs=1)
    path.write_text("x,y\n1,2\n3,inf\n")
    with pytest.raises(ValueError, match="row 3"):
        load_csv(path, n_outputs=1)


def test_load_csv_rejects_ragged_and_empty(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2\n3,4,5\n")
    with pytest.raises(ValueError, match="inconsistent"):
        load_csv(path, n_outputs=1)
    path.write_text("x,y\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(path, n_outputs=1)


def test_load_csv_column_budget(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2\n")
    with pytest.raises(ValueError):
        load_csv(path, n_outputs=2)  # would leave zero covariates
    data = load_csv(path, n_outputs=0)
    assert data.n_outputs == 0 and data.n_dims == 2


def test_load_csv_alternate_delimiter_and_blank_lines(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2\n\n3,4\n")
    data = load_csv(path, n_outputs=1)
    assert data.n_rows == 2
    # only commas separate fields: a tab-separated file is not numeric
    path.write_text("1\t2\n3\t4\n")
    with pytest.raises(ValueError, match="row 2"):
        load_csv(path, n_outputs=1)


# ----------------------------------------------------------- standardization


def test_standardize_zero_mean_unit_std():
    rng = np.random.default_rng(0)
    data = Dataset(rng.normal(2.0, 3.0, size=(50, 3)), rng.normal(size=(50, 2)))
    out, stats = standardize(data)
    np.testing.assert_allclose(out.x.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.x.std(axis=0), 1.0, atol=1e-12)
    np.testing.assert_allclose(out.y.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.y.std(axis=0), 1.0, atol=1e-12)
    again = apply_standardization(data, stats)
    np.testing.assert_array_equal(again.x, out.x)
    np.testing.assert_array_equal(again.y, out.y)


def test_covariate_width_is_checked_where_transforms_apply():
    rng = np.random.default_rng(0)
    _, stats = standardize(Dataset(rng.normal(size=(10, 3)), rng.normal(size=(10, 2))))
    narrow = Dataset(rng.normal(size=(4, 1)), rng.normal(size=(4, 2)))
    with pytest.raises(ValueError, match=r"\(4, 1\).* 3 columns"):
        PipelineTransforms(standardization=stats).transform_x(narrow.x)
    with pytest.raises(ValueError, match=r"\(4, 1\).* 3 columns"):
        apply_standardization(narrow, stats)


def test_standardize_constant_column_warns_and_keeps_scale():
    x = np.ones((10, 2))
    x[:, 1] = np.arange(10.0)
    data = Dataset(x, np.zeros((10, 1)))
    with pytest.warns(UserWarning, match="constant"):
        out, stats = standardize(data)
    assert stats.x_std[0] == 1.0
    np.testing.assert_allclose(out.x[:, 0], 0.0, atol=1e-15)


# ----------------------------------------------------------------------- pca


def test_pca_orthonormal_descending_signed():
    rng = np.random.default_rng(1)
    base = rng.normal(size=(200, 3)) @ np.diag([5.0, 1.0, 0.2])
    x = base @ np.linalg.qr(rng.normal(size=(3, 3)))[0]
    t = fit_pca(x, 3)
    np.testing.assert_allclose(t.components.T @ t.components, np.eye(3), atol=1e-10)
    assert np.all(np.diff(t.explained_variance) <= 1e-12)
    for j in range(3):
        col = t.components[:, j]
        assert col[np.argmax(np.abs(col))] > 0
    # projected covariance is diagonal with the explained variances
    z = apply_pca(x, t)
    np.testing.assert_allclose(
        np.cov(z, rowvar=False, ddof=1), np.diag(t.explained_variance), atol=1e-10
    )


def test_pca_projection_reduces_width():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(40, 5))
    t = fit_pca(x, 2)
    assert apply_pca(x, t).shape == (40, 2)
    with pytest.raises(ValueError):
        fit_pca(x, 6)
    with pytest.raises(ValueError):
        fit_pca(x[:1], 1)
    with pytest.raises(ValueError):
        apply_pca(np.zeros((3, 4)), t)


def test_pipeline_transform_roundtrip():
    rng = np.random.default_rng(3)
    data = Dataset(rng.normal(1.0, 2.0, size=(60, 4)), rng.normal(3.0, 0.5, size=(60, 2)))
    std_data, stats = standardize(data)
    pca = fit_pca(std_data.x, 2)
    pipe = PipelineTransforms(standardization=stats, pca=pca)
    x_t = pipe.transform_x(data.x)
    assert x_t.shape == (60, 2)
    y_t = pipe.transform_y(data.y)
    back = pipe.inverse_y_mean(y_t)
    np.testing.assert_allclose(back, data.y, atol=1e-12)
    cov = np.array([[0.2, 0.05], [0.05, 0.4]])
    cov_back = pipe.inverse_y_cov(cov)
    scale = np.outer(stats.y_std, stats.y_std)
    np.testing.assert_allclose(cov_back, cov * scale, atol=1e-14)


def test_pipeline_identity_without_fits():
    pipe = PipelineTransforms()
    x = np.arange(6.0).reshape(3, 2)
    np.testing.assert_array_equal(pipe.transform_x(x), x)
    np.testing.assert_array_equal(pipe.inverse_y_mean(x), x)


# --------------------------------------------------------------------- split


def test_split_sizes_and_disjointness():
    data = Dataset(np.arange(10.0)[:, None], np.arange(10.0)[:, None])
    train, test = split(data, 0.3, seed=0)
    assert test.n_rows == 3 and train.n_rows == 7
    merged = np.sort(np.concatenate([train.x[:, 0], test.x[:, 0]]))
    np.testing.assert_array_equal(merged, np.arange(10.0))


def test_split_deterministic_and_seed_sensitive():
    data = Dataset(np.arange(30.0)[:, None], np.zeros((30, 1)))
    a1, _ = split(data, 0.25, seed=4)
    a2, _ = split(data, 0.25, seed=4)
    b, _ = split(data, 0.25, seed=5)
    np.testing.assert_array_equal(a1.x, a2.x)
    assert not np.array_equal(a1.x, b.x)


def test_split_rejects_empty_sides():
    data = Dataset(np.arange(4.0)[:, None], np.zeros((4, 1)))
    with pytest.raises(ValueError):
        split(data, 0.1, seed=0)  # floor gives zero test rows
    with pytest.raises(ValueError):
        split(data, 1.0, seed=0)


# ---------------------------------------------------------------- synthetic


def test_synth_shapes_and_determinism():
    a = synth_multioutput(50, 3, 2, seed=0)
    b = synth_multioutput(50, 3, 2, seed=0)
    c = synth_multioutput(50, 3, 2, seed=1)
    assert a.x.shape == (50, 3) and a.y.shape == (50, 2)
    np.testing.assert_array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)


def test_synth_shared_latent_duplicates_outputs():
    # both outputs read only the first latent with weight 1 and no noise:
    # the columns must be identical
    mixing = np.array([[1.0, 0.0], [1.0, 0.0]])
    data = synth_multioutput(40, 2, 2, seed=3, n_latents=2, mixing=mixing, noise_std=0.0)
    np.testing.assert_array_equal(data.y[:, 0], data.y[:, 1])


def test_synth_zero_mixing_gives_independent_noise():
    n = 4000
    data = synth_multioutput(n, 2, 2, seed=4, n_latents=1,
                             mixing=np.zeros((2, 1)), noise_std=1.0)
    corr = np.corrcoef(data.y.T)[0, 1]
    assert abs(corr) < 3.0 / np.sqrt(n)


def test_synth_validation():
    with pytest.raises(ValueError):
        synth_multioutput(0, 1, 1, seed=0)
    with pytest.raises(ValueError):
        synth_multioutput(10, 1, 1, seed=0, noise_std=-0.1)
    with pytest.raises(ValueError):
        synth_multioutput(10, 1, 1, seed=0, latent_scale=0.0)
    with pytest.raises(ValueError):
        synth_multioutput(10, 1, 2, seed=0, mixing=np.zeros((3, 1)))
