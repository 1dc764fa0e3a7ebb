"""Kernel and single-output GP expert tests."""

import math
import re

import numpy as np
import pytest

import oracles
from momogp.errors import NotFittedError, NumericalError
from momogp.gp_leaf import (
    JITTER_LEVELS,
    GpLeaf,
    KernelHyperparams,
    _jittered_cholesky,
    _matern32,
    _scaled,
)

SQRT3 = math.sqrt(3.0)


def unit_hyper(d, log_noise=0.0):
    return KernelHyperparams(np.zeros(d), 0.0, log_noise)


def gram(x1, x2, hyper):
    """The package kernel matrix K(X1, X2): the rows scaled as a fit scales them."""
    s1, s2 = (_scaled(x, hyper.lengthscales) for x in (x1, x2))
    return _matern32(s1, s2, hyper.signal_variance)[0]


def kernel(a, b, hyper):
    """The package kernel between two points, as a 1x1 kernel matrix."""
    return float(gram(np.atleast_2d(a), np.atleast_2d(b), hyper)[0, 0])


def random_leaf(rng, n=12, d=2):
    x = rng.normal(size=(n, d))
    y = np.sin(x.sum(axis=1)) + 0.2 * rng.normal(size=n)
    return GpLeaf(0, x, y, oracles.random_hyperparams(rng, d)).fit()


# ------------------------------------------------------------------- kernel


def test_kernel_at_zero_distance_is_signal_variance():
    hyper = KernelHyperparams(np.zeros(3), math.log(2.5), 0.0)
    assert kernel([1.0, -2.0, 0.5], [1.0, -2.0, 0.5], hyper) == pytest.approx(2.5)


def test_kernel_at_unit_distance():
    # r = 1: k = sigma_f^2 (1 + sqrt(3)) exp(-sqrt(3))
    hyper = unit_hyper(1)
    expected = (1.0 + SQRT3) * math.exp(-SQRT3)
    assert kernel([0.0], [1.0], hyper) == pytest.approx(expected, rel=1e-15)


def test_kernel_ard_scaling_matches_oracle():
    rng = np.random.default_rng(0)
    hyper = KernelHyperparams([0.3, -0.5, 0.9], -0.2, -2.0)
    for _ in range(20):
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert kernel(a, b, hyper) == pytest.approx(
            oracles.kernel_value(a, b, hyper), rel=1e-13
        )


def test_kernel_dimension_mismatch():
    # the kernel takes scaled rows; widths are checked where rows meet a
    # leaf's lengthscales: the training rows in fit, the query rows in posterior_batch
    leaf = GpLeaf(0, [[0.0, 1.0]], [0.5], unit_hyper(2)).fit()
    with pytest.raises(ValueError, match="2 columns"):
        leaf.posterior_batch([[0.0]])
    with pytest.raises(ValueError, match="2 dims, leaf has 1"):
        GpLeaf(0, [[0.0]], [0.5], unit_hyper(2)).fit()


def test_gram_exactly_symmetric_and_psd():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(30, 4))
    k = gram(x, x, oracles.random_hyperparams(rng, 4))
    assert np.array_equal(k, k.T)
    assert np.min(np.linalg.eigvalsh(k)) > -1e-10


def test_gram_and_cross_match_loop_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(7, 2))
    xq = rng.normal(size=(4, 2))
    hyper = oracles.random_hyperparams(rng, 2)
    np.testing.assert_allclose(
        gram(x, x, hyper), oracles.dense_gram(x, hyper), rtol=1e-12, atol=1e-14
    )
    np.testing.assert_allclose(
        gram(xq, x, hyper), oracles.dense_cross(xq, x, hyper),
        rtol=1e-12, atol=1e-14,
    )


def test_hyperparams_vector_roundtrip():
    hyper = KernelHyperparams([0.1, -0.4], 0.7, -1.3)
    back = KernelHyperparams.from_vector(hyper.to_vector(), 2)
    assert np.array_equal(back.log_lengthscales, hyper.log_lengthscales)
    assert back.log_signal_variance == hyper.log_signal_variance
    assert back.log_noise_variance == hyper.log_noise_variance
    with pytest.raises(ValueError):
        KernelHyperparams.from_vector(np.zeros(3), 2)


def test_hyperparams_reject_non_finite():
    with pytest.raises(ValueError):
        KernelHyperparams([np.nan], 0.0, 0.0)
    with pytest.raises(ValueError):
        KernelHyperparams([0.0], math.inf, 0.0)


# ------------------------------------------------------------------ fitting


def test_mll_single_point_frozen():
    # N=1, y=0, sigma_f^2 = sigma_n^2 = 1: C = [2],
    # mll = -1/2 (log 2 + log 2pi)
    leaf = GpLeaf(0, [[0.0]], [0.0], unit_hyper(1)).fit()
    assert leaf.cached_mll == pytest.approx(-1.2655121234846454, rel=1e-14)


def test_mll_matches_dense_oracle():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n, d = int(rng.integers(3, 15)), int(rng.integers(1, 4))
        x = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        hyper = oracles.random_hyperparams(rng, d)
        leaf = GpLeaf(0, x, y, hyper).fit()
        assert leaf.jitter == 0.0
        assert leaf.cached_mll == pytest.approx(
            oracles.dense_mll(x, y, hyper), rel=1e-10
        )


def test_posterior_single_point_example():
    # one observation y=2 at the query point, unit signal and noise:
    # mean = 1*(1/2)*2 = 1, latent var = 1 - 1/2 = 1/2
    leaf = GpLeaf(0, [[0.0]], [2.0], unit_hyper(1)).fit()
    mean, var = leaf.posterior([0.0])
    assert mean == pytest.approx(1.0, rel=1e-14)
    assert var == pytest.approx(0.5, rel=1e-14)
    _, var_obs = leaf.posterior([0.0], include_noise=True)
    assert var_obs == pytest.approx(1.5, rel=1e-14)


def test_posterior_matches_dense_oracle():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(10, 2))
    y = rng.normal(size=10)
    hyper = oracles.random_hyperparams(rng, 2)
    leaf = GpLeaf(0, x, y, hyper).fit()
    xq = rng.normal(size=(6, 2))
    for noise in (False, True):
        mean, var = leaf.posterior_batch(xq, include_noise=noise)
        om, ov = oracles.dense_posterior(x, y, hyper, xq, include_noise=noise)
        np.testing.assert_allclose(mean, om, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(var, ov, rtol=1e-8, atol=1e-11)


def test_posterior_variance_grows_with_distance():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, size=(20, 1))
    leaf = GpLeaf(0, x, np.sin(3 * x[:, 0]), unit_hyper(1, math.log(0.01))).fit()
    _, near = leaf.posterior([0.0])
    _, far = leaf.posterior([50.0])
    assert near < far
    assert far <= leaf.hyperparams.signal_variance * (1 + 1e-12)


def test_jitter_escalates_on_duplicate_rows():
    # identical inputs with near-zero noise: plain Cholesky fails, the
    # ladder must rescue the factorisation
    x = np.zeros((6, 1))
    y = np.ones(6)
    leaf = GpLeaf(0, x, y, unit_hyper(1, log_noise=-60.0)).fit()
    assert leaf.jitter > 0.0
    assert leaf.is_fitted() and math.isfinite(leaf.cached_mll)


def test_factor_is_lower_triangular_with_zero_upper_triangle():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(30, 30))
    healthy = a @ a.T + 30.0 * np.eye(30)
    u = rng.normal(size=(30, 1))
    singular = u @ u.T  # rank 1: only a jitter level factors it
    for c, jittered in ((healthy, False), (singular, True)):
        chol, jitter = _jittered_cholesky(c)
        assert (jitter > 0.0) == jittered
        assert np.all(np.triu(chol, 1) == 0.0)
        np.testing.assert_allclose(chol @ chol.T, c + jitter * np.eye(30), atol=1e-12)


@pytest.mark.parametrize("c", [-np.eye(3), np.full((3, 3), np.nan)], ids=["negative", "nan"])
def test_unfactorable_matrix_lists_every_jitter_level(c):
    with pytest.raises(NumericalError, match=re.escape(str(list(JITTER_LEVELS)))) as info:
        _jittered_cholesky(c)
    assert info.value.jitter_levels == JITTER_LEVELS


def test_no_jitter_on_well_conditioned_system():
    rng = np.random.default_rng(6)
    leaf = random_leaf(rng)
    assert leaf.jitter == 0.0
    assert JITTER_LEVELS[0] == 0.0


def test_not_fitted_guards():
    leaf = GpLeaf(0, [[0.0]], [1.0], unit_hyper(1))
    assert not leaf.is_fitted()
    with pytest.raises(NotFittedError):
        leaf.posterior([0.0])
    with pytest.raises(NotFittedError):
        leaf.mll_gradient()


def test_posterior_rejects_wrong_width():
    rng = np.random.default_rng(7)
    leaf = random_leaf(rng, d=2)
    with pytest.raises(ValueError):
        leaf.posterior_batch(np.zeros((3, 5)))


@pytest.mark.filterwarnings("error")
def test_overflowing_lengthscale_drops_its_covariate_quietly():
    # exp(710) overflows to an infinite lengthscale: the covariate is ignored
    rng = np.random.default_rng(8)
    x = rng.normal(size=(10, 2))
    y = np.sin(x[:, 0])
    xq = rng.normal(size=(4, 2))
    wide = GpLeaf(0, x, y, KernelHyperparams([0.3, 710.0], 0.2, -2.0)).fit()
    mean, var = wide.posterior_batch(xq, include_noise=True)
    assert np.all(np.isfinite(mean)) and np.all(np.isfinite(var))
    narrow = GpLeaf(0, x[:, :1], y, KernelHyperparams([0.3], 0.2, -2.0)).fit()
    ref_mean, ref_var = narrow.posterior_batch(xq[:, :1], include_noise=True)
    np.testing.assert_allclose(mean, ref_mean, rtol=1e-12)
    np.testing.assert_allclose(var, ref_var, rtol=1e-12)


def test_leaf_shape_validation():
    with pytest.raises(ValueError):
        GpLeaf(0, np.zeros((3, 1)), np.zeros(4), unit_hyper(1))
    with pytest.raises(ValueError):
        GpLeaf(0, np.zeros((0, 1)), np.zeros(0), unit_hyper(1))


# ----------------------------------------------------------------- gradient


def test_gradient_noise_term_closed_form():
    # N=1, y=0: mll = -1/2(log(sf2+sn2) + log 2pi),
    # d mll / d log sn2 = -sn2 / (2 (sf2+sn2))
    hyper = KernelHyperparams([0.0], math.log(1.7), math.log(0.3))
    leaf = GpLeaf(0, [[0.0]], [0.0], hyper).fit()
    grad = leaf.mll_gradient()
    assert grad[2] == pytest.approx(-0.5 * 0.3 / 2.0, rel=1e-12)
    # lengthscale has no effect for a single point
    assert grad[0] == pytest.approx(0.0, abs=1e-15)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(8)
    for d in (1, 3):
        leaf = random_leaf(rng, n=14, d=d)
        grad = leaf.mll_gradient()
        fd = oracles.fd_gradient(leaf)
        err = np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(fd))
        assert err < 1e-4, (d, grad, fd)


@pytest.mark.parametrize("offset", [0.0, 1000.0])
def test_gradient_matches_loop_reference(offset):
    # the one-product lengthscale gradient subtracts two large terms;
    # covariates far from the origin would expose any cancellation
    rng = np.random.default_rng(10)
    for n, d in ((2, 1), (17, 3), (60, 16), (119, 5)):
        x = rng.normal(size=(n, d)) + offset
        y = np.sin(x.sum(axis=1)) + 0.2 * rng.normal(size=n)
        leaf = GpLeaf(0, x, y, oracles.random_hyperparams(rng, d)).fit()
        ref = oracles.loop_gradient(leaf)
        err = np.max(np.abs(leaf.mll_gradient() - ref)) / np.max(np.abs(ref))
        assert err < 1e-9, (n, d, err)


def test_jittered_gradient_matches_loop_reference():
    # the inverse comes from the jittered factor; the oracle inverts that
    # same factor by triangular solves, so it checks potri independently.
    # Jitter 1e-8 leaves C with a condition number near 6e8, and roundoff
    # alone then puts ~1e-8 between two correct gradients (the triangular-solve
    # inverse sat 3.4e-8 from the oracle here), so this bound is wider than
    # the 1e-9 of the well-conditioned leaves; a wrong inverse moves it at O(1)
    rng = np.random.default_rng(1)
    x = np.repeat(rng.normal(size=(4, 2)), 3, axis=0)
    y = np.sin(x.sum(axis=1))
    leaf = GpLeaf(0, x, y, unit_hyper(2, log_noise=-60.0)).fit()
    assert leaf.jitter > 0.0
    ref = oracles.loop_gradient(leaf)
    err = np.max(np.abs(leaf.mll_gradient() - ref)) / np.max(np.abs(ref))
    assert err < 1e-6, err


def test_refit_swaps_hyperparams():
    rng = np.random.default_rng(9)
    leaf = random_leaf(rng)
    before = leaf.cached_mll
    new = oracles.random_hyperparams(rng, leaf.n_dims)
    leaf.refit(new)
    assert leaf.hyperparams is new
    assert leaf.cached_mll != before
    with pytest.raises(ValueError):
        leaf.refit(unit_hyper(leaf.n_dims + 1))


def test_posterior_rejects_non_finite_query_rows():
    rng = np.random.default_rng(9)
    leaf = random_leaf(rng, d=2)
    for bad in (np.nan, np.inf):
        xq = np.zeros((3, 2))
        xq[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            leaf.posterior_batch(xq)
    # finite, but so far away that the kernel's distance overflows
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
        leaf.posterior_batch(np.full((2, 2), 1e200))


def test_posterior_rejects_query_rows_of_the_wrong_shape():
    # one column would broadcast against two lengthscales if it were not checked
    rng = np.random.default_rng(12)
    leaf = random_leaf(rng, d=2)
    for bad in (np.zeros((3, 1)), np.zeros(2), np.zeros((1, 2, 1))):
        with pytest.raises(ValueError, match="2 columns"):
            leaf.posterior_batch(bad)


# ------------------------------------------------------------ fitted state


def test_refit_serves_what_a_fresh_fit_serves():
    rng = np.random.default_rng(13)
    leaf = random_leaf(rng, n=20, d=3)
    leaf.mll_gradient()
    new = oracles.random_hyperparams(rng, 3)
    leaf.refit(new)
    fresh = GpLeaf(0, leaf.train_x, leaf.train_y, new).fit()
    xq = rng.normal(size=(9, 3))
    for noise in (False, True):
        for got, want in zip(
            leaf.posterior_batch(xq, include_noise=noise),
            fresh.posterior_batch(xq, include_noise=noise),
        ):
            assert np.array_equal(got, want)
    assert np.array_equal(leaf.mll_gradient(), fresh.mll_gradient())
    assert leaf.cached_mll == fresh.cached_mll


@pytest.mark.parametrize("b", [0, 1, 7])
def test_posterior_leaves_its_inputs_and_the_fit_unchanged(b):
    # the triangular solve and the squaring run in place, in k*'s buffer
    rng = np.random.default_rng(14)
    leaf = random_leaf(rng, n=15, d=2)
    xq = rng.normal(size=(b, 2))
    kept = [a.copy() for a in (xq, leaf.train_x, leaf.train_y, leaf.alpha, leaf.chol_factor)]
    first = leaf.posterior_batch(xq, include_noise=True)
    for a, before in zip((xq, leaf.train_x, leaf.train_y, leaf.alpha, leaf.chol_factor), kept):
        assert np.array_equal(a, before)
    again = leaf.posterior_batch(xq, include_noise=True)
    assert all(np.array_equal(p, q) for p, q in zip(first, again))
    assert first[0].shape == first[1].shape == (b,)


def test_replaced_hyperparams_need_a_fit_before_serving():
    # the old factor is never served with the new hyperparameters: the leaf
    # counts as not fitted until fit() runs, and then serves the new ones
    rng = np.random.default_rng(15)
    leaf = random_leaf(rng, n=12, d=2)
    assert leaf.is_fitted()
    new = oracles.random_hyperparams(rng, 2)
    leaf.hyperparams = new
    assert not leaf.is_fitted()
    xq = rng.normal(size=(4, 2))
    with pytest.raises(NotFittedError, match="call fit"):
        leaf.posterior_batch(xq)
    with pytest.raises(NotFittedError):
        leaf.posterior(xq[0])
    with pytest.raises(NotFittedError):
        leaf.mll_gradient()
    leaf.fit()
    fresh = GpLeaf(0, leaf.train_x, leaf.train_y, new).fit()
    for got, want in zip(leaf.posterior_batch(xq), fresh.posterior_batch(xq)):
        assert np.array_equal(got, want)


def test_fit_refuses_hyperparams_of_another_width():
    rng = np.random.default_rng(16)
    leaf = random_leaf(rng, d=2)
    leaf.hyperparams = unit_hyper(1)
    with pytest.raises(ValueError, match="1 dims, leaf has 2"):
        leaf.fit()
    assert not leaf.is_fitted()
