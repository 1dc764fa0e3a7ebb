"""Exact single-output Gaussian process experts.

Each expert owns a Matern-3/2 kernel with per-dimension lengthscales
(automatic relevance determination), a signal variance and a noise
variance, all kept in log space so gradient ascent stays unconstrained.
Fitting caches a Cholesky factorisation of the noisy Gram matrix
(LAPACK potrf); the posterior moments, the marginal log likelihood and
its gradient then follow in closed form, the gradient's C^-1 coming
from that factor by LAPACK potri:

    C = K + sigma_n^2 I
    mll = -1/2 (y^T C^-1 y + log|C| + N log 2pi)
    m(x*) = k(x*, X) C^-1 y
    v(x*) = k(x*, x*) - k(x*, X) C^-1 k(X, x*)

Gradients are taken with respect to the log parameters, so e.g.
d mll / d log sigma_f^2 = 1/2 tr((alpha alpha^T - C^-1) K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import cho_solve, lapack, solve_triangular
from scipy.spatial.distance import cdist

from .errors import NotFittedError, NumericalError

_SQRT3 = math.sqrt(3.0)
_LOG_2PI = math.log(2.0 * math.pi)

# Jitter escalation ladder, as fractions of mean(diag(C)). The first
# attempt adds nothing; afterwards each step multiplies by ten.
JITTER_LEVELS = (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)


def _exp(v: float) -> float:
    """math.exp, but inf where it would overflow, so a variance too large to
    hold fails the factorisation instead of raising mid-kernel."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


@dataclass
class KernelHyperparams:
    """Log-space kernel hyperparameters.

    Parameters
    ----------
    log_lengthscales : np.ndarray
        One value per covariate dimension (ARD).
    log_signal_variance : float
        Log of sigma_f^2, the kernel output scale.
    log_noise_variance : float
        Log of sigma_n^2, the observation noise variance.
    """

    log_lengthscales: np.ndarray
    log_signal_variance: float
    log_noise_variance: float

    def __post_init__(self):
        self.log_lengthscales = np.atleast_1d(
            np.asarray(self.log_lengthscales, dtype=float)
        )
        if self.log_lengthscales.ndim != 1:
            raise ValueError("log_lengthscales must be a 1-d vector")
        self.log_signal_variance = float(self.log_signal_variance)
        self.log_noise_variance = float(self.log_noise_variance)
        if not (
            np.all(np.isfinite(self.log_lengthscales))
            and math.isfinite(self.log_signal_variance)
            and math.isfinite(self.log_noise_variance)
        ):
            raise ValueError("kernel hyperparameters must be finite")

    @property
    def n_dims(self) -> int:
        return self.log_lengthscales.shape[0]

    @property
    def lengthscales(self) -> np.ndarray:
        # a lengthscale too large to hold is infinite, and the kernel then
        # ignores that covariate, which is the limit of a growing lengthscale
        with np.errstate(over="ignore"):
            return np.exp(self.log_lengthscales)

    @property
    def signal_variance(self) -> float:
        return _exp(self.log_signal_variance)

    @property
    def noise_variance(self) -> float:
        return _exp(self.log_noise_variance)

    def to_vector(self) -> np.ndarray:
        """Pack into [log_lengthscales..., log_signal_variance, log_noise_variance]."""
        return np.concatenate(
            [
                self.log_lengthscales,
                [self.log_signal_variance, self.log_noise_variance],
            ]
        )

    @classmethod
    def from_vector(cls, vec: np.ndarray, n_dims: int) -> "KernelHyperparams":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (n_dims + 2,):
            raise ValueError(
                f"expected a vector of length {n_dims + 2}, got shape {vec.shape}"
            )
        return cls(vec[:n_dims].copy(), float(vec[n_dims]), float(vec[n_dims + 1]))


def _scaled(x: np.ndarray, hyper: KernelHyperparams) -> np.ndarray:
    return np.ascontiguousarray(x / hyper.lengthscales, dtype=float)


def _matern32(
    x1: np.ndarray, x2: np.ndarray, hyper: KernelHyperparams
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel matrix K(X1, X2) and its factor exp(-sqrt(3) r).

    K(X, X) is exactly symmetric with sigma_f^2 on the diagonal.
    """
    for name, x in (("x1", x1), ("x2", x2)):
        shape = np.shape(x)
        if len(shape) != 2 or shape[1] != hyper.n_dims:
            raise ValueError(
                f"{name} must be 2-d with {hyper.n_dims} columns, got shape {shape}"
            )
    # K is built in r's buffer: a fresh n x n allocation costs more than the
    # arithmetic on it, and these products round exactly as sf2 (1 + t) e^-t
    k = cdist(_scaled(x1, hyper), _scaled(x2, hyper))
    k *= _SQRT3
    decay = np.exp(-k)
    k += 1.0
    k *= hyper.signal_variance
    k *= decay
    return k, decay


def _jittered_cholesky(c: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``c`` and the diagonal jitter it needed, trying
    each of JITTER_LEVELS in turn; NumericalError when all of them fail.

    The factor's upper triangle is exactly zero. potrf can report success on
    non-finite input, but the factor's diagonal then shows it and that level
    counts as failed.
    """
    n = c.shape[0]
    mean_diag = float(np.mean(np.diag(c)))
    for level in JITTER_LEVELS:
        jitter = level * mean_diag
        jittered = c
        if level:
            jittered = c.copy()
            jittered.flat[:: n + 1] += jitter
        chol, info = lapack.dpotrf(jittered, lower=1, clean=1)
        if info == 0 and np.all(np.isfinite(np.diagonal(chol))):
            return chol, jitter
    raise NumericalError(
        f"Cholesky factorisation failed for a {n}x{n} system (not positive "
        f"definite, or not finite) after jitter levels {list(JITTER_LEVELS)}",
        jitter_levels=JITTER_LEVELS,
    )


@dataclass
class GpLeaf:
    """A single-output GP expert; its ``LeafNode`` holds the covariate region.

    The leaf keeps its own training subset (rows of the circuit's
    training data) plus the cached fit state. ``row_idx`` records which
    rows of the full training matrix the subset came from; the builder
    and the loader set it.
    """

    scope_output: int
    train_x: np.ndarray
    train_y: np.ndarray
    hyperparams: KernelHyperparams
    row_idx: Optional[np.ndarray] = None
    chol_factor: Optional[np.ndarray] = field(default=None, repr=False)
    alpha: Optional[np.ndarray] = field(default=None, repr=False)
    cached_mll: Optional[float] = None
    jitter: float = 0.0

    def __post_init__(self):
        self.train_x = np.asarray(self.train_x, dtype=float)
        self.train_y = np.asarray(self.train_y, dtype=float).ravel()
        if self.train_x.ndim != 2:
            raise ValueError("train_x must be 2-d")
        if self.train_x.shape[0] != self.train_y.shape[0]:
            raise ValueError("train_x and train_y disagree on row count")
        if self.train_x.shape[0] < 1:
            raise ValueError("a leaf needs at least one training point")
        if self.row_idx is not None:
            self.row_idx = np.asarray(self.row_idx, dtype=np.int64)

    @property
    def n_train(self) -> int:
        return self.train_x.shape[0]

    @property
    def n_dims(self) -> int:
        return self.train_x.shape[1]

    def is_fitted(self) -> bool:
        return self.chol_factor is not None

    def fit(self) -> "GpLeaf":
        """Factorise C = K + sigma_n^2 I (jittered if it must be) and cache
        alpha = C^-1 y, the MLL and the jitter used."""
        n = self.n_train
        # a variance near overflow makes C non-finite, which the
        # factorisation rejects; numpy need not warn about it on the way
        with np.errstate(over="ignore", invalid="ignore"):
            c = _matern32(self.train_x, self.train_x, self.hyperparams)[0]
            c.flat[:: n + 1] += self.hyperparams.noise_variance
            chol, self.jitter = _jittered_cholesky(c)
        self.chol_factor = chol
        self.alpha = cho_solve((chol, True), self.train_y, check_finite=False)
        log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
        self.cached_mll = -0.5 * (
            float(self.train_y @ self.alpha) + log_det + n * _LOG_2PI
        )
        return self

    def _require_fit(self):
        if not self.is_fitted():
            raise NotFittedError("leaf has no cached factorisation; call fit() first")

    def posterior_batch(
        self, x: np.ndarray, include_noise: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at each row of ``x``.

        With ``include_noise`` the noise variance is added, giving the
        predictive variance of an observation rather than of the latent
        function value.
        """
        self._require_fit()
        # fit proved the factor finite, so only the queries need the scan
        if not np.all(np.isfinite(x)):
            raise ValueError("query points must be finite")
        k_star = _matern32(x, self.train_x, self.hyperparams)[0]
        mean = k_star @ self.alpha
        v = solve_triangular(self.chol_factor, k_star.T, lower=True, check_finite=False)
        var = self.hyperparams.signal_variance - np.sum(v * v, axis=0)
        # tiny negative values are roundoff; anything larger is a real failure,
        # and so is NaN from a query so far away that its distance overflows
        if not np.all(var >= -1e-8 * self.hyperparams.signal_variance):
            raise NumericalError(
                f"posterior variance went negative or NaN ({float(var.min())})"
            )
        var = np.maximum(var, 0.0)
        if include_noise:
            var = var + self.hyperparams.noise_variance
        return mean, var

    def posterior(
        self, x_star: np.ndarray, include_noise: bool = False
    ) -> tuple[float, float]:
        """Posterior mean and variance at a single point."""
        x_star = np.asarray(x_star, dtype=float).ravel()
        mean, var = self.posterior_batch(x_star[None, :], include_noise=include_noise)
        return float(mean[0]), float(var[0])

    def mll_gradient(self) -> np.ndarray:
        """Gradient of the cached MLL w.r.t. the packed log parameters.

        Uses the trace identity d mll / d theta = 1/2 tr((alpha alpha^T
        - C^-1) dC/dtheta). For the Matern-3/2 ARD kernel,
        dK/d log l_d = 3 sigma_f^2 exp(-sqrt(3) r) (s_id - s_jd)^2 with
        s = x / l; the apparent 1/r singularity cancels. For symmetric B,
        sum_ij B_ij (s_id - s_jd)^2 = 2 [(s_d o s_d)^T B 1 - s_d^T B s_d],
        so all lengthscales take one n x n by n x d product; s is centred
        per column first, which leaves the differences unchanged but keeps
        the two terms from cancelling. Jitter is treated as a constant
        shift.
        """
        self._require_fit()
        n = self.n_train
        d = self.n_dims
        # potri writes the lower triangle of C^-1 over a copy of the factor,
        # whose upper triangle is zero: adding the transpose and halving the
        # diagonal (both exact) fills in the rest
        c_inv = lapack.dpotri(self.chol_factor, lower=1)[0]
        c_inv = c_inv + c_inv.T
        c_inv.flat[:: n + 1] *= 0.5
        a = np.outer(self.alpha, self.alpha) - c_inv
        hyper = self.hyperparams
        k, decay = _matern32(self.train_x, self.train_x, hyper)
        b = 1.5 * hyper.signal_variance * (a * decay)
        s = _scaled(self.train_x, hyper)
        s -= s.mean(axis=0)
        grad = np.empty(d + 2)
        grad[:d] = 2.0 * ((s * s).T @ b.sum(axis=1) - np.sum(s * (b @ s), axis=0))
        grad[d] = 0.5 * float(np.sum(a * k))
        grad[d + 1] = 0.5 * hyper.noise_variance * float(np.trace(a))
        return grad

    def refit(self, hyperparams: KernelHyperparams) -> "GpLeaf":
        """Swap hyperparameters and re-fit."""
        if hyperparams.n_dims != self.n_dims:
            raise ValueError(
                f"hyperparams expect {hyperparams.n_dims} dims, leaf has {self.n_dims}"
            )
        self.hyperparams = hyperparams
        return self.fit()
