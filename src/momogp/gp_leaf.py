"""Exact single-output Gaussian process experts.

Each expert owns a Matern-3/2 kernel with per-dimension lengthscales
(automatic relevance determination), a signal variance and a noise
variance, all kept in log space so gradient ascent stays unconstrained.
Hyperparameters are frozen values (``KernelHyperparams``): a leaf's fit
belongs to the one value it fitted with. Fitting caches a Cholesky
factorisation of the noisy Gram matrix (LAPACK potrf); the posterior
moments, the marginal log likelihood and its gradient then follow in
closed form, the gradient's C^-1 coming from that factor by LAPACK potri
and the posterior's triangular solve from LAPACK trtrs:

    C = K + sigma_n^2 I
    mll = -1/2 (y^T C^-1 y + log|C| + N log 2pi)
    m(x*) = k(x*, X) C^-1 y
    v(x*) = k(x*, x*) - k(x*, X) C^-1 k(X, x*)

Gradients are taken with respect to the log parameters, so e.g.
d mll / d log sigma_f^2 = 1/2 tr((alpha alpha^T - C^-1) K). A fit asked
for the gradient takes it from the K and exp(-sqrt(3) r) it has just
built and keeps it in the fit state, so training builds each kernel
once per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg import cho_solve, lapack
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


@dataclass(frozen=True, eq=False)
class KernelHyperparams:
    """Log-space kernel hyperparameters: a frozen value.

    Parameters
    ----------
    log_lengthscales : np.ndarray
        One value per covariate dimension (ARD).
    log_signal_variance : float
        Log of sigma_f^2, the kernel output scale.
    log_noise_variance : float
        Log of sigma_n^2, the observation noise variance.

    The value keeps a read-only copy of ``log_lengthscales`` and computes
    ``lengthscales`` (read-only too), ``signal_variance`` and
    ``noise_variance`` once. No field can be written, so changing a leaf's
    hyperparameters means giving it a new value, which ``GpLeaf.is_fitted``
    sees.
    """

    log_lengthscales: np.ndarray
    log_signal_variance: float
    log_noise_variance: float
    lengthscales: np.ndarray = field(init=False, repr=False)
    signal_variance: float = field(init=False, repr=False)
    noise_variance: float = field(init=False, repr=False)

    def __post_init__(self):
        log_lengthscales = np.atleast_1d(np.array(self.log_lengthscales, dtype=float))
        if log_lengthscales.ndim != 1:
            raise ValueError("log_lengthscales must be a 1-d vector")
        log_sf2, log_sn2 = float(self.log_signal_variance), float(self.log_noise_variance)
        if not (np.all(np.isfinite(log_lengthscales))
                and math.isfinite(log_sf2) and math.isfinite(log_sn2)):
            raise ValueError("kernel hyperparameters must be finite")
        # a lengthscale too large to hold is infinite, and the kernel then
        # ignores that covariate, which is the limit of a growing lengthscale
        with np.errstate(over="ignore"):
            lengthscales = np.exp(log_lengthscales)
        for a in (log_lengthscales, lengthscales):
            a.flags.writeable = False
        for name, value in (
            ("log_lengthscales", log_lengthscales), ("log_signal_variance", log_sf2),
            ("log_noise_variance", log_sn2), ("lengthscales", lengthscales),
            ("signal_variance", _exp(log_sf2)), ("noise_variance", _exp(log_sn2)),
        ):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # copies and pickles are rebuilt by the constructor, so they are read-only too
        return type(self), (
            self.log_lengthscales, self.log_signal_variance, self.log_noise_variance
        )

    @property
    def n_dims(self) -> int:
        return self.log_lengthscales.shape[0]

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
        return cls(vec[:n_dims], float(vec[n_dims]), float(vec[n_dims + 1]))


def _scaled(x: np.ndarray, lengthscales: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x / lengthscales, dtype=float)


def _matern32(
    s1: np.ndarray, s2: np.ndarray, signal_variance: float
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel matrix K(X1, X2) and its factor exp(-sqrt(3) r), from the rows
    already divided by the lengthscales (``_scaled``).

    K(X, X) is exactly symmetric with sigma_f^2 on the diagonal.
    """
    # K is built in r's buffer and the decay in one more: a fresh n x n
    # allocation costs more than the arithmetic on it, and these products
    # round exactly as sf2 (1 + t) e^-t
    k = cdist(s1, s2)
    k *= _SQRT3
    decay = np.negative(k)
    np.exp(decay, out=decay)
    k += 1.0
    k *= signal_variance
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
        f"definite, or not finite) after jitter levels {list(JITTER_LEVELS)}"
    )


class _Fitted(NamedTuple):
    """What ``GpLeaf.fit`` computed beyond its attributes: the hyperparameters
    it fitted with (that value itself), the training inputs divided by their
    lengthscales and, when the fit was asked for it, the MLL gradient."""

    hyperparams: KernelHyperparams
    scaled_x: np.ndarray
    gradient: Optional[np.ndarray] = None


@dataclass(eq=False)
class GpLeaf:
    """A single-output GP expert; its ``LeafNode`` holds the covariate region.

    The constructor takes the data and the hyperparameters only: the output
    modelled, the training subset (rows of the circuit's training data), the
    ``KernelHyperparams`` value and ``row_idx``, which rows of the full
    training matrix the subset came from (the builder and the loader set it).
    A leaf is an identity: two leaves compare equal only if they are one.

    ``fit`` is the one place that sets the fit state: the Cholesky factor,
    alpha, the MLL and jitter, and a ``_Fitted`` record of the hyperparameters
    and scaled training inputs it used, plus the MLL gradient when
    ``fit(gradient=True)`` computed it. ``posterior_batch`` and
    ``mll_gradient`` serve from that state and compute none of it again;
    ``mll_gradient`` returns the kept gradient, and only after a plain fit
    builds the kernel again to compute it.
    Hyperparameters are frozen values, so they change only by replacement:
    a leaf whose ``hyperparams`` were replaced since its last fit counts as
    not fitted and raises NotFittedError until ``fit`` (or ``refit``) runs,
    so an old factor is never served with new hyperparameters.
    """

    scope_output: int
    train_x: np.ndarray
    train_y: np.ndarray
    hyperparams: KernelHyperparams
    row_idx: Optional[np.ndarray] = None
    chol_factor: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    alpha: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    cached_mll: Optional[float] = field(default=None, init=False)
    jitter: float = field(default=0.0, init=False)
    _fitted: Optional[_Fitted] = field(default=None, init=False, repr=False)

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
        """Whether the fit state belongs to the current ``hyperparams``."""
        return self._fitted is not None and self._fitted.hyperparams is self.hyperparams

    def fit(self, gradient: bool = False) -> "GpLeaf":
        """Factorise C = K + sigma_n^2 I (jittered if it must be) and cache
        alpha = C^-1 y, the MLL, the jitter used and what serving reads.

        With ``gradient`` the MLL gradient is computed from the kernel this
        fit just built and kept for ``mll_gradient``; the numbers are the
        same as ``mll_gradient`` computes after a plain fit.
        """
        n = self.n_train
        hyper = self.hyperparams
        if hyper.n_dims != self.n_dims:
            raise ValueError(f"hyperparams expect {hyper.n_dims} dims, leaf has {self.n_dims}")
        self._fitted = None
        # a variance near overflow makes C non-finite, which the
        # factorisation rejects; numpy need not warn about it on the way
        with np.errstate(over="ignore", invalid="ignore"):
            state = _Fitted(hyper, _scaled(self.train_x, hyper.lengthscales))
            c, decay = _matern32(state.scaled_x, state.scaled_x, hyper.signal_variance)
            c.flat[:: n + 1] += hyper.noise_variance
            # factors a copy: c is still C when the factorisation returns
            chol, self.jitter = _jittered_cholesky(c)
        self.chol_factor = chol
        self.alpha = cho_solve((chol, True), self.train_y, check_finite=False)
        log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
        self.cached_mll = -0.5 * (
            float(self.train_y @ self.alpha) + log_det + n * _LOG_2PI
        )
        if gradient:
            # back to K: _matern32 puts exactly sigma_f^2 on the diagonal
            c.flat[:: n + 1] = hyper.signal_variance
            state = state._replace(gradient=self._gradient(state, c, decay))
        self._fitted = state
        return self

    def _require_fit(self) -> _Fitted:
        if not self.is_fitted():
            raise NotFittedError(
                "leaf has no cached factorisation for its hyperparameters; call fit() first"
            )
        return self._fitted

    def posterior_batch(
        self, x: np.ndarray, include_noise: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at each row of ``x``.

        With ``include_noise`` the noise variance is added, giving the
        predictive variance of an observation rather than of the latent
        function value.
        """
        state = self._require_fit()
        hyper = state.hyperparams
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.n_dims:
            raise ValueError(
                f"query rows must be 2-d with {self.n_dims} columns, got shape {x.shape}"
            )
        # fit proved the factor finite, so only the queries need the scan
        if not np.all(np.isfinite(x)):
            raise ValueError("query points must be finite")
        k_star = _matern32(
            _scaled(x, hyper.lengthscales), state.scaled_x, hyper.signal_variance
        )[0]
        mean = k_star @ self.alpha
        # L v = k*^T solved in k*'s own buffer: trtrs is the call scipy's
        # solve_triangular makes for a Fortran-ordered factor like potrf's
        v, info = lapack.dtrtrs(self.chol_factor, k_star.T, lower=1, overwrite_b=1)
        if info != 0:
            raise NumericalError(f"triangular solve failed (LAPACK trtrs info {info})")
        np.square(v, out=v)
        var = hyper.signal_variance - np.sum(v, axis=0)
        # tiny negative values are roundoff; anything larger is a real failure,
        # and so is NaN from a query so far away that its distance overflows
        if not np.all(var >= -1e-8 * hyper.signal_variance):
            raise NumericalError(
                f"posterior variance went negative or NaN ({float(var.min())})"
            )
        np.maximum(var, 0.0, out=var)
        if include_noise:
            var += hyper.noise_variance
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

        A copy of the one ``fit(gradient=True)`` kept; after a plain fit the
        kernel is built again and differentiated by the same routine.
        """
        state = self._require_fit()
        if state.gradient is not None:
            return state.gradient.copy()
        k, decay = _matern32(state.scaled_x, state.scaled_x, state.hyperparams.signal_variance)
        return self._gradient(state, k, decay)

    def _gradient(self, state: _Fitted, k: np.ndarray, decay: np.ndarray) -> np.ndarray:
        """The MLL gradient from the fit state, K and exp(-sqrt(3) r).

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
        n = self.n_train
        d = self.n_dims
        # potri writes the lower triangle of C^-1 over a copy of the factor,
        # whose upper triangle is zero: adding the transpose and halving the
        # diagonal (both exact) fills in the rest
        c_inv = lapack.dpotri(self.chol_factor, lower=1)[0]
        c_inv = c_inv + c_inv.T
        c_inv.flat[:: n + 1] *= 0.5
        # the n x n temporaries reuse C-ordered buffers only: potri's output
        # is Fortran-ordered, and a Fortran-ordered b would sum its rows and
        # multiply in another order, so in other rounding
        a = np.outer(self.alpha, self.alpha)
        a -= c_inv
        b = np.multiply(a, decay, out=c_inv)
        b *= 1.5 * state.hyperparams.signal_variance
        s = state.scaled_x - state.scaled_x.mean(axis=0)
        grad = np.empty(d + 2)
        grad[:d] = 2.0 * ((s * s).T @ b.sum(axis=1) - np.sum(s * (b @ s), axis=0))
        grad[d + 1] = 0.5 * state.hyperparams.noise_variance * float(np.trace(a))
        grad[d] = 0.5 * float(np.sum(np.multiply(a, k, out=a)))
        return grad

    def refit(self, hyperparams: KernelHyperparams) -> "GpLeaf":
        """Swap hyperparameters and re-fit."""
        self.hyperparams = hyperparams
        return self.fit()
