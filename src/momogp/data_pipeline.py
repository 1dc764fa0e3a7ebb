"""Dataset ingestion and preprocessing.

CSV loading, column standardization, an optional PCA rotation of the
covariates, seeded train/test splitting, and a synthetic correlated
multi-output generator used by the tests and demos.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class Dataset:
    """Covariates ``x`` (N x D) and targets ``y`` (N x P); P may be zero."""

    x: np.ndarray
    y: np.ndarray
    column_names: Optional[list[str]] = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 2:
            raise ValueError("x must be 2-d")
        if self.y.ndim == 1:
            self.y = self.y[:, None]
        if self.y.ndim != 2 or self.y.shape[0] != self.x.shape[0]:
            raise ValueError("y must be 2-d with the same row count as x")

    @property
    def n_rows(self) -> int:
        return self.x.shape[0]

    @property
    def n_dims(self) -> int:
        return self.x.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.y.shape[1]


def load_csv(path, n_outputs: int) -> Dataset:
    """Load a numeric comma-separated file whose last ``n_outputs`` columns are targets.

    The first row is kept as column names when any of its cells fails to
    parse as a number. Rows with unparseable or non-finite fields, or that
    the csv module cannot read (a field over its size limit, say), are
    rejected with their 1-based line number.
    """
    rows = []
    names = None
    line_no = 0
    with open(path, newline="") as fh:
        try:
            for line_no, record in enumerate(csv.reader(fh), start=1):
                if not record or all(cell.strip() == "" for cell in record):
                    continue
                if line_no == 1:
                    try:
                        [float(cell) for cell in record]
                    except ValueError:
                        names = [cell.strip() for cell in record]
                        continue
                try:
                    values = [float(cell) for cell in record]
                except ValueError as exc:
                    raise ValueError(f"row {line_no}: unparseable field ({exc})") from None
                if not all(map(math.isfinite, values)):
                    raise ValueError(f"row {line_no}: non-finite value")
                rows.append(values)
        except csv.Error as exc:
            raise ValueError(f"row {line_no + 1}: unreadable ({exc})") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: inconsistent column counts {sorted(widths)}")
    n_cols = widths.pop()
    if n_outputs < 0:
        raise ValueError("n_outputs must be >= 0")
    if n_outputs > 0 and n_cols < n_outputs + 1:
        raise ValueError(
            f"{path}: {n_cols} columns cannot supply {n_outputs} targets "
            "plus at least one covariate"
        )
    if n_outputs == 0 and n_cols < 1:
        raise ValueError(f"{path}: no columns")
    data = np.asarray(rows, dtype=float)
    d = n_cols - n_outputs
    return Dataset(data[:, :d], data[:, d:], column_names=names)


@dataclass
class Standardization:
    """Per-column mean/std for x and y, fit on training data."""

    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: np.ndarray
    y_std: np.ndarray


def _column_stats(a: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    mean = a.mean(axis=0) if a.shape[0] else np.zeros(a.shape[1])
    std = a.std(axis=0) if a.shape[0] else np.ones(a.shape[1])
    constant = std == 0.0
    if np.any(constant):
        warnings.warn(
            f"constant {what} column(s) {np.nonzero(constant)[0].tolist()}; "
            "leaving them unscaled",
            stacklevel=3,
        )
        std = np.where(constant, 1.0, std)
    return mean, std


def standardize(data: Dataset) -> tuple[Dataset, Standardization]:
    """Zero-mean unit-variance columns; constant columns warn and keep std 1."""
    x_mean, x_std = _column_stats(data.x, "covariate")
    if data.n_outputs:
        y_mean, y_std = _column_stats(data.y, "target")
    else:
        y_mean, y_std = np.zeros(0), np.ones(0)
    stats = Standardization(x_mean, x_std, y_mean, y_std)
    return apply_standardization(data, stats), stats


def apply_standardization(data: Dataset, stats: Standardization) -> Dataset:
    transforms = PipelineTransforms(standardization=stats)
    return Dataset(
        transforms.transform_x(data.x), transforms.transform_y(data.y), data.column_names
    )


@dataclass
class PcaTransform:
    """Orthonormal principal axes of the covariates, descending variance."""

    mean: np.ndarray
    components: np.ndarray  # (D, k), columns orthonormal
    explained_variance: np.ndarray  # (k,)


def fit_pca(x: np.ndarray, k: int) -> PcaTransform:
    """Eigendecomposition of the sample covariance; deterministic signs.

    Each component's largest-magnitude entry is made positive, so the
    rotation has no run-to-run sign ambiguity.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("x must be 2-d")
    n, d = x.shape
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    if n < 2:
        raise ValueError("PCA needs at least two rows")
    mean = x.mean(axis=0)
    cov = np.cov(x - mean, rowvar=False, ddof=1).reshape(d, d)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:k]
    components = eigvecs[:, order]
    for j in range(k):
        col = components[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            components[:, j] = -col
    return PcaTransform(mean, components, np.maximum(eigvals[order], 0.0))


def apply_pca(x: np.ndarray, transform: PcaTransform) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != transform.mean.shape[0]:
        raise ValueError(
            f"x has shape {x.shape}, PCA expects {transform.mean.shape[0]} columns"
        )
    return (x - transform.mean) @ transform.components


@dataclass
class PipelineTransforms:
    """The fitted preprocessing applied before structure building.

    Order of application: standardization of x and y, then PCA on the
    standardized covariates.
    """

    standardization: Optional[Standardization] = None
    pca: Optional[PcaTransform] = None

    def transform_x(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.standardization is not None:
            width = self.standardization.x_mean.shape[0]
            if x.ndim != 2 or x.shape[1] != width:
                raise ValueError(f"x has shape {x.shape}, the model expects {width} columns")
            x = (x - self.standardization.x_mean) / self.standardization.x_std
        if self.pca is not None:
            x = apply_pca(x, self.pca)
        return x

    def _output_width(self, a: np.ndarray, what: str, n_axes: int) -> np.ndarray:
        """``a`` as floats, once its last ``n_axes`` axes match the output count."""
        a = np.asarray(a, dtype=float)
        width = self.standardization.y_mean.shape[0]
        if a.ndim < n_axes or a.shape[a.ndim - n_axes:] != (width,) * n_axes:
            raise ValueError(f"{what} has shape {a.shape}, the model has {width} outputs")
        return a

    def transform_y(self, y: np.ndarray) -> np.ndarray:
        """Standardize targets; a y with no columns (covariates only) passes through."""
        y = np.asarray(y, dtype=float)
        if self.standardization is None or (y.ndim == 2 and y.shape[1] == 0):
            return y
        y = self._output_width(y, "y", 1)
        return (y - self.standardization.y_mean) / self.standardization.y_std

    def inverse_y_mean(self, mean: np.ndarray) -> np.ndarray:
        if self.standardization is None:
            return np.asarray(mean, dtype=float)
        mean = self._output_width(mean, "mean", 1)
        return mean * self.standardization.y_std + self.standardization.y_mean

    def inverse_y_cov(self, cov: np.ndarray) -> np.ndarray:
        if self.standardization is None:
            return np.asarray(cov, dtype=float)
        cov = self._output_width(cov, "covariance", 2)
        scale = self.standardization.y_std
        return cov * np.outer(scale, scale)


def split(data: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle split; the test side gets floor(N * test_fraction) rows."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = data.n_rows
    n_test = int(np.floor(n * test_fraction))
    if n_test == 0 or n_test == n:
        raise ValueError(
            f"test_fraction {test_fraction} leaves an empty side for N={n}"
        )
    perm = np.random.default_rng(seed).permutation(n)
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    return (
        Dataset(data.x[train_idx], data.y[train_idx], data.column_names),
        Dataset(data.x[test_idx], data.y[test_idx], data.column_names),
    )


def synth_multioutput(
    n: int,
    d: int,
    p: int,
    seed: int,
    n_latents: Optional[int] = None,
    mixing: Optional[np.ndarray] = None,
    noise_std: float = 0.1,
    latent_scale: float = 2.0,
) -> Dataset:
    """Correlated multi-output regression data from shared smooth latents.

    Latents g_j(x) = sin(x @ w_j + b_j) are mixed linearly into the p
    outputs and perturbed with iid Gaussian noise. The default mixing
    matrix is dense random, so outputs share latents and their
    correlations are nonzero by construction; a zero mixing matrix
    yields pure-noise outputs. ``latent_scale`` controls the latent
    frequency: larger values make the latents wigglier and the
    regression problem harder.
    """
    if n < 1 or d < 1 or p < 1:
        raise ValueError("n, d and p must all be >= 1")
    if noise_std < 0:
        raise ValueError("noise_std must be >= 0")
    if latent_scale <= 0:
        raise ValueError("latent_scale must be > 0")
    q = n_latents if n_latents is not None else max(1, (p + 1) // 2)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, d))
    w = rng.normal(0.0, latent_scale / np.sqrt(d), size=(d, q))
    b = rng.uniform(0.0, 2.0 * np.pi, size=q)
    latents = np.sin(x @ w + b)
    if mixing is None:
        mixing = rng.normal(0.0, 1.0, size=(p, q))
    else:
        mixing = np.asarray(mixing, dtype=float)
        if mixing.shape != (p, q):
            raise ValueError(f"mixing must have shape {(p, q)}, got {mixing.shape}")
    y = latents @ mixing.T
    if noise_std > 0:
        y = y + noise_std * rng.normal(size=(n, p))
    return Dataset(x, y)
