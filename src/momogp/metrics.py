"""Evaluation metrics.

RMSE is the average over output dimensions of each dimension's root
mean squared error (not the pooled RMSE over all entries); MAE pools
absolute errors over every entry; NLPD is the mean negative log
predictive density of the test targets.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .circuit import Circuit
from .inference import log_predictive_density_batch


def _paired(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.ndim == 1:
        y_true = y_true[:, None]
    if y_pred.ndim == 1:
        y_pred = y_pred[:, None]
    if y_true.shape != y_pred.shape or y_true.ndim != 2 or y_true.shape[0] < 1:
        raise ValueError(
            f"shape mismatch: y_true {y_true.shape} vs y_pred {y_pred.shape}"
        )
    return y_true, y_pred


def per_output_rmse(y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
    y_true, y_pred = _paired(y_true, y_pred)
    return np.sqrt(np.mean((y_true - y_pred) ** 2, axis=0))


def rmse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean over outputs of the per-output RMSE."""
    return float(np.mean(per_output_rmse(y_true, y_pred)))


def mae(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean absolute error pooled over all rows and outputs."""
    y_true, y_pred = _paired(y_true, y_pred)
    return float(np.mean(np.abs(y_true - y_pred)))


def mean_nlpd(
    circuit: Circuit,
    x: np.ndarray,
    y: np.ndarray,
    mode: str = "moment_matched",
    cross_covariance: bool = True,
) -> float:
    """Mean negative log predictive density of the rows of (x, y)."""
    log_densities = log_predictive_density_batch(
        circuit, x, y, mode=mode, cross_covariance=cross_covariance
    )
    return float(-np.mean(log_densities))


@dataclass
class EvalResult:
    n_test: int
    rmse: float
    mae: float
    mean_nlpd: float
    nlpd_mode: str
    per_output_rmse: list[float]
    mean_nlpd_exact: Optional[float] = None

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.mean_nlpd_exact is None:
            del out["mean_nlpd_exact"]
        return out

    def format_text(self) -> str:
        lines = [
            f"n_test={self.n_test}",
            f"rmse={self.rmse:.6f}",
            f"mae={self.mae:.6f}",
            f"mean_nlpd={self.mean_nlpd:.6f}",
            f"nlpd_mode={self.nlpd_mode}",
        ]
        for i, value in enumerate(self.per_output_rmse):
            lines.append(f"rmse_output_{i}={value:.6f}")
        if self.mean_nlpd_exact is not None:
            lines.append(f"mean_nlpd_exact={self.mean_nlpd_exact:.6f}")
        return "\n".join(lines)
