"""Evidence propagation, weight renormalization and prediction.

Evidence (the log normalisation constant of the unnormalised circuit)
flows bottom-up: a leaf contributes its cached marginal log
likelihood, a sum log-sum-exps its weighted children and a product
adds its children. Renormalization turns the prior mixture weights
into posterior ones:

    log w'_i = log w_i + log Z_child_i - log Z_sum

after which every sum's weights sum to one and the circuit is a proper
mixture over its induced trees.

Prediction moment-matches that mixture: products concatenate
(output partitions) or route (covariate partitions) their children's
Gaussian moments, and a sum collapses its children to a single
Gaussian with the law-of-total-(co)variance correction.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp

from .circuit import (
    Circuit,
    LeafNode,
    ProductXNode,
    ProductYNode,
    SumNode,
    TREE_ENUM_CAP,
    count_induced_trees,
)
from .errors import CapacityError, NotFittedError, NumericalError
from .gp_leaf import _jittered_cholesky

_LOG_2PI = math.log(2.0 * math.pi)

NLPD_MODES = ("moment_matched", "exact_mixture")


def compute_evidence(circuit: Circuit) -> np.ndarray:
    """Per-node log evidence, indexed by node id."""
    z = np.full(len(circuit.nodes), np.nan)
    for node_id, node in enumerate(circuit.nodes):
        if isinstance(node, LeafNode):
            if node.leaf.cached_mll is None:
                raise NotFittedError(f"leaf node {node_id} has no cached likelihood")
            z[node_id] = node.leaf.cached_mll
        elif isinstance(node, SumNode):
            z[node_id] = logsumexp(node.log_weights + z[node.children])
        else:
            z[node_id] = float(np.sum(z[np.asarray(node.children)]))
    return z


def renormalize(circuit: Circuit, evidence: np.ndarray | None = None) -> float:
    """Rewrite every sum's weights as posterior weights; returns the root log evidence."""
    z = compute_evidence(circuit) if evidence is None else evidence
    for node_id, node in enumerate(circuit.nodes):
        if isinstance(node, SumNode):
            log_w = node.log_weights + z[node.children] - z[node_id]
            node.log_weights = log_w - logsumexp(log_w)
    return float(z[circuit.root])


def _route(node: ProductXNode, x: np.ndarray) -> np.ndarray:
    """Child index per row. Cells are half-open, so a value equal to an
    interior edge routes right; anything at or beyond the last edge goes
    to the last cell."""
    dim = node.split_dim
    interior = np.asarray([r.upper[dim] for r in node.child_regions[:-1]])
    return np.searchsorted(interior, x[:, dim], side="right")


def _moments(
    circuit: Circuit,
    node_id: int,
    x: np.ndarray,
    include_noise: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched (B,P) means and (B,P,P) covariances in full output space.

    Entries outside the node's scope stay zero; parents scatter their
    children's blocks into place.
    """
    node = circuit.nodes[node_id]
    b = x.shape[0]
    p = circuit.n_outputs
    if isinstance(node, LeafNode):
        mean, var = node.leaf.posterior_batch(x, include_noise=include_noise)
        out_mean = np.zeros((b, p))
        out_cov = np.zeros((b, p, p))
        idx = node.leaf.scope_output
        out_mean[:, idx] = mean
        out_cov[:, idx, idx] = var
        return out_mean, out_cov
    if isinstance(node, ProductYNode):
        out_mean = np.zeros((b, p))
        out_cov = np.zeros((b, p, p))
        # children have disjoint scopes: blocks add without overlap, and
        # cross-output covariance between blocks is exactly zero
        for child in node.children:
            c_mean, c_cov = _moments(circuit, child, x, include_noise)
            out_mean += c_mean
            out_cov += c_cov
        return out_mean, out_cov
    if isinstance(node, ProductXNode):
        out_mean = np.zeros((b, p))
        out_cov = np.zeros((b, p, p))
        assignment = _route(node, x)
        for j, child in enumerate(node.children):
            mask = assignment == j
            if not np.any(mask):
                continue
            c_mean, c_cov = _moments(circuit, child, x[mask], include_noise)
            out_mean[mask] = c_mean
            out_cov[mask] = c_cov
        return out_mean, out_cov
    # sum node: moment-match the mixture of the children
    weights = np.exp(node.log_weights)
    child_means = []
    child_covs = []
    for child in node.children:
        c_mean, c_cov = _moments(circuit, child, x, include_noise)
        child_means.append(c_mean)
        child_covs.append(c_cov)
    stacked_means = np.stack(child_means)  # (K, B, P)
    stacked_covs = np.stack(child_covs)  # (K, B, P, P)
    mix_mean = np.einsum("k,kbp->bp", weights, stacked_means)
    centered = stacked_means - mix_mean[None, :, :]
    spread = np.einsum("kbp,kbq->kbpq", centered, centered)
    mix_cov = np.einsum("k,kbpq->bpq", weights, stacked_covs + spread)
    return mix_mean, mix_cov


def _root_moments(
    circuit: Circuit, x: np.ndarray, include_noise: bool, cross_covariance: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Moments at the root; ``cross_covariance=False`` keeps only the variances.

    A mixture's variances depend only on its children's means and
    variances, so zeroing the off-diagonals once here gives the same
    numbers as zeroing them at every sum.
    """
    means, covs = _moments(circuit, circuit.root, x, include_noise)
    if not cross_covariance:
        diag = np.einsum("bpp->bp", covs)
        covs = np.zeros_like(covs)
        np.einsum("bpp->bp", covs)[...] = diag
    return means, covs


def _checked_inputs(circuit: Circuit, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != circuit.n_dims:
        raise ValueError(f"x has shape {x.shape}, the circuit expects {circuit.n_dims} columns")
    if not np.all(np.isfinite(x)):
        raise ValueError("query points must be finite")
    return x


def predict_batch(
    circuit: Circuit,
    x: np.ndarray,
    include_noise: bool = True,
    cross_covariance: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Moment-matched predictive means (B,P) and covariances (B,P,P).

    ``include_noise`` adds each leaf's noise variance, so the moments
    describe observations; pass False for latent-function moments.
    ``cross_covariance=False`` zeroes the off-diagonal covariance
    (ablation used to quantify how much the full matrix helps).
    """
    x = _checked_inputs(circuit, x)
    return _root_moments(circuit, x, include_noise, cross_covariance)


def _gaussian_logpdf_rows(y: np.ndarray, means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """Multivariate normal log density per row from one batched Cholesky.

    Only if that factorization fails are the rows factored one by one,
    so jitter reaches just the rows that need it; every other row gets
    the same unjittered factor as in the batched call.
    """
    b, p = y.shape
    try:
        chol = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        chol = np.empty_like(covs)
        for i in range(b):
            try:
                chol[i], _ = _jittered_cholesky(covs[i])
            except NumericalError as exc:
                raise NumericalError(
                    f"predictive covariance at row {i} is not positive definite: {exc}",
                    jitter_levels=exc.jitter_levels,
                ) from None
    # forward substitution L v = y - mean over the P columns, all rows at once
    v = y - means
    for j in range(p):
        for k in range(j):
            v[:, j] -= chol[:, j, k] * v[:, k]
        v[:, j] /= chol[:, j, j]
    half_log_det = np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    return -0.5 * np.sum(v * v, axis=1) - half_log_det - 0.5 * p * _LOG_2PI


def _log_density_exact(
    circuit: Circuit, node_id: int, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Exact mixture log density, computed by circuit recursion.

    Equal to enumerating every induced tree, weighting each tree's
    product of leaf densities by its posterior prior; the recursion is
    the same quantity computed in linear time.
    """
    node = circuit.nodes[node_id]
    if isinstance(node, LeafNode):
        mean, var = node.leaf.posterior_batch(x, include_noise=True)
        target = y[:, node.leaf.scope_output]
        return -0.5 * ((target - mean) ** 2 / var + np.log(var) + _LOG_2PI)
    if isinstance(node, ProductYNode):
        total = np.zeros(x.shape[0])
        for child in node.children:
            total += _log_density_exact(circuit, child, x, y)
        return total
    if isinstance(node, ProductXNode):
        out = np.empty(x.shape[0])
        assignment = _route(node, x)
        for j, child in enumerate(node.children):
            mask = assignment == j
            if not np.any(mask):
                continue
            out[mask] = _log_density_exact(circuit, child, x[mask], y[mask])
        return out
    stacked = np.stack(
        [
            node.log_weights[k] + _log_density_exact(circuit, child, x, y)
            for k, child in enumerate(node.children)
        ]
    )
    return logsumexp(stacked, axis=0)


def log_predictive_density_batch(
    circuit: Circuit,
    x: np.ndarray,
    y: np.ndarray,
    mode: str = "moment_matched",
    cross_covariance: bool = True,
    tree_cap: int = TREE_ENUM_CAP,
) -> np.ndarray:
    """Log density of each observed target row under the predictive distribution.

    "moment_matched" scores a Gaussian with the matched moments
    (observation noise included). "exact_mixture" scores the true
    mixture; it refuses to run when the circuit induces more trees than
    ``tree_cap``.
    """
    if mode not in NLPD_MODES:
        raise ValueError(f"mode must be one of {NLPD_MODES}, got {mode!r}")
    x = _checked_inputs(circuit, x)
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape != (x.shape[0], circuit.n_outputs):
        raise ValueError(
            f"y must have shape ({x.shape[0]}, {circuit.n_outputs}), got {y.shape}"
        )
    if not np.all(np.isfinite(y)):
        raise ValueError("targets must be finite")
    if mode == "moment_matched":
        means, covs = _root_moments(circuit, x, True, cross_covariance)
        return _gaussian_logpdf_rows(y, means, covs)
    n_trees = count_induced_trees(circuit)
    if n_trees > tree_cap:
        raise CapacityError(
            f"exact mixture density over {n_trees} induced trees exceeds the cap {tree_cap}"
        )
    return _log_density_exact(circuit, circuit.root, x, y)
