"""Evidence propagation, weight renormalization and prediction.

Evidence (the log normalisation constant of the unnormalised circuit)
flows bottom-up: a leaf contributes its cached marginal log
likelihood, a sum log-sum-exps its weighted children and a product
adds its children. Renormalization turns the prior mixture weights
into posterior ones:

    log w'_i = log w_i + log Z_child_i - log Z_sum

after which every sum's weights sum to one and the circuit is a proper
mixture over its induced trees.

Prediction and the exact density are one traversal, ``_fold``: a
product multiplies its children's independent densities and a sum
mixes them, so both walk the circuit the same way. A covariate split
hands each cell's query rows to that child (``circuit._cell_of``), an
output partition adds its children, and every leaf reached computes its
GP posterior once. Only the leaf and sum steps differ. For the moments
a leaf places its mean and variance in its output's slot and a sum
collapses its children to one Gaussian with the law-of-total-(co)variance
correction; for the exact density a leaf scores its output's Gaussian
and a sum log-sum-exps its weighted children.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from .circuit import (
    Circuit,
    LeafNode,
    ProductXNode,
    ProductYNode,
    SumNode,
    _cell_of,
)
from .errors import NotFittedError, NumericalError
from .gp_leaf import _LOG_2PI, _jittered_cholesky

NLPD_MODES = ("moment_matched", "exact_mixture")


def compute_evidence(circuit: Circuit) -> np.ndarray:
    """Per-node log evidence, indexed by node id."""
    z = np.full(len(circuit.nodes), np.nan)
    for node_id, node in enumerate(circuit.nodes):
        if isinstance(node, LeafNode):
            if not node.leaf.is_fitted():
                raise NotFittedError(f"leaf node {node_id} is not fitted to its hyperparameters")
            z[node_id] = node.leaf.cached_mll
        elif isinstance(node, SumNode):
            z[node_id] = np.logaddexp.reduce(node.log_weights + z[node.children])
        else:
            z[node_id] = float(np.sum(z[np.asarray(node.children)]))
    return z


def renormalize(circuit: Circuit) -> float:
    """Rewrite every sum's weights as posterior weights; returns the root log evidence."""
    z = compute_evidence(circuit)
    for node_id, node in enumerate(circuit.nodes):
        if isinstance(node, SumNode):
            log_w = node.log_weights + z[node.children] - z[node_id]
            node.log_weights = log_w - np.logaddexp.reduce(log_w)
    return float(z[circuit.root])


class _Fold:
    """One bottom-up evaluation of the circuit over the query rows ``x``.

    Every node returns a tuple of arrays whose first axis runs over the
    rows it was handed. A leaf maps its (B,) posterior means and variances
    through ``at_leaf(node, rows, mean, var)``; a sum combines its
    children's tuples with ``at_sum(node, parts)``. The rest is shared:
    an output partition adds its children (independent factors), and a
    covariate split hands each child the rows in its cell, skips empty
    cells and scatters the results back. When all of a split's rows share
    one cell, as a single-row request's always do, it hands them through
    to that child and returns the child's result as it is, with no mask,
    allocation or scatter.

    Each leaf's posterior is computed once per pass: every parent of a
    shared leaf hands it the same rows in the same order, the query rows
    inside its region. (A class rather than a recursive closure, whose
    reference cycle would keep those posteriors alive until the next
    full garbage collection.)
    """

    def __init__(self, circuit: Circuit, x: np.ndarray, include_noise: bool, at_leaf, at_sum):
        self.nodes = circuit.nodes
        self.x = x
        self.include_noise = include_noise
        self.at_leaf = at_leaf
        self.at_sum = at_sum
        self.posteriors: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def visit(self, node_id: int, rows: np.ndarray) -> tuple:
        node = self.nodes[node_id]
        if isinstance(node, LeafNode):
            posteriors = self.posteriors
            if node_id not in posteriors:
                posteriors[node_id] = node.leaf.posterior_batch(self.x[rows], self.include_noise)
            return self.at_leaf(node, rows, *posteriors[node_id])
        if isinstance(node, SumNode):
            return self.at_sum(node, [self.visit(child, rows) for child in node.children])
        if isinstance(node, ProductYNode):
            return tuple(map(sum, zip(*[self.visit(child, rows) for child in node.children])))
        assignment = _cell_of(node.edges, self.x[rows, node.split_dim])
        if rows.size and (assignment == assignment[0]).all():
            # every row in one cell: that child's result is already in row order
            return self.visit(node.children[assignment[0]], rows)
        out = None
        for j, child in enumerate(node.children):
            mask = assignment == j
            # an empty batch visits every cell, so every node still returns its shapes
            if rows.size and not mask.any():
                continue
            part = self.visit(child, rows[mask])
            if out is None:
                out = tuple([np.empty((rows.size,) + a.shape[1:]) for a in part])
            for o, a in zip(out, part):
                o[mask] = a
        return out


def _fold(circuit: Circuit, x: np.ndarray, include_noise: bool, at_leaf, at_sum) -> tuple:
    """The root's result of one ``_Fold`` pass over every row of ``x``."""
    rows = np.arange(x.shape[0])
    return _Fold(circuit, x, include_noise, at_leaf, at_sum).visit(circuit.root, rows)


def _root_moments(
    circuit: Circuit, x: np.ndarray, include_noise: bool, cross_covariance: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Batched (B,P) means and (B,P,P) covariances at the root.

    Each node's moments live in full output space, zero outside its
    scope, so an output partition's sum places its children's blocks;
    a sum moment-matches its children's mixture. ``cross_covariance=False``
    keeps only the variances: a mixture's variances depend only on its
    children's means and variances, so zeroing the off-diagonals once
    here gives the same numbers as zeroing them at every sum.
    """
    p = circuit.n_outputs

    def at_leaf(node, rows, mean, var):
        out_mean = np.zeros((rows.size, p))
        out_cov = np.zeros((rows.size, p, p))
        idx = node.leaf.scope_output
        out_mean[:, idx] = mean
        out_cov[:, idx, idx] = var
        return out_mean, out_cov

    def at_sum(node, parts):
        weights = np.exp(node.log_weights)
        stacked_means = np.stack([m for m, _ in parts])  # (K, B, P)
        stacked_covs = np.stack([c for _, c in parts])  # (K, B, P, P)
        mix_mean = np.einsum("k,kbp->bp", weights, stacked_means)
        centered = stacked_means - mix_mean[None, :, :]
        spread = np.einsum("kbp,kbq->kbpq", centered, centered)
        mix_cov = np.einsum("k,kbpq->bpq", weights, stacked_covs + spread)
        return mix_mean, mix_cov

    means, covs = _fold(circuit, x, include_noise, at_leaf, at_sum)
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
    so jitter reaches just the rows that need it; every other row is
    still factored without jitter.
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
                    f"predictive covariance at row {i} is not positive definite: {exc}"
                ) from None
    # forward substitution L v = y - mean over the P columns, all rows at once
    v = y - means
    for j in range(p):
        for k in range(j):
            v[:, j] -= chol[:, j, k] * v[:, k]
        v[:, j] /= chol[:, j, j]
    half_log_det = np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    return -0.5 * np.sum(v * v, axis=1) - half_log_det - 0.5 * p * _LOG_2PI


def _log_density_exact(circuit: Circuit, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact mixture log density of each row.

    Equal to enumerating every induced tree, weighting each tree's
    product of leaf densities by its posterior prior; one pass computes
    the same quantity in linear time. A leaf scores its output's Gaussian
    and a sum log-sum-exps its weighted children.
    """

    def at_leaf(node, rows, mean, var):
        target = y[rows, node.leaf.scope_output]
        return (-0.5 * ((target - mean) ** 2 / var + np.log(var) + _LOG_2PI),)

    def at_sum(node, parts):
        stacked = np.stack([node.log_weights[k] + part for k, (part,) in enumerate(parts)])
        # scipy's rounding keeps served exact densities those of earlier versions
        return (logsumexp(stacked, axis=0),)

    return _fold(circuit, x, True, at_leaf, at_sum)[0]


def log_predictive_density_batch(
    circuit: Circuit,
    x: np.ndarray,
    y: np.ndarray,
    mode: str = "moment_matched",
    cross_covariance: bool = True,
    tree_cap: int | None = None,
) -> np.ndarray:
    """Log density of each observed target row under the predictive distribution.

    "moment_matched" scores a Gaussian with the matched moments
    (observation noise included). "exact_mixture" scores the true
    mixture in one pass, linear in circuit size, however many induced
    trees the circuit has. ``tree_cap`` is accepted and ignored; it goes
    with ROADMAP item 6.
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
    return _log_density_exact(circuit, x, y)
