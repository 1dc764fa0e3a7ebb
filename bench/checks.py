"""Output checks, run after the timed phases of every benchmark run.

Each check compares what the program produced with a computation made
here, apart from the program, or with a property the method must have.
Every check is a plain function over arrays and records, so the
benchmark's tests can feed it a deliberately corrupted output and see
it fail. Tolerances are listed in README.md.

The references reuse only the program's leaf posteriors and cached
marginal likelihoods; those are themselves checked against a dense
Matern-3/2 GP written here (``check_leaves``).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from momogp import LeafNode, ProductXNode, ProductYNode, SumNode

LOG_2PI = math.log(2.0 * math.pi)
SQRT3 = math.sqrt(3.0)

# circuits inducing at most this many trees are checked by enumeration
ENUMERATION_LIMIT = 1024


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def _rel_err(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return math.inf
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b) / (1.0 + np.abs(b))))


def _within(name: str, errors: dict[str, float], tol: float) -> Check:
    worst = max(errors.values()) if errors else 0.0
    detail = ", ".join(f"{k} {v:.2e}" for k, v in errors.items()) + f" (tol {tol:g})"
    return Check(name, bool(worst <= tol), detail)


# ------------------------------------------------------------ leaf oracle


def dense_matern32_gp(train_x, train_y, hyper, jitter, xq):
    """MLL and noise-free posterior mean/variance of an exact GP, by dense solves."""
    ls = np.exp(hyper.log_lengthscales)
    sf2 = math.exp(hyper.log_signal_variance)
    noise = math.exp(hyper.log_noise_variance)

    def kern(a, b):
        r = np.sqrt((((a[:, None, :] - b[None, :, :]) / ls) ** 2).sum(axis=2))
        return sf2 * (1.0 + SQRT3 * r) * np.exp(-SQRT3 * r)

    n = train_x.shape[0]
    c = kern(train_x, train_x) + (noise + jitter) * np.eye(n)
    sign, logdet = np.linalg.slogdet(c)
    if sign <= 0:
        raise ValueError("reference covariance is not positive definite")
    mll = -0.5 * (float(train_y @ np.linalg.solve(c, train_y)) + logdet + n * LOG_2PI)
    k_star = kern(xq, train_x)
    mean = k_star @ np.linalg.solve(c, train_y)
    var = sf2 - np.einsum("ij,ji->i", k_star, np.linalg.solve(c, k_star.T))
    return mll, mean, var


def sample_leaf_ids(circuit, count: int = 3) -> list[int]:
    ids = circuit.leaf_ids()
    picks = sorted({0, len(ids) // 2, len(ids) - 1})[:count]
    return [ids[i] for i in picks]


def check_leaves(circuit, xq: np.ndarray, tol: float = 1e-7) -> Check:
    """Sampled leaves: cached MLL and posterior moments against the dense GP."""
    errors = {"mll": 0.0, "mean": 0.0, "var": 0.0}
    for leaf_id in sample_leaf_ids(circuit):
        leaf = circuit.nodes[leaf_id].leaf
        mll, mean, var = dense_matern32_gp(
            leaf.train_x, leaf.train_y, leaf.hyperparams, leaf.jitter, xq
        )
        got_mean, got_var = leaf.posterior_batch(xq, include_noise=False)
        errors["mll"] = max(errors["mll"], _rel_err(leaf.cached_mll, mll))
        errors["mean"] = max(errors["mean"], _rel_err(got_mean, mean))
        errors["var"] = max(errors["var"], _rel_err(got_var, var))
    return _within("leaf_dense_gp", errors, tol)


# ------------------------------------------------- whole-circuit references


def _inside(region, x: np.ndarray) -> np.ndarray:
    return np.all(x >= region.lower, axis=1) & np.all(x < region.upper, axis=1)


def enumerate_trees(circuit):
    """Every induced tree as (log weight now, log weight at build time, leaf ids).

    Build-time weights are uniform over each sum's children; the report's
    root evidence was computed with them, before renormalization.
    """

    def rec(node_id):
        node = circuit.nodes[node_id]
        if isinstance(node, LeafNode):
            return [(0.0, 0.0, (node_id,))]
        if isinstance(node, SumNode):
            prior = -math.log(len(node.children))
            return [
                (float(log_w) + lw, prior + pw, leaves)
                for log_w, child in zip(node.log_weights, node.children)
                for lw, pw, leaves in rec(child)
            ]
        out = [(0.0, 0.0, ())]
        for child in node.children:
            out = [
                (lw + lw_c, pw + pw_c, leaves + leaves_c)
                for lw, pw, leaves in out
                for lw_c, pw_c, leaves_c in rec(child)
            ]
        return out

    return rec(circuit.root)


def tree_reference(circuit, x: np.ndarray, y: np.ndarray) -> dict:
    """Evidence, predictive moments and exact log density by tree enumeration."""
    trees = enumerate_trees(circuit)
    b, p = x.shape[0], circuit.n_outputs
    log_w = np.array([t[0] for t in trees])
    weights = np.exp(log_w - logsumexp(log_w))
    mean = np.zeros((b, p))
    second = np.zeros((b, p, p))
    log_dens = np.empty((len(trees), b))
    mll_sums = np.empty(len(trees))
    for t, (_, _, leaf_ids) in enumerate(trees):
        m = np.zeros((b, p))
        v = np.zeros((b, p))
        covered = np.zeros((b, p), dtype=int)
        for leaf_id in leaf_ids:
            leaf = circuit.nodes[leaf_id].leaf
            rows = _inside(circuit.nodes[leaf_id].region, x)
            if rows.any():
                o = leaf.scope_output
                m[rows, o], v[rows, o] = leaf.posterior_batch(x[rows], include_noise=True)
                covered[rows, o] += 1
        if not np.all(covered == 1):
            raise ValueError("an induced tree does not cover each query output exactly once")
        mean += weights[t] * m
        second += weights[t] * (np.einsum("bi,bj->bij", m, m) + np.einsum("bi,ij->bij", v, np.eye(p)))
        log_dens[t] = log_w[t] - 0.5 * np.sum((y - m) ** 2 / v + np.log(v) + LOG_2PI, axis=1)
        mll_sums[t] = sum(circuit.nodes[i].leaf.cached_mll for i in leaf_ids)
    return {
        "evidence": float(logsumexp(log_w + mll_sums)),
        "prior_evidence": float(logsumexp(np.array([t[1] for t in trees]) + mll_sums)),
        "mean": mean,
        "cov": second - np.einsum("bi,bj->bij", mean, mean),
        "log_density": logsumexp(log_dens, axis=0),
    }


def _row_moments(circuit, node_id: int, x: np.ndarray, y: np.ndarray):
    """(mean, cov, log density) of one query row, recursing from ``node_id``."""
    node = circuit.nodes[node_id]
    p = circuit.n_outputs
    if isinstance(node, LeafNode):
        leaf = node.leaf
        m, v = leaf.posterior_batch(x[None, :], include_noise=True)
        o = leaf.scope_output
        mean = np.zeros(p)
        cov = np.zeros((p, p))
        mean[o], cov[o, o] = m[0], v[0]
        log_dens = -0.5 * ((y[o] - m[0]) ** 2 / v[0] + math.log(v[0]) + LOG_2PI)
        return mean, cov, log_dens
    if isinstance(node, ProductYNode):
        parts = [_row_moments(circuit, c, x, y) for c in node.children]
        return (
            sum(part[0] for part in parts),
            sum(part[1] for part in parts),
            sum(part[2] for part in parts),
        )
    if isinstance(node, ProductXNode):
        hits = [c for c, r in zip(node.children, node.child_regions) if _inside(r, x[None, :])[0]]
        if len(hits) != 1:
            raise ValueError(f"query row falls in {len(hits)} cells of node {node_id}")
        return _row_moments(circuit, hits[0], x, y)
    parts = [_row_moments(circuit, c, x, y) for c in node.children]
    w = np.exp(node.log_weights)
    mean = sum(wk * part[0] for wk, part in zip(w, parts))
    second = sum(wk * (part[1] + np.outer(part[0], part[0])) for wk, part in zip(w, parts))
    log_dens = float(logsumexp(node.log_weights + np.array([part[2] for part in parts])))
    return mean, second - np.outer(mean, mean), log_dens


def recursion_reference(circuit, x: np.ndarray, y: np.ndarray) -> dict:
    """The same quantities as ``tree_reference``, recomputed bottom-up node by node."""
    z: dict[int, float] = {}
    z_prior: dict[int, float] = {}

    def evidence(node_id):
        if node_id in z:
            return
        node = circuit.nodes[node_id]
        if isinstance(node, LeafNode):
            z[node_id] = z_prior[node_id] = float(node.leaf.cached_mll)
            return
        for c in node.children:
            evidence(c)
        zc = np.array([z[c] for c in node.children])
        zc_prior = np.array([z_prior[c] for c in node.children])
        if isinstance(node, SumNode):
            z[node_id] = float(logsumexp(node.log_weights + zc))
            z_prior[node_id] = float(logsumexp(zc_prior) - math.log(len(zc_prior)))
        else:
            z[node_id] = float(zc.sum())
            z_prior[node_id] = float(zc_prior.sum())

    evidence(circuit.root)
    rows = [_row_moments(circuit, circuit.root, x[i], y[i]) for i in range(x.shape[0])]
    return {
        "evidence": z[circuit.root],
        "prior_evidence": z_prior[circuit.root],
        "mean": np.array([r[0] for r in rows]),
        "cov": np.array([r[1] for r in rows]),
        "log_density": np.array([r[2] for r in rows]),
    }


def check_against_reference(
    name: str,
    ref: dict,
    evidence: float,
    report_evidence: float,
    means: np.ndarray,
    covs: np.ndarray,
    log_density: np.ndarray,
    tol: float = 1e-10,
) -> Check:
    errors = {
        "evidence": _rel_err(evidence, ref["evidence"]),
        "report_evidence": _rel_err(report_evidence, ref["prior_evidence"]),
        "mean": _rel_err(means, ref["mean"]),
        "cov": _rel_err(covs, ref["cov"]),
        "exact_log_density": _rel_err(log_density, ref["log_density"]),
    }
    return _within(name, errors, tol)


# ------------------------------------------------------------ properties


def gaussian_nlpd(y: np.ndarray, means: np.ndarray, covs: np.ndarray) -> float:
    """Mean negative log density of full-covariance Gaussians, by dense solves."""
    diff = y - means
    sign, logdet = np.linalg.slogdet(covs)
    if np.any(sign <= 0):
        return math.inf
    quad = np.einsum("bi,bi->b", diff, np.linalg.solve(covs, diff[:, :, None])[:, :, 0])
    return float(np.mean(0.5 * (quad + logdet + y.shape[1] * LOG_2PI)))


def check_nlpd(y, means, covs, nlpd: float, tol: float = 1e-9) -> Check:
    """The moment-matched NLPD is the Gaussian density of predict_batch's moments."""
    return _within("nlpd_matches_moments", {"nlpd": _rel_err(nlpd, gaussian_nlpd(y, means, covs))}, tol)


def check_exact_nlpd(nlpd_exact: float, log_density: np.ndarray, tol: float = 1e-10) -> Check:
    """The exact-mixture NLPD is minus the mean of the per-row exact log densities."""
    want = -float(np.mean(log_density))
    return _within("exact_nlpd_matches_density", {"nlpd_exact": _rel_err(nlpd_exact, want)}, tol)


def check_weights_and_covariances(circuit, covs: np.ndarray, tol: float = 1e-9) -> Check:
    sums = [
        abs(float(logsumexp(node.log_weights)))
        for node in circuit.nodes
        if isinstance(node, SumNode)
    ]
    scale = max(1.0, float(np.max(np.abs(covs))))
    asym = float(np.max(np.abs(covs - np.swapaxes(covs, 1, 2)))) / scale
    sym = 0.5 * (covs + np.swapaxes(covs, 1, 2))
    traces = np.maximum(np.trace(sym, axis1=1, axis2=2), 1e-300)
    neg = float(np.max(-np.linalg.eigvalsh(sym)[:, 0] / traces))
    errors = {"weight_sum": max(sums), "asymmetry": asym, "negative_eigenvalue": max(neg, 0.0)}
    return _within("weights_normalized_covs_psd", errors, tol)


def check_mll_improved(initial_total_mll: float, final_total_mll: float) -> Check:
    return Check(
        "training_improves_mll",
        bool(final_total_mll >= initial_total_mll),
        f"initial {initial_total_mll:.6f}, final {final_total_mll:.6f}",
    )


def trivial_scores(train_y: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """RMSE and NLPD of predicting the training mean with the training variance."""
    mu = train_y.mean(axis=0)
    var = train_y.var(axis=0)
    rmse = float(np.mean(np.sqrt(np.mean((y - mu) ** 2, axis=0))))
    nlpd = float(np.mean(np.sum(0.5 * ((y - mu) ** 2 / var + np.log(var) + LOG_2PI), axis=1)))
    return rmse, nlpd


def check_beats_trivial(train_y, y, rmse: float, nlpd: float) -> Check:
    base_rmse, base_nlpd = trivial_scores(train_y, y)
    return Check(
        "beats_trivial_predictor",
        bool(rmse < base_rmse and nlpd < base_nlpd),
        f"rmse {rmse:.4f} vs {base_rmse:.4f}, nlpd {nlpd:.4f} vs {base_nlpd:.4f}",
    )


def check_bitwise(saved: tuple, loaded: tuple) -> Check:
    """Predictions (and evidence) of the loaded model equal the saved model's bit for bit."""
    same = all(np.array_equal(a, b) for a, b in zip(saved, loaded))
    return Check("load_is_bitwise", bool(same and len(saved) == len(loaded)), f"{len(saved)} arrays compared")


def read_prediction_csv(path: str, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Means (B,P) and full covariances (B,P,P) from a `momogp predict` CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    upper = [(i, j) for i in range(p) for j in range(i, p)]
    expected = [f"mean_{i}" for i in range(p)] + [f"cov_{i}_{j}" for i, j in upper]
    if rows[0] != expected:
        raise ValueError(f"unexpected prediction header {rows[0]}")
    values = np.array([[float(v) for v in row] for row in rows[1:]])
    covs = np.zeros((values.shape[0], p, p))
    for k, (i, j) in enumerate(upper):
        covs[:, i, j] = covs[:, j, i] = values[:, p + k]
    return values[:, :p], covs


def check_cli(
    cli_means, cli_covs, cli_eval: dict, lib_means, lib_covs, lib_eval: dict, tol: float = 1e-10
) -> Check:
    """`momogp predict` and `momogp evaluate` agree with the library results."""
    errors = {
        "predict_mean": _rel_err(cli_means, lib_means),
        "predict_cov": _rel_err(cli_covs, lib_covs),
    }
    for key, value in lib_eval.items():
        errors[f"evaluate_{key}"] = _rel_err(cli_eval.get(key, math.nan), value)
    errors = {k: (math.inf if math.isnan(v) else v) for k, v in errors.items()}
    return _within("cli_matches_library", errors, tol)


def read_eval_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
