"""Independent reference implementations used to check the package.

Everything here is written the slow, obvious way on purpose: python
loops for kernels, dense inverses instead of Cholesky solves, explicit
recursion over every induced tree instead of the circuit recursions.
Agreement between these and the fast paths is what the tests assert.
"""

import copy
import math
from dataclasses import replace

import numpy as np
from scipy.linalg import cho_solve
from scipy.spatial.distance import cdist
from scipy.special import logsumexp

from momogp.circuit import (
    Circuit,
    LeafNode,
    ProductXNode,
    ProductYNode,
    StructureConfig,
    SumNode,
    build,
    count_induced_trees,
)
from momogp.data_pipeline import Dataset
from momogp.gp_leaf import KernelHyperparams

SQRT3 = math.sqrt(3.0)
LOG2PI = math.log(2.0 * math.pi)


# ------------------------------------------------------------------ regions


def in_region(region, x) -> np.ndarray:
    """Which rows of ``x`` lie in the half-open box: lower <= v < upper per dimension."""
    x = np.asarray(x, dtype=float)
    hit = np.ones(x.shape[0], dtype=bool)
    for dim, (lo, hi) in enumerate(zip(region.lower, region.upper)):
        hit &= (lo <= x[:, dim]) & (x[:, dim] < hi)
    return hit


# ------------------------------------------------------------------- scopes


def node_scopes(circuit: Circuit) -> list[set]:
    """The outputs each node models: a leaf its own, any other node its children's."""
    scopes = []
    for node in circuit.nodes:
        if isinstance(node, LeafNode):
            scopes.append({node.leaf.scope_output})
        else:
            scopes.append(set().union(*(scopes[c] for c in node.children)))
    return scopes


# ---------------------------------------------------------------- kernel / GP


def kernel_value(a, b, hyper: KernelHyperparams) -> float:
    r2 = 0.0
    for d in range(len(a)):
        ls = math.exp(hyper.log_lengthscales[d])
        r2 += ((a[d] - b[d]) / ls) ** 2
    r = math.sqrt(r2)
    return hyper.signal_variance * (1.0 + SQRT3 * r) * math.exp(-SQRT3 * r)


def dense_gram(x: np.ndarray, hyper: KernelHyperparams) -> np.ndarray:
    n = x.shape[0]
    k = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            k[i, j] = kernel_value(x[i], x[j], hyper)
    return k


def dense_cross(xq: np.ndarray, x: np.ndarray, hyper: KernelHyperparams) -> np.ndarray:
    k = np.empty((xq.shape[0], x.shape[0]))
    for i in range(xq.shape[0]):
        for j in range(x.shape[0]):
            k[i, j] = kernel_value(xq[i], x[j], hyper)
    return k


def dense_mll(x: np.ndarray, y: np.ndarray, hyper: KernelHyperparams) -> float:
    """Gaussian marginal log likelihood via explicit inverse and slogdet."""
    c = dense_gram(x, hyper) + hyper.noise_variance * np.eye(x.shape[0])
    c_inv = np.linalg.inv(c)
    sign, logdet = np.linalg.slogdet(c)
    assert sign > 0, "oracle covariance not positive definite"
    quad = float(y @ c_inv @ y)
    return -0.5 * (quad + logdet + x.shape[0] * LOG2PI)


def dense_posterior(x, y, hyper, xq, include_noise=False):
    """Exact GP posterior at ``xq`` from the textbook dense formulas."""
    c = dense_gram(x, hyper) + hyper.noise_variance * np.eye(x.shape[0])
    c_inv = np.linalg.inv(c)
    ks = dense_cross(np.asarray(xq, dtype=float), x, hyper)
    mean = ks @ c_inv @ y
    var = np.empty(xq.shape[0])
    for i in range(xq.shape[0]):
        var[i] = kernel_value(xq[i], xq[i], hyper) - ks[i] @ c_inv @ ks[i]
    if include_noise:
        var = var + hyper.noise_variance
    return mean, var


def fd_gradient(leaf, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of the leaf's own MLL over log params."""
    base = leaf.hyperparams.to_vector()
    grad = np.zeros_like(base)
    for j in range(base.shape[0]):
        up = base.copy()
        up[j] += eps
        down = base.copy()
        down[j] -= eps
        hi = leaf.refit(KernelHyperparams.from_vector(up, leaf.n_dims)).cached_mll
        lo = leaf.refit(KernelHyperparams.from_vector(down, leaf.n_dims)).cached_mll
        grad[j] = (hi - lo) / (2.0 * eps)
    leaf.refit(KernelHyperparams.from_vector(base, leaf.n_dims))
    return grad


def loop_gradient(leaf) -> np.ndarray:
    """Analytic MLL gradient of a fitted leaf, one n x n difference matrix
    per covariate dimension (the direct form of the trace identity)."""
    n, d = leaf.train_x.shape
    hyper = leaf.hyperparams
    ls = hyper.lengthscales
    sf2 = hyper.signal_variance
    a = np.outer(leaf.alpha, leaf.alpha) - cho_solve((leaf.chol_factor, True), np.eye(n))
    r = cdist(leaf.train_x / ls, leaf.train_x / ls)
    decay = np.exp(-SQRT3 * r)
    b = 1.5 * sf2 * (a * decay)
    grad = np.empty(d + 2)
    for j in range(d):
        diff = (leaf.train_x[:, j, None] - leaf.train_x[None, :, j]) / ls[j]
        grad[j] = float(np.sum(b * diff * diff))
    grad[d] = 0.5 * float(np.sum(a * sf2 * (1.0 + SQRT3 * r) * decay))
    grad[d + 1] = 0.5 * hyper.noise_variance * float(np.trace(a))
    return grad


# ------------------------------------------------------------ tree expansion


def unshare(circuit: Circuit) -> Circuit:
    """The same model as a tree: every node deep-copied once per path from the
    root, so each shared leaf gets one copy per reference.

    Nodes are added children first in list order, as the builder adds them,
    so the ids are again a topological order.
    """
    nodes = []

    def rec(node_id):
        node = copy.deepcopy(circuit.nodes[node_id])
        if not isinstance(node, LeafNode):
            node.children = [rec(c) for c in node.children]
        nodes.append(node)
        return len(nodes) - 1

    root = rec(circuit.root)
    return Circuit(nodes, root, circuit.n_outputs, circuit.n_dims, replace(circuit.config))


def enumerate_trees(circuit: Circuit):
    """All induced trees as (log_prior, leaf id tuple), by direct recursion."""

    def rec(node_id):
        node = circuit.nodes[node_id]
        if isinstance(node, LeafNode):
            return [(0.0, (node_id,))]
        if isinstance(node, SumNode):
            out = []
            for log_w, child in zip(node.log_weights, node.children):
                out.extend((float(log_w) + lp, ls) for lp, ls in rec(child))
            return out
        out = [(0.0, ())]
        for child in node.children:
            out = [
                (lp + lp_c, ls + ls_c)
                for lp, ls in out
                for lp_c, ls_c in rec(child)
            ]
        return out

    return rec(circuit.root)


def evidence_oracle(circuit: Circuit) -> float:
    """Root log evidence as an explicit sum over every induced tree."""
    terms = []
    for log_prior, leaf_ids in enumerate_trees(circuit):
        total = log_prior
        for lid in leaf_ids:
            total += circuit.nodes[lid].leaf.cached_mll
        terms.append(total)
    return float(logsumexp(terms))


def _tree_mean_var(circuit, leaf_ids, x, include_noise):
    """Per-row mean/variance vectors of one tree's factorized Gaussian.

    Within a tree every output is covered by exactly one leaf whose
    region contains the row, so the joint is diagonal.
    """
    n, p = x.shape[0], circuit.n_outputs
    mean = np.zeros((n, p))
    var = np.zeros((n, p))
    hit = np.zeros((n, p), dtype=int)
    for lid in leaf_ids:
        node = circuit.nodes[lid]
        out = node.leaf.scope_output
        inside = in_region(node.region, x)
        if not inside.any():
            continue
        m, v = node.leaf.posterior_batch(x[inside], include_noise=include_noise)
        mean[inside, out] = m
        var[inside, out] = v
        hit[inside, out] += 1
    assert np.all(hit == 1), "tree leaves must cover each row/output exactly once"
    return mean, var


def moments_oracle(circuit: Circuit, x: np.ndarray, include_noise=True):
    """Mixture mean/covariance over trees, from per-tree factorized Gaussians."""
    x = np.asarray(x, dtype=float)
    trees = enumerate_trees(circuit)
    log_priors = np.array([t[0] for t in trees])
    weights = np.exp(log_priors - logsumexp(log_priors))
    n, p = x.shape[0], circuit.n_outputs
    mix_mean = np.zeros((n, p))
    second = np.zeros((n, p, p))
    for w, (_, leaf_ids) in zip(weights, trees):
        m, v = _tree_mean_var(circuit, leaf_ids, x, include_noise)
        mix_mean += w * m
        second += w * np.einsum("bi,bj->bij", m, m)
        second[:, np.arange(p), np.arange(p)] += w * v
    cov = second - np.einsum("bi,bj->bij", mix_mean, mix_mean)
    return mix_mean, cov


def density_oracle(circuit: Circuit, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row log density of the exact tree mixture (noise included)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    trees = enumerate_trees(circuit)
    per_tree = np.empty((len(trees), x.shape[0]))
    for t, (log_prior, leaf_ids) in enumerate(trees):
        m, v = _tree_mean_var(circuit, leaf_ids, x, include_noise=True)
        row = -0.5 * np.sum((y - m) ** 2 / v + np.log(v) + LOG2PI, axis=1)
        per_tree[t] = log_prior + row
    return logsumexp(per_tree, axis=0)


def density_recursion_oracle(circuit: Circuit, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row exact mixture log density by direct recursion, one row at a time.

    For circuits with too many induced trees to enumerate. A covariate
    split sends the row to the one child whose region holds it
    (``in_region`` on the builder's regions), an output partition adds its
    children, a sum log-sum-exps its weighted children and a leaf scores
    its output's Gaussian (noise included).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.empty(x.shape[0])
    for i in range(x.shape[0]):
        row = x[i : i + 1]
        memo = {}

        def rec(node_id):
            if node_id in memo:
                return memo[node_id]
            node = circuit.nodes[node_id]
            if isinstance(node, LeafNode):
                assert in_region(node.region, row)[0], "row routed outside its leaf"
                m, v = node.leaf.posterior_batch(row, include_noise=True)
                target = y[i, node.leaf.scope_output]
                value = -0.5 * ((target - m[0]) ** 2 / v[0] + math.log(v[0]) + LOG2PI)
            elif isinstance(node, SumNode):
                value = logsumexp([lw + rec(c) for lw, c in zip(node.log_weights, node.children)])
            elif isinstance(node, ProductYNode):
                value = sum(rec(c) for c in node.children)
            else:
                hits = [c for c in node.children if in_region(circuit.nodes[c].region, row)[0]]
                assert len(hits) == 1, "covariate cells must hold each row exactly once"
                value = rec(hits[0])
            memo[node_id] = value
            return value

        out[i] = rec(circuit.root)
    return out


# --------------------------------------------------------- random generators


def random_dataset(rng: np.random.Generator, n=None, d=None, p=None) -> Dataset:
    n = int(rng.integers(18, 44)) if n is None else n
    d = int(rng.integers(1, 4)) if d is None else d
    p = int(rng.integers(1, 4)) if p is None else p
    x = rng.normal(size=(n, d))
    w = rng.normal(size=(d, p))
    y = np.sin(x @ w) + 0.3 * rng.normal(size=(n, p))
    return Dataset(x, y)


def random_hyperparams(rng: np.random.Generator, d: int) -> KernelHyperparams:
    return KernelHyperparams(
        rng.uniform(-0.7, 0.9, size=d),
        float(rng.uniform(-1.0, 0.7)),
        float(rng.uniform(-3.0, -0.8)),
    )


def random_circuit(rng: np.random.Generator, max_trees: int = 64) -> Circuit:
    """Small fitted circuit with randomized hyperparams and sum weights.

    Retries configurations until the induced-tree count fits under
    ``max_trees`` so enumeration oracles stay cheap.
    """
    while True:
        data = random_dataset(rng)
        cfg = StructureConfig(
            k_sum=int(rng.integers(1, 4)),
            k_prod_x=int(rng.integers(1, 4)),
            k_prod_y=int(rng.integers(1, 3)),
            leaf_threshold=int(rng.integers(5, 20)),
            rng_seed=int(rng.integers(0, 10_000)),
        )
        if rng.random() < 0.25:
            cfg = replace(cfg, k_prod_x=1)  # no covariate splits
        circuit = build(data, cfg)
        if count_induced_trees(circuit) <= max_trees:
            break
    for _, node in circuit.leaves():
        node.leaf.hyperparams = random_hyperparams(rng, circuit.n_dims)
        node.leaf.fit()
    for node in circuit.nodes:
        if isinstance(node, SumNode):
            raw = rng.uniform(0.2, 1.0, size=len(node.children))
            node.log_weights = np.log(raw) - math.log(raw.sum())
    return circuit
