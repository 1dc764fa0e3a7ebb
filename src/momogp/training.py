"""Hyperparameter optimisation.

Every leaf maximises its own marginal log likelihood independently by
Adam ascent on the log-space kernel parameters. Early stopping watches
the total over all leaves; the best-scoring parameter snapshot is
restored at the end, so the final total never falls below the initial
one. Once the leaves are fitted, the mixture weights are renormalized
to their posterior values.

Initial lengthscales are Gamma draws from a per-leaf seeded stream, so
results do not depend on leaf processing order or thread count. A leaf
shared by several parents is one GP problem: it is fitted once per
epoch and draws from the stream of its first reference.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .circuit import Circuit, LeafNode, _check_field_types
from .errors import NumericalError
from .gp_leaf import GpLeaf, KernelHyperparams
from .inference import compute_evidence, renormalize


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    max_epochs: int = 200
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    early_stop_rel_tol: float = 1e-5
    early_stop_patience: int = 10
    init_gamma_shape: float = 2.0
    # lengthscales ~ Gamma(shape, rate), i.e. scale = 1 / init_gamma_rate
    init_gamma_rate: float = 3.0
    init_signal_variance: float = 1.0
    init_noise_variance: float = 0.1
    rng_seed: int = 0

    def validate(self):
        _check_field_types(self)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if not 0 <= self.adam_beta1 < 1 or not 0 <= self.adam_beta2 < 1:
            raise ValueError("adam betas must lie in [0, 1)")
        if self.adam_epsilon <= 0:
            raise ValueError("adam_epsilon must be > 0")
        if self.early_stop_rel_tol < 0:
            raise ValueError("early_stop_rel_tol must be >= 0")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")
        if self.init_gamma_shape <= 0 or self.init_gamma_rate <= 0:
            raise ValueError("gamma init parameters must be > 0")
        if self.init_signal_variance <= 0 or self.init_noise_variance <= 0:
            raise ValueError("initial variances must be > 0")


@dataclass
class TrainReport:
    leaf_count: int
    epochs_run: int
    initial_total_mll: float
    final_total_mll: float
    final_root_log_evidence: float
    stopped_early: bool
    # leaves whose final fit needed diagonal jitter, and the largest it took
    jittered_leaves: int
    max_jitter: float
    wall_time: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _initial_draw(slot: int, n_dims: int, cfg: TrainConfig) -> KernelHyperparams:
    # spawn_key (1, slot): stream 1 is reserved for training so the
    # structure builder's streams (key 0) never collide with these
    rng = np.random.default_rng(np.random.SeedSequence(cfg.rng_seed, spawn_key=(1, slot)))
    lengthscales = rng.gamma(cfg.init_gamma_shape, 1.0 / cfg.init_gamma_rate, size=n_dims)
    return KernelHyperparams(
        np.log(lengthscales),
        math.log(cfg.init_signal_variance),
        math.log(cfg.init_noise_variance),
    )


def _first_reference_slots(circuit: Circuit) -> dict[int, int]:
    """Leaf id -> the slot of its first reference.

    References are counted parent by parent in id order, children in list
    order (a leaf root counts as the last reference). On a tree every leaf
    has one reference and these are the leaf slots in id order; a shared
    leaf keeps the draw its first copy would have had in the tree.
    """
    refs = [c for node in circuit.nodes for c in getattr(node, "children", ())]
    leaf_refs = [i for i in refs + [circuit.root] if isinstance(circuit.nodes[i], LeafNode)]
    slots: dict[int, int] = {}
    for slot, leaf_id in enumerate(leaf_refs):
        slots.setdefault(leaf_id, slot)
    return slots


def _fit_mll(leaf: GpLeaf) -> float:
    return leaf.fit().cached_mll


def _gradient(leaf: GpLeaf, slot: int) -> np.ndarray:
    grad = leaf.mll_gradient()
    if not np.all(np.isfinite(grad)):
        raise NumericalError(f"non-finite gradient at leaf slot {slot}")
    return grad


def train(
    circuit: Circuit,
    data=None,
    cfg: TrainConfig | None = None,
    threads: int | None = None,
) -> tuple[Circuit, TrainReport]:
    """Fit every leaf, optimise, restore the best snapshot, renormalize.

    ``data`` is accepted for interface symmetry and only sanity-checked:
    the leaves already carry their training subsets. Leaf fits run on one
    worker unless ``threads`` > 1 asks for a thread pool (identical
    numerical results).
    """
    cfg = cfg or TrainConfig()
    cfg.validate()
    if data is not None and getattr(data, "n_dims", circuit.n_dims) != circuit.n_dims:
        raise ValueError("data dimensionality disagrees with the circuit")
    leaf_ids = circuit.leaf_ids()
    leaves = [circuit.nodes[i].leaf for i in leaf_ids]
    n_leaves = len(leaves)
    n_params = circuit.n_dims + 2
    times: dict[str, float] = {}

    t0 = time.perf_counter()
    workers = min(threads or 1, max(n_leaves, 1))
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    leaf_map = pool.map if pool is not None else map

    def fit_all(theta: np.ndarray) -> float:
        for leaf, vec in zip(leaves, theta):
            leaf.hyperparams = KernelHyperparams.from_vector(vec, circuit.n_dims)
        return float(np.sum(np.fromiter(leaf_map(_fit_mll, leaves), float, n_leaves)))

    try:
        slots = _first_reference_slots(circuit)
        theta = np.array(
            [_initial_draw(slots[i], circuit.n_dims, cfg).to_vector() for i in leaf_ids]
        ).reshape(n_leaves, n_params)
        initial_total = fit_all(theta)
        times["init"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        best_total = initial_total
        best_theta = theta
        best_epoch = 0
        adam_m = np.zeros_like(theta)
        adam_v = np.zeros_like(theta)
        prev_total = initial_total
        epochs = 0
        streak = 0
        stopped_early = False
        for epoch in range(cfg.max_epochs):
            step = epoch + 1
            # the gradient of the fit the leaves hold, taken only when a step uses it
            grads = np.array(
                list(leaf_map(_gradient, leaves, range(n_leaves))), dtype=float
            ).reshape(n_leaves, n_params)
            adam_m = cfg.adam_beta1 * adam_m + (1 - cfg.adam_beta1) * grads
            adam_v = cfg.adam_beta2 * adam_v + (1 - cfg.adam_beta2) * grads**2
            m_hat = adam_m / (1 - cfg.adam_beta1**step)
            v_hat = adam_v / (1 - cfg.adam_beta2**step)
            theta = theta + cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_epsilon)
            total = fit_all(theta)
            epochs += 1
            if total > best_total:
                best_total = total
                best_theta = theta
                best_epoch = epochs
            rel_change = abs(total - prev_total) / max(1.0, abs(prev_total))
            streak = streak + 1 if rel_change < cfg.early_stop_rel_tol else 0
            prev_total = total
            if streak >= cfg.early_stop_patience:
                stopped_early = True
                break
        times["optimize"] = time.perf_counter() - t0

        # restore the best snapshot unless the leaves already hold it;
        # refitting reproduces its cached state exactly
        t0 = time.perf_counter()
        if best_epoch != epochs:
            fit_all(best_theta)
        times["refit"] = time.perf_counter() - t0
    finally:
        if pool is not None:
            pool.shutdown()

    t0 = time.perf_counter()
    evidence = compute_evidence(circuit)
    root_log_evidence = renormalize(circuit, evidence)
    times["renormalize"] = time.perf_counter() - t0

    report = TrainReport(
        leaf_count=n_leaves,
        epochs_run=epochs,
        initial_total_mll=initial_total,
        final_total_mll=best_total,
        final_root_log_evidence=root_log_evidence,
        stopped_early=stopped_early,
        jittered_leaves=sum(leaf.jitter > 0.0 for leaf in leaves),
        max_jitter=max((leaf.jitter for leaf in leaves), default=0.0),
        wall_time=times,
    )
    return circuit, report
