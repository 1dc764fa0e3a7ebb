"""Hyperparameter optimisation.

Every leaf maximises its own marginal log likelihood independently by
Adam ascent on the log-space kernel parameters, with Adam's published
defaults. Training stops early after 10 epochs in a row whose relative
change in the total over all leaves is below 1e-5; the best-scoring
parameter snapshot is restored at the end, so the final total never
falls below the initial one. Once the leaves are fitted, the mixture
weights are renormalized to their posterior values.

Initial lengthscales are Gamma(2, ``init_gamma_rate``) draws from a
per-leaf seeded stream, so results do not depend on leaf processing
order; the signal variance starts at 1 and the noise variance at
``init_noise_variance``. A leaf shared by several parents is one GP
problem: it is fitted once per epoch and draws from the stream of its
first reference. Leaves are fitted one after another in the calling
thread: scipy's Cholesky and inverse hold the GIL, so threads over
leaves run no faster than one worker with single-threaded BLAS.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .circuit import Circuit, LeafNode, _check_fields
from .errors import NumericalError
from .gp_leaf import KernelHyperparams
from .inference import renormalize


_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPSILON = 0.9, 0.999, 1e-8  # Kingma and Ba (2015)
_STOP_PATIENCE, _STOP_REL_TOL = 10, 1e-5
_INIT_GAMMA_SHAPE = 2.0  # lengthscales ~ Gamma(shape, init_gamma_rate): scale 1 / rate


@dataclass
class TrainConfig:
    learning_rate: float = field(default=0.05, metadata={"gt": 0})
    max_epochs: int = field(default=200, metadata={"ge": 0})
    init_gamma_rate: float = field(default=3.0, metadata={"gt": 0})
    init_noise_variance: float = field(default=0.1, metadata={"gt": 0})
    rng_seed: int = field(default=0, metadata={"ge": 0})

    def validate(self):
        _check_fields(self)


@dataclass
class TrainReport:
    leaf_count: int
    epochs_run: int
    initial_total_mll: float
    final_total_mll: float
    final_root_log_evidence: float
    stopped_early: bool
    # the total MLL over all leaves after each epoch run, in order
    epoch_total_mll: list[float]
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
    lengthscales = rng.gamma(_INIT_GAMMA_SHAPE, 1.0 / cfg.init_gamma_rate, size=n_dims)
    # log signal variance 0: every leaf starts at signal variance 1
    return KernelHyperparams(np.log(lengthscales), 0.0, math.log(cfg.init_noise_variance))


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


def train(
    circuit: Circuit,
    data=None,
    cfg: TrainConfig | None = None,
    threads: int | None = None,
) -> tuple[Circuit, TrainReport]:
    """Fit every leaf, optimise, restore the best snapshot, renormalize.

    ``data`` is accepted for interface symmetry and only sanity-checked:
    the leaves already carry their training subsets.

    Each step's gradients are read through ``GpLeaf.mll_gradient``, and the
    fit before the step computes them from the kernel it builds
    (``fit(gradient=True)``): the initial fit when ``max_epochs > 0`` and
    every epoch's fit but the last. A run that stops early has therefore
    computed one epoch of gradients that no step uses; at a fixed
    ``max_epochs`` none is wasted. The best-snapshot refit is a plain fit.
    ``report.epoch_total_mll`` holds the total MLL after each epoch run.

    ``threads`` is a compatibility keyword: ``None`` and ``1`` are accepted,
    anything else is refused because leaf fits run in the calling thread.
    It goes once the benchmark harness stops passing it.
    """
    if threads not in (None, 1):
        raise ValueError(f"threads={threads!r}: leaf fits run in the calling thread")
    cfg = cfg or TrainConfig()
    cfg.validate()
    if data is not None and getattr(data, "n_dims", circuit.n_dims) != circuit.n_dims:
        raise ValueError("data dimensionality disagrees with the circuit")
    leaf_ids = circuit.leaf_ids()
    leaves = [circuit.nodes[i].leaf for i in leaf_ids]
    n_leaves = len(leaves)
    n_params = circuit.n_dims + 2
    times: dict[str, float] = {}

    def fit_all(theta: np.ndarray, gradient: bool = False) -> float:
        for leaf, vec in zip(leaves, theta):
            leaf.hyperparams = KernelHyperparams.from_vector(vec, circuit.n_dims)
        mlls = (leaf.fit(gradient=gradient).cached_mll for leaf in leaves)
        return float(np.sum(np.fromiter(mlls, float, n_leaves)))

    t0 = time.perf_counter()
    slots = _first_reference_slots(circuit)
    theta = np.array(
        [_initial_draw(slots[i], circuit.n_dims, cfg).to_vector() for i in leaf_ids]
    ).reshape(n_leaves, n_params)
    initial_total = fit_all(theta, gradient=cfg.max_epochs > 0)
    times["init"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    best_total = initial_total
    best_theta = theta
    best_epoch = 0
    adam_m = np.zeros_like(theta)
    adam_v = np.zeros_like(theta)
    prev_total = initial_total
    epoch_totals: list[float] = []
    epochs = 0
    streak = 0
    stopped_early = False
    for epoch in range(cfg.max_epochs):
        step = epoch + 1
        # the gradient each leaf's last fit computed for this step
        grads = np.array([leaf.mll_gradient() for leaf in leaves], dtype=float)
        grads = grads.reshape(n_leaves, n_params)
        bad = np.flatnonzero(~np.isfinite(grads).all(axis=1))
        if bad.size:
            raise NumericalError(f"non-finite gradient at leaf slot {bad[0]}")
        adam_m = _ADAM_BETA1 * adam_m + (1 - _ADAM_BETA1) * grads
        adam_v = _ADAM_BETA2 * adam_v + (1 - _ADAM_BETA2) * grads**2
        m_hat = adam_m / (1 - _ADAM_BETA1**step)
        v_hat = adam_v / (1 - _ADAM_BETA2**step)
        theta = theta + cfg.learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPSILON)
        total = fit_all(theta, gradient=step < cfg.max_epochs)
        epoch_totals.append(total)
        epochs += 1
        if total > best_total:
            best_total = total
            best_theta = theta
            best_epoch = epochs
        rel_change = abs(total - prev_total) / max(1.0, abs(prev_total))
        streak = streak + 1 if rel_change < _STOP_REL_TOL else 0
        prev_total = total
        if streak >= _STOP_PATIENCE:
            stopped_early = True
            break
    times["optimize"] = time.perf_counter() - t0

    # restore the best snapshot unless the leaves already hold it;
    # refitting reproduces its cached state exactly
    t0 = time.perf_counter()
    if best_epoch != epochs:
        fit_all(best_theta)
    times["refit"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    root_log_evidence = renormalize(circuit)
    times["renormalize"] = time.perf_counter() - t0

    report = TrainReport(
        leaf_count=n_leaves,
        epochs_run=epochs,
        initial_total_mll=initial_total,
        final_total_mll=best_total,
        final_root_log_evidence=root_log_evidence,
        stopped_early=stopped_early,
        epoch_total_mll=epoch_totals,
        jittered_leaves=sum(leaf.jitter > 0.0 for leaf in leaves),
        max_jitter=max((leaf.jitter for leaf in leaves), default=0.0),
        wall_time=times,
    )
    return circuit, report
