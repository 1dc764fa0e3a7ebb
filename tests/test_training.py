"""Per-leaf Adam ascent and initialisation tests."""

import numpy as np
import pytest

from momogp.circuit import StructureConfig, SumNode, build
from momogp.data_pipeline import Dataset
from momogp.training import TrainConfig, _initial_draw, train


def small_circuit(seed=0, n=60, d=2, p=2, threshold=10):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = np.sin(x @ rng.normal(size=(d, p))) + 0.1 * rng.normal(size=(n, p))
    return build(Dataset(x, y), StructureConfig(leaf_threshold=threshold, rng_seed=seed))


# ------------------------------------------------------------ initialisation


def initial_draws(count, n_dims, cfg):
    """The initial kernel parameters of leaf slots 0..count-1."""
    return [_initial_draw(slot, n_dims, cfg) for slot in range(count)]


def test_init_deterministic_per_slot():
    cfg = TrainConfig(rng_seed=5)
    a = initial_draws(6, 3, cfg)
    b = initial_draws(6, 3, cfg)
    for ha, hb in zip(a, b):
        assert np.array_equal(ha.log_lengthscales, hb.log_lengthscales)
    # slot streams are independent of the total count
    c = initial_draws(2, 3, cfg)
    assert np.array_equal(a[1].log_lengthscales, c[1].log_lengthscales)
    # distinct slots draw distinct lengthscales
    assert not np.array_equal(a[0].log_lengthscales, a[1].log_lengthscales)


def test_init_gamma_statistics():
    cfg = TrainConfig(init_gamma_rate=3.0, rng_seed=0)
    draws = np.concatenate(
        [h.lengthscales for h in initial_draws(4000, 1, cfg)]
    )
    assert np.all(draws > 0)
    # shape/rate parameterization: mean 2/3, variance 2/9
    assert draws.mean() == pytest.approx(2.0 / 3.0, abs=0.02)
    assert draws.var() == pytest.approx(2.0 / 9.0, abs=0.03)


def test_init_fixed_variances():
    cfg = TrainConfig(init_noise_variance=0.1)
    hyper = initial_draws(3, 2, cfg)[0]
    assert hyper.signal_variance == pytest.approx(1.0)
    assert hyper.noise_variance == pytest.approx(0.1)


def test_config_validation():
    TrainConfig().validate()
    bad = dict(
        learning_rate=0.0,
        max_epochs=-1,
        init_gamma_rate=0.0,
        init_noise_variance=0.0,
    )
    for key, value in bad.items():
        with pytest.raises(ValueError):
            TrainConfig(**{key: value}).validate()


# ----------------------------------------------------------------- training


def test_training_improves_total_mll():
    circuit = small_circuit()
    circuit, report = train(circuit, cfg=TrainConfig(max_epochs=30, rng_seed=0))
    assert report.final_total_mll >= report.initial_total_mll
    assert report.leaf_count == len(circuit.leaf_ids())
    assert np.isfinite(report.final_root_log_evidence)
    # best snapshot was refitted: cached likelihoods reproduce the total
    total = sum(circuit.nodes[i].leaf.cached_mll for i in circuit.leaf_ids())
    assert total == pytest.approx(report.final_total_mll, rel=1e-12)


def test_threads_keyword_accepts_only_the_calling_thread():
    cfg = TrainConfig(max_epochs=12, rng_seed=3)
    a, rep_a = train(small_circuit(1), cfg=cfg)
    b, rep_b = train(small_circuit(1), cfg=cfg, threads=1)
    rep_a.wall_time = rep_b.wall_time = {}
    assert rep_a == rep_b
    for ia, ib in zip(a.leaf_ids(), b.leaf_ids()):
        va = a.nodes[ia].leaf.hyperparams.to_vector()
        vb = b.nodes[ib].leaf.hyperparams.to_vector()
        assert np.array_equal(va, vb)
    for na, nb in zip(a.nodes, b.nodes):
        if isinstance(na, SumNode):
            assert np.array_equal(na.log_weights, nb.log_weights)
    with pytest.raises(ValueError, match="calling thread"):
        train(small_circuit(1), cfg=cfg, threads=2)


def test_max_epochs_zero_keeps_initial_draws():
    circuit = small_circuit(2)
    cfg = TrainConfig(max_epochs=0, rng_seed=7)
    circuit, report = train(circuit, cfg=cfg)
    assert report.epochs_run == 0
    assert not report.stopped_early
    assert report.final_total_mll == report.initial_total_mll
    inits = initial_draws(report.leaf_count, circuit.n_dims, cfg)
    for lid, hyper in zip(circuit.leaf_ids(), inits):
        assert np.array_equal(
            circuit.nodes[lid].leaf.hyperparams.to_vector(), hyper.to_vector()
        )
    # weights are still renormalized to posterior values
    for node in circuit.nodes:
        if isinstance(node, SumNode):
            assert abs(np.logaddexp.reduce(node.log_weights)) < 1e-12


def test_early_stopping_by_patience():
    # steps this small leave every relative change below the tolerance, so
    # training stops after the fixed patience of 10 epochs
    circuit = small_circuit(3, n=40, threshold=8)
    cfg = TrainConfig(max_epochs=50, learning_rate=1e-12, rng_seed=0)
    _, report = train(circuit, cfg=cfg)
    assert report.stopped_early
    assert report.epochs_run == 10


def test_train_rejects_mismatched_data():
    circuit = small_circuit(4)
    wrong = Dataset(np.zeros((5, circuit.n_dims + 1)), np.zeros((5, 2)))
    with pytest.raises(ValueError):
        train(circuit, data=wrong)


def test_report_to_dict_keys():
    circuit = small_circuit(5, n=30, threshold=8)
    _, report = train(circuit, cfg=TrainConfig(max_epochs=2, rng_seed=0))
    d = report.to_dict()
    for key in (
        "leaf_count",
        "epochs_run",
        "initial_total_mll",
        "final_total_mll",
        "final_root_log_evidence",
        "stopped_early",
        "jittered_leaves",
        "max_jitter",
        "wall_time",
    ):
        assert key in d
    assert (d["jittered_leaves"], d["max_jitter"]) == (0, 0.0)

    # duplicated covariates with near-zero noise: every final fit needs jitter
    x = np.repeat(np.arange(6.0)[:, None], 5, axis=0)
    y = np.column_stack([np.sin(x[:, 0]), np.cos(x[:, 0])])
    circuit = build(Dataset(x, y), StructureConfig(leaf_threshold=10, rng_seed=0))
    cfg = TrainConfig(max_epochs=0, init_noise_variance=1e-26, rng_seed=0)
    _, report = train(circuit, cfg=cfg)
    jitters = [node.leaf.jitter for _, node in circuit.leaves()]
    assert report.jittered_leaves == len(jitters) == report.leaf_count
    assert report.max_jitter == max(jitters) > 0.0
