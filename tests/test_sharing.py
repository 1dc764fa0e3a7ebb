"""Shared leaves: one GP expert per (region, output), the same model as the tree."""

from collections import Counter

import numpy as np
import pytest

import oracles
from momogp.circuit import StructureConfig, build, count_induced_trees, validate
from momogp.data_pipeline import Dataset, apply_standardization, standardize, synth_multioutput
from momogp.gp_leaf import GpLeaf
from momogp.images import box_downsample, grid_coordinates, image_to_dataset, synthetic_image
from momogp.inference import (
    NLPD_MODES,
    compute_evidence,
    log_predictive_density_batch,
    predict_batch,
)
from momogp.serialize import load_model, save_model
from momogp.training import TrainConfig, _initial_draw, train


def image_problem():
    """24x24 training pixels of the synthetic image; queries on the 48x48 grid."""
    full = synthetic_image(48)
    work, stats = standardize(image_to_dataset(box_downsample(full, 2)))
    query = apply_standardization(
        Dataset(grid_coordinates(48, 48), full.reshape(-1, 3).astype(float)), stats
    )
    return work, query, StructureConfig(k_sum=2, leaf_threshold=100, rng_seed=0)


def deep_problem():
    """Many tiny experts: 100 rows, two covariates, three components per sum."""
    pool = synth_multioutput(400, 2, 1, seed=250)
    work, stats = standardize(Dataset(pool.x[:100], pool.y[:100]))
    query = apply_standardization(Dataset(pool.x[100:], pool.y[100:]), stats)
    return work, query, StructureConfig(k_sum=3, leaf_threshold=8, rng_seed=0)


PROBLEMS = {"image": image_problem, "deep": deep_problem}


def leaf_keys(circuit):
    return [
        (tuple(node.region.lower), tuple(node.region.upper), node.leaf.scope_output)
        for _, node in circuit.leaves()
    ]


@pytest.fixture(scope="module", params=sorted(PROBLEMS))
def trained(request):
    work, query, structure = PROBLEMS[request.param]()
    circuit = build(work, structure)
    circuit, _ = train(circuit, work, TrainConfig(max_epochs=3, rng_seed=0))
    return circuit, work, query


def test_built_circuits_hold_one_leaf_per_region_and_output():
    rng = np.random.default_rng(21)
    circuits = [oracles.random_circuit(rng, max_trees=200) for _ in range(20)]
    for make in PROBLEMS.values():
        work, _, structure = make()
        circuit = build(work, structure)
        # the tree this DAG replaces fits some of these problems twice
        assert len(oracles.unshare(circuit).leaf_ids()) > len(circuit.leaf_ids())
        circuits.append(circuit)
    for circuit in circuits:
        assert validate(circuit) == []
        keys = leaf_keys(circuit)
        assert len(set(keys)) == len(keys)


def test_unshare_gives_a_tree_of_the_same_structure(trained):
    circuit, _, _ = trained
    tree = oracles.unshare(circuit)
    assert validate(tree) == []
    parents = Counter(c for node in tree.nodes for c in getattr(node, "children", ()))
    assert set(parents.values()) == {1}
    assert count_induced_trees(tree) == count_induced_trees(circuit)
    assert set(leaf_keys(tree)) == set(leaf_keys(circuit))


def test_shared_and_unshared_circuits_agree_bitwise(trained):
    circuit, _, query = trained
    tree = oracles.unshare(circuit)
    x, y = query.x, query.y
    z_dag, z_tree = compute_evidence(circuit), compute_evidence(tree)
    assert z_dag[circuit.root] == z_tree[tree.root]
    for include_noise in (True, False):
        for a, b in zip(predict_batch(circuit, x, include_noise), predict_batch(tree, x, include_noise)):
            np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(
        log_predictive_density_batch(circuit, x, y),
        log_predictive_density_batch(tree, x, y),
    )
    np.testing.assert_array_equal(
        log_predictive_density_batch(circuit, x, y, mode="exact_mixture"),
        log_predictive_density_batch(tree, x, y, mode="exact_mixture"),
    )


SERVING = {
    "predict": lambda circuit, x, y: predict_batch(circuit, x),
    "moment_matched": lambda circuit, x, y: log_predictive_density_batch(circuit, x, y),
    "exact_mixture": lambda circuit, x, y: log_predictive_density_batch(
        circuit, x, y, mode="exact_mixture"
    ),
}


@pytest.mark.parametrize("n_rows", [None, 8])
@pytest.mark.parametrize("serve", sorted(SERVING))
def test_each_pass_queries_every_reached_leaf_once(trained, monkeypatch, serve, n_rows):
    circuit, _, query = trained
    x, y = query.x, query.y
    if n_rows is not None:
        pick = np.random.default_rng(0).choice(query.n_rows, n_rows, replace=False)
        x, y = x[pick], y[pick]
    seen = {}
    posterior_batch = GpLeaf.posterior_batch

    def recording_posterior_batch(leaf, xq, include_noise=False):
        seen.setdefault(id(leaf), []).append(xq)
        return posterior_batch(leaf, xq, include_noise)

    monkeypatch.setattr(GpLeaf, "posterior_batch", recording_posterior_batch)
    SERVING[serve](circuit, x, y)
    # exactly the leaves whose region holds a query row, each once, with
    # the rows inside its region in query order
    reached = {}
    for _, node in circuit.leaves():
        inside = oracles.in_region(node.region, x)
        if inside.any():
            reached[id(node.leaf)] = x[inside]
    assert seen.keys() == reached.keys()
    for key, calls in seen.items():
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], reached[key])


def test_empty_query_batch_gives_empty_results(trained):
    circuit, _, query = trained
    p = circuit.n_outputs
    x, y = query.x[:0], query.y[:0]
    means, covs = predict_batch(circuit, x)
    assert means.shape == (0, p) and covs.shape == (0, p, p)
    for mode in NLPD_MODES:
        assert SERVING[mode](circuit, x, y).shape == (0,)


def test_tree_shaped_model_file_loads_and_predicts_bitwise(trained, tmp_path):
    circuit, work, query = trained
    path = tmp_path / "tree.json"
    save_model(path, oracles.unshare(circuit), None, work.x, work.y)
    loaded = load_model(path).circuit
    assert len(loaded.leaf_ids()) > len(circuit.leaf_ids())
    for a, b in zip(predict_batch(loaded, query.x), predict_batch(circuit, query.x)):
        np.testing.assert_array_equal(a, b)


def test_saved_file_gives_every_node_the_builders_region(trained, tmp_path):
    circuit, work, _ = trained
    path = tmp_path / "model.json"
    save_model(path, circuit, None, work.x, work.y)
    loaded = load_model(path).circuit
    assert len(loaded.nodes) == len(circuit.nodes)
    for a, b in zip(circuit.nodes, loaded.nodes):
        np.testing.assert_array_equal(a.region.lower, b.region.lower)
        np.testing.assert_array_equal(a.region.upper, b.region.upper)


def test_shared_leaf_starts_from_its_first_copys_draw():
    work, _, structure = image_problem()
    cfg = TrainConfig(max_epochs=0, rng_seed=4)
    circuit, _ = train(build(work, structure), work, cfg)
    tree = oracles.unshare(build(work, structure))
    draws = [_initial_draw(slot, tree.n_dims, cfg) for slot in range(len(tree.leaf_ids()))]
    first = {}
    for key, hyper in zip(leaf_keys(tree), draws):
        first.setdefault(key, hyper)
    for key, (_, node) in zip(leaf_keys(circuit), circuit.leaves()):
        np.testing.assert_array_equal(node.leaf.hyperparams.to_vector(), first[key].to_vector())


def test_train_fits_each_shared_leaf_once_per_epoch(monkeypatch):
    work, _, structure = image_problem()
    circuit = build(work, structure)
    calls = Counter()
    fit = GpLeaf.fit

    def counting_fit(leaf, *args, **kwargs):
        calls[id(leaf)] += 1
        return fit(leaf, *args, **kwargs)

    monkeypatch.setattr(GpLeaf, "fit", counting_fit)
    # no early stop, and the last epoch is the best, so nothing is refitted
    cfg = TrainConfig(max_epochs=3, rng_seed=0)
    _, report = train(circuit, work, cfg)
    leaves = [node.leaf for _, node in circuit.leaves()]
    assert report.leaf_count == len(leaves)
    assert calls == Counter({id(leaf): report.epochs_run + 1 for leaf in leaves})

