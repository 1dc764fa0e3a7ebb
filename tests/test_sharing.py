"""Shared leaves: one GP expert per (region, output), the same model as the tree."""

from collections import Counter

import numpy as np
import pytest

import oracles
from momogp.circuit import StructureConfig, build, count_induced_trees, validate
from momogp.data_pipeline import Dataset, apply_standardization, standardize, synth_multioutput
from momogp.gp_leaf import GpLeaf
from momogp.images import box_downsample, grid_coordinates, image_to_dataset, synthetic_image
from momogp.inference import compute_evidence, log_predictive_density_batch, predict_batch
from momogp.serialize import dumps_canonical, load_model, model_to_dict, save_model
from momogp.training import TrainConfig, init_hyperparams, train


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
    circuit, _ = train(circuit, work, TrainConfig(max_epochs=3, rng_seed=0), threads=1)
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
    cap = count_induced_trees(circuit)
    np.testing.assert_array_equal(
        log_predictive_density_batch(circuit, x, y, mode="exact_mixture", tree_cap=cap),
        log_predictive_density_batch(tree, x, y, mode="exact_mixture", tree_cap=cap),
    )


def test_tree_shaped_model_file_loads_and_predicts_bitwise(trained, tmp_path):
    circuit, work, query = trained
    path = tmp_path / "tree.json"
    save_model(path, oracles.unshare(circuit), None, work.x, work.y)
    loaded = load_model(path).circuit
    assert len(loaded.leaf_ids()) > len(circuit.leaf_ids())
    for a, b in zip(predict_batch(loaded, query.x), predict_batch(circuit, query.x)):
        np.testing.assert_array_equal(a, b)


def test_shared_leaf_starts_from_its_first_copys_draw():
    work, _, structure = image_problem()
    cfg = TrainConfig(max_epochs=0, rng_seed=4)
    circuit, _ = train(build(work, structure), work, cfg, threads=1)
    tree = oracles.unshare(build(work, structure))
    draws = init_hyperparams(len(tree.leaf_ids()), tree.n_dims, cfg)
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

    def counting_fit(leaf):
        calls[id(leaf)] += 1
        return fit(leaf)

    monkeypatch.setattr(GpLeaf, "fit", counting_fit)
    # no early stop, and the last epoch is the best, so nothing is refitted
    cfg = TrainConfig(max_epochs=3, early_stop_patience=100, rng_seed=0)
    _, report = train(circuit, work, cfg, threads=1)
    leaves = [node.leaf for _, node in circuit.leaves()]
    assert report.leaf_count == len(leaves)
    assert calls == Counter({id(leaf): report.epochs_run + 1 for leaf in leaves})


def test_thread_count_gives_identical_files_on_shared_circuit():
    work, _, structure = image_problem()
    texts = []
    for threads in (1, 4):
        circuit = build(work, structure)
        circuit, _ = train(circuit, work, TrainConfig(max_epochs=3, rng_seed=0), threads=threads)
        texts.append(dumps_canonical(model_to_dict(circuit, None, work.x, work.y)))
    assert texts[0] == texts[1]
