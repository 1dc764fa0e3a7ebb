"""Structure construction and invariant checks."""

import numpy as np
import pytest

import oracles
from momogp.circuit import (
    LeafNode,
    ProductXNode,
    ProductYNode,
    Region,
    StructureConfig,
    SumNode,
    build,
    count_induced_trees,
    validate,
)
from momogp.data_pipeline import Dataset
from momogp.errors import CapacityError
from momogp.inference import log_predictive_density_batch


def make_data(seed, n=120, d=3, p=2):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = np.sin(x @ rng.normal(size=(d, p))) + 0.1 * rng.normal(size=(n, p))
    return Dataset(x, y)


# -------------------------------------------------------------------- region


def test_region_half_open_edges():
    r = Region([0.0], [1.0])
    inside = r.contains_rows(np.array([[-0.1], [0.0], [0.5], [1.0]]))
    assert inside.tolist() == [False, True, True, False]


def test_region_unbounded_covers_everything():
    r = Region.unbounded(2)
    assert r.contains_rows(np.array([[1e30, -1e30]])).tolist() == [True]
    sub = r.with_interval(1, -1.0, 2.0)
    assert sub.contains_rows(np.array([[5.0, 1.9], [5.0, 2.0]])).tolist() == [True, False]


def test_region_validation():
    with pytest.raises(ValueError):
        Region([0.0], [0.0])
    with pytest.raises(ValueError):
        Region([np.nan], [1.0])
    with pytest.raises(ValueError):
        Region([0.0, 0.0], [1.0])


# -------------------------------------------------------------------- config


def test_config_validation():
    StructureConfig().validate()
    for field in ("k_sum", "k_prod_x", "k_prod_y", "leaf_threshold"):
        bad = StructureConfig(**{field: 0})
        with pytest.raises(ValueError):
            bad.validate()
    with pytest.raises(ValueError):
        StructureConfig(k_sum=True).validate()


# ------------------------------------------------------------------- builds


def test_random_builds_satisfy_invariants():
    rng = np.random.default_rng(10)
    for _ in range(30):
        circuit = oracles.random_circuit(rng, max_trees=200)
        assert validate(circuit) == []


def test_default_build_shape():
    data = make_data(0)
    circuit = build(data, StructureConfig(leaf_threshold=20, rng_seed=1))
    assert validate(circuit) == []
    info = circuit.describe()
    assert info["sum"] > 0 and info["product_y"] > 0 and info["leaf"] > 0
    root = circuit.nodes[circuit.root]
    assert isinstance(root, SumNode)
    assert root.scope == frozenset(range(data.n_outputs))
    assert np.array_equal(root.region.lower, np.full(data.n_dims, -np.inf))
    assert np.array_equal(root.region.upper, np.full(data.n_dims, np.inf))


def test_leaves_respect_threshold_on_continuous_data():
    data = make_data(1, n=200)
    circuit = build(data, StructureConfig(leaf_threshold=25, rng_seed=2))
    for _, node in circuit.leaves():
        assert node.leaf.n_train <= 25
        # leaf rows are exactly the training rows inside its region
        assert np.all(node.region.contains_rows(node.leaf.train_x))


def test_leaf_rows_partition_under_each_product_x():
    data = make_data(2, n=150)
    circuit = build(data, StructureConfig(leaf_threshold=30, rng_seed=3))
    for node in circuit.nodes:
        if isinstance(node, ProductXNode):
            sizes = [circuit.nodes[c].n_rows for c in node.children]
            assert sum(sizes) == node.n_rows
            assert all(s > 0 for s in sizes)


def test_same_seed_same_structure():
    data = make_data(3)
    cfg = StructureConfig(leaf_threshold=18, rng_seed=7)
    a = build(data, cfg)
    b = build(data, cfg)
    assert len(a) == len(b)
    for na, nb in zip(a.nodes, b.nodes):
        assert type(na) is type(nb)
        assert na.scope == nb.scope
        assert np.array_equal(na.region.lower, nb.region.lower)
        assert np.array_equal(na.region.upper, nb.region.upper)
        if isinstance(na, LeafNode):
            assert np.array_equal(na.leaf.row_idx, nb.leaf.row_idx)


def test_different_seed_changes_output_partition():
    data = make_data(4, p=4)
    cfg_a = StructureConfig(k_prod_y=2, leaf_threshold=18, rng_seed=0)
    cfg_b = StructureConfig(k_prod_y=2, leaf_threshold=18, rng_seed=99)
    a = build(data, cfg_a)
    b = build(data, cfg_b)

    def first_partition(circuit):
        for node in circuit.nodes:
            if isinstance(node, ProductYNode) and len(node.children) > 1:
                return sorted(
                    tuple(sorted(circuit.nodes[c].scope)) for c in node.children
                )
        return None

    # seeds drive the random scope split; these two seeds disagree
    assert first_partition(a) != first_partition(b)


def test_k_prod_x_one_disables_covariate_splits():
    for data, k_sum in ((make_data(5, n=80, p=1), 2), (make_data(6, n=70), 3)):
        cfg = StructureConfig(k_sum=k_sum, k_prod_x=1, leaf_threshold=10, rng_seed=0)
        circuit = build(data, cfg)
        assert validate(circuit) == []
        assert all(not isinstance(n, ProductXNode) for n in circuit.nodes)
        # no covariate split: every leaf keeps all rows
        for _, node in circuit.leaves():
            assert node.leaf.n_train == data.n_rows


def test_degenerate_duplicate_covariates_terminate():
    # identical covariate rows: quantile thresholds all tie, no covariate
    # split is usable; the builder must still terminate for every k_prod_y
    x = np.ones((40, 2))
    y = np.random.default_rng(0).normal(size=(40, 3))
    for k_prod_y in (1, 2):
        cfg = StructureConfig(k_prod_y=k_prod_y, leaf_threshold=8, rng_seed=0)
        circuit = build(Dataset(x, y), cfg)
        assert validate(circuit) == []
        # leaves may exceed the threshold here since no split can shrink them
        assert all(node.leaf.n_train == 40 for _, node in circuit.leaves())


def test_build_rejects_bad_data():
    with pytest.raises(ValueError):
        build(Dataset(np.zeros((0, 1)), np.zeros((0, 1))), StructureConfig())
    with pytest.raises(ValueError):
        build(Dataset([[np.inf]], [[0.0]]), StructureConfig())
    with pytest.raises(ValueError):
        build(Dataset(np.zeros((4, 1)), np.zeros((4, 0))), StructureConfig())


# ------------------------------------------------------------- tree counting


def test_tree_count_matches_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(10):
        circuit = oracles.random_circuit(rng, max_trees=120)
        trees = oracles.enumerate_trees(circuit)
        count = count_induced_trees(circuit)
        assert isinstance(count, int)
        assert count == len(trees)


def test_enumeration_cap_enforced():
    circuit = oracles.random_circuit(np.random.default_rng(12), max_trees=120)
    count = count_induced_trees(circuit)
    if count < 2:
        pytest.skip("degenerate draw with a single induced tree")
    xq = np.zeros((1, circuit.n_dims))
    yq = np.zeros((1, circuit.n_outputs))
    # the exact mixture density sums over every induced tree; the cap is inclusive
    log_predictive_density_batch(circuit, xq, yq, mode="exact_mixture", tree_cap=count)
    with pytest.raises(CapacityError):
        log_predictive_density_batch(
            circuit, xq, yq, mode="exact_mixture", tree_cap=count - 1
        )


def test_induced_tree_priors_sum_to_one():
    rng = np.random.default_rng(13)
    circuit = oracles.random_circuit(rng, max_trees=120)
    trees = oracles.enumerate_trees(circuit)
    total = np.logaddexp.reduce([log_prior for log_prior, _ in trees])
    assert total == pytest.approx(0.0, abs=1e-10)


# ----------------------------------------------------------------- validate


def test_validate_flags_unnormalized_weights():
    circuit = build(make_data(8, n=60), StructureConfig(leaf_threshold=15, rng_seed=0))
    node = circuit.nodes[circuit.root]
    node.log_weights = node.log_weights + 0.5
    problems = validate(circuit)
    assert any("weights" in p for p in problems)


def test_validate_flags_region_mismatch():
    circuit = build(make_data(9, n=60), StructureConfig(leaf_threshold=15, rng_seed=0))
    for node in circuit.nodes:
        if isinstance(node, ProductXNode):
            node.child_regions[0] = node.child_regions[0].with_interval(
                node.split_dim,
                float(node.child_regions[0].lower[node.split_dim]),
                float(node.child_regions[0].upper[node.split_dim]) - 0.25,
            )
            break
    assert validate(circuit) != []


def test_validate_flags_bad_root():
    circuit = build(make_data(10, n=60), StructureConfig(leaf_threshold=15, rng_seed=0))
    circuit.root = len(circuit.nodes) + 5
    assert validate(circuit) != []


def test_validate_flags_broken_links():
    def fresh():
        return build(make_data(11, n=60), StructureConfig(leaf_threshold=15, rng_seed=0))

    circuit = fresh()
    inner = next(n for n in circuit.nodes if not isinstance(n, LeafNode))
    inner.children[0] = len(circuit.nodes) + 3  # beyond the node array
    assert any("child ids" in p for p in validate(circuit))

    circuit = fresh()
    root = circuit.nodes[circuit.root]
    dropped = root.children[1]
    root.children[1] = root.children[0]
    problems = validate(circuit)
    assert f"node {circuit.root}: lists child {root.children[0]} twice" in problems
    assert f"node {dropped}: no parent, so unreachable from the root" in problems

    circuit = fresh()
    circuit.nodes.append(circuit.nodes[0])  # a node nothing points to
    assert any("unreachable" in p for p in validate(circuit))


def test_validate_flags_wrong_output_count_and_width():
    circuit = build(make_data(12, n=60), StructureConfig(leaf_threshold=15, rng_seed=0))
    circuit.n_outputs += 1  # the root no longer covers every output
    assert any("root scope" in p for p in validate(circuit))
    circuit.n_outputs -= 1
    circuit.n_dims += 1
    assert any("region has" in p for p in validate(circuit))
