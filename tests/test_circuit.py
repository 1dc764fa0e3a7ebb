"""Structure construction and invariant checks."""

import numpy as np
import pytest

import oracles
from momogp.circuit import (
    Circuit,
    LeafNode,
    ProductXNode,
    ProductYNode,
    Region,
    StructureConfig,
    SumNode,
    _rows_inside,
    build,
    count_induced_trees,
    validate,
)
from momogp.data_pipeline import Dataset
from momogp.errors import CapacityError
from momogp.gp_leaf import GpLeaf, KernelHyperparams
from momogp.inference import log_predictive_density_batch


def make_data(seed, n=120, d=3, p=2):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = np.sin(x @ rng.normal(size=(d, p))) + 0.1 * rng.normal(size=(n, p))
    return Dataset(x, y)


# -------------------------------------------------------------------- region


def test_region_half_open_edges():
    r = Region([0.0], [1.0])
    (inside,) = _rows_inside([r], np.array([[-0.1], [0.0], [0.5], [1.0]]))
    assert inside.tolist() == [1, 2]


def test_region_unbounded_covers_everything():
    r = Region.unbounded(2)
    assert _rows_inside([r], np.array([[1e30, -1e30]]))[0].tolist() == [0]
    sub = r.cut(1, [-1.0, 2.0])[1]
    x = np.array([[5.0, 1.9], [5.0, 2.0]])
    # equal regions share one answer; each region gets its own rows
    assert [rows.tolist() for rows in _rows_inside([sub, r, sub], x)] == [[0], [0, 1], [0]]


def test_regions_are_values():
    a = Region(np.array([0.0, -np.inf]), [1.0, np.inf])
    b = Region((0, -np.inf), (1, np.inf))
    assert a == b and hash(a) == hash(b)
    assert a.lower == (0.0, -np.inf) and type(a.lower[0]) is float
    assert Region.unbounded(2).cut(0, [0.0, 1.0])[1] == a
    with pytest.raises(AttributeError):
        a.lower = (1.0, 0.0)


def test_cutting_order_does_not_change_cells():
    # the premise of leaf sharing: a cell is the same value however it was reached
    root = Region.unbounded(3)
    for first, second in ((0, 1), (2, 0), (1, 2)):
        a_then_b = {
            cell
            for part in root.cut(first, [-1.0, 0.5])
            for cell in part.cut(second, [0.0, 2.0])
        }
        b_then_a = {
            cell
            for part in root.cut(second, [0.0, 2.0])
            for cell in part.cut(first, [-1.0, 0.5])
        }
        assert len(a_then_b) == 9 and a_then_b == b_then_a


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
    assert oracles.node_scopes(circuit)[circuit.root] == set(range(data.n_outputs))
    assert np.array_equal(root.region.lower, np.full(data.n_dims, -np.inf))
    assert np.array_equal(root.region.upper, np.full(data.n_dims, np.inf))


def test_leaves_respect_threshold_on_continuous_data():
    data = make_data(1, n=200)
    circuit = build(data, StructureConfig(leaf_threshold=25, rng_seed=2))
    for _, node in circuit.leaves():
        assert node.leaf.n_train <= 25
        # leaf rows are exactly the training rows inside its region
        assert np.all(oracles.in_region(node.region, node.leaf.train_x))


def test_leaf_rows_partition_under_each_product_x():
    data = make_data(2, n=150)
    circuit = build(data, StructureConfig(leaf_threshold=30, rng_seed=3))
    # a node's rows: the training rows of the leaves below it
    rows = []
    for node in circuit.nodes:
        if isinstance(node, LeafNode):
            rows.append(set(node.leaf.row_idx.tolist()))
        else:
            rows.append(set().union(*(rows[c] for c in node.children)))
    splits = [i for i, node in enumerate(circuit.nodes) if isinstance(node, ProductXNode)]
    assert splits
    for i in splits:
        node = circuit.nodes[i]
        assert rows[i] == set(np.flatnonzero(oracles.in_region(node.region, data.x)).tolist())
        sizes = [len(rows[c]) for c in node.children]
        assert sum(sizes) == len(rows[i])
        assert all(s > 0 for s in sizes)


def test_same_seed_same_structure():
    data = make_data(3)
    cfg = StructureConfig(leaf_threshold=18, rng_seed=7)
    a = build(data, cfg)
    b = build(data, cfg)
    assert len(a) == len(b)
    assert oracles.node_scopes(a) == oracles.node_scopes(b)
    for na, nb in zip(a.nodes, b.nodes):
        assert type(na) is type(nb)
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
        scopes = oracles.node_scopes(circuit)
        for node in circuit.nodes:
            if isinstance(node, ProductYNode) and len(node.children) > 1:
                return sorted(tuple(sorted(scopes[c])) for c in node.children)
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


@pytest.mark.parametrize("k_prod_x", [2, 3, 4])
def test_builds_on_tied_covariates_cut_populated_cells(k_prod_x):
    # integer-valued covariates tie heavily, so quantiles often fall on a
    # cell's lower bound or on each other
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(20, 90)), int(rng.integers(1, 4))
        x = rng.integers(0, 4, size=(n, d)).astype(float)
        y = rng.normal(size=(n, 2))
        cfg = StructureConfig(k_sum=2, k_prod_x=k_prod_x, leaf_threshold=6, rng_seed=seed)
        circuit = build(Dataset(x, y), cfg)
        assert validate(circuit) == []
        assert all(node.leaf.n_train >= 1 for _, node in circuit.leaves())
        for node in circuit.nodes:
            if isinstance(node, ProductXNode):
                lo, hi = node.region.lower[node.split_dim], node.region.upper[node.split_dim]
                assert all(lo < e < hi for e in node.edges)


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
    # moving an edge onto the last value below it still cuts sound boxes, but
    # that row now lies in the right cell while its leaves sit in the left one
    data = make_data(9, n=60)
    circuit = build(data, StructureConfig(leaf_threshold=15, rng_seed=0))
    split = circuit.nodes[circuit.nodes[circuit.root].children[0]]
    assert isinstance(split, ProductXNode)
    column = data.x[:, split.split_dim]
    split.edges[0] = column[column < split.edges[0]].max()
    assert any("leaf rows fall outside its region" in p for p in validate(circuit))


@pytest.mark.parametrize(
    "edges, message",
    [
        ("reversed", "edges do not strictly increase"),
        ("repeated", "edges do not strictly increase"),
        ("outside", "edges leave the region's interval"),
        ("nan", "non-finite edge"),
        ("extra", "edges for"),
        ("none", "edges for"),
    ],
)
def test_validate_flags_bad_edges(edges, message):
    # one covariate, so the nested splits cut bounded intervals
    data = make_data(9, n=90, d=1)
    circuit = build(data, StructureConfig(leaf_threshold=15, k_prod_x=3, rng_seed=0))
    split = next(
        n for n in circuit.nodes
        if isinstance(n, ProductXNode) and len(n.children) == 3
        and np.isfinite(n.region.lower[n.split_dim])
    )
    e = split.edges
    split.edges = {
        "reversed": e[::-1],
        "repeated": np.array([e[0], e[0]]),
        "outside": np.array([split.region.lower[split.split_dim] - 1.0, e[1]]),
        "nan": np.array([e[0], np.nan]),
        "extra": np.append(e, e[-1] + 1.0),
        "none": e[:0],
    }[edges]
    assert any(message in p for p in validate(circuit))


def point_leaf(x, output=0):
    """A leaf on one training row, at covariate ``x``."""
    hyper = KernelHyperparams([0.0], 0.0, 0.0)
    return LeafNode(GpLeaf(output, np.array([[x]]), np.zeros(1), hyper))


def test_validate_flags_parents_that_derive_different_regions():
    def circuit(second_edge):
        # leaf 0 sits in the left cell of both splits
        nodes = [
            point_leaf(-1.0), point_leaf(0.5), point_leaf(1.5),
            ProductXNode([0, 1], 0, [0.0]),
            ProductXNode([0, 2], 0, [second_edge]),
            SumNode([3, 4], np.log([0.5, 0.5])),
        ]
        return Circuit(nodes, 5, 1, 1, StructureConfig())

    assert validate(circuit(0.0)) == []
    assert validate(circuit(1.0)) == ["node 0: its parents derive different regions for it"]


@pytest.mark.parametrize(
    "parent, sound, broken, problems",
    [
        # smooth: a sum's children model the same outputs
        (
            lambda: SumNode([0, 1], np.log([0.5, 0.5])), (0, 0, 1), (0, 1, 2),
            ["node 2: children model different outputs"],
        ),
        # smooth: so do a covariate split's
        (
            lambda: ProductXNode([0, 1], 0, [0.0]), (0, 0, 1), (0, 1, 2),
            ["node 2: children model different outputs"],
        ),
        # decomposable: an output partition's children model disjoint outputs
        (
            lambda: ProductYNode([0, 1]), (0, 1, 2), (0, 0, 1),
            ["node 2: output-partition children share an output"],
        ),
        # complete: the root models every output
        (
            lambda: ProductYNode([0, 1]), (0, 1, 2), (0, 1, 3),
            ["root scope is not the 3 outputs"],
        ),
    ],
)
def test_validate_checks_scopes_derived_from_leaf_outputs(parent, sound, broken, problems):
    def circuit(outputs):
        first, second, n_outputs = outputs
        nodes = [point_leaf(-1.0, first), point_leaf(1.0, second), parent()]
        return Circuit(nodes, 2, n_outputs, 1, StructureConfig())

    assert validate(circuit(sound)) == []
    assert validate(circuit(broken)) == problems


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
    assert any("leaf dimensionality mismatch" in p for p in validate(circuit))
