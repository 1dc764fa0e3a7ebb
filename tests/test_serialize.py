"""Model persistence: canonical JSON, round trips, atomicity."""

import json
import os
import re
import stat
from pathlib import Path

import numpy as np
import pytest

import oracles
from momogp.circuit import LeafNode, ProductXNode, StructureConfig, SumNode, build, validate
from momogp.data_pipeline import (
    Dataset,
    PipelineTransforms,
    fit_pca,
    standardize,
    synth_multioutput,
)
from momogp.errors import SchemaError
from momogp.gp_leaf import GpLeaf
from momogp.inference import log_predictive_density_batch, predict_batch
from momogp.serialize import (
    SCHEMA_VERSION,
    dumps_canonical,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    write_text_atomic,
)
from momogp.training import TrainConfig, train

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def fitted_model(seed=0, n=50, d=2, p=2):
    rng = np.random.default_rng(seed)
    raw = Dataset(
        rng.normal(1.0, 2.0, size=(n, d)),
        np.sin(rng.normal(size=(n, d)) @ np.ones((d, p))) + rng.normal(size=(n, p)),
    )
    std_data, stats = standardize(raw)
    pca = fit_pca(std_data.x, d)
    transforms = PipelineTransforms(stats, pca)
    data = Dataset(transforms.transform_x(raw.x), std_data.y)
    circuit = build(data, StructureConfig(leaf_threshold=12, rng_seed=seed))
    circuit, _ = train(circuit, cfg=TrainConfig(max_epochs=4, rng_seed=seed))
    return circuit, transforms, data


def test_roundtrip_preserves_structure_and_predictions():
    circuit, transforms, data = fitted_model()
    doc = model_to_dict(circuit, transforms, data.x, data.y, extras={"note": 7})
    bundle = model_from_dict(json.loads(dumps_canonical(doc)))
    assert validate(bundle.circuit) == []
    assert len(bundle.circuit) == len(circuit)
    assert bundle.circuit.root == circuit.root
    assert bundle.circuit.config == circuit.config
    assert bundle.extras == {"note": 7}
    for a, b in zip(circuit.nodes, bundle.circuit.nodes):
        assert type(a) is type(b)
        assert np.array_equal(a.region.lower, b.region.lower)
        assert np.array_equal(a.region.upper, b.region.upper)
        if isinstance(a, SumNode):
            np.testing.assert_array_equal(a.log_weights, b.log_weights)
        if isinstance(a, LeafNode):
            # the loader gives each leaf the builder's rows, in the builder's order
            assert a.leaf.scope_output == b.leaf.scope_output
            np.testing.assert_array_equal(a.leaf.row_idx, b.leaf.row_idx)
            np.testing.assert_array_equal(a.leaf.train_x, b.leaf.train_x)
    # refit on load reproduces the fitted state bit for bit
    rng = np.random.default_rng(1)
    xq = rng.normal(size=(9, circuit.n_dims))
    means_a, covs_a = predict_batch(circuit, xq)
    means_b, covs_b = predict_batch(bundle.circuit, xq)
    np.testing.assert_array_equal(means_a, means_b)
    np.testing.assert_array_equal(covs_a, covs_b)
    # transforms survive
    np.testing.assert_array_equal(
        bundle.transforms.standardization.y_std, transforms.standardization.y_std
    )
    np.testing.assert_array_equal(bundle.transforms.pca.components, transforms.pca.components)


def test_canonical_dump_is_order_independent_and_stable():
    a = dumps_canonical({"b": 1.5, "a": [1.0, 2.0]})
    b = dumps_canonical({"a": [1.0, 2.0], "b": 1.5})
    assert a == b
    assert a.endswith("\n")
    with pytest.raises(ValueError):
        dumps_canonical({"x": float("nan")})


def test_save_load_save_is_byte_identical(tmp_path):
    circuit, transforms, data = fitted_model(seed=3)
    p1 = tmp_path / "m1.json"
    p2 = tmp_path / "m2.json"
    save_model(p1, circuit, transforms, data.x, data.y)
    bundle = load_model(p1)
    save_model(
        p2, bundle.circuit, bundle.transforms, bundle.x, bundle.y, bundle.extras
    )
    assert p1.read_bytes() == p2.read_bytes()


def test_file_with_node_row_counts_loads_and_predicts_bitwise(tmp_path):
    # earlier files store each node's training-row count under "n_rows"
    circuit, transforms, data = fitted_model(seed=5)
    path = tmp_path / "m.json"
    save_model(path, circuit, transforms, data.x, data.y)
    doc = json.loads(path.read_text())
    for stored, node in zip(doc["nodes"], circuit.nodes):
        assert "n_rows" not in stored
        stored["n_rows"] = int(oracles.in_region(node.region, data.x).sum())
    old = tmp_path / "old.json"
    old.write_text(dumps_canonical(doc))
    bundle = load_model(old)
    xq = np.random.default_rng(2).normal(size=(9, circuit.n_dims))
    for a, b in zip(predict_batch(bundle.circuit, xq), predict_batch(circuit, xq)):
        np.testing.assert_array_equal(a, b)
    resaved = tmp_path / "resaved.json"
    save_model(resaved, bundle.circuit, bundle.transforms, bundle.x, bundle.y, bundle.extras)
    assert resaved.read_bytes() == path.read_bytes()


def test_files_store_split_edges_and_no_regions():
    circuit, transforms, data = fitted_model(seed=4)
    text = dumps_canonical(model_to_dict(circuit, transforms, data.x, data.y))
    assert "Infinity" not in text
    doc = json.loads(text)
    assert doc["schema_version"] == SCHEMA_VERSION == 3
    for stored, node in zip(doc["nodes"], circuit.nodes):
        assert not STORED_COPIES & stored.keys()
        if isinstance(node, ProductXNode):
            assert stored["edges"] == node.edges.tolist()
            assert len(stored["edges"]) == len(stored["children"]) - 1
    root = model_from_dict(doc).circuit.nodes[circuit.root]
    assert np.all(np.isneginf(root.region.lower)) and np.all(np.isposinf(root.region.upper))


def circuit_data(circuit):
    """The training matrices a built circuit's leaves hold, row by row."""
    n = 1 + max(int(node.leaf.row_idx.max()) for _, node in circuit.leaves())
    x = np.zeros((n, circuit.n_dims))
    y = np.zeros((n, circuit.n_outputs))
    for _, node in circuit.leaves():
        x[node.leaf.row_idx] = node.leaf.train_x
        y[node.leaf.row_idx, node.leaf.scope_output] = node.leaf.train_y
    return x, y


def assert_same_regions(built, loaded):
    assert len(built.nodes) == len(loaded.nodes)
    for a, b in zip(built.nodes, loaded.nodes):
        np.testing.assert_array_equal(a.region.lower, b.region.lower)
        np.testing.assert_array_equal(a.region.upper, b.region.upper)


def test_loading_derives_the_builders_regions():
    rng = np.random.default_rng(31)
    for _ in range(12):
        circuit = oracles.random_circuit(rng)
        x, y = circuit_data(circuit)
        doc = json.loads(dumps_canonical(model_to_dict(circuit, None, x, y)))
        assert_same_regions(circuit, model_from_dict(doc).circuit)


# keys earlier files stored and this version derives
STORED_COPIES = {"region", "child_regions", "scope", "rows"}


def assert_serves(circuit, served):
    """``circuit`` serves bit for bit what a fixture's writing commit served."""
    xq, yq = np.asarray(served["x"]), np.asarray(served["y"])
    means, covs = predict_batch(circuit, xq)
    np.testing.assert_array_equal(means, served["means"])
    np.testing.assert_array_equal(covs, served["covs"])
    for mode in ("moment_matched", "exact_mixture"):
        np.testing.assert_array_equal(
            log_predictive_density_batch(circuit, xq, yq, mode=mode), served[f"nlpd_{mode}"]
        )


def assert_resaved_file_serves_the_same(bundle, served, tmp_path):
    resaved = tmp_path / "resaved.json"
    save_model(resaved, bundle.circuit, bundle.transforms, bundle.x, bundle.y, bundle.extras)
    doc = json.loads(resaved.read_text())
    assert doc["schema_version"] == SCHEMA_VERSION
    assert not any(STORED_COPIES & n.keys() for n in doc["nodes"])
    reloaded = load_model(resaved)
    assert_serves(reloaded.circuit, served)
    assert_same_regions(bundle.circuit, reloaded.circuit)


def assert_stored_copies_are_ignored(doc, served):
    for stored in doc["nodes"]:
        stored["scope"] = [99]
        if stored["type"] == "leaf":
            stored["rows"] = [10**6]
    assert_serves(model_from_dict(doc).circuit, served)


def test_schema_1_file_loads_and_predicts_bitwise(tmp_path):
    # Written by commit 1e38962, whose files stored every node's box and each
    # covariate split's cell boxes: 12 rows, 2 covariates, 2 outputs and
    # StructureConfig(k_sum=2, k_prod_x=2, k_prod_y=1, leaf_threshold=4,
    # rng_seed=3), trained two epochs. The predictions file holds what that
    # commit served for the queries in it; the first query lies on an edge.
    old = FIXTURES / "model_schema1.json"
    assert json.loads(old.read_text())["schema_version"] == 1
    served = json.loads((FIXTURES / "model_schema1_predictions.json").read_text())
    bundle = load_model(old)
    assert_serves(bundle.circuit, served)
    assert_resaved_file_serves_the_same(bundle, served, tmp_path)
    assert_stored_copies_are_ignored(json.loads(old.read_text()), served)
    # a schema-1 split dimension past the stored cells' bounds is refused, not raised
    doc = json.loads(old.read_text())
    next(n for n in doc["nodes"] if n["type"] == "product_x")["split_dim"] = 7
    with pytest.raises(SchemaError):
        model_from_dict(doc)


def test_schema_2_file_loads_and_predicts_bitwise(tmp_path):
    # Written by commit cc11cd4, whose files stored each node's scope and each
    # leaf's rows: 14 rows, 2 covariates, 3 outputs and StructureConfig(k_sum=3,
    # k_prod_x=2, k_prod_y=2, leaf_threshold=5, rng_seed=2), trained two epochs;
    # 178 nodes, 36 of the 48 leaves under several parents. The predictions
    # file holds what that commit served; the first query lies on an edge.
    old = FIXTURES / "model_schema2.json"
    doc = json.loads(old.read_text())
    assert doc["schema_version"] == 2
    served = json.loads((FIXTURES / "model_schema2_predictions.json").read_text())
    bundle = load_model(old)
    assert_serves(bundle.circuit, served)
    # what the file stored is what this version derives
    scopes = oracles.node_scopes(bundle.circuit)
    for stored, node, scope in zip(doc["nodes"], bundle.circuit.nodes, scopes):
        assert stored["scope"] == sorted(scope)
        if stored["type"] == "leaf":
            assert stored["rows"] == node.leaf.row_idx.tolist()
    assert_resaved_file_serves_the_same(bundle, served, tmp_path)
    assert_stored_copies_are_ignored(doc, served)


def test_save_refuses_leaves_that_do_not_hold_the_rows_inside_their_region(tmp_path):
    circuit, transforms, data = fitted_model(seed=6, n=30)
    i, node = next(circuit.leaves())
    row, output = node.leaf.row_idx[0], node.leaf.scope_output
    moved_x, moved_y = data.x.copy(), data.y.copy()
    moved_x[row, 0] += 1e-3
    moved_y[row, output] += 1.0
    path = tmp_path / "m.json"
    for x, y in ((moved_x, data.y), (data.x, moved_y)):
        with pytest.raises(SchemaError, match=f"leaf node {i}: its data are not"):
            save_model(path, circuit, transforms, x, y)
    # a leaf that lost one of its region's rows
    leaf = node.leaf
    node.leaf = GpLeaf(output, leaf.train_x[1:], leaf.train_y[1:], leaf.hyperparams)
    with pytest.raises(SchemaError, match=f"leaf node {i}: its data are not"):
        save_model(path, circuit, transforms, data.x, data.y)
    assert not path.exists()


def test_save_checks_leaves_against_the_regions_their_edges_derive(tmp_path):
    # a split edge moved after building: the regions the nodes hold no longer
    # follow from the edges, and a file written against them loaded as another
    # model (means up to 0.086 away over 200 standard-normal queries)
    data = synth_multioutput(60, 2, 2, seed=9)
    circuit = build(data, StructureConfig(leaf_threshold=15))
    circuit, _ = train(circuit, data, TrainConfig(max_epochs=1))
    split = circuit.nodes[circuit.nodes[circuit.root].children[0]]
    assert isinstance(split, ProductXNode)
    column = data.x[:, split.split_dim]
    split.edges[0] = column[column < split.edges[0]].max()
    assert "node 2: leaf rows fall outside its region" in validate(circuit)
    path = tmp_path / "m.json"
    with pytest.raises(SchemaError, match="leaf node 2: its data are not the rows inside"):
        save_model(path, circuit, None, data.x, data.y)
    # edges that cannot cut the region are refused before any leaf is checked
    split.edges[0] = np.nan
    with pytest.raises(SchemaError, match="invalid circuit: node .*: non-finite edge"):
        save_model(path, circuit, None, data.x, data.y)
    # and so is a leaf that no split reaches, which has no region to hold
    circuit, transforms, data = fitted_model(seed=6, n=30)
    circuit.nodes.append(circuit.nodes[circuit.leaf_ids()[0]])
    orphan = len(circuit.nodes) - 1
    with pytest.raises(SchemaError, match=f"invalid circuit: node {orphan}: no parent"):
        save_model(path, circuit, transforms, data.x, data.y)
    assert not path.exists()


def test_save_refuses_what_loading_refuses(tmp_path):
    # unnormalized sum weights pass the link and region checks, and a file
    # written with them would not load
    data = synth_multioutput(60, 2, 2, seed=9)
    circuit = build(data, StructureConfig(leaf_threshold=15))
    circuit, _ = train(circuit, data, TrainConfig(max_epochs=1))
    circuit.nodes[circuit.root].log_weights += 0.5
    problem = f"node {circuit.root}: weights sum to exp(0.5"
    assert validate(circuit)[0].startswith(problem)
    path = tmp_path / "m.json"
    with pytest.raises(SchemaError, match=re.escape(f"invalid circuit: {problem}")):
        save_model(path, circuit, None, data.x, data.y)
    assert not path.exists()


@pytest.mark.parametrize("child", [-1, 10**6])
def test_save_refuses_child_ids_outside_the_node_array(tmp_path, child):
    # the link check runs before regions are derived: an id past the end
    # would raise IndexError there, and a negative one would index from the end
    circuit, transforms, data = fitted_model(seed=8, n=30)
    root = circuit.nodes[circuit.root]
    root.children[0] = child
    path = tmp_path / "m.json"
    with pytest.raises(SchemaError, match=f"invalid circuit: node {circuit.root}: child ids"):
        save_model(path, circuit, transforms, data.x, data.y)
    assert not path.exists()


def test_leaf_region_without_stored_rows_is_refused():
    circuit, transforms, data = fitted_model(seed=7, n=30)
    doc = json.loads(dumps_canonical(model_to_dict(circuit, transforms, data.x, data.y)))
    i, node = next(circuit.leaves())
    keep = ~oracles.in_region(node.region, data.x)
    doc["data"] = {"x": data.x[keep].tolist(), "y": data.y[keep].tolist()}
    with pytest.raises(SchemaError, match=f"leaf node {i}: its region holds no stored row"):
        model_from_dict(doc)


@pytest.mark.parametrize("count", [1, 3])
def test_leaf_lengthscales_must_match_the_covariates(count):
    circuit, transforms, data = fitted_model(seed=8, n=30, d=2)
    doc = json.loads(dumps_canonical(model_to_dict(circuit, transforms, data.x, data.y)))
    i = next(i for i, n in enumerate(doc["nodes"]) if n["type"] == "leaf")
    doc["nodes"][i]["hyperparams"]["log_lengthscales"] = [0.0] * count
    with pytest.raises(SchemaError, match=f"leaf node {i}: {count} lengthscales for 2 dims"):
        model_from_dict(doc)


def test_schema_rejections():
    circuit, transforms, data = fitted_model(seed=5, n=30)
    doc = model_to_dict(circuit, transforms, data.x, data.y)
    wrong_kind = dict(doc, kind="something_else")
    with pytest.raises(SchemaError):
        model_from_dict(wrong_kind)
    wrong_version = dict(doc, schema_version=SCHEMA_VERSION + 1)
    with pytest.raises(SchemaError):
        model_from_dict(wrong_version)
    missing = dict(doc)
    del missing["nodes"]
    with pytest.raises(SchemaError, match="missing"):
        model_from_dict(missing)
    bad_node = json.loads(dumps_canonical(doc))
    bad_node["nodes"][0]["type"] = "mystery"
    with pytest.raises(SchemaError):
        model_from_dict(bad_node)
    with pytest.raises(SchemaError):
        model_from_dict(["not", "a", "dict"])


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{truncated")
    with pytest.raises(SchemaError, match="JSON"):
        load_model(path)


def test_atomic_write_success_leaves_no_temp(tmp_path):
    path = tmp_path / "out.json"
    write_text_atomic(path, "hello\n")
    assert path.read_text() == "hello\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_atomic_write_failure_leaves_no_residue(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()  # os.replace onto a non-empty dir path fails
    (target / "occupant").write_text("x")
    with pytest.raises(OSError):
        write_text_atomic(target, "data")
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"taken"}  # no orphaned temp file


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_atomic_write_mode_follows_the_umask(tmp_path, umask, mode):
    path = tmp_path / "out.json"
    old = os.umask(umask)
    try:
        write_text_atomic(path, "hello\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == mode


def test_atomic_write_syncs_the_file_before_the_rename(tmp_path, monkeypatch):
    calls = []
    fsync, replace_file = os.fsync, os.replace

    def recording_fsync(fd):
        calls.append("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
        fsync(fd)

    def recording_replace(src, dst):
        calls.append("replace")
        replace_file(src, dst)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    write_text_atomic(tmp_path / "out.bin", b"data")
    assert calls == ["fsync file", "replace", "fsync dir"]
    assert (tmp_path / "out.bin").read_bytes() == b"data"


def test_atomic_write_that_fails_before_the_rename_leaves_no_file(tmp_path, monkeypatch):
    def failing_fsync(fd):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="disk gone"):
        write_text_atomic(tmp_path / "out.json", "data")
    assert list(tmp_path.iterdir()) == []
