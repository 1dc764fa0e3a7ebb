"""Model persistence: canonical JSON, round trips, atomicity."""

import json
import math

import numpy as np
import pytest

from momogp.circuit import StructureConfig, SumNode, build, validate
from momogp.data_pipeline import Dataset, PipelineTransforms, fit_pca, standardize
from momogp.errors import SchemaError
from momogp.inference import predict_batch
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
        assert a.scope == b.scope
        assert np.array_equal(a.region.lower, b.region.lower)
        assert np.array_equal(a.region.upper, b.region.upper)
        if isinstance(a, SumNode):
            np.testing.assert_array_equal(a.log_weights, b.log_weights)
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
        stored["n_rows"] = int(node.region.contains_rows(data.x).sum())
    old = tmp_path / "old.json"
    old.write_text(dumps_canonical(doc))
    bundle = load_model(old)
    xq = np.random.default_rng(2).normal(size=(9, circuit.n_dims))
    for a, b in zip(predict_batch(bundle.circuit, xq), predict_batch(circuit, xq)):
        np.testing.assert_array_equal(a, b)
    resaved = tmp_path / "resaved.json"
    save_model(resaved, bundle.circuit, bundle.transforms, bundle.x, bundle.y, bundle.extras)
    assert resaved.read_bytes() == path.read_bytes()


def test_unbounded_regions_use_null():
    circuit, transforms, data = fitted_model(seed=4)
    text = dumps_canonical(model_to_dict(circuit, transforms, data.x, data.y))
    assert "Infinity" not in text
    root_region = json.loads(text)["nodes"][circuit.root]["region"]
    assert root_region["lower"] == [None] * circuit.n_dims
    bundle = model_from_dict(json.loads(text))
    assert math.isinf(bundle.circuit.nodes[circuit.root].region.upper[0])


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
    bad_rows = json.loads(dumps_canonical(doc))
    for node in bad_rows["nodes"]:
        if node["type"] == "leaf":
            node["rows"] = [10**6]
            break
    with pytest.raises(SchemaError):
        model_from_dict(bad_rows)
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
