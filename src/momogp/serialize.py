"""Model persistence.

A model file is a single JSON document holding the node array (ids are
array positions), the training matrices in pipeline space, the fitted
preprocessing transforms and the structure config. Leaves store kernel
hyperparameters plus the row indices of their training subset, so the
heavy per-leaf state (Cholesky factor, alpha) is reproduced exactly by
refitting on load rather than stored. A leaf that several nodes share is
one entry, refitted once.

No node stores a region box (schema_version 2). A covariate split stores
its ``split_dim`` and its sorted interior ``edges``. Before any leaf is
refitted, the loader derives every node's region from the root in the
pass that runs ``validate``'s checks. Schema-1 files stored every node's
box and each split's cell boxes as well; they still load. A schema-1 split's edges are its cells' upper
bounds on the split dimension, all but the last, and the stored boxes
are ignored: routing only ever read those edges, and the leaf rows are
stored apart, so such a file serves the same numbers as before.

Serialisation is byte-deterministic: keys are sorted and floats use
Python's shortest round-trip repr. Writes go to a temp file in the
destination directory and are renamed into place on success, so a
failed write leaves no partial file.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from .circuit import (
    Circuit,
    LeafNode,
    ProductXNode,
    ProductYNode,
    StructureConfig,
    SumNode,
    _validated_regions,
)
from .data_pipeline import PcaTransform, PipelineTransforms, Standardization
from .errors import NumericalError, SchemaError
from .gp_leaf import GpLeaf, KernelHyperparams

SCHEMA_VERSION = 2
_MODEL_KIND = "momogp_model"


def _node_to_json(node) -> dict:
    base = {"scope": sorted(int(s) for s in node.scope)}
    if isinstance(node, SumNode):
        return {
            "type": "sum",
            "children": [int(c) for c in node.children],
            "log_weights": [float(w) for w in node.log_weights],
            **base,
        }
    if isinstance(node, ProductXNode):
        return {
            "type": "product_x",
            "children": [int(c) for c in node.children],
            "split_dim": int(node.split_dim),
            "edges": node.edges.tolist(),
            **base,
        }
    if isinstance(node, ProductYNode):
        return {
            "type": "product_y",
            "children": [int(c) for c in node.children],
            **base,
        }
    if isinstance(node, LeafNode):
        leaf = node.leaf
        if leaf.row_idx is None:
            raise SchemaError(
                "leaf lacks row indices; only circuits built from a dataset serialize"
            )
        return {
            "type": "leaf",
            "output": int(leaf.scope_output),
            "rows": np.asarray(leaf.row_idx).tolist(),
            "hyperparams": {
                "log_lengthscales": [float(v) for v in leaf.hyperparams.log_lengthscales],
                "log_signal_variance": float(leaf.hyperparams.log_signal_variance),
                "log_noise_variance": float(leaf.hyperparams.log_noise_variance),
            },
            **base,
        }
    raise SchemaError(f"cannot serialize node type {type(node).__name__}")


def _node_from_json(obj: dict, x: np.ndarray, y: np.ndarray, version: int):
    """One stored node, without its region; the loader derives that."""
    kind = obj["type"]
    scope = frozenset(int(s) for s in obj["scope"])
    if kind == "sum":
        return SumNode(
            [int(c) for c in obj["children"]],
            np.asarray(obj["log_weights"], dtype=float),
            scope,
        )
    if kind == "product_x":
        dim = int(obj["split_dim"])
        if version == 1:  # each cell's box; all but the last end at an edge
            edges = [cell["upper"][dim] for cell in obj["child_regions"][:-1]]
        else:
            edges = obj["edges"]
        return ProductXNode([int(c) for c in obj["children"]], dim, edges, scope)
    if kind == "product_y":
        return ProductYNode([int(c) for c in obj["children"]], scope)
    if kind == "leaf":
        rows = np.asarray(obj["rows"], dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= x.shape[0]):
            raise SchemaError("leaf row indices fall outside the stored data")
        hp = obj["hyperparams"]
        hyper = KernelHyperparams(
            np.asarray(hp["log_lengthscales"], dtype=float),
            float(hp["log_signal_variance"]),
            float(hp["log_noise_variance"]),
        )
        output = int(obj["output"])
        if not 0 <= output < y.shape[1]:
            raise SchemaError(f"leaf output {output} outside [0, {y.shape[1]})")
        leaf = GpLeaf(
            scope_output=output,
            train_x=x[rows],
            train_y=y[rows, output],
            hyperparams=hyper,
            row_idx=rows,
        )
        return LeafNode(leaf, scope)
    raise SchemaError(f"unknown node type {kind!r}")


_TRANSFORM_PARTS = (("standardization", Standardization), ("pca", PcaTransform))


def _transforms_to_json(transforms: Optional[PipelineTransforms]) -> dict:
    t = transforms or PipelineTransforms()
    out = {}
    for name, cls in _TRANSFORM_PARTS:
        part = getattr(t, name)
        out[name] = None if part is None else {
            f.name: np.asarray(getattr(part, f.name), dtype=float).tolist() for f in fields(cls)
        }
    return out


def _transforms_from_json(obj: dict) -> PipelineTransforms:
    parts = {}
    for name, cls in _TRANSFORM_PARTS:
        stored = obj.get(name)
        parts[name] = None if stored is None else cls(
            **{f.name: np.asarray(stored[f.name], dtype=float) for f in fields(cls)}
        )
    return PipelineTransforms(**parts)


def _check_transforms(t: PipelineTransforms, n_dims: int, n_outputs: int):
    """Finite entries shaped like the data's, positive stds, non-negative variances."""
    s, pca = t.standardization, t.pca
    d = n_dims if pca is None else pca.mean.size  # raw covariate count
    entries = []
    if s is not None:
        entries += [("x_mean", s.x_mean, (d,)), ("x_std", s.x_std, (d,)),
                    ("y_mean", s.y_mean, (n_outputs,)), ("y_std", s.y_std, (n_outputs,))]
    if pca is not None:
        entries += [("pca mean", pca.mean, (d,)), ("pca components", pca.components, (d, n_dims)),
                    ("pca explained_variance", pca.explained_variance, (n_dims,))]
    for name, values, shape in entries:
        if values.shape != shape or not np.all(np.isfinite(values)):
            raise SchemaError(f"transform {name} must be finite values of shape {shape}")
    if s is not None and not (np.all(s.x_std > 0) and np.all(s.y_std > 0)):
        raise SchemaError("transform x_std and y_std must be > 0")
    if pca is not None and np.any(pca.explained_variance < 0):
        raise SchemaError("transform pca explained_variance must be >= 0")


@dataclass
class ModelBundle:
    """A deserialized model: circuit with refitted leaves plus its preprocessing."""

    circuit: Circuit
    transforms: PipelineTransforms
    x: np.ndarray
    y: np.ndarray
    extras: dict = field(default_factory=dict)


def model_to_dict(
    circuit: Circuit,
    transforms: Optional[PipelineTransforms],
    x: np.ndarray,
    y: np.ndarray,
    extras: Optional[dict] = None,
) -> dict:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    # tolist gives the same python floats as float() per element, in one C pass
    return {
        "kind": _MODEL_KIND,
        "schema_version": SCHEMA_VERSION,
        "n_outputs": circuit.n_outputs,
        "n_dims": circuit.n_dims,
        "root": circuit.root,
        "structure_config": asdict(circuit.config),
        "nodes": [_node_to_json(node) for node in circuit.nodes],
        "data": {
            "x": x.tolist(),
            "y": y.tolist(),
        },
        "transforms": _transforms_to_json(transforms),
        "extras": dict(extras or {}),
    }


def model_from_dict(obj: dict) -> ModelBundle:
    if not isinstance(obj, dict) or obj.get("kind") != _MODEL_KIND:
        raise SchemaError("not a model file")
    version = obj.get("schema_version")
    if version not in (1, SCHEMA_VERSION):
        raise SchemaError(
            f"unsupported schema_version {version!r}; expected 1 or {SCHEMA_VERSION}"
        )
    required = ("nodes", "root", "n_outputs", "n_dims", "data", "structure_config")
    missing = [key for key in required if key not in obj]
    if missing:
        raise SchemaError(f"model file missing keys: {missing}")
    try:
        x = np.asarray(obj["data"]["x"], dtype=float)
        y = np.asarray(obj["data"]["y"], dtype=float)
        if x.ndim != 2 or x.shape[1] != int(obj["n_dims"]):
            raise SchemaError("stored x must be a 2-d array with n_dims columns")
        if y.ndim == 1:
            y = y.reshape(x.shape[0], -1)
        if y.shape != (x.shape[0], int(obj["n_outputs"])):
            raise SchemaError("stored y must have one row per x row and n_outputs columns")
        for name, values in (("x", x), ("y", y)):
            if not np.all(np.isfinite(values)):
                raise SchemaError(f"stored data.{name} must be finite")
        config = StructureConfig(
            **{f.name: obj["structure_config"][f.name] for f in fields(StructureConfig)}
        )
        config.validate()
        nodes = [_node_from_json(n, x, y, version) for n in obj["nodes"]]
        circuit = Circuit(
            nodes=nodes,
            root=int(obj["root"]),
            n_outputs=y.shape[1],
            n_dims=x.shape[1],
            config=config,
        )
        regions, problems = _validated_regions(circuit)
        if problems:
            raise SchemaError(f"invalid circuit: {problems[0]}")
        for node, region in zip(nodes, regions):
            node.region = region
        stored_transforms = obj.get("transforms") or {}
        extras = obj.get("extras") or {}
        for name, value in (("transforms", stored_transforms), ("extras", extras)):
            if not isinstance(value, dict):
                raise SchemaError(f"model file {name} must be an object")
        transforms = _transforms_from_json(stored_transforms)
        _check_transforms(transforms, circuit.n_dims, circuit.n_outputs)
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed model file: {exc}") from None
    # refitting reproduces the cached per-leaf state; stored posterior
    # weights are kept verbatim (renormalizing again would be a no-op
    # only for unchanged data, so it is not done here)
    for node_id, node in circuit.leaves():
        try:
            node.leaf.fit()
        except NumericalError as exc:
            raise SchemaError(
                f"leaf node {node_id} cannot be fitted with its stored hyperparameters: {exc}"
            ) from None
    return ModelBundle(circuit, transforms, x, y, dict(extras))


def dumps_canonical(obj: dict) -> str:
    """Deterministic JSON text: sorted keys, compact separators, repr floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def write_text_atomic(path, content: str | bytes):
    """Write text or bytes to a temp file beside ``path`` and rename on success."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb" if isinstance(content, bytes) else "w") as fh:
            fh.write(content)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def write_json_atomic(path, obj: dict):
    write_text_atomic(path, dumps_canonical(obj))


def save_model(
    path,
    circuit: Circuit,
    transforms: Optional[PipelineTransforms],
    x: np.ndarray,
    y: np.ndarray,
    extras: Optional[dict] = None,
):
    write_json_atomic(path, model_to_dict(circuit, transforms, x, y, extras))


def load_model(path) -> ModelBundle:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    return model_from_dict(obj)
