"""Model persistence.

A model file is a single JSON document holding the node array (ids are
array positions), the training matrices in pipeline space, the fitted
preprocessing transforms and the structure config. Leaves store their
output and kernel hyperparameters; the heavy per-leaf state (Cholesky
factor, alpha) is reproduced exactly by refitting on load rather than
stored. A leaf that several nodes share is one entry, refitted once.

A file stores the partitions and nothing they imply (schema_version 3).
A covariate split stores its ``split_dim`` and its sorted interior
``edges``, and a leaf its output. Before any leaf is refitted, the loader
derives every node's region from the root in the pass that runs
``validate``'s checks, and gives each leaf the stored rows inside its
region (``circuit._rows_inside``), ascending as the builder assigns them.
No node stores a region box, its scope or a leaf's rows. Saving runs the
same checks and refuses a leaf whose training data are not the rows
inside its region, so a written file loads as the model that wrote it,
even when a split's edges changed after building.

Earlier files still load, and their stored copies are ignored: each
node's ``scope`` and each leaf's ``rows``, and in schema 1 every node's box
and each split's cell boxes, whose upper bounds on the split dimension
(all but the last) are the split's edges. Routing only ever read those
edges, and a saved leaf's rows were always the stored rows inside its
region, so such a file serves the same numbers as before.

Serialisation is byte-deterministic: keys are sorted and floats use
Python's shortest round-trip repr. Writes go to a temp file in the
destination directory, synced and renamed into place on success, so
neither a failed write nor a crash leaves a partial file. Written files
get the mode that the umask gives, as with ``open``.
"""

from __future__ import annotations

import json
import os
import secrets
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .circuit import (
    Circuit,
    LeafNode,
    ProductXNode,
    ProductYNode,
    StructureConfig,
    SumNode,
    _rows_inside,
    _validated_regions,
)
from .data_pipeline import PcaTransform, PipelineTransforms, Standardization
from .errors import NumericalError, SchemaError
from .gp_leaf import GpLeaf, KernelHyperparams

SCHEMA_VERSION = 3
_MODEL_KIND = "momogp_model"


_KINDS = {SumNode: "sum", ProductXNode: "product_x", ProductYNode: "product_y"}


def _node_to_json(node) -> dict:
    if isinstance(node, LeafNode):
        hyper = node.leaf.hyperparams
        return {
            "type": "leaf",
            "output": int(node.leaf.scope_output),
            "hyperparams": {
                "log_lengthscales": hyper.log_lengthscales.tolist(),
                "log_signal_variance": float(hyper.log_signal_variance),
                "log_noise_variance": float(hyper.log_noise_variance),
            },
        }
    if type(node) not in _KINDS:
        raise SchemaError(f"cannot serialize node type {type(node).__name__}")
    out = {"type": _KINDS[type(node)], "children": [int(c) for c in node.children]}
    if isinstance(node, SumNode):
        out["log_weights"] = node.log_weights.tolist()
    elif isinstance(node, ProductXNode):
        out.update(split_dim=int(node.split_dim), edges=node.edges.tolist())
    return out


def _integer(value, name: str) -> int:
    """A stored integer; a JSON float or bool is refused, never truncated."""
    if type(value) is not int:
        raise SchemaError(f"{name} must be an integer, got {value!r}")
    return value


def _node_from_json(obj: dict, x: np.ndarray, y: np.ndarray, version: int):
    """One stored node, without its region; the loader derives that.

    A leaf holds every stored row until the loader narrows it to its
    region. Earlier files' ``scope`` and leaf ``rows`` keys are ignored.
    """
    kind = obj["type"]
    if kind == "leaf":
        output = _integer(obj["output"], "leaf output")
        if not 0 <= output < y.shape[1]:
            raise SchemaError(f"leaf output {output} outside [0, {y.shape[1]})")
        hp = obj["hyperparams"]
        hyper = KernelHyperparams(
            np.asarray(hp["log_lengthscales"], dtype=float),
            float(hp["log_signal_variance"]),
            float(hp["log_noise_variance"]),
        )
        return LeafNode(GpLeaf(output, x, y[:, output], hyper))
    children = [_integer(c, "child id") for c in obj["children"]]
    if kind == "sum":
        return SumNode(children, np.asarray(obj["log_weights"], dtype=float))
    if kind == "product_x":
        dim = _integer(obj["split_dim"], "split_dim")
        if version == 1:  # each cell's box; all but the last end at an edge
            edges = [cell["upper"][dim] for cell in obj["child_regions"][:-1]]
        else:
            edges = obj["edges"]
        return ProductXNode(children, dim, edges)
    if kind == "product_y":
        return ProductYNode(children)
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
    regions, problems = _validated_regions(circuit)
    if problems:
        raise SchemaError(f"invalid circuit: {problems[0]}")
    leaves = list(circuit.leaves())
    # take and != cost less than indexing and array_equal per leaf; a leaf
    # keeps one train_y value per train_x row, so one shape test serves both
    for (i, node), rows in zip(leaves, _rows_inside([regions[i] for i, _ in leaves], x)):
        leaf = node.leaf
        if (leaf.train_x.shape != (rows.size, x.shape[1])
                or (leaf.train_x != x.take(rows, axis=0)).any()
                or (leaf.train_y != y[:, leaf.scope_output].take(rows)).any()):
            raise SchemaError(f"leaf node {i}: its data are not the rows inside its region")
    # tolist gives the same python floats as float() per element, in one C pass
    return {
        "kind": _MODEL_KIND,
        "schema_version": SCHEMA_VERSION,
        "n_outputs": circuit.n_outputs,
        "n_dims": circuit.n_dims,
        "root": circuit.root,
        "structure_config": asdict(circuit.config),
        "nodes": [_node_to_json(node) for node in circuit.nodes],
        "data": {"x": x.tolist(), "y": y.tolist()},
        "transforms": _transforms_to_json(transforms),
        "extras": dict(extras or {}),
    }


def model_from_dict(obj: dict) -> ModelBundle:
    if not isinstance(obj, dict) or obj.get("kind") != _MODEL_KIND:
        raise SchemaError("not a model file")
    version = obj.get("schema_version")
    if type(version) is not int or not 1 <= version <= SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema_version {version!r}; expected 1 to {SCHEMA_VERSION}"
        )
    required = ("nodes", "root", "n_outputs", "n_dims", "data", "structure_config")
    missing = [key for key in required if key not in obj]
    if missing:
        raise SchemaError(f"model file missing keys: {missing}")
    try:
        x = np.asarray(obj["data"]["x"], dtype=float)
        y = np.asarray(obj["data"]["y"], dtype=float)
        if x.ndim != 2 or x.shape[1] != _integer(obj["n_dims"], "n_dims"):
            raise SchemaError("stored x must be a 2-d array with n_dims columns")
        if y.ndim == 1:
            y = y.reshape(x.shape[0], -1)
        if y.shape != (x.shape[0], _integer(obj["n_outputs"], "n_outputs")):
            raise SchemaError("stored y must have one row per x row and n_outputs columns")
        for name, values in (("x", x), ("y", y)):
            if not np.all(np.isfinite(values)):
                raise SchemaError(f"stored data.{name} must be finite")
        config = StructureConfig(
            **{f.name: obj["structure_config"][f.name] for f in fields(StructureConfig)}
        )
        config.validate()
        nodes = [_node_from_json(n, x, y, version) for n in obj["nodes"]]
        circuit = Circuit(nodes, _integer(obj["root"], "root"), y.shape[1], x.shape[1], config)
        regions, problems = _validated_regions(circuit)
        if problems:
            raise SchemaError(f"invalid circuit: {problems[0]}")
        for node, region in zip(nodes, regions):
            node.region = region
        leaves = list(circuit.leaves())
        for (i, node), rows in zip(leaves, _rows_inside([n.region for _, n in leaves], x)):
            leaf, n_scales = node.leaf, node.leaf.hyperparams.log_lengthscales.size
            if n_scales != x.shape[1]:
                raise SchemaError(f"leaf node {i}: {n_scales} lengthscales for {x.shape[1]} dims")
            if rows.size == 0:
                raise SchemaError(f"leaf node {i}: its region holds no stored row")
            y_rows = y[rows, leaf.scope_output]
            node.leaf = replace(leaf, train_x=x[rows], train_y=y_rows, row_idx=rows)
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
    """Write text or bytes to a temp file beside ``path`` and rename on success.

    The temp file is created with mode 0o666 less the umask, as ``open``
    would create ``path``. It is synced before the rename and the directory
    after it, so a crash leaves either the old file or the whole new one.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp_path = os.path.join(directory, f"tmp{secrets.token_hex(8)}.tmp")
    try:
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        # name the caller's path (a missing directory, say), not the temp file
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with os.fdopen(fd, "wb" if isinstance(content, bytes) else "w") as fh:
            fh.write(content)
            fh.flush()
            os.fsync(fh.fileno())
        try:
            os.replace(tmp_path, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        _fsync_directory(directory)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _fsync_directory(directory: str):
    """Make a rename in ``directory`` durable; a no-op where directories cannot be opened."""
    if not hasattr(os, "O_DIRECTORY"):
        return
    fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


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
