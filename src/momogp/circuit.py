"""Circuit construction over rectangular covariate regions.

The model is a rooted DAG of four node kinds:

* Sum: a mixture whose children all model the same outputs on the
  same region (log weights attached to the edges).
* ProductX: partitions the node's region into cells along one
  covariate dimension; one child per cell.
* ProductY: partitions the node's output scope into disjoint subsets;
  one child per subset.
* Leaf: a single-output GP expert on the node's region.

Nodes live in one array and are addressed by id. The ids are the
topological order: every child id is lower than its parent's, every
node except the root has at least one parent and the root has none (so
the root is the last node). The builder adds children first, and
``validate`` checks this rule for built and loaded circuits alike, so
every bottom-up pass is a plain loop over the ids.

Leaves are shared. Every split uses half-open boxes, so splitting
dimension a then b gives the same cells as b then a; a leaf's training
rows follow from its region, and the builder keeps one leaf per
(region, output) pair however many output partitions reach it. A shared leaf is one
GP problem, fitted, stored and queried once. Inner nodes are never
shared: each output partition draws its own random split.

Construction recursively alternates Sum -> ProductX -> ProductY until
a subset is small enough (at most ``leaf_threshold`` observations) to
hand each remaining output to a GP leaf. Sum children split along the
highest-variance dimensions of their data subset; ProductX splits at
quantiles; ProductY draws a seeded random near-equal partition of the
output scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .data_pipeline import Dataset
from .gp_leaf import GpLeaf, KernelHyperparams

# hard ceiling on the induced trees an exact mixture density may sum over
TREE_ENUM_CAP = 10**6


@dataclass
class Region:
    """Axis-aligned box, half-open per dimension: lower <= v < upper.

    The first cell of any split extends to -inf and the last to +inf,
    so a full partition of a region covers every real vector.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValueError("lower/upper must be 1-d and of equal length")
        if np.any(np.isnan(self.lower)) or np.any(np.isnan(self.upper)):
            raise ValueError("region bounds may not be NaN")
        if np.any(self.lower >= self.upper):
            raise ValueError("region must satisfy lower < upper in every dimension")

    @classmethod
    def unbounded(cls, n_dims: int) -> "Region":
        return cls(np.full(n_dims, -np.inf), np.full(n_dims, np.inf))

    @property
    def n_dims(self) -> int:
        return self.lower.shape[0]

    def contains_rows(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.all(x >= self.lower, axis=1) & np.all(x < self.upper, axis=1)

    def with_interval(self, dim: int, lo: float, hi: float) -> "Region":
        lower = self.lower.copy()
        upper = self.upper.copy()
        lower[dim] = lo
        upper[dim] = hi
        return Region(lower, upper)


@dataclass
class StructureConfig:
    """Knobs of the recursive builder.

    k_sum mixture components per sum; k_prod_x covariate cells per
    split; k_prod_y output subsets per partition; leaf_threshold the
    maximum observations a leaf may hold before further splitting.
    k_prod_x=1 or k_prod_y=1 disables that split kind (pass-through).
    """

    k_sum: int = 2
    k_prod_x: int = 2
    k_prod_y: int = 2
    leaf_threshold: int = 500
    rng_seed: int = 0

    def validate(self):
        for name, low in (
            ("k_sum", 1), ("k_prod_x", 1), ("k_prod_y", 1), ("leaf_threshold", 1), ("rng_seed", 0)
        ):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass
class SumNode:
    children: list[int]
    log_weights: np.ndarray
    scope: frozenset[int]
    region: Region
    n_rows: int

    def __post_init__(self):
        self.log_weights = np.asarray(self.log_weights, dtype=float)
        if self.log_weights.shape != (len(self.children),):
            raise ValueError("one log weight per child required")


@dataclass
class ProductXNode:
    children: list[int]
    child_regions: list[Region]
    split_dim: int
    scope: frozenset[int]
    region: Region
    n_rows: int


@dataclass
class ProductYNode:
    children: list[int]
    scope: frozenset[int]
    region: Region
    n_rows: int


@dataclass
class LeafNode:
    leaf: GpLeaf
    scope: frozenset[int]
    region: Region
    n_rows: int


Node = Union[SumNode, ProductXNode, ProductYNode, LeafNode]


@dataclass
class Circuit:
    """Node array addressed by integer ids in topological order; ``root`` indexes into it."""

    nodes: list
    root: int
    n_outputs: int
    n_dims: int
    config: StructureConfig

    def __len__(self) -> int:
        return len(self.nodes)

    def leaves(self):
        for i, node in enumerate(self.nodes):
            if isinstance(node, LeafNode):
                yield i, node

    def leaf_ids(self) -> list[int]:
        return [i for i, _ in self.leaves()]

    def describe(self) -> dict:
        counts = {"sum": 0, "product_x": 0, "product_y": 0, "leaf": 0}
        for node in self.nodes:
            if isinstance(node, SumNode):
                counts["sum"] += 1
            elif isinstance(node, ProductXNode):
                counts["product_x"] += 1
            elif isinstance(node, ProductYNode):
                counts["product_y"] += 1
            else:
                counts["leaf"] += 1
        return {
            "nodes": len(self.nodes),
            **counts,
            "induced_trees": count_induced_trees(self),
        }


_DEFAULT_LOG_NOISE = math.log(0.1)


class _Builder:
    """Recursive construction state."""

    def __init__(self, x: np.ndarray, y: np.ndarray, cfg: StructureConfig):
        self.x = x
        self.y = y
        self.cfg = cfg
        self.nodes: list = []
        self.y_stream = 0  # deterministic per-partition RNG stream counter
        self.leaf_by_key: dict[tuple, int] = {}  # (region bounds, output) -> leaf id

    def add(self, node) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def build_sum(self, region: Region, rows: np.ndarray, scope: frozenset) -> int:
        cfg = self.cfg
        variances = self.x[rows].var(axis=0)
        # stable sort on the negated values: ties resolve to the lower index
        order = np.argsort(-variances, kind="stable")
        children = [
            self.build_prod_x(region, rows, scope, int(order[k % self.x.shape[1]]))
            for k in range(cfg.k_sum)
        ]
        log_w = np.full(cfg.k_sum, -math.log(cfg.k_sum))
        return self.add(SumNode(children, log_w, scope, region, int(rows.size)))

    def build_prod_x(
        self, region: Region, rows: np.ndarray, scope: frozenset, dim: int
    ) -> int:
        cfg = self.cfg
        if cfg.k_prod_x == 1:
            return self.build_prod_y(region, rows, scope, False)
        vals = self.x[rows, dim]
        fractions = np.arange(1, cfg.k_prod_x) / cfg.k_prod_x
        thresholds = np.unique(np.quantile(vals, fractions))
        thresholds = thresholds[
            (thresholds > region.lower[dim]) & (thresholds < region.upper[dim])
        ]
        if thresholds.size == 0:
            # all thresholds coincide: no usable split, fall through to outputs
            return self.build_prod_y(region, rows, scope, False)
        bins = np.searchsorted(thresholds, vals, side="right")
        edges = [float(region.lower[dim])] + [float(t) for t in thresholds] + [
            float(region.upper[dim])
        ]
        # assemble populated cells; empty cells merge into their left
        # neighbour (leading empties fold into the first populated cell)
        cells: list[tuple[float, float, np.ndarray]] = []
        lo_edge = edges[0]
        for j in range(len(edges) - 1):
            hi_edge = edges[j + 1]
            cell_rows = rows[bins == j]
            if cell_rows.size == 0:
                if cells:
                    prev_lo, _, prev_rows = cells[-1]
                    cells[-1] = (prev_lo, hi_edge, prev_rows)
                    lo_edge = hi_edge
            else:
                cells.append((lo_edge, hi_edge, cell_rows))
                lo_edge = hi_edge
        if len(cells) == 1:
            return self.build_prod_y(region, rows, scope, False)
        children = []
        child_regions = []
        for cell_lo, cell_hi, cell_rows in cells:
            child_region = region.with_interval(dim, cell_lo, cell_hi)
            child_regions.append(child_region)
            children.append(self.build_prod_y(child_region, cell_rows, scope, True))
        return self.add(
            ProductXNode(children, child_regions, dim, scope, region, int(rows.size))
        )

    def build_prod_y(
        self, region: Region, rows: np.ndarray, scope: frozenset, can_split_x: bool
    ) -> int:
        cfg = self.cfg
        stream = self.y_stream
        self.y_stream += 1
        scope_sorted = sorted(scope)
        # recursing must make progress: either the scope actually splits
        # (at least two parts) or covariate splits are still possible
        recurse = rows.size > cfg.leaf_threshold and (
            min(cfg.k_prod_y, len(scope)) > 1 or can_split_x
        )
        if recurse:
            k_parts = min(cfg.k_prod_y, len(scope))
            # spawn_key (0, stream): stream 0 is the builder's; training
            # initialisation uses stream 1 so the two never collide
            rng = np.random.default_rng(
                np.random.SeedSequence(cfg.rng_seed, spawn_key=(0, stream))
            )
            perm = rng.permutation(np.asarray(scope_sorted, dtype=np.int64))
            parts = np.array_split(perm, k_parts)
            children = [
                self.build_sum(region, rows, frozenset(int(q) for q in part))
                for part in parts
            ]
        else:
            children = [self.add_leaf(region, rows, p) for p in scope_sorted]
        return self.add(ProductYNode(children, scope, region, int(rows.size)))

    def add_leaf(self, region: Region, rows: np.ndarray, output: int) -> int:
        """The leaf of (region, output), added on first request and shared after."""
        key = (tuple(region.lower.tolist()), tuple(region.upper.tolist()), output)
        if key in self.leaf_by_key:
            return self.leaf_by_key[key]
        hyper = KernelHyperparams(
            np.zeros(self.x.shape[1]), 0.0, _DEFAULT_LOG_NOISE
        )
        leaf = GpLeaf(
            scope_output=output,
            train_x=self.x[rows],
            train_y=self.y[rows, output],
            hyperparams=hyper,
            row_idx=rows.copy(),
        )
        self.leaf_by_key[key] = self.add(
            LeafNode(leaf, frozenset([output]), region, int(rows.size))
        )
        return self.leaf_by_key[key]


def _checked_training_data(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    if data.n_rows < 1:
        raise ValueError("training data is empty")
    if data.n_outputs < 1:
        raise ValueError("training data needs at least one target column")
    if not (np.all(np.isfinite(data.x)) and np.all(np.isfinite(data.y))):
        raise ValueError("training data contains non-finite values")
    return np.asarray(data.x, dtype=float), np.asarray(data.y, dtype=float)


def build(data: Dataset, cfg: StructureConfig) -> Circuit:
    """Build the mixture circuit for ``data``; leaves are left unfitted.

    ``k_prod_x=1`` gives the ablation without covariate splits, in
    which every leaf holds all observations.
    """
    cfg.validate()
    x, y = _checked_training_data(data)
    builder = _Builder(x, y, cfg)
    root = builder.build_sum(
        Region.unbounded(x.shape[1]),
        np.arange(x.shape[0], dtype=np.int64),
        frozenset(range(y.shape[1])),
    )
    return Circuit(builder.nodes, root, y.shape[1], x.shape[1], replace(cfg))


def _box(region: Region) -> tuple[list, list]:
    # plain lists compare faster than arrays at these sizes, with the same result
    return region.lower.tolist(), region.upper.tolist()


def _check_ids(circuit: Circuit) -> list[str]:
    """The id rule: child ids lie in [0, parent id), no node lists a child
    twice, every node but the root has a parent and the root has none; also
    the node kinds and region widths.

    With ids in topological order, a parent for every other node makes every
    node reachable from the root.
    """
    nodes = circuit.nodes
    n = len(nodes)
    problems: list[str] = []
    parents = [0] * n
    for i, node in enumerate(nodes):
        if not isinstance(node, (SumNode, ProductXNode, ProductYNode, LeafNode)):
            problems.append(f"node {i}: unknown node type {type(node).__name__}")
            continue
        if node.region.n_dims != circuit.n_dims:
            problems.append(f"node {i}: region has {node.region.n_dims} dims, expected {circuit.n_dims}")
        if isinstance(node, LeafNode):
            continue
        if not all(0 <= c < i for c in node.children):
            problems.append(f"node {i}: child ids must lie in [0, {i})")
            continue
        if len(set(node.children)) != len(node.children):
            repeated = next(c for c in node.children if node.children.count(c) > 1)
            problems.append(f"node {i}: lists child {repeated} twice")
        for c in node.children:
            parents[c] += 1
    for i, count in enumerate(parents):
        if i == circuit.root:
            if count:
                problems.append(f"node {i}: the root has a parent")
        elif count == 0:
            problems.append(f"node {i}: no parent, so unreachable from the root")
    return problems


def _check_sum(i: int, node: SumNode, nodes: list, boxes: list, problems: list[str]):
    if len(node.children) < 1:
        problems.append(f"node {i}: sum without children")
        return
    if not np.all(np.isfinite(node.log_weights)):
        problems.append(f"node {i}: non-finite log weights")
        return
    residual = float(np.logaddexp.reduce(node.log_weights))
    if abs(residual) > 1e-12:
        problems.append(f"node {i}: weights sum to exp({residual}) != 1")
    for child in node.children:
        if nodes[child].scope != node.scope:
            problems.append(f"node {i}: sum child {child} changes scope")
        if boxes[child] != boxes[i]:
            problems.append(f"node {i}: sum child {child} changes region")


def _check_product_x(
    i: int, node: ProductXNode, nodes: list, boxes: list, problems: list[str]
):
    if len(node.children) < 2:
        problems.append(f"node {i}: covariate split with fewer than two cells")
        return
    if len(node.child_regions) != len(node.children):
        problems.append(f"node {i}: child_regions length mismatch")
        return
    dim = node.split_dim
    lower, upper = boxes[i]
    if not 0 <= dim < len(lower):
        problems.append(f"node {i}: split dimension {dim} outside [0, {len(lower)})")
        return
    # the stored cells, in order, must tile the region along dim
    edge = lower[dim]
    for child, cell in zip(node.children, node.child_regions):
        if nodes[child].scope != node.scope:
            problems.append(f"node {i}: covariate-split child {child} changes scope")
        cell_box = _box(cell)
        if boxes[child] != cell_box:
            problems.append(f"node {i}: child {child} region disagrees with stored cell")
        cell_lower, cell_upper = cell_box
        if cell_lower[dim] != edge:
            problems.append(f"node {i}: cells leave a gap or overlap at {edge}")
        edge = cell_upper[dim]
        cell_lower[dim], cell_upper[dim] = lower[dim], upper[dim]
        if cell_lower != lower or cell_upper != upper:
            problems.append(f"node {i}: child {child} moves bounds off the split dimension")
    if edge != upper[dim]:
        problems.append(f"node {i}: cells do not end at the region upper bound")


def _check_product_y(
    i: int, node: ProductYNode, nodes: list, boxes: list, problems: list[str]
):
    if len(node.children) < 1:
        problems.append(f"node {i}: output partition without children")
        return
    union: set[int] = set()
    total = 0
    for child in node.children:
        union |= nodes[child].scope
        total += len(nodes[child].scope)
        if boxes[child] != boxes[i]:
            problems.append(f"node {i}: output-partition child {child} changes region")
    if total != len(union) or union != node.scope:
        problems.append(f"node {i}: children do not partition the output scope")


def _check_leaf(circuit: Circuit, i: int, node: LeafNode, problems: list[str]):
    if node.scope != frozenset([node.leaf.scope_output]):
        problems.append(f"node {i}: leaf scope disagrees with its output index")
    if node.leaf.n_dims != circuit.n_dims:
        problems.append(f"node {i}: leaf dimensionality mismatch")
    elif not np.all(node.region.contains_rows(node.leaf.train_x)):
        problems.append(f"node {i}: leaf rows fall outside its region")


def validate(circuit: Circuit) -> list[str]:
    """Structural invariant check; returns human-readable violations (empty when sound).

    One pass in id order. The link checks come first; the per-kind
    checks (smooth sums, tiling covariate splits, output partitions,
    leaves inside their regions) run only when the links are sound.
    """
    nodes = circuit.nodes
    if not 0 <= circuit.root < len(nodes):
        return [f"root id {circuit.root} outside the node array"]
    problems = _check_ids(circuit)
    if problems:
        return problems
    if nodes[circuit.root].scope != frozenset(range(circuit.n_outputs)):
        problems.append(f"root scope is not the {circuit.n_outputs} outputs")
    boxes = [_box(node.region) for node in nodes]
    for i, node in enumerate(nodes):
        if isinstance(node, SumNode):
            _check_sum(i, node, nodes, boxes, problems)
        elif isinstance(node, ProductXNode):
            _check_product_x(i, node, nodes, boxes, problems)
        elif isinstance(node, ProductYNode):
            _check_product_y(i, node, nodes, boxes, problems)
        else:
            _check_leaf(circuit, i, node, problems)
    return problems


def count_induced_trees(circuit: Circuit) -> int:
    """Exact count (python int) of distinct induced trees: one sum child per sum."""
    counts: list[int] = []
    for node in circuit.nodes:
        if isinstance(node, LeafNode):
            counts.append(1)
        elif isinstance(node, SumNode):
            counts.append(sum(counts[c] for c in node.children))
        else:
            total = 1
            for c in node.children:
                total *= counts[c]
            counts.append(total)
    return counts[circuit.root]
