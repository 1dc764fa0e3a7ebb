"""Circuit construction over rectangular covariate regions.

The model is a rooted tree of four node kinds:

* Sum: a mixture whose children all model the same outputs on the
  same region (log weights attached to the edges).
* ProductX: partitions the node's region into cells along one
  covariate dimension; one child per cell.
* ProductY: partitions the node's output scope into disjoint subsets;
  one child per subset.
* Leaf: a single-output GP expert on the node's region.

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
from scipy.special import logsumexp

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

    def same_as(self, other: "Region") -> bool:
        return np.array_equal(self.lower, other.lower) and np.array_equal(
            self.upper, other.upper
        )


@dataclass
class StructureConfig:
    """Knobs of the recursive builder.

    k_sum mixture components per sum; k_prod_x covariate cells per
    split; k_prod_y output subsets per partition; leaf_threshold the
    maximum observations a leaf may hold before further splitting.
    k_prod_x=1 or k_prod_y=1 disables that split kind (pass-through).
    quantile_mode chooses empirical data quantiles ("data") or evenly
    spaced interval fractions ("interval") as split thresholds.
    """

    k_sum: int = 2
    k_prod_x: int = 2
    k_prod_y: int = 2
    leaf_threshold: int = 500
    rng_seed: int = 0
    quantile_mode: str = "data"

    def validate(self):
        for name, low in (
            ("k_sum", 1), ("k_prod_x", 1), ("k_prod_y", 1), ("leaf_threshold", 1), ("rng_seed", 0)
        ):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.quantile_mode not in ("data", "interval"):
            raise ValueError(
                f"quantile_mode must be 'data' or 'interval', got {self.quantile_mode!r}"
            )


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
    """Node array addressed by integer ids; ``root`` indexes into it."""

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

    def topo_order(self) -> list[int]:
        """Ids in child-before-parent order, restricted to nodes reachable from the root."""
        order: list[int] = []
        seen = set()
        stack = [(self.root, False)]
        while stack:
            node_id, expanded = stack.pop()
            if expanded:
                order.append(node_id)
                continue
            if node_id in seen:
                continue
            seen.add(node_id)
            stack.append((node_id, True))
            node = self.nodes[node_id]
            if not isinstance(node, LeafNode):
                for child in node.children:
                    stack.append((child, False))
        return order

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
        if cfg.quantile_mode == "data":
            raw = np.quantile(vals, fractions)
        else:
            lo, hi = float(region.lower[dim]), float(region.upper[dim])
            if not (math.isfinite(lo) and math.isfinite(hi)):
                lo, hi = float(vals.min()), float(vals.max())
            raw = lo + (hi - lo) * fractions
        thresholds = np.unique(raw)
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
        hyper = KernelHyperparams(
            np.zeros(self.x.shape[1]), 0.0, _DEFAULT_LOG_NOISE
        )
        leaf = GpLeaf(
            scope_output=output,
            train_x=self.x[rows],
            train_y=self.y[rows, output],
            hyperparams=hyper,
            region=region,
            row_idx=rows.copy(),
        )
        return self.add(LeafNode(leaf, frozenset([output]), region, int(rows.size)))


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


def _check_sum(circuit: Circuit, i: int, node: SumNode, problems: list[str]):
    if len(node.children) < 1:
        problems.append(f"node {i}: sum without children")
        return
    if not np.all(np.isfinite(node.log_weights)):
        problems.append(f"node {i}: non-finite log weights")
        return
    residual = float(logsumexp(node.log_weights))
    if abs(residual) > 1e-12:
        problems.append(f"node {i}: weights sum to exp({residual}) != 1")
    for child in node.children:
        child_node = circuit.nodes[child]
        if child_node.scope != node.scope:
            problems.append(f"node {i}: sum child {child} changes scope")
        if not child_node.region.same_as(node.region):
            problems.append(f"node {i}: sum child {child} changes region")


def _check_product_x(circuit: Circuit, i: int, node: ProductXNode, problems: list[str]):
    if len(node.children) < 2:
        problems.append(f"node {i}: covariate split with fewer than two cells")
        return
    if len(node.child_regions) != len(node.children):
        problems.append(f"node {i}: child_regions length mismatch")
        return
    dim = node.split_dim
    for child, stored_region in zip(node.children, node.child_regions):
        child_node = circuit.nodes[child]
        if child_node.scope != node.scope:
            problems.append(f"node {i}: covariate-split child {child} changes scope")
        if not child_node.region.same_as(stored_region):
            problems.append(
                f"node {i}: child {child} region disagrees with stored cell"
            )
        other = np.arange(node.region.n_dims) != dim
        if not (
            np.array_equal(child_node.region.lower[other], node.region.lower[other])
            and np.array_equal(child_node.region.upper[other], node.region.upper[other])
        ):
            problems.append(
                f"node {i}: child {child} moves bounds off the split dimension"
            )
    cells = sorted(
        (float(r.lower[dim]), float(r.upper[dim])) for r in node.child_regions
    )
    if cells[0][0] != float(node.region.lower[dim]):
        problems.append(f"node {i}: cells do not start at the region lower bound")
    if cells[-1][1] != float(node.region.upper[dim]):
        problems.append(f"node {i}: cells do not end at the region upper bound")
    for (_, hi_a), (lo_b, _) in zip(cells, cells[1:]):
        if hi_a != lo_b:
            problems.append(f"node {i}: cells leave a gap or overlap at {hi_a}")


def _check_product_y(circuit: Circuit, i: int, node: ProductYNode, problems: list[str]):
    if len(node.children) < 1:
        problems.append(f"node {i}: output partition without children")
        return
    union: set[int] = set()
    total = 0
    for child in node.children:
        child_node = circuit.nodes[child]
        union |= set(child_node.scope)
        total += len(child_node.scope)
        if not child_node.region.same_as(node.region):
            problems.append(f"node {i}: output-partition child {child} changes region")
    if total != len(union) or union != set(node.scope):
        problems.append(f"node {i}: children do not partition the output scope")


def validate(circuit: Circuit) -> list[str]:
    """Structural invariant check; returns human-readable violations (empty when sound)."""
    problems: list[str] = []
    n = len(circuit.nodes)
    if not 0 <= circuit.root < n:
        return [f"root id {circuit.root} out of range"]

    # rooted-tree shape: every node reached exactly once, no id reused
    seen: set[int] = set()
    stack = [circuit.root]
    while stack:
        node_id = stack.pop()
        if not 0 <= node_id < n:
            problems.append(f"child id {node_id} out of range")
            continue
        if node_id in seen:
            problems.append(f"node {node_id}: reached twice (not a tree)")
            continue
        seen.add(node_id)
        node = circuit.nodes[node_id]
        if not isinstance(node, LeafNode):
            stack.extend(node.children)
    unreachable = set(range(n)) - seen
    for node_id in sorted(unreachable):
        problems.append(f"node {node_id}: unreachable from root")

    for i in sorted(seen):
        node = circuit.nodes[i]
        if isinstance(node, SumNode):
            _check_sum(circuit, i, node, problems)
        elif isinstance(node, ProductXNode):
            _check_product_x(circuit, i, node, problems)
        elif isinstance(node, ProductYNode):
            _check_product_y(circuit, i, node, problems)
        elif isinstance(node, LeafNode):
            if node.scope != frozenset([node.leaf.scope_output]):
                problems.append(f"node {i}: leaf scope disagrees with its output index")
            if node.leaf.n_dims != circuit.n_dims:
                problems.append(f"node {i}: leaf dimensionality mismatch")
            inside = node.region.contains_rows(node.leaf.train_x)
            if not bool(np.all(inside)):
                problems.append(f"node {i}: training rows outside the leaf region")
        else:
            problems.append(f"node {i}: unknown node type {type(node).__name__}")
    return problems


def count_induced_trees(circuit: Circuit) -> int:
    """Exact count (python int) of distinct induced trees: one sum child per sum."""
    counts: dict[int, int] = {}
    for node_id in circuit.topo_order():
        node = circuit.nodes[node_id]
        if isinstance(node, LeafNode):
            counts[node_id] = 1
        elif isinstance(node, SumNode):
            counts[node_id] = sum(counts[c] for c in node.children)
        else:
            total = 1
            for c in node.children:
                total *= counts[c]
            counts[node_id] = total
    return counts[circuit.root]
