"""Circuit construction over rectangular covariate regions.

The model is a rooted DAG of four node kinds:

* Sum: a mixture whose children all model the same outputs on the
  same region (log weights attached to the edges).
* ProductX: cuts the node's region along one covariate dimension at
  its sorted interior edges; one child per cell.
* ProductY: partitions the node's output scope into disjoint subsets;
  one child per subset.
* Leaf: a single-output GP expert on the node's region.

Nodes live in one array and are addressed by id. The ids are the
topological order: every child id is lower than its parent's, every
node except the root has at least one parent and the root has none (so
the root is the last node). The builder adds children first, and
``validate`` checks this rule for built and loaded circuits alike, so
every bottom-up pass is a plain loop over the ids. Nodes, leaves and
circuits are identities, not values: each compares equal only to
itself, so ``node in circuit.nodes`` and ``circuit.nodes.index(node)``
find that very node.

The split edges are the only stored covariate partition: the root is
unbounded, a sum or an output partition hands its region to its children
and a covariate split cuts it at its edges. The builder sets each
``region`` as it cuts; ``validate`` and the loader derive them top-down.
No node stores its scope either: a leaf models its output and any other
node its children's outputs. ``validate`` derives the scopes bottom-up to
check that sums and covariate splits are smooth and output partitions
decomposable, the validity conditions of a sum-product network.

Leaves are shared. Every split uses half-open boxes, so splitting
dimension a then b gives the same cells as b then a; a leaf's training
rows follow from its region, and the builder keeps one leaf per
(region, output) pair however many output partitions reach it. A shared leaf is one
GP problem, fitted, stored and queried once. Inner nodes are never
shared: each output partition draws its own random split.

A ``Region`` is a value. The half-open rule lives only here: ``_cell_of``
routes values among a split's cells and ``_rows_inside`` finds the rows
inside regions, for building, query routing, ``validate``, save and load.

Construction recursively alternates Sum -> ProductX -> ProductY until
a subset is small enough (at most ``leaf_threshold`` observations) to
hand each remaining output to a GP leaf. Sum children split along the
highest-variance dimensions of their data subset; ProductX splits at
quantiles; ProductY draws a seeded random near-equal partition of the
output scope.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .data_pipeline import Dataset
from .gp_leaf import GpLeaf, KernelHyperparams

# Nothing in the package reads this: the exact density is one linear pass.
# bench/ uses it as its own tree-enumeration limit (ROADMAP.md item 6).
TREE_ENUM_CAP = 10**6

_FIELD_TYPES = {
    "int": (int, np.integer),
    "float": (int, float, np.integer, np.floating),
    "bool": (bool,),
    "str": (str,),
}
_RULES = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"), "lt": (operator.lt, "<"),
          "choices": (lambda value, choices: value in choices, "one of")}


def _check_fields(cfg) -> None:
    """Reject a config value whose type or range disagrees with its field.

    The type is the field's annotation: bools and numbers do not pass for
    each other, reals must be finite and ``Optional`` fields also take
    None; fields of other types are not checked. The range is the field's
    metadata: bounds ``ge``, ``gt`` and ``lt``, and a tuple of ``choices``.
    """
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        optional = f.type.startswith("Optional[")
        kind = f.type[len("Optional["):-1] if optional else f.type
        if kind not in _FIELD_TYPES or (optional and value is None):
            continue
        if (
            isinstance(value, bool) != (kind == "bool")
            or not isinstance(value, _FIELD_TYPES[kind])
            or (kind == "float" and not math.isfinite(value))
        ):
            raise ValueError(f"{f.name} must be of type {kind}, got {value!r}")
        for rule, bound in f.metadata.items():
            holds, phrase = _RULES[rule]
            if not holds(value, bound):
                raise ValueError(f"{f.name} must be {phrase} {bound}, got {value!r}")


@dataclass(frozen=True)
class Region:
    """Axis-aligned box of float tuples, half-open per dimension: lower <= v < upper.

    Equal boxes compare and hash equal. The first cell of any split extends
    to -inf and the last to +inf, so a full partition covers every vector.
    """

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lower, upper = tuple(map(float, self.lower)), tuple(map(float, self.upper))
        if len(lower) != len(upper):
            raise ValueError("lower/upper must be of equal length")
        # NaN compares false, so this one test also rejects NaN bounds
        if not all(lo < hi for lo, hi in zip(lower, upper)):
            raise ValueError("region must satisfy lower < upper in every dimension")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def unbounded(cls, n_dims: int) -> "Region":
        return cls((-math.inf,) * n_dims, (math.inf,) * n_dims)

    def cut(self, dim: int, edges) -> list["Region"]:
        """The cells of this box cut along ``dim`` at the sorted interior ``edges``.

        The edges must increase strictly inside this box's interval: the
        builder's do by construction, and ``_cells`` checks stored ones first.
        Each cell is then this valid box with one interval narrowed, so it is
        set up without the constructor's checks, which were a quarter of the
        cost of deriving every region on save and load.
        """
        bounds = [self.lower[dim], *map(float, edges), self.upper[dim]]
        cells = []
        for lo, hi in zip(bounds, bounds[1:]):
            cell = object.__new__(Region)
            object.__setattr__(cell, "lower", self.lower[:dim] + (lo,) + self.lower[dim + 1:])
            object.__setattr__(cell, "upper", self.upper[:dim] + (hi,) + self.upper[dim + 1:])
            cells.append(cell)
        return cells


def _cell_of(edges: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The cell index of each value among the cells that the sorted ``edges``
    cut. Cells are half-open, so a value equal to an edge goes right, and
    anything at or beyond the last edge goes to the last cell."""
    return edges.searchsorted(values, side="right")


def _rows_inside(regions: list[Region], x: np.ndarray) -> list[np.ndarray]:
    """The rows of ``x`` inside each region, ascending as the builder assigns
    them: one comparison per distinct region, blocks of regions at once."""
    which = {region: k for k, region in enumerate(dict.fromkeys(regions))}
    d = x.shape[1]
    bounds = np.array([r.lower + r.upper for r in which], dtype=float).reshape(-1, 2 * d, 1)
    # reducing over the middle axis of (region, dim, row) keeps numpy's inner loop long
    columns, rows = np.ascontiguousarray(x.T), []
    step = max(1, 2**22 // max(x.size, 1))  # bounds the block's n x d temporaries
    for start in range(0, len(bounds), step):
        block = bounds[start:start + step]
        inside = ((columns >= block[:, :d]) & (columns < block[:, d:])).all(axis=1)
        rows += [row.nonzero()[0] for row in inside]
    return [rows[which[region]] for region in regions]


@dataclass
class StructureConfig:
    """Knobs of the recursive builder.

    k_sum mixture components per sum; k_prod_x covariate cells per
    split; k_prod_y output subsets per partition; leaf_threshold the
    maximum observations a leaf may hold before further splitting.
    k_prod_x=1 or k_prod_y=1 disables that split kind (pass-through).
    """

    k_sum: int = field(default=2, metadata={"ge": 1})
    k_prod_x: int = field(default=2, metadata={"ge": 1})
    k_prod_y: int = field(default=2, metadata={"ge": 1})
    leaf_threshold: int = field(default=500, metadata={"ge": 1})
    rng_seed: int = field(default=0, metadata={"ge": 0})

    def validate(self):
        _check_fields(self)


@dataclass(eq=False)
class SumNode:
    children: list[int]
    log_weights: np.ndarray
    region: Optional[Region] = None

    def __post_init__(self):
        self.log_weights = np.asarray(self.log_weights, dtype=float)
        if self.log_weights.shape != (len(self.children),):
            raise ValueError("one log weight per child required")


@dataclass(eq=False)
class ProductXNode:
    """Cuts its region along ``split_dim`` at the sorted interior ``edges``,
    one fewer than its children; child j holds the j-th cell."""

    children: list[int]
    split_dim: int
    edges: np.ndarray
    region: Optional[Region] = None

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=float)

    @property
    def child_regions(self) -> list[Region]:
        # Only the benchmark's bottom-up recursion reference reads this; the
        # benchmark refresh of ROADMAP.md item 6 should delete it.
        return self.region.cut(self.split_dim, self.edges)


@dataclass(eq=False)
class ProductYNode:
    children: list[int]
    region: Optional[Region] = None


@dataclass(eq=False)
class LeafNode:
    leaf: GpLeaf
    region: Optional[Region] = None


# each node class and its name in ``describe`` and in model files
NODE_KINDS = {
    SumNode: "sum", ProductXNode: "product_x", ProductYNode: "product_y", LeafNode: "leaf"
}


@dataclass(eq=False)
class Circuit:
    """Node array addressed by integer ids in topological order; ``root`` indexes into it."""

    nodes: list
    root: int
    n_outputs: int
    n_dims: int
    config: StructureConfig

    def leaves(self):
        for i, node in enumerate(self.nodes):
            if isinstance(node, LeafNode):
                yield i, node

    def leaf_ids(self) -> list[int]:
        return [i for i, _ in self.leaves()]

    def describe(self) -> dict:
        counts = dict.fromkeys(NODE_KINDS.values(), 0)
        for node in self.nodes:
            counts[NODE_KINDS[type(node)]] += 1
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
        self.leaf_by_key: dict[tuple, int] = {}  # (region, output) -> leaf id

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
        return self.add(SumNode(children, log_w, region))

    def build_prod_x(
        self, region: Region, rows: np.ndarray, scope: frozenset, dim: int
    ) -> int:
        cfg = self.cfg
        if cfg.k_prod_x == 1:
            return self.build_prod_y(region, rows, scope, False)
        vals = self.x[rows, dim]
        fractions = np.arange(1, cfg.k_prod_x) / cfg.k_prod_x
        # quantiles lie between the values' extremes, so inside the region
        thresholds = np.unique(np.quantile(vals, fractions))
        # an empty cell merges into its left neighbour (leading empties into
        # the first populated cell), so only the edges that open a populated
        # cell are kept
        populated = np.unique(_cell_of(thresholds, vals))
        edges = thresholds[populated[1:] - 1]
        if edges.size == 0:
            # one populated cell: no usable split, fall through to outputs
            return self.build_prod_y(region, rows, scope, False)
        cell_of = _cell_of(edges, vals)
        children = [
            self.build_prod_y(cell, rows[cell_of == j], scope, True)
            for j, cell in enumerate(region.cut(dim, edges))
        ]
        return self.add(ProductXNode(children, dim, edges, region))

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
        return self.add(ProductYNode(children, region))

    def add_leaf(self, region: Region, rows: np.ndarray, output: int) -> int:
        """The leaf of (region, output), added on first request and shared after."""
        key = (region, output)
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
        self.leaf_by_key[key] = self.add(LeafNode(leaf, region))
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


def _check_ids(circuit: Circuit) -> list[str]:
    """The id rule: the root id lies in the node array, child ids lie in
    [0, parent id), no node lists a child twice, every node but the root has
    a parent and the root has none; also the node kinds.

    With ids in topological order, a parent for every other node makes every
    node reachable from the root.
    """
    nodes = circuit.nodes
    n = len(nodes)
    if not 0 <= circuit.root < n:
        return [f"root id {circuit.root} outside the node array"]
    problems: list[str] = []
    parents = [0] * n
    for i, node in enumerate(nodes):
        if type(node) not in NODE_KINDS:
            problems.append(f"node {i}: unknown node type {type(node).__name__}")
            continue
        if isinstance(node, LeafNode):
            continue
        children = node.children
        if children and not 0 <= min(children) <= max(children) < i:
            problems.append(f"node {i}: child ids must lie in [0, {i})")
            continue
        if len(set(children)) != len(children):
            repeated = next(c for c in children if children.count(c) > 1)
            problems.append(f"node {i}: lists child {repeated} twice")
        for c in children:
            parents[c] += 1
    for i, count in enumerate(parents):
        if i == circuit.root:
            if count:
                problems.append(f"node {i}: the root has a parent")
        elif count == 0:
            problems.append(f"node {i}: no parent, so unreachable from the root")
    return problems


def _cells(i: int, node: ProductXNode, region: Region, problems: list[str]) -> list[Region]:
    """The cells a covariate split cuts from ``region``; none when its edges cannot cut it."""
    # python floats: a split has few edges, and numpy reductions cost more than the loop
    dim, edges = node.split_dim, node.edges.tolist()
    if len(node.children) < 2:
        problems.append(f"node {i}: covariate split with fewer than two cells")
    elif not 0 <= dim < len(region.lower):
        problems.append(f"node {i}: split dimension {dim} outside [0, {len(region.lower)})")
    elif node.edges.shape != (len(node.children) - 1,):
        problems.append(f"node {i}: {node.edges.size} edges for {len(node.children)} cells")
    elif not all(map(math.isfinite, edges)):
        problems.append(f"node {i}: non-finite edge")
    elif not all(map(operator.lt, edges, edges[1:])):
        problems.append(f"node {i}: edges do not strictly increase")
    elif not region.lower[dim] < edges[0] <= edges[-1] < region.upper[dim]:
        problems.append(f"node {i}: edges leave the region's interval on dimension {dim}")
    else:
        return region.cut(dim, edges)
    return []


def _derive_regions(circuit: Circuit, problems: list[str]) -> list[Optional[Region]]:
    """Every node's region, top-down: descending ids reach every parent first.

    Every parent of a node must derive the same region for it, which is what
    makes a shared leaf sound. Below only unusable edges a node gets None.
    """
    nodes = circuit.nodes
    regions: list[Optional[Region]] = [None] * len(nodes)
    regions[circuit.root] = Region.unbounded(circuit.n_dims)
    for i in range(len(nodes) - 1, -1, -1):
        node, region = nodes[i], regions[i]
        if region is None or isinstance(node, LeafNode):
            continue
        if isinstance(node, ProductXNode):
            cells = _cells(i, node, region, problems)
        else:
            cells = [region] * len(node.children)
        for child, cell in zip(node.children, cells):
            seen = regions[child]
            if seen is None:
                regions[child] = cell
            elif seen != cell:
                problems.append(f"node {child}: its parents derive different regions for it")
    return regions


def _check_nodes(circuit: Circuit, problems: list[str]):
    """Bottom-up: every sum's weights, and every node's scope (the outputs it
    models) derived from its leaves' outputs. The children of a sum or a
    covariate split must model the same outputs, those of an output partition
    disjoint ones, and the root every output."""
    scopes: list[frozenset[int]] = []
    for i, node in enumerate(circuit.nodes):
        if isinstance(node, LeafNode):
            scopes.append(frozenset([node.leaf.scope_output]))
            continue
        parts = [scopes[c] for c in node.children]
        scopes.append(frozenset().union(*parts))
        if not parts:
            problems.append(f"node {i}: no children")
        elif isinstance(node, ProductYNode):
            if sum(map(len, parts)) != len(scopes[i]):
                problems.append(f"node {i}: output-partition children share an output")
        elif any(part != scopes[i] for part in parts):
            problems.append(f"node {i}: children model different outputs")
        if isinstance(node, SumNode) and parts:
            if not np.all(np.isfinite(node.log_weights)):
                problems.append(f"node {i}: non-finite log weights")
            elif abs(residual := float(np.logaddexp.reduce(node.log_weights))) > 1e-12:
                problems.append(f"node {i}: weights sum to exp({residual}) != 1")
    if scopes[circuit.root] != frozenset(range(circuit.n_outputs)):
        problems.append(f"root scope is not the {circuit.n_outputs} outputs")


def validate(circuit: Circuit) -> list[str]:
    """Structural invariant check; returns human-readable violations (empty when
    sound). It also checks that each leaf's training rows lie in its region,
    which a loaded leaf holds by construction."""
    regions, problems = _validated_regions(circuit)
    for i, region in enumerate(regions):
        node = circuit.nodes[i]
        if region is None or not isinstance(node, LeafNode):
            continue
        if node.leaf.n_dims != circuit.n_dims:
            problems.append(f"node {i}: leaf dimensionality mismatch")
        elif _rows_inside([region], node.leaf.train_x)[0].size != node.leaf.n_train:
            problems.append(f"node {i}: leaf rows fall outside its region")
    return problems


def _validated_regions(circuit: Circuit) -> tuple[list[Optional[Region]], list[str]]:
    """The stored structure's check: every node's derived region and the violations.

    The rest runs only when the links are sound. Regions and scopes are
    derived, never compared with a copy, so only what the edges and the
    leaves' outputs do not guarantee is checked.
    """
    problems = _check_ids(circuit)
    if problems:
        return [], problems
    _check_nodes(circuit, problems)
    return _derive_regions(circuit, problems), problems


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
