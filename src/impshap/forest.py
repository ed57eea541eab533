"""Forests of randomized trees and the three finite-sample importance
measures: global MDI (per-feature averages of weighted impurity drops),
local MDI (per-instance impurity drops collected along traversed paths),
and the Saabas prediction decomposition.

Tree i of a forest draws from its own key, hashed from (master seed, i)
(`tree.tree_keys`), and each of its nodes from (key, node, slot), so
results never depend on construction order or worker scheduling.
`build_forests` grows the forests of a K sweep one after another from one
array of tree keys and one graph of node states (`tree.StateGraph`), so
the sweep computes each state once; `build_forest` is the sweep of one K.
A forest is its packed trees (`tree.PackedTrees`), which store each
distinct tree once and record K, the impurity kind and the master seed;
every measure averages over all `n_trees` trees.  The three path measures each key
their instances once (`tree.Instances`) and walk only the distinct ones
with `tree.traverse`; local scores stay per distinct instance, with each
instance's index into them, in a `LocalImportanceMatrix`.
"""

from dataclasses import dataclass, field
from math import isnan

import numpy as np

from .data import Dataset
from .impurity import ENTROPY
from .tree import (Instances, PackedTrees, StateGraph, grow_trees, mdi_by_tree,
                   traverse, tree_keys)

LOCAL_MDI = "local-mdi"
SAABAS = "saabas"


def build_forests(
    dataset: Dataset,
    ks,
    n_trees: int,
    impurity: str = ENTROPY,
    seed: int = 0,
    n_jobs: int = 1,
):
    """Yield the forest of each K of `ks`, in order, each grown only when
    it is asked for: `n_trees` independent trees, deterministic in
    (dataset, k, n_trees, impurity, seed) whatever the worker count.  A
    forest whose size bound passes `tree.GROWTH_BUDGET` is refused before
    any key is made.  Every K grows on one `StateGraph` from the same tree
    keys, so a sweep computes each node state and split once.  With
    `n_jobs` > 1 each K's trees grow in a pool of that many processes,
    kept for the sweep, each on a contiguous slice of the keys; a tree is
    then stored once per slice it repeats in."""
    if n_trees < 1:
        raise ValueError("need at least one tree")
    graph = StateGraph(dataset, impurity)
    graph.ctx.check_size(n_trees)
    keys = tree_keys(seed, n_trees)
    if n_jobs <= 1 or n_trees < 4 * n_jobs:
        for k in ks:
            yield grow_trees(graph, k, keys, seed)
        return
    # imported here, so processes that never use the pool do not load it
    from concurrent.futures import ProcessPoolExecutor

    bounds = np.linspace(0, n_trees, n_jobs + 1).astype(int)
    chunks = [keys[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        for k in ks:
            yield PackedTrees.concat(pool.map(
                grow_trees, [graph] * n_jobs, [k] * n_jobs, chunks, [seed] * n_jobs))


def build_forest(
    dataset: Dataset,
    k: int,
    n_trees: int,
    impurity: str = ENTROPY,
    seed: int = 0,
    n_jobs: int = 1,
) -> PackedTrees:
    """The forest of one K: `build_forests` of [k]."""
    return next(build_forests(dataset, [k], n_trees, impurity, seed, n_jobs))


def global_mdi(forest: PackedTrees, normalize: bool = False) -> np.ndarray:
    """Per-feature importances averaged over the trees (fixed tree order)."""
    acc = np.cumsum(mdi_by_tree(forest), axis=0)[-1] / forest.n_trees
    if normalize:
        total = np.abs(acc).sum()
        if total > 0.0:
            acc = acc / total
    return acc


@dataclass
class LocalImportanceMatrix:
    """Instance-by-feature local scores plus provenance.

    The scores are kept once per distinct instance: instance i scored
    `rows[inverse[i]]`."""

    rows: np.ndarray  # (n_distinct, n_features)
    method: str  # LOCAL_MDI or SAABAS
    k: int
    impurity: str
    seed: int
    inverse: np.ndarray  # (n_instances,)
    classes: tuple | None = None  # saabas: decomposed class per instance

    @property
    def scores(self) -> np.ndarray:
        """The (n_instances, n_features) matrix, expanded on each read."""
        return self.rows[self.inverse]

    @property
    def n_instances(self) -> int:
        return len(self.inverse)

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]

    def to_json_dict(self) -> dict:
        """Duplicate instances share one row list, so a writer can tell
        them by identity."""
        rows = self.rows.tolist()
        d = {
            "method": self.method,
            "k": self.k,
            "impurity": self.impurity,
            "seed": self.seed,
            "instance_ids": list(range(self.n_instances)),
            "scores": [rows[j] for j in self.inverse.tolist()],
        }
        if self.classes is not None:
            d["classes"] = list(self.classes)
        return d


def local_mdi(forest: PackedTrees, instances) -> LocalImportanceMatrix:
    """Sum of impurity drops i(t) - i(t_child) along each instance's paths,
    per split feature, averaged over trees.  Scores can be negative."""
    imp = forest.impurity
    keyed = Instances(instances, forest.n_features)

    def move(buf, pair, row, node, child, f):
        buf[pair, f] += imp[node] - imp[child]

    acc = traverse(forest, keyed, forest.n_features, move=move)
    acc /= forest.n_trees
    return LocalImportanceMatrix(
        rows=acc,
        method=LOCAL_MDI,
        k=forest.k,
        impurity=forest.impurity_kind,
        seed=forest.seed,
        inverse=keyed.inverse,
    )


def _proba(forest: PackedTrees, keyed: Instances) -> np.ndarray:
    """`predict_proba` of each distinct row of `keyed`."""
    dist = forest.dist

    def end(buf, node):
        buf += dist[node]

    return traverse(forest, keyed, forest.n_classes, end=end) / forest.n_trees


def predict_proba(forest: PackedTrees, instances) -> np.ndarray:
    """Forest class probabilities: the tree-average of the distribution at
    each instance's reached node (leaf, or truncation point)."""
    keyed = Instances(instances, forest.n_features)
    return _proba(forest, keyed)[keyed.inverse]


def saabas(
    forest: PackedTrees, instances, class_index: int | None = None
) -> LocalImportanceMatrix:
    """Changes in the probability of one class collected along paths.

    The class is `class_index`, or when None the forest's predicted class
    per instance (ties to the lowest class).  Per instance, the scores plus
    the training prior of the class sum to the forest probability of that
    class.
    """
    if class_index is not None and not 0 <= class_index < forest.n_classes:
        raise ValueError(
            f"class index {class_index} outside 0..{forest.n_classes - 1}"
        )
    keyed = Instances(instances, forest.n_features)
    if class_index is None:
        classes = _proba(forest, keyed).argmax(axis=1)
    else:
        classes = np.full(len(keyed.x), class_index, dtype=int)
    dist = forest.dist

    def move(buf, pair, row, node, child, f):
        cls = classes[row]
        buf[pair, f] += dist[child, cls] - dist[node, cls]

    acc = traverse(forest, keyed, forest.n_features, move=move)
    acc /= forest.n_trees
    return LocalImportanceMatrix(
        rows=acc,
        method=SAABAS,
        k=forest.k,
        impurity=forest.impurity_kind,
        seed=forest.seed,
        classes=tuple(classes[keyed.inverse].tolist()),
        inverse=keyed.inverse,
    )


@dataclass
class CorrelationReport:
    """Per-instance rank and linear correlation of two local score matrices.

    Instances where either vector is constant have undefined correlation;
    they are excluded from the aggregates and counted.
    """

    pearson: np.ndarray  # NaN where undefined
    spearman: np.ndarray
    methods: tuple
    n_undefined: int = 0
    summary: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "mode": "absolute",
            "methods": list(self.methods),
            "pearson": [None if isnan(v) else v for v in self.pearson.tolist()],
            "spearman": [None if isnan(v) else v for v in self.spearman.tolist()],
            "n_undefined": self.n_undefined,
            "summary": self.summary,
        }


def _row_pearson(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pearson correlation of each row of `x` with the same row of `y`;
    no row may be constant.  Centred rows are scaled by their largest
    magnitude first, so the sums of squares neither underflow nor overflow."""
    x = x - x.mean(axis=1, keepdims=True)
    y = y - y.mean(axis=1, keepdims=True)
    x /= np.abs(x).max(axis=1, keepdims=True)
    y /= np.abs(y).max(axis=1, keepdims=True)
    r = np.einsum("ij,ij->i", x, y) / np.sqrt(
        np.einsum("ij,ij->i", x, x) * np.einsum("ij,ij->i", y, y)
    )
    return np.clip(r, -1.0, 1.0)


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks within each row; tied values share their mean rank.

    One stable argsort per row, O(n p) memory.  A run of equal values at
    sorted positions first..last (0-based) gets (first + last) / 2 + 1,
    an integer or a half, so the ranks are exact.  NaN sorts last and,
    equal to nothing, gets a rank of its own; scores from forests are
    finite.
    """
    n, p = a.shape
    order = np.argsort(a, axis=1, kind="stable")
    ranked = np.take_along_axis(a, order, axis=1)
    pos = np.broadcast_to(np.arange(p), (n, p))
    starts = np.ones((n, p), dtype=bool)
    starts[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    ends = np.ones((n, p), dtype=bool)
    ends[:, :-1] = starts[:, 1:]
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=1)
    last = np.minimum.accumulate(np.where(ends, pos, p)[:, ::-1], axis=1)[:, ::-1]
    ranks = np.empty((n, p))
    np.put_along_axis(ranks, order, (first + last) / 2 + 1, axis=1)
    return ranks


def correlation_report(
    a: LocalImportanceMatrix, b: LocalImportanceMatrix
) -> CorrelationReport:
    """Instance-wise Pearson and Spearman between the absolute values of two
    score matrices.  Each distinct pair (row of a, row of b) that some
    instance scored is correlated once."""
    shapes = [(m.n_instances, m.n_features) for m in (a, b)]
    if shapes[0] != shapes[1]:
        raise ValueError(f"shape mismatch: {shapes[0]} vs {shapes[1]}")
    n_b = len(b.rows)
    pairs, inverse = np.unique(a.inverse * n_b + b.inverse, return_inverse=True)
    xs, ys = np.abs(a.rows[pairs // n_b]), np.abs(b.rows[pairs % n_b])
    undefined = (np.ptp(xs, axis=1) == 0.0) | (np.ptp(ys, axis=1) == 0.0)
    xs, ys = xs[~undefined], ys[~undefined]
    pearson = np.full(len(undefined), np.nan)
    spearman = np.full(len(undefined), np.nan)
    pearson[~undefined] = _row_pearson(xs, ys)
    spearman[~undefined] = _row_pearson(_average_ranks(xs), _average_ranks(ys))
    pearson, spearman, undefined = pearson[inverse], spearman[inverse], undefined[inverse]
    summary = {}
    for label, arr in (("pearson", pearson), ("spearman", spearman)):
        ok = arr[~np.isnan(arr)]
        summary[label] = {
            "mean": float(ok.mean()) if ok.size else None,
            "min": float(ok.min()) if ok.size else None,
            "max": float(ok.max()) if ok.size else None,
        }
    return CorrelationReport(
        pearson=pearson,
        spearman=spearman,
        methods=(a.method, b.method),
        n_undefined=int(undefined.sum()),
        summary=summary,
    )

