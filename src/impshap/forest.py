"""Forests of randomized trees and the three finite-sample importance
measures: global MDI (per-feature averages of weighted impurity drops),
local MDI (per-instance impurity drops collected along traversed paths),
and the Saabas prediction decomposition.

Tree i of a forest is grown from a private RNG stream derived by hashing
(master seed, i), so results never depend on construction order or
worker scheduling.  The streams are read once into a table of 32-bit
words (`tree.TreeStreams`) that every build given it replays, and node
states are computed once into a `tree.StateGraph` that every build given
it grows on, so a K sweep hashes and seeds each stream, and computes each
state, once.  A forest is its packed trees (`tree.PackedTrees`), which
record K, the impurity kind and the master seed; the three path measures
each make one `tree.traverse` call.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .impurity import ENTROPY
from .tree import PackedTrees, StateGraph, TreeStreams, grow_trees, mdi_by_tree, traverse

LOCAL_MDI = "local-mdi"
SAABAS = "saabas"


def _tree_seed(master_seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{master_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def build_forest(
    dataset: Dataset,
    k: int,
    n_trees: int,
    impurity: str = ENTROPY,
    seed: int = 0,
    n_jobs: int = 1,
    streams: TreeStreams | None = None,
    graph: StateGraph | None = None,
) -> PackedTrees:
    """Grow `n_trees` independent trees; deterministic in (dataset, k,
    n_trees, impurity, seed) whatever the worker count.  A forest whose
    size bound passes `tree.GROWTH_BUDGET` is refused before any growth.
    Tree i draws from row i of `streams`, from its first word.  `streams`
    holds the rows of master seed `seed` (others raise ValueError); after
    the size check this call extends it to `n_trees` rows, so builds that
    share it hash and seed each stream once.  `graph` is the `StateGraph`
    of `dataset` and `impurity` (others raise ValueError); builds that
    share it compute each node state and split once."""
    if n_trees < 1:
        raise ValueError("need at least one tree")
    if streams is None:
        streams = TreeStreams()
    elif len(streams) and streams.seeds[0] != _tree_seed(seed, 0):
        raise ValueError(f"tree streams of another master seed than {seed}")
    if graph is None:
        graph = StateGraph(dataset, impurity)
    elif graph.dataset is not dataset or graph.impurity != impurity:
        raise ValueError("a state graph of another dataset or impurity")
    graph.ctx.check_size(n_trees)
    streams.extend(_tree_seed(seed, i) for i in range(len(streams), n_trees))
    if len(streams) > n_trees:
        streams = streams[:n_trees]
    if n_jobs <= 1 or n_trees < 4 * n_jobs:
        return grow_trees(graph, k, impurity, streams, seed)
    # imported here, so processes that never use the pool do not load it
    from concurrent.futures import ProcessPoolExecutor

    bounds = np.linspace(0, n_trees, n_jobs + 1).astype(int)
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        return PackedTrees.concat(pool.map(
            grow_trees,
            *zip(*[
                (graph.ctx, k, impurity, streams[lo:hi], seed)
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]),
        ))


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
    """Instance-by-feature local scores plus provenance."""

    scores: np.ndarray  # (n_instances, n_features)
    method: str  # LOCAL_MDI or SAABAS
    k: int
    impurity: str
    seed: int
    classes: tuple | None = None  # saabas: decomposed class per instance

    @property
    def n_instances(self) -> int:
        return self.scores.shape[0]

    @property
    def n_features(self) -> int:
        return self.scores.shape[1]

    def to_json_dict(self) -> dict:
        d = {
            "method": self.method,
            "k": self.k,
            "impurity": self.impurity,
            "seed": self.seed,
            "instance_ids": list(range(self.n_instances)),
            "scores": self.scores.tolist(),
        }
        if self.classes is not None:
            d["classes"] = list(self.classes)
        return d


def local_mdi(forest: PackedTrees, instances) -> LocalImportanceMatrix:
    """Sum of impurity drops i(t) - i(t_child) along each instance's paths,
    per split feature, averaged over trees.  Scores can be negative."""
    imp = forest.impurity

    def move(buf, pair, row, node, child, f):
        buf[pair, f] += imp[node] - imp[child]

    acc = traverse(forest, instances, forest.n_features, move=move)
    acc /= forest.n_trees
    return LocalImportanceMatrix(
        scores=acc,
        method=LOCAL_MDI,
        k=forest.k,
        impurity=forest.impurity_kind,
        seed=forest.seed,
    )


def predict_proba(forest: PackedTrees, instances) -> np.ndarray:
    """Forest class probabilities: the tree-average of the distribution at
    each instance's reached node (leaf, or truncation point)."""
    dist = forest.dist

    def end(buf, node):
        buf += dist[node]

    return traverse(forest, instances, forest.n_classes, end=end) / forest.n_trees


def saabas(
    forest: PackedTrees, instances, class_index: int | None = None
) -> LocalImportanceMatrix:
    """Changes in the probability of one class collected along paths.

    The class is `class_index`, or when None the forest's predicted class
    per instance (ties to the lowest class).  Per instance, the scores plus
    the training prior of the class sum to the forest probability of that
    class.
    """
    if class_index is None:
        classes = predict_proba(forest, instances).argmax(axis=1)
    elif 0 <= class_index < forest.n_classes:
        classes = np.full(len(instances), class_index, dtype=int)
    else:
        raise ValueError(
            f"class index {class_index} outside 0..{forest.n_classes - 1}"
        )
    dist = forest.dist

    def move(buf, pair, row, node, child, f):
        cls = classes[row]
        buf[pair, f] += dist[child, cls] - dist[node, cls]

    acc = traverse(forest, instances, forest.n_features, move=move)
    acc /= forest.n_trees
    return LocalImportanceMatrix(
        scores=acc,
        method=SAABAS,
        k=forest.k,
        impurity=forest.impurity_kind,
        seed=forest.seed,
        classes=tuple(int(c) for c in classes),
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
            "pearson": [None if np.isnan(v) else float(v) for v in self.pearson],
            "spearman": [None if np.isnan(v) else float(v) for v in self.spearman],
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
    score matrices."""
    if a.scores.shape != b.scores.shape:
        raise ValueError(
            f"shape mismatch: {a.scores.shape} vs {b.scores.shape}"
        )
    xs, ys = np.abs(a.scores), np.abs(b.scores)
    undefined = (np.ptp(xs, axis=1) == 0.0) | (np.ptp(ys, axis=1) == 0.0)
    xs, ys = xs[~undefined], ys[~undefined]
    pearson = np.full(len(undefined), np.nan)
    spearman = np.full(len(undefined), np.nan)
    pearson[~undefined] = _row_pearson(xs, ys)
    spearman[~undefined] = _row_pearson(_average_ranks(xs), _average_ranks(ys))
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

