"""Forests of randomized trees and the three finite-sample importance
measures: global MDI (per-feature averages of weighted impurity drops),
local MDI (per-instance impurity drops collected along traversed paths),
and the Saabas prediction decomposition.

Tree i of a forest is grown from a private RNG stream derived by hashing
(master seed, i), so results never depend on construction order or
worker scheduling.  A forest keeps its trees packed (`tree.PackedTrees`);
the three path measures each make one `tree.traverse` call.
"""

import hashlib
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import InvalidSetting
from .impurity import ENTROPY
from .tree import PackedTrees, Tree, grow_trees, mdi_by_tree, traverse

LOCAL_MDI = "local-mdi"
SAABAS = "saabas"


def _tree_seed(master_seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{master_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _thread_budget() -> int:
    text = os.environ.get("IMPSHAP_THREADS", "1")
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise InvalidSetting(
            f"IMPSHAP_THREADS must be an integer >= 1, got {text!r}"
        )
    return n


class Forest:
    """An ensemble of trees sharing impurity kind, K and training data,
    stored packed in `nodes`."""

    def __init__(self, nodes: PackedTrees, *, k, impurity, seed):
        if nodes.n_trees < 1:
            raise ValueError("a forest needs at least one tree")
        self.nodes = nodes
        self.k = k
        self.impurity = impurity
        self.seed = seed
        self.n_features = nodes.n_features
        self.n_classes = nodes.n_classes

    @property
    def n_trees(self) -> int:
        return self.nodes.n_trees

    @property
    def trees(self) -> list:
        """A `tree.Tree` slice view per tree, in order, made on each access.
        Nothing in the package reads it; perfbench/tracing.py counts trees,
        nodes and array bytes from it."""
        return [Tree(self.nodes, i) for i in range(self.n_trees)]

    def prior(self) -> np.ndarray:
        """Training class distribution (the shared root distribution)."""
        return self.nodes.dist[0]


def _build_range(dataset, k, impurity, seed, lo, hi) -> PackedTrees:
    seeds = [_tree_seed(seed, i) for i in range(lo, hi)]
    return grow_trees(dataset, k, impurity, ((random.Random(s), s) for s in seeds))


def build_forest(
    dataset: Dataset,
    k: int,
    n_trees: int,
    impurity: str = ENTROPY,
    seed: int = 0,
    n_jobs: int | None = None,
) -> Forest:
    """Grow `n_trees` independent trees; deterministic in (dataset, k,
    n_trees, impurity, seed) whatever the worker count."""
    if n_trees < 1:
        raise ValueError("need at least one tree")
    if n_jobs is None:
        n_jobs = _thread_budget()
    if n_jobs <= 1 or n_trees < 4 * n_jobs:
        nodes = _build_range(dataset, k, impurity, seed, 0, n_trees)
    else:
        bounds = np.linspace(0, n_trees, n_jobs + 1).astype(int)
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            nodes = PackedTrees.concat(pool.map(
                _build_range,
                *zip(*[
                    (dataset, k, impurity, seed, int(lo), int(hi))
                    for lo, hi in zip(bounds[:-1], bounds[1:])
                ]),
            ))
    return Forest(nodes, k=k, impurity=impurity, seed=seed)


def global_mdi(forest: Forest, normalize: bool = False) -> np.ndarray:
    """Per-feature importances averaged over the trees (fixed tree order)."""
    acc = np.cumsum(mdi_by_tree(forest.nodes), axis=0)[-1] / forest.n_trees
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
    instance_ids: tuple
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
            "instance_ids": list(self.instance_ids),
            "scores": self.scores.tolist(),
        }
        if self.classes is not None:
            d["classes"] = list(self.classes)
        return d


def local_mdi(forest: Forest, instances, instance_ids=None) -> LocalImportanceMatrix:
    """Sum of impurity drops i(t) - i(t_child) along each instance's paths,
    per split feature, averaged over trees.  Scores can be negative."""
    imp = forest.nodes.impurity

    def move(buf, pair, row, node, child, f):
        buf[pair, f] += imp[node] - imp[child]

    acc = traverse(forest.nodes, instances, forest.n_features, move=move)
    acc /= forest.n_trees
    return LocalImportanceMatrix(
        scores=acc,
        method=LOCAL_MDI,
        instance_ids=tuple(instance_ids or range(len(instances))),
        k=forest.k,
        impurity=forest.impurity,
        seed=forest.seed,
    )


def predict_proba(forest: Forest, instances) -> np.ndarray:
    """Forest class probabilities: the tree-average of the distribution at
    each instance's reached node (leaf, or truncation point)."""
    dist = forest.nodes.dist

    def end(buf, node):
        buf += dist[node]

    return traverse(forest.nodes, instances, forest.n_classes, end=end) / forest.n_trees


def saabas(
    forest: Forest,
    instances,
    class_index: int | None = None,
    instance_ids=None,
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
    dist = forest.nodes.dist

    def move(buf, pair, row, node, child, f):
        cls = classes[row]
        buf[pair, f] += dist[child, cls] - dist[node, cls]

    acc = traverse(forest.nodes, instances, forest.n_features, move=move)
    acc /= forest.n_trees
    return LocalImportanceMatrix(
        scores=acc,
        method=SAABAS,
        instance_ids=tuple(instance_ids or range(len(instances))),
        k=forest.k,
        impurity=forest.impurity,
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
    mode: str
    methods: tuple
    n_undefined: int = 0
    summary: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
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
    Compares all pairs in a row: O(p^2) memory per row."""
    lower = (a[:, :, None] > a[:, None, :]).sum(axis=2)
    equal = (a[:, :, None] == a[:, None, :]).sum(axis=2)
    return lower + (equal + 1) / 2


def correlation_report(
    a: LocalImportanceMatrix, b: LocalImportanceMatrix, mode: str = "absolute"
) -> CorrelationReport:
    """Instance-wise Pearson and Spearman between two score matrices."""
    if a.scores.shape != b.scores.shape:
        raise ValueError(
            f"shape mismatch: {a.scores.shape} vs {b.scores.shape}"
        )
    if a.instance_ids != b.instance_ids:
        raise ValueError("instance sets differ")
    if mode not in ("absolute", "raw"):
        raise ValueError("mode must be 'absolute' or 'raw'")
    xs = np.abs(a.scores) if mode == "absolute" else a.scores
    ys = np.abs(b.scores) if mode == "absolute" else b.scores
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
        mode=mode,
        methods=(a.method, b.method),
        n_undefined=int(undefined.sum()),
        summary=summary,
    )

