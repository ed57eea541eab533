"""Independent reference implementations used to compute expected values.

Everything here is deliberately naive (dict counting, permutation
enumeration, explicit loops) and shares no code with the package paths it
checks.
"""

from dataclasses import dataclass
from itertools import permutations
from math import comb, fsum, log2, sqrt

import numpy as np


def joint_table_by_rows(path) -> np.ndarray:
    """Joint CSV table filled with one `+=` per data row, in file order."""
    rows = [line.split(",") for line in open(path).read().splitlines()
            if line and not line.startswith("#")][1:]
    configs = [tuple(int(v) for v in row[:-1]) for row in rows]
    table = np.zeros(tuple(max(c[i] for c in configs) + 1
                           for i in range(len(configs[0]))))
    for cfg, row in zip(configs, rows):
        table[cfg] += float(row[-1])
    return table


def h_binary(q: float) -> float:
    """Entropy of a Bernoulli(q) in bits."""
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * log2(q) - (1.0 - q) * log2(1.0 - q)


def entropy_of_counts(counts) -> float:
    total = float(sum(counts))
    h = 0.0
    for c in counts:
        if c > 0:
            h -= (c / total) * log2(c / total)
    return h


def table_entropy(table: np.ndarray, axes) -> float:
    """Entropy of the marginal over `axes`, by explicit enumeration."""
    axes = tuple(axes)
    probs = {}
    for idx in np.ndindex(table.shape):
        p = float(table[idx])
        if p > 0.0:
            key = tuple(idx[a] for a in axes)
            probs[key] = probs.get(key, 0.0) + p
    return -sum(p * log2(p) for p in probs.values() if p > 0.0)


def table_cond_entropy(table: np.ndarray, target_axes, given_axes) -> float:
    """H(target | given) = H(target + given) - H(given), by enumeration."""
    both = tuple(target_axes) + tuple(given_axes)
    return table_entropy(table, both) - table_entropy(table, given_axes)


def shapley_by_permutations(p: int, value) -> list:
    """Average marginal contribution over all p! player orderings.

    `value` maps a frozenset of player indices to the coalition value.
    """
    totals = [0.0] * p
    count = 0
    for order in permutations(range(p)):
        coalition = frozenset()
        prev = value(coalition)
        for player in order:
            coalition = coalition | {player}
            cur = value(coalition)
            totals[player] += cur - prev
            prev = cur
        count += 1
    return [t / count for t in totals]


def weighted_variance(values, weights) -> float:
    """Population variance of coded values under the given weights."""
    w = np.asarray(weights, dtype=float)
    v = np.asarray(values, dtype=float)
    w = w / w.sum()
    mean = float(w @ v)
    return float(w @ ((v - mean) ** 2))


# ---------------------------------------------------------------------------
# Per-subset references for the population layer: one full-table marginal
# per subset mask, one slice of the full table per instance, and the Moebius
# loop over submasks.


def impurity_of(probs, kind: str) -> float:
    """Impurity of a normalized output distribution, by explicit loops."""
    probs = [float(q) for q in probs]
    if kind == "entropy":
        return -sum(q * log2(q) for q in probs if q > 0.0)
    if kind == "gini":
        return 1.0 - sum(q * q for q in probs)
    if kind == "variance":
        mean = sum(y * q for y, q in enumerate(probs))
        return sum(y * y * q for y, q in enumerate(probs)) - mean * mean
    raise ValueError(kind)


def subset_marginal(table: np.ndarray, mask: int) -> np.ndarray:
    """P(X_S, Y) summed straight from the full table (output axis last)."""
    p = table.ndim - 1
    drop = tuple(i for i in range(p) if not (mask >> i) & 1)
    return table.sum(axis=drop) if drop else table


def mean_impurity(table: np.ndarray, mask: int, kind: str) -> float:
    """E[i(Y | X_S)] over the positive contexts of the subset marginal."""
    flat = subset_marginal(table, mask).reshape(-1, table.shape[-1])
    total = 0.0
    for row in flat:
        mass = float(row.sum())
        if mass > 0.0:
            total += mass * impurity_of(row / mass, kind)
    return total


def cond_at(table: np.ndarray, x, mask: int) -> np.ndarray:
    """P(Y | X_S = x_S) from one slice of the full table at x."""
    index = tuple(x[i] if (mask >> i) & 1 else slice(None) for i in range(len(x)))
    dist = table[index].reshape(-1, table.shape[-1]).sum(axis=0)
    return dist / dist.sum()


def mdi_by_moebius(values, p: int) -> list:
    """Per-feature sum over subsets B without m of
    (values[B] - values[B + m]) / (C(p,|B|) (p - |B|)), submask by submask."""
    full = (1 << p) - 1
    scores = []
    for m in range(p):
        bit = 1 << m
        rest = full & ~bit
        acc = 0.0
        sub = rest
        while True:
            k = bin(sub).count("1")
            acc += (values[sub] - values[sub | bit]) / (comb(p, k) * (p - k))
            if sub == 0:
                break
            sub = (sub - 1) & rest
        scores.append(acc)
    return scores


def locally_irrelevant_scan(table: np.ndarray, m: int, x, tol: float) -> bool:
    """True when no subset B of the other features makes
    P(Y | x_B, x_m) differ from P(Y | x_B) by tol or more."""
    bit = 1 << m
    rest = ((1 << len(x)) - 1) & ~bit
    sub = rest
    while True:
        dev = np.abs(cond_at(table, x, sub | bit) - cond_at(table, x, sub))
        if dev.max() >= tol:
            return False
        if sub == 0:
            return True
        sub = (sub - 1) & rest


# ---------------------------------------------------------------------------
# Per-tree references for the forest layer: each tree read as a list of
# node views, each instance walked down it one node at a time, and the
# per-node loops of tree MDI and of the efficiency gap.


@dataclass
class NodeView:
    """One stored node, children as local ids (root 0)."""

    feature: int | None  # None at leaves
    kind: str | None  # "exhaustive" or "threshold"
    threshold: float | None
    children: tuple
    impurity: float
    mass: float
    dist: np.ndarray

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def tree_nodes(packed, index: int = 0) -> list:
    """Node views of tree `index` of a `PackedTrees`, by local id."""
    lo, hi = int(packed.offsets[index]), int(packed.offsets[index + 1])
    views = []
    for i in range(lo, hi):
        f = int(packed.feature[i])
        leaf = f < 0
        views.append(NodeView(
            feature=None if leaf else f,
            kind=None if leaf else (
                "exhaustive" if packed.feature_kinds[f] == "categorical" else "threshold"
            ),
            threshold=None if leaf or np.isnan(packed.threshold[i])
            else float(packed.threshold[i]),
            children=tuple(int(c) - lo for c in packed.children[i] if c >= 0),
            impurity=float(packed.impurity[i]),
            mass=float(packed.mass[i]),
            dist=packed.dist[i],
        ))
    return views


def structure_keys(packed) -> list:
    """Per tree, a byte string of its split features, local child ids and
    thresholds: equal exactly when two trees split alike."""
    keys = []
    for lo, hi in zip(packed.offsets[:-1], packed.offsets[1:]):
        kids = packed.children[lo:hi]
        local = np.where(kids < 0, kids, kids - lo)
        keys.append(packed.feature[lo:hi].tobytes() + local.tobytes()
                    + packed.threshold[lo:hi].tobytes())
    return keys


def efficiency_gap(packed) -> float:
    """Average over trees of root impurity minus the mass-weighted leaf
    impurities, node by node."""
    total = 0.0
    for t in range(packed.n_trees):
        views = tree_nodes(packed, t)
        total += views[0].impurity - sum(
            v.mass * v.impurity for v in views if v.is_leaf
        )
    return total / packed.n_trees


def walk_rows(views, instances):
    """Per-instance move lists [(node, child, feature), ...] in local ids
    of the tree whose node views are `views`.

    A move is recorded only when the instance proceeds to a positive-mass
    child; an unseen category (zero-mass child) ends the list early.
    """
    from impshap.errors import MissingFeatureValue

    for x in instances:
        moves = []
        node = 0
        while not views[node].is_leaf:
            view = views[node]
            f = view.feature
            v = x[f]
            if v is None:
                raise MissingFeatureValue(f"instance lacks a value for feature {f}")
            if view.kind == "exhaustive":
                c = int(v)
                if not 0 <= c < len(view.children):
                    raise MissingFeatureValue(f"feature {f}: category {v!r}")
                child = view.children[c]
                if views[child].mass == 0.0:
                    break
            else:
                child = view.children[0 if float(v) <= view.threshold else 1]
            moves.append((node, child, f))
            node = child
        yield moves


def local_mdi_by_walks(forest, instances) -> np.ndarray:
    acc = np.zeros((len(instances), forest.n_features))
    for t in range(forest.n_trees):
        views = tree_nodes(forest.nodes, t)
        for row, moves in enumerate(walk_rows(views, instances)):
            for node, child, f in moves:
                acc[row, f] += views[node].impurity - views[child].impurity
    return acc / forest.n_trees


def predict_proba_by_walks(forest, instances) -> np.ndarray:
    acc = np.zeros((len(instances), forest.n_classes))
    for t in range(forest.n_trees):
        views = tree_nodes(forest.nodes, t)
        for row, moves in enumerate(walk_rows(views, instances)):
            acc[row] += views[moves[-1][1] if moves else 0].dist
    return acc / forest.n_trees


def saabas_by_walks(forest, instances, classes) -> np.ndarray:
    acc = np.zeros((len(instances), forest.n_features))
    for t in range(forest.n_trees):
        views = tree_nodes(forest.nodes, t)
        for row, moves in enumerate(walk_rows(views, instances)):
            cls = classes[row]
            for node, child, f in moves:
                acc[row, f] += views[child].dist[cls] - views[node].dist[cls]
    return acc / forest.n_trees


def tree_mdi_by_nodes(views, n_features: int) -> np.ndarray:
    """Sum of p(t) i(t) - sum_c p(c) i(c) per split feature, node by node,
    over one tree's node views."""
    scores = np.zeros(n_features)
    for view in views:
        if view.is_leaf:
            continue
        drop = view.mass * view.impurity
        for c in view.children:
            drop -= views[c].mass * views[c].impurity
        scores[view.feature] += drop
    return scores


# ---------------------------------------------------------------------------
# Reference tree builder: one recursive call per node, every node's counts,
# impurity, admissible features and splits recomputed from its row list.
# It reads the package only for the impurity formula and the packed layout.


def grow_trees_recursive(dataset, k, impurity, rngs):
    """`tree.grow_trees` without a memo: one tree per (rng, seed) pair."""
    from array import array

    from impshap.data import CATEGORICAL
    from impshap.errors import EmptyDataset, NoAdmissibleFeature
    from impshap.impurity import check_kind, impurity_from_counts
    from impshap.tree import LEAF, PURITY_EPS, PackedTrees

    if dataset.n_rows == 0:
        raise EmptyDataset("cannot grow a tree from zero rows")
    if dataset.output_meta.kind != CATEGORICAL:
        raise ValueError("output column must be categorical")
    keep = slice(None)
    if dataset.weights is not None:
        keep = np.flatnonzero(dataset.weights > 0.0)
        if keep.size == 0:
            raise EmptyDataset("dataset has zero total weight")
    cols = [col[keep].tolist() for col in dataset.data[:-1]]
    kinds = [c.kind for c in dataset.columns[:-1]]
    arities = [c.arity for c in dataset.columns[:-1]]
    y = dataset.output[keep].tolist()
    w = None if dataset.weights is None else dataset.weights[keep].tolist()
    n_classes = dataset.output_meta.arity
    total_weight = float(len(y)) if w is None else float(sum(w))
    n_rows, n_features = len(y), dataset.n_features
    check_kind(impurity)
    if not 1 <= k <= max(n_features, 1):
        raise ValueError(f"k must be in 1..{n_features}, got {k}")
    categorical = [kd == CATEGORICAL for kd in kinds]

    feat_out, thr_out, child_out = array("i"), array("d"), array("i")
    imp_out, mass_out, dist_out = array("d"), array("d"), array("d")
    width = max([a if c else 2 for c, a in zip(categorical, arities)], default=1)
    no_children = array("i", [LEAF] * width)

    def new_node(impv, massv, distv):
        node_id = len(feat_out)
        feat_out.append(LEAF)
        thr_out.append(float("nan"))
        child_out.extend(no_children)
        imp_out.append(impv)
        mass_out.append(massv)
        dist_out.extend(distv)
        return node_id

    def node_counts(idx):
        counts = [0.0] * n_classes
        for i in idx:
            counts[y[i]] += 1.0 if w is None else w[i]
        return counts

    def admissible_features(idx, used_mask):
        out = []
        for f in range(n_features):
            if categorical[f] and (used_mask >> f) & 1:
                continue
            col = cols[f]
            if any(col[i] != col[idx[0]] for i in idx):
                out.append(f)
        return out

    def best_threshold(idx, f, parent_imp, counts):
        col = cols[f]
        order = sorted(idx, key=col.__getitem__)
        total = sum(counts)
        left = [0.0] * n_classes
        best = None
        for pos in range(1, len(order)):
            i = order[pos - 1]
            left[y[i]] += 1.0 if w is None else w[i]
            v, nxt = col[i], col[order[pos]]
            if v == nxt:
                continue
            right = [counts[c] - left[c] for c in range(n_classes)]
            wl = sum(left)
            wr = total - wl
            gain = parent_imp - (
                wl / total * impurity_from_counts(left, impurity)
                + wr / total * impurity_from_counts(right, impurity)
            )
            if best is None or gain > best[0]:
                best = (gain, (v + nxt) / 2.0, pos)
        if best is None:
            return None
        gain, thr, cut = best
        return gain, thr, (order[:cut], order[cut:])

    def split_categorical(idx, f):
        parts = [[] for _ in range(arities[f])]
        for i in idx:
            parts[cols[f][i]].append(i)
        return parts

    def categorical_gain(parts, parent_imp, parent_weight):
        acc = 0.0
        for part in parts:
            if part:
                c = node_counts(part)
                acc += sum(c) / parent_weight * impurity_from_counts(c, impurity)
        return parent_imp - acc

    def grow(idx, used_mask, at_root=False):
        counts = node_counts(idx)
        node_weight = sum(counts)
        node_imp = impurity_from_counts(counts, impurity)
        dist = [c / node_weight for c in counts]
        node_id = new_node(node_imp, node_weight / total_weight, dist)
        if node_imp < PURITY_EPS:
            return node_id
        admissible = admissible_features(idx, used_mask)
        if not admissible:
            if at_root:
                raise NoAdmissibleFeature("no feature can split the root")
            return node_id
        if len(admissible) <= k:
            candidates = admissible
        elif k == 1:
            candidates = [admissible[rng.randrange(len(admissible))]]
        else:
            candidates = sorted(rng.sample(admissible, k))
        best = None  # (gain, feature, threshold, parts)
        if len(candidates) == 1 and categorical[candidates[0]]:
            f = candidates[0]
            best = (0.0, f, None, split_categorical(idx, f))
        else:
            for f in candidates:  # ascending feature index: ties keep the first
                if categorical[f]:
                    parts = split_categorical(idx, f)
                    cand = (categorical_gain(parts, node_imp, node_weight), f, None, parts)
                else:
                    found = best_threshold(idx, f, node_imp, counts)
                    if found is None:
                        continue
                    cand = (found[0], f, found[1], found[2])
                if best is None or cand[0] > best[0]:
                    best = cand
        if best is None:
            return node_id
        _, f, thr, parts = best
        feat_out[node_id] = f
        kids = []
        if categorical[f]:
            for part in parts:
                if part:
                    kids.append(grow(part, used_mask | (1 << f)))
                else:  # unseen category: zero-mass child with the parent's dist
                    kids.append(new_node(0.0, 0.0, dist))
        else:
            thr_out[node_id] = thr
            for part in parts:
                kids.append(grow(part, used_mask))
        child_out[node_id * width:node_id * width + len(kids)] = array("i", kids)
        return node_id

    offsets, seeds = [0], []
    for rng, seed in rngs:
        grow(list(range(n_rows)), 0, at_root=True)
        offsets.append(len(feat_out))
        seeds.append(seed)
    del grow
    return PackedTrees(
        np.array(feat_out, dtype=np.int32),
        np.array(thr_out),
        np.array(child_out, dtype=np.int32).reshape(-1, width),
        np.array(imp_out),
        np.array(mass_out),
        np.array(dist_out).reshape(-1, n_classes),
        np.array(offsets, dtype=np.int64),
        tuple(seeds), k, impurity, n_rows, tuple(kinds), tuple(arities),
    )


def pearson(xs, ys) -> float:
    """Pearson correlation of two equal-length sequences (not constant)."""
    mx, my = fsum(xs) / len(xs), fsum(ys) / len(ys)
    dx = [x - mx for x in xs]
    dy = [y - my for y in ys]
    sxy = fsum(a * b for a, b in zip(dx, dy))
    return sxy / sqrt(fsum(a * a for a in dx) * fsum(b * b for b in dy))


def average_ranks(xs) -> list:
    """1-based ranks; each run of tied values gets the mean of its ranks."""
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    ranks = [0.0] * len(xs)
    start = 0
    while start < len(order):
        end = start
        while end + 1 < len(order) and xs[order[end + 1]] == xs[order[start]]:
            end += 1
        for i in order[start:end + 1]:
            ranks[i] = (start + end) / 2 + 1
        start = end + 1
    return ranks


def spearman(xs, ys) -> float:
    """Spearman correlation: Pearson of the average ranks."""
    return pearson(average_ranks(xs), average_ranks(ys))
