"""Independent reference implementations used to compute expected values.

Everything here is deliberately naive (dict counting, permutation
enumeration, explicit loops) and shares no code with the package paths it
checks.
"""

from itertools import permutations
from math import comb, log2

import numpy as np


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
# Per-tree references for the forest layer: each instance walked down each
# tree one node at a time through `Tree.node` views, and the per-node loop
# of tree MDI.


def walk_rows(tree, instances):
    """Per-instance move lists [(node, child, feature), ...] in local ids.

    A move is recorded only when the instance proceeds to a positive-mass
    child; an unseen category (zero-mass child) ends the list early.
    """
    from impshap.errors import MissingFeatureValue

    views = [tree.node(i) for i in range(tree.n_nodes)]
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
    for tree in forest.trees:
        imp = tree.impurity
        for row, moves in enumerate(walk_rows(tree, instances)):
            for node, child, f in moves:
                acc[row, f] += imp[node] - imp[child]
    return acc / forest.n_trees


def predict_proba_by_walks(forest, instances) -> np.ndarray:
    acc = np.zeros((len(instances), forest.n_classes))
    for tree in forest.trees:
        for row, moves in enumerate(walk_rows(tree, instances)):
            node = moves[-1][1] if moves else 0
            acc[row] += tree.dist[node]
    return acc / forest.n_trees


def saabas_by_walks(forest, instances, classes) -> np.ndarray:
    acc = np.zeros((len(instances), forest.n_features))
    for tree in forest.trees:
        dist = tree.dist
        for row, moves in enumerate(walk_rows(tree, instances)):
            cls = classes[row]
            for node, child, f in moves:
                acc[row, f] += dist[child][cls] - dist[node][cls]
    return acc / forest.n_trees


def tree_mdi_by_nodes(tree) -> np.ndarray:
    """Sum of p(t) i(t) - sum_c p(c) i(c) per split feature, node by node."""
    scores = np.zeros(tree.n_features)
    for t in range(tree.n_nodes):
        view = tree.node(t)
        if view.is_leaf:
            continue
        drop = view.mass * view.impurity
        for c in view.children:
            child = tree.node(c)
            drop -= child.mass * child.impurity
        scores[view.feature] += drop
    return scores
