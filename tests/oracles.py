"""Independent reference implementations used to compute expected values.

Everything here is deliberately naive (dict counting, permutation
enumeration, explicit loops) and shares no code with the package paths it
checks.  The reference CSV reader builds its results with the package's
Dataset and JointDistribution, but reads every cell itself.  The former
package paths kept here as bit-for-bit references (the subset-by-subset
lattice walk, the single-game Shapley loop) share the package's per-context
scoring and Shapley weights, so that only the layout they check differs.
"""

import csv
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, fsum, log2, sqrt
from pathlib import Path

import numpy as np

from impshap.data import CATEGORICAL, MAX_ARITY, NUMERIC, ColumnMeta, Dataset
from impshap.errors import ArityOverflow, EmptyDataset, ParseError
from impshap.impurity import SubsetLattice, _context_impurities
from impshap.info_theory import (
    JointDistribution,
    cell_sums,
    joint_from_samples,
    subset_sizes,
)
from impshap.tu_game import shapley_weights


def joint_table_by_rows(path) -> np.ndarray:
    """Joint CSV table filled with one `+=` per data row, in file order."""
    rows = [line.split(",") for line in Path(path).read_text().splitlines()
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


def shapley_by_marginals(values) -> np.ndarray:
    """Payoffs of one game as `tu_game.shapley_exact` summed them before it
    took batches: per player, one dot of the weights with a 1-D array of
    marginal contributions."""
    values = np.asarray(values, dtype=np.float64)
    p = values.size.bit_length() - 1
    weights = np.array(shapley_weights(p))
    sizes = subset_sizes(p)
    masks = np.arange(1 << p)
    payoffs = np.empty(p)
    for m in range(p):
        without = masks[(masks >> m) & 1 == 0]
        mc = values[without | (1 << m)] - values[without]
        payoffs[m] = float(weights[sizes[without]] @ mc)
    return payoffs


def shapley_weights_exact(p: int) -> list:
    """|S|!(p-|S|-1)!/p! for each coalition size, each rounded once from
    an exact Fraction."""
    return [float(Fraction(factorial(k) * factorial(p - k - 1), factorial(p)))
            for k in range(p)]


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


def subset_lattice_dfs(j, kind: str, instances=None):
    """The walk `impurity.subset_lattice` made before it scored blocks.

    One visit per subset: each marginal is its parent's with one axis
    summed out, queued, and scored about 2^13 cells at a time with the
    package's own `_context_impurities`, so that the block walk can be
    required to match it bit for bit; one dot per subset for the mean and
    one index loop per subset for the instance tables.
    """
    p, n_y = j.p, j.output_arity
    n = 0 if instances is None else len(instances)
    if n:
        xs, prob = j.instance_probs(instances)
    else:
        xs, prob = np.empty((0, p), dtype=np.intp), np.empty(0)
    arities = j.input_arities
    mean = np.empty(1 << p)
    at = np.empty((n, 1 << p))
    cond = np.empty((n, 1 << p, n_y))
    queue = []
    queued = 0

    def flush():
        rows = [flat for _, _, flat in queue]
        ctx, c, per_ctx = _context_impurities(
            rows[0] if len(rows) == 1 else np.concatenate(rows), kind
        )
        lo = 0
        for mask, members, flat in queue:
            hi = lo + len(flat)
            mean[mask] = ctx[lo:hi] @ per_ctx[lo:hi]
            if n:
                idx = np.zeros(n, dtype=np.intp)
                for i in members:
                    idx = idx * arities[i] + xs[:, i]
                idx += lo
                at[:, mask] = per_ctx[idx]
                cond[:, mask] = c[idx]
            lo = hi
        queue.clear()

    def visit(table, mask, members, limit):
        nonlocal queued
        queue.append((mask, members, table.reshape(-1, n_y)))
        queued += table.size
        if queued >= 1 << 13:
            flush()
            queued = 0
        for axis, i in enumerate(members):
            if i >= limit:
                break
            child = members[:axis] + members[axis + 1:]
            visit(table.sum(axis=axis), mask & ~(1 << i), child, i)

    visit(j.table, (1 << p) - 1, tuple(range(p)), p)
    if queue:
        flush()
    return SubsetLattice(kind, mean, xs, prob, at, cond)


def dependence_witness_loop(j, m: int, b_mask: int, tol: float):
    """What `relevance._dependence_witness` returns, one context and one
    value of x_m at a time, in C order over the contexts."""
    members = tuple(i for i in range(j.p) if (b_mask >> i) & 1)
    ctx_joint = j.marginal(b_mask | (1 << m) | (1 << j.p))
    all_vars = sorted(members + (m,))
    table = np.moveaxis(ctx_joint, all_vars.index(m), -2)
    ctx_shape = table.shape[:-2]
    flat = table.reshape(-1, j.arities[m], j.output_arity)
    p_ctx = flat.sum(axis=(1, 2))
    for c in range(flat.shape[0]):
        if p_ctx[c] <= 0.0:
            continue
        base = flat[c].sum(axis=0) / p_ctx[c]
        for xm in range(j.arities[m]):
            p_xm = flat[c, xm].sum()
            if p_xm <= 0.0:
                continue
            cond = flat[c, xm] / p_xm
            dev = np.abs(cond - base)
            y = int(dev.argmax())
            if dev[y] >= tol:
                ctx_values = np.unravel_index(c, ctx_shape) if ctx_shape else ()
                return {
                    "subset": [v for v in all_vars if v != m],
                    "context": [int(v) for v in ctx_values],
                    "x_m": xm,
                    "y": y,
                    "p_given_xm": float(cond[y]),
                    "p_base": float(base[y]),
                }
    return None


def dataset_row(dataset: Dataset, i: int) -> tuple:
    """Row i of a dataset, output last."""
    return tuple(col[i] for col in dataset.data)


def dataset_instances(dataset: Dataset) -> list:
    """Feature tuples of all rows (output dropped)."""
    return [dataset_row(dataset, i)[:-1] for i in range(dataset.n_rows)]


# ---------------------------------------------------------------------------
# Per-tree references for the forest layer: each tree read as a list of
# node views, each instance walked down it one node at a time, and the
# per-node loops of tree MDI and of the efficiency gap.


@dataclass
class NodeView:
    """One stored node, children as local ids (root 0): one slot per
    category of an exhaustive split, None where no training row of the node
    has the category, and (left, right) for a threshold split."""

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
        slots = 0 if leaf else packed.feature_arities[f] or 2
        views.append(NodeView(
            feature=None if leaf else f,
            kind=None if leaf else (
                "exhaustive" if packed.feature_kinds[f] == "categorical" else "threshold"
            ),
            threshold=None if leaf or np.isnan(packed.threshold[i])
            else float(packed.threshold[i]),
            children=tuple(None if c < 0 else int(c) - lo
                           for c in packed.children[i][:slots]),
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

    A move is recorded only when the instance proceeds to a child; a
    category unseen at the node in training (no child) ends the list early.
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
                if child is None:
                    break
            else:
                child = view.children[0 if float(v) <= view.threshold else 1]
            moves.append((node, child, f))
            node = child
        yield moves


def local_mdi_by_walks(forest, instances) -> np.ndarray:
    acc = np.zeros((len(instances), forest.n_features))
    for t in range(forest.n_trees):
        views = tree_nodes(forest, t)
        for row, moves in enumerate(walk_rows(views, instances)):
            for node, child, f in moves:
                acc[row, f] += views[node].impurity - views[child].impurity
    return acc / forest.n_trees


def predict_proba_by_walks(forest, instances) -> np.ndarray:
    acc = np.zeros((len(instances), forest.n_classes))
    for t in range(forest.n_trees):
        views = tree_nodes(forest, t)
        for row, moves in enumerate(walk_rows(views, instances)):
            acc[row] += views[moves[-1][1] if moves else 0].dist
    return acc / forest.n_trees


def saabas_by_walks(forest, instances, classes) -> np.ndarray:
    acc = np.zeros((len(instances), forest.n_features))
    for t in range(forest.n_trees):
        views = tree_nodes(forest, t)
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
            if c is not None:
                drop -= views[c].mass * views[c].impurity
        scores[view.feature] += drop
    return scores


# ---------------------------------------------------------------------------
# Reference tree builder: one recursive call per node, every node's counts,
# impurity, admissible features and splits recomputed from its row list.
# It reads the package only for the impurity formula and the packed layout.


MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def splitmix64(state: int, counter: int) -> int:
    """Output `counter` (from 1) of SplitMix64 seeded with `state`, on Python
    ints: Stafford's Mix13 of state + counter * GAMMA, mod 2^64."""
    z = (state + counter * GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def draw_by_keys(tree_key: int, j: int, admissible: list, k: int) -> list:
    """The k candidates of a tree's j-th node (from 0): the admissible
    features whose slots sort first by (key, slot), slot i keyed by
    output i + 1 of SplitMix64 seeded with output j + 1 of the tree's."""
    node = splitmix64(tree_key, j + 1)
    order = sorted(range(len(admissible)), key=lambda i: (splitmix64(node, i + 1), i))
    return sorted(admissible[i] for i in order[:k])


def grow_trees_recursive(dataset, k, impurity, keys, seed):
    """`tree.grow_trees` without a memo: one tree per key of `keys`, its
    j-th node in preorder drawing with `draw_by_keys(key, j, ...)`."""
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
                # a row goes right when its value is > the threshold, so the cut
                # must lie in [v, nxt): the midpoint does not with an infinite
                # value, an overflowing sum, or a sum that rounds up to nxt
                mid = (v + nxt) / 2.0
                best = (gain, mid if v <= mid < nxt else v, pos)
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
        else:
            candidates = draw_by_keys(tree_key, node_id - offsets[-1], admissible, k)
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
                else:  # unseen category: no child
                    kids.append(LEAF)
        else:
            thr_out[node_id] = thr
            for part in parts:
                kids.append(grow(part, used_mask))
        child_out[node_id * width:node_id * width + len(kids)] = array("i", kids)
        return node_id

    offsets = [0]
    for tree_key in keys:
        tree_key = int(tree_key)
        grow(list(range(n_rows)), 0, at_root=True)
        offsets.append(len(feat_out))
    del grow
    return PackedTrees(
        np.array(feat_out, dtype=np.int32),
        np.array(thr_out),
        np.array(child_out, dtype=np.int32).reshape(-1, width),
        np.array(imp_out),
        np.array(mass_out),
        np.array(dist_out).reshape(-1, n_classes),
        np.array(offsets, dtype=np.int64),
        seed, k, impurity, n_rows, tuple(kinds), tuple(arities),
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


def average_ranks_pairwise(a: np.ndarray) -> np.ndarray:
    """Row-wise average ranks from every pair in a row: O(n p^2) memory,
    the form `forest._average_ranks` replaced."""
    lower = (a[:, :, None] > a[:, None, :]).sum(axis=2)
    equal = (a[:, :, None] == a[:, None, :]).sum(axis=2)
    return lower + (equal + 1) / 2


def spearman(xs, ys) -> float:
    """Spearman correlation: Pearson of the average ranks."""
    return pearson(average_ranks(xs), average_ranks(ys))


# ---------------------------------------------------------------------------
# The reference CSV reader: one csv row and one int()/float() per cell, in
# the order the package's readers report errors.


def _csv_by_rows(path):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    lines = [r for r, row in enumerate(rows, 1) if row and not row[0].startswith("#")]
    if not lines:
        raise ParseError(f"{path}: no header row")
    header = [h.strip() for h in rows[lines[0] - 1]]
    kind_rows = []
    for line, row in enumerate(rows[lines[0]:], start=lines[0] + 1):
        if not row or not row[0].startswith("#"):
            break
        if row[0].startswith("#kind:"):
            kind_rows.append((line, row))
    lines = lines[1:]
    if not lines:
        raise EmptyDataset(f"{path}: no data rows")
    body = [rows[r - 1] for r in lines]
    for line, row in zip(lines, body):
        if len(row) != len(header):
            raise ParseError(
                f"{path}:{line}: expected {len(header)} fields, got {len(row)}"
            )
    return header, kind_rows, list(zip(*body)), lines


def _cells(path, name, cells, lines, conv=float) -> np.ndarray:
    values = []
    for line, cell in zip(lines, cells):
        try:
            values.append(conv(cell))
        except ValueError:
            raise ParseError(
                f"{path}:{line}: column {name!r}: cannot parse {cell!r}"
            ) from None
    return np.array(values)


def _code_cells(path, name, cells, lines) -> np.ndarray:
    codes = _cells(path, name, cells, lines, int)
    for line, cell, code in zip(lines, cells, codes):
        if code < 0:
            raise ParseError(
                f"{path}:{line}: column {name!r}: negative category code {cell!r}"
            )
    return codes


def _dataset_by_rows(path, header, kind_rows, cols, lines, name):
    kinds = None
    for line, row in kind_rows:
        declared = [row[0][len("#kind:"):].strip()] + [c.strip() for c in row[1:]]
        if len(declared) != len(header):
            raise ParseError(
                f"{path}:{line}: kind row has {len(declared)} entries, "
                f"header has {len(header)}"
            )
        for c, k in enumerate(declared):
            if k not in (CATEGORICAL, NUMERIC):
                raise ParseError(f"{path}:{line}: column {c + 1}: unknown kind {k!r}")
        kinds = declared
    weights = None
    if header[-1] == "__weight__":
        weights = _cells(path, header[-1], cols[-1], lines)
        header, cols = header[:-1], cols[:-1]
    columns, data = [], []
    for c, cells in enumerate(cols):
        name_c, kind = header[c], kinds[c] if kinds else None
        if kind == CATEGORICAL:
            codes = _code_cells(path, name_c, cells, lines)
            arity = int(codes.max()) + 1
            if arity > MAX_ARITY:
                raise ArityOverflow(
                    f"{path}: column {name_c!r}: {arity} categories exceed {MAX_ARITY}"
                )
            meta, arr = ColumnMeta(name_c, CATEGORICAL, arity=arity), codes
        else:
            meta = None
            if kind is None:
                try:
                    codes = _code_cells(path, name_c, cells, lines)
                    if codes.max() < MAX_ARITY:
                        arity = int(codes.max()) + 1
                        meta, arr = ColumnMeta(name_c, CATEGORICAL, arity=arity), codes
                except ParseError:
                    pass
            if meta is None:
                meta, arr = ColumnMeta(name_c, NUMERIC), _cells(path, name_c, cells, lines)
        columns.append(meta)
        data.append(arr)
    if len(columns) < 2:
        raise ParseError(f"{path}: need at least one feature column and the output")
    return Dataset(columns, data, weights=weights, name=name or str(path))


def _joint_by_rows(path, header, kind_rows, cols, lines, name):
    if len(header) < 3 or header[-1] != "probability":
        raise ParseError(f"{path}: expected header (inputs..., output, probability)")
    codes = [_code_cells(path, h, c, lines) for h, c in zip(header, cols[:-1])]
    arities = tuple(int(c.max()) + 1 for c in codes)
    table = cell_sums(codes, arities, _cells(path, header[-1], cols[-1], lines))
    return JointDistribution(arities, table, name=name or str(path))


def load_csv_by_rows(path, name=None) -> Dataset:
    """What `load_csv` returns or raises, read one cell at a time."""
    return _dataset_by_rows(path, *_csv_by_rows(path), name)


def load_joint_csv_by_rows(path, name=None) -> JointDistribution:
    """What `load_joint_csv` returns or raises, read one cell at a time."""
    return _joint_by_rows(path, *_csv_by_rows(path), name)


def load_joint_by_rows(path, name=None) -> JointDistribution:
    """What `load_joint` returns or raises, read one cell at a time."""
    table = _csv_by_rows(path)
    if table[0][-1] == "probability":
        return _joint_by_rows(path, *table, name)
    return joint_from_samples(_dataset_by_rows(path, *table, name))
