"""Randomized decision trees, stored packed, and the one routine that walks
instances down them.

Categorical features use exhaustive splits (one child per category, never
reused on a path); numeric features use binary threshold splits at the
best midpoint between consecutive observed values.  Trees are always fully
developed: recursion stops only at purity or feature exhaustion.

Any number of trees share one struct-of-arrays (`PackedTrees`): the node
arrays of all trees concatenated, per-tree root offsets, and children as
global node ids.  `traverse` is the single traversal routine; every path
measure (local MDI, Saabas, class probabilities) accumulates what it visits.
"""

from array import array
from dataclasses import dataclass, replace

import numpy as np

from .data import CATEGORICAL, Dataset
from .errors import (
    EmptyDataset,
    InvalidValue,
    MissingFeatureValue,
    NoAdmissibleFeature,
    TableTooLarge,
)
from .impurity import check_kind, impurity_from_counts

LEAF = -1
PURITY_EPS = 1e-12
# (tree, distinct instance) pairs that `traverse` advances together; its
# scratch arrays stay under about CHUNK_PAIRS * (2 * width + 16) * 8 bytes
CHUNK_PAIRS = 1 << 13
NODE_ARRAYS = ("feature", "threshold", "children", "impurity", "mass", "dist")
# bytes the packed arrays of one forest may take by `_BuildContext.check_size`'s
# bound; the 50,000-tree LED forest of the acceptance tests bounds at 110 MB
GROWTH_BUDGET = 1 << 30


@dataclass
class PackedTrees:
    """A forest: the nodes of one or more trees as parallel arrays, with
    what the trees were grown with (`k`, `impurity_kind`, master `seed`).

    Tree i owns nodes offsets[i]..offsets[i+1]-1 and its root is node
    offsets[i].  `children` has one row per node, child ids global and
    padded with LEAF; a categorical split has one child per category, in
    category order, and a threshold split (left, right).
    """

    feature: np.ndarray  # int32, LEAF at leaves
    threshold: np.ndarray  # NaN unless a threshold split
    children: np.ndarray  # int32, (n_nodes, width)
    impurity: np.ndarray
    mass: np.ndarray  # p(t): weight share of the training rows
    dist: np.ndarray  # (n_nodes, n_classes)
    offsets: np.ndarray  # int64, (n_trees + 1,)
    seed: int  # master seed the trees' RNG streams derive from
    k: int
    impurity_kind: str
    n_train: int
    feature_kinds: tuple
    feature_arities: tuple

    def __post_init__(self):
        for name in NODE_ARRAYS + ("offsets",):
            getattr(self, name).setflags(write=False)

    @property
    def n_trees(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_features(self) -> int:
        return len(self.feature_kinds)

    @property
    def n_classes(self) -> int:
        return self.dist.shape[1]

    @property
    def trees(self) -> list:
        """A `Tree` slice view per tree, in order, made on each access.
        Nothing in the package reads it; perfbench/tracing.py counts trees,
        nodes and array bytes from it."""
        return [Tree(self, i) for i in range(self.n_trees)]

    @classmethod
    def concat(cls, parts):
        """The trees of `parts`, in order, with child ids shifted to match."""
        parts = list(parts)
        sizes = [len(p.feature) for p in parts]
        bases = np.cumsum([0] + sizes[:-1])
        cols = {name: np.concatenate([getattr(p, name) for p in parts])
                for name in NODE_ARRAYS}
        kids = cols["children"]
        shift = np.repeat(bases, sizes)[:, None]
        cols["children"] = np.where(kids == LEAF, LEAF, kids + shift).astype(np.int32)
        offsets = np.concatenate(
            [[0]] + [p.offsets[1:] + base for p, base in zip(parts, bases)]
        )
        return replace(parts[0], **cols, offsets=offsets)


class Tree:
    """One tree's slices of the `NODE_ARRAYS` of a `PackedTrees`, as its
    `trees` yields them (`n_nodes` and every ndarray in `vars(view)`)."""

    def __init__(self, packed: PackedTrees, index: int):
        lo, hi = int(packed.offsets[index]), int(packed.offsets[index + 1])
        for name in NODE_ARRAYS:
            setattr(self, name, getattr(packed, name)[lo:hi])

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


def _distinct_rows(x: np.ndarray):
    """(first, inverse) for the rows of the C-contiguous 2-d array `x`,
    keyed on their bytes: first[j] is where distinct row j first occurs, in
    increasing order, and row i of `x` is row first[inverse[i]]."""
    keys = x.view(np.dtype((np.void, x.itemsize * x.shape[1]))).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse.reshape(-1)]


class _BuildContext:
    """Dataset unpacked for growth: its entries, as one list per column
    (the tree builder works on few rows at a time, where plain loops beat
    array calls), and the weight `ws` of each.

    Without weights, the rows with the same float64 bytes (features and
    output) are one entry, in order of first occurrence, weighted by their
    multiplicity.  Every class count is then a sum of integers, exact in
    any order, so the trees are those grown from the rows one by one.  With
    weights, each row of positive weight is an entry: there the order of
    the sums shows in the last bits.  `n_train` counts the rows of positive
    weight either way.  A NaN in a numeric feature is refused, in any row:
    no threshold can place it.
    """

    __slots__ = ("cols", "kinds", "arities", "ys", "ws", "n_classes",
                 "total_weight", "n_rows", "n_train", "n_features", "width")

    def __init__(self, dataset: Dataset):
        if dataset.n_rows == 0:
            raise EmptyDataset("cannot grow a tree from zero rows")
        out_meta = dataset.output_meta
        if out_meta.kind != CATEGORICAL:
            raise InvalidValue(
                f"output column {out_meta.name!r} must be categorical "
                "(quantize numeric outputs first)"
            )
        for meta, col in zip(dataset.columns[:-1], dataset.data[:-1]):
            if meta.kind != CATEGORICAL and np.isnan(col).any():
                raise InvalidValue(f"numeric feature {meta.name!r} holds NaN")
        if dataset.weights is None:
            x = np.column_stack(dataset.data).astype(np.float64, copy=False)
            keep, inverse = _distinct_rows(x)
            ws = np.bincount(inverse).astype(np.float64)
            self.n_train = dataset.n_rows
        else:
            # zero-weight rows carry no mass and would only distort which
            # categories count as "seen"; they are not training samples
            keep = np.flatnonzero(dataset.weights > 0.0)
            if keep.size == 0:
                raise EmptyDataset("dataset has zero total weight")
            ws = dataset.weights[keep]
            self.n_train = keep.size
        self.cols = [col[keep].tolist() for col in dataset.data[:-1]]
        self.kinds = [c.kind for c in dataset.columns[:-1]]
        self.arities = [c.arity for c in dataset.columns[:-1]]
        self.ys = dataset.output[keep].tolist()
        self.n_rows = len(self.ys)
        self.ws = ws.tolist()
        self.n_classes = out_meta.arity
        self.total_weight = float(sum(self.ws))
        self.n_features = dataset.n_features
        # children per node: the largest arity, or 2 for a threshold split
        self.width = max([a if k == CATEGORICAL else 2
                          for k, a in zip(self.kinds, self.arities)], default=1)

    def check_size(self, n_trees: int) -> None:
        """Refuse `n_trees` trees whose packed arrays could pass
        GROWTH_BUDGET bytes, before any grows.  Every split has at least two
        non-empty children, so a tree of E entries has at most E - 1 splits
        and (E - 1) * width + 1 nodes; a node takes its feature, threshold,
        children and record [impurity, mass, *dist]."""
        nodes = (self.n_rows - 1) * self.width + 1
        node_bytes = 4 + 8 + 4 * self.width + 8 * (2 + self.n_classes)
        if n_trees * nodes * node_bytes > GROWTH_BUDGET:
            raise TableTooLarge(
                f"{n_trees} trees of up to {nodes} nodes x {node_bytes} bytes "
                f"exceed the {GROWTH_BUDGET}-byte growth budget"
            )


class _Node:
    """One node state of a build, shared by every path that reaches its
    rows: what a node computes from them, its output `record` (impurity,
    mass, class distribution), and its splits.  `splits` is None until the
    state's first subtree is grown and then caches each split a later tree
    asks for.  `rows` is a list while only the subtree being grown can reach
    the state, an int array once the state is kept, and None once nothing
    can read it again: at a leaf, once every admissible feature's split is
    cached, and once `copy`, the (lo, hi) output slice of a subtree that
    drew no random number, is known."""

    __slots__ = ("rows", "counts", "weight", "imp", "record", "admissible",
                 "splits", "copy")


def grow_trees(dataset, k, impurity, rngs, seed) -> PackedTrees:
    """One tree per RNG of `rngs` (a `random.Random`, or the
    `forest._TreeStream` `build_forest` passes), in order, grown straight
    into packed columns from one memo of node states; `seed` is recorded as
    the master seed the RNGs derive from.  `dataset` is a `Dataset` or the
    `_BuildContext` made from one (`forest.build_forest` makes it first to
    check the forest's size).  Rows are the entries of `_BuildContext`: on
    unweighted data each distinct row once, so growth costs per distinct
    row.

    At every impure node, min(k, #admissible) candidate features are drawn
    uniformly without replacement and the candidate with the largest mean
    impurity decrease splits the node (ties broken towards the lowest
    feature index, then the smallest threshold).  k=1 is the totally
    randomized regime: the drawn feature splits unconditionally.

    A node state is keyed on the bytes of its row ids in order, which fix
    all it holds (counts summed in row order, impurity, record, admissible
    features, splits, copy slice), so paths to the same rows share it.  A
    feature split exhaustively above a node is constant on its rows, hence
    not admissible.  A state is kept from its parent's second visit on, so
    states that never repeat are dropped with their subtree.  The RNG only
    draws the candidates, call for call as in a recursive build; a subtree
    that drew none is copied as an output slice.

    Each node state builds its output record [impurity, mass, *dist] once,
    and a node is emitted with one extend of a (n_nodes, 2 + n_classes)
    column, of which `impurity`, `mass` and `dist` are column views.
    """
    ctx = dataset if isinstance(dataset, _BuildContext) else _BuildContext(dataset)
    check_kind(impurity)
    if not 1 <= k <= max(ctx.n_features, 1):
        raise ValueError(f"k must be in 1..{ctx.n_features}, got {k}")
    cols, ys, ws, arities = ctx.cols, ctx.ys, ctx.ws, ctx.arities
    n_classes, total_weight = ctx.n_classes, ctx.total_weight
    categorical = [kd == CATEGORICAL for kd in ctx.kinds]
    memo = {}
    # output columns, rec_out holding one node record per row; children as
    # offsets from their parent (0: none), so that a copied subtree slice
    # stays valid
    feat_out, thr_out = array("i"), array("d")
    child_out, rec_out = array("i"), array("d")
    width = ctx.width
    no_children = array("i", [0] * width)
    nan = float("nan")

    def state(rows, keep):
        """The node state of the list of row ids `rows`, keyed on their
        bytes: the kept one if any, else a new one, which holds them as an
        int array and goes into the memo when it is to `keep`."""
        key = array("i", rows).tobytes()
        node = memo.get(key)
        if node is not None:
            return node
        node = _Node()
        counts = [0.0] * n_classes
        for i in rows:
            counts[ys[i]] += ws[i]
        node.counts, node.weight = counts, sum(counts)
        node.imp = impurity_from_counts(counts, impurity)
        node.record = array("d", [node.imp, node.weight / total_weight,
                                  *[c / node.weight for c in counts]])
        node.rows, node.splits, node.copy, node.admissible = None, None, None, []
        if node.imp >= PURITY_EPS:
            for f, col in enumerate(cols):
                first = col[rows[0]]
                for i in rows:
                    if col[i] != first:
                        node.admissible.append(f)
                        break
            if node.admissible:
                node.rows = array("i", rows) if keep else rows
        if keep:
            memo[key] = node
        return node

    def categorical_split(node, f):
        col, parts = cols[f], [[] for _ in range(arities[f])]
        for i in node.rows:  # row order per part
            parts[col[i]].append(i)
        kids = [state(part, node.splits is not None) if part else None
                for part in parts]
        acc = 0.0
        for kid in filter(None, kids):
            acc += kid.weight / node.weight * kid.imp
        return node.imp - acc, nan, kids

    def threshold_split(node, f):
        """Best midpoint split of numeric feature f, scanning the rows in
        stable sorted order; f is admissible, so some midpoint exists."""
        col, counts, total = cols[f], node.counts, node.weight
        order = sorted(node.rows, key=col.__getitem__)
        left = [0.0] * n_classes
        best = None
        for pos in range(1, len(order)):
            i = order[pos - 1]
            left[ys[i]] += ws[i]
            v, nxt = col[i], col[order[pos]]
            if v == nxt:
                continue
            right = [counts[c] - left[c] for c in range(n_classes)]
            wl = sum(left)
            wr = total - wl
            gain = node.imp - (
                wl / total * impurity_from_counts(left, impurity)
                + wr / total * impurity_from_counts(right, impurity)
            )
            if best is None or gain > best[0]:
                # a row goes right when its value is > the threshold, so the cut
                # must lie in [v, nxt): the midpoint does not with an infinite
                # value, an overflowing sum, or a sum that rounds up to nxt
                mid = (v + nxt) / 2.0
                best = (gain, mid if v <= mid < nxt else v, pos)
        gain, thr, cut = best
        return gain, thr, [state(part, node.splits is not None)
                           for part in (order[:cut], order[cut:])]

    def split(node, f):
        found = None if node.splits is None else node.splits.get(f)
        if found is None:
            found = (categorical_split if categorical[f] else threshold_split)(node, f)
            if node.splits is not None:
                node.splits[f] = found
                if len(node.splits) == len(node.admissible):
                    node.rows = None  # every child exists
        return found

    def emit(f, thr, record):
        feat_out.append(f)
        thr_out.append(thr)
        child_out.extend(no_children)
        rec_out.extend(record)

    def grow(node):
        """Append the subtree of `node` in preorder; True when it drew no
        random number."""
        adm = node.admissible
        if not adm:
            emit(LEAF, nan, node.record)
            return True
        if node.copy is not None:
            lo, hi = node.copy
            for out, size in ((feat_out, 1), (thr_out, 1), (child_out, width),
                              (rec_out, 2 + n_classes)):
                out.extend(out[lo * size:hi * size])
            return True
        drew = len(adm) > k
        if not drew:
            candidates = adm
        elif k == 1:
            candidates = (adm[rng.randrange(len(adm))],)
        else:
            candidates = sorted(rng.sample(adm, k))
        best = None
        for f in candidates:  # ascending feature index: ties keep the first
            found = split(node, f)
            if best is None or found[0] > best[1][0]:
                best = (f, found)
        f, (_, thr, kids) = best
        node_id = len(feat_out)
        emit(f, thr, node.record)
        fixed, rel = not drew, []
        for child in kids:
            rel.append(len(feat_out) - node_id)
            if child is None:  # unseen category: zero mass, parent's dist
                emit(LEAF, nan, array("d", [0.0, 0.0, *node.record[2:]]))
            else:
                fixed = grow(child) and fixed
        child_out[node_id * width:node_id * width + len(rel)] = array("i", rel)
        if fixed:
            node.copy, node.rows, node.splits = (node_id, len(feat_out)), None, None
        elif node.splits is None:
            node.splits = {}  # seen once: keep its splits from now on
        return fixed

    root = state(list(range(ctx.n_rows)), True)
    if not root.admissible and root.imp >= PURITY_EPS:
        raise NoAdmissibleFeature("no feature can split the root (all columns constant)")
    offsets = [0]
    for rng in rngs:  # `grow` draws from the current `rng`
        grow(root)
        offsets.append(len(feat_out))
    del grow  # a recursive closure is a reference cycle: free the memo now
    # the packed arrays are views of the output columns: no copies
    kids = np.frombuffer(child_out, dtype=np.int32).reshape(-1, width)
    none = kids == 0
    kids += np.arange(len(kids), dtype=np.int32)[:, None]
    kids[none] = LEAF
    record = np.frombuffer(rec_out).reshape(-1, 2 + n_classes)
    return PackedTrees(
        np.frombuffer(feat_out, dtype=np.int32), np.frombuffer(thr_out), kids,
        record[:, 0], record[:, 1], record[:, 2:],
        np.array(offsets, dtype=np.int64),
        seed, k, impurity, ctx.n_train, tuple(ctx.kinds), tuple(arities),
    )


def node_drops(packed: PackedTrees) -> np.ndarray:
    """p(t) i(t) - sum_c p(c) i(c) for every node of `packed`."""
    drop = packed.mass * packed.impurity
    for col in packed.children.T:
        drop -= np.where(col == LEAF, 0.0, packed.mass[col] * packed.impurity[col])
    return drop


def mdi_by_tree(packed: PackedTrees) -> np.ndarray:
    """(n_trees, n_features) table: per tree and feature, the sum of the
    node drops of the nodes splitting on the feature, in node order.  One
    bincount over the packed nodes."""
    drop = node_drops(packed)
    split = packed.feature != LEAF
    tree = np.repeat(np.arange(packed.n_trees), np.diff(packed.offsets))
    cells = packed.n_trees * packed.n_features
    key = tree[split] * packed.n_features + packed.feature[split]
    sums = np.bincount(key, weights=drop[split], minlength=cells)
    return sums.reshape(packed.n_trees, packed.n_features)


def traverse(packed: PackedTrees, instances, width: int, move=None,
             end=None) -> np.ndarray:
    """Walk every instance down every tree; returns the (n, width) sum over
    trees of what the walks put into each instance's row.

    Each distinct instance (distinct float64 bytes) is walked once, in
    order of first occurrence, and its result row is copied to every
    duplicate.  Per chunk of at most CHUNK_PAIRS (tree, distinct instance)
    pairs, tree-major, the walks advance one depth level at a time.  After
    each level `move(buf, pair, row, node, child, feature)` sees the pairs
    that moved, and at the end `end(buf, node)` sees the node where each
    pair stopped; both add into `buf`, which has one row per pair.  `row`
    indexes `instances`: the first occurrence of the pair's instance.  The
    rows of each tree are then added to the result in tree order, so each
    sum depends on its instance alone.  Scratch memory is bounded by the
    chunk; only the (distinct, width) sums, the keys and the result grow
    with the input.

    A walk stops at a leaf, or at the current node when a categorical split
    sends it to a zero-mass child (a category unseen there in training).
    A missing value (None or NaN) or an out-of-range category raises
    MissingFeatureValue, but only when a walk reaches that feature.
    """
    n = len(instances)
    if n == 0:
        return np.zeros((0, width))
    x = np.array(instances, dtype=np.float64)
    p = packed.n_features
    if x.shape != (n, p):
        raise ValueError(f"instances must have {p} values each")
    # instance i is distinct row inverse[i], first met at first[inverse[i]]
    first, inverse = _distinct_rows(x)
    m = len(first)
    acc = np.zeros((m, width))
    x = x.ravel()
    categorical = np.array([kd == CATEGORICAL for kd in packed.feature_kinds])
    arity = np.array([a or 0 for a in packed.feature_arities], dtype=np.float64)
    # usable values: any number, or a category code c with int(c) in 0..arity-1;
    # NaN fails both bounds
    v_min = np.where(categorical, np.nextafter(-1.0, 0.0), -np.inf)
    v_max = np.where(categorical, np.nextafter(arity, -np.inf), np.inf)
    feature, threshold, mass = packed.feature, packed.threshold, packed.mass
    kids = packed.children.ravel()
    fanout = packed.children.shape[1]
    offsets = packed.offsets
    rows_per = min(m, CHUNK_PAIRS)
    trees_per = CHUNK_PAIRS // rows_per
    for t0 in range(0, packed.n_trees, trees_per):
        t1 = min(packed.n_trees, t0 + trees_per)
        for r0 in range(0, m, rows_per):
            r1 = min(m, r0 + rows_per)
            rows = np.tile(first[r0:r1], t1 - t0)
            node = np.repeat(offsets[t0:t1], r1 - r0)
            stack = np.zeros((t1 - t0 + 1, r1 - r0, width))
            stack[0] = acc[r0:r1]
            buf = stack[1:].reshape(-1, width)
            stop = node.copy()
            pair = np.arange(node.size)
            while pair.size:
                f = feature[node]
                split = f != LEAF
                pair, node, f = pair[split], node[split], f[split]
                row = rows[pair]
                v = x[row * p + f]
                ok = (v >= v_min[f]) & (v <= v_max[f])
                if not ok.all():
                    i = int(np.flatnonzero(~ok)[0])
                    bad = instances[row[i]][f[i]]  # not quoted as np.float64(...)
                    bad = bad.item() if isinstance(bad, np.generic) else bad
                    raise MissingFeatureValue(
                        f"feature {f[i]}: no usable value ({bad!r}) "
                        "where a path splits on it"
                    )
                # astype truncates a category code as int() does
                side = np.where(categorical[f], v, v > threshold[node]).astype(np.intp)
                child = kids[node * fanout + side]
                go = mass[child] > 0.0  # only exhaustive splits have empty children
                if not go.all():
                    pair, row, node, child, f = (
                        pair[go], row[go], node[go], child[go], f[go]
                    )
                if move is not None:
                    move(buf, pair, row, node, child, f)
                stop[pair] = child
                node = child
            if end is not None:
                end(buf, stop)
            np.cumsum(stack, axis=0, out=stack)
            acc[r0:r1] = stack[-1]
    return acc[inverse]

