"""Randomized decision trees, stored packed, and the one routine that walks
instances down them.

Categorical features use exhaustive splits (one child per category, never
reused on a path); numeric features use binary threshold splits at the
best midpoint between consecutive observed values.  Trees are always fully
developed: growth stops only at purity or feature exhaustion.  Every tree
of a build grows in lock-step on one graph of node states (`StateGraph`),
each node drawing its candidate features from hash keys (`tree_keys`).

Any number of trees share one struct-of-arrays (`PackedTrees`): the node
arrays of the distinct trees concatenated, per stored tree root offsets,
children as global node ids, and each tree's index into the stored trees.
Only nodes that training rows reach are stored, and a tree that is the
same as an earlier one of its build is not stored again.  `traverse` is
the single traversal routine; every path measure (local MDI, Saabas, class
probabilities) accumulates what it visits.
"""

import hashlib
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
# scratch arrays stay under about CHUNK_PAIRS * (3 * width + 16) * 8 bytes
CHUNK_PAIRS = 1 << 13
NODE_ARRAYS = ("feature", "threshold", "children", "impurity", "mass", "dist")
# bytes the packed arrays of one forest may take by `_BuildContext.check_size`'s
# bound, taken before growth over all trees, stored or not; the 50,000-tree
# LED forest of the acceptance tests bounds at 110 MB
GROWTH_BUDGET = 1 << 30
# bits of a tree's winner code (`grow_trees`); a tree whose code would need
# more is stored alone
CODE_BITS = 64


@dataclass
class PackedTrees:
    """A forest: the nodes of its distinct trees as parallel arrays, with
    what the trees were grown with (`k`, `impurity_kind`, master `seed`).

    Each distinct tree is stored once.  Stored tree s owns nodes
    offsets[s]..offsets[s+1]-1 and its root is node offsets[s]; tree i of
    the forest is stored tree tree_index[i], and `n_trees` counts the trees,
    stored or not.  So tree i's nodes are the same slice of every node array
    for each i that shares a stored tree, and a measure that walks or sums
    each stored tree once and expands its result by `tree_index` scores the
    forest tree by tree.  `children` has one row per node, child ids global
    and padded with LEAF; a categorical split has one slot per category, in
    category order, LEAF where no training row of the node has the
    category, and a threshold split (left, right).  Every node has positive mass.
    """

    feature: np.ndarray  # int32, LEAF at leaves
    threshold: np.ndarray  # NaN unless a threshold split
    children: np.ndarray  # int32, (n_nodes, width)
    impurity: np.ndarray
    mass: np.ndarray  # p(t): weight share of the training rows
    dist: np.ndarray  # (n_nodes, n_classes)
    offsets: np.ndarray  # int64, (n_stored + 1,)
    tree_index: np.ndarray  # int64, (n_trees,): each tree's stored tree
    seed: int  # master seed the trees' keys derive from (`tree_keys`)
    k: int
    impurity_kind: str
    n_train: int
    feature_kinds: tuple
    feature_arities: tuple

    def __post_init__(self):
        for name in NODE_ARRAYS + ("offsets", "tree_index"):
            getattr(self, name).setflags(write=False)

    @property
    def n_trees(self) -> int:
        return len(self.tree_index)

    @property
    def n_stored(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_features(self) -> int:
        return len(self.feature_kinds)

    @property
    def n_classes(self) -> int:
        return self.dist.shape[1]

    @property
    def trees(self) -> list:
        """A `Tree` slice view per tree, stored or not, in order, made on
        each access.  Nothing in the package reads it; perfbench/tracing.py
        counts trees, nodes and array bytes from it."""
        return [Tree(self, i) for i in range(self.n_trees)]

    @classmethod
    def concat(cls, parts):
        """The trees of `parts`, in order, with child ids and stored tree
        indices shifted to match; trees of different parts are not merged."""
        parts = list(parts)
        sizes = [len(p.feature) for p in parts]
        bases = np.cumsum([0] + sizes[:-1])
        stored = np.cumsum([0] + [p.n_stored for p in parts[:-1]])
        cols = {name: np.concatenate([getattr(p, name) for p in parts])
                for name in NODE_ARRAYS}
        kids = cols["children"]
        shift = np.repeat(bases, sizes)[:, None]
        cols["children"] = np.where(kids == LEAF, LEAF, kids + shift).astype(np.int32)
        offsets = np.concatenate(
            [[0]] + [p.offsets[1:] + base for p, base in zip(parts, bases)]
        )
        tree_index = np.concatenate(
            [p.tree_index + base for p, base in zip(parts, stored)])
        return replace(parts[0], **cols, offsets=offsets, tree_index=tree_index)


class Tree:
    """One tree's slices of the `NODE_ARRAYS` of a `PackedTrees`, those of
    its stored tree, as its `trees` yields them (`n_nodes` and every
    ndarray in `vars(view)`)."""

    def __init__(self, packed: PackedTrees, index: int):
        s = int(packed.tree_index[index])
        lo, hi = int(packed.offsets[s]), int(packed.offsets[s + 1])
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


class Instances:
    """Instances keyed once on their float64 bytes, so that each distinct
    one is walked once: `x` holds the distinct rows in order of first
    occurrence, instance i is row inverse[i], and row j first occurs at
    `first[j]` of the caller's `source`."""

    __slots__ = ("source", "x", "first", "inverse")

    def __init__(self, instances, p: int):
        self.source = instances
        x = np.array(instances, dtype=np.float64, order="C")  # rows keyed as bytes
        if len(instances) == 0:
            x = np.zeros((0, p))
        elif x.shape != (len(instances), p):
            raise ValueError(f"instances must have {p} values each")
        self.first, self.inverse = _distinct_rows(x)
        self.x = x[self.first]


class _BuildContext:
    """Dataset unpacked for growth: its entries, one column each in `cols`,
    and the weight `ws` of each.  A categorical column is a list of codes
    (the builder partitions few rows at a time, where plain loops beat
    array calls); the numeric columns are the columns of one float64 array
    `numeric`, which a state scans for constancy in one call and a split
    sorts with `argsort`, and which takes 8 bytes a value where a list of
    floats takes 32.

    Without weights, the rows with the same float64 bytes (features and
    output) are one entry, in order of first occurrence, weighted by their
    multiplicity.  Every class count is then a sum of integers, exact in
    any order, so the trees are those grown from the rows one by one.  With
    weights, each row of positive weight is an entry: there the order of
    the sums shows in the last bits.  `n_train` counts the rows of positive
    weight either way.  A NaN in a numeric feature is refused, in any row:
    no threshold can place it.
    """

    __slots__ = ("cols", "numeric", "kinds", "arities", "ys", "ws", "n_classes",
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
        self.kinds = [c.kind for c in dataset.columns[:-1]]
        numeric = [col[keep] for kind, col in zip(self.kinds, dataset.data[:-1])
                   if kind != CATEGORICAL]
        self.numeric = np.column_stack(numeric) if numeric else np.zeros((len(keep), 0))
        numeric = iter(self.numeric.T)
        self.cols = [col[keep].tolist() if kind == CATEGORICAL else next(numeric)
                     for kind, col in zip(self.kinds, dataset.data[:-1])]
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
        GROWTH_BUDGET bytes, before any grows.  Only nodes that rows reach
        are stored and every split has at least two of them, so a tree of E
        entries has at most E - 1 splits and 2E - 1 nodes; a node takes its
        feature, threshold, children and record [impurity, mass, *dist]."""
        nodes = 2 * self.n_rows - 1
        node_bytes = 4 + 8 + 4 * self.width + 8 * (2 + self.n_classes)
        if n_trees * nodes * node_bytes > GROWTH_BUDGET:
            raise TableTooLarge(
                f"{n_trees} trees of up to {nodes} nodes x {node_bytes} bytes "
                f"exceed the {GROWTH_BUDGET}-byte growth budget"
            )


UNSET = -2  # `StateGraph.best` of a state whose splits are not all known
NOT_YET = np.iinfo(np.int32).max  # a K past every K: `StateGraph.least` of a passing state
WHOLE = -3  # feature `grow_trees` logs for what it writes whole: a template or a leaf
# SplitMix64's increment, 2^64 over the golden ratio (Steele, Lea & Flood,
# "Fast splittable pseudorandom number generators", OOPSLA 2014)
GAMMA = 0x9E3779B97F4A7C15


def mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser of each uint64 of the array `x`, mod 2^64: a
    bijection under which flipping any input bit flips each output bit
    with probability close to 1/2.  Array arithmetic wraps silently, where
    numpy scalars would warn."""
    x = x ^ (x >> np.uint64(30))  # a new array: the rest works in place
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _weyl(key: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """mix64(key + counter * GAMMA), broadcast: output `counter` of the
    SplitMix64 stream seeded with `key`, counters from 1."""
    return mix64(key + counters.astype(np.uint64) * np.uint64(GAMMA))


def tree_keys(seed: int, n_trees: int) -> np.ndarray:
    """The uint64 key of each of `n_trees` trees grown from master `seed`.
    The master key is the first 8 bytes of sha256 of the seed's decimal
    text, so negative seeds and seeds of 2^64 or more get keys of their
    own; tree i's key is output i + 1 of SplitMix64 seeded with it, mixed
    once more, since the counters are structured."""
    master = hashlib.sha256(str(seed).encode()).digest()[:8]
    key = np.frombuffer(master, dtype="<u8").astype(np.uint64)
    return mix64(_weyl(key, np.arange(1, n_trees + 1)))


def draw(keys: np.ndarray, index, adm: np.ndarray, n: np.ndarray,
         k: int) -> np.ndarray:
    """(m, k) candidates of m nodes, one of each tree key of `keys`, each
    at its tree's preorder `index` (one int for all, or one each): among
    the first n[e] features of row e of `adm`, those whose slots have the
    k smallest keys, ties to the lower slot, so a uniform k-subset where
    n[e] >= k.  A node's key is output index + 1 of SplitMix64 seeded with
    its tree's key, and slot i's key is output i + 1 of SplitMix64 seeded
    with the node's; no draw reads another."""
    nodes = _weyl(keys, np.atleast_1d(index) + 1)
    # slots[i, e] is slot i's key at node e: rows as long as the nodes, so
    # that each array call loops over many
    slot = np.arange(adm.shape[1])[:, None]
    slots = _weyl(nodes, slot + 1)
    slots[slot >= n] = np.iinfo(np.uint64).max
    if k == 1:
        pick = slots.argmin(axis=0)[:, None]
    else:
        pick = np.argsort(slots, axis=0, kind="stable")[:k].T
    return np.take_along_axis(adm, pick, axis=1)


class StateGraph:
    """The node states of one dataset under one impurity kind, shared by
    every tree grown on it, at any K.

    What a node computes depends only on its rows, in their order: its
    class counts, impurity, output record, admissible features, and the
    gain, threshold and children of each split.  So a state is keyed on
    the bytes of its ordered row ids (entries of `_BuildContext`), which
    are also the rows it splits, and every path, tree and build that
    reaches the same rows meets the same state.  A feature split
    exhaustively above a node is constant on its rows, hence not
    admissible.  Each table has one row per state id s:

    - `n_adm[s]`, and `adm[s, :n_adm[s]]`: the admissible features,
      ascending; none at purity;
    - `gain[s, f]`: NaN until some tree asks for the split on f, computed
      then in Python (`_threshold_split` for a numeric f); with it
      `thr[s, f]`, NaN unless f is numeric, and `kids[s, f]`, the child
      states, -1 where no row of s has the category.  `thr` and `kids` have
      one more feature, NaN and -1, which f = LEAF reads;
    - `best[s]`: the admissible feature of largest gain, the lowest on
      ties; UNSET until some tree has every admissible feature as
      candidate, LEAF at a leaf;
    - `record[s]`: [impurity, mass p(t), *class distribution];
    - `reach[s]`: the nodes of s placed in trees so far; `kept[s]`: s is
      in the memo;
    - `least[s]`: a lower bound on the least K at which s is settled,
      exact once s has a template: n_adm[s] for a new kept state, NOT_YET
      for a passing one, 0 at a leaf; `size[s]`: the template's nodes, 0
      until it is made, 1 at a leaf; `first[s]`: its first row.

    A split's child states are kept, in the memo, once their parent has
    been reached twice: a state that repeats repeats its children.  Below
    a state reached once the children pass: they are computed alike, but
    hold no memo entry and no `kids` slot after their step, and their ids
    are reused once their node is popped, or once their step ends if no
    stack holds them.  So where states rarely repeat, as on numeric data,
    the graph holds little more than the stacks reach.  On the LED
    population every state is kept, and a sweep computes each of its 67
    states once.

    A state is settled at K when it is a leaf, or when it has at most K
    admissible features, so that it splits on its `best`, and every child
    of that split is settled at K.  Its subtree is then the same in every
    tree and at every larger K, so the graph lays it out once, as s's
    template: `size[s]` rows of `pool` from `first[s]` on, each the
    state, feature, parent's row and slot of one node in preorder, rows
    counted from the template's root, whose parent is -1.  Since no
    `best` depends on K, s is settled exactly from the most admissible
    features of a state in that subtree on, so one walk (`_template`), on
    an explicit stack, both finds whether s is settled at K and lays out
    its template.  Only kept states, and leaves, are taken for settled,
    and every state of a kept state's template is kept, so a template
    names no id that a step may free; a passing state's template would
    serve one node.
    """

    def __init__(self, dataset: Dataset, impurity: str):
        check_kind(impurity)
        self.ctx = ctx = _BuildContext(dataset)
        self.impurity = impurity
        self.ids = {}  # memo: row bytes -> id of a kept state
        self.rows = []  # id -> row bytes of its state, None while the id is free
        # id -> (class counts summed in row order, their sum, impurity)
        self.sums = []
        self._free = []  # free ids, reused first
        self._passing = []  # passing states made in the current step
        self._passed = []  # (s, f): splits of this step whose children pass
        self._n_passing = 0  # passing states alive
        self._forgot = False  # some state that outlived its step has passed a split
        self.pool = np.zeros((0, 4), dtype=np.int32)  # template nodes
        self._n_pool = 0
        p, c, w = ctx.n_features, ctx.n_classes, ctx.width
        # (table, shape of a row, dtype, fill of a free row)
        self._tables = (("n_adm", (), np.int32, 0), ("adm", (p,), np.int32, -1),
                        ("gain", (p,), np.float64, np.nan),
                        ("thr", (p + 1,), np.float64, np.nan),
                        ("kids", (p + 1, w), np.int32, -1), ("best", (), np.int32, UNSET),
                        ("record", (2 + c,), np.float64, np.nan),
                        ("reach", (), np.int64, 0),
                        ("kept", (), bool, False), ("least", (), np.int32, NOT_YET),
                        ("size", (), np.int32, 0), ("first", (), np.int32, 0))
        for name, shape, dtype, fill in self._tables:
            setattr(self, name, np.full((0,) + shape, fill, dtype=dtype))
        self.root = self._state(list(range(ctx.n_rows)), keep=True)
        if not self.n_adm[self.root] and self.record[self.root, 0] >= PURITY_EPS:
            raise NoAdmissibleFeature(
                "no feature can split the root (all columns constant)")

    def _state(self, rows, keep: bool) -> int:
        """The id of the state of the row ids `rows`: a kept one if any,
        else a new one, kept in the memo if `keep`."""
        key = array("i", rows).tobytes()
        s = self.ids.get(key)
        if s is not None:
            return s
        ctx = self.ctx
        ys, ws = ctx.ys, ctx.ws
        counts = [0.0] * ctx.n_classes
        for i in rows:
            counts[ys[i]] += ws[i]
        weight = sum(counts)
        imp = impurity_from_counts(counts, self.impurity)
        adm = []
        if imp >= PURITY_EPS:
            if ctx.numeric.shape[1]:  # one array scan for every numeric column
                values = ctx.numeric[np.frombuffer(key, dtype=np.intc)]
                varies = iter((values != values[0]).any(axis=0).tolist())
            for f, col in enumerate(ctx.cols):
                if ctx.kinds[f] != CATEGORICAL:
                    if next(varies):
                        adm.append(f)
                    continue
                first = col[rows[0]]
                for i in rows:
                    if col[i] != first:
                        adm.append(f)
                        break
        if self._free:
            s = self._free.pop()
            # the rows of a freed id hold the splits and reach of its last state
            self.gain[s], self.thr[s], self.kids[s], self.reach[s] = np.nan, np.nan, -1, 0
        else:
            s = len(self.rows)
            self.rows.append(None)
            self.sums.append(None)
            if s == len(self.best):  # double every table
                for name, shape, dtype, fill in self._tables:
                    old = getattr(self, name)
                    new = np.full((max(16, 2 * s),) + shape, fill, dtype=dtype)
                    new[:s] = old
                    setattr(self, name, new)
        self.n_adm[s], self.adm[s, :len(adm)] = len(adm), adm
        self.best[s] = UNSET if adm else LEAF
        if adm:
            self.least[s], self.size[s] = len(adm) if keep else NOT_YET, 0
        else:  # a leaf is settled at every K, its own one-node template
            self.least[s], self.size[s] = 0, 1
        self.record[s] = [imp, weight / ctx.total_weight, *[c / weight for c in counts]]
        self.sums[s], self.kept[s] = (counts, weight, imp), keep
        self.rows[s] = key
        if keep:
            self.ids[key] = s
        else:
            self._passing.append(s)
            self._n_passing += 1
        return s

    def _split(self, s: int, f: int, settling: bool = False) -> None:
        """Fill gain, thr and kids of state s on its admissible feature f;
        the children are kept once s has been reached twice, or if s is
        kept and `settling`: a kept state's settled subtree repeats."""
        ctx = self.ctx
        keep = self.reach[s] >= 2 or (settling and self.kept[s])
        rows = memoryview(self.rows[s]).cast("i")
        if ctx.kinds[f] == CATEGORICAL:
            col, parts = ctx.cols[f], [[] for _ in range(ctx.arities[f])]
            for i in rows:  # row order per part
                parts[col[i]].append(i)
            kids = [self._state(part, keep) if part else -1 for part in parts]
            _, weight, imp = self.sums[s]
            acc = 0.0
            for kid in kids:
                if kid >= 0:
                    acc += self.sums[kid][1] / weight * self.sums[kid][2]
            gain, thr = imp - acc, np.nan
        else:
            gain, thr, parts = self._threshold_split(s, f)
            kids = [self._state(part, keep) for part in parts]
        self.gain[s, f], self.thr[s, f] = gain, thr
        self.kids[s, f, :len(kids)] = kids
        if not keep:
            self._passed.append((s, f))

    def _threshold_split(self, s: int, f: int):
        """Best midpoint split of numeric feature f at state s, scanning
        the rows in stable sorted order; f is admissible, so some midpoint
        exists.  Returns the gain, the threshold and the two sides."""
        ctx = self.ctx
        col, ys, ws, n_classes = ctx.cols[f], ctx.ys, ctx.ws, ctx.n_classes
        counts, total, imp = self.sums[s]
        rows = np.frombuffer(self.rows[s], dtype=np.intc)
        order = rows[np.argsort(col[rows], kind="stable")]
        values, order = col[order].tolist(), order.tolist()
        left = [0.0] * n_classes
        best = None
        for pos in range(1, len(order)):
            i = order[pos - 1]
            left[ys[i]] += ws[i]
            v, nxt = values[pos - 1], values[pos]
            if v == nxt:
                continue
            right = [counts[c] - left[c] for c in range(n_classes)]
            wl = sum(left)
            wr = total - wl
            gain = imp - (
                wl / total * impurity_from_counts(left, self.impurity)
                + wr / total * impurity_from_counts(right, self.impurity)
            )
            if best is None or gain > best[0]:
                # a row goes right when its value is > the threshold, so the cut
                # must lie in [v, nxt): the midpoint does not with an infinite
                # value, an overflowing sum, or a sum that rounds up to nxt
                mid = (v + nxt) / 2.0
                best = (gain, mid if v <= mid < nxt else v, pos)
        gain, thr, cut = best
        return gain, thr, (order[:cut], order[cut:])

    def _gains(self, states, features, rows, settling=False) -> np.ndarray:
        """gain[states[e], features[e, :]] for the (m,) states and (m, c)
        features, each split of a row in the bool mask `rows` computed first
        if missing (`_split`); other rows are not read."""
        gain = self.gain[states[:, None], features]
        missing = np.isnan(gain) & rows[:, None]
        if missing.any():
            at = np.nonzero(missing)
            for s, f in dict.fromkeys(zip(states[at[0]].tolist(),
                                          features[at].tolist())):
                self._split(s, f, settling)
            gain = self.gain[states[:, None], features]
        return gain

    def _best(self, states, rows, settling=False) -> np.ndarray:
        """best[states], computed first where `rows` and UNSET."""
        best = self.best[states]
        unset = (best == UNSET) & rows
        if unset.any():
            for s in dict.fromkeys(states[unset].tolist()):
                adm = self.adm[s, :self.n_adm[s]]
                gain = self._gains(np.array([s]), adm[None, :], np.ones(1, dtype=bool),
                                   settling)
                self.best[s] = adm[gain[0].argmax()]  # adm ascending: ties keep the first
            best = self.best[states]
        return best

    def settled(self, states, k: int) -> np.ndarray:
        """Whether each state id of `states` is settled at k, with its
        template, which `_template` tries to make first for each state
        whose bound is at most k and that has none."""
        ask = (self.least[states] <= k) & (self.size[states] == 0)
        for s in dict.fromkeys(states[ask].tolist()):
            self._template(s, k)
        return (self.least[states] <= k) & (self.size[states] > 0)

    def _best_kids(self, s: int) -> list:
        """The child states of s's best split, all -1 at a leaf; best and
        the split are computed first if missing, and made again, kept, if
        s is kept and they are not."""
        f = int(self.best[s])
        if f == UNSET:
            f = int(self._best(np.array([s]), np.ones(1, dtype=bool), settling=True)[0])
        kids = self.kids[s, f].tolist()
        if f != LEAF and (max(kids) < 0 or self.kept[s] and not all(
                self.kept[c] for c in kids if c >= 0)):
            self._split(s, f, settling=True)
            kids = self.kids[s, f].tolist()
        return kids

    def _template(self, s: int, k: int) -> None:
        """Lay out the subtree of s's best splits as its template, in
        preorder from an explicit stack of (state, parent's row, slot), if
        s is settled at k.  The walk stops at the first state whose bound
        passes k and raises s's to it; else s's bound becomes the most
        admissible features of a state in the template, exact as no `best`
        depends on K.  A leaf, or a state that has its own template, is
        not walked again: the leaf is written as it is, and the template's
        rows are copied, their parents' rows rebased."""
        nodes, most = [], 0
        stack = [(s, -1, 0)]
        while stack:
            t, parent, slot = stack.pop()
            if self.least[t] > k:
                self.least[s] = self.least[t]
                return
            if self.size[t] == 1:  # a leaf
                nodes.append((t, LEAF, parent, slot))
                continue
            if self.size[t]:  # t's own template
                rows = self.pool[self.first[t]:self.first[t] + self.size[t]].tolist()
                rows[0][2:] = parent, slot
                for row in rows[1:]:
                    row[2] += len(nodes)
                nodes += rows
                most = max(most, int(self.least[t]))
                continue
            most = max(most, int(self.n_adm[t]))
            below = self._best_kids(t)
            for i in range(len(below) - 1, -1, -1):
                if below[i] >= 0:
                    stack.append((below[i], len(nodes), i))
            nodes.append((t, self.best[t], parent, slot))
        n, m = self._n_pool, len(nodes)
        if n + m > len(self.pool):
            grown = np.zeros((max(2 * n, n + m), 4), dtype=np.int32)
            grown[:n] = self.pool[:n]
            self.pool = grown
        self.pool[n:n + m] = nodes
        self._n_pool += m
        self.least[s], self.size[s], self.first[s] = most, m, n

    def _kids(self, states, features) -> np.ndarray:
        """kids[states, features], each split that passed in an earlier
        step, of a state that outlived it, made again."""
        kids = self.kids[states, features]
        if self._forgot:
            gone = (features != LEAF) & ~(kids >= 0).any(axis=1)
            if gone.any():
                for s, f in dict.fromkeys(zip(states[gone].tolist(),
                                              features[gone].tolist())):
                    self._split(s, f)
                kids = self.kids[states, features]
        return kids

    def _end_step(self, popped, pushed) -> None:
        """Free the passing states no stack holds: those popped in this step,
        and those made in it but not in `pushed` (ids, -1 for none); forget
        its passed splits."""
        if not (self._n_passing or self._passed):
            return
        made = np.array(self._passing, dtype=np.intp)
        stacked = np.zeros(len(self.rows), dtype=bool)
        stacked[pushed[pushed >= 0]] = True
        done = set(made[~stacked[made]].tolist())
        done.update(popped[~self.kept[popped]].tolist())
        for s, f in self._passed:
            self.kids[s, f] = -1
            self._forgot = self._forgot or s not in done
        for s in sorted(done):
            self.rows[s] = self.sums[s] = None
            self._free.append(s)
        self._n_passing -= len(done)
        self._passing.clear()
        self._passed.clear()


class _Log:
    """Columns of int32 appended a block of rows at a time, each doubled in
    place as needed; no view of them is taken until `done`."""

    def __init__(self, n_cols: int, size: int):
        self.cols = [np.empty(size, dtype=np.int32) for _ in range(n_cols)]
        self.n = 0

    def add(self, m: int, *values) -> int:
        """Append m rows, one column of `values` each; returns the first."""
        n = self.n
        if n + m > len(self.cols[0]):
            for col in self.cols:
                col.resize(max(2 * len(col), n + m), refcheck=False)
        for col, value in zip(self.cols, values):
            col[n:n + m] = value
        self.n = n + m
        return n

    def done(self) -> list:
        """Views of the rows appended."""
        return [col[:self.n] for col in self.cols]


def grow_trees(graph: StateGraph, k: int, keys: np.ndarray, seed: int) -> PackedTrees:
    """One tree per uint64 key of `keys`, in order, grown in lock-step on
    `graph` under its impurity kind; `seed` is recorded as the master seed
    the keys derive from (`tree_keys`).  The graph keeps the states, splits
    and templates this build computes, so later builds on it
    (`forest.build_forests` grows every K of a sweep on one) reuse them.
    Rows are the entries of `_BuildContext`: on unweighted data each
    distinct row once, so growth costs per distinct row.

    At every impure node, min(k, #admissible) candidate features are drawn
    uniformly without replacement and the candidate with the largest mean
    impurity decrease splits the node (ties broken towards the lowest
    feature index, then the smallest threshold).  k=1 is the totally
    randomized regime: the drawn feature splits unconditionally.

    Each tree keeps an explicit stack of (state, parent's index, slot)
    entries, pushes a node's children last slot first, and counts its
    nodes in preorder, the order of a recursive build: tree t's node j is
    node offsets[t] + j.  Each step pops one entry from every tree whose
    stack is not empty.  A node with more than k admissible features draws
    its candidates from the hash keys of (its tree's key, j, slot), by one
    vectorised `draw` for every such tree at once; with at most k, its
    split is the state's `best`.  A child settled at k (`StateGraph`)
    whose index is known, because its earlier siblings are all settled,
    is written at once, its whole template at that index, and the counter
    moves past it; the other children are pushed, and a settled entry that
    reaches the top of a stack is written whole in that one pop.  So a
    step grows only nodes that draw or lead to one, and a tree that is
    settled at its root takes one step.  Nothing recurses, so a tree may
    grow as deep as its rows allow.  Each entry written, a node or a
    template, is logged by its state (a passing state's threshold and
    record copied aside).

    Growth is deterministic given the graph, k and the winners a tree
    draws, so two trees that drew the same winners in the same order are
    the same tree.  Each tree keeps its winners as one uint64 code, a digit
    1 + winner in base p + 1 added in each step where it draws; a tree whose
    code would pass CODE_BITS bits is stored alone.  Only the first tree
    with each code is packed: its log entries are kept, and every tree with
    that code indexes it (`PackedTrees.tree_index`).  At the end each
    entry kept covers the nodes from its index up to the next entry's, a
    template's nodes take their states and links from its rows, each child
    is placed by its (parent, slot), and the records are gathered once.
    """
    ctx, impurity = graph.ctx, graph.impurity
    if not 1 <= k <= max(ctx.n_features, 1):
        raise ValueError(f"k must be in 1..{ctx.n_features}, got {k}")
    n_trees, width = len(keys), ctx.width
    if n_trees < 1:
        raise ValueError("need at least one tree")
    # entry d of tree t's stack is stack[:, t * depth + d]: (state, its
    # parent's index, slot); a slot with no child writes to the last column,
    # which no tree reads
    depth = 16
    stack = np.zeros((3, n_trees * depth + 1), dtype=np.int32)
    stack[:, :-1:depth] = np.array([[graph.root], [-1], [0]])
    graph.reach[graph.root] += n_trees
    graph.settled(np.array([graph.root]), k)
    slots = np.arange(width)
    top = np.ones(n_trees, dtype=np.int64)
    at = np.zeros(n_trees, dtype=np.int64)  # each tree's next preorder index
    live = np.arange(n_trees)
    # what is written, in order: tree, index, feature (WHOLE for what is
    # written whole), parent's index, slot and state, or -1 - i for a passing
    # state whose threshold and record went to row i of `passed`
    log = _Log(6, n_trees * min(2 * ctx.n_rows - 1, 64))  # at most 2E - 1 nodes a tree
    passed = [np.empty(0), np.empty((0, 2 + ctx.n_classes))]
    n_passed = 0
    base = ctx.n_features + 1
    code = np.zeros(n_trees, dtype=np.uint64)  # winner codes, wrapping once alone
    alone = np.zeros(n_trees, dtype=bool)
    code_max = np.uint64((2 ** CODE_BITS - base) // base)  # a code that takes a digit
    digit = np.arange(1, base, dtype=np.uint64)  # of each winner

    def write(trees, index, feature, parents, slot, states):
        nonlocal n_passed
        start = log.add(len(states), trees, index, feature, parents, slot, states)
        if graph._n_passing:  # keep what the log needs of passing states
            i = np.flatnonzero(~graph.kept[states])
            if n_passed + i.size > len(passed[0]):
                for col in passed:
                    col.resize((len(log.cols[0]),) + col.shape[1:], refcheck=False)
            passed[0][n_passed:n_passed + i.size] = graph.thr[states[i], np.maximum(feature[i], LEAF)]
            passed[1][n_passed:n_passed + i.size] = graph.record[states[i]]
            log.cols[5][start + i] = -1 - np.arange(n_passed, n_passed + i.size)
            log.cols[2][start + i] = np.maximum(feature[i], LEAF)  # a passing state is a leaf if whole
            n_passed += i.size

    while live.size:
        height = top[live] - 1
        top[live] = height
        states, parents, slot = stack[:, live * depth + height]
        index = at[live]
        # arrays keep one row per live tree, rows that do not take part
        # masked, or a power of two of them: numpy keeps freed arrays under
        # 1 KiB for reuse by size, so few sizes keep few of them
        n_adm = graph.n_adm[states]
        drawn = n_adm > k
        feature = graph._best(states, ~drawn)  # LEAF at a leaf
        n_drawn = int(np.count_nonzero(drawn))
        if n_drawn:  # the candidate of largest gain, the lowest on ties
            # the drawing rows, then other rows up to a power of two
            e = np.argsort(~drawn, kind="stable")[:1 << (n_drawn - 1).bit_length()]
            s_e, draws = states[e], drawn[e]
            cands = draw(keys[live[e]], index[e], graph.adm[s_e], n_adm[e], k)
            gain = graph._gains(s_e, cands, draws)
            if k > 1:
                best = gain == gain.max(axis=1, keepdims=True)
                cands = np.where(best, cands, ctx.n_features).min(axis=1, keepdims=True)
            feature[e] = np.where(draws, cands[:, 0], feature[e])
            t = live[e[draws]]
            c = code[t]
            alone[t[c > code_max]] = True
            code[t] = c * np.uint64(base) + digit[cands[draws, 0]]
        whole = (graph.least[states] <= k) & (graph.size[states] > 1)  # settled, no leaf
        size = 1
        if whole.any():  # written whole
            size = np.where(whole, graph.size[states], 1)
            feature[whole] = WHOLE
        write(live, index, feature, parents, slot, states)
        pushed = np.zeros((0, width), dtype=np.int32)
        if (feature >= 0).any():
            kids = graph._kids(states, np.maximum(feature, LEAF))
            seen = kids >= 0
            some = kids[seen]
            np.add.at(graph.reach, some, 1)
            # the settled children ahead of every unsettled one are written
            # now, each at the index its earlier siblings leave
            now = ~seen
            now[seen] = graph.settled(some, k)
            now = np.logical_and.accumulate(now, axis=1) & seen
            if now.any():
                sizes = np.where(now, graph.size[kids], 0)
                ends = np.cumsum(sizes, axis=1)
                size = size + ends[:, -1]
                r, c = np.nonzero(now)
                write(live[r], index[r] + 1 + ends[r, c] - sizes[r, c],
                      np.full(r.size, WHOLE, dtype=np.int32), index[r], c, kids[r, c])
                seen &= ~now
            rank = np.cumsum(seen, axis=1)  # push the rest, the first slot on top
            tops = top[live] + rank[:, -1]
            if tops.max() > depth:
                grown = np.zeros((3, n_trees * (tops.max() + depth) + 1), dtype=np.int32)
                grown[:, :-1].reshape(3, n_trees, -1)[:, :, :depth] = (
                    stack[:, :-1].reshape(3, n_trees, depth))
                stack, depth = grown, tops.max() + depth
            to = np.where(seen, (live * depth + tops)[:, None] - rank, stack.shape[1] - 1)
            stack[0, to] = kids
            stack[1, to] = index[:, None]
            stack[2, to] = slots
            top[live] = tops
            pushed = np.where(seen, kids, -1)
        at[live] = index + size
        graph._end_step(states, pushed)
        live = live[top[live] > 0]
    thr, rec, pool, first, extent = graph.thr, graph.record, graph.pool, graph.first, graph.size
    del graph, stack  # a graph no caller holds is freed, but for what is read here
    # each tree's group is the first tree with its code, or itself if alone
    group = np.arange(n_trees)
    shared = np.flatnonzero(~alone)
    _, lead, which = np.unique(code[shared], return_index=True, return_inverse=True)
    group[shared] = shared[lead][which.reshape(-1)]
    stored = group == np.arange(n_trees)
    tree_index = (np.cumsum(stored) - 1)[group]
    trees, index, feature, parents, slot, states = log.done()
    del log
    offsets = np.zeros(int(stored.sum()) + 1, dtype=np.int64)
    np.cumsum(at[stored], out=offsets[1:])
    n_nodes = int(offsets[-1])
    # a stored tree's node at index j is node root + j; an entry covers the
    # nodes from its own up to the next entry's.  The entries of the other
    # trees all go to node n_nodes, past the last, which is dropped
    root = np.full(n_trees, n_nodes, dtype=np.int64)
    root[stored] = offsets[:-1]
    node = np.minimum(root[trees] + index, n_nodes)
    start = np.zeros(n_nodes + 1, dtype=np.int64)
    start[node] = node
    np.maximum.accumulate(start, out=start)
    entry = np.empty(n_nodes + 1, dtype=np.int64)
    entry[node] = np.arange(len(node))
    start = start[:n_nodes]
    entry = entry[start]
    row = np.arange(n_nodes) - start  # the node's row in its entry's template
    state, split, slot = states[entry], feature[entry], slot[entry]
    parent = root[trees[entry]] + parents[entry]
    parent[parents[entry] < 0] = -1
    del root, node, entry, trees, index, feature, parents, states
    kept = np.maximum(state, 0)
    whole = split == WHOLE
    split[whole] = LEAF  # a leaf written whole; each template's nodes follow
    whole &= extent[kept] > 1
    if whole.any():
        nodes = np.take(pool, np.where(whole, first[kept] + row, 0), axis=0)
        inner = row > 0
        state = np.where(whole, nodes[:, 0], state)
        split = np.where(whole, nodes[:, 1], split)
        parent = np.where(inner, start + nodes[:, 2], parent)
        slot = np.where(inner, nodes[:, 3], slot)
        kept = np.maximum(state, 0)
        del nodes, inner
    del start, row, whole
    children = np.full((n_nodes, width), LEAF, dtype=np.int32)
    child = np.flatnonzero(parent >= 0)
    children.ravel()[parent[child] * width + slot[child]] = child
    del parent, slot, child
    threshold = thr[kept, split]
    record = np.take(rec, kept, axis=0)
    gone = np.flatnonzero(state < 0)
    threshold[gone] = passed[0][-1 - state[gone]]
    record[gone] = passed[1][-1 - state[gone]]
    return PackedTrees(
        split, threshold, children, record[:, 0], record[:, 1], record[:, 2:],
        offsets, tree_index, seed, k, impurity, ctx.n_train, tuple(ctx.kinds),
        tuple(ctx.arities),
    )


def node_drops(packed: PackedTrees) -> np.ndarray:
    """p(t) i(t) - sum_c p(c) i(c) for every node of `packed`."""
    n = len(packed.mass)
    weighted = np.empty(n + 1)  # p(t) i(t), and 0.0 at LEAF = -1
    np.multiply(packed.mass, packed.impurity, out=weighted[:n])
    weighted[n] = 0.0
    drop = weighted[:n].copy()
    for col in packed.children.T:
        drop -= weighted[col]
    return drop


def mdi_by_tree(packed: PackedTrees) -> np.ndarray:
    """(n_trees, n_features) table: per tree and feature, the sum of the
    node drops of the nodes splitting on the feature, in node order.  One
    bincount over the packed nodes sums each stored tree once; its row is
    then repeated for every tree that shares it."""
    drop = node_drops(packed)
    split = packed.feature != LEAF
    tree = np.repeat(np.arange(packed.n_stored), np.diff(packed.offsets))
    cells = packed.n_stored * packed.n_features
    key = tree[split] * packed.n_features + packed.feature[split]
    sums = np.bincount(key, weights=drop[split], minlength=cells)
    return sums.reshape(packed.n_stored, packed.n_features)[packed.tree_index]


def traverse(packed: PackedTrees, instances: Instances, width: int, move=None,
             end=None) -> np.ndarray:
    """Walk each distinct instance down every tree; returns the
    (distinct, width) sum over trees of what the walks put into each
    instance's row.

    Per chunk of at most CHUNK_PAIRS (tree, distinct instance) pairs,
    tree-major, each stored tree of the chunk's trees is walked once: the
    walks advance one depth level at a time.  After each level
    `move(buf, pair, row, node, child, feature)` sees the pairs that moved,
    and at the end `end(buf, node)` sees the node where each pair stopped;
    both add into `buf`, which has one row per (stored tree, row) pair.
    `row` indexes `instances.x`, the distinct rows.  The rows of each tree,
    its stored tree's, are then added to the result in tree order, so each
    sum depends on its instance alone, whichever trees share a stored one.
    Scratch memory is bounded by the chunk; only the (distinct, width) sums
    grow with the input.

    A walk stops at a leaf, or at the current node when a categorical split
    sends it to a LEAF slot (a category unseen there in training).
    A missing value (None or NaN) or an out-of-range category raises
    MissingFeatureValue, but only when a walk reaches that feature.
    """
    m = len(instances.x)
    acc = np.zeros((m, width))
    if m == 0:
        return acc
    x = instances.x.ravel()
    p = packed.n_features
    categorical = np.array([kd == CATEGORICAL for kd in packed.feature_kinds])
    arity = np.array([a or 0 for a in packed.feature_arities], dtype=np.float64)
    # usable values: any number, or a category code c with int(c) in 0..arity-1;
    # NaN fails both bounds
    v_min = np.where(categorical, np.nextafter(-1.0, 0.0), -np.inf)
    v_max = np.where(categorical, np.nextafter(arity, -np.inf), np.inf)
    feature, threshold = packed.feature, packed.threshold
    kids = packed.children.ravel()
    fanout = packed.children.shape[1]
    offsets = packed.offsets
    rows_per = min(m, CHUNK_PAIRS)
    trees_per = CHUNK_PAIRS // rows_per
    for t0 in range(0, packed.n_trees, trees_per):
        t1 = min(packed.n_trees, t0 + trees_per)
        stored, of_tree = np.unique(packed.tree_index[t0:t1], return_inverse=True)
        for r0 in range(0, m, rows_per):
            r1 = min(m, r0 + rows_per)
            rows = np.tile(np.arange(r0, r1), len(stored))
            node = offsets[np.repeat(stored, r1 - r0)]
            walked = np.zeros((len(stored), r1 - r0, width))
            buf = walked.reshape(-1, width)
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
                    # the caller's own value, not quoted as np.float64(...)
                    bad = instances.source[instances.first[row[i]]][f[i]]
                    bad = bad.item() if isinstance(bad, np.generic) else bad
                    raise MissingFeatureValue(
                        f"feature {f[i]}: no usable value ({bad!r}) "
                        "where a path splits on it"
                    )
                # astype truncates a category code as int() does
                side = np.where(categorical[f], v, v > threshold[node]).astype(np.intp)
                child = kids[node * fanout + side]
                go = child != LEAF  # only exhaustive splits have LEAF slots
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
            stack = np.empty((t1 - t0 + 1, r1 - r0, width))
            stack[0] = acc[r0:r1]
            np.take(walked, of_tree.reshape(-1), axis=0, out=stack[1:])
            np.cumsum(stack, axis=0, out=stack)
            acc[r0:r1] = stack[-1]
    return acc

