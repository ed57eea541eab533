"""Impurity abstraction shared by the population formulas and the trees.

Three kinds are supported: Shannon entropy (bits), the Gini index, and the
variance of the output with category codes read as real values.
`subset_lattice` computes every conditional impurity of the exact joint
that the population layer reads, over all 2^p feature subsets, in one walk;
`impurity_from_counts` serves the tree builder.
"""

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from math import log2, prod

import numpy as np

from .errors import TableTooLarge
from .info_theory import GUARD, MAX_CELLS, JointDistribution, check_feature_count

ENTROPY = "entropy"
GINI = "gini"
VARIANCE = "variance"
KINDS = (ENTROPY, GINI, VARIANCE)
# most cells of one block of the lattice walk, scored in one call
LATTICE_CHUNK = 1 << 15


def check_kind(kind: str) -> str:
    if kind not in KINDS:
        raise ValueError(f"impurity must be one of {KINDS}, got {kind!r}")
    return kind


def _sum_fresh(terms) -> np.ndarray:
    """Sum of an iterable of new 1-D arrays, left to right, in the first."""
    terms = iter(terms)
    total = next(terms)
    for term in terms:
        total += term
    return total


def _context_impurities(flat: np.ndarray, kind: str) -> tuple:
    """Per-context mass P(b), conditionals P(y | b) and impurity i(Y | b).

    `flat` is a (contexts, |Y|) stack of rows of joint tables; the
    conditionals come as one array per class y.  All arithmetic is per
    row, so a row's results do not depend on the rows stacked with it.
    Contexts of probability zero get an all-zero conditional; their
    impurity is meaningless but carries weight P(b) = 0 in every mean.
    The work runs over one class column at a time, since numpy pays per
    row on an axis as short as |Y|, and each sum adds the classes left to
    right, as a row-wise formula would.
    """
    n_y = flat.shape[1]
    ctx = flat[:, 0] + flat[:, 1] if n_y > 1 else flat[:, 0].copy()
    for y in range(2, n_y):
        ctx += flat[:, y]
    den = np.maximum(ctx, GUARD)
    cols = [flat[:, y] / den for y in range(n_y)]
    if kind == ENTROPY:
        def term(col):
            arg = np.maximum(col, GUARD)  # log2(GUARD) * 0 where P(y | b) = 0
            np.log2(arg, out=arg)
            arg *= col
            return arg

        per_ctx = _sum_fresh(term(col) for col in cols)
        # zero conditionals give -0.0 terms; + 0.0 turns an all-zero sum
        # to +0.0 and no other, so the signs are the row-wise formula's
        per_ctx += 0.0
        np.negative(per_ctx, out=per_ctx)
    elif kind == GINI:
        per_ctx = 1.0 - _sum_fresh(col * col for col in cols)
    elif kind == VARIANCE:
        means = _sum_fresh(col * float(y) for y, col in enumerate(cols))
        per_ctx = _sum_fresh(col * float(y * y) for y, col in enumerate(cols)) - means * means
    else:
        raise ValueError(f"unknown impurity kind {kind!r}")
    return ctx, cols, per_ctx


def impurity_from_counts(counts, kind: str) -> float:
    """Impurity of a node given per-class weighted counts (list or array)."""
    total = sum(counts)
    if total <= 0.0:
        return 0.0
    if kind == ENTROPY:
        h = 0.0
        for c in counts:
            if c > 0.0:
                q = c / total
                h -= q * log2(q)
        return h
    if kind == GINI:
        s = 0.0
        for c in counts:
            q = c / total
            s += q * q
        return 1.0 - s
    if kind == VARIANCE:
        mean = 0.0
        sq = 0.0
        for y, c in enumerate(counts):
            q = c / total
            mean += q * y
            sq += q * (y * y)
        return sq - mean * mean
    raise ValueError(f"unknown impurity kind {kind!r}")


@dataclass(frozen=True)
class SubsetLattice:
    """Conditional impurities of the output over every feature subset.

    Subsets are bitmasks S over the inputs.  `mean[S]` is E[i(Y | X_S)], so
    `mean[0]` is i(Y).  For the n instances of the walk (rows of
    `instances`), `prob[k]` is P(V = x_k), `at[k, S]` is the pointwise
    impurity i(Y | X_S = x_S) and `cond[k, S]` the conditional
    P(Y | X_S = x_S).  `subset_lattice` hands its tables out read-only.
    """

    kind: str
    mean: np.ndarray  # (2^p,)
    instances: np.ndarray  # (n, p) category codes
    prob: np.ndarray  # (n,)
    at: np.ndarray  # (n, 2^p)
    cond: np.ndarray  # (n, 2^p, |Y|)


def _c_strides(shape: list) -> np.ndarray:
    """Cells per step along each axis of a C-ordered array of `shape`."""
    return np.array([prod(shape[i + 1:]) for i in range(len(shape))], dtype=np.intp)


@lru_cache(maxsize=8)
def _block_plan(lead: tuple) -> tuple:
    """Where the subsets of a block sit in its extended table, cached per
    process by `lead` and read-only, since every walk shares them.

    A block extends each of its l leading axes (arities `lead`) by a slot
    holding the sum over that axis, so a cell of the extended leading grid
    belongs to the subset s that removes the axes at their sum slot (bit
    i of s for axis i).  Returns (order, rank, by_count, runs, removed):
    - `order` lists the grid's cells by (cells per subset, subset, C
      order), so each subset's contexts are contiguous and in the order
      its own marginal has them; `rank` is the inverse permutation;
    - `by_count` lists the subsets in that order, and each (k0, k1, lo,
      hi) of `runs` says that subsets by_count[k0:k1] have equally many
      cells, which fill cells lo:hi of `order`;
    - `removed[s, i]` is 1 when subset s removes axis i.
    """
    l = len(lead)
    subset = np.zeros(1, dtype=np.intp)
    for i, a in enumerate(lead):  # C order: the first axis varies slowest
        slot = np.zeros(a + 1, dtype=np.intp)
        slot[a] = 1 << i
        subset = (subset[:, None] + slot).reshape(-1)
    counts = np.bincount(subset, minlength=1 << l)
    order = np.argsort((counts[subset] << l) | subset, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    by_count = np.argsort(counts, kind="stable")
    runs, k0, lo = [], 0, 0
    for size, run in groupby(counts[by_count].tolist()):
        k = len(list(run))
        runs.append((k0, k0 + k, lo, lo + k * size))
        k0, lo = k0 + k, lo + k * size
    removed = (np.arange(1 << l)[:, None] >> np.arange(l)) & 1
    for a in (order, rank, by_count, removed):
        a.setflags(write=False)
    return order, rank, by_count, tuple(runs), removed


def subset_lattice(j: JointDistribution, kind: str, instances=None) -> SubsetLattice:
    """Walk all 2^p feature subsets of `j` once, depth first, by blocks.

    Each marginal P(X_S, Y) is its parent's with one input axis summed
    out.  A node of the walk (members M, limit L) stands for the subsets
    M minus R, R a subset of its members below L.  Extending its table's
    first l of those axes by a sum slot, in descending order, lays out the
    2^l marginals with R among them, summed exactly as one axis at a time
    would; one `_context_impurities` call scores them all, and the walk
    goes on only into the children that remove a later axis.  l is the
    largest that keeps the extended table within LATTICE_CHUNK cells, so
    the walk holds one chain of tables (under twice the joint when every
    arity is at least 2) plus one block of at most LATTICE_CHUNK cells
    (or one node's table, if larger) with its scoring arrays; the results
    do not depend on the block sizes.  `instances` (full configurations
    with positive probability) add n * 2^p * (|Y| + 1) cells of
    per-instance tables, filled from each block a slice of instances at a
    time, so the scratch of those gathers stays about block-sized
    whatever n is; a batch whose n * 2^p * |Y| exceeds MAX_CELLS raises
    TableTooLarge before anything is allocated.  The walk leaves no
    reference cycle: its scratch is freed as it returns, but for the last
    few block plans, which `_block_plan` keeps for later walks, and the
    lattice, whose tables are read-only, once the caller drops it.
    """
    check_kind(kind)
    check_feature_count(j.p)
    p, n_y = j.p, j.output_arity
    n = 0 if instances is None else len(instances)
    if n * (1 << p) * n_y > MAX_CELLS:
        raise TableTooLarge(
            f"{n} instances x 2^{p} subsets x {n_y} outputs exceed "
            f"the {MAX_CELLS}-cell limit"
        )
    if n:
        xs, prob = j.instance_probs(instances)
    else:
        xs, prob = np.empty((0, p), dtype=np.intp), np.empty(0)
    arities = j.input_arities
    mean = np.empty(1 << p)
    at = np.empty((n, 1 << p))
    cond = np.empty((n, 1 << p, n_y))
    # nodes to visit: (parent's table, mask and members, the axis the node
    # sums out, None at the root).  A node's table is made when it is
    # popped, so the stack holds one chain of tables; unlike a closure
    # that calls itself, a stack leaves no reference cycle behind.
    stack = [(j.table, (1 << p) - 1, tuple(range(p)), None)]
    while stack:
        table, mask, members, summed = stack.pop()
        if summed is None:
            limit = p
        else:
            limit = members[summed]
            table = table.sum(axis=summed)
            mask &= ~(1 << limit)
            members = members[:summed] + members[summed + 1:]
        # `table` is P(X_members, Y), axes in ascending member order
        removable = bisect_left(members, limit)
        l, size = 0, table.size
        while l < removable:
            a = arities[members[l]]
            if size // a * (a + 1) > LATTICE_CHUNK:
                break
            size = size // a * (a + 1)
            l += 1
        lead = tuple(arities[i] for i in members[:l])
        order, rank, by_count, runs, removed = _block_plan(lead)
        block = table
        # descending, so a subset's axes are summed largest first, as one
        # removal at a time does
        for axis in reversed(range(l)):
            block = np.concatenate(
                [block, block.sum(axis=axis, keepdims=True)], axis=axis
            )
        rest = block.size // (len(order) * n_y)  # contexts of the later axes
        if l:
            block = block.reshape(len(order), -1).take(order, axis=0)
        ctx, cols, per_ctx = _context_impurities(block.reshape(-1, n_y), kind)
        masks = mask - removed @ np.array([1 << i for i in members[:l]], dtype=np.intp)
        # one BLAS dot per subset over its contiguous contexts, as
        # `ctx @ per_ctx` on the subset's own rows would be
        sums = np.empty(len(masks))
        for k0, k1, lo, hi in runs:
            np.matmul(
                ctx[lo * rest:hi * rest].reshape(k1 - k0, 1, -1),
                per_ctx[lo * rest:hi * rest].reshape(k1 - k0, -1, 1),
                out=sums[k0:k1].reshape(-1, 1, 1),
            )
        mean[masks[by_count]] = sums
        if n:
            # instance k's context of subset s sits at cell cells[k, s] of
            # the extended leading grid: its own value on each kept axis,
            # the sum slot on each removed one (bit i of s, axis i)
            lead_strides = _c_strides([a + 1 for a in lead])
            slots = np.array(lead, dtype=np.intp) * lead_strides
            later_strides = _c_strides([arities[i] for i in members[l:]])
            # a slice of instances at a time, so the scratch holds about as
            # many cells as the block, however many instances there are
            rows = max(1, len(ctx) // len(masks))
            for lo in range(0, n, rows):
                x = xs[lo:lo + rows, members]
                own = x[:, :l] * lead_strides
                cells = own.sum(axis=1)[:, None] + (slots - own) @ removed.T
                idx = rank[cells] * rest + (x[:, l:] @ later_strides)[:, None]
                at[lo:lo + rows, masks] = per_ctx[idx]
                for y, col in enumerate(cols):
                    cond[lo:lo + rows, masks, y] = col[idx]
                del x, own, cells, idx
        # free the block before going deeper: only the chain of tables stays
        del block, ctx, cols, per_ctx
        # children remove a later axis; pushed last first, so they are
        # visited in axis order, depth first
        for axis in reversed(range(l, removable)):
            stack.append((table, mask, members, axis))
    for t in (mean, xs, prob, at, cond):
        t.setflags(write=False)
    return SubsetLattice(kind, mean, xs, prob, at, cond)

