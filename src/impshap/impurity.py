"""Impurity abstraction shared by the population formulas and the trees.

Three kinds are supported: Shannon entropy (bits), the Gini index, and the
variance of the output with category codes read as real values.  Population
variants condition the exact joint; the count-based variants serve the tree
builder.  `subset_lattice` computes every conditional impurity the
population layer reads, over all 2^p feature subsets, in one walk.
"""

from collections.abc import Mapping
from dataclasses import dataclass
from math import log2

import numpy as np

from .errors import TableTooLarge
from .info_theory import MAX_CELLS, JointDistribution, as_mask, check_feature_count

ENTROPY = "entropy"
GINI = "gini"
VARIANCE = "variance"
KINDS = (ENTROPY, GINI, VARIANCE)


def check_kind(kind: str) -> str:
    if kind not in KINDS:
        raise ValueError(f"impurity must be one of {KINDS}, got {kind!r}")
    return kind


def impurity_of_dist(probs: np.ndarray, kind: str) -> float:
    """Impurity of a normalized distribution over output categories 0..|Y|-1."""
    probs = np.asarray(probs, dtype=np.float64)
    if kind == ENTROPY:
        pos = probs[probs > 0.0]
        return float(-(pos * np.log2(pos)).sum())
    if kind == GINI:
        return float(1.0 - (probs * probs).sum())
    if kind == VARIANCE:
        codes = np.arange(probs.size, dtype=np.float64)
        mean = float(probs @ codes)
        return float(probs @ (codes * codes) - mean * mean)
    raise ValueError(f"unknown impurity kind {kind!r}")


def prior_impurity(j: JointDistribution, kind: str) -> float:
    """Impurity of the output marginal, i(Y)."""
    return impurity_of_dist(j.marginal(1 << j.p), kind)


def conditional_impurity_at(
    j: JointDistribution, values: Mapping[int, int], kind: str
) -> float:
    """Impurity of P(Y | assignment); the pointwise (per-context) quantity."""
    return impurity_of_dist(j.cond_output_dist(values), kind)


def mean_conditional_impurity(j: JointDistribution, subset, kind: str) -> float:
    """E_b[i(Y | subset = b)] over contexts with positive probability.

    For entropy this is the mean conditional entropy H(Y | subset); for
    variance it is E[Var(Y | subset)].
    """
    mask = as_mask(subset, j.p)
    if mask == 0:
        return prior_impurity(j, kind)
    marg = j.marginal(mask | (1 << j.p))  # output is the last axis
    ctx, _, per_ctx = _context_impurities(marg.reshape(-1, j.output_arity), kind)
    return float(ctx @ per_ctx)


def _context_impurities(flat: np.ndarray, kind: str) -> tuple:
    """Per-context mass P(b), conditional P(Y | b) and impurity i(Y | b).

    `flat` is a (contexts, |Y|) slice of a joint table.  Contexts of
    probability zero get an all-zero conditional; their impurity is
    meaningless but carries weight P(b) = 0 in every mean.
    """
    ctx = flat.sum(axis=1)
    cond = flat / np.where(ctx > 0.0, ctx, 1.0)[:, None]
    if kind == ENTROPY:
        safe = np.where(cond > 0.0, cond, 1.0)
        per_ctx = -(cond * np.log2(safe)).sum(axis=1)
    elif kind == GINI:
        per_ctx = 1.0 - (cond * cond).sum(axis=1)
    elif kind == VARIANCE:
        codes = np.arange(flat.shape[1], dtype=np.float64)
        means = cond @ codes
        per_ctx = cond @ (codes * codes) - means * means
    else:
        raise ValueError(f"unknown impurity kind {kind!r}")
    return ctx, cond, per_ctx


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


@dataclass
class SubsetLattice:
    """Conditional impurities of the output over every feature subset.

    Subsets are bitmasks S over the inputs.  `mean[S]` is E[i(Y | X_S)], so
    `mean[0]` is i(Y).  For the n instances of the walk (rows of
    `instances`), `prob[k]` is P(V = x_k), `at[k, S]` is the pointwise
    impurity i(Y | X_S = x_S) and `cond[k, S]` the conditional
    P(Y | X_S = x_S).
    """

    kind: str
    mean: np.ndarray  # (2^p,)
    instances: np.ndarray  # (n, p) category codes
    prob: np.ndarray  # (n,)
    at: np.ndarray  # (n, 2^p)
    cond: np.ndarray  # (n, 2^p, |Y|)


def subset_lattice(j: JointDistribution, kind: str, instances=None) -> SubsetLattice:
    """Walk all 2^p feature subsets of `j` once, depth first.

    Each marginal P(X_S, Y) is its parent's with one input axis summed out,
    so only one chain of tables is alive at a time: under twice the joint
    when every arity is at least 2.  Binary inputs make about 3^p * |Y|
    cells summed in total.  `instances` (full configurations with positive
    probability) add n * 2^p * (|Y| + 1) cells of per-instance tables; a
    batch whose n * 2^p * |Y| exceeds MAX_CELLS raises TableTooLarge before
    anything is allocated.
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

    def visit(table, mask, members, limit):
        # `table` is P(X_members, Y), axes in ascending member order
        ctx, c, per_ctx = _context_impurities(table.reshape(-1, n_y), kind)
        mean[mask] = ctx @ per_ctx
        if n:
            idx = np.zeros(n, dtype=np.intp)
            for i in members:
                idx = idx * arities[i] + xs[:, i]
            at[:, mask] = per_ctx[idx]
            cond[:, mask] = c[idx]
        # removing members in descending order reaches each subset once
        for axis, i in enumerate(members):
            if i >= limit:
                break
            child = members[:axis] + members[axis + 1:]
            visit(table.sum(axis=axis), mask & ~(1 << i), child, i)

    visit(j.table, (1 << p) - 1, tuple(range(p)), p)
    return SubsetLattice(kind, mean, xs, prob, at, cond)


def positive_lattice(
    j: JointDistribution, kind: str | None = None, lattice: SubsetLattice | None = None
) -> SubsetLattice:
    """The walk of `j` over every instance with positive probability.

    Without `lattice`, walks j (entropy unless `kind` is given).  A given
    `lattice` is returned after checking that it is that walk, and of
    impurity `kind` when one is named; otherwise raises ValueError.
    """
    if lattice is None:
        return subset_lattice(j, kind or ENTROPY, j.positive_instances())
    if kind is not None and lattice.kind != kind:
        raise ValueError(f"lattice of impurity {lattice.kind!r}, expected {kind!r}")
    xs = np.argwhere(j.table.sum(axis=-1) > 0.0)
    cells = j.table[tuple(xs.T)]  # P(x, y), one row per positive instance
    prob = cells.sum(axis=-1)
    # P(x) and P(y | x) at every positive x pin the whole joint
    if not (
        lattice.cond.shape == (len(xs), 1 << j.p, j.output_arity)
        and np.array_equal(lattice.instances, xs)
        and np.allclose(lattice.prob, prob, rtol=0.0, atol=1e-12)
        and np.allclose(lattice.cond[:, -1], cells / prob[:, None], rtol=0.0, atol=1e-12)
    ):
        raise ValueError("lattice does not walk the positive instances of this joint")
    return lattice
