"""Brute-force relevance oracles over exact joint distributions.

A feature is relevant when some conditioning context makes it informative
about the output; irrelevance is certified by scanning every subset of the
remaining features and every positive-probability context.  The local
variant fixes the context values to a concrete instance and reads the
conditionals P(Y | x_B) of one subset-lattice walk.

Every verdict compares conditionals with one fixed tolerance,
`INDEPENDENCE_TOL`: a deviation below it counts as independence, so the
float error of exact tables never makes a feature relevant.
"""

from dataclasses import dataclass
from math import prod

import numpy as np

from .impurity import ENTROPY, SubsetLattice, subset_lattice
from .info_theory import (
    GUARD,
    JointDistribution,
    check_feature_count,
    mask_members,
    submasks,
)

IRRELEVANT = "irrelevant"
RELEVANT = "relevant"
STRONGLY_RELEVANT = "strongly-relevant"
# largest max_y |P(y | x_m, b) - P(y | b)| still read as independence
INDEPENDENCE_TOL = 1e-10
# most cells of the table `_screen` builds to find the subsets worth a
# witness search: 8 MiB of float64, held about twice while it is extended,
# plus columns of at most half of it; a larger joint's global scan
# searches every subset
SCREEN_CELLS = 1 << 20


@dataclass
class RelevanceVerdict:
    feature: int
    scope: str  # "global" or "local-at-x"
    verdict: str
    witness: dict | None = None  # present iff relevant / strongly-relevant
    instance: tuple | None = None


def _dependence_witness(j: JointDistribution, m: int, b_mask: int, tol: float):
    """Find (b, x_m, y) where P(y | x_m, b) deviates from P(y | b).

    Contexts with zero probability are skipped: the conditional is not
    defined there and no tree branch ever visits them.  The witness is the
    first deviation in C order over (b, x_m), each conditional computed
    as one context at a time would.
    """
    members = mask_members(b_mask)
    ctx_joint = j.marginal(b_mask | (1 << m) | (1 << j.p))
    # axes of the marginal: sorted(members + (m,)) then the output
    all_vars = sorted(members + (m,))
    m_axis = all_vars.index(m)
    table = np.moveaxis(ctx_joint, m_axis, -2)  # (... contexts ..., x_m, y)
    ctx_shape = table.shape[:-2]
    flat = table.reshape(-1, j.arities[m], j.output_arity)
    p_ctx = flat.sum(axis=(1, 2))
    p_xm = flat.sum(axis=2)
    base = flat.sum(axis=1) / np.where(p_ctx > 0.0, p_ctx, 1.0)[:, None]  # P(y | b)
    cond = flat / np.where(p_xm > 0.0, p_xm, 1.0)[:, :, None]  # P(y | x_m, b)
    dev = np.abs(cond - base[:, None, :])
    found = (p_ctx[:, None] > 0.0) & (p_xm > 0.0) & (dev.max(axis=2) >= tol)
    if not found.any():
        return None
    c, xm = divmod(int(found.argmax()), j.arities[m])
    y = int(dev[c, xm].argmax())
    ctx_values = np.unravel_index(c, ctx_shape) if ctx_shape else ()
    return {
        "subset": [v for v in all_vars if v != m],
        "context": [int(v) for v in ctx_values],
        "x_m": xm,
        "y": y,
        "p_given_xm": float(cond[c, xm, y]),
        "p_base": float(base[c, y]),
    }


def _check_feature(j: JointDistribution, m: int) -> None:
    if not 0 <= m < j.p:
        raise ValueError(f"feature index m = {m} outside 0..{j.p - 1}")


def _by_size(masks) -> list:
    """`masks` smallest first, then ascending, so a first witness is minimal."""
    return sorted(masks, key=lambda s: (s.bit_count(), s))


def _screen(j: JointDistribution, m: int) -> list | None:
    """The nonempty subsets B of the other features on which some context
    b may make x_m informative about Y, in `_by_size` order; None when
    the screen's table would exceed SCREEN_CELLS.

    One table holds every P(b, x_m, y): each other feature's axis is
    extended by a slot holding the sum over it, so a cell of those axes is
    the context of the subset that keeps the axes off their sum slot, and
    x_m and Y are the last two axes.  A subset is kept when some context
    with P(b, x_m) > 0 deviates by INDEPENDENCE_TOL / 2 or more.  Its sums
    are taken in another order than a subset's own marginal, which moves a
    deviation by a few ulps, far below that margin, and no zero test (a
    sum of nonnegative terms is 0 only when all are), so every subset
    with a witness is kept.
    """
    others = [i for i in range(j.p) if i != m]
    a_m, n_y = j.arities[m], j.output_arity
    if prod(j.arities[i] + 1 for i in others) * a_m * n_y > SCREEN_CELLS:
        return None
    table = np.moveaxis(j.table, m, -2)
    subset = np.zeros(1, dtype=np.intp)  # the subset of each context, C order
    for axis, i in enumerate(others):
        table = np.concatenate([table, table.sum(axis=axis, keepdims=True)], axis=axis)
        slot = np.full(j.arities[i] + 1, 1 << i, dtype=np.intp)
        slot[-1] = 0
        subset = (subset[:, None] + slot).reshape(-1)
    # one column per (x_m, y): numpy pays per row on axes this short
    flat = table.reshape(-1, a_m, n_y)
    cols = [[flat[:, x, y] for y in range(n_y)] for x in range(a_m)]
    p_xm = [sum(row[1:], row[0]) for row in cols]
    p_ctx = sum(p_xm[1:], p_xm[0])
    den = np.maximum(p_ctx, GUARD)
    base = [sum((row[y] for row in cols[1:]), cols[0][y]) / den for y in range(n_y)]
    flag = np.zeros(len(subset), dtype=bool)
    for row, mass in zip(cols, p_xm):
        den = np.maximum(mass, GUARD)
        dev = np.abs(row[0] / den - base[0])
        for y in range(1, n_y):
            np.maximum(dev, np.abs(row[y] / den - base[y]), out=dev)
        flag |= (mass > 0.0) & (dev >= INDEPENDENCE_TOL / 2)
    # a bool per mask, not np.unique: numpy holds about 0.5 MiB of heap
    # from its first np.unique call on, which would show in peak RSS
    kept = np.zeros(1 << j.p, dtype=bool)
    kept[subset[flag]] = True
    return _by_size(np.flatnonzero(kept).tolist())


def is_irrelevant(j: JointDistribution, m: int) -> RelevanceVerdict:
    """Exhaustive scan over every subset of the other features.

    Verdict `relevant` carries the first witness context found, in
    `_by_size` order, so a minimal one.  The empty subset, whose marginal
    is the cheapest, is tried first; the rest are screened at once
    (`_screen`), and only the subsets the screen keeps are searched for a
    witness, or every subset when the joint is too large to screen.
    """
    check_feature_count(j.p)
    _check_feature(j, m)
    rest = ((1 << j.p) - 1) & ~(1 << m)
    witness = _dependence_witness(j, m, 0, INDEPENDENCE_TOL)
    if witness is None:
        subsets = _screen(j, m)
        if subsets is None:
            subsets = _by_size(submasks(rest))
        for sub in subsets:
            if sub:
                witness = _dependence_witness(j, m, sub, INDEPENDENCE_TOL)
                if witness is not None:
                    break
    if witness is not None:
        return RelevanceVerdict(m, "global", RELEVANT, witness=witness)
    return RelevanceVerdict(m, "global", IRRELEVANT)


def is_strongly_relevant(j: JointDistribution, m: int) -> RelevanceVerdict:
    """Single conditional-independence test against all other features.

    When the test passes (not strongly relevant) the verdict falls back to
    the full irrelevance scan, so the result is always one of irrelevant,
    relevant (weakly) or strongly-relevant.
    """
    check_feature_count(j.p)
    _check_feature(j, m)
    rest = ((1 << j.p) - 1) & ~(1 << m)
    witness = _dependence_witness(j, m, rest, INDEPENDENCE_TOL)
    if witness is not None:
        return RelevanceVerdict(m, "global", STRONGLY_RELEVANT, witness=witness)
    return is_irrelevant(j, m)


def is_locally_irrelevant(j: JointDistribution, m: int, x) -> RelevanceVerdict:
    """Scan all subsets B with values pinned to x_B, x_m pinned to the
    instance's own value."""
    _check_feature(j, m)
    lattice = subset_lattice(j, ENTROPY, [x])
    x = tuple(int(v) for v in lattice.instances[0])
    cond = lattice.cond[0]
    bit = 1 << m
    rest = ((1 << j.p) - 1) & ~bit
    for sub in _by_size(submasks(rest)):
        dev = np.abs(cond[sub | bit] - cond[sub])
        y = int(dev.argmax())
        if dev[y] >= INDEPENDENCE_TOL:
            witness = {
                "subset": list(mask_members(sub)),
                "context": [x[v] for v in mask_members(sub)],
                "x_m": x[m],
                "y": y,
                "p_given_xm": float(cond[sub | bit, y]),
                "p_base": float(cond[sub, y]),
            }
            return RelevanceVerdict(
                m, "local-at-x", RELEVANT, witness=witness, instance=x
            )
    return RelevanceVerdict(m, "local-at-x", IRRELEVANT, instance=x)


def local_irrelevance(lattice: SubsetLattice) -> np.ndarray:
    """(n, p) verdicts: feature m is locally irrelevant at instance k.

    That holds when max_y |P(y | x_B, x_m) - P(y | x_B)| < INDEPENDENCE_TOL
    for every subset B of the other features, the scan
    `is_locally_irrelevant` makes for one pair.
    """
    cond = lattice.cond
    n, n_masks, n_y = cond.shape
    p = n_masks.bit_length() - 1
    out = np.empty((n, p), dtype=bool)
    for m in range(p):
        # mask B + b * 2^m at [:, B's bits above m, b, B's bits below m]
        pairs = cond.reshape(n, -1, 2, 1 << m, n_y)
        without, with_m = pairs[:, :, 0], pairs[:, :, 1]
        # the largest deviation over the classes, one class at a time
        dev = np.abs(with_m[..., 0] - without[..., 0])
        for y in range(1, n_y):
            np.maximum(dev, np.abs(with_m[..., y] - without[..., y]), out=dev)
        out[:, m] = (dev < INDEPENDENCE_TOL).all(axis=(1, 2))
    return out
