"""Brute-force relevance oracles over exact joint distributions.

A feature is relevant when some conditioning context makes it informative
about the output; irrelevance is certified by scanning every subset of the
remaining features and every positive-probability context.  The local
variant fixes the context values to a concrete instance and reads the
conditionals P(Y | x_B) of one subset-lattice walk.
"""

from dataclasses import dataclass, field

import numpy as np

from .impurity import ENTROPY, SubsetLattice, positive_lattice, subset_lattice
from .info_theory import (
    JointDistribution,
    check_feature_count,
    extension_pairs,
    mask_members,
    submasks,
)
from .population import mdi_weight_sum

IRRELEVANT = "irrelevant"
RELEVANT = "relevant"
STRONGLY_RELEVANT = "strongly-relevant"


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
    defined there and no tree branch ever visits them.
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
    for c in range(flat.shape[0]):
        if p_ctx[c] <= 0.0:
            continue
        base = flat[c].sum(axis=0) / p_ctx[c]  # P(y | b)
        for xm in range(j.arities[m]):
            p_xm = flat[c, xm].sum()
            if p_xm <= 0.0:
                continue
            cond = flat[c, xm] / p_xm  # P(y | x_m, b)
            dev = np.abs(cond - base)
            y = int(dev.argmax())
            if dev[y] >= tol:
                ctx_values = (
                    np.unravel_index(c, ctx_shape) if ctx_shape else ()
                )
                b_members = [v for v in all_vars if v != m]
                return {
                    "subset": b_members,
                    "context": [int(v) for v in ctx_values],
                    "x_m": xm,
                    "y": y,
                    "p_given_xm": float(cond[y]),
                    "p_base": float(base[y]),
                }
    return None


def _check_feature(j: JointDistribution, m: int) -> None:
    if not 0 <= m < j.p:
        raise ValueError(f"feature index m = {m} outside 0..{j.p - 1}")


def is_irrelevant(j: JointDistribution, m: int, tol: float = 1e-10) -> RelevanceVerdict:
    """Exhaustive scan over every subset of the other features.

    Verdict `relevant` carries the first witness context found.
    """
    check_feature_count(j.p)
    _check_feature(j, m)
    rest = ((1 << j.p) - 1) & ~(1 << m)
    # smallest subsets first, so the reported witness is a minimal one
    for sub in sorted(submasks(rest), key=lambda s: (s.bit_count(), s)):
        witness = _dependence_witness(j, m, sub, tol)
        if witness is not None:
            return RelevanceVerdict(m, "global", RELEVANT, witness=witness)
    return RelevanceVerdict(m, "global", IRRELEVANT)


def is_strongly_relevant(
    j: JointDistribution, m: int, tol: float = 1e-10
) -> RelevanceVerdict:
    """Single conditional-independence test against all other features.

    When the test passes (not strongly relevant) the verdict falls back to
    the full irrelevance scan, so the result is always one of irrelevant,
    relevant (weakly) or strongly-relevant.
    """
    check_feature_count(j.p)
    _check_feature(j, m)
    rest = ((1 << j.p) - 1) & ~(1 << m)
    witness = _dependence_witness(j, m, rest, tol)
    if witness is not None:
        return RelevanceVerdict(m, "global", STRONGLY_RELEVANT, witness=witness)
    return is_irrelevant(j, m, tol)


def is_locally_irrelevant(
    j: JointDistribution, m: int, x, tol: float = 1e-10
) -> RelevanceVerdict:
    """Scan all subsets B with values pinned to x_B, x_m pinned to the
    instance's own value."""
    _check_feature(j, m)
    lattice = subset_lattice(j, ENTROPY, [x])
    x = tuple(int(v) for v in lattice.instances[0])
    cond = lattice.cond[0]
    bit = 1 << m
    rest = ((1 << j.p) - 1) & ~bit
    for sub in sorted(submasks(rest), key=lambda s: (s.bit_count(), s)):
        dev = np.abs(cond[sub | bit] - cond[sub])
        y = int(dev.argmax())
        if dev[y] >= tol:
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


def local_irrelevance(lattice: SubsetLattice, tol: float = 1e-10) -> np.ndarray:
    """(n, p) verdicts: feature m is locally irrelevant at instance k.

    That holds when max_y |P(y | x_B, x_m) - P(y | x_B)| < tol for every
    subset B of the other features, the scan `is_locally_irrelevant` makes
    for one pair.
    """
    cond = lattice.cond
    n, n_masks = cond.shape[:2]
    p = n_masks.bit_length() - 1
    out = np.empty((n, p), dtype=bool)
    for m in range(p):
        without, with_m = extension_pairs(p, m)
        dev = np.abs(cond[:, with_m] - cond[:, without]).max(axis=2)
        out[:, m] = (dev < tol).all(axis=1)
    return out


@dataclass
class EquivalenceReport:
    """Global irrelevance vs the conjunction of local irrelevance at every
    positive-probability instance; the two verdicts must agree per feature."""

    agreements: list = field(default_factory=list)
    # (feature, globally_irrelevant, locally_irrelevant_everywhere)

    @property
    def passed(self) -> bool:
        return all(g == l for _, g, l in self.agreements)


def verify_global_local_equivalence(
    j: JointDistribution, tol: float = 1e-10, lattice=None
) -> EquivalenceReport:
    """Exhaustively check that global irrelevance holds exactly when local
    irrelevance holds at every instance with positive probability.

    `lattice`, when given, must be a `subset_lattice` walk of j over
    `j.positive_instances()`, of any impurity kind (ValueError otherwise).
    """
    lattice = positive_lattice(j, lattice=lattice)
    everywhere = local_irrelevance(lattice, tol).all(axis=0)
    report = EquivalenceReport()
    for m in range(j.p):
        globally = is_irrelevant(j, m, tol).verdict == IRRELEVANT
        report.agreements.append((m, globally, bool(everywhere[m])))
    return report


@dataclass
class NullScoreReport:
    """Local irrelevance must force a zero local score; the reverse may
    fail (zero score with local relevance), which is recorded, not flagged."""

    max_violation: float = 0.0
    checked: int = 0
    zero_score_but_relevant: int = 0
    tolerance: float = 1e-9

    @property
    def passed(self) -> bool:
        return self.max_violation < self.tolerance


def verify_local_null_scores(
    j: JointDistribution,
    impurity: str = ENTROPY,
    tol: float = 1e-9,
    independence_tol: float = 1e-10,
    lattice=None,
) -> NullScoreReport:
    """For every (feature, instance) certified locally irrelevant, the
    asymptotic local score must vanish.

    `lattice`, when given, must be `subset_lattice(j, impurity,
    j.positive_instances())` (ValueError otherwise).
    """
    lattice = positive_lattice(j, impurity, lattice)
    scores = np.abs(mdi_weight_sum(lattice.at))
    irrelevant = local_irrelevance(lattice, independence_tol)
    report = NullScoreReport(tolerance=tol)
    report.checked = int(irrelevant.sum())
    if report.checked:
        report.max_violation = float(scores[irrelevant].max())
    report.zero_score_but_relevant = int((~irrelevant & (scores < tol)).sum())
    return report
