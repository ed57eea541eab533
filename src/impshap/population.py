"""Population-level MDI: the closed-form scores an infinite ensemble of
fully developed, totally randomized trees converges to, plus the
decomposition identities tying global scores, local scores and the total
information together.

The global score of feature m sums, over all subsets B of the other
features, the mean impurity decrease obtained by adding m after B, with
weight 1/(C(p,|B|) * (p-|B|)).  The local variant replaces mean decreases
with pointwise decreases at a concrete instance.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

from .impurity import ENTROPY, positive_lattice, subset_lattice
from .info_theory import JointDistribution, extension_pairs, subset_sizes


@dataclass
class PopulationImportance:
    """Per-feature asymptotic scores; global, or local at one instance."""

    scores: np.ndarray
    impurity: str
    instance: tuple | None = None  # None for the global measure

    @property
    def scope(self) -> str:
        return "global" if self.instance is None else "local"

    def to_json_dict(self) -> dict:
        d = {
            "method": f"pop-mdi-{self.scope}",
            "impurity": self.impurity,
            "scores": [float(v) for v in self.scores],
        }
        if self.instance is not None:
            d["instance"] = list(self.instance)
        return d


def subset_weights(p: int) -> list:
    """Weight of a conditioning subset of size k: 1 / (C(p,k) * (p-k))."""
    return [1.0 / (comb(p, k) * (p - k)) for k in range(p)]


def mdi_weight_sum(values: np.ndarray) -> np.ndarray:
    """Per-feature MDI sums over a table of conditional impurities.

    `values` has one row per measure and one column per subset mask S
    (2^p columns): a mean E[i(Y | X_S)] or a pointwise i(Y | X_S = x_S).
    Feature m scores the sum over subsets B without m of
    (values[B] - values[B + m]) / (C(p,|B|) * (p-|B|)); one row of scores
    per row of `values`.
    """
    values = np.atleast_2d(values)
    p = values.shape[1].bit_length() - 1
    sizes = subset_sizes(p)
    weights = np.array(subset_weights(p))
    scores = np.empty((values.shape[0], p))
    for m in range(p):
        without, with_m = extension_pairs(p, m)
        drop = values[:, without] - values[:, with_m]
        scores[:, m] = drop @ weights[sizes[without]]
    return scores


def pop_global_mdi(j: JointDistribution, impurity: str = ENTROPY) -> PopulationImportance:
    """Asymptotic global MDI of every feature.

    For the entropy impurity the inner terms are the conditional mutual
    informations I(Y; X_m | B); other impurities substitute their own mean
    conditional decrease.  Contexts of probability zero contribute nothing
    (no tree branch ever reaches them).
    """
    lattice = subset_lattice(j, impurity)
    return PopulationImportance(mdi_weight_sum(lattice.mean)[0], impurity)


def pop_local_mdi_batch(j: JointDistribution, instances, impurity: str = ENTROPY) -> np.ndarray:
    """Asymptotic local MDI at each of the instances, one row each.

    One lattice walk serves the whole batch; see `pop_local_mdi`.
    """
    return mdi_weight_sum(subset_lattice(j, impurity, instances).at)


def pop_local_mdi(
    j: JointDistribution, x, impurity: str = ENTROPY
) -> PopulationImportance:
    """Asymptotic local MDI of every feature at the instance x.

    Sums pointwise impurity differences i(Y | B = x_B) - i(Y | B = x_B,
    X_m = x_m) with the same subset weights as the global measure; terms
    can be negative.
    """
    scores = pop_local_mdi_batch(j, [x], impurity)[0]
    return PopulationImportance(scores, impurity, instance=tuple(int(v) for v in x))


@dataclass
class DecompositionReport:
    """Residuals of the three exact decomposition identities.

    (a) feature scores sum to the total impurity reduction of knowing all
        inputs; (b) each global score is the P(x)-weighted mean of its
        local scores; (c) the double sum over features and instances
        recovers the same total.
    """

    impurity: str
    total: float  # i(Y) - E[i(Y | V)]
    efficiency_residual: float
    instance_residual: float  # max over features
    double_sum_residual: float
    global_scores: np.ndarray
    tolerance: float = 1e-9

    @property
    def passed(self) -> bool:
        return (
            self.efficiency_residual < self.tolerance
            and self.instance_residual < self.tolerance
            and self.double_sum_residual < self.tolerance
        )

    def to_json_dict(self) -> dict:
        return {
            "impurity": self.impurity,
            "total": self.total,
            "efficiency_residual": self.efficiency_residual,
            "instance_residual": self.instance_residual,
            "double_sum_residual": self.double_sum_residual,
            "global_scores": [float(v) for v in self.global_scores],
            "passed": self.passed,
        }


def check_decompositions(
    j: JointDistribution, impurity: str = ENTROPY, tol: float = 1e-9, lattice=None
) -> DecompositionReport:
    """Verify the efficiency, per-instance and double decompositions by
    exhaustive enumeration of the positive-probability instances.

    `lattice`, when given, must be `subset_lattice(j, impurity,
    j.positive_instances())` (ValueError otherwise); callers running
    several checks share it.
    """
    lattice = positive_lattice(j, impurity, lattice)
    glob = mdi_weight_sum(lattice.mean)[0]
    total = float(lattice.mean[0] - lattice.mean[-1])
    local = mdi_weight_sum(lattice.at)
    probs = lattice.prob
    recomposed = probs @ local
    return DecompositionReport(
        impurity=impurity,
        total=total,
        efficiency_residual=abs(float(glob.sum()) - total),
        instance_residual=float(np.abs(recomposed - glob).max()),
        double_sum_residual=abs(float(local.sum(axis=1) @ probs) - total),
        global_scores=glob,
        tolerance=tol,
    )
