"""Population-level MDI: the closed-form scores an infinite ensemble of
fully developed, totally randomized trees converges to, plus the
exact identities tying them to Shapley values, local scores, the total
information and relevance.

The global score of feature m sums, over all subsets B of the other
features, the mean impurity decrease obtained by adding m after B, with
weight 1/(C(p,|B|) * (p-|B|)).  The local variant replaces mean decreases
with pointwise decreases at a concrete instance.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

from .impurity import ENTROPY, subset_lattice
from .info_theory import JointDistribution, extension_pairs, subset_sizes
from .relevance import IRRELEVANT, is_irrelevant, local_irrelevance
from .tu_game import lattice_games, shapley_exact, shapley_payoffs


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


def check_identities(
    j: JointDistribution, impurity: str = ENTROPY, tol: float = 1e-9
) -> tuple:
    """The paper's exact identities on j, from one subset-lattice walk over
    every positive-probability instance.

    Returns (records, total, global_scores): one record
    {name, max_residual, tolerance, passed} per identity, the residual
    passing when below its tolerance; total = i(Y) - E[i(Y | V)].  Each
    Shapley check sets the MDI weight sum over conditional decreases
    against the Shapley sum over marginal contributions, the local games
    in one batch.  The decompositions: scores sum to the total
    (efficiency), each global score is the P(x)-weighted mean of its local
    scores (instance) and the double sum over features and instances
    recovers the total (double).  Global irrelevance must agree with local
    irrelevance at every instance, and local irrelevance must force a zero
    local score; `tol` bounds the decompositions and the null scores.
    """
    records = []

    def record(name, residual, tolerance):
        records.append({"name": name, "max_residual": float(residual),
                        "tolerance": tolerance, "passed": bool(residual < tolerance)})

    lattice = subset_lattice(j, impurity, j.positive_instances())
    global_game, local_values = lattice_games(lattice)
    glob, local = mdi_weight_sum(lattice.mean)[0], mdi_weight_sum(lattice.at)
    irrelevant = local_irrelevance(lattice)
    record("global-shapley-equivalence",
           np.abs(glob - shapley_exact(global_game).payoffs).max(), 1e-10)
    record("local-shapley-equivalence",
           float(np.abs(local - shapley_payoffs(local_values)).max()), 1e-10)

    total = float(lattice.mean[0] - lattice.mean[-1])
    probs = lattice.prob
    record("efficiency", abs(float(glob.sum()) - total), tol)
    record("instance-decomposition", float(np.abs(probs @ local - glob).max()), tol)
    record("double-decomposition", abs(float(local.sum(axis=1) @ probs) - total), tol)

    everywhere = irrelevant.all(axis=0)
    agree = all((is_irrelevant(j, m).verdict == IRRELEVANT) == everywhere[m]
                for m in range(j.p))
    record("global-local-relevance-agreement", 0.0 if agree else 1.0, 1.0)
    violation = float(np.abs(local)[irrelevant].max()) if irrelevant.any() else 0.0
    record("local-null-scores", violation, tol)
    return records, total, glob
