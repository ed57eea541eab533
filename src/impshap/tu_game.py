"""Exact Shapley values for transferable-utility games over <= 20 players.

Coalitions are integer bitmasks.  The characteristic function is memoized
over all 2^p coalitions once, then every payoff is a float sum of marginal
contributions weighted by |S|!(p-|S|-1)!/p!, each weight rounded once from
an exact Fraction.  The information and variance games read their
coalition tables from one subset-lattice walk of the joint.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

import numpy as np

from .errors import NonZeroEmptyCoalition
from .impurity import ENTROPY, GINI, VARIANCE, SubsetLattice, subset_lattice
from .info_theory import (
    JointDistribution,
    check_feature_count,
    clamp_mi,
    subset_sizes,
)

GLOBAL_INFO = "global-info"
LOCAL_INFO = "local-info"
GLOBAL_VARIANCE = "global-variance"
LOCAL_VARIANCE = "local-variance"
# (global, local) game labels per impurity kind
GAME_LABELS = {
    ENTROPY: (GLOBAL_INFO, LOCAL_INFO),
    GINI: ("global-gini", "local-gini"),
    VARIANCE: (GLOBAL_VARIANCE, LOCAL_VARIANCE),
}


@dataclass
class TUGame:
    """A cooperative game: player count and coalition evaluator v(mask).

    v(0) must be 0; the evaluator must be deterministic per coalition.
    """

    p: int
    evaluate: callable
    label: str = "custom"

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("need at least one player")
        check_feature_count(self.p)
        v0 = float(self.evaluate(0))
        if abs(v0) > 1e-12:
            raise NonZeroEmptyCoalition(f"v(empty) = {v0!r}, expected 0")

    def coalition_values(self) -> np.ndarray:
        """Memo table v over all 2^p coalition masks."""
        values = np.empty(1 << self.p)
        for mask in range(1 << self.p):
            values[mask] = self.evaluate(mask)
        return values


@dataclass
class ShapleyVector:
    """Per-player payoffs; they sum to v(all players) by construction."""

    payoffs: np.ndarray
    game_total: float
    game_label: str = "custom"

    def __post_init__(self):
        self.payoffs = np.asarray(self.payoffs, dtype=np.float64)
        residual = abs(float(self.payoffs.sum()) - self.game_total)
        if residual > 1e-9:
            raise ValueError(
                f"payoffs sum to {self.payoffs.sum()!r}, expected "
                f"{self.game_total!r} (residual {residual:.3e})"
            )

    def to_json_dict(self) -> dict:
        return {
            "method": "shapley-exact",
            "game": self.game_label,
            "payoffs": [float(v) for v in self.payoffs],
            "total": float(self.game_total),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def shapley_weights(p: int) -> list:
    """Exact coalition-size weights |S|!(p-|S|-1)!/p! as floats."""
    fp = factorial(p)
    return [
        float(Fraction(factorial(k) * factorial(p - k - 1), fp)) for k in range(p)
    ]


def shapley_exact(game: TUGame, values: np.ndarray | None = None) -> ShapleyVector:
    """Payoffs by direct evaluation of the permutation-weighted sum.

    `values` may carry a precomputed coalition table to avoid re-evaluating
    the characteristic function.
    """
    p = game.p
    if values is None:
        values = game.coalition_values()
    weights = np.array(shapley_weights(p))
    sizes = subset_sizes(p)
    masks = np.arange(1 << p)
    payoffs = np.empty(p)
    for m in range(p):
        bit = 1 << m
        without = masks[(masks & bit) == 0]
        mc = values[without | bit] - values[without]
        payoffs[m] = float(weights[sizes[without]] @ mc)
    return ShapleyVector(payoffs, float(values[-1]), game.label)


def _table_game(values: np.ndarray, label: str) -> TUGame:
    values.setflags(write=False)
    return TUGame(values.size.bit_length() - 1, values.item, label)


def lattice_games(lattice: SubsetLattice) -> tuple:
    """The global game and one local game per instance of a lattice walk.

    Global: v(S) = i(Y) - E[i(Y | X_S)], clamped at 0 for entropy, where it
    is the mutual information I(Y; X_S).  Local at x: v(S; x) = i(Y) -
    i(Y | X_S = x_S), which can be negative.  Returns (global game, list of
    local games in instance order).
    """
    global_label, local_label = GAME_LABELS[lattice.kind]
    values = lattice.mean[0] - lattice.mean
    if lattice.kind == ENTROPY:
        values = clamp_mi(values, "mutual information")
    local = lattice.at[:, :1] - lattice.at
    return (
        _table_game(values, global_label),
        [_table_game(row, local_label) for row in local],
    )


def game_global_info(j: JointDistribution) -> TUGame:
    """v(S) = I(Y; S): the information the coalition carries about the output."""
    return lattice_games(subset_lattice(j, ENTROPY))[0]


def game_local_info(j: JointDistribution, x) -> TUGame:
    """v(S; x) = H(Y) - H(Y | S = x_S) for a fixed full instance x.

    Coalition values can be negative: observing particular values may raise
    the uncertainty about the output.
    """
    return lattice_games(subset_lattice(j, ENTROPY, [x]))[1][0]


def game_global_variance(j: JointDistribution) -> TUGame:
    """v(S) = Var(Y) - E_S[Var(Y | S)], output codes read as reals."""
    return lattice_games(subset_lattice(j, VARIANCE))[0]


def game_local_variance(j: JointDistribution, x) -> TUGame:
    """v(S; x) = Var(Y) - Var(Y | S = x_S) for a fixed full instance x."""
    return lattice_games(subset_lattice(j, VARIANCE, [x]))[1][0]


@dataclass
class AxiomReport:
    """Outcome of the testable Shapley axioms for one (game, vector) pair."""

    efficiency_residual: float
    null_players: list = field(default_factory=list)  # (player, |payoff|)
    symmetric_pairs: list = field(default_factory=list)  # (i, j, |diff|)
    tolerance: float = 1e-10

    @property
    def efficiency_ok(self) -> bool:
        return self.efficiency_residual < 1e-9

    @property
    def null_player_ok(self) -> bool:
        return all(mag < self.tolerance for _, mag in self.null_players)

    @property
    def symmetry_ok(self) -> bool:
        return all(diff < self.tolerance for _, _, diff in self.symmetric_pairs)

    @property
    def passed(self) -> bool:
        return self.efficiency_ok and self.null_player_ok and self.symmetry_ok

    def to_json_dict(self) -> dict:
        return {
            "efficiency_residual": self.efficiency_residual,
            "null_players": [
                {"player": m, "abs_payoff": mag} for m, mag in self.null_players
            ],
            "symmetric_pairs": [
                {"players": [i, k], "payoff_diff": d}
                for i, k, d in self.symmetric_pairs
            ],
            "passed": self.passed,
        }


def check_axioms(
    game: TUGame,
    vector: ShapleyVector,
    values: np.ndarray | None = None,
    tol: float = 1e-10,
) -> AxiomReport:
    """Exhaustively detect null players and symmetric pairs, then check the
    vector against efficiency, the null-player and the symmetry axioms."""
    p = game.p
    if values is None:
        values = game.coalition_values()
    masks = np.arange(1 << p)
    report = AxiomReport(
        efficiency_residual=abs(float(vector.payoffs.sum()) - float(values[-1])),
        tolerance=tol,
    )
    for m in range(p):
        bit = 1 << m
        without = masks[(masks & bit) == 0]
        if np.abs(values[without | bit] - values[without]).max() < tol:
            report.null_players.append((m, abs(float(vector.payoffs[m]))))
    for i in range(p):
        for k in range(i + 1, p):
            bits = (1 << i) | (1 << k)
            rest = masks[(masks & bits) == 0]
            if np.abs(values[rest | (1 << i)] - values[rest | (1 << k)]).max() < tol:
                diff = abs(float(vector.payoffs[i] - vector.payoffs[k]))
                report.symmetric_pairs.append((i, k, diff))
    return report


@dataclass
class MonotonicityComparison:
    """Strong-monotonicity comparison of one player across two games."""

    player: int
    premise_holds: bool  # MC in the first game >= MC in the second, all S
    payoff_first: float
    payoff_second: float

    @property
    def conclusion_holds(self) -> bool:
        return self.payoff_first >= self.payoff_second - 1e-10


def check_strong_monotonicity(game_v: TUGame, game_w: TUGame) -> list:
    """Per-player comparison of two games over the same player set.

    Wherever every marginal contribution in `game_v` dominates the one in
    `game_w`, the Shapley payoff must dominate too.
    """
    if game_v.p != game_w.p:
        raise ValueError("games must share the player set")
    p = game_v.p
    vals_v = game_v.coalition_values()
    vals_w = game_w.coalition_values()
    phi_v = shapley_exact(game_v, vals_v).payoffs
    phi_w = shapley_exact(game_w, vals_w).payoffs
    masks = np.arange(1 << p)
    out = []
    for m in range(p):
        bit = 1 << m
        without = masks[(masks & bit) == 0]
        mc_v = vals_v[without | bit] - vals_v[without]
        mc_w = vals_w[without | bit] - vals_w[without]
        out.append(
            MonotonicityComparison(
                player=m,
                premise_holds=bool((mc_v >= mc_w - 1e-12).all()),
                payoff_first=float(phi_v[m]),
                payoff_second=float(phi_w[m]),
            )
        )
    return out
