"""Exact Shapley values for transferable-utility games over <= 20 players.

Coalitions are integer bitmasks.  A game is its characteristic function as
a table over all 2^p coalitions; every payoff is a float sum of marginal
contributions weighted by |S|!(p-|S|-1)!/p!, each weight rounded once from
an exact Fraction.  The information and variance games are rows of one
subset-lattice walk of the joint.
"""

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
    """A cooperative game over p players: `values[S]` is v(S) for every
    coalition mask S = 0 .. 2^p - 1, so p is set by the table's length.

    v(0) must be 0.  The table is read-only; a writable one is copied.
    """

    values: np.ndarray
    label: str = "custom"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.flags.writeable:
            values = values.copy()
            values.setflags(write=False)
        n = values.size
        if values.ndim != 1 or n < 2 or n & (n - 1):
            raise ValueError(
                f"need 2^p coalition values with p >= 1, got shape {values.shape}"
            )
        self.values = values
        check_feature_count(self.p)
        if abs(values[0]) > 1e-12:
            raise NonZeroEmptyCoalition(f"v(empty) = {float(values[0])!r}, expected 0")

    @property
    def p(self) -> int:
        return self.values.size.bit_length() - 1


def _extensions(p: int):
    """For each player m: every coalition B without m, ascending, and B + m.

    Kept apart from `info_theory.extension_pairs`, which the MDI sums use,
    so that verify's Shapley identities compare two independent pairings.
    """
    masks = np.arange(1 << p)
    for m in range(p):
        bit = 1 << m
        without = masks[(masks & bit) == 0]
        yield without, without | bit


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


def shapley_weights(p: int) -> list:
    """Exact coalition-size weights |S|!(p-|S|-1)!/p! as floats."""
    fp = factorial(p)
    return [
        float(Fraction(factorial(k) * factorial(p - k - 1), fp)) for k in range(p)
    ]


def shapley_payoffs(values) -> np.ndarray:
    """Payoffs of a batch of games by the permutation-weighted sum.

    `values` holds one game per row, v(S) in column S, so it is (n, 2^p);
    the result is (n, p).  Each payoff is one BLAS dot of a row of
    marginal contributions, made contiguous, with the weights, so every
    game gets the bits a batch of one would give it.
    """
    values = np.atleast_2d(values)
    p = values.shape[1].bit_length() - 1
    weights = np.array(shapley_weights(p))
    sizes = subset_sizes(p)
    payoffs = np.empty((values.shape[0], p))
    for m, (without, with_m) in enumerate(_extensions(p)):
        mc = np.ascontiguousarray(values[:, with_m] - values[:, without])
        np.matmul(
            mc[:, None, :], weights[sizes[without], None], out=payoffs[:, m, None, None]
        )
    return payoffs


def shapley_exact(game: TUGame) -> ShapleyVector:
    """Payoffs of one game; see `shapley_payoffs`."""
    payoffs = shapley_payoffs(game.values)[0]
    return ShapleyVector(payoffs, float(game.values[-1]), game.label)


def lattice_games(lattice: SubsetLattice) -> tuple:
    """The global game and the table of local games of a lattice walk.

    Global: v(S) = i(Y) - E[i(Y | X_S)], clamped at 0 for entropy, where it
    is the mutual information I(Y; X_S).  Local at x: v(S; x) = i(Y) -
    i(Y | X_S = x_S), which can be negative.  Returns (global game,
    read-only (n, 2^p) table whose row k holds the local game at instance
    k), the table in the form `shapley_payoffs` reads.
    """
    values = lattice.mean[0] - lattice.mean
    if lattice.kind == ENTROPY:
        values = clamp_mi(values, "mutual information")
    local = lattice.at[:, :1] - lattice.at
    local.setflags(write=False)  # a local game built on a row holds it, not a copy
    return TUGame(values, GAME_LABELS[lattice.kind][0]), local


def game_global_info(j: JointDistribution) -> TUGame:
    """v(S) = I(Y; S): the information the coalition carries about the output."""
    return lattice_games(subset_lattice(j, ENTROPY))[0]


def game_local_info(j: JointDistribution, x) -> TUGame:
    """v(S; x) = H(Y) - H(Y | S = x_S) for a fixed full instance x.

    Coalition values can be negative: observing particular values may raise
    the uncertainty about the output.
    """
    return TUGame(lattice_games(subset_lattice(j, ENTROPY, [x]))[1][0], LOCAL_INFO)


def game_global_variance(j: JointDistribution) -> TUGame:
    """v(S) = Var(Y) - E_S[Var(Y | S)], output codes read as reals."""
    return lattice_games(subset_lattice(j, VARIANCE))[0]


def game_local_variance(j: JointDistribution, x) -> TUGame:
    """v(S; x) = Var(Y) - Var(Y | S = x_S) for a fixed full instance x."""
    return TUGame(
        lattice_games(subset_lattice(j, VARIANCE, [x]))[1][0], LOCAL_VARIANCE
    )


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


def check_axioms(game: TUGame, vector: ShapleyVector, tol: float = 1e-10) -> AxiomReport:
    """Exhaustively detect null players and symmetric pairs, then check the
    vector against efficiency, the null-player and the symmetry axioms."""
    p, values = game.p, game.values
    masks = np.arange(1 << p)
    report = AxiomReport(
        efficiency_residual=abs(float(vector.payoffs.sum()) - float(values[-1])),
        tolerance=tol,
    )
    for m, (without, with_m) in enumerate(_extensions(p)):
        if np.abs(values[with_m] - values[without]).max() < tol:
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


def check_strong_monotonicity(game_v: TUGame, game_w: TUGame) -> list:
    """Per-player comparison of two games over the same player set.

    Wherever every marginal contribution in `game_v` dominates the one in
    `game_w`, the Shapley payoff must dominate too.
    """
    if game_v.p != game_w.p:
        raise ValueError("games must share the player set")
    vals_v, vals_w = game_v.values, game_w.values
    phi_v = shapley_exact(game_v).payoffs
    phi_w = shapley_exact(game_w).payoffs
    out = []
    for m, (without, with_m) in enumerate(_extensions(game_v.p)):
        mc_v = vals_v[with_m] - vals_v[without]
        mc_w = vals_w[with_m] - vals_w[without]
        out.append(
            MonotonicityComparison(
                player=m,
                premise_holds=bool((mc_v >= mc_w - 1e-12).all()),
                payoff_first=float(phi_v[m]),
                payoff_second=float(phi_w[m]),
            )
        )
    return out
