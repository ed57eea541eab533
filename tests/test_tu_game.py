"""Exact Shapley computation, the concrete games, and the axiom checks."""

import numpy as np
import pytest

from oracles import shapley_by_permutations

from impshap.errors import (
    NonZeroEmptyCoalition,
    PlayerCountTooLarge,
    ZeroProbabilityInstance,
)
from impshap.info_theory import JointDistribution, mask_members
from impshap.tu_game import (
    TUGame,
    check_axioms,
    check_strong_monotonicity,
    game_global_info,
    game_global_variance,
    game_local_info,
    game_local_variance,
    shapley_exact,
    shapley_weights,
)


def _mask_to_set(mask):
    return frozenset(mask_members(mask))


def test_two_player_symmetric_split():
    game = TUGame(2, lambda m: 1.0 if m == 0b11 else 0.0)
    vec = shapley_exact(game)
    assert vec.payoffs == pytest.approx([0.5, 0.5], abs=1e-15)
    assert vec.game_total == 1.0


def test_weights_sum_to_one_per_player():
    # summed over all coalitions of the others, the weights total 1
    for p in (1, 2, 5, 12):
        w = shapley_weights(p)
        from math import comb

        assert sum(comb(p - 1, k) * w[k] for k in range(p)) == pytest.approx(
            1.0, abs=1e-12
        )


def test_null_player_gets_zero():
    # player 2 contributes nothing anywhere
    def v(mask):
        covered = mask & 0b011
        return float(bin(covered).count("1"))

    game = TUGame(3, v)
    vec = shapley_exact(game)
    assert abs(vec.payoffs[2]) < 1e-15
    report = check_axioms(game, vec)
    assert (2, abs(float(vec.payoffs[2]))) in report.null_players
    assert report.passed


def test_against_permutation_oracle():
    """Subset-weighted sum agrees with averaging over all orderings."""
    rng = np.random.default_rng(11)
    for p in (2, 3, 4, 5):
        values = {0: 0.0}
        for mask in range(1, 1 << p):
            values[mask] = float(rng.normal())
        game = TUGame(p, values.__getitem__)
        got = shapley_exact(game).payoffs
        want = shapley_by_permutations(
            p, lambda s: values[sum(1 << i for i in s)]
        )
        assert np.abs(got - np.array(want)).max() < 1e-12


def test_rejects_bad_games():
    with pytest.raises(NonZeroEmptyCoalition):
        TUGame(2, lambda m: 1.0)
    with pytest.raises(PlayerCountTooLarge):
        TUGame(21, lambda m: 0.0)


def test_global_info_game_values(tables):
    j = tables["table1-y1"]
    game = game_global_info(j)
    assert game.evaluate(0) == 0.0
    assert game.evaluate(0b01) == pytest.approx(0.091, abs=5e-4)
    # hand expansion of the two-player weighted sum:
    # phi(X1) = (I(Y1;X1) + I(Y1;X1|X2)) / 2
    vec = shapley_exact(game)
    assert vec.payoffs[0] == pytest.approx(0.5 * (0.091 + 0.269), abs=1e-3)
    assert vec.payoffs.sum() == pytest.approx(vec.game_total, abs=1e-12)


def test_global_info_game_led(led_joint):
    game = game_global_info(led_joint)
    assert game.evaluate((1 << 7) - 1) == pytest.approx(np.log2(10), abs=1e-12)


def test_local_info_game(tables):
    t2 = tables["table2"]
    game = game_local_info(t2, (0,))
    assert game.evaluate(0) == 0.0
    # 0.8113 - 1.0: knowing x1=0 raises the uncertainty
    assert game.evaluate(0b1) == pytest.approx(-0.1887, abs=5e-5)
    with pytest.raises(ZeroProbabilityInstance):
        game_local_info(JointDistribution((2, 2), [0.5, 0.5, 0, 0]), (1,))


def test_local_info_game_led(led_joint):
    for d in (0, 8):
        x = None
        for cand in led_joint.positive_instances():
            if led_joint.prob_of({**dict(enumerate(cand)), 7: d}) > 0:
                x = cand
                break
        game = game_local_info(led_joint, x)
        assert game.evaluate((1 << 7) - 1) == pytest.approx(np.log2(10), abs=1e-12)


def test_variance_games():
    # Y = X1 for uniform binary X1, X2 independent noise
    table = np.zeros((2, 2, 2))
    for x1 in (0, 1):
        for x2 in (0, 1):
            table[x1, x2, x1] = 0.25
    j = JointDistribution((2, 2, 2), table)
    game = game_global_variance(j)
    assert game.evaluate(0b01) == pytest.approx(0.25, abs=1e-15)  # Var(Y)
    vec = shapley_exact(game)
    assert vec.payoffs == pytest.approx([0.25, 0.0], abs=1e-12)
    local = game_local_variance(j, (1, 0))
    assert local.evaluate(0) == 0.0
    assert local.evaluate(0b01) == pytest.approx(0.25, abs=1e-15)


def test_variance_game_constant_output():
    table = np.zeros((2, 2))
    table[0, 1] = 0.5
    table[1, 1] = 0.5
    j = JointDistribution((2, 2), table)
    vec = shapley_exact(game_global_variance(j))
    assert np.abs(vec.payoffs).max() == 0.0


def test_axiom_report_symmetry():
    # X2 an exact copy of X1, Y = X1: the two players are symmetric
    table = np.zeros((2, 2, 2))
    table[0, 0, 0] = 0.5
    table[1, 1, 1] = 0.5
    j = JointDistribution((2, 2, 2), table)
    game = game_global_info(j)
    vec = shapley_exact(game)
    report = check_axioms(game, vec)
    assert [(i, k) for i, k, _ in report.symmetric_pairs] == [(0, 1)]
    assert report.symmetric_pairs[0][2] < 1e-10
    assert report.efficiency_ok


def test_axioms_on_table1(tables):
    game = game_global_info(tables["table1-y1"])
    report = check_axioms(game, shapley_exact(game))
    assert report.null_players == []  # all four MC values are positive
    assert report.passed


def test_strong_monotonicity_for_shapley(tables):
    """Where MC dominates everywhere, the payoff dominates (exact Shapley)."""
    g1 = game_global_info(tables["table1-y1"])
    g2 = game_global_info(tables["table1-y2"])
    for cmp in check_strong_monotonicity(g1, g2):
        if cmp.premise_holds:
            assert cmp.conclusion_holds


def test_permutation_equivariance():
    rng = np.random.default_rng(5)
    values = {mask: float(rng.normal()) for mask in range(1 << 3)}
    values[0] = 0.0
    game = TUGame(3, values.__getitem__)
    base = shapley_exact(game).payoffs
    # relabel players by the cycle 0->1->2->0
    perm = [1, 2, 0]

    def relabeled(mask):
        orig = 0
        for i in range(3):
            if (mask >> perm[i]) & 1:
                orig |= 1 << i
        return values[orig]

    swapped = shapley_exact(TUGame(3, relabeled)).payoffs
    for i in range(3):
        assert swapped[perm[i]] == pytest.approx(base[i], abs=1e-12)


def test_shapley_vector_json():
    game = TUGame(2, lambda m: 1.0 if m == 0b11 else 0.0)
    d = shapley_exact(game).to_json_dict()
    assert d["method"] == "shapley-exact"
    assert d["payoffs"] == [0.5, 0.5]
    assert d["total"] == 1.0


def test_information_game_clamps_rounding_noise():
    """I(Y; S) below zero by less than CLAMP_TOL is rounding noise and
    reads 0; further below, the game refuses to exist."""
    from impshap.errors import InternalConsistencyError
    from impshap.impurity import SubsetLattice
    from impshap.tu_game import lattice_games

    def lattice(kind, mean):
        empty = np.empty((0, 1))
        return SubsetLattice(kind, np.array(mean), empty, empty[:, 0],
                             empty, empty[..., None])

    game, _ = lattice_games(lattice("entropy", [1.0, 1.0 + 1e-12]))
    assert list(game.coalition_values()) == [0.0, 0.0]
    with pytest.raises(InternalConsistencyError):
        lattice_games(lattice("entropy", [1.0, 1.0 + 1e-9]))
    # the variance game is not a mutual information and is not clamped
    game, _ = lattice_games(lattice("variance", [1.0, 1.0 + 1e-9]))
    assert game.coalition_values()[1] < 0.0
