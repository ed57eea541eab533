"""Exact Shapley computation, the concrete games, and the axiom checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import shapley_by_marginals, shapley_by_permutations

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
    shapley_payoffs,
    shapley_weights,
)


def _mask_to_set(mask):
    return frozenset(mask_members(mask))


def _table(p, v):
    """The coalition table of v over all 2^p masks."""
    return np.array([v(mask) for mask in range(1 << p)], dtype=float)


def test_two_player_symmetric_split():
    game = TUGame(np.array([0.0, 0.0, 0.0, 1.0]))
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

    game = TUGame(_table(3, v))
    vec = shapley_exact(game)
    assert abs(vec.payoffs[2]) < 1e-15
    report = check_axioms(game, vec)
    assert (2, abs(float(vec.payoffs[2]))) in report.null_players
    assert report.passed


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    p=st.integers(1, 9),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**16),
    layout=st.sampled_from(["c", "fortran", "strided"]),
)
def test_batched_payoffs_equal_single_games_bit_for_bit(p, n, seed, layout):
    """Each row of a batch gets the payoffs one game alone gets, also when
    the batch is not C-contiguous."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, 1 << p)) * 10.0 ** rng.integers(-6, 6, size=(n, 1))
    values[:, 0] = 0.0
    batch = {
        "c": values,
        "fortran": np.asfortranarray(values),
        "strided": np.repeat(values, 2, axis=1)[:, ::2],
    }[layout]
    assert np.array_equal(batch, values)
    got = shapley_payoffs(batch)
    assert got.shape == (n, p)
    for row, want in zip(got, values):
        assert np.array_equal(row, shapley_by_marginals(want))
    assert np.array_equal(shapley_exact(TUGame(values[0])).payoffs, got[0])


def test_against_permutation_oracle():
    """Subset-weighted sum agrees with averaging over all orderings."""
    rng = np.random.default_rng(11)
    for p in (2, 3, 4, 5):
        values = {0: 0.0}
        for mask in range(1, 1 << p):
            values[mask] = float(rng.normal())
        game = TUGame(_table(p, values.__getitem__))
        got = shapley_exact(game).payoffs
        want = shapley_by_permutations(
            p, lambda s: values[sum(1 << i for i in s)]
        )
        assert np.abs(got - np.array(want)).max() < 1e-12


def test_rejects_bad_games():
    with pytest.raises(NonZeroEmptyCoalition):
        TUGame(np.ones(4))
    with pytest.raises(PlayerCountTooLarge):
        TUGame(np.zeros(1 << 21))
    for bad in (np.zeros(1), np.zeros(6), np.zeros((2, 2))):
        with pytest.raises(ValueError):
            TUGame(bad)  # not 2^p values with p >= 1


def test_game_table_is_read_only():
    table = np.array([0.0, 1.0, 2.0, 4.0])
    game = TUGame(table)
    assert game.p == 2
    table[3] = 9.0  # a writable table is copied
    assert game.values[3] == 4.0
    with pytest.raises(ValueError):
        game.values[3] = 9.0


def test_global_info_game_values(tables):
    j = tables["table1-y1"]
    game = game_global_info(j)
    assert game.values[0] == 0.0
    assert game.values[0b01] == pytest.approx(0.091, abs=5e-4)
    # hand expansion of the two-player weighted sum:
    # phi(X1) = (I(Y1;X1) + I(Y1;X1|X2)) / 2
    vec = shapley_exact(game)
    assert vec.payoffs[0] == pytest.approx(0.5 * (0.091 + 0.269), abs=1e-3)
    assert vec.payoffs.sum() == pytest.approx(vec.game_total, abs=1e-12)


def test_global_info_game_led(led_joint):
    game = game_global_info(led_joint)
    assert game.values[(1 << 7) - 1] == pytest.approx(np.log2(10), abs=1e-12)


def test_local_info_game(tables):
    t2 = tables["table2"]
    game = game_local_info(t2, (0,))
    assert game.values[0] == 0.0
    # 0.8113 - 1.0: knowing x1=0 raises the uncertainty
    assert game.values[0b1] == pytest.approx(-0.1887, abs=5e-5)
    with pytest.raises(ZeroProbabilityInstance):
        game_local_info(JointDistribution((2, 2), [0.5, 0.5, 0, 0]), (1,))


def test_local_info_game_led(led_joint):
    for d in (0, 8):
        x = None
        for cand in led_joint.positive_instances():
            if led_joint.table[cand + (d,)] > 0:
                x = cand
                break
        game = game_local_info(led_joint, x)
        assert game.values[(1 << 7) - 1] == pytest.approx(np.log2(10), abs=1e-12)


def test_variance_games():
    # Y = X1 for uniform binary X1, X2 independent noise
    table = np.zeros((2, 2, 2))
    for x1 in (0, 1):
        for x2 in (0, 1):
            table[x1, x2, x1] = 0.25
    j = JointDistribution((2, 2, 2), table)
    game = game_global_variance(j)
    assert game.values[0b01] == pytest.approx(0.25, abs=1e-15)  # Var(Y)
    vec = shapley_exact(game)
    assert vec.payoffs == pytest.approx([0.25, 0.0], abs=1e-12)
    local = game_local_variance(j, (1, 0))
    assert local.values[0] == 0.0
    assert local.values[0b01] == pytest.approx(0.25, abs=1e-15)


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
            assert cmp.payoff_first >= cmp.payoff_second - 1e-10


def test_permutation_equivariance():
    rng = np.random.default_rng(5)
    values = {mask: float(rng.normal()) for mask in range(1 << 3)}
    values[0] = 0.0
    game = TUGame(_table(3, values.__getitem__))
    base = shapley_exact(game).payoffs
    # relabel players by the cycle 0->1->2->0
    perm = [1, 2, 0]

    def relabeled(mask):
        orig = 0
        for i in range(3):
            if (mask >> perm[i]) & 1:
                orig |= 1 << i
        return values[orig]

    swapped = shapley_exact(TUGame(_table(3, relabeled))).payoffs
    for i in range(3):
        assert swapped[perm[i]] == pytest.approx(base[i], abs=1e-12)


def test_shapley_vector_json():
    game = TUGame(np.array([0.0, 0.0, 0.0, 1.0]))
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
    assert list(game.values) == [0.0, 0.0]
    with pytest.raises(InternalConsistencyError):
        lattice_games(lattice("entropy", [1.0, 1.0 + 1e-9]))
    # the variance game is not a mutual information and is not clamped
    game, _ = lattice_games(lattice("variance", [1.0, 1.0 + 1e-9]))
    assert game.values[1] < 0.0
