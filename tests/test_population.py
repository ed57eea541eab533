"""Population MDI formulas and the decomposition identities."""

import numpy as np
import pytest

from oracles import h_binary, mean_impurity, weighted_variance

from impshap.errors import ZeroProbabilityInstance
from impshap.impurity import subset_lattice
from impshap.info_theory import JointDistribution
from impshap.population import (
    check_identities,
    pop_global_mdi,
    pop_local_mdi,
    subset_weights,
)
from impshap.tu_game import (
    game_global_info,
    game_global_variance,
    game_local_info,
    game_local_variance,
    shapley_exact,
)


def test_subset_weights_match_permutation_weights():
    from impshap.tu_game import shapley_weights

    for p in (1, 2, 7, 13):
        assert subset_weights(p) == pytest.approx(shapley_weights(p), abs=1e-15)


def test_single_feature_global(tables):
    # p = 1 collapses the sum to I(Y; X1) = 0.8113 - 0.5
    got = pop_global_mdi(tables["table2"]).scores
    assert got == pytest.approx([0.3113], abs=5e-5)


def test_irrelevant_feature_scores_zero():
    table = np.zeros((2, 2, 2))
    for x1 in (0, 1):
        for x2 in (0, 1):
            table[x1, x2, x1] = 0.25
    j = JointDistribution((2, 2, 2), table)
    scores = pop_global_mdi(j).scores
    assert abs(scores[1]) < 1e-12
    assert scores[0] == pytest.approx(1.0, abs=1e-12)  # H(Y) = 1 bit


def test_table1_global_hand_weights(tables):
    # p = 2: Imp(X1) = I(Y;X1)/2 + I(Y;X1|X2)/2
    got = pop_global_mdi(tables["table1-y1"]).scores
    assert got[0] == pytest.approx(0.5 * 0.091 + 0.5 * 0.269, abs=1e-3)


def test_local_negative_score(tables):
    # the skewed example is built so that 0.8113 - 1 = -0.1887 here
    got = pop_local_mdi(tables["table2"], (0,)).scores
    assert got[0] == pytest.approx(-0.1887, abs=5e-5)


def test_local_hand_expansion(tables):
    """Expand the p=2 local formula at x=(0,0) with binary-entropy arithmetic."""
    j = tables["table1-y1"]
    h_y = h_binary(0.475)
    h_y_x1 = h_binary(0.3)  # P(Y1=1 | X1=0)
    h_y_x2 = h_binary(0.5)  # P(Y1=1 | X2=0)
    h_y_both = h_binary(0.1)  # P(Y1=1 | 0, 0)
    want_x1 = 0.5 * (h_y - h_y_x1) + 0.5 * (h_y_x2 - h_y_both)
    want_x2 = 0.5 * (h_y - h_y_x2) + 0.5 * (h_y_x1 - h_y_both)
    got = pop_local_mdi(j, (0, 0)).scores
    assert got == pytest.approx([want_x1, want_x2], abs=1e-12)


def test_local_rejects_zero_probability():
    j = JointDistribution((2, 2), [0.5, 0.5, 0.0, 0.0])
    with pytest.raises(ZeroProbabilityInstance):
        pop_local_mdi(j, (1,))


def test_instance_checks_are_shared(tables):
    """Local MDI, the local games and the local relevance scan reject the
    same malformed instances with the same message."""
    from impshap.relevance import is_locally_irrelevant

    j = tables["table1-y1"]
    calls = (
        lambda x: pop_local_mdi(j, x),
        lambda x: game_local_info(j, x),
        lambda x: is_locally_irrelevant(j, 0, x),
    )
    cases = (
        ((0,), "has 1 values, expected 2"),
        ((0, 2), "out of range for variable 1"),
        ((0.0, 1.0), "integer codes"),
    )
    for bad, match in cases:
        for call in calls:
            with pytest.raises(ValueError, match=match):
                call(bad)


def test_global_equals_shapley(tables, led_joint, random_joints):
    """The global scores are the payoffs of the information game."""
    joints = list(tables.values()) + [led_joint] + random_joints
    for j in joints:
        pop = pop_global_mdi(j).scores
        sh = shapley_exact(game_global_info(j)).payoffs
        assert np.abs(pop - sh).max() < 1e-10


def test_local_equals_shapley(tables, random_joints):
    for j in list(tables.values()) + random_joints[:4]:
        for x in j.positive_instances():
            pop = pop_local_mdi(j, x).scores
            sh = shapley_exact(game_local_info(j, x)).payoffs
            assert np.abs(pop - sh).max() < 1e-10


def test_variance_equals_shapley(random_joints):
    for j in random_joints[:5]:
        pop = pop_global_mdi(j, "variance").scores
        sh = shapley_exact(game_global_variance(j)).payoffs
        assert np.abs(pop - sh).max() < 1e-10
        for x in j.positive_instances()[:3]:
            lo = pop_local_mdi(j, x, "variance").scores
            sl = shapley_exact(game_local_variance(j, x)).payoffs
            assert np.abs(lo - sl).max() < 1e-10


DECOMPOSITIONS = ("efficiency", "instance-decomposition", "double-decomposition")


def decompositions(j, kind="entropy", tol=1e-9):
    """The decomposition records of `check_identities`, by name, with its
    total and global scores."""
    records, total, glob = check_identities(j, kind, tol)
    by_name = {r["name"]: r for r in records}
    return {name: by_name[name] for name in DECOMPOSITIONS}, total, glob


def test_decompositions_led(led_joint):
    records, _, _ = decompositions(led_joint, tol=1e-3)
    assert {r["tolerance"] for r in records.values()} == {1e-3}
    records, total, _ = decompositions(led_joint)
    assert total == pytest.approx(np.log2(10), abs=1e-12)
    for r in records.values():
        assert r["max_residual"] < 1e-9


def test_decomposition_table2_by_hand(tables):
    # 0.5 * (-0.1887) + 0.5 * 0.8113 = 0.3113 = I(Y;X1)
    j = tables["table2"]
    local0 = pop_local_mdi(j, (0,)).scores[0]
    local1 = pop_local_mdi(j, (1,)).scores[0]
    recomposed = 0.5 * local0 + 0.5 * local1
    assert recomposed == pytest.approx(0.3113, abs=5e-5)
    assert recomposed == pytest.approx(pop_global_mdi(j).scores[0], abs=1e-12)


def test_decompositions_independent_output():
    # Y independent of the inputs: every score and total is zero
    table = np.full((2, 2, 2), 0.125)
    j = JointDistribution((2, 2, 2), table)
    records, total, glob = decompositions(j)
    assert total == pytest.approx(0.0, abs=1e-12)
    assert np.abs(glob).max() < 1e-12
    assert all(r["passed"] for r in records.values())


def test_decompositions_all_impurities(random_joints):
    for j in random_joints[:5]:
        for kind in ("entropy", "gini", "variance"):
            records, _, _ = decompositions(j, kind)
            assert all(r["passed"] for r in records.values()), (j.name, kind)


def test_variance_total_is_explained_variance(random_joints):
    """Sum of variance scores = Var(Y) - E[Var(Y | V)], cross-checked
    against a direct weighted-variance computation."""
    for j in random_joints[:5]:
        scores = pop_global_mdi(j, "variance").scores
        y_marg = j.marginal(1 << j.p)
        var_y = weighted_variance(np.arange(j.output_arity), y_marg)
        evar = mean_impurity(j.table, (1 << j.p) - 1, "variance")
        assert scores.sum() == pytest.approx(var_y - evar, abs=1e-9)
        prior = subset_lattice(j, "variance").mean[0]
        assert prior == pytest.approx(var_y, abs=1e-12)


def test_global_scores_nonnegative(random_joints):
    for j in random_joints:
        for kind in ("entropy", "gini", "variance"):
            assert pop_global_mdi(j, kind).scores.min() > -1e-10
