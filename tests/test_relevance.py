"""Relevance oracles and their links to the population scores."""

import numpy as np
import pytest

from impshap.errors import ZeroProbabilityInstance
from impshap.impurity import subset_lattice
from impshap.info_theory import JointDistribution
from impshap.population import pop_global_mdi, pop_local_mdi
from impshap.relevance import (
    IRRELEVANT,
    RELEVANT,
    STRONGLY_RELEVANT,
    is_irrelevant,
    is_locally_irrelevant,
    is_strongly_relevant,
    verify_global_local_equivalence,
    verify_local_null_scores,
)


def xor_joint():
    table = np.zeros((2, 2, 2))
    for a in (0, 1):
        for b in (0, 1):
            table[a, b, a ^ b] = 0.25
    return JointDistribution((2, 2, 2), table)


def independent_feature_joint():
    # Y = X1, X2 pure noise
    table = np.zeros((2, 2, 2))
    for x2 in (0, 1):
        table[0, x2, 0] = 0.25
        table[1, x2, 1] = 0.25
    return JointDistribution((2, 2, 2), table)


def test_independent_feature_is_irrelevant():
    j = independent_feature_joint()
    assert is_irrelevant(j, 1).verdict == IRRELEVANT
    assert is_strongly_relevant(j, 1).verdict == IRRELEVANT


def test_table1_x1_relevant_with_empty_witness(tables):
    v = is_irrelevant(tables["table1-y1"], 0)
    assert v.verdict == RELEVANT
    assert v.witness["subset"] == []  # I(Y1;X1) > 0 already unconditionally


def test_xor_needs_conditioning():
    """Marginally independent but relevant given the other input."""
    j = xor_joint()
    h = subset_lattice(j, "entropy").mean
    assert h[0] - h[0b01] == pytest.approx(0.0, abs=1e-12)  # I(Y; X1)
    v = is_irrelevant(j, 0)
    assert v.verdict == RELEVANT
    assert v.witness["subset"] == [1]
    assert is_strongly_relevant(j, 0).verdict == STRONGLY_RELEVANT


def test_duplicated_feature_not_strongly_relevant():
    # X2 = X1 and Y = X1: each screens the other
    table = np.zeros((2, 2, 2))
    table[0, 0, 0] = 0.5
    table[1, 1, 1] = 0.5
    j = JointDistribution((2, 2, 2), table)
    v = is_strongly_relevant(j, 0)
    assert v.verdict == RELEVANT  # weakly relevant


def test_locally_irrelevant_when_globally_irrelevant():
    j = independent_feature_joint()
    for x in j.positive_instances():
        assert is_locally_irrelevant(j, 1, x).verdict == IRRELEVANT


def test_table2_locally_relevant_despite_negative_score(tables):
    j = tables["table2"]
    v = is_locally_irrelevant(j, 0, (0,))
    assert v.verdict == RELEVANT  # P(Y|x1=0) = .5 differs from P(Y) = .75
    assert pop_local_mdi(j, (0,)).scores[0] < 0.0


def test_gated_feature_local_verdicts():
    """Y depends on X1 only when X2 = 1; at x2 = 0 the verdict comes from
    the exhaustive scan over both conditioning subsets."""
    table = np.zeros((2, 2, 2))
    # x2 = 0: Y = 0 always; x2 = 1: Y = X1
    for x1 in (0, 1):
        table[x1, 0, 0] = 0.25
        table[x1, 1, x1] = 0.25
    j = JointDistribution((2, 2, 2), table)
    # at (0, 0): B = {} gives P(Y=0|X1=0) = 1 vs P(Y=0) = 0.75 -> relevant
    assert is_locally_irrelevant(j, 0, (0, 0)).verdict == RELEVANT
    # at (1, 1): P(Y=1|X1=1) = 0.5 vs P(Y=1) = 0.25 -> relevant too
    assert is_locally_irrelevant(j, 0, (1, 1)).verdict == RELEVANT


def test_local_rejects_zero_probability():
    j = JointDistribution((2, 2), [0.5, 0.5, 0.0, 0.0])
    with pytest.raises(ZeroProbabilityInstance):
        is_locally_irrelevant(j, 0, (1,))


@pytest.mark.parametrize("m", [-1, 7, 8])
@pytest.mark.parametrize("check", [
    is_irrelevant,
    is_strongly_relevant,
    lambda j, m: is_locally_irrelevant(j, m, (1, 1, 1, 0, 1, 1, 1)),
], ids=["irrelevant", "strongly-relevant", "locally-irrelevant"])
def test_feature_index_outside_range(led_joint, check, m):
    with pytest.raises(ValueError, match=rf"^feature index m = {m} outside 0\.\.6$"):
        check(led_joint, m)


def test_equivalence_led(led_joint):
    assert verify_global_local_equivalence(led_joint).passed


def test_equivalence_and_null_scores_random(random_joints):
    for j in random_joints:
        assert verify_global_local_equivalence(j).passed
        rep = verify_local_null_scores(j)
        assert rep.passed


def test_null_scores_with_irrelevant_feature():
    rep = verify_local_null_scores(independent_feature_joint())
    assert rep.checked == 4  # X2 locally irrelevant at all four instances
    assert rep.max_violation < 1e-12


def test_global_zero_iff_irrelevant(tables, random_joints):
    """Zero asymptotic score exactly characterizes irrelevance."""
    joints = list(tables.values()) + list(random_joints) + [
        independent_feature_joint(),
        xor_joint(),
    ]
    for j in joints:
        scores = pop_global_mdi(j).scores
        for m in range(j.p):
            irrelevant = is_irrelevant(j, m).verdict == IRRELEVANT
            assert irrelevant == (abs(float(scores[m])) < 1e-10), (j.name, m)


def test_relevant_feature_has_nonzero_local_score_somewhere(tables, random_joints):
    for j in list(tables.values()) + random_joints[:5]:
        for m in range(j.p):
            if is_irrelevant(j, m).verdict != IRRELEVANT:
                peaks = [
                    abs(float(pop_local_mdi(j, x).scores[m]))
                    for x in j.positive_instances()
                ]
                assert max(peaks) > 1e-10
