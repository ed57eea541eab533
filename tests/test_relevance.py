"""Relevance oracles and their links to the population scores."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    dependence_witness_loop,
    is_irrelevant_unscreened,
    local_irrelevance_gathered,
)

from impshap import relevance
from impshap.data import random_joint
from impshap.errors import ZeroProbabilityInstance
from impshap.impurity import subset_lattice
from impshap.info_theory import JointDistribution
from impshap.population import check_identities, pop_global_mdi, pop_local_mdi
from impshap.relevance import (
    INDEPENDENCE_TOL,
    IRRELEVANT,
    _dependence_witness,
    RELEVANT,
    STRONGLY_RELEVANT,
    is_irrelevant,
    is_locally_irrelevant,
    is_strongly_relevant,
    local_irrelevance,
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


@pytest.mark.parametrize("scale, verdict", [(0.5, IRRELEVANT), (3.0, RELEVANT)])
def test_independence_tolerance(scale, verdict):
    """X2 moves P(Y = 1 | x1, x2) by +-delta around q(x1), so every scan
    sees a deviation of delta: below INDEPENDENCE_TOL it is independence,
    a few times above it is relevance, for every verdict alike."""
    delta = scale * INDEPENDENCE_TOL
    table = np.zeros((2, 2, 2))
    for x1, q in enumerate((0.3, 0.7)):
        for x2, shift in enumerate((-delta, delta)):
            table[x1, x2, 1] = 0.25 * (q + shift)
            table[x1, x2, 0] = 0.25 * (1.0 - q - shift)
    j = JointDistribution((2, 2, 2), table)
    strong = IRRELEVANT if verdict == IRRELEVANT else STRONGLY_RELEVANT
    assert is_irrelevant(j, 1).verdict == verdict
    assert is_strongly_relevant(j, 1).verdict == strong
    xs = j.positive_instances()
    for x in xs:
        assert is_locally_irrelevant(j, 1, x).verdict == verdict
    local = local_irrelevance(subset_lattice(j, "entropy", xs))
    assert local[:, 1].tolist() == [verdict == IRRELEVANT] * len(xs)
    assert not local[:, 0].any()  # q(x1) differs by far more


@pytest.mark.parametrize("m", [-1, 7, 8])
@pytest.mark.parametrize("check", [
    is_irrelevant,
    is_strongly_relevant,
    lambda j, m: is_locally_irrelevant(j, m, (1, 1, 1, 0, 1, 1, 1)),
], ids=["irrelevant", "strongly-relevant", "locally-irrelevant"])
def test_feature_index_outside_range(led_joint, check, m):
    with pytest.raises(ValueError, match=rf"^feature index m = {m} outside 0\.\.6$"):
        check(led_joint, m)


def relevance_records(j):
    """`check_identities`'s relevance agreement and null-score records."""
    by_name = {r["name"]: r for r in check_identities(j)[0]}
    return by_name["global-local-relevance-agreement"], by_name["local-null-scores"]


def test_equivalence_led(led_joint):
    agreement, _ = relevance_records(led_joint)
    assert agreement["passed"]


def test_equivalence_and_null_scores_random(random_joints):
    for j in random_joints:
        agreement, nulls = relevance_records(j)
        assert agreement["passed"]
        assert nulls["passed"]


def test_null_scores_with_irrelevant_feature():
    j = independent_feature_joint()
    # X2 locally irrelevant at all four instances, X1 at none
    irrelevant = local_irrelevance(subset_lattice(j, "entropy", j.positive_instances()))
    assert irrelevant.sum(axis=0).tolist() == [0, 4]
    _, nulls = relevance_records(j)
    assert nulls["max_residual"] < 1e-12


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


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    j=st.builds(
        random_joint,
        seed=st.integers(0, 2**16),
        p=st.integers(1, 4),
        max_arity=st.integers(2, 4),
        zero_fraction=st.sampled_from([0.0, 0.25, 0.5]),
    )
)
def test_witness_matches_context_by_context_scan(j):
    """The array scan finds the witness the loop over contexts and x_m
    values finds first, with the same floats, at loose and tight tols."""
    for m in range(j.p):
        rest = ((1 << j.p) - 1) & ~(1 << m)
        for b_mask in range(1 << j.p):
            if b_mask & ~rest:
                continue
            for tol in (1e-10, 1e-3, 0.05):
                want = dependence_witness_loop(j, m, b_mask, tol)
                assert _dependence_witness(j, m, b_mask, tol) == want


@st.composite
def independent_joints(draw):
    """Joints of one to four inputs of arity 1 to 4 and an output of 1 to
    3 classes, with zero cells and some inputs made independent of the
    rest (so irrelevant).  One input may then be mixed into the output as
    in XOR, so that it is independent of Y alone but not given the others."""
    arities = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    n_y = draw(st.sampled_from([2, 3, 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.random((*arities, n_y))
    table[rng.random(table.shape) < draw(st.sampled_from([0.0, 0.3, 0.6]))] = 0.0
    table.reshape(-1)[0] += 0.5  # never all zero
    p = len(arities)

    def independent(table, i, weights):
        shape = [1] * (p + 1)
        shape[i] = arities[i]
        return table.sum(axis=i, keepdims=True) * weights.reshape(shape)

    for i in draw(st.lists(st.integers(0, p - 1), max_size=2, unique=True)):
        table = independent(table, i, rng.random(arities[i]) + 0.1)
    xor = draw(st.none() | st.integers(0, p - 1))
    if xor is not None and (table.sum(axis=tuple(range(p))) > 0.0).all():
        # X_xor uniform and independent, Y uniform, then Y += X_xor mod |Y|
        table = independent(table, xor, np.ones(arities[xor]))
        table = table / table.sum(axis=tuple(range(p)))
        moved = np.moveaxis(table, xor, 0)
        table = np.moveaxis(
            np.stack([np.roll(moved[v], v, axis=-1) for v in range(arities[xor])]), 0, xor)
    return JointDistribution((*arities, n_y), table / table.sum())


@settings(derandomize=True, max_examples=60, deadline=None)
@given(j=independent_joints())
def test_local_scan_matches_gathered_pairs(j):
    """Reading each feature's (B, B + m) pairs as a view gives the local
    verdicts that gathering them did, at every positive instance."""
    lattice = subset_lattice(j, "entropy", j.positive_instances())
    got = local_irrelevance(lattice)
    assert np.array_equal(got, local_irrelevance_gathered(lattice))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(j=independent_joints())
def test_screened_scan_matches_every_subset(j):
    """The global scan gives the verdict and the minimal witness of the
    search over every subset, whether the screen runs (bound above the
    table) or not (bound 0)."""
    want = [is_irrelevant_unscreened(j, m) for m in range(j.p)]
    for bound in (0, 1 << 30):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(relevance, "SCREEN_CELLS", bound)
            assert [is_irrelevant(j, m) for m in range(j.p)] == want, bound
