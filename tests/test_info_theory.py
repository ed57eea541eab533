"""Entropy, conditional entropy and mutual information on exact joints."""

import numpy as np
import pytest

from oracles import h_binary, table_cond_entropy, table_entropy

from impshap.errors import EmptyDataset, ZeroProbabilityContext
from impshap.info_theory import (
    JointDistribution,
    as_mask,
    cond_entropy_at,
    cond_entropy_mean,
    cond_mutual_info,
    entropy,
    extension_pairs,
    joint_from_samples,
    mask_members,
    mutual_info,
    submasks,
    subset_sizes,
)


def test_mask_helpers():
    assert as_mask([0, 2], 3) == 0b101
    assert as_mask(0b110, 3) == 0b110
    assert mask_members(0b1011) == (0, 1, 3)
    assert sorted(submasks(0b101)) == [0b000, 0b001, 0b100, 0b101]
    with pytest.raises(ValueError):
        as_mask([3], 3)
    with pytest.raises(ValueError):
        as_mask(0b1000, 3)
    assert subset_sizes(3).tolist() == [bin(s).count("1") for s in range(8)]
    without, with_m = extension_pairs(3, 1)
    assert without.tolist() == [0b000, 0b001, 0b100, 0b101]
    assert with_m.tolist() == [0b010, 0b011, 0b110, 0b111]


def test_constructor_validation():
    with pytest.raises(ValueError):
        JointDistribution((2, 2), [0.5, 0.5, 0.25])  # wrong cell count
    with pytest.raises(ValueError):
        JointDistribution((2, 2), [0.5, 0.5, 0.5, 0.5])  # sums to 2
    with pytest.raises(ValueError):
        JointDistribution((2, 2), [0.75, 0.75, -0.25, -0.25])


def test_entropy_point_mass():
    j = JointDistribution((2, 2), [1.0, 0.0, 0.0, 0.0])
    assert entropy(j, [0]) == 0.0
    assert entropy(j, [1]) == 0.0
    assert entropy(j, []) == 0.0


def test_table2_entropies(tables):
    # H(Y) with P(Y=1)=0.25; conditioning on x1=0 gives a fair coin
    t2 = tables["table2"]
    assert entropy(t2, [1]) == pytest.approx(0.8113, abs=5e-5)
    assert cond_entropy_at(t2, [1], {0: 0}) == pytest.approx(1.0, abs=1e-12)
    assert cond_entropy_at(t2, [1], {0: 1}) == pytest.approx(0.0, abs=1e-12)
    assert cond_entropy_mean(t2, [1], [0]) == pytest.approx(0.5, abs=1e-12)
    assert mutual_info(t2, [1], [0]) == pytest.approx(0.3113, abs=5e-5)


def test_table1_mutual_informations(tables):
    # the eight printed values of the two-output example
    j1, j2 = tables["table1-y1"], tables["table1-y2"]
    assert mutual_info(j1, [2], [0]) == pytest.approx(0.091, abs=5e-4)
    assert mutual_info(j1, [2], [1]) == pytest.approx(0.002, abs=5e-4)
    assert cond_mutual_info(j1, [2], 0, [1]) == pytest.approx(0.269, abs=5e-4)
    assert cond_mutual_info(j1, [2], 1, [0]) == pytest.approx(0.180, abs=5e-4)
    assert mutual_info(j2, [2], [0]) == pytest.approx(0.002, abs=5e-4)
    assert mutual_info(j2, [2], [1]) == pytest.approx(0.016, abs=5e-4)
    assert cond_mutual_info(j2, [2], 0, [1]) == pytest.approx(0.243, abs=5e-4)
    assert cond_mutual_info(j2, [2], 1, [0]) == pytest.approx(0.258, abs=5e-4)


def test_table1_cond_entropy_derived(tables):
    # brute force over the four cells: 0.5*h(0.3) + 0.5*h(0.65)
    expected = 0.5 * h_binary(0.3) + 0.5 * h_binary(0.65)
    assert expected == pytest.approx(0.9077, abs=5e-5)
    got = cond_entropy_mean(tables["table1-y1"], [2], [0])
    assert got == pytest.approx(expected, abs=1e-12)


def test_empty_conditioning_equals_entropy(tables):
    j = tables["table1-y1"]
    assert cond_entropy_mean(j, [2], []) == entropy(j, [2])
    assert mutual_info(j, [2], []) == 0.0


def test_led_entropies(led_joint):
    assert entropy(led_joint, [7]) == pytest.approx(np.log2(10), abs=1e-12)
    # top segment lit selects 8 of 10 digits uniformly
    assert cond_entropy_at(led_joint, [7], {0: 1}) == pytest.approx(3.0, abs=1e-12)
    assert cond_entropy_mean(led_joint, [7], list(range(7))) == pytest.approx(
        0.0, abs=1e-12
    )


def test_entropy_against_enumeration_oracle(random_joints):
    """Marginal entropies match a dict-based enumeration."""
    for j in random_joints[:5]:
        for mask in (0b01, 0b11, 1 << j.p):
            want = table_entropy(j.table, mask_members(mask))
            assert entropy(j, mask) == pytest.approx(want, abs=1e-12)
        want = table_cond_entropy(j.table, [j.p], [0])
        assert cond_entropy_mean(j, [j.p], [0]) == pytest.approx(want, abs=1e-12)


def test_mean_conditional_consistency(random_joints):
    """cond_entropy_mean equals the context-weighted pointwise entropies."""
    for j in random_joints:
        for given in ([0], [0, 1]):
            marg = j.marginal(given)
            total = 0.0
            for ctx in np.ndindex(marg.shape):
                pb = float(marg[ctx])
                if pb <= 0.0:
                    continue
                values = dict(zip(given, ctx))
                total += pb * cond_entropy_at(j, [j.p], values)
            assert cond_entropy_mean(j, [j.p], given) == pytest.approx(
                total, abs=1e-12
            )


def test_chain_rule(random_joints):
    """I(Y; S+T) = I(Y; S) + I(Y; T | S) for disjoint S, T."""
    for j in random_joints:
        y = 1 << j.p
        for s, m in ((0b01, 1), (0b10, 0)):
            lhs = mutual_info(j, y, s | (1 << m))
            rhs = mutual_info(j, y, s) + cond_mutual_info(j, y, m, s)
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_global_game_monotonicity(random_joints):
    """S subset of T implies I(Y; S) <= I(Y; T)."""
    for j in random_joints:
        y = 1 << j.p
        full = (1 << j.p) - 1
        masks = sorted({0, 0b1, 0b11, full & 0b111, full})
        for s in masks:
            for t in masks:
                if s & t == s:
                    assert mutual_info(j, y, s) <= mutual_info(j, y, t) + 1e-10


def test_nonnegativity(random_joints):
    for j in random_joints:
        y = 1 << j.p
        full = (1 << j.p) - 1
        for mask in submasks(full):
            assert mutual_info(j, y, mask) >= 0.0
            assert cond_entropy_mean(j, y, mask) >= 0.0


def test_zero_probability_context():
    j = JointDistribution((2, 2), [0.5, 0.5, 0.0, 0.0])
    with pytest.raises(ZeroProbabilityContext):
        cond_entropy_at(j, [1], {0: 1})


def test_joint_from_samples_counts(led_ds):
    j = joint_from_samples(led_ds)
    for d in range(10):
        cell = dict(enumerate(led_ds.row(d)[:7]))
        cell[7] = d
        assert j.prob_of(cell) == pytest.approx(0.1, abs=1e-12)


def test_joint_from_samples_single_row():
    from impshap.data import ColumnMeta, Dataset

    ds = Dataset(
        [ColumnMeta("a", "categorical", 2), ColumnMeta("y", "categorical", 2)],
        [np.array([1]), np.array([0])],
    )
    j = joint_from_samples(ds)
    assert j.prob_of({0: 1, 1: 0}) == 1.0


def test_joint_from_samples_rejects_bad_input():
    from impshap.data import ColumnMeta, Dataset

    ds = Dataset(
        [ColumnMeta("a", "categorical", 2), ColumnMeta("y", "categorical", 2)],
        [np.array([], dtype=int), np.array([], dtype=int)],
    )
    with pytest.raises(EmptyDataset):
        joint_from_samples(ds)
    ds2 = Dataset(
        [ColumnMeta("a", "numeric"), ColumnMeta("y", "categorical", 2)],
        [np.array([0.5]), np.array([0])],
    )
    with pytest.raises(ValueError):
        joint_from_samples(ds2)


def test_table1_cell_probability(tables):
    # uniform inputs times the printed rate: P(0,0,Y1=1) = 0.25 * 0.1
    assert tables["table1-y1"].prob_of({0: 0, 1: 0, 2: 1}) == pytest.approx(
        0.025, abs=1e-15
    )
    assert tables["table1-y2"].prob_of({0: 1, 1: 1, 2: 1}) == pytest.approx(
        0.075, abs=1e-15
    )
    # table2 output marginal: P(Y=0) = 0.75
    assert float(tables["table2"].marginal([1])[0]) == pytest.approx(0.75, abs=1e-15)


def test_rejects_oversized_tables():
    # dense-table limit: declining early beats allocating gigabytes
    with pytest.raises(ValueError):
        JointDistribution((1 << 28, 2), np.zeros(2))
