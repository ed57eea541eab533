"""Joint tables, mask helpers, and the entropies and mutual informations
read from the entropy subset lattice."""

import numpy as np
import pytest

from oracles import dataset_row, h_binary, table_cond_entropy, table_entropy

from impshap.errors import (
    EmptyDataset,
    ImpshapError,
    InternalConsistencyError,
    TableTooLarge,
    UnnormalizedTable,
    ZeroProbabilityContext,
)
from impshap.impurity import subset_lattice
from impshap.info_theory import (
    PROB_EPS,
    JointDistribution,
    as_mask,
    clamp_mi,
    extension_pairs,
    joint_from_samples,
    mask_members,
    submasks,
    subset_sizes,
)
from impshap.tu_game import game_global_info


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


def entropies(j, instances=None):
    """The entropy lattice: mean[S] = H(Y | X_S), at[k, S] = H(Y | X_S = x_S)."""
    return subset_lattice(j, "entropy", instances)


def test_entropy_point_mass():
    j = JointDistribution((2, 2), [1.0, 0.0, 0.0, 0.0])
    assert entropies(j).mean.tolist() == [0.0, 0.0]
    assert game_global_info(j).values.tolist() == [0.0, 0.0]


def test_table2_entropies(tables):
    # H(Y) with P(Y=1)=0.25; conditioning on x1=0 gives a fair coin
    t2 = tables["table2"]
    lat = entropies(t2, [(0,), (1,)])
    assert lat.mean[0] == pytest.approx(0.8113, abs=5e-5)
    assert lat.at[0, 0b1] == pytest.approx(1.0, abs=1e-12)
    assert lat.at[1, 0b1] == pytest.approx(0.0, abs=1e-12)
    assert lat.mean[0b1] == pytest.approx(0.5, abs=1e-12)
    assert game_global_info(t2).values[0b1] == pytest.approx(0.3113, abs=5e-5)


def test_table1_mutual_informations(tables):
    # the eight printed values of the two-output example:
    # I(Y; X_S) = H(Y) - H(Y | X_S), I(Y; X_m | X_B) = H(Y | X_B) - H(Y | X_B, X_m)
    h1 = entropies(tables["table1-y1"]).mean
    h2 = entropies(tables["table1-y2"]).mean
    assert h1[0] - h1[0b01] == pytest.approx(0.091, abs=5e-4)
    assert h1[0] - h1[0b10] == pytest.approx(0.002, abs=5e-4)
    assert h1[0b10] - h1[0b11] == pytest.approx(0.269, abs=5e-4)
    assert h1[0b01] - h1[0b11] == pytest.approx(0.180, abs=5e-4)
    assert h2[0] - h2[0b01] == pytest.approx(0.002, abs=5e-4)
    assert h2[0] - h2[0b10] == pytest.approx(0.016, abs=5e-4)
    assert h2[0b10] - h2[0b11] == pytest.approx(0.243, abs=5e-4)
    assert h2[0b01] - h2[0b11] == pytest.approx(0.258, abs=5e-4)


def test_table1_cond_entropy_derived(tables):
    # brute force over the four cells: 0.5*h(0.3) + 0.5*h(0.65)
    expected = 0.5 * h_binary(0.3) + 0.5 * h_binary(0.65)
    assert expected == pytest.approx(0.9077, abs=5e-5)
    got = entropies(tables["table1-y1"]).mean[0b01]
    assert got == pytest.approx(expected, abs=1e-12)


def test_empty_conditioning_equals_entropy(tables):
    j = tables["table1-y1"]
    want = table_entropy(j.table, [2])
    assert entropies(j).mean[0] == pytest.approx(want, abs=1e-12)
    assert game_global_info(j).values[0] == 0.0


def test_led_entropies(led_joint):
    lit = next(x for x in led_joint.positive_instances() if x[0] == 1)
    lat = entropies(led_joint, [lit])
    assert lat.mean[0] == pytest.approx(np.log2(10), abs=1e-12)
    # top segment lit selects 8 of 10 digits uniformly
    assert lat.at[0, 0b1] == pytest.approx(3.0, abs=1e-12)
    assert lat.mean[(1 << 7) - 1] == pytest.approx(0.0, abs=1e-12)


def test_entropy_against_enumeration_oracle(random_joints):
    """Conditional entropies of the output match a dict-based enumeration."""
    for j in random_joints[:5]:
        mean = entropies(j).mean
        assert mean[0] == pytest.approx(table_entropy(j.table, [j.p]), abs=1e-12)
        for mask in range(1, 1 << j.p):
            want = table_cond_entropy(j.table, [j.p], mask_members(mask))
            assert mean[mask] == pytest.approx(want, abs=1e-12)


def test_mean_conditional_consistency(random_joints):
    """H(Y | X_S) equals the P(x)-weighted pointwise entropies H(Y | X_S = x_S)."""
    for j in random_joints:
        lat = entropies(j, j.positive_instances())
        np.testing.assert_allclose(lat.prob @ lat.at, lat.mean, rtol=0.0, atol=1e-12)


def test_chain_rule(random_joints):
    """I(Y; S+m) = I(Y; S) + I(Y; X_m | S) for m outside S."""
    for j in random_joints:
        mean = entropies(j).mean
        v = game_global_info(j).values
        for s, m in ((0b01, 1), (0b10, 0)):
            cmi = mean[s] - mean[s | (1 << m)]
            assert v[s | (1 << m)] == pytest.approx(v[s] + cmi, abs=1e-10)


def test_global_game_monotonicity(random_joints):
    """S subset of T implies I(Y; S) <= I(Y; T)."""
    for j in random_joints:
        v = game_global_info(j).values
        for t in range(1 << j.p):
            for s in submasks(t):
                assert v[s] <= v[t] + 1e-10


def test_nonnegativity(random_joints):
    for j in random_joints:
        assert (game_global_info(j).values >= 0.0).all()
        assert (entropies(j).mean >= 0.0).all()


def test_zero_probability_context():
    j = JointDistribution((2, 2), [0.5, 0.5, 0.0, 0.0])
    with pytest.raises(ZeroProbabilityContext):
        entropies(j, [(1,)])


def test_joint_from_samples_counts(led_ds):
    j = joint_from_samples(led_ds)
    for d in range(10):
        cell = tuple(dataset_row(led_ds, d)[:7]) + (d,)
        assert j.table[cell] == pytest.approx(0.1, abs=1e-12)


def test_joint_from_samples_single_row():
    from impshap.data import ColumnMeta, Dataset

    ds = Dataset(
        [ColumnMeta("a", "categorical", 2), ColumnMeta("y", "categorical", 2)],
        [np.array([1]), np.array([0])],
    )
    j = joint_from_samples(ds)
    assert j.table[1, 0] == 1.0


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
    assert tables["table1-y1"].table[0, 0, 1] == pytest.approx(
        0.025, abs=1e-15
    )
    assert tables["table1-y2"].table[1, 1, 1] == pytest.approx(
        0.075, abs=1e-15
    )
    # table2 output marginal: P(Y=0) = 0.75
    assert float(tables["table2"].marginal([1])[0]) == pytest.approx(0.75, abs=1e-15)


def test_rejects_oversized_tables():
    # dense-table limit: declining early beats allocating gigabytes
    with pytest.raises(ValueError):
        JointDistribution((1 << 28, 2), np.zeros(2))


def test_normalisation_tolerance():
    """Within 1e-12 of 1 a table is used as given; up to 1e-6 off it is
    divided by its sum; further off it is refused."""
    kept = np.array([0.5, 0.0, 0.0, 0.5 + 4e-13])
    assert np.array_equal(JointDistribution((2, 2), kept).table.reshape(-1), kept)
    off = np.array([0.5, 0.0, 0.0, 0.5 + 9e-7])
    table = JointDistribution((2, 2), off).table.reshape(-1)
    assert np.array_equal(table, off / off.sum())
    for beyond in (2e-6, -2e-6):
        with pytest.raises(UnnormalizedTable, match="expected 1 within 1e-06"):
            JointDistribution((2, 2), [0.5, 0.0, 0.0, 0.5 + beyond])


def test_tiny_cells_are_flushed():
    """A cell below PROB_EPS reads as 0.0 and one of exactly PROB_EPS is
    kept, so every positive mass is far above the smallest normal double,
    the zero guard of the lattice and the relevance screen."""
    table = JointDistribution((2, 2), [0.5, 5e-16, 0.0, 0.5 - 5e-16]).table
    assert table.reshape(-1).tolist() == [0.5, 0.0, 0.0, 0.4999999999999995]
    table = JointDistribution((2, 2), [0.5, PROB_EPS, 0.0, 0.5 - PROB_EPS]).table
    assert table[0, 1] == PROB_EPS
    assert PROB_EPS >= np.finfo(float).tiny


def test_mi_clamp():
    """Negative MI within CLAMP_TOL of zero is rounding noise and reads
    0.0; positive values pass unchanged; anything lower is an error that
    names the quantity."""
    values = np.array([-9.9e-11, -1e-300, 0.0, 1e-300, 0.25])
    assert clamp_mi(values, "mi").tolist() == [0.0, 0.0, 0.0, 1e-300, 0.25]
    assert clamp_mi(-5e-11, "mi") == 0.0
    for beyond in (-1e-10, -0.5):
        with pytest.raises(InternalConsistencyError) as err:
            clamp_mi(np.array([0.1, beyond]), "mutual information")
        assert str(err.value) == (
            f"mutual information = {beyond!r} is negative beyond tolerance"
        )


def test_table_errors_are_impshap_errors():
    """Both refusals reach the CLI as usage errors (exit 2)."""
    with pytest.raises(UnnormalizedTable):
        JointDistribution((2, 2), [0.5, 0.0, 0.0, 0.49])
    with pytest.raises(TableTooLarge):
        JointDistribution((1 << 28, 2), np.zeros(2))
    assert issubclass(UnnormalizedTable, ImpshapError)
    assert issubclass(TableTooLarge, ImpshapError)
