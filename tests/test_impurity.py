"""The shared impurity abstraction used by the population formulas and
the trees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    context_impurities_rowwise,
    entropy_of_counts,
    impurity_of,
    subset_marginal,
    table_cond_entropy,
    weighted_variance,
)

from impshap.impurity import KINDS, _context_impurities, impurity_from_counts, subset_lattice
from impshap.info_theory import JointDistribution, mask_members


def test_impurity_of_dist():
    # i(Y) = mean[0] of the lattice, here with Y independent of the input
    fair = JointDistribution((2, 2), [0.25, 0.25, 0.25, 0.25])
    assert subset_lattice(fair, "entropy").mean[0] == 1.0
    assert subset_lattice(fair, "gini").mean[0] == 0.5
    assert subset_lattice(fair, "variance").mean[0] == 0.25
    sure = JointDistribution((2, 2), [0.5, 0.0, 0.5, 0.0])
    assert subset_lattice(sure, "entropy").mean[0] == 0.0
    with pytest.raises(ValueError):
        subset_lattice(fair, "mse")


def test_counts_match_dist():
    counts = [3, 1, 4]
    total = sum(counts)
    dist = np.array([c / total for c in counts])
    for kind in ("entropy", "gini", "variance"):
        assert impurity_from_counts(counts, kind) == pytest.approx(
            impurity_of(dist, kind), abs=1e-12
        )
    assert impurity_from_counts(counts, "entropy") == pytest.approx(
        entropy_of_counts(counts), abs=1e-12
    )
    assert impurity_from_counts([0, 0], "entropy") == 0.0


def test_mean_conditional_entropy_matches_info_route(tables, random_joints):
    """The lattice's H(Y | S) agrees with H(Y, S) - H(S) by enumeration."""
    for j in list(tables.values()) + random_joints[:5]:
        mean = subset_lattice(j, "entropy").mean
        for mask in (0b01, (1 << j.p) - 1):
            want = table_cond_entropy(j.table, [j.p], mask_members(mask))
            assert mean[mask] == pytest.approx(want, abs=1e-12)


def test_mean_conditional_variance_by_enumeration(random_joints):
    for j in random_joints[:4]:
        mask = 0b01
        want = 0.0
        for row in subset_marginal(j.table, mask):  # P(X_0 = b, Y)
            pb = float(row.sum())
            if pb <= 0.0:
                continue
            want += pb * weighted_variance(np.arange(j.output_arity), row / pb)
        got = subset_lattice(j, "variance").mean[mask]
        assert got == pytest.approx(want, abs=1e-12)


def test_conditional_at_matches_prior_on_empty(tables):
    j = tables["table1-y1"]
    for kind in ("entropy", "gini", "variance"):
        lat = subset_lattice(j, kind, j.positive_instances())
        np.testing.assert_allclose(lat.at[:, 0], lat.mean[0], rtol=0.0, atol=1e-15)


def test_empty_subset_mean_is_prior(tables):
    j = tables["table2"]
    y = subset_marginal(j.table, 0).reshape(-1)  # P(Y)
    for kind in ("entropy", "gini", "variance"):
        assert subset_lattice(j, kind).mean[0] == pytest.approx(
            impurity_of(y, kind), abs=1e-15
        )


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(0, 300), n_y=st.integers(1, 4),
       zero_rows=st.sampled_from([0.0, 0.3, 1.0]), zero_cells=st.sampled_from([0.0, 0.5]),
       scale=st.sampled_from([1.0, 1e-300]), kind=st.sampled_from(KINDS))
def test_context_scoring_matches_rowwise_bits(seed, n_rows, n_y, zero_rows, zero_cells,
                                              scale, kind):
    """Column by column, the context scoring gives the bits of the
    row-wise formulas, on stacks with contexts of probability zero, zero
    cells and masses near the bottom of the float range."""
    rng = np.random.default_rng(seed)
    flat = rng.random((n_rows, n_y)) * scale
    flat[rng.random(n_rows) < zero_rows] = 0.0
    flat[rng.random((n_rows, n_y)) < zero_cells] = 0.0
    ctx, cols, per_ctx = _context_impurities(flat, kind)
    got = ctx, np.stack(cols, axis=1), per_ctx
    want = context_impurities_rowwise(flat, kind)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
