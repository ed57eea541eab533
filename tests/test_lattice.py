"""The subset-lattice walk against the per-subset references in oracles.py.

Property tests run over random joints with up to six inputs, varied
arities and zero cells, and all three impurities.  Examples are drawn
deterministically so that every run checks the same joints.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    cond_at,
    impurity_of,
    locally_irrelevant_scan,
    mdi_by_moebius,
    mean_impurity,
    shapley_by_permutations,
)

from impshap.data import example_tables, random_joint
from impshap.errors import ImpshapError, TableTooLarge
from impshap.impurity import KINDS, mean_conditional_impurity, subset_lattice
from impshap.population import (
    check_decompositions,
    pop_global_mdi,
    pop_local_mdi_batch,
)
from impshap.relevance import (
    local_irrelevance,
    verify_global_local_equivalence,
    verify_local_null_scores,
)
from impshap.tu_game import lattice_games, shapley_exact

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)

JOINTS = st.builds(
    random_joint,
    seed=st.integers(0, 2**16),
    p=st.integers(1, 5),
    max_arity=st.integers(2, 3),
    zero_fraction=st.sampled_from([0.0, 0.25, 0.5]),
    append_irrelevant=st.booleans(),
)
# at most five inputs, for the p! permutation oracle
SMALL_JOINTS = st.builds(
    random_joint,
    seed=st.integers(0, 2**16),
    p=st.integers(1, 4),
    max_arity=st.integers(2, 3),
    zero_fraction=st.sampled_from([0.0, 0.25, 0.5]),
    append_irrelevant=st.booleans(),
)
KIND = st.sampled_from(KINDS)


def _some_instances(j, data, most=6):
    positive = j.positive_instances()
    picks = data.draw(
        st.lists(st.integers(0, len(positive) - 1), min_size=1, max_size=most)
    )
    return [positive[i] for i in picks]


@PROPERTY
@given(j=JOINTS, kind=KIND)
def test_mean_impurity_matches_direct_marginals(j, kind):
    lattice = subset_lattice(j, kind)
    for mask in range(1 << j.p):
        want = mean_impurity(j.table, mask, kind)
        assert lattice.mean[mask] == pytest.approx(want, abs=1e-12)
        direct = mean_conditional_impurity(j, mask, kind)
        assert lattice.mean[mask] == pytest.approx(direct, abs=1e-12)


@PROPERTY
@given(j=JOINTS, kind=KIND, data=st.data())
def test_pointwise_tables_match_slicing(j, kind, data):
    xs = _some_instances(j, data)
    lattice = subset_lattice(j, kind, xs)
    assert lattice.at.shape == (len(xs), 1 << j.p)
    for k, x in enumerate(xs):
        assert lattice.prob[k] == pytest.approx(float(j.table[x].sum()), abs=1e-15)
        for mask in range(1 << j.p):
            want = cond_at(j.table, x, mask)
            assert np.abs(lattice.cond[k, mask] - want).max() <= 1e-12
            assert lattice.at[k, mask] == pytest.approx(
                impurity_of(want, kind), abs=1e-12
            )


@PROPERTY
@given(j=JOINTS, kind=KIND, data=st.data())
def test_global_and_batched_local_mdi_match_moebius(j, kind, data):
    masks = range(1 << j.p)
    means = [mean_impurity(j.table, mask, kind) for mask in masks]
    got = pop_global_mdi(j, kind).scores
    assert np.abs(got - mdi_by_moebius(means, j.p)).max() <= 1e-12

    xs = _some_instances(j, data)
    local = pop_local_mdi_batch(j, xs, kind)
    for row, x in zip(local, xs):
        at = [impurity_of(cond_at(j.table, x, mask), kind) for mask in masks]
        assert np.abs(row - mdi_by_moebius(at, j.p)).max() <= 1e-12


@PROPERTY
@given(j=SMALL_JOINTS, kind=KIND, data=st.data())
def test_game_payoffs_match_permutation_average(j, kind, data):
    x = _some_instances(j, data, most=1)[0]
    global_game, (local_game,) = lattice_games(subset_lattice(j, kind, [x]))
    prior = mean_impurity(j.table, 0, kind)

    def bits(s):
        return sum(1 << i for i in s)

    def global_value(s):
        return prior - mean_impurity(j.table, bits(s), kind)

    def local_value(s):
        return prior - impurity_of(cond_at(j.table, x, bits(s)), kind)

    for game, value in ((global_game, global_value), (local_game, local_value)):
        want = shapley_by_permutations(j.p, value)
        got = shapley_exact(game).payoffs
        assert np.abs(got - np.array(want)).max() <= 1e-12


@PROPERTY
@given(j=JOINTS)
def test_batched_local_verdicts_match_per_instance_scan(j):
    xs = j.positive_instances()[:12]
    verdicts = local_irrelevance(subset_lattice(j, "entropy", xs))
    for k, x in enumerate(xs):
        for m in range(j.p):
            assert verdicts[k, m] == locally_irrelevant_scan(j.table, m, x, 1e-10)


def test_oversized_batch_refused_before_allocation():
    """n * 2^p * |Y| = 2^28 cells exceed MAX_CELLS = 2^27.  The instances
    are a broadcast view of one row, so reaching the check allocates
    nothing, and the walk never starts."""
    j = example_tables()["table2"]
    many = np.broadcast_to(np.zeros((1, 1), dtype=np.intp), (1 << 26, 1))
    with pytest.raises(TableTooLarge):
        subset_lattice(j, "entropy", many)
    assert issubclass(TableTooLarge, ImpshapError)


def test_shared_lattice_is_checked():
    """A walk passed in as `lattice=` must be the walk of that joint over
    its positive instances, and of the named impurity where it matters."""
    tables = example_tables()
    j, other = tables["table1-y1"], tables["table1-y2"]
    xs = j.positive_instances()
    gini = subset_lattice(j, "gini", xs)
    assert check_decompositions(j, "gini", lattice=gini).passed
    assert verify_global_local_equivalence(j, lattice=gini).passed
    wrong = [
        subset_lattice(j, "entropy", xs[:-1]),  # some instances missing
        subset_lattice(other, "gini", other.positive_instances()),
        subset_lattice(tables["table2"], "gini", [(0,), (1,)]),
    ]
    for lattice in wrong:
        with pytest.raises(ValueError):
            verify_global_local_equivalence(j, lattice=lattice)
    for lattice in wrong + [gini]:
        with pytest.raises(ValueError):
            check_decompositions(j, "entropy", lattice=lattice)
        with pytest.raises(ValueError):
            verify_local_null_scores(j, "entropy", lattice=lattice)
