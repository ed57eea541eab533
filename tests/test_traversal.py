"""The packed frontier traversal against the per-tree walks in oracles.py.

Property tests grow forests on random datasets that mix categorical and
numeric features, hide the top category of some categorical features from
training (so that walks stop where a category has no child), and weight
some rows by zero.  Examples are drawn deterministically, so every run
checks the same forests.
"""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    local_mdi_by_walks,
    predict_proba_by_walks,
    saabas_by_walks,
    tree_mdi_by_nodes,
    tree_nodes,
    walk_rows,
)

from impshap import tree as tree_module
from impshap.data import CATEGORICAL, NUMERIC, ColumnMeta, Dataset
from impshap.errors import EmptyDataset, MissingFeatureValue, NoAdmissibleFeature
from impshap.forest import build_forest, global_mdi, local_mdi, predict_proba, saabas
from impshap.impurity import KINDS
from impshap.tree import CHUNK_PAIRS, mdi_by_tree

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)
NUMERIC_VALUES = (0.0, 0.5, 1.0, 2.5, 3.0)
TOL = 1e-12


def random_dataset(seed, kinds, n_rows, n_classes, weighted):
    """Rows drawn from `seed`; a categorical feature of arity a >= 3 never
    shows its top category, and weighted rows include zero weights."""
    rng = np.random.default_rng(seed)
    columns, data = [], []
    for m, arity in enumerate(kinds):
        if arity:
            columns.append(ColumnMeta(f"c{m}", CATEGORICAL, arity))
            data.append(rng.integers(0, arity - 1 if arity >= 3 else arity, n_rows))
        else:
            columns.append(ColumnMeta(f"n{m}", NUMERIC))
            data.append(rng.choice(NUMERIC_VALUES, n_rows))
    columns.append(ColumnMeta("y", CATEGORICAL, n_classes))
    data.append(rng.integers(0, n_classes, n_rows))
    weights = rng.choice([0.0, 0.5, 1.0, 2.0], n_rows) if weighted else None
    return Dataset(columns, data, weights=weights)


def random_instances(seed, kinds, n):
    """n rows over each feature's full domain, unseen categories included."""
    rng = np.random.default_rng(seed + 1)
    cols = [
        rng.integers(0, arity, n).tolist() if arity
        else rng.choice(NUMERIC_VALUES + (-1.0, 4.0), n).tolist()
        for arity in kinds
    ]
    return list(zip(*cols))


def grow(seed, kinds, n_rows, n_classes, weighted, k, n_trees, impurity):
    """(forest, kinds); kinds[m] is feature m's arity, 0 when numeric."""
    ds = random_dataset(seed, kinds, n_rows, n_classes, weighted)
    try:
        forest = build_forest(ds, k=min(k, len(kinds)), n_trees=n_trees,
                              impurity=impurity, seed=seed)
    except (EmptyDataset, NoAdmissibleFeature):
        assume(False)
    return forest, kinds


def assert_matches_walks(forest, instances):
    proba = predict_proba(forest, instances)
    want = predict_proba_by_walks(forest, instances)
    assert np.abs(proba - want).max() <= TOL
    lm = local_mdi(forest, instances)
    assert np.abs(lm.scores - local_mdi_by_walks(forest, instances)).max() <= TOL
    sb = saabas(forest, instances)
    assert sb.classes == tuple(int(c) for c in want.argmax(axis=1))
    expected = saabas_by_walks(forest, instances, sb.classes)
    assert np.abs(sb.scores - expected).max() <= TOL


FORESTS = st.builds(
    grow,
    seed=st.integers(0, 2**16),
    kinds=st.lists(st.sampled_from([0, 2, 3, 4]), min_size=1, max_size=4),
    n_rows=st.integers(2, 24),
    n_classes=st.integers(2, 3),
    weighted=st.booleans(),
    k=st.integers(1, 4),
    n_trees=st.integers(1, 40),
    impurity=st.sampled_from(KINDS),
)


@PROPERTY
@given(grown=FORESTS, n=st.integers(1, 20))
def test_many_trees_per_chunk(grown, n):
    """At most 20 instances: all (at most 40) trees walk in one chunk."""
    forest, kinds = grown
    assert_matches_walks(forest, random_instances(forest.seed, kinds, n))


@PROPERTY
@given(grown=FORESTS, n=st.integers(5, 8))
def test_one_tree_per_chunk(grown, n):
    """A chunk of 8 pairs holds exactly one tree for 5 to 8 instances."""
    forest, kinds = grown
    with mock.patch.object(tree_module, "CHUNK_PAIRS", 8):
        assert_matches_walks(forest, random_instances(forest.seed, kinds, n))


@PROPERTY
@given(grown=FORESTS, n=st.integers(9, 30))
def test_instances_beyond_one_chunk(grown, n):
    """More instances than a chunk holds: each tree's rows span chunks."""
    forest, kinds = grown
    with mock.patch.object(tree_module, "CHUNK_PAIRS", 8):
        assert_matches_walks(forest, random_instances(forest.seed, kinds, n))


def read_features(forest, x):
    """Features whose value some walk of `x` reads: those it splits on,
    and the one at a node where a category unseen there stops it."""
    read = set()
    for t in range(forest.n_trees):
        views = tree_nodes(forest, t)
        (moves,) = walk_rows(views, [x])
        read.update(f for _, _, f in moves)
        stop = views[moves[-1][1] if moves else 0]
        if not stop.is_leaf:
            read.add(stop.feature)
    return read


def assert_rows_match_single_calls(forest, kinds, pool_size, picks):
    """Instances drawn with repeats from a pool, in the order of `picks`:
    each row of a batch call equals the call on that instance alone.  Pool
    rows hold unseen categories, and None or NaN on unread features."""
    pool = []
    for j, x in enumerate(random_instances(forest.seed, kinds, pool_size)):
        if j % 3 < 2:  # every third row keeps all its values
            blank, read = (None, float("nan"))[j % 3], read_features(forest, x)
            x = tuple(v if m in read else blank for m, v in enumerate(x))
        pool.append(x)
    instances = [pool[i % pool_size] for i in picks]
    lm, sb = local_mdi(forest, instances), saabas(forest, instances)
    proba = predict_proba(forest, instances)
    alone = [(local_mdi(forest, [x]), saabas(forest, [x]), predict_proba(forest, [x]))
             for x in pool]
    for i, j in enumerate(picks):
        lm_one, sb_one, proba_one = alone[j % pool_size]
        assert np.array_equal(lm.scores[i], lm_one.scores[0])
        assert np.array_equal(sb.scores[i], sb_one.scores[0])
        assert sb.classes[i] == sb_one.classes[0]
        assert np.array_equal(proba[i], proba_one[0])


@PROPERTY
@given(grown=FORESTS, pool_size=st.integers(1, 5),
       picks=st.lists(st.integers(0, 4), min_size=6, max_size=24))
def test_repeated_instances_score_as_alone(grown, pool_size, picks):
    """More picks than pool rows: some instances repeat."""
    forest, kinds = grown
    assert_rows_match_single_calls(forest, kinds, pool_size, picks)


@PROPERTY
@given(grown=FORESTS, pool_size=st.integers(9, 12),
       picks=st.lists(st.integers(0, 11), min_size=13, max_size=30))
def test_repeated_instances_beyond_one_chunk(grown, pool_size, picks):
    """More distinct instances than a chunk of 8 pairs holds."""
    forest, kinds = grown
    with mock.patch.object(tree_module, "CHUNK_PAIRS", 8):
        assert_rows_match_single_calls(forest, kinds, pool_size, picks)


@PROPERTY
@given(grown=FORESTS)
def test_tree_mdi_matches_per_node_loop(grown):
    forest, _ = grown
    by_tree = mdi_by_tree(forest)
    per_tree = []
    for t in range(forest.n_trees):
        want = tree_mdi_by_nodes(tree_nodes(forest, t), forest.n_features)
        assert np.abs(by_tree[t] - want).max() <= TOL
        per_tree.append(want)
    assert np.abs(global_mdi(forest) - np.mean(per_tree, axis=0)).max() <= TOL


@pytest.mark.parametrize("extra", [0, 7], ids=["one-tree-per-chunk", "beyond-chunk"])
def test_module_chunk_constant(extra):
    """CHUNK_PAIRS instances put one tree in each chunk; more split rows."""
    kinds = [3, 0, 2, 4]
    forest, _ = grow(5, kinds, 40, 3, True, 2, 3, "entropy")
    assert_matches_walks(forest, random_instances(5, kinds, CHUNK_PAIRS + extra))


def two_feature_forest():
    """Root splits on a; a = 0 is a pure leaf, a = 1 then splits on b."""
    ds = Dataset(
        [ColumnMeta("a", CATEGORICAL, 2), ColumnMeta("b", CATEGORICAL, 2),
         ColumnMeta("y", CATEGORICAL, 2)],
        [np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]), np.array([0, 0, 0, 1])],
    )
    return build_forest(ds, k=2, n_trees=6, seed=0)


@pytest.mark.parametrize("value", [None, float("nan"), 2, -1])
def test_unvisited_bad_value_scores_as_before(value):
    forest = two_feature_forest()
    roots = forest.offsets[:-1]
    assert (forest.feature[roots] == 0).all()
    clean = [(0, 0), (1, 1)]
    odd = [(0, value), (1, 1)]
    assert np.array_equal(local_mdi(forest, odd).scores, local_mdi(forest, clean).scores)
    assert np.array_equal(saabas(forest, odd).scores, saabas(forest, clean).scores)
    assert np.array_equal(predict_proba(forest, odd), predict_proba(forest, clean))
    assert np.array_equal(local_mdi(forest, odd).scores,
                          local_mdi_by_walks(forest, clean))


@pytest.mark.parametrize("value", [None, float("nan"), 2, -1])
def test_visited_bad_value_raises(value):
    forest = two_feature_forest()
    bad = [(0, 0), (1, value)]
    for measure in (local_mdi, saabas, predict_proba):
        with pytest.raises(MissingFeatureValue):
            measure(forest, bad)
    with pytest.raises(MissingFeatureValue):
        local_mdi(forest, [(value, 0)])


@pytest.mark.parametrize("value, quoted", [(float("nan"), "nan"), (2, "2.0")])
def test_bad_value_in_an_array_is_quoted_as_a_number(value, quoted):
    """An ndarray's value is quoted as the Python float it holds."""
    bad = np.array([(0, 0), (1, value)], dtype=np.float64)
    message = f"feature 1: no usable value ({quoted}) where a path splits on it"
    with pytest.raises(MissingFeatureValue, match=f"^{re.escape(message)}$"):
        local_mdi(two_feature_forest(), bad)


@pytest.mark.parametrize("value", [None, float("nan"), 2, -1])
def test_repeated_visited_bad_value_raises(value):
    """A bad row met several times is walked once and still raises; the
    message quotes the value as passed, in the first row that fails."""
    forest = two_feature_forest()
    other = 3 if value is None or value != value else None
    bad = [(0, 0), (1, value), (1, 1), (1, other), (1, value), (0, 0), (1, other)]
    for measure in (local_mdi, saabas, predict_proba):
        with pytest.raises(MissingFeatureValue, match=re.escape(f"({value!r})")):
            measure(forest, bad)
