"""Tree construction, impurity bookkeeping and path prediction, on trees
grown one at a time: `grow_trees` with one tree key on a fresh state graph."""

import numpy as np
import pytest

from oracles import (
    dataset_instances,
    efficiency_gap,
    entropy_of_counts,
    structure_keys,
    tree_nodes,
    walk_rows,
)

from impshap.data import ColumnMeta, Dataset, builtin_dataset
from impshap.errors import (
    EmptyDataset,
    InvalidValue,
    MissingFeatureValue,
    NoAdmissibleFeature,
)
from impshap.forest import predict_proba
from impshap.impurity import ENTROPY
from impshap.tree import LEAF, StateGraph, grow_trees, mdi_by_tree, tree_keys


def one_tree(ds, k, seed, impurity=ENTROPY):
    return grow_trees(StateGraph(ds, impurity), k, tree_keys(seed, 1), seed)


def test_table1_k2_structure_and_mdi():
    """With both features competing, the tree is deterministic: first the
    more informative feature, then the other; importances match the
    empirical (conditional) informations."""
    ds = builtin_dataset("table1-y1")
    for seed in (0, 1, 99):
        tree = one_tree(ds, 2, seed)
        nodes = tree_nodes(tree)
        assert nodes[0].feature == 0
        assert all(nodes[c].feature == 1 for c in nodes[0].children)
        scores = mdi_by_tree(tree)[0]
        assert scores == pytest.approx([0.091, 0.180], abs=5e-4)

    ds2 = builtin_dataset("table1-y2")
    tree2 = one_tree(ds2, 2, 0)
    assert tree_nodes(tree2)[0].feature == 1
    assert mdi_by_tree(tree2)[0] == pytest.approx([0.243, 0.016], abs=5e-4)


def test_pure_output_single_leaf():
    ds = Dataset(
        [ColumnMeta("a", "categorical", 2), ColumnMeta("y", "categorical", 2)],
        [np.array([0, 1, 0]), np.array([1, 1, 1])],
    )
    tree = one_tree(ds, 1, 0)
    assert len(tree.feature) == 1
    assert tree_nodes(tree)[0].is_leaf
    assert np.abs(mdi_by_tree(tree)[0]).max() == 0.0


def test_constant_columns_raise():
    ds = Dataset(
        [ColumnMeta("a", "categorical", 2), ColumnMeta("y", "categorical", 2)],
        [np.array([1, 1, 1]), np.array([0, 1, 0])],
    )
    with pytest.raises(NoAdmissibleFeature):
        one_tree(ds, 1, 0)


@pytest.mark.parametrize("weights", [None, [1.0, 0.0, 1.0]], ids=["unweighted", "zero-weight"])
def test_nan_in_numeric_feature_raises(weights):
    """No threshold can place a NaN, and sorting it would make the trees
    depend on row order: refused, also on a zero-weight row."""
    ds = Dataset(
        [ColumnMeta("a", "categorical", 2), ColumnMeta("size", "numeric"),
         ColumnMeta("y", "categorical", 2)],
        [np.array([0, 1, 0]), np.array([0.5, np.nan, 1.5]), np.array([0, 1, 1])],
        weights=weights,
    )
    with pytest.raises(InvalidValue, match="numeric feature 'size' holds NaN"):
        one_tree(ds, 1, 0)


def test_empty_dataset_raises():
    ds = Dataset(
        [ColumnMeta("a", "categorical", 2), ColumnMeta("y", "categorical", 2)],
        [np.array([], dtype=int), np.array([], dtype=int)],
    )
    with pytest.raises(EmptyDataset):
        one_tree(ds, 1, 0)


def test_led_structural_invariants(led_ds):
    """Fully developed exhaustive trees never reuse a feature on a path
    and bottom out within p levels."""
    for seed in (0, 7, 123):
        nodes = tree_nodes(one_tree(led_ds, 1, seed))
        stack = [(0, 0, frozenset())]
        while stack:
            node_id, depth, used = stack.pop()
            view = nodes[node_id]
            assert depth <= 7
            if view.is_leaf:
                continue
            assert view.feature not in used
            for c in view.children:
                stack.append((c, depth + 1, used | {view.feature}))


def test_led_telescoping(led_ds):
    """Total importance equals root impurity minus weighted leaf impurity."""
    for k in (1, 3, 7):
        tree = one_tree(led_ds, k, 5)
        total = mdi_by_tree(tree)[0].sum()
        assert abs(total - efficiency_gap(tree)) < 1e-12
        assert float(tree.impurity[0]) == pytest.approx(np.log2(10), abs=1e-12)


def test_mass_conservation(led_ds):
    nodes = tree_nodes(one_tree(led_ds, 1, 3))
    for view in nodes:
        if view.is_leaf:
            continue
        child_mass = sum(nodes[c].mass for c in view.children)
        assert child_mass == pytest.approx(view.mass, abs=1e-12)
    assert nodes[0].mass == 1.0


def test_determinism(led_ds):
    a = one_tree(led_ds, 1, 42)
    b = one_tree(led_ds, 1, 42)
    assert structure_keys(a) == structure_keys(b)
    assert np.array_equal(a.impurity, b.impurity)
    c = one_tree(led_ds, 1, 43)
    assert structure_keys(a) != structure_keys(c)


def test_unseen_category_has_no_child():
    """A category that no training row of a node has gets no child: its
    slot is LEAF, and a walk that takes it stops at the node."""
    ds = Dataset(
        [ColumnMeta("a", "categorical", 3), ColumnMeta("y", "categorical", 2)],
        [np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1])],
    )
    tree = one_tree(ds, 1, 0)
    assert tree.children[0, 2] == LEAF  # category 2 never observed
    assert len(tree.feature) == 3 and (tree.mass > 0).all()
    nodes = tree_nodes(tree)
    root = nodes[0]
    assert root.feature == 0 and root.children[2] is None
    assert list(walk_rows(nodes, [(2,)])) == [[]]
    assert np.array_equal(predict_proba(tree, [(2,)])[0], root.dist)


def test_predict_paths():
    ds = builtin_dataset("table1-y1")
    tree = one_tree(ds, 2, 0)
    assert predict_proba(tree, [(1, 0)])[0, 1] == pytest.approx(0.9, abs=1e-12)
    (moves,) = walk_rows(tree_nodes(tree), [(1, 0)])
    assert len(moves) == 2  # root to x1 child to leaf
    # root-only tree returns the prior
    pure = Dataset(
        [ColumnMeta("a", "categorical", 2), ColumnMeta("y", "categorical", 2)],
        [np.array([0, 1]), np.array([0, 0])],
    )
    root_only = one_tree(pure, 1, 0)
    assert list(walk_rows(tree_nodes(root_only), [(1,)])) == [[]]
    assert predict_proba(root_only, [(1,)])[0, 0] == 1.0


def test_predict_led_deterministic(led_ds):
    dists = predict_proba(one_tree(led_ds, 1, 9), dataset_instances(led_ds))
    for d in range(10):
        assert dists[d, d] == 1.0


def test_predict_missing_value(led_ds):
    tree = one_tree(led_ds, 1, 0)
    x = list(dataset_instances(led_ds)[8])
    x[tree_nodes(tree)[0].feature] = None
    with pytest.raises(MissingFeatureValue):
        predict_proba(tree, [x])


def test_numeric_threshold_split():
    """Binary threshold at the best midpoint; feature reusable deeper."""
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    y = np.array([0, 0, 1, 1, 0, 0])
    ds = Dataset(
        [ColumnMeta("a", "numeric"), ColumnMeta("y", "categorical", 2)],
        [x, y],
    )
    tree = one_tree(ds, 1, 0)
    nodes = tree_nodes(tree)
    root = nodes[0]
    assert root.kind == "threshold"
    assert root.threshold in (1.5, 3.5)  # both are optimal; lowest wins
    assert root.threshold == 1.5
    # fully developed: every leaf pure
    for view in nodes:
        if view.is_leaf:
            assert view.impurity < 1e-12
    assert predict_proba(tree, [(2.5,)])[0, 1] == 1.0


def test_gini_and_variance_impurities():
    ds = builtin_dataset("table1-y1")
    for kind in ("gini", "variance"):
        tree = one_tree(ds, 2, 0, impurity=kind)
        total = mdi_by_tree(tree)[0].sum()
        assert abs(total - efficiency_gap(tree)) < 1e-12


def test_weighted_equals_expanded(tables):
    """A weighted population dataset grows the same statistics as its
    integer row expansion."""
    from impshap.data import dataset_from_joint, expand_to_rows

    weighted = dataset_from_joint(tables["table1-y1"])
    expanded = expand_to_rows(tables["table1-y1"], 40)
    tw = one_tree(weighted, 2, 0)
    te = one_tree(expanded, 2, 0)
    assert mdi_by_tree(tw)[0] == pytest.approx(mdi_by_tree(te)[0], abs=1e-12)


def test_node_impurity_matches_oracle(led_ds):
    tree = one_tree(led_ds, 1, 1)
    # the root sees all ten digits once
    assert float(tree.impurity[0]) == pytest.approx(
        entropy_of_counts([1] * 10), abs=1e-12
    )


def test_k_validation(led_ds):
    with pytest.raises(ValueError):
        one_tree(led_ds, 0, 0)
    with pytest.raises(ValueError):
        one_tree(led_ds, 8, 0)


def test_tie_breaks_to_lowest_feature():
    """Two identical features under full competition: lowest index splits."""
    ds = Dataset(
        [
            ColumnMeta("a", "categorical", 2),
            ColumnMeta("b", "categorical", 2),
            ColumnMeta("y", "categorical", 2),
        ],
        [np.array([0, 0, 1, 1]), np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])],
    )
    for seed in range(5):
        assert tree_nodes(one_tree(ds, 2, seed))[0].feature == 0
