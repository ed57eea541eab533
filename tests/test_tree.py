"""Tree construction, impurity bookkeeping and path prediction."""

import numpy as np
import pytest

from oracles import entropy_of_counts

from impshap.data import ColumnMeta, Dataset, builtin_dataset
from impshap.errors import EmptyDataset, MissingFeatureValue, NoAdmissibleFeature
from impshap.tree import build_tree, predict, tree_mdi


def test_table1_k2_structure_and_mdi():
    """With both features competing, the tree is deterministic: first the
    more informative feature, then the other; importances match the
    empirical (conditional) informations."""
    ds = builtin_dataset("table1-y1")
    for seed in (0, 1, 99):
        tree = build_tree(ds, k=2, rng=seed)
        root = tree.node(0)
        assert root.feature == 0
        assert all(tree.node(c).feature == 1 for c in root.children)
        scores = tree_mdi(tree)
        assert scores == pytest.approx([0.091, 0.180], abs=5e-4)

    ds2 = builtin_dataset("table1-y2")
    tree2 = build_tree(ds2, k=2, rng=0)
    assert tree2.node(0).feature == 1
    assert tree_mdi(tree2) == pytest.approx([0.243, 0.016], abs=5e-4)


def test_pure_output_single_leaf():
    ds = Dataset(
        [ColumnMeta("a", "categorical", 2), ColumnMeta("y", "categorical", 2)],
        [np.array([0, 1, 0]), np.array([1, 1, 1])],
    )
    tree = build_tree(ds, k=1, rng=0)
    assert tree.n_nodes == 1
    assert tree.node(0).is_leaf
    assert np.abs(tree_mdi(tree)).max() == 0.0


def test_constant_columns_raise():
    ds = Dataset(
        [ColumnMeta("a", "categorical", 2), ColumnMeta("y", "categorical", 2)],
        [np.array([1, 1, 1]), np.array([0, 1, 0])],
    )
    with pytest.raises(NoAdmissibleFeature):
        build_tree(ds, k=1, rng=0)


def test_empty_dataset_raises():
    ds = Dataset(
        [ColumnMeta("a", "categorical", 2), ColumnMeta("y", "categorical", 2)],
        [np.array([], dtype=int), np.array([], dtype=int)],
    )
    with pytest.raises(EmptyDataset):
        build_tree(ds, k=1, rng=0)


def test_led_structural_invariants(led_ds):
    """Fully developed exhaustive trees never reuse a feature on a path
    and bottom out within p levels."""
    for seed in (0, 7, 123):
        tree = build_tree(led_ds, k=1, rng=seed)
        stack = [(0, 0, frozenset())]
        while stack:
            node_id, depth, used = stack.pop()
            view = tree.node(node_id)
            assert depth <= 7
            if view.is_leaf:
                continue
            assert view.feature not in used
            for c in view.children:
                stack.append((c, depth + 1, used | {view.feature}))


def test_led_telescoping(led_ds):
    """Total importance equals root impurity minus weighted leaf impurity."""
    for k in (1, 3, 7):
        tree = build_tree(led_ds, k=k, rng=5)
        total = tree_mdi(tree).sum()
        want = float(tree.impurity[0]) - tree.leaf_weighted_impurity()
        assert abs(total - want) < 1e-12
        assert float(tree.impurity[0]) == pytest.approx(np.log2(10), abs=1e-12)


def test_mass_conservation(led_ds):
    tree = build_tree(led_ds, k=1, rng=3)
    for i in range(tree.n_nodes):
        view = tree.node(i)
        if view.is_leaf:
            continue
        child_mass = sum(float(tree.mass[c]) for c in view.children)
        assert child_mass == pytest.approx(view.mass, abs=1e-12)
    assert float(tree.mass[0]) == 1.0


def test_determinism(led_ds):
    a = build_tree(led_ds, k=1, rng=42)
    b = build_tree(led_ds, k=1, rng=42)
    assert a.structure_key() == b.structure_key()
    assert np.array_equal(a.impurity, b.impurity)
    c = build_tree(led_ds, k=1, rng=43)
    assert a.structure_key() != c.structure_key()


def test_zero_mass_children():
    """Unseen categories yield zero-mass children that keep the parent's
    distribution and do not disturb the importance sums."""
    ds = Dataset(
        [ColumnMeta("a", "categorical", 3), ColumnMeta("y", "categorical", 2)],
        [np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1])],
    )
    tree = build_tree(ds, k=1, rng=0)
    root = tree.node(0)
    assert root.feature == 0
    assert len(root.children) == 3
    ghost = tree.node(root.children[2])  # category 2 never observed
    assert ghost.mass == 0.0 and ghost.impurity == 0.0
    assert np.array_equal(ghost.dist, root.dist)
    # prediction truncates at the parent
    dist, path = predict(tree, (2,))
    assert path == [0]
    assert np.array_equal(dist, root.dist)


def test_predict_paths():
    ds = builtin_dataset("table1-y1")
    tree = build_tree(ds, k=2, rng=0)
    dist, path = predict(tree, (1, 0))
    assert dist[1] == pytest.approx(0.9, abs=1e-12)
    assert len(path) == 3  # root, x1 child, leaf
    # root-only tree returns the prior
    pure = Dataset(
        [ColumnMeta("a", "categorical", 2), ColumnMeta("y", "categorical", 2)],
        [np.array([0, 1]), np.array([0, 0])],
    )
    root_only = build_tree(pure, k=1, rng=0)
    dist, path = predict(root_only, (1,))
    assert path == [0] and dist[0] == 1.0


def test_predict_led_deterministic(led_ds):
    tree = build_tree(led_ds, k=1, rng=9)
    for d in range(10):
        dist, _ = predict(tree, led_ds.instances()[d])
        assert dist[d] == 1.0


def test_predict_missing_value(led_ds):
    tree = build_tree(led_ds, k=1, rng=0)
    root_feature = tree.node(0).feature
    x = list(led_ds.instances()[8])
    x[root_feature] = None
    with pytest.raises(MissingFeatureValue):
        predict(tree, x)


def test_numeric_threshold_split():
    """Binary threshold at the best midpoint; feature reusable deeper."""
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    y = np.array([0, 0, 1, 1, 0, 0])
    ds = Dataset(
        [ColumnMeta("a", "numeric"), ColumnMeta("y", "categorical", 2)],
        [x, y],
    )
    tree = build_tree(ds, k=1, rng=0)
    root = tree.node(0)
    assert root.kind == "threshold"
    assert root.threshold in (1.5, 3.5)  # both are optimal; lowest wins
    assert root.threshold == 1.5
    # fully developed: every leaf pure
    for i in range(tree.n_nodes):
        view = tree.node(i)
        if view.is_leaf:
            assert view.impurity < 1e-12
    dist, _ = predict(tree, (2.5,))
    assert dist[1] == 1.0


def test_gini_and_variance_impurities():
    ds = builtin_dataset("table1-y1")
    for kind in ("gini", "variance"):
        tree = build_tree(ds, k=2, impurity=kind, rng=0)
        total = tree_mdi(tree).sum()
        want = float(tree.impurity[0]) - tree.leaf_weighted_impurity()
        assert abs(total - want) < 1e-12


def test_weighted_equals_expanded(tables):
    """A weighted population dataset grows the same statistics as its
    integer row expansion."""
    from impshap.data import dataset_from_joint, expand_to_rows

    weighted = dataset_from_joint(tables["table1-y1"])
    expanded = expand_to_rows(tables["table1-y1"], 40)
    tw = build_tree(weighted, k=2, rng=0)
    te = build_tree(expanded, k=2, rng=0)
    assert tree_mdi(tw) == pytest.approx(tree_mdi(te), abs=1e-12)


def test_node_impurity_matches_oracle(led_ds):
    tree = build_tree(led_ds, k=1, rng=1)
    # the root sees all ten digits once
    assert float(tree.impurity[0]) == pytest.approx(
        entropy_of_counts([1] * 10), abs=1e-12
    )


def test_k_validation(led_ds):
    with pytest.raises(ValueError):
        build_tree(led_ds, k=0, rng=0)
    with pytest.raises(ValueError):
        build_tree(led_ds, k=8, rng=0)


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
        tree = build_tree(ds, k=2, rng=seed)
        assert tree.node(0).feature == 0
