"""Forest construction and the three importance measures with their
linking identities."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from impshap.data import ColumnMeta, Dataset, builtin_dataset, led_population
from impshap.errors import InvalidSetting
from impshap.forest import (
    LOCAL_MDI,
    SAABAS,
    LocalImportanceMatrix,
    _thread_budget,
    build_forest,
    correlation_report,
    global_mdi,
    local_mdi,
    predict_proba,
    saabas,
)
from impshap.tree import NODE_ARRAYS, mdi_by_tree


def led_with_noise():
    """LED rows doubled with a feature independent of digits and segments."""
    led = led_population()
    cols = list(led.columns[:-1]) + [
        ColumnMeta("noise", "categorical", 2),
        led.columns[-1],
    ]
    data = [np.repeat(c, 2) for c in led.data[:-1]]
    data.append(np.tile([0, 1], 10))
    data.append(np.repeat(led.data[-1], 2))
    return Dataset(cols, data, name="led-noise")


def test_single_tree_forest(led_ds):
    forest = build_forest(led_ds, k=1, n_trees=1, seed=3)
    assert np.array_equal(global_mdi(forest), mdi_by_tree(forest.nodes)[0])


def test_tree_views_are_the_packed_slices(led_ds):
    """`Forest.trees` holds one view per tree; a view's ndarrays are exactly
    its tree's slices of the packed node arrays, so that counting nodes and
    array bytes over the views counts every packed node once."""
    forest = build_forest(led_ds, k=2, n_trees=7, seed=4)
    nodes, views = forest.nodes, forest.trees
    assert len(views) == forest.n_trees
    assert sum(v.n_nodes for v in views) == len(nodes.feature)
    for view, lo, hi in zip(views, nodes.offsets[:-1], nodes.offsets[1:]):
        arrays = {k: a for k, a in vars(view).items() if isinstance(a, np.ndarray)}
        assert sorted(arrays) == sorted(NODE_ARRAYS)
        for name, a in arrays.items():
            whole = getattr(nodes, name)
            assert np.shares_memory(a, whole) and a.shape == whole[lo:hi].shape
            assert np.array_equal(a, whole[lo:hi], equal_nan=True)


def test_table1_forest_reduces_to_single_tree():
    ds = builtin_dataset("table1-y1")
    forest = build_forest(ds, k=2, n_trees=25, seed=11)
    assert len(set(oracles.structure_keys(forest.nodes))) == 1
    assert global_mdi(forest) == pytest.approx([0.091, 0.180], abs=5e-4)
    forest2 = build_forest(builtin_dataset("table1-y2"), k=2, n_trees=25, seed=11)
    assert global_mdi(forest2) == pytest.approx([0.243, 0.016], abs=5e-4)


def test_seed_determinism(led_ds):
    a = build_forest(led_ds, k=1, n_trees=150, seed=7)
    b = build_forest(led_ds, k=1, n_trees=150, seed=7)
    assert np.array_equal(global_mdi(a), global_mdi(b))
    la = local_mdi(a, led_ds.instances())
    lb = local_mdi(b, led_ds.instances())
    assert np.array_equal(la.scores, lb.scores)


def test_parallel_matches_sequential(led_ds):
    seq = build_forest(led_ds, k=1, n_trees=64, seed=5, n_jobs=1)
    instances = led_ds.instances()
    for n_jobs in (2, 3):
        par = build_forest(led_ds, k=1, n_trees=64, seed=5, n_jobs=n_jobs)
        assert np.array_equal(global_mdi(seq), global_mdi(par))
        assert oracles.structure_keys(seq.nodes) == oracles.structure_keys(par.nodes)
        assert np.array_equal(local_mdi(seq, instances).scores,
                              local_mdi(par, instances).scores)
        assert np.array_equal(saabas(seq, instances).scores,
                              saabas(par, instances).scores)
        assert np.array_equal(predict_proba(seq, instances),
                              predict_proba(par, instances))


def test_distinct_structures_regression(led_ds):
    # frozen from a pilot run; guards the tree RNG plumbing
    forest = build_forest(led_ds, k=1, n_trees=1000, seed=0)
    assert len(set(oracles.structure_keys(forest.nodes))) == 904


def test_global_decomposes_over_training_instances(led_ds):
    """Global MDI is the training-set mean of local MDI, every K and
    impurity."""
    for ds in (led_ds, builtin_dataset("table1-y1")):
        instances = ds.instances()
        for k in (1, 2, ds.n_features):
            for kind in ("entropy", "gini", "variance"):
                forest = build_forest(ds, k=k, n_trees=30, impurity=kind, seed=2)
                lm = local_mdi(forest, instances)
                assert np.abs(
                    lm.scores.mean(axis=0) - global_mdi(forest)
                ).max() < 1e-10


def test_forest_efficiency(led_ds):
    """Score total equals root impurity minus average leaf impurity."""
    for k in (1, 3, 7):
        forest = build_forest(led_ds, k=k, n_trees=40, seed=1)
        total = float(global_mdi(forest).sum())
        assert abs(total - oracles.efficiency_gap(forest.nodes)) < 1e-12
        # LED leaves are pure, so the total is the output entropy
        assert total == pytest.approx(np.log2(10), abs=1e-12)


def test_null_player_scores_exactly_zero():
    ds = led_with_noise()
    noise = 7
    for k in (1, 3, 8):
        forest = build_forest(ds, k=k, n_trees=120, seed=0)
        assert float(global_mdi(forest)[noise]) == 0.0
        lm = local_mdi(forest, ds.instances())
        assert float(np.abs(lm.scores[:, noise]).max()) == 0.0


def test_strong_monotonicity_violation():
    """The K=2 importances order against the marginal contributions."""
    from impshap.data import example_tables
    from impshap.impurity import subset_lattice

    tables = example_tables()
    # H(Y | X_S) per mask S
    h1 = subset_lattice(tables["table1-y1"], "entropy").mean
    h2 = subset_lattice(tables["table1-y2"], "entropy").mean
    imp1 = global_mdi(build_forest(builtin_dataset("table1-y1"), 2, 10, seed=0))
    imp2 = global_mdi(build_forest(builtin_dataset("table1-y2"), 2, 10, seed=0))
    # X1 contributes more to Y1 in both contexts: I(Y; X1), I(Y; X1 | X2) ...
    assert h1[0] - h1[0b01] >= h2[0] - h2[0b01]
    assert h1[0b10] - h1[0b11] >= h2[0b10] - h2[0b11]
    # ... yet ends up less important to Y1
    assert imp1[0] < imp2[0]
    # and symmetrically for X2: I(Y; X2), I(Y; X2 | X1)
    assert h1[0] - h1[0b10] <= h2[0] - h2[0b10]
    assert h1[0b01] - h1[0b11] <= h2[0b01] - h2[0b11]
    assert imp1[1] > imp2[1]


def test_local_mdi_negative(tables):
    """x1 = 0 gets a negative local score on the skewed binary example."""
    ds = builtin_dataset("table2")
    forest = build_forest(ds, k=1, n_trees=50, seed=0)
    lm = local_mdi(forest, [(0,), (1,)])
    assert lm.scores[0, 0] == pytest.approx(-0.1887, abs=1e-4)
    assert lm.scores[1, 0] == pytest.approx(0.8113, abs=1e-4)


def test_local_mdi_single_leaf_forest():
    ds = Dataset(
        [ColumnMeta("a", "categorical", 2), ColumnMeta("y", "categorical", 2)],
        [np.array([0, 1]), np.array([0, 0])],
    )
    forest = build_forest(ds, k=1, n_trees=5, seed=0)
    lm = local_mdi(forest, [(0,), (1,)])
    assert np.abs(lm.scores).max() == 0.0
    sb = saabas(forest, [(0,), (1,)])
    assert np.abs(sb.scores).max() == 0.0


def test_saabas_telescoping(led_ds):
    """Per instance, scores plus the class prior equal the forest
    probability of the decomposed class."""
    forest = build_forest(led_ds, k=1, n_trees=200, seed=4)
    instances = led_ds.instances()
    sb = saabas(forest, instances)
    proba = predict_proba(forest, instances)
    prior = forest.prior()
    for i in range(len(instances)):
        cls = sb.classes[i]
        assert sb.scores[i].sum() == pytest.approx(
            proba[i, cls] - prior[cls], abs=1e-9
        )
    # the noiseless LED forest recovers every digit
    assert sb.classes == tuple(range(10))


def test_saabas_table1_sum():
    """Hand value: leaf P(Y1=1 | 1, 0) = 0.9 minus prior 0.475."""
    ds = builtin_dataset("table1-y1")
    forest = build_forest(ds, k=2, n_trees=10, seed=0)
    sb = saabas(forest, [(1, 0)], class_index=1)
    assert sb.scores[0].sum() == pytest.approx(0.9 - 0.475, abs=1e-12)


def test_saabas_class_validation(led_ds):
    forest = build_forest(led_ds, k=1, n_trees=5, seed=0)
    with pytest.raises(ValueError):
        saabas(forest, led_ds.instances(), class_index=10)


def test_correlation_report_identity(led_ds):
    forest = build_forest(led_ds, k=1, n_trees=100, seed=0)
    lm = local_mdi(forest, led_ds.instances())
    rep = correlation_report(lm, lm, mode="absolute")
    assert rep.summary["pearson"]["mean"] == pytest.approx(1.0, abs=1e-12)
    assert rep.summary["spearman"]["mean"] == pytest.approx(1.0, abs=1e-12)
    assert rep.n_undefined == 0


def test_correlation_report_anticorrelation(led_ds):
    forest = build_forest(led_ds, k=1, n_trees=60, seed=0)
    lm = local_mdi(forest, led_ds.instances())
    flipped = local_mdi(forest, led_ds.instances())
    flipped.scores = -flipped.scores
    rep = correlation_report(lm, flipped, mode="raw")
    assert np.allclose(rep.pearson, -1.0)


def test_correlation_report_constant_vectors(led_ds):
    forest = build_forest(led_ds, k=1, n_trees=30, seed=0)
    lm = local_mdi(forest, led_ds.instances())
    other = local_mdi(forest, led_ds.instances())
    other.scores = other.scores.copy()
    other.scores[0, :] = 0.0  # constant row: correlation undefined
    rep = correlation_report(lm, other)
    assert rep.n_undefined == 1
    assert np.isnan(rep.pearson[0])
    assert rep.summary["pearson"]["mean"] is not None


@st.composite
def score_matrix_pairs(draw):
    """Two n x p score matrices of small integers (many ties), scaled, with
    rows forced constant now and then."""
    n, p = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    cell = st.integers(-3, 3)
    row = st.one_of(st.lists(cell, min_size=p, max_size=p),
                    cell.map(lambda v: [v] * p))
    scale = st.sampled_from([1.0, 0.1, 1e-3])
    return tuple(
        np.array(draw(st.lists(row, min_size=n, max_size=n)), dtype=float)
        * draw(scale)
        for _ in range(2)
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(pair=score_matrix_pairs(), mode=st.sampled_from(["absolute", "raw"]))
def test_correlation_report_matches_oracle(pair, mode):
    a, b = pair
    ids = tuple(range(len(a)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = correlation_report(
            LocalImportanceMatrix(a, LOCAL_MDI, ids, 1, "entropy", 0),
            LocalImportanceMatrix(b, SAABAS, ids, 1, "entropy", 0),
            mode=mode,
        )
    if mode == "absolute":
        a, b = np.abs(a), np.abs(b)
    undefined = [len(set(x)) == 1 or len(set(y)) == 1
                 for x, y in zip(a.tolist(), b.tolist())]
    assert np.isnan(rep.pearson).tolist() == undefined
    assert np.isnan(rep.spearman).tolist() == undefined
    assert rep.n_undefined == sum(undefined)
    for i in np.flatnonzero(~np.array(undefined)):
        x, y = a[i].tolist(), b[i].tolist()
        assert abs(rep.pearson[i] - oracles.pearson(x, y)) <= 1e-12
        assert abs(rep.spearman[i] - oracles.spearman(x, y)) <= 1e-12


def test_correlation_report_shape_mismatch(led_ds):
    forest = build_forest(led_ds, k=1, n_trees=10, seed=0)
    lm = local_mdi(forest, led_ds.instances())
    sb = saabas(forest, led_ds.instances()[:5], instance_ids=range(5))
    with pytest.raises(ValueError):
        correlation_report(lm, sb)


def test_predict_proba_led(led_ds):
    forest = build_forest(led_ds, k=1, n_trees=50, seed=0)
    proba = predict_proba(forest, led_ds.instances())
    assert np.allclose(proba, np.eye(10))


def test_forest_validation(led_ds):
    with pytest.raises(ValueError):
        build_forest(led_ds, k=1, n_trees=0)
    forest = build_forest(led_ds, k=1, n_trees=3, seed=0)
    with pytest.raises(ValueError):
        local_mdi(forest, [(0, 1)])  # wrong width


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_thread_budget_refuses_non_positive_integers(monkeypatch, value):
    monkeypatch.setenv("IMPSHAP_THREADS", value)
    with pytest.raises(InvalidSetting, match="IMPSHAP_THREADS"):
        _thread_budget()


def test_thread_budget_reads_positive_integers(monkeypatch):
    monkeypatch.delenv("IMPSHAP_THREADS", raising=False)
    assert _thread_budget() == 1
    monkeypatch.setenv("IMPSHAP_THREADS", "2")
    assert _thread_budget() == 2
