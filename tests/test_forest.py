"""Forest construction and the three importance measures with their
linking identities."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from impshap import forest as forest_module
from impshap import tree as tree_module
from impshap.data import ColumnMeta, Dataset, builtin_dataset, led_population
from impshap.errors import TableTooLarge
from impshap.forest import (
    LOCAL_MDI,
    SAABAS,
    LocalImportanceMatrix,
    _average_ranks,
    build_forest,
    build_forests,
    correlation_report,
    global_mdi,
    local_mdi,
    predict_proba,
    saabas,
)
from impshap.tree import NODE_ARRAYS, PackedTrees, mdi_by_tree


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


def same_packed_arrays(a: PackedTrees, b: PackedTrees) -> bool:
    """The same trees, in the same order, however each forest stores them."""
    a, b = oracles.laid_out(a), oracles.laid_out(b)
    return all(np.array_equal(getattr(a, name), getattr(b, name),
                              equal_nan=name == "threshold")
               for name in NODE_ARRAYS + ("offsets",))


def test_single_tree_forest(led_ds):
    forest = build_forest(led_ds, k=1, n_trees=1, seed=3)
    assert np.array_equal(global_mdi(forest), mdi_by_tree(forest)[0])


def test_build_forest_returns_the_packed_trees(led_ds):
    """A forest is its packed trees, carrying the K, impurity kind and
    master seed it was grown with; `trees` and `n_trees` are what
    perfbench/tracing.py reads from it."""
    forest = build_forest(led_ds, k=3, n_trees=5, impurity="gini", seed=17)
    assert isinstance(forest, PackedTrees)
    assert (forest.seed, forest.k, forest.impurity_kind) == (17, 3, "gini")
    assert forest.n_trees == len(forest.trees) == 5


def test_tree_views_are_the_packed_slices(led_ds):
    """`PackedTrees.trees` holds one view per tree, stored or not; a view's
    ndarrays are exactly its stored tree's slices of the packed node
    arrays, so that counting nodes and array bytes over the views counts
    the nodes of every tree once, as if each tree were stored."""
    forest = build_forest(led_ds, k=3, n_trees=40, seed=4)
    assert forest.n_stored < forest.n_trees
    views = forest.trees
    assert len(views) == forest.n_trees
    assert sum(v.n_nodes for v in views) == len(oracles.laid_out(forest).feature)
    index = forest.tree_index
    for view, lo, hi in zip(views, forest.offsets[index], forest.offsets[index + 1]):
        arrays = {k: a for k, a in vars(view).items() if isinstance(a, np.ndarray)}
        assert sorted(arrays) == sorted(NODE_ARRAYS)
        for name, a in arrays.items():
            whole = getattr(forest, name)
            assert np.shares_memory(a, whole) and a.shape == whole[lo:hi].shape
            assert np.array_equal(a, whole[lo:hi], equal_nan=True)


def test_fortran_ordered_instances(led_ds):
    """Instances are keyed by the bytes of their rows, copied in C order:
    a transposed array, its C-ordered copy and a list of tuples score
    alike."""
    forest = build_forest(led_ds, k=2, n_trees=20, seed=1)
    fortran = np.array(led_ds.data[:-1], dtype=float).T
    assert not fortran.flags.c_contiguous
    inputs = [fortran, np.ascontiguousarray(fortran),
              [tuple(row) for row in fortran.tolist()]]
    for measure in (local_mdi, saabas):
        got = [measure(forest, x) for x in inputs]
        for other in got[1:]:
            assert np.array_equal(other.scores, got[0].scores)
            assert other.classes == got[0].classes
    proba = [predict_proba(forest, x) for x in inputs]
    assert all(np.array_equal(p, proba[0]) for p in proba[1:])


def test_table1_forest_reduces_to_single_tree():
    ds = builtin_dataset("table1-y1")
    forest = build_forest(ds, k=2, n_trees=25, seed=11)
    assert len(set(oracles.structure_keys(forest))) == forest.n_stored == 1
    assert global_mdi(forest) == pytest.approx([0.091, 0.180], abs=5e-4)
    forest2 = build_forest(builtin_dataset("table1-y2"), k=2, n_trees=25, seed=11)
    assert global_mdi(forest2) == pytest.approx([0.243, 0.016], abs=5e-4)


def test_seed_determinism(led_ds):
    a = build_forest(led_ds, k=1, n_trees=150, seed=7)
    b = build_forest(led_ds, k=1, n_trees=150, seed=7)
    assert np.array_equal(global_mdi(a), global_mdi(b))
    la = local_mdi(a, oracles.dataset_instances(led_ds))
    lb = local_mdi(b, oracles.dataset_instances(led_ds))
    assert np.array_equal(la.scores, lb.scores)


def test_parallel_matches_sequential(led_ds):
    seq = build_forest(led_ds, k=1, n_trees=64, seed=5, n_jobs=1)
    instances = oracles.dataset_instances(led_ds)
    for n_jobs in (2, 3):
        par = build_forest(led_ds, k=1, n_trees=64, seed=5, n_jobs=n_jobs)
        assert par.seed == seq.seed == 5
        assert np.array_equal(global_mdi(seq), global_mdi(par))
        assert oracles.structure_keys(seq) == oracles.structure_keys(par)
        assert np.array_equal(local_mdi(seq, instances).scores,
                              local_mdi(par, instances).scores)
        assert np.array_equal(saabas(seq, instances).scores,
                              saabas(par, instances).scores)
        assert np.array_equal(predict_proba(seq, instances),
                              predict_proba(par, instances))
    # a sweep in the pool grows every K from its tables, one per chunk
    sweep = list(build_forests(led_ds, [1, 3], 64, seed=5, n_jobs=2))
    for k, par in zip([1, 3], sweep):
        assert same_packed_arrays(par, build_forest(led_ds, k=k, n_trees=64, seed=5))
        assert (par.k, par.seed) == (k, 5)


def test_distinct_structures_regression(led_ds):
    # frozen when trees first drew from hash keys; guards the key plumbing
    forest = build_forest(led_ds, k=1, n_trees=1000, seed=0)
    assert len(set(oracles.structure_keys(forest))) == 894


def test_global_decomposes_over_training_instances(led_ds):
    """Global MDI is the training-set mean of local MDI, every K and
    impurity."""
    for ds in (led_ds, builtin_dataset("table1-y1")):
        instances = oracles.dataset_instances(ds)
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
        assert abs(total - oracles.efficiency_gap(forest)) < 1e-12
        # LED leaves are pure, so the total is the output entropy
        assert total == pytest.approx(np.log2(10), abs=1e-12)


def test_null_player_scores_exactly_zero():
    ds = led_with_noise()
    noise = 7
    for k in (1, 3, 8):
        forest = build_forest(ds, k=k, n_trees=120, seed=0)
        assert float(global_mdi(forest)[noise]) == 0.0
        lm = local_mdi(forest, oracles.dataset_instances(ds))
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
    instances = oracles.dataset_instances(led_ds)
    sb = saabas(forest, instances)
    proba = predict_proba(forest, instances)
    prior = forest.dist[0]
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
        saabas(forest, oracles.dataset_instances(led_ds), class_index=10)


def test_correlation_report_identity(led_ds):
    forest = build_forest(led_ds, k=1, n_trees=100, seed=0)
    lm = local_mdi(forest, oracles.dataset_instances(led_ds))
    rep = correlation_report(lm, lm)
    assert rep.summary["pearson"]["mean"] == pytest.approx(1.0, abs=1e-12)
    assert rep.summary["spearman"]["mean"] == pytest.approx(1.0, abs=1e-12)
    assert rep.n_undefined == 0


def test_correlation_report_constant_vectors(led_ds):
    forest = build_forest(led_ds, k=1, n_trees=30, seed=0)
    lm = local_mdi(forest, oracles.dataset_instances(led_ds))
    scores = lm.scores.copy()
    scores[0, :] = 0.0  # constant row: correlation undefined
    other = LocalImportanceMatrix(scores, LOCAL_MDI, lm.k, lm.impurity, lm.seed,
                                  inverse=np.arange(len(scores)))
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
@given(pair=score_matrix_pairs())
def test_correlation_report_matches_oracle(pair):
    a, b = pair
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = correlation_report(
            LocalImportanceMatrix(a, LOCAL_MDI, 1, "entropy", 0, inverse=np.arange(len(a))),
            LocalImportanceMatrix(b, SAABAS, 1, "entropy", 0, inverse=np.arange(len(b))),
        )
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
    lm = local_mdi(forest, oracles.dataset_instances(led_ds))
    sb = saabas(forest, oracles.dataset_instances(led_ds)[:5])
    with pytest.raises(ValueError):
        correlation_report(lm, sb)


def test_predict_proba_led(led_ds):
    forest = build_forest(led_ds, k=1, n_trees=50, seed=0)
    proba = predict_proba(forest, oracles.dataset_instances(led_ds))
    assert np.allclose(proba, np.eye(10))


def test_forest_validation(led_ds):
    with pytest.raises(ValueError):
        build_forest(led_ds, k=1, n_trees=0)
    forest = build_forest(led_ds, k=1, n_trees=3, seed=0)
    with pytest.raises(ValueError):
        local_mdi(forest, [(0, 1)])  # wrong width


def test_forest_size_is_checked_before_growth(led_ds, monkeypatch):
    """On the LED population the bound is exact: 19 nodes of 116 bytes per
    tree.  A forest one tree over the budget is refused before any grows."""
    forest = oracles.laid_out(build_forest(led_ds, k=1, n_trees=10, seed=0))
    size = sum(getattr(forest, name).nbytes for name in NODE_ARRAYS)
    assert size == 10 * 19 * 116
    monkeypatch.setattr(tree_module, "GROWTH_BUDGET", size)
    assert build_forest(led_ds, k=1, n_trees=10, seed=0).n_trees == 10
    monkeypatch.setattr(forest_module, "grow_trees", None)  # growth would raise
    with pytest.raises(TableTooLarge, match="11 trees of up to 19 nodes x 116"):
        build_forest(led_ds, k=1, n_trees=11, seed=0)


def test_sweep_checks_the_size_first_and_grows_each_k_when_asked(led_ds, monkeypatch):
    """A sweep over the budget is refused before any key is made; each K
    of a sweep has the packed arrays of that K built alone, though every K
    grows from one key array on one state graph; and a K's trees grow only
    when its forest is asked for."""
    with monkeypatch.context() as patch:
        patch.setattr(tree_module, "GROWTH_BUDGET", 10 * 19 * 116)
        patch.setattr(forest_module, "tree_keys", None)  # making keys would raise
        with pytest.raises(TableTooLarge):
            next(build_forests(led_ds, [1], 11, seed=4))
    ks = [1, 2, 1]
    alone = [build_forest(led_ds, k=k, n_trees=10, seed=4) for k in ks]
    grown = []

    def grow_trees(graph, k, keys, seed):
        grown.append(k)
        return tree_module.grow_trees(graph, k, keys, seed)

    monkeypatch.setattr(forest_module, "grow_trees", grow_trees)
    sweep = build_forests(led_ds, ks, 10, seed=4)
    assert grown == []
    for i, want in enumerate(alone):
        got = next(sweep)
        assert grown == ks[:i + 1]
        assert got.k == want.k and same_packed_arrays(got, want)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 6).flatmap(
        lambda p: st.lists(
            st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0, 1e-300, 7.5]),
                     min_size=p, max_size=p),
            min_size=1, max_size=8,
        )
    )
)
def test_sorted_ranks_equal_pairwise_ranks(rows):
    """Rows drawn from six values, so most have ties: the ranks from one
    argsort per row are the pairwise counts' ranks, bit for bit."""
    a = np.array(rows)
    assert np.array_equal(_average_ranks(a), oracles.average_ranks_pairwise(a))
