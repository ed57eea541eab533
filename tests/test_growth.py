"""The lock-step tree builder against the recursive reference in
oracles.py, the hash-key draws both use, and digests of seeded reports
computed with the recursive builder.

Property tests grow several trees per build on random datasets that mix
categorical and numeric features, so that node states are met again in
later trees and at other depths.  Both builders draw from the same tree
keys (`tree.tree_keys`), the reference through its own SplitMix64 on
Python ints, and their packed arrays must be equal.  Some datasets weight
rows by zero or by inexact fractions, so that sums taken in another row
order would show in the last bits.  Examples are drawn deterministically,
so every run checks the same builds.
"""

import hashlib
import itertools
import json
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    GAMMA, draw_by_keys, grow_trees_recursive, laid_out, splitmix64, structure_keys,
)

from impshap import cli
from impshap import tree as tree_module
from impshap.data import (
    CATEGORICAL, NUMERIC, ColumnMeta, Dataset, led_population, write_csv,
)
from impshap.errors import EmptyDataset, NoAdmissibleFeature, TableTooLarge
from impshap.forest import build_forest, build_forests, predict_proba
from impshap.impurity import KINDS
from impshap.tree import (
    NODE_ARRAYS, StateGraph, _BuildContext, draw, grow_trees, mix64, tree_keys,
)

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
NUMERIC_VALUES = (0.0, 0.5, 1.0, 2.5, 3.0)
WEIGHTS = (0.0, 0.1, 0.3, 0.7, 1.0, 2.0)


def columns(kinds, n_classes):
    """kinds[m] is feature m's arity, 0 when numeric."""
    meta = [ColumnMeta(f"c{m}", CATEGORICAL, a) if a else ColumnMeta(f"n{m}", NUMERIC)
            for m, a in enumerate(kinds)]
    return meta + [ColumnMeta("y", CATEGORICAL, n_classes)]


def random_rows(rng, kinds, n_classes, n_rows, top=False):
    """Rows drawn from `rng`; a categorical feature of arity a >= 3 shows its
    top category only when `top` is set."""
    data = []
    for a in kinds:
        if a:
            data.append(rng.integers(0, a if top or a < 3 else a - 1, n_rows))
        else:
            data.append(rng.choice(NUMERIC_VALUES, n_rows))
    data.append(rng.integers(0, n_classes, n_rows))
    return data


def grow(ds, k, impurity, keys, seed):
    """`grow_trees` on a fresh state graph, in the reference's signature."""
    return grow_trees(StateGraph(ds, impurity), k, keys, seed)


def build(builder, ds, k, impurity, n_trees, seed):
    """The packed trees of `n_trees` trees from master `seed`, or the type
    of the error the build raised."""
    try:
        return builder(ds, k, impurity, tree_keys(seed, n_trees), seed)
    except (EmptyDataset, NoAdmissibleFeature) as exc:
        return type(exc)


def assert_same_trees(got, want):
    """The same trees in the same order, laid out tree by tree."""
    if isinstance(want, type):
        assert got is want
        return
    got, want = laid_out(got), laid_out(want)
    for name in NODE_ARRAYS + ("offsets",):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b, equal_nan=name == "threshold"), name
    assert (got.n_train, got.seed) == (want.n_train, want.seed)


DATASETS = dict(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from([0, 0, 2, 3, 4]), min_size=1, max_size=4),
    n_rows=st.integers(1, 40),
    n_classes=st.integers(2, 3),
    weighted=st.booleans(),
    k=st.integers(1, 4),
    n_trees=st.integers(2, 12),
    impurity=st.sampled_from(KINDS),
)


@PROPERTY
@given(**DATASETS)
def test_memo_builder_matches_recursive_builder(seed, kinds, n_rows, n_classes,
                                                weighted, k, n_trees, impurity):
    """Same packed arrays, same errors, and every stored node reached by
    training rows, though the top category of features of arity 3 or more
    is never seen."""
    rng = np.random.default_rng(seed)
    data = random_rows(rng, kinds, n_classes, n_rows)
    weights = rng.choice(WEIGHTS, n_rows) if weighted else None
    ds = Dataset(columns(kinds, n_classes), data, weights=weights)
    k = min(k, len(kinds))
    want = build(grow_trees_recursive, ds, k, impurity, n_trees, seed)
    got = build(grow, ds, k, impurity, n_trees, seed)
    assert_same_trees(got, want)
    if not isinstance(got, type):
        assert (got.mass > 0).all()


UNSWEPT = {name: s for name, s in DATASETS.items() if name != "k"}


@PROPERTY
@given(**UNSWEPT)
def test_every_k_on_a_shared_graph_matches_fresh_builds(seed, kinds, n_rows, n_classes,
                                                       weighted, n_trees, impurity):
    """Each K from 1 to p grows the same packed arrays on one graph shared
    by every K, swept up or down, as on a fresh graph and as the recursive
    builder; at K = p every state is settled, so whole trees are
    templates.  After each K, every state's `least` is the most admissible
    features in its template where it has one, whose states are all kept,
    at least its own elsewhere, and 0 at a leaf."""
    rng = np.random.default_rng(seed)
    data = random_rows(rng, kinds, n_classes, n_rows)
    weights = rng.choice(WEIGHTS, n_rows) if weighted else None
    ds = Dataset(columns(kinds, n_classes), data, weights=weights)
    ks = range(1, len(kinds) + 1)
    want = {k: build(grow_trees_recursive, ds, k, impurity, n_trees, seed) for k in ks}
    for k in ks:
        assert_same_trees(build(grow, ds, k, impurity, n_trees, seed), want[k])
    if isinstance(want[1], type):
        return
    keys = tree_keys(seed, n_trees)
    for order in (ks, ks[::-1]):
        graph = StateGraph(ds, impurity)
        for k in order:
            assert_same_trees(grow_trees(graph, k, keys, seed), want[k])
            n = len(graph.rows)
            live = np.array([key is not None for key in graph.rows])
            least, size, n_adm = graph.least[:n], graph.size[:n], graph.n_adm[:n]
            for s in np.flatnonzero(size > 1):
                states = graph.pool[graph.first[s]:graph.first[s] + size[s], 0]
                assert least[s] == n_adm[states].max()
                assert graph.kept[states].all()
            bare = live & graph.kept[:n] & (size == 0)
            assert (least[bare] >= n_adm[bare]).all()
            assert (least[live & (n_adm == 0)] == 0).all()


def code_digits(p: int) -> int:
    """Digits of base p + 1 that always fit in a CODE_BITS-bit code."""
    fits = 0
    while (p + 1) ** (fits + 1) <= 1 << tree_module.CODE_BITS:
        fits += 1
    return fits


@PROPERTY
@given(**dict(UNSWEPT, n_trees=st.integers(2, 30)))
def test_each_distinct_tree_is_stored_once(seed, kinds, n_rows, n_classes, weighted,
                                           n_trees, impurity):
    """At every K the stored trees, laid out tree by tree, are the
    recursive builder's.  Where no tree splits more often than digits fit
    in a winner code, no two stored trees are alike, so each distinct tree
    is stored once; at K = p no node draws, and one tree is stored."""
    rng = np.random.default_rng(seed)
    data = random_rows(rng, kinds, n_classes, n_rows)
    weights = rng.choice(WEIGHTS, n_rows) if weighted else None
    ds = Dataset(columns(kinds, n_classes), data, weights=weights)
    p = len(kinds)
    for k in range(1, p + 1):
        got = build(grow, ds, k, impurity, n_trees, seed)
        assert_same_trees(got, build(grow_trees_recursive, ds, k, impurity, n_trees, seed))
        if isinstance(got, type):
            return
        flat = laid_out(got)
        splits = np.add.reduceat(flat.feature >= 0, flat.offsets[:-1])
        distinct = len(set(structure_keys(got)))
        if splits.max() <= code_digits(p):
            assert got.n_stored == distinct
        assert distinct <= got.n_stored <= n_trees
        assert got.n_stored == 1 or k < p


# stored trees of 600-tree LED forests, seeds 0-2: 560-569, 228-238, 47-50,
# 11-12, 4, 2 and 1 at K = 1..7
LED_STORED_BOUNDS = {3: 50, 4: 12, 5: 4, 6: 2, 7: 1}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_led_forests_store_each_distinct_tree_once(seed):
    forests = build_forests(led_population(), range(1, 8), 600, seed=seed)
    for k, forest in zip(range(1, 8), forests):
        assert forest.n_trees == 600
        assert forest.n_stored == len(set(structure_keys(forest)))
        assert forest.n_stored <= LED_STORED_BOUNDS.get(k, 600)


def test_overflowing_codes_store_their_trees_alone(monkeypatch):
    """With 6-bit codes two base-8 digits fit, so on LED a tree that draws
    a third time is stored alone: more trees are stored at low K, trees
    that draw at most twice still merge, and every K grows the same trees."""
    want = list(build_forests(led_population(), range(1, 8), 200, seed=3))
    monkeypatch.setattr(tree_module, "CODE_BITS", 6)
    got = list(build_forests(led_population(), range(1, 8), 200, seed=3))
    for a, b in zip(got, want):
        assert_same_trees(a, b)
        assert b.n_stored <= a.n_stored <= 200
    assert got[2].n_stored > want[2].n_stored and got[6].n_stored == 1


def wide_rows(seed, p, n_rows):
    """Rows of p binary features and two classes; the first two rows are all
    0 and all 1, of classes 0 and 1, so every feature is admissible at the
    root."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, (n_rows, p))
    y = rng.integers(0, 2, n_rows)
    x[0], x[1], y[0], y[1] = 0, 1, 0, 1
    return Dataset(columns([2] * p, 2), [*x.T, y])


@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(20, 90), k=st.integers(1, 6),
       n_rows=st.integers(2, 24), n_trees=st.integers(2, 6))
def test_wide_draws_match_recursive_builder(seed, p, k, n_rows, n_trees):
    """Up to 90 admissible features, past 64, draw at the root here: same
    packed arrays."""
    ds = wide_rows(seed, p, n_rows)
    want = build(grow_trees_recursive, ds, k, "entropy", n_trees, seed)
    got = build(grow, ds, k, "entropy", n_trees, seed)
    assert_same_trees(got, want)


@PROPERTY
@given(**DATASETS)
def test_size_bound_holds(seed, kinds, n_rows, n_classes, weighted, k, n_trees,
                          impurity):
    """Every build fits the bound `check_size` refuses by: with a budget one
    byte under the packed arrays' size, the same forest is refused."""
    rng = np.random.default_rng(seed)
    data = random_rows(rng, kinds, n_classes, n_rows)
    weights = rng.choice(WEIGHTS, n_rows) if weighted else None
    ds = Dataset(columns(kinds, n_classes), data, weights=weights)
    try:
        ctx = _BuildContext(ds)
    except EmptyDataset:
        return
    trees = build(grow, ds, min(k, len(kinds)), impurity, n_trees, seed)
    if isinstance(trees, type):
        return
    size = sum(getattr(laid_out(trees), name).nbytes for name in NODE_ARRAYS)
    ctx.check_size(n_trees)
    with mock.patch.object(tree_module, "GROWTH_BUDGET", size - 1):
        with pytest.raises(TableTooLarge):
            ctx.check_size(n_trees)


@pytest.mark.parametrize(
    "values",
    [(1.0, np.inf), (-np.inf, np.inf), (1e308, 1.7e308), (-1.7e308, -1e308),
     (1 + 2**-52, 1 + 2**-51), (5e-324, 1e-323)],
    ids=["inf", "both-inf", "overflow", "negative-overflow", "adjacent",
         "subnormal-adjacent"],
)
@pytest.mark.parametrize("grow", [grow, grow_trees_recursive], ids=["memo", "recursive"])
def test_threshold_separates_its_training_rows(grow, values):
    """Where the midpoint of two values is not below the upper one, the cut
    is at the lower one, so each training row reaches its own leaf."""
    ds = Dataset(columns([0], 2), [np.array(values), np.array([0, 1])])
    packed = grow(ds, 1, KINDS[0], tree_keys(0, 1), 0)
    v, nxt = values
    assert v <= packed.threshold[0] < nxt
    proba = predict_proba(packed, np.array(values)[:, None])
    assert proba.argmax(axis=1).tolist() == [0, 1]


@PROPERTY
@given(extra=st.integers(1, 10), **DATASETS)
def test_zero_weight_rows_change_nothing(seed, kinds, n_rows, n_classes, weighted,
                                         k, n_trees, impurity, extra):
    """Appending zero-weight rows, some with categories no other row has,
    leaves every packed array and n_train as they were."""
    rng = np.random.default_rng(seed)
    data = random_rows(rng, kinds, n_classes, n_rows)
    weights = rng.choice(WEIGHTS[1:], n_rows) if weighted else None
    base = Dataset(columns(kinds, n_classes), data, weights=weights)
    more = random_rows(rng, kinds, n_classes, extra, top=True)
    padded = Dataset(
        columns(kinds, n_classes),
        [np.concatenate([a, b]) for a, b in zip(data, more)],
        weights=np.concatenate([np.ones(n_rows) if weights is None else weights,
                                np.zeros(extra)]),
    )
    k = min(k, len(kinds))
    want = build(grow, base, k, impurity, n_trees, seed)
    got = build(grow, padded, k, impurity, n_trees, seed)
    assert_same_trees(got, want)


def test_splitmix64_known_answer():
    """SplitMix64's first output at state 0 is mix64(GAMMA), on arrays and
    on the reference's Python ints alike."""
    assert int(mix64(np.array([GAMMA], dtype=np.uint64))[0]) == 0xE220A8397B1DCDAF
    assert splitmix64(0, 1) == 0xE220A8397B1DCDAF


@pytest.mark.parametrize("seed", [0, 1, -1, 2**64, 2**64 + 1, 10**30])
def test_tree_keys_equal_python_ints(seed):
    """Tree i's key is output i + 1 of SplitMix64 seeded with the first 8
    bytes (little-endian) of sha256 of the seed's text, mixed once more."""
    digest = hashlib.sha256(str(seed).encode()).digest()
    master = int.from_bytes(digest[:8], "little")
    want = [splitmix64(splitmix64(master, i + 1), 0) for i in range(50)]
    assert tree_keys(seed, 50).tolist() == want


def test_seeds_grow_different_forests(led_ds):
    """0 and 2^64 are equal mod 2^64, and -1 is 2^64 - 1 there; each seed
    gets its own master key and so its own trees."""
    forests = [build_forest(led_ds, 1, 20, seed=s) for s in (0, -1, 2**64)]
    for a, b in itertools.combinations(forests, 2):
        assert not np.array_equal(a.feature, b.feature)


# chi-square of the 15 2-subsets of 6 slots over 200 trees x 100 steps of
# seed 0, measured at 17.1 (14 degrees of freedom, mean 14); the bound is
# the 0.999 quantile
SUBSET_CHI2_BOUND = 36.12


def test_draws_are_uniform_subsets():
    """Node keys of consecutive trees and steps draw each k-subset of the
    admissible slots about equally often."""
    n, k, n_trees, n_steps = 6, 2, 200, 100
    keys = tree_keys(0, n_trees)
    adm = np.tile(np.arange(n, dtype=np.int32), (n_trees, 1))
    counts = dict.fromkeys(itertools.combinations(range(n), k), 0)
    for step in range(n_steps):
        for row in np.sort(draw(keys, step, adm, np.full(n_trees, n), k), axis=1):
            counts[tuple(row.tolist())] += 1
    observed = np.array(list(counts.values()))
    expected = n_trees * n_steps / len(counts)
    assert ((observed - expected) ** 2 / expected).sum() < SUBSET_CHI2_BOUND


def test_draws_past_64_features():
    """Slots past 64 draw as the reference's (key, slot) sort does, and
    2000 roots over 70 admissible features draw every one of them."""
    keys = tree_keys(3, 40)
    rng = np.random.default_rng(3)
    n = rng.integers(70, 101, 40)
    adm = np.full((40, 100), -1, dtype=np.int32)
    for e, m in enumerate(n.tolist()):
        adm[e, :m] = np.sort(rng.choice(120, m, replace=False))
    for k in (1, 3, 7):
        got = np.sort(draw(keys, 5, adm, n, k), axis=1).tolist()
        assert got == [draw_by_keys(int(key), 5, adm[e, :m].tolist(), k)
                       for e, (key, m) in enumerate(zip(keys, n.tolist()))]
    forest = build_forest(wide_rows(1, 70, 8), 1, 2000, seed=1)
    assert set(forest.feature[forest.offsets[:-1]].tolist()) == set(range(70))


# sha256 of seeded reports, computed with the recursive builder when trees
# first drew from hash keys; any change to the trees, the draws or the
# scores shows here.  `results` is hashed as json.dumps(results,
# sort_keys=True); the local report is whole stdout, so a version bump also
# changes that digest.
GLOBAL_SWEEP_DIGESTS = {
    "entropy": "47c976684e1fcaf6047ebc510cc2227218f6c0e2c31bb096ab09d9ea53c4eb04",
    "gini": "1b99bcff7de7a9f52a4d9a2b993e634d542f08ecbdd3e01dc1940a8ac676c882",
    "variance": "cc62d6a84be7673ea3d864caafc5de35d89bf43f6050ff5625b7f1ad2161d208",
}
LOCAL_REPORT_DIGEST = "aa4ddd3ccc2eab36f7ad85ebea5faeedb5000c99eb611bc7e0313b3247531289"
# whole stdout of a compare sweep
COMPARE_SWEEP_DIGEST = "186413a4a2257e86abd4561b7d1d8292675200c5a8ff92121b80d9fcfee23887"
# whole stdout on 500 sampled LED rows (10 distinct ones)
REPEATED_ROWS_DIGESTS = {
    "local": "0c87038a73396e98533be57d6d2f7bd7c54bc0b84cdfe3de2099649b86ba5edf",
    "saabas": "24227790ae680ea68f956ea647e933334f777d1b2ee8d2cfafb3b5001ceed0da",
    "compare": "50b14e89363281173dc22bd25eb44ee4eb80f17c88fd8b2506426dacb5ea6117",
    "local-csv": "d95c89c67c9f3a721430b79b5875b73e906699090e1ba5feed2008c8167c67d7",
    "compare-csv": "c4a3221cc7dea5634ab27a997b304e07cb6907e56f5d10652f8482973554cd23",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("impurity", KINDS)
def test_global_k_sweep_results_are_frozen(capsys, impurity):
    code = cli.main(["global", "--data", "led", "--k-sweep", "1..7", "--trees", "40",
                     "--seed", "3", "--impurity", impurity, "--format", "json"])
    assert code == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert sha256(json.dumps(results, sort_keys=True)) == GLOBAL_SWEEP_DIGESTS[impurity]


def test_compare_k_sweep_report_is_frozen(capsys):
    code = cli.main(["compare", "--data", "led", "--k-sweep", "1..3", "--trees", "20",
                     "--seed", "4", "--format", "json"])
    assert code == 0
    assert sha256(capsys.readouterr().out) == COMPARE_SWEEP_DIGEST


def test_local_report_is_frozen(capsys):
    code = cli.main(["local", "--data", "led", "--k", "2", "--trees", "30",
                     "--seed", "5", "--method", "local-mdi,saabas", "--format", "json"])
    assert code == 0
    assert sha256(capsys.readouterr().out) == LOCAL_REPORT_DIGEST


@pytest.mark.parametrize(
    "argv",
    [
        ["local", "--method", "local-mdi,saabas", "--k", "2", "--trees", "30",
         "--seed", "5", "--format", "json"],
        ["saabas", "--class-index", "3", "--format", "csv"],
        ["compare", "--k-sweep", "1..3", "--trees", "20", "--format", "json"],
        ["local", "--method", "local-mdi,saabas", "--k", "2", "--trees", "30",
         "--seed", "5", "--format", "csv"],
        ["compare", "--k-sweep", "1..3", "--trees", "20", "--format", "csv"],
    ],
    ids=list(REPEATED_ROWS_DIGESTS),
)
def test_repeated_rows_reports_are_frozen(capsys, tmp_path, monkeypatch, request, argv):
    """Scored rows repeat here, unlike in `led`; the command line is part of
    the report, so the file is named relative to the working directory.
    The CSV digests were taken while every score was still kept and
    written per instance, so they vouch for the per-distinct-row writers."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(["gen-data", "--data", "led-sampled", "--n", "500",
                     "--seed", "1", "--out", "rows.csv"]) == 0
    code = cli.main(argv[:1] + ["--data", "rows.csv"] + argv[1:])
    assert code == 0
    digest = REPEATED_ROWS_DIGESTS[request.node.callspec.id]
    assert sha256(capsys.readouterr().out) == digest


UNWEIGHTED = {name: s for name, s in DATASETS.items() if name != "weighted"}


@PROPERTY
@given(n_distinct=st.integers(1, 12), **UNWEIGHTED)
def test_repeated_rows_grow_as_their_counts(seed, kinds, n_rows, n_classes, k,
                                            n_trees, impurity, n_distinct):
    """An unweighted dataset with repeated rows, its distinct rows once each
    weighted by their multiplicities, and a row permutation of it grow the
    same trees: every class count is a sum of integers, exact in any
    order."""
    rng = np.random.default_rng(seed)
    pool = random_rows(rng, kinds, n_classes, n_distinct)
    data = [col[rng.integers(0, n_distinct, n_rows)] for col in pool]
    meta = columns(kinds, n_classes)
    # distinct rows in sorted order, not in order of first occurrence
    distinct, counts = np.unique(np.column_stack(data), axis=0, return_counts=True)
    perm = rng.permutation(n_rows)
    datasets = [
        Dataset(meta, data),
        Dataset(meta, list(distinct.T), weights=counts.astype(np.float64)),
        Dataset(meta, [col[perm] for col in data]),
    ]
    k = min(k, len(kinds))
    got = [build(grow, ds, k, impurity, n_trees, seed) for ds in datasets]
    for packed in got[1:]:
        if not isinstance(packed, type):
            packed = replace(packed, n_train=got[0].n_train)
        assert_same_trees(packed, got[0])
    if not isinstance(got[0], type):
        assert [p.n_train for p in got] == [n_rows, len(counts), n_rows]


def repeated_mixed_rows(seed, n_rows=400, n_distinct=30):
    """Rows drawn with repeats from a pool of `n_distinct`: two numeric
    features with tied values and two categorical ones, three classes."""
    rng = np.random.default_rng(seed)
    kinds = (0, 3, 0, 4)
    pool = random_rows(rng, kinds, 3, n_distinct, top=True)
    pool[2] = np.round(rng.normal(size=n_distinct), 1)
    pick = rng.integers(0, n_distinct, n_rows)
    return Dataset(columns(kinds, 3), [col[pick] for col in pool])


# whole stdout on `repeated_mixed_rows(17)`
REPEATED_MIXED_DIGESTS = {
    "global": "32054c97eabb7df25aacbc67200e32c3b1388b622c9d225d50621ebff8b14dab",
    "local": "fa783aab8842f2a3f944a5f7f4e3d2810227a4cdb3ac25397efcf61171fd8b39",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["global", "--k-sweep", "1..3", "--trees", "25", "--seed", "8",
         "--format", "json"],
        ["local", "--method", "local-mdi,saabas", "--k", "2", "--trees", "25",
         "--seed", "8", "--format", "json"],
    ],
    ids=list(REPEATED_MIXED_DIGESTS),
)
def test_repeated_mixed_rows_reports_are_frozen(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    write_csv(repeated_mixed_rows(17), "mixed.csv")
    code = cli.main(argv[:1] + ["--data", "mixed.csv"] + argv[1:])
    assert code == 0
    assert sha256(capsys.readouterr().out) == REPEATED_MIXED_DIGESTS[argv[0]]


# tracemalloc peak of the build below, in bytes, measured when every row
# was grown one at a time; growth may take at most 10% more
GROWTH_PEAK_BYTES = 190_084


# node states (impurity_from_counts calls) of a K=1, 600-tree build on the
# LED population, measured at 221-233 over seeds 1-3 when every state was
# keyed on its rows; keyed on their paths the same builds computed 1396-1452
LED_STATES_BOUND = 240


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_states_are_shared_by_their_rows(seed):
    """Paths that reach the same rows share one node state."""
    with mock.patch.object(tree_module, "impurity_from_counts",
                           wraps=tree_module.impurity_from_counts) as states:
        build_forest(led_population(), 1, 600, seed=seed)
    assert states.call_count <= LED_STATES_BOUND


def test_sweep_computes_each_led_state_once(capsys):
    """Every K of a sweep grows on one state graph: the LED population has
    67 reachable node states, and 7 x 600 trees compute no more."""
    with mock.patch.object(tree_module, "impurity_from_counts",
                           wraps=tree_module.impurity_from_counts) as states:
        code = cli.main(["global", "--data", "led", "--k-sweep", "1..7", "--trees", "600",
                         "--seed", "11", "--format", "json"])
    assert code == 0 and capsys.readouterr().err == ""
    assert states.call_count <= 67


# lock-step steps (`StateGraph._end_step` calls) of the sweep below,
# measured at 29-30 over seeds 1-8 once settled subtrees were written whole;
# a step for every node of the 19-node LED trees made 133
LED_SWEEP_STEPS_BOUND = 32


def count_steps():
    return mock.patch.object(StateGraph, "_end_step", autospec=True,
                             side_effect=StateGraph._end_step)


def test_sweep_grows_only_the_nodes_that_draw(capsys):
    """A LED sweep takes a step only where some tree has a node still to
    draw or to reach one; at K = 7 every LED tree is the settled root's
    template, one step for all 600."""
    with count_steps() as steps:
        code = cli.main(["global", "--data", "led", "--k-sweep", "1..7", "--trees", "600",
                         "--seed", "11", "--format", "json"])
    assert code == 0 and capsys.readouterr().err == ""
    assert steps.call_count <= LED_SWEEP_STEPS_BOUND
    with count_steps() as steps:
        forest = build_forest(led_population(), 7, 600, seed=11)
    assert steps.call_count == 1
    assert forest.n_stored == 1 and len(forest.feature) == 19
    assert (forest.tree_index == 0).all()


def test_sweep_lays_out_each_state_once():
    """A template copies the rows of each state below it that has its own
    template, and writes a leaf as it is, so a LED sweep walks each state
    it lays out once (it walked 198 times for 46 states when nested
    templates were laid out again), and grows the same trees."""
    with mock.patch.object(StateGraph, "_best_kids", autospec=True,
                           side_effect=StateGraph._best_kids) as kids:
        forests = list(build_forests(led_population(), range(1, 8), 600, seed=11))
    walked = [call.args[1] for call in kids.call_args_list]
    assert walked and len(walked) == len(set(walked))
    for k, forest in zip(range(1, 8), forests):
        assert_same_trees(forest, build(grow, led_population(), k, "entropy", 600, 11))


def test_growth_peak_memory():
    rng = np.random.default_rng(5)
    n_rows, n_features = 300, 5
    data = [rng.normal(size=n_rows) for _ in range(n_features)]
    data.append(rng.integers(0, 3, n_rows))
    ds = Dataset(columns((0,) * n_features, 3), data)
    grow(ds, 3, "entropy", tree_keys(1, 1), 1)  # first-call allocations
    tracemalloc.start()
    try:
        grow(ds, 3, "entropy", tree_keys(1, 3), 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.10 * GROWTH_PEAK_BYTES, peak
