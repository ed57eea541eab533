"""The lock-step tree builder against the recursive reference in
oracles.py, and digests of seeded reports frozen before the memo existed.

Property tests grow several trees per build on random datasets that mix
categorical and numeric features, so that node states are met again in
later trees and at other depths.  The reference draws from one
`random.Random(seed + i)` per tree, the builder from the table of the same
streams; trees must be equal and each tree must have read as many words as
its `Random` did.  Some datasets weight rows by zero or by inexact
fractions, so that sums taken in another row order would show in the last
bits.  Examples are drawn deterministically, so every run checks the same
builds.
"""

import hashlib
import json
import random
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import grow_trees_recursive

from impshap import cli
from impshap import tree as tree_module
from impshap.data import (
    CATEGORICAL, NUMERIC, ColumnMeta, Dataset, led_population, write_csv,
)
from impshap.errors import EmptyDataset, NoAdmissibleFeature, TableTooLarge
from impshap.forest import build_forest, predict_proba
from impshap.impurity import KINDS
from impshap.tree import NODE_ARRAYS, TreeStreams, _BuildContext, grow_trees

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


def seeded(seed, n_trees):
    """The reference builder's RNGs: tree i draws from Random(seed + i)."""
    return [random.Random(seed + i) for i in range(n_trees)]


def streams(seed, n_trees):
    """The builder's table of the same streams as `seeded`."""
    return TreeStreams(range(seed, seed + n_trees))


def assert_same_words(got, rngs):
    """Tree i of the table read as many words as rngs[i] drew: Random(seed)
    advanced by that many words is in rngs[i]'s state."""
    assert len(got) == len(rngs)
    for seed, used, rng in zip(got.seeds, got.used.tolist(), rngs):
        fresh = random.Random(seed)
        fresh.getrandbits(32 * used)
        assert fresh.getstate() == rng.getstate()


def build(builder, ds, k, impurity, rngs, seed):
    """The packed trees, or the type of the error the build raised."""
    try:
        return builder(ds, k, impurity, rngs, seed)
    except (EmptyDataset, NoAdmissibleFeature) as exc:
        return type(exc)


def assert_same_trees(got, want):
    if isinstance(want, type):
        assert got is want
        return
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
    """Same packed arrays, same errors, as many words read per tree as
    its RNG drew, and every stored node reached by training rows, though
    the top category of features of arity 3 or more is never seen."""
    rng = np.random.default_rng(seed)
    data = random_rows(rng, kinds, n_classes, n_rows)
    weights = rng.choice(WEIGHTS, n_rows) if weighted else None
    ds = Dataset(columns(kinds, n_classes), data, weights=weights)
    k = min(k, len(kinds))
    want_rngs, got_streams = seeded(seed, n_trees), streams(seed, n_trees)
    want = build(grow_trees_recursive, ds, k, impurity, want_rngs, seed)
    got = build(grow_trees, ds, k, impurity, got_streams, seed)
    assert_same_trees(got, want)
    assert_same_words(got_streams, want_rngs)
    if not isinstance(got, type):
        assert (got.mass > 0).all()


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
@given(seed=st.integers(0, 2**32 - 1),
       p_k=st.one_of(st.tuples(st.integers(22, 30), st.integers(2, 5)),
                     st.tuples(st.integers(22, 85), st.just(6))),
       n_rows=st.integers(2, 24), n_trees=st.integers(2, 6))
def test_wide_draws_match_recursive_builder(seed, p_k, n_rows, n_trees):
    """Past 21 admissible features `Random.sample` takes its set path at
    k = 2..5; at k = 6 its pool path serves up to 85.  Both draw at the
    root here: same packed arrays and as many words read per tree."""
    p, k = p_k
    ds = wide_rows(seed, p, n_rows)
    want_rngs, got_streams = seeded(seed, n_trees), streams(seed, n_trees)
    want = build(grow_trees_recursive, ds, k, "entropy", want_rngs, seed)
    got = build(grow_trees, ds, k, "entropy", got_streams, seed)
    assert_same_trees(got, want)
    assert_same_words(got_streams, want_rngs)


@PROPERTY
@given(**DATASETS)
def test_size_bound_holds(seed, kinds, n_rows, n_classes, weighted, k, n_trees,
                          impurity):
    """Every build fits the bound `check_size` refuses by: with a budget one
    byte under the packed arrays' size, the same forest is refused."""
    rng = np.random.default_rng(seed)
    data = random_rows(rng, kinds, n_classes, n_rows)
    weights = rng.choice(WEIGHTS, n_rows) if weighted else None
    try:
        ctx = _BuildContext(Dataset(columns(kinds, n_classes), data, weights=weights))
    except EmptyDataset:
        return
    trees = build(grow_trees, ctx, min(k, len(kinds)), impurity,
                  streams(seed, n_trees), seed)
    if isinstance(trees, type):
        return
    size = sum(getattr(trees, name).nbytes for name in NODE_ARRAYS)
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
@pytest.mark.parametrize("grow, rngs",
                         [(grow_trees, streams), (grow_trees_recursive, seeded)],
                         ids=["memo", "recursive"])
def test_threshold_separates_its_training_rows(grow, rngs, values):
    """Where the midpoint of two values is not below the upper one, the cut
    is at the lower one, so each training row reaches its own leaf."""
    ds = Dataset(columns([0], 2), [np.array(values), np.array([0, 1])])
    packed = grow(ds, 1, KINDS[0], rngs(0, 1), 0)
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
    want_streams, got_streams = streams(seed, n_trees), streams(seed, n_trees)
    want = build(grow_trees, base, k, impurity, want_streams, seed)
    got = build(grow_trees, padded, k, impurity, got_streams, seed)
    assert_same_trees(got, want)
    assert np.array_equal(got_streams.used, want_streams.used)


# sha256 of seeded reports, computed with the recursive builder; any change
# to the trees, the RNG use or the scores shows here.  `results` is hashed
# as json.dumps(results, sort_keys=True); the local report is whole stdout,
# so a version bump also changes that digest.
GLOBAL_SWEEP_DIGESTS = {
    "entropy": "83d3c9b44df7e46340392e2b69a0bdb0d086a4f2adb220857bfa840bd2cd8bcc",
    "gini": "8bcfc995a2ad85d2e17a3e807401ccc4b75b664151e5d5f16af64f9eb5cc69b9",
    "variance": "176276eb58bb036e2c5d8e4af89b906ee4189201c23b079597d504cfd63b5a91",
}
LOCAL_REPORT_DIGEST = "7bf201dfc943f9f2bc5bd5e28ebb3ec97918dbe024dd6d36b6f86919d9d563b3"
# whole stdout of a compare sweep, computed when every K re-seeded its
# trees' RNG streams
COMPARE_SWEEP_DIGEST = "f41571c4845bfb0f221ff94f969c4bcba34c772a5f3fdcd5dc56e3bdff9cc4b8"
# whole stdout on 500 sampled LED rows (10 distinct ones), computed when
# every row was walked down every tree
REPEATED_ROWS_DIGESTS = {
    "local": "2bec3439cf75228ed3b99984451009bd3750258701bbf01c95956711c67252ef",
    "saabas": "53ce51664e4d73bbf0a2e89a4fc2922af3ae7b6a410ab3f09546921e7db91ad2",
    "compare": "4a9422b5f2fdff014ae08040afe28b0957535f5cc36dc241bb3a105d2c5a4233",
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
    ],
    ids=list(REPEATED_ROWS_DIGESTS),
)
def test_repeated_rows_reports_are_frozen(capsys, tmp_path, monkeypatch, argv):
    """Scored rows repeat here, unlike in `led`; the command line is part of
    the report, so the file is named relative to the working directory."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(["gen-data", "--data", "led-sampled", "--n", "500",
                     "--seed", "1", "--out", "rows.csv"]) == 0
    code = cli.main(argv[:1] + ["--data", "rows.csv"] + argv[1:])
    assert code == 0
    assert sha256(capsys.readouterr().out) == REPEATED_ROWS_DIGESTS[argv[0]]


UNWEIGHTED = {name: s for name, s in DATASETS.items() if name != "weighted"}


@PROPERTY
@given(n_distinct=st.integers(1, 12), **UNWEIGHTED)
def test_repeated_rows_grow_as_their_counts(seed, kinds, n_rows, n_classes, k,
                                            n_trees, impurity, n_distinct):
    """An unweighted dataset with repeated rows, its distinct rows once each
    weighted by their multiplicities, and a row permutation of it grow the
    same trees and leave every RNG in the same state: every class count is
    a sum of integers, exact in any order."""
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
    tables = [streams(seed, n_trees) for _ in datasets]
    got = [build(grow_trees, ds, k, impurity, t, seed) for ds, t in zip(datasets, tables)]
    for packed in got[1:]:
        if not isinstance(packed, type):
            packed = replace(packed, n_train=got[0].n_train)
        assert_same_trees(packed, got[0])
    assert all(np.array_equal(t.used, tables[0].used) for t in tables[1:])
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


# whole stdout on `repeated_mixed_rows(17)`, computed when every row was
# grown and walked one at a time
REPEATED_MIXED_DIGESTS = {
    "global": "3549bb985ba580b68de3a86ea582c222424cf206bee1c24e95db2d431b843a71",
    "local": "1a3a529922f0336dce9b10b4baa566be17b0268985ad53705e839c6ad645575c",
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


def test_growth_peak_memory():
    rng = np.random.default_rng(5)
    n_rows, n_features = 300, 5
    data = [rng.normal(size=n_rows) for _ in range(n_features)]
    data.append(rng.integers(0, 3, n_rows))
    ds = Dataset(columns((0,) * n_features, 3), data)
    grow_trees(ds, 3, "entropy", streams(1, 1), 1)  # first-call allocations
    tracemalloc.start()
    try:
        grow_trees(ds, 3, "entropy", streams(1, 3), 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.10 * GROWTH_PEAK_BYTES, peak
