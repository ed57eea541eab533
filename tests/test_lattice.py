"""The subset-lattice walk against the per-subset references in oracles.py.

Property tests run over random joints with up to six inputs, varied
arities and zero cells, and all three impurities.  Examples are drawn
deterministically so that every run checks the same joints.
"""

import hashlib
import json
import tracemalloc

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
    subset_lattice_dfs,
)

from impshap import cli
from impshap.data import example_tables, random_joint, write_joint_csv
from impshap.errors import ImpshapError, TableTooLarge
from impshap import impurity
from impshap.impurity import KINDS, subset_lattice
from impshap.population import pop_global_mdi, pop_local_mdi_batch
from impshap.relevance import local_irrelevance
from impshap.tu_game import TUGame, lattice_games, shapley_exact

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


# up to 5^7 * 4 extended cells, so small budgets split the walk into many blocks
WIDE_JOINTS = st.builds(
    random_joint,
    seed=st.integers(0, 2**16),
    p=st.integers(1, 7),
    max_arity=st.integers(2, 4),
    zero_fraction=st.sampled_from([0.0, 0.25, 0.5]),
    append_irrelevant=st.just(False),
)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(j=WIDE_JOINTS, kind=KIND, with_instances=st.booleans())
def test_lattice_does_not_depend_on_chunk_size(j, kind, with_instances):
    """Blocks of one subset (budget 1), partial blocks and whole lattices
    all give the tables of the subset-by-subset walk, bit for bit; the
    block plans every walk shares are read-only."""
    positive = j.positive_instances()
    xs = positive[::max(1, len(positive) // 40)] if with_instances else None
    want = subset_lattice_dfs(j, kind, xs)
    for chunk in (1, 8, 64, impurity.LATTICE_CHUNK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(impurity, "LATTICE_CHUNK", chunk)
            got = subset_lattice(j, kind, xs)
        for field in ("mean", "prob", "at", "cond", "instances"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), (chunk, field)
    order, rank, by_count, _, removed = impurity._block_plan(tuple(j.input_arities[:2]))
    assert not any(a.flags.writeable for a in (order, rank, by_count, removed))
    for mask in range(1 << j.p):
        want_mean = mean_impurity(j.table, mask, kind)
        assert got.mean[mask] == pytest.approx(want_mean, abs=1e-12)
        for k, x in enumerate(xs or ()):
            want_cond = cond_at(j.table, x, mask)
            assert np.abs(got.cond[k, mask] - want_cond).max() <= 1e-12
            assert got.at[k, mask] == pytest.approx(impurity_of(want_cond, kind), abs=1e-12)


def test_walk_memory_is_one_chain_and_one_block():
    """The walk holds one chain of marginals (under twice the joint), one
    block of at most LATTICE_CHUNK cells (or one node's table, if larger)
    with its scoring arrays, and its own tables; a block kept alive across
    the walk would pile up one per level.  The instance tables are filled
    a slice of instances at a time, so that scratch is block-sized too:
    all 1024 instances of a full-support p = 10 joint (24 MiB of tables)
    add nothing else.  The bound follows LATTICE_CHUNK: eight blocks of
    2^15 cells are 2 MiB."""
    for j, every_instance in (
        (random_joint(12, p=12, max_arity=2), False),
        (random_joint(3, p=10, max_arity=2, zero_fraction=0.0), True),
    ):
        xs = j.positive_instances() if every_instance else None
        subset_lattice(j, "entropy", xs)  # warm numpy's own caches
        tracemalloc.start()
        try:
            lattice = subset_lattice(j, "entropy", xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tables = sum(getattr(lattice, name).nbytes
                     for name in ("mean", "instances", "prob", "at", "cond"))
        block = max(impurity.LATTICE_CHUNK, j.table.size) * 8
        # the extended block, its reordered copy, _context_impurities'
        # conditionals, log terms and row sums, and one slice's gathers:
        # under eight block-sized arrays
        bound = tables + 2 * j.table.nbytes + 8 * block
        assert peak < bound, (j.p, peak, bound)


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
    global_game, local = lattice_games(subset_lattice(j, kind, [x]))
    local_game = TUGame(local[0])
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


# sha256 of json.dumps(results, sort_keys=True) of `--format json` reports,
# taken when every subset was scored on its own, keyed by (command, data,
# impurity, with three --instance flags).  "wide" is a 12-input joint whose
# walk sums about 3^12 * 2 marginal cells, so it spans many scoring chunks.
# |Y| = 2 in all.
POPULATION_DIGESTS = {
    ("pop-mdi", "wide", "entropy", False):
        "b7317e1762020f92b2456c24db3c583a32142b053a3ace5f4ec08948f1396b8e",
    ("pop-mdi", "wide", "gini", False):
        "cbf3b4ec5a3ec4323d36de871d7e6b1f8f27c09a7e658633cb9f4dcdf8444f69",
    ("pop-mdi", "wide", "variance", False):
        "274f38e67f8d0f8aeb824a5f61d463acd70305430bbe28e41971390bbb07f08f",
    ("pop-mdi", "wide", "gini", True):
        "de15e116ed3ffa8aedac5acc00a0a605c3bb5772363bf59b821564272aba5aa3",
    ("shapley", "wide", "entropy", False):
        "5567235869737ce6ec67faab2d17374344724ce008ca98f18aa1a0d482d52cbf",
    ("shapley", "wide", "variance", False):
        "8650d28c13395d75e513cfa5be0e76a068a3507fc5e0d6d90ad1c4b20fe2a5f2",
    ("shapley", "wide", "entropy", True):
        "f7f2b74e49a133caafd44c0b432a896fcb0c5009442e90b5ecc93a164321cce1",
    ("verify", "table1-y1", "entropy", False):
        "dd064d740d3d0bf891e2234f99dc108d41742a39875f238f30a08eb6a68ab388",
    ("verify", "table1-y1", "gini", False):
        "ef8e01c5e7b1fd206465fb41ea4a36691183e288e18be67a6a92bfafb434393a",
    ("verify", "table1-y1", "variance", False):
        "2fa24bf8e82adf06feae6cb11aeb0e9b8bf312d333957486f539d4bdfcb78926",
}


@pytest.fixture(scope="module")
def wide_joint(tmp_path_factory):
    j = random_joint(12, p=12, max_arity=2, append_irrelevant=False)
    path = tmp_path_factory.mktemp("wide") / "wide.csv"
    write_joint_csv(j, path)
    xs = j.positive_instances()
    picks = [",".join(map(str, xs[k])) for k in (0, len(xs) // 2, len(xs) - 1)]
    return str(path), [a for x in picks for a in ("--instance", x)]


@pytest.mark.parametrize(
    "case", list(POPULATION_DIGESTS),
    ids=lambda case: "-".join(case[:3]) + "-xs" * case[3],
)
def test_population_results_are_frozen(capsys, wide_joint, case):
    path, instances = wide_joint
    command, data, kind, with_instances = case
    argv = [command, "--data", path if data == "wide" else data,
            "--impurity", kind, "--format", "json"]
    assert cli.main(argv + instances * with_instances) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
    assert digest == POPULATION_DIGESTS[case]
