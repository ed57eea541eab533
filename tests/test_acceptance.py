"""Acceptance suite: every shipped claim at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The heavyweight Monte-Carlo forest is built once and shared.
"""

import time

import numpy as np
import pytest

from oracles import dataset_instances, efficiency_gap, mean_impurity

from impshap import cli
from impshap.data import (
    builtin_dataset,
    example_tables,
    led_population,
    random_joint,
)
from impshap.forest import (
    build_forest,
    correlation_report,
    global_mdi,
    local_mdi,
    saabas,
)
from impshap.impurity import subset_lattice
from impshap.info_theory import JointDistribution, joint_from_samples
from impshap.population import check_identities, pop_global_mdi, pop_local_mdi
from impshap.tu_game import (
    game_global_info,
    game_global_variance,
    game_local_info,
    game_local_variance,
    shapley_exact,
)

LED_TREES = 50_000


def report(n, text):
    print(f"criterion {n:>2}: PASS — {text}")


@pytest.fixture(scope="module")
def joint_set():
    """Table1-Y1, Table1-Y2, Table2, LED and ten random joints (p <= 5)."""
    tables = example_tables()
    led = joint_from_samples(led_population())
    randoms = [random_joint(seed) for seed in range(10)]
    assert all(j.p <= 5 for j in randoms)
    return [tables["table1-y1"], tables["table1-y2"], tables["table2"], led] + randoms


@pytest.fixture(scope="module")
def mc_led():
    """The 50k-tree totally randomized LED forest, with its build time."""
    led = led_population()
    t0 = time.perf_counter()
    forest = build_forest(led, k=1, n_trees=LED_TREES, seed=0)
    glob = global_mdi(forest)
    loc = local_mdi(forest, dataset_instances(led))
    elapsed = time.perf_counter() - t0
    return {"forest": forest, "global": glob, "local": loc.scores,
            "elapsed": elapsed, "dataset": led}


def test_criterion_1_global_shapley_equivalence(joint_set):
    t0 = time.perf_counter()
    worst = 0.0
    for j in joint_set:
        pop = pop_global_mdi(j).scores
        sh = shapley_exact(game_global_info(j)).payoffs
        worst = max(worst, float(np.abs(pop - sh).max()))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10
    assert elapsed < 5.0
    report(1, f"global MDI = Shapley payoffs, max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_local_shapley_equivalence(joint_set):
    t0 = time.perf_counter()
    worst = 0.0
    n_instances = 0
    for j in joint_set:
        for x in j.positive_instances():
            pop = pop_local_mdi(j, x).scores
            sh = shapley_exact(game_local_info(j, x)).payoffs
            worst = max(worst, float(np.abs(pop - sh).max()))
            n_instances += 1
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10
    assert elapsed < 30.0
    report(2, f"local MDI = Shapley at {n_instances} instances, "
              f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_worked_example_one():
    tables = example_tables()
    # H(Y | X_S) per mask S: I(Y; X_S) = h[0] - h[S], I(Y; X_m | X_B) = h[B] - h[B + m]
    h1 = subset_lattice(tables["table1-y1"], "entropy").mean
    h2 = subset_lattice(tables["table1-y2"], "entropy").mean
    mi = {
        "I(Y1;X1)": (h1[0] - h1[0b01], 0.091),
        "I(Y1;X2)": (h1[0] - h1[0b10], 0.002),
        "I(Y1;X1|X2)": (h1[0b10] - h1[0b11], 0.269),
        "I(Y1;X2|X1)": (h1[0b01] - h1[0b11], 0.180),
        "I(Y2;X1)": (h2[0] - h2[0b01], 0.002),
        "I(Y2;X2)": (h2[0] - h2[0b10], 0.016),
        "I(Y2;X1|X2)": (h2[0b10] - h2[0b11], 0.243),
        "I(Y2;X2|X1)": (h2[0b01] - h2[0b11], 0.258),
    }
    for name, (got, want) in mi.items():
        assert got == pytest.approx(want, abs=5e-4), name
    imp1 = global_mdi(build_forest(builtin_dataset("table1-y1"), 2, 10, seed=0))
    imp2 = global_mdi(build_forest(builtin_dataset("table1-y2"), 2, 10, seed=0))
    assert imp1 == pytest.approx([0.091, 0.180], abs=5e-4)
    assert imp2 == pytest.approx([0.243, 0.016], abs=5e-4)
    # marginal contributions of X1 all favour Y1 ...
    assert mi["I(Y1;X1)"][0] >= mi["I(Y2;X1)"][0]
    assert mi["I(Y1;X1|X2)"][0] >= mi["I(Y2;X1|X2)"][0]
    # ... yet the K=2 importance of X1 is lower for Y1
    assert imp1[0] < imp2[0]
    assert mi["I(Y1;X2)"][0] <= mi["I(Y2;X2)"][0]
    assert mi["I(Y1;X2|X1)"][0] <= mi["I(Y2;X2|X1)"][0]
    assert imp1[1] > imp2[1]
    report(3, "eight informations, K=2 importances, monotonicity violation")


def test_criterion_4_worked_example_two():
    j = example_tables()["table2"]
    asymptotic = pop_local_mdi(j, (0,)).scores[0]
    assert asymptotic == pytest.approx(-0.1887, abs=1e-4)
    forest = build_forest(builtin_dataset("table2"), k=1, n_trees=10_000, seed=0)
    finite = local_mdi(forest, [(0,)]).scores[0, 0]
    assert finite == pytest.approx(asymptotic, abs=0.01)
    report(4, f"negative local score: asymptotic {asymptotic:.4f}, "
              f"forest {finite:.4f}")


def test_criterion_5_monte_carlo_convergence(mc_led):
    led_joint = joint_from_samples(mc_led["dataset"])
    pop = pop_global_mdi(led_joint).scores
    dev_global = float(np.abs(mc_led["global"] - pop).max())
    loc_pop = np.vstack(
        [pop_local_mdi(led_joint, x).scores
         for x in dataset_instances(mc_led["dataset"])]
    )
    dev_local = float(np.abs(mc_led["local"] - loc_pop).max())
    assert dev_global < 0.01
    assert dev_local < 0.02
    assert mc_led["elapsed"] < 120.0
    report(5, f"{LED_TREES} trees: global dev {dev_global:.4f}, "
              f"local dev {dev_local:.4f}, {mc_led['elapsed']:.1f}s")


def test_criterion_6_efficiency_identities(joint_set, mc_led):
    # (a) population scores decompose the full mutual information
    for j in joint_set:
        total = mean_impurity(j.table, 0, "entropy") - mean_impurity(
            j.table, (1 << j.p) - 1, "entropy"
        )
        residual = abs(float(pop_global_mdi(j).scores.sum()) - total)
        assert residual < 1e-9, j.name
    # (b) finite forests: score total = root impurity - mean leaf impurity
    for name in ("led", "table1-y1"):
        ds = builtin_dataset(name)
        p = ds.n_features
        for k in sorted({1, int(round(p ** 0.5)), p}):
            forest = build_forest(ds, k=k, n_trees=25, seed=6)
            gap = abs(float(global_mdi(forest).sum()) - efficiency_gap(forest))
            assert gap < 1e-12, (name, k)
    # (c) the LED total is the ten-way output entropy
    led_joint = joint_from_samples(mc_led["dataset"])
    assert abs(
        float(pop_global_mdi(led_joint).scores.sum()) - np.log2(10)
    ) < 1e-9
    assert abs(float(mc_led["global"].sum()) - np.log2(10)) < 0.02
    report(6, "population, finite-forest and LED efficiency identities")


def test_criterion_7_global_is_mean_of_local():
    for name in ("led", "table1-y1", "table1-y2"):
        ds = builtin_dataset(name)
        instances = dataset_instances(ds)
        for k in (1, 2, ds.n_features):
            for kind in ("entropy", "gini"):
                forest = build_forest(ds, k=k, n_trees=40, impurity=kind, seed=9)
                residual = float(np.abs(
                    local_mdi(forest, instances).scores.mean(axis=0)
                    - global_mdi(forest)
                ).max())
                assert residual < 1e-10, (name, k, kind)
    report(7, "global MDI = training mean of local MDI, all K, both impurities")


def test_criterion_8_relevance_guarantees(joint_set):
    for j in joint_set:
        by_name = {r["name"]: r for r in check_identities(j, tol=1e-9)[0]}
        assert by_name["global-local-relevance-agreement"]["passed"], j.name
        assert by_name["local-null-scores"]["passed"], j.name
    report(8, "irrelevance equivalence and zero-score guarantee on all joints")


def test_criterion_9_masking_effect():
    led = led_population()
    for seed in range(5):
        shares = {}
        for k in (1, 7):
            forest = build_forest(led, k=k, n_trees=1000, seed=seed)
            shares[k] = global_mdi(forest, normalize=True)
        top2 = np.argsort(shares[7])[-2:]
        assert all(shares[7][m] > shares[1][m] for m in top2), seed
        suppressed = sum(
            1 for m in range(7) if m not in top2 and shares[7][m] < shares[1][m]
        )
        assert suppressed >= 3, seed
    report(9, f"competition concentrates shares on segments "
              f"{sorted(int(m) for m in top2)}, seeds 0-4")


def test_criterion_10_local_measure_correlation():
    t0 = time.perf_counter()
    led = led_population()
    forest = build_forest(led, k=1, n_trees=1000, seed=0)
    instances = dataset_instances(led)
    lm = local_mdi(forest, instances)
    sb = saabas(forest, instances)
    rep = correlation_report(lm, sb)
    elapsed = time.perf_counter() - t0
    assert rep.n_undefined == 0
    assert rep.summary["pearson"]["mean"] >= 0.93
    assert rep.summary["spearman"]["mean"] >= 0.93
    assert elapsed < 30.0
    report(10, f"local-mdi vs saabas: pearson {rep.summary['pearson']['mean']:.3f}, "
               f"spearman {rep.summary['spearman']['mean']:.3f}, {elapsed:.1f}s")


def regression_joint():
    """Y = X1 + X2 with an independent third input; numeric-coded output."""
    table = np.zeros((2, 3, 2, 4))
    for x1 in range(2):
        for x2 in range(3):
            for x3 in range(2):
                table[x1, x2, x3, x1 + x2] = 1.0 / 12.0
    return JointDistribution((2, 3, 2, 4), table, name="additive")


def test_criterion_11_variance_impurity(joint_set):
    j = regression_joint()
    scores = pop_global_mdi(j, "variance").scores
    total = mean_impurity(j.table, 0, "variance") - mean_impurity(
        j.table, (1 << j.p) - 1, "variance"
    )
    assert abs(float(scores.sum()) - total) < 1e-9
    assert abs(scores[2]) < 1e-12  # the independent input
    worst = 0.0
    for joint in joint_set + [j]:
        pop = pop_global_mdi(joint, "variance").scores
        sh = shapley_exact(game_global_variance(joint)).payoffs
        worst = max(worst, float(np.abs(pop - sh).max()))
    assert worst < 1e-10
    # the local variance identity on the dedicated joint
    for x in j.positive_instances():
        lo = pop_local_mdi(j, x, "variance").scores
        sl = shapley_exact(game_local_variance(j, x)).payoffs
        assert np.abs(lo - sl).max() < 1e-10
    report(11, f"variance totals and Shapley equivalence, max dev {worst:.2e}")


def test_criterion_12_determinism(tmp_path):
    commands = [
        ["global", "--data", "led", "--k", "1", "--trees", "50", "--seed", "3"],
        ["global", "--data", "led", "--trees", "30", "--seed", "1",
         "--format", "json"],
        ["local", "--data", "led", "--trees", "30", "--seed", "2",
         "--format", "json"],
        ["verify", "--data", "table2", "--format", "json"],
        ["compare", "--data", "led", "--trees", "40", "--seed", "0"],
        ["gen-data", "--data", "led-sampled", "--n", "30", "--seed", "4"],
    ]
    for i, argv in enumerate(commands):
        out = tmp_path / f"cmd{i}.out"
        bodies = []
        for _ in range(2):
            code = cli.main(argv + ["--out", str(out)])
            assert code == 0, argv
            bodies.append(out.read_bytes())
        assert bodies[0] == bodies[1], argv
    report(12, f"{len(commands)} commands byte-identical across reruns")
