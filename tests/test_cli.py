"""CLI surface: determinism, formats, exit codes, schema validation."""

import builtins
import hashlib
import json
import sys

import numpy as np
import pytest

from impshap import cli
from impshap.data import (
    builtin_dataset,
    load_csv,
    load_joint_csv,
    random_joint,
    write_joint_csv,
)

from oracles import joint_table_by_rows


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_global_csv_output(capsys):
    code, out = run(capsys, ["global", "--data", "led", "--k", "1",
                             "--trees", "100", "--seed", "0"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# version:")
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "k,feature,name,score"
    assert len(lines[header_idx + 1:]) == 7
    scores = [float(l.split(",")[3]) for l in lines[header_idx + 1:]]
    assert sum(scores) == pytest.approx(np.log2(10), abs=1e-9)


def test_byte_identical_reruns(capsys):
    """Identical flags give identical bytes, CSV and JSON alike."""
    for fmt in ("csv", "json"):
        argv = ["global", "--data", "led", "--k", "2", "--trees", "50",
                "--seed", "3", "--format", fmt]
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first == second and first
    argv = ["compare", "--data", "led", "--trees", "40", "--seed", "1"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_json_validates_against_schema(capsys):
    import jsonschema

    code, out = run(capsys, ["local", "--data", "led", "--trees", "30",
                             "--seed", "0", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, cli._load_schema())
    assert report["command"] == "local"
    assert report["provenance"]["seed"] == 0


def test_k_sweep(capsys):
    code, out = run(capsys, ["global", "--data", "led", "--k-sweep", "1,7",
                             "--trees", "60", "--seed", "0", "--normalize"])
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith(("#", "k,"))]
    ks = {int(r.split(",")[0]) for r in rows}
    assert ks == {1, 7}
    for k in (1, 7):
        shares = [float(r.split(",")[3]) for r in rows if r.startswith(f"{k},")]
        assert sum(shares) == pytest.approx(1.0, abs=1e-9)


def test_shapley_command_matches_library(capsys, tables):
    from impshap.tu_game import game_global_info, shapley_exact

    code, out = run(capsys, ["shapley", "--data", "table1-y1",
                             "--format", "json"])
    assert code == 0
    got = json.loads(out)["results"]["games"][0]["payoffs"]
    want = shapley_exact(game_global_info(tables["table1-y1"])).payoffs
    assert got == pytest.approx(list(want), abs=1e-12)


def test_pop_mdi_local_instance(capsys):
    code, out = run(capsys, ["pop-mdi", "--data", "table2",
                             "--instance", "0", "--format", "json"])
    assert code == 0
    scores = json.loads(out)["results"]["importances"][0]["scores"]
    assert scores[0] == pytest.approx(-0.1887, abs=5e-5)


def test_verify_led(capsys):
    code, out = run(capsys, ["verify", "--data", "led", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["passed"]
    for item in report["results"]["identities"]:
        assert item["passed"], item
        assert item["max_residual"] < item["tolerance"]


def test_verify_table1_block(capsys):
    code, out = run(capsys, ["verify", "--data", "table1-y1",
                             "--format", "json"])
    assert code == 0
    block = json.loads(out)["results"]["blocks"]["strong-monotonicity-violation"]
    assert block["premise_holds"] == {"x1": True, "x2": True}
    assert block["violated"] == {"x1": True, "x2": True}
    imp = block["k2_importances"]
    assert imp["table1-y1"] == pytest.approx([0.091, 0.180], abs=5e-4)
    assert imp["table1-y2"] == pytest.approx([0.243, 0.016], abs=5e-4)


def test_verify_table2_block(capsys):
    code, out = run(capsys, ["verify", "--data", "table2", "--format", "json"])
    assert code == 0
    block = json.loads(out)["results"]["blocks"]["negative-local-score"]
    assert block["local_scores"][0] == pytest.approx(-0.19, abs=5e-3)


def test_verify_failure_exit_code(capsys, monkeypatch):
    """A failing identity must flip the exit code to 1."""

    def broken(joint, impurity="entropy", tol=1e-9, data_name=None):
        return (
            [{"name": "efficiency", "max_residual": 1.0,
              "tolerance": tol, "passed": False}],
            {},
        )

    monkeypatch.setattr(cli, "run_identity_suite", broken)
    code, _ = run(capsys, ["verify", "--data", "led"])
    assert code == 1


def test_six_digit_joint_is_renormalized(capsys, tmp_path):
    """A 4096-cell joint written to 6 significant digits sums to 1 only
    within about 1e-8; it loads, and its scores stay close to the exact
    joint's."""
    j = random_joint(3, p=11, max_arity=2, zero_fraction=0.0,
                     append_irrelevant=False)
    assert j.table.size == 4096
    path = tmp_path / "six-digits.csv"
    lines = [",".join([f"x{i + 1}" for i in range(11)] + ["y", "probability"])]
    for idx in np.argwhere(j.table > 0.0):
        lines.append(",".join(map(str, idx)) + f",{j.table[tuple(idx)]:.6g}")
    path.write_text("\n".join(lines) + "\n")
    rounded = joint_table_by_rows(path)
    assert 1e-12 < abs(rounded.sum() - 1.0) <= 1e-6  # renormalised, not kept

    exact = tmp_path / "exact.csv"
    write_joint_csv(j, exact)
    scores = []
    for data in (path, exact):
        code, out = run(capsys, ["pop-mdi", "--data", str(data), "--format", "json"])
        assert code == 0
        scores.append(np.array(json.loads(out)["results"]["importances"][0]["scores"]))
    assert np.abs(scores[0] - scores[1]).max() <= 1e-5


def test_compare_led(capsys):
    code, out = run(capsys, ["compare", "--data", "led", "--trees", "300",
                             "--seed", "0", "--format", "json"])
    assert code == 0
    per_k = json.loads(out)["results"]["per_k"][0]
    assert per_k["summary"]["pearson"]["mean"] > 0.9
    assert per_k["summary"]["spearman"]["mean"] > 0.9


def test_compare_csv_with_no_defined_correlation(capsys):
    """table2 has one feature, so no instance has a correlation: the CSV
    leaves the summary fields empty, as the JSON report writes null."""
    code, out = run(capsys, ["compare", "--data", "table2", "--trees", "5",
                             "--format", "csv"])
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "k,metric,mean,min,max,n_undefined"
    n_rows = builtin_dataset("table2").n_rows
    assert [l.split(",") for l in lines[1:]] == [
        ["1", metric, "", "", "", str(n_rows)] for metric in ("pearson", "spearman")
    ]


def test_local_with_instance_flags(capsys):
    code, out = run(capsys, ["local", "--data", "led", "--trees", "40",
                             "--seed", "0", "--method", "local-mdi,saabas",
                             "--instance", "1,1,1,1,1,1,1",
                             "--format", "json"])
    assert code == 0
    mats = json.loads(out)["results"]["matrices"]
    assert {m["method"] for m in mats} == {"local-mdi", "saabas"}
    assert all(len(m["scores"]) == 1 for m in mats)


def test_saabas_command(capsys):
    code, out = run(capsys, ["saabas", "--data", "led", "--trees", "40",
                             "--seed", "0", "--class-index", "3",
                             "--format", "json"])
    assert code == 0
    mat = json.loads(out)["results"]["matrices"][0]
    assert mat["classes"] == [3] * 10


def test_instances_file(capsys, tmp_path):
    inst = tmp_path / "inst.csv"
    inst.write_text(
        "top,top_left,top_right,middle,bottom_left,bottom_right,bottom\n"
        "1,1,1,1,1,1,1\n0,0,1,0,0,1,0\n"
    )
    code, out = run(capsys, ["local", "--data", "led", "--trees", "30",
                             "--seed", "0", "--instances", str(inst),
                             "--format", "json"])
    assert code == 0
    assert len(json.loads(out)["results"]["matrices"][0]["scores"]) == 2


def test_instances_file_accepts_integral_floats(capsys, tmp_path):
    """`1.0` is the code 1; only a non-integral value is refused."""
    header = "top,top_left,top_right,middle,bottom_left,bottom_right,bottom\n"
    scores = []
    for row in ("1,1,1,0,1,1,1\n", "1.0,1,1,0,1,1,1\n"):
        inst = tmp_path / "inst.csv"
        inst.write_text(header + row)
        code, out = run(capsys, ["local", "--data", "led", "--trees", "10",
                                 "--instances", str(inst), "--format", "json"])
        assert code == 0
        scores.append(json.loads(out)["results"]["matrices"][0]["scores"])
    assert scores[0] == scores[1]


def test_empty_instances_file_is_usage_error(capsys, tmp_path):
    inst = tmp_path / "empty.csv"
    inst.write_text("top,top_left,top_right,middle,bottom_left,bottom_right,bottom\n")
    code, _ = run(capsys, ["local", "--data", "led", "--instances", str(inst)])
    assert code == 2


def test_unknown_data_is_usage_error(capsys):
    code, _ = run(capsys, ["global", "--data", "not-a-thing"])
    assert code == 2
    code, _ = run(capsys, ["verify", "--data", "not-a-thing"])
    assert code == 2


def test_bad_flags_are_usage_errors(capsys):
    code, _ = run(capsys, ["global", "--data", "led", "--k-sweep", "x..y"])
    assert code == 2
    code, _ = run(capsys, ["global"])  # missing --data
    assert code == 2


def test_io_error_exit_code(capsys, tmp_path):
    """The one-line message quotes the --out path as given, not the
    temporary file the report is first written to."""
    for path in ("/nonexistent-dir/report.csv", str(tmp_path)):
        code = cli.main(["global", "--data", "led", "--trees", "5", "--out", path])
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("i/o error: ")
        assert lines[0].endswith(repr(path)) and ".impshap-" not in lines[0]
    assert not list(tmp_path.iterdir())  # no temp litter


def test_out_file_atomic(capsys, tmp_path):
    out_path = tmp_path / "report.csv"
    code, _ = run(capsys, ["global", "--data", "led", "--trees", "20",
                           "--seed", "0", "--out", str(out_path)])
    assert code == 0
    assert out_path.exists()
    assert not list(tmp_path.glob(".impshap-*"))  # no temp litter


def test_gen_data_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "led.csv"
    code, _ = run(capsys, ["gen-data", "--data", "led", "--out", str(out_path)])
    assert code == 0
    ds = load_csv(out_path)
    assert ds.n_rows == 10
    assert ds.arities == (2,) * 7 + (10,)
    out2 = tmp_path / "sampled.csv"
    code, _ = run(capsys, ["gen-data", "--data", "led-sampled", "--n", "50",
                           "--seed", "1", "--out", str(out2)])
    assert code == 0
    assert load_csv(out2).n_rows == 50


def test_joint_csv_input(capsys, tmp_path, tables):
    from impshap.data import write_joint_csv

    path = tmp_path / "t2-joint.csv"
    write_joint_csv(tables["table2"], path)
    code, out = run(capsys, ["pop-mdi", "--data", str(path), "--format", "json"])
    assert code == 0
    scores = json.loads(out)["results"]["importances"][0]["scores"]
    assert scores[0] == pytest.approx(0.3113, abs=5e-5)


def test_compare_quantized_digits(capsys):
    """Regression bound recorded from a pilot run (mean Pearson 0.95)."""
    code, out = run(capsys, ["compare", "--data", "digits", "--k", "1",
                             "--trees", "1000", "--seed", "0",
                             "--format", "json"])
    assert code == 0
    per_k = json.loads(out)["results"]["per_k"][0]
    assert per_k["summary"]["pearson"]["mean"] >= 0.75


def test_global_single_feature_table2(capsys):
    code, out = run(capsys, ["global", "--data", "table2", "--k", "1",
                             "--trees", "20", "--seed", "0",
                             "--format", "json"])
    assert code == 0
    scores = json.loads(out)["results"]["per_k"][0]["scores"]
    assert scores == pytest.approx([0.3113], abs=5e-5)


def test_local_sum_is_exact_on_pure_leaves(capsys):
    """Deterministic LED: per-instance local scores telescope to H(Y)."""
    code, out = run(capsys, ["local", "--data", "led", "--trees", "50",
                             "--seed", "0", "--instance", "1,1,1,1,1,1,1",
                             "--format", "json"])
    assert code == 0
    row = json.loads(out)["results"]["matrices"][0]["scores"][0]
    assert sum(row) == pytest.approx(np.log2(10), abs=1e-9)


@pytest.mark.parametrize(
    "argv",
    [
        ["shapley", "--data", "table2", "--instance", "a"],
        ["pop-mdi", "--data", "table2", "--instance", "1,1"],
        ["pop-mdi", "--data", "table2", "--instance", "5"],
        ["local", "--data", "table2", "--instance", "1,1", "--trees", "5"],
        ["global", "--data", "led", "--k", "9"],
        ["global", "--data", "led", "--trees", "0"],
        ["pop-mdi", "--data", "{unnormalized}"],
        ["verify", "--data", "{just_unnormalized}"],
        ["verify", "--data", "table2", "--tol", "nan"],
        ["verify", "--data", "table2", "--tol", "-1"],
        ["verify", "--data", "table2", "--tol", "0"],
        ["verify", "--data", "table2", "--tol", "inf"],
        ["local", "--data", "led", "--trees", "5", "--method", "saabas",
         "--class-index", "12"],
        ["saabas", "--data", "led", "--trees", "5", "--class-index", "12"],
        ["compare", "--data", "led", "--trees", "5", "--class-index", "12"],
        ["global", "--data", "led", "--k-sweep", "1..9"],
        ["pop-mdi", "--data", "{nan_probability}", "--format", "json"],
        ["verify", "--data", "{negative_probability}"],
        ["pop-mdi", "--data", "{negative_weight}"],
        ["global", "--data", "{negative_weight}", "--trees", "3"],
        ["global", "--data", "{nan_weight}", "--trees", "3"],
        ["pop-mdi", "--data", "{numeric_input}"],
        ["shapley", "--data", "{numeric_input}"],
        ["verify", "--data", "{numeric_input}"],
        ["global", "--data", "{numeric_output}", "--trees", "3"],
        ["local", "--data", "{numeric_output}", "--trees", "3"],
        ["verify", "--data", "table2", "--k", "1"],
        ["shapley", "--data", "table2", "--trees", "5"],
        ["local", "--data", "led", "--trees", "10",
         "--instances", "{non_integer_instances}"],
    ],
    ids=["non-integer-code", "wrong-count", "code-beyond-arity",
         "local-wrong-count", "k-beyond-p", "no-trees", "joint-sum-off",
         "joint-sum-beyond-renormalizing",
         "verify-tol-nan", "verify-tol-negative", "verify-tol-zero", "verify-tol-inf",
         "class-index-beyond-arity-local", "class-index-beyond-arity-saabas",
         "class-index-beyond-arity-compare", "k-sweep-beyond-p",
         "joint-nan-probability", "joint-negative-probability",
         "negative-weight-pop-mdi", "negative-weight-global", "nan-weight-global",
         "numeric-input-pop-mdi", "numeric-input-shapley", "numeric-input-verify",
         "numeric-output-global", "numeric-output-local",
         "k-on-joint-command", "trees-on-joint-command",
         "non-integer-instance-file"],
)
def test_malformed_input_is_one_line_usage_error(capsys, tmp_path, argv):
    files = {
        "unnormalized": "x1,y,probability\n0,0,0.5\n1,1,0.49\n",  # sums to 0.99
        "just_unnormalized": "x1,y,probability\n0,0,0.5\n1,1,0.500002\n",  # 1 + 2e-6
        "nan_probability": "x1,y,probability\n0,0,0.5\n1,1,nan\n",
        "negative_probability": "x1,y,probability\n0,0,1.5\n1,1,-0.5\n",
        "negative_weight": "a,y,__weight__\n0,0,1\n1,1,-1\n",
        "nan_weight": "a,y,__weight__\n0,0,1\n1,1,nan\n",
        "numeric_input": "a,y\n0.5,0\n1.5,1\n",
        "numeric_output": "a,y\n0,0.5\n1,1.5\n",
        "non_integer_instances": "a,b,c,d,e,f,g\n1.7,1,1,0,1,1,1\n",
    }
    for name, text in files.items():
        (tmp_path / f"{name}.csv").write_text(text)
    paths = {name: tmp_path / f"{name}.csv" for name in files}
    code = cli.main([a.format(**paths) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_missing_optional_package_is_usage_error(capsys, monkeypatch):
    """`digits` needs scikit-learn; without it the CLI says so in one line."""
    monkeypatch.setitem(sys.modules, "sklearn.datasets", None)  # import fails
    code = cli.main(["compare", "--data", "digits", "--trees", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "scikit-learn" in lines[0]
    assert lines[0].startswith("error: ")


def test_usage_errors_name_the_flag_given(capsys, monkeypatch):
    """The K, class-index and method checks run before any tree grows and
    name what the user typed."""
    monkeypatch.setattr(cli, "build_forest", None)  # any growth would raise
    cases = [
        (["global", "--data", "led", "--k-sweep", "1..9"],
         "error: --k-sweep must be in 1..7, got 8"),
        (["global", "--data", "led", "--k", "9"],
         "error: --k must be in 1..7, got 9"),
        (["saabas", "--data", "led", "--class-index", "10"],
         "error: --class-index must be in 0..9, got 10"),
        (["compare", "--data", "led", "--class-index", "-1"],
         "error: --class-index must be in 0..9, got -1"),
        (["local", "--data", "led", "--method", "local-mdi,foo"],
         "error: unknown method 'foo'; expected local-mdi or saabas"),
        (["local", "--data", "led", "--method", "foo"],
         "error: unknown method 'foo'; expected local-mdi or saabas"),
    ]
    for argv, message in cases:
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [message]


def test_class_index_is_checked_only_where_read(capsys):
    """local-mdi never reads --class-index, so any value passes with it."""
    argv = ["local", "--data", "led", "--trees", "3", "--method", "local-mdi",
            "--instance", "1,1,1,0,1,1,1", "--class-index", "12"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("value", ["abc", "0"], ids=["not-integer", "zero"])
def test_bad_thread_budget_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("IMPSHAP_THREADS", value)
    code = cli.main(["global", "--data", "led", "--trees", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: IMPSHAP_THREADS")


def test_several_instances_match_single_instance_calls(capsys, tables):
    """One walk serves every --instance; each row equals its own call."""
    from impshap.population import pop_local_mdi
    from impshap.tu_game import game_local_variance, shapley_exact

    j = tables["table1-y1"]
    flags = ["--instance", "0,0", "--instance", "1,0", "--instance", "1,1"]
    code, out = run(capsys, ["pop-mdi", "--data", "table1-y1", "--impurity",
                             "gini", "--format", "json", *flags])
    assert code == 0
    for item in json.loads(out)["results"]["importances"]:
        want = pop_local_mdi(j, item["instance"], "gini").scores
        assert item["scores"] == list(want)
    code, out = run(capsys, ["shapley", "--data", "table1-y1", "--impurity",
                             "variance", "--format", "json", *flags])
    assert code == 0
    for item in json.loads(out)["results"]["games"]:
        want = shapley_exact(game_local_variance(j, item["instance"])).payoffs
        assert item["payoffs"] == list(want)


def test_verify_gini(capsys):
    """The Gini scores are the Shapley values of the Gini game."""
    code, out = run(capsys, ["verify", "--data", "table1-y1", "--impurity",
                             "gini", "--format", "json"])
    assert code == 0
    assert json.loads(out)["results"]["passed"]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["local", "--data", "led", "--trees", "30", "--seed", "0"],
         "b5a690991b17de8b4dd52a39374be4208e14bc7c3a0db2d4d133d60aefa64af8"),
        (["global", "--data", "led", "--trees", "50", "--seed", "0",
          "--k-sweep", "1..3"],
         "c63189743fecc1ba919c5c92b7b877f1a8ad8f3308fc30c3ecfc77af02bd7d07"),
    ],
    ids=["local", "global"],
)
def test_csv_report_bytes_are_pinned(capsys, argv, digest):
    """The CSV tables are built only for --format csv, and stay byte for
    byte what they were when they were built for every report."""
    code, out = run(capsys, argv + ["--format", "csv"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _joint_results(capsys, command, path):
    code, out = run(capsys, [command, "--data", str(path), "--format", "json"])
    assert code == 0
    report = json.loads(out)
    return report["provenance"]["dataset_fingerprint"], report["results"]


@pytest.mark.parametrize("variant", ["comment-line", "spaced-header", "repeated-row"])
def test_joint_csv_variants_match_clean_file(capsys, tmp_path, variant):
    """Comment lines, a spaced `probability` header and a configuration
    split over two rows give the clean file's reports."""
    clean = tmp_path / "clean.csv"
    write_joint_csv(random_joint(4, p=3, max_arity=2), clean)
    header, first, *rest = clean.read_text().splitlines()
    if variant == "comment-line":
        lines = ["# a note", header, first, *rest]
    elif variant == "spaced-header":
        lines = [header.replace(",probability", ", probability"), first, *rest]
    else:
        cfg, prob = first.rsplit(",", 1)
        half = repr(float(prob) / 2)  # halving is exact, so the sum is too
        lines = [header, f"{cfg},{half}", *rest, f"{cfg},{half}"]
    path = tmp_path / f"{variant}.csv"
    path.write_text("\n".join(lines) + "\n")
    assert np.array_equal(load_joint_csv(path).table, joint_table_by_rows(path))
    for command in ("pop-mdi", "verify"):
        assert _joint_results(capsys, command, path) == _joint_results(
            capsys, command, clean
        )


@pytest.mark.parametrize("kind", ["joint", "dataset"])
def test_joint_commands_open_data_once(capsys, tmp_path, monkeypatch, tables, kind):
    path = tmp_path / "data.csv"
    if kind == "joint":
        write_joint_csv(tables["table1-y1"], path)
    else:
        assert cli.main(["gen-data", "--data", "table1-y1", "--out", str(path)]) == 0
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    for command in ("pop-mdi", "shapley", "verify"):
        opened.clear()
        code, _ = run(capsys, [command, "--data", str(path)])
        assert code == 0
        assert len(opened) == 1, command
