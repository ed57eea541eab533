"""CLI surface: determinism, formats, exit codes, schema validation."""

import builtins
import gc
import hashlib
import inspect
import json
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impshap import cli, tree
from impshap.data import (
    BUILTIN_JOINTS,
    CATEGORICAL,
    NUMERIC,
    ColumnMeta,
    Dataset,
    builtin_dataset,
    builtin_joint,
    load_csv,
    load_joint_csv,
    random_joint,
    write_joint_csv,
)
from impshap.forest import build_forest

from oracles import joint_table_by_rows, laid_out


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
    """The bundled schema is the published report contract: it is a valid
    schema, and a JSON report of every command that writes one meets it."""
    import jsonschema

    path = Path(cli.__file__).parent / "schemas" / "report.schema.json"
    schema = json.loads(path.read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    validator = cls(schema)
    forest = ["--data", "led", "--trees", "20", "--seed", "0"]
    runs = [
        ["global", *forest, "--k-sweep", "1,7", "--normalize"],
        ["local", *forest, "--method", "local-mdi,saabas"],
        ["saabas", *forest, "--class-index", "3"],
        ["shapley", "--data", "table1-y1"],
        ["shapley", "--data", "table2", "--instance", "0"],
        ["pop-mdi", "--data", "table1-y1"],
        ["pop-mdi", "--data", "table2", "--instance", "0"],
        ["verify", "--data", "table1-y1"],
        ["verify", "--data", "table2"],
        ["verify", "--data", "led"],
        ["compare", *forest, "--k-sweep", "1,4"],
    ]
    blocks = set()
    for argv in runs:
        code, out = run(capsys, [*argv, "--format", "json"])
        assert code == 0, argv
        report = json.loads(out)
        validator.validate(report)
        assert report["command"] == argv[0]
        assert report["provenance"]["seed"] == 0
        blocks |= set(report["results"].get("blocks", ()))
    assert {"strong-monotonicity-violation", "negative-local-score"} <= blocks
    # gen-data writes a dataset CSV, never a report
    commands = set(schema["properties"]["command"]["enum"]) - {"gen-data"}
    assert {argv[0] for argv in runs} == commands


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


@pytest.mark.parametrize(
    "argv, ks, key",
    [
        (["global", "--data", "led", "--trees", "60", "--seed", "5"], range(1, 8),
         "scores"),
        (["compare", "--data", "led", "--trees", "20"], range(1, 4), None),
    ],
    ids=["global", "compare"],
)
def test_k_sweep_equals_separate_builds(capsys, argv, ks, key):
    """A sweep replays each tree's stream for every K, so each K gets what
    a build at that K alone gets."""
    def per_k(flags):
        code, out = run(capsys, argv + flags + ["--format", "json"])
        assert code == 0
        return [json.dumps(entry if key is None else entry[key], sort_keys=True)
                for entry in json.loads(out)["results"]["per_k"]]

    sweep = per_k(["--k-sweep", f"{ks[0]}..{ks[-1]}"])
    assert sweep == [per_k(["--k", str(k)])[0] for k in ks]


@pytest.mark.parametrize("impurity", ["entropy", "gini", "variance"])
def test_shapley_command_matches_library(capsys, tables, impurity):
    from impshap.impurity import subset_lattice
    from impshap.tu_game import lattice_games, shapley_exact

    code, out = run(capsys, ["shapley", "--data", "table1-y1",
                             "--impurity", impurity, "--format", "json"])
    assert code == 0
    got = json.loads(out)["results"]["games"][0]["payoffs"]
    game = lattice_games(subset_lattice(tables["table1-y1"], impurity))[0]
    assert got == pytest.approx(list(shapley_exact(game).payoffs), abs=1e-12)


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


def test_verify_derives_each_input_once(capsys, monkeypatch):
    """The identity suite walks its lattice once, sums each MDI table once
    and scans local relevance once, however many identities read them,
    both through `verify` and at the library's `check_identities`.
    Every module's binding of each name is counted, so a check that walked
    or summed again on its own would show."""
    import impshap
    from impshap import impurity, population, relevance, tu_game

    calls = {"walk": 0, "mdi": 0, "scan": 0}
    counted = {"subset_lattice": "walk", "mdi_weight_sum": "mdi",
               "local_irrelevance": "scan"}

    def counter(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (cli, impurity, population, relevance, tu_game):
        for attr, name in counted.items():
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, counter(name, getattr(module, attr)))
    code, out = run(capsys, ["verify", "--data", "led", "--format", "json"])
    assert code == 0 and json.loads(out)["results"]["passed"]
    assert calls == {"walk": 1, "mdi": 2, "scan": 1}

    calls.update(walk=0, mdi=0, scan=0)
    records, _, _ = impshap.check_identities(builtin_joint("led"))
    assert all(item["passed"] for item in records)
    assert calls == {"walk": 1, "mdi": 2, "scan": 1}


def test_verify_failure_exit_code(capsys, monkeypatch):
    """A failing identity must flip the exit code to 1."""

    def broken(joint, impurity="entropy", tol=1e-9):
        return (
            [{"name": "efficiency", "max_residual": 1.0,
              "tolerance": tol, "passed": False}],
            0.0,
            [],
        )

    monkeypatch.setattr(cli, "check_identities", broken)
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
    """A file holds the p feature columns, or p + 1 with a last column (the
    output) that is dropped; both give the same scores."""
    header = "top,top_left,top_right,middle,bottom_left,bottom_right,bottom"
    rows = ["1,1,1,1,1,1,1", "0,0,1,0,0,1,0"]
    files = {
        "inst.csv": [header] + rows,
        "inst-y.csv": [header + ",digit"] + [r + ",8" for r in rows],
    }
    matrices = []
    for name, lines in files.items():
        inst = tmp_path / name
        inst.write_text("\n".join(lines) + "\n")
        code, out = run(capsys, ["local", "--data", "led", "--trees", "30",
                                 "--seed", "0", "--method", "local-mdi,saabas",
                                 "--instances", str(inst), "--format", "json"])
        assert code == 0
        matrices.append(json.loads(out)["results"]["matrices"])
    assert len(matrices[0][0]["scores"]) == 2
    assert matrices[0] == matrices[1]


def test_one_feature_instance_file_matches_flags(capsys, tmp_path):
    """An instance file of a one-feature dataset may hold that column alone."""
    (tmp_path / "x1.csv").write_text("x1\n0\n1\n")
    base = ["local", "--data", "table2", "--trees", "3", "--format", "json"]
    matrices = []
    for flags in (["--instance", "0", "--instance", "1"],
                  ["--instances", str(tmp_path / "x1.csv")]):
        code, out = run(capsys, base + flags)
        assert code == 0
        matrices.append(json.loads(out)["results"]["matrices"])
    assert matrices[0] == matrices[1]


def test_tree_past_the_recursion_limit_grows(capsys, tmp_path):
    """Alternating classes along one numeric feature split off one row per
    level: 1,200 levels, past Python's recursion limit, grow, and the global
    MDI of the fully grown tree sums to H(Y) = 1 bit."""
    rows = "".join(f"{i},{i % 2}\n" for i in range(1200))
    (tmp_path / "deep.csv").write_text("x,y\n#kind: numeric,categorical\n" + rows)
    code = cli.main(["global", "--data", str(tmp_path / "deep.csv"), "--trees", "1",
                     "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    scores = json.loads(captured.out)["results"]["per_k"][0]["scores"]
    assert abs(sum(scores) - 1.0) <= 1e-9


# sha256 of the packed arrays (NODE_ARRAYS, then offsets), laid out tree by
# tree, of the chain below, taken when every node of a tree was grown one
# step at a time
DEEP_CHAIN_DIGEST = "ba1ec4a46fd83498cdc125925f0d56c50874b99e5d7e730b553a37b442a14731"


def test_settled_chain_grows_in_one_step():
    """The chain above has one feature, so at K = 1 every state is settled
    and the tree is the root's 2,399-node template: one step, nothing
    recursing, under a recursion limit far below its depth, and the arrays
    of the node-by-node build."""
    n = 1200
    ds = Dataset([ColumnMeta("x", NUMERIC), ColumnMeta("y", CATEGORICAL, 2)],
                 [np.arange(n, dtype=np.float64), np.arange(n) % 2])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 200)
    try:
        with mock.patch.object(tree.StateGraph, "_end_step", autospec=True,
                               side_effect=tree.StateGraph._end_step) as steps:
            forest = build_forest(ds, 1, 1, seed=0)
    finally:
        sys.setrecursionlimit(limit)
    assert steps.call_count == 1 and len(forest.feature) == 2 * n - 1
    digest = hashlib.sha256()
    forest = laid_out(forest)
    for name in tree.NODE_ARRAYS + ("offsets",):
        digest.update(getattr(forest, name).tobytes())
    assert digest.hexdigest() == DEEP_CHAIN_DIGEST


def test_numeric_instance_flag_matches_file(capsys, tmp_path):
    """--instance takes a numeric feature's value as a float, as a file does."""
    rows = "".join(f"{i / 4},{(i * 7 % 5) / 2},{i % 2}\n" for i in range(12))
    (tmp_path / "num.csv").write_text("a,b,y\n" + rows)
    (tmp_path / "inst.csv").write_text("a,b\n0.5,1.0\n")
    base = ["local", "--data", str(tmp_path / "num.csv"), "--trees", "3",
            "--method", "local-mdi,saabas", "--format", "json"]
    matrices = []
    for flags in (["--instance", "0.5,1.0"], ["--instances", str(tmp_path / "inst.csv")]):
        code, out = run(capsys, base + flags)
        assert code == 0
        matrices.append(json.loads(out)["results"]["matrices"])
    assert matrices[0] == matrices[1]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["local", "--data", "num.csv", "--instance", "abc,1.0"],
         "bad --instance 'abc,1.0': value 'abc' for feature 0 is not a number"),
        (["local", "--data", "num.csv", "--instance", "1.0,2.0,abc"],
         "--instance '1.0,2.0,abc' has 3 values, expected 2"),
        (["local", "--data", "led", "--instance", "1,1,1,1,1,1,1,x"],
         "--instance '1,1,1,1,1,1,1,x' has 8 values, expected 7"),
        (["pop-mdi", "--data", "table1-y1", "--instance", "0,0,x"],
         "--instance '0,0,x' has 3 values, expected 2"),
    ],
    ids=["numeric-not-a-number", "numeric-too-many", "led-too-many",
         "joint-too-many"],
)
def test_instance_flag_checks_the_count_then_each_value(capsys, tmp_path,
                                                        monkeypatch, argv,
                                                        message):
    """A wrong value count is named as such, whatever the values; a value
    that is not a number at a numeric feature is named with its feature."""
    (tmp_path / "num.csv").write_text("a,b,y\n0.5,1.0,0\n1.5,0.0,1\n")
    monkeypatch.chdir(tmp_path)
    flags = ["--trees", "3"] if argv[0] == "local" else []
    code = cli.main([*argv, *flags])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_out_file_gets_the_mode_of_a_new_file(tmp_path, monkeypatch):
    """A report written with --out is made as open() makes a file: 0o666
    less the umask."""
    monkeypatch.chdir(tmp_path)
    old = os.umask(0o022)
    try:
        assert cli.main(["global", "--data", "led", "--trees", "3",
                         "--out", "r.csv"]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat("r.csv").st_mode) == 0o644


@pytest.mark.parametrize("out", [None, "r.csv"], ids=["stdout", "out-file"])
def test_reports_are_utf8_whatever_the_locale(tmp_path, out):
    """Under the C locale, with Python's UTF-8 mode off, a report naming a
    non-ASCII column is written as UTF-8, as every CSV is read: the same
    bytes as a run in UTF-8 mode, not an encoding error."""
    (tmp_path / "d.csv").write_text("café,y\n0,0\n1,1\n0,1\n1,0\n", encoding="utf-8")
    argv = [sys.executable, "-m", "impshap.cli", "global", "--data", "d.csv",
            "--k", "1", "--trees", "3", "--format", "csv"]
    if out is not None:
        argv += ["--out", out]
    reports = []
    for env in ({"PYTHONUTF8": "1"}, {"PYTHONUTF8": "0", "LC_ALL": "C"}):
        env = {**os.environ, **env, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True)
        assert (done.returncode, done.stderr) == (0, b"")
        reports.append(done.stdout if out is None else (tmp_path / out).read_bytes())
    assert reports[1] == reports[0]
    assert ",café," in reports[0].decode("utf-8")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--instance", "1,1"], "--instance '1,1' has 2 values, expected 7"),
        (["--instance", "1,a,1,1,1,1,1"],
         "bad --instance '1,a,1,1,1,1,1': values must be integer codes"),
        (["--instance", "2,1,1,1,1,1,1"],
         "--instance '2,1,1,1,1,1,1': value 2 out of range for feature 0 (arity 2)"),
        (["--instances", "nonint.csv"],
         "row 1 of nonint.csv: value 1.7 for feature 0 is not an integer code"),
        (["--instances", "oor.csv"],
         "row 1 of oor.csv: value 2 out of range for feature 6 (arity 2)"),
        (["--instances", "narrow.csv"],
         "instance file has 3 columns, expected 7 or 8"),
        (["--instances", "empty.csv"], "empty.csv: no data rows"),
    ],
    ids=["instance-too-few", "instance-not-integer", "instance-beyond-arity",
         "file-not-integral", "file-beyond-arity", "file-column-count",
         "file-no-rows"],
)
def test_instance_input_errors_are_pinned(capsys, tmp_path, monkeypatch, flags,
                                          message):
    header = "a,b,c,d,e,f,g\n"
    files = {
        "nonint.csv": header + "1.7,1,1,0,1,1,1\n",
        "oor.csv": header + "0,0,1,0,0,1,2\n",
        "narrow.csv": "a,b,c\n1,1,1\n",
        "empty.csv": header,
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code = cli.main(["local", "--data", "led", "--trees", "3", *flags])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_builtin_data_names_come_before_files(capsys, tmp_path, monkeypatch):
    """--data led is the builtin for every command, even with a file named
    led in the working directory; ./led reaches the file."""
    (tmp_path / "led").write_text("a,y\n0,0\n1,1\n")
    monkeypatch.chdir(tmp_path)
    for data, p in (("led", 7), ("./led", 1)):
        code, out = run(capsys, ["global", "--data", data, "--trees", "3",
                                 "--format", "json"])
        assert code == 0
        assert len(json.loads(out)["results"]["per_k"][0]["scores"]) == p
        code, out = run(capsys, ["pop-mdi", "--data", data, "--format", "json"])
        assert code == 0
        assert len(json.loads(out)["results"]["importances"][0]["scores"]) == p


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


def test_parser_is_built_once_and_commands_are_looked_up_per_call(capsys,
                                                                 monkeypatch):
    """The parser is built on the first call of the process only, and each
    call looks its `cmd_*` function up in the module, so a replaced one
    runs."""
    assert run(capsys, ["verify", "--data", "table2"])[0] == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args, argv: calls.append(argv) or 0)
    assert run(capsys, ["verify", "--data", "table2"])[0] == 0
    assert calls == [["verify", "--data", "table2"]]
    assert cli._build_parser.cache_info().misses == 1


@pytest.mark.parametrize("command", ["pop-mdi", "shapley", "verify"])
def test_joint_commands_offer_exactly_the_builtin_joints(capsys, monkeypatch,
                                                         command):
    monkeypatch.setenv("COLUMNS", "500")  # no wrapped help lines
    code, out = run(capsys, [command, "--help"])
    assert code == 0
    names = re.search(r"builtin name \(([^)]*)\)", out).group(1).split(", ")
    assert tuple(names) == BUILTIN_JOINTS


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


# two arity-64 features over all 4096 code pairs
WIDE_CATEGORIES = "a,b,y\n" + "".join(
    f"{a},{b},{(a + b) % 2}\n" for a in range(64) for b in range(64)
)


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
        ["pop-mdi", "--data", "{invalid_utf8}"],
        ["global", "--data", "{invalid_utf8}", "--trees", "3"],
        ["global", "--data", "{nan_feature}", "--trees", "3"],
        ["local", "--data", "{nan_feature}", "--trees", "3"],
        ["pop-mdi", "--data", "{long_field}"],
        ["gen-data", "--data", "led-sampled", "--n", "1000000000000",
         "--out", "{unnormalized}"],
        ["global", "--data", "led", "--k-sweep", "1..1000000000000000"],
        ["global", "--data", "{wide_categories}", "--trees", "500"],
        ["global", "--data", "led", "--k-sweep", "1..7", "--trees", "1000000000"],
        ["compare", "--data", "led", "--k-sweep", "1..7", "--trees", "1000000000"],
        ["global", "--data", "{output_only}", "--trees", "3"],
        ["global", "--data", "{weighted_output_only}", "--trees", "3"],
        ["verify", "--data", "{weighted_output_only}"],
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
         "non-integer-instance-file", "invalid-utf8-joint", "invalid-utf8-dataset",
         "nan-numeric-feature-global", "nan-numeric-feature-local",
         "field-beyond-csv-limit", "led-sampled-beyond-max-cells",
         "k-sweep-huge-range", "trees-beyond-growth-budget",
         "trees-beyond-growth-budget-k-sweep",
         "trees-beyond-growth-budget-k-sweep-compare",
         "output-only-global", "weighted-output-only-global",
         "weighted-output-only-verify"],
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
        "invalid_utf8": b"x1,y,probability\n0,0,0.5\n1,1,0.\xff5\n",
        "nan_feature": "a,y\n0.5,0\nnan,1\n1.5,1\n",
        "output_only": "y\n0\n1\n",
        "weighted_output_only": "y,__weight__\n0,1\n1,1\n",
        "long_field": "x1,y,probability\n0,0,0.5\n1,1,0.5" + "0" * 131072 + "\n",
        # 4096 distinct rows over two arity-64 features: each tree is bounded
        # by 2 * 4096 - 1 nodes of 300 bytes, 500 trees by 1.2 GB
        "wide_categories": WIDE_CATEGORIES,
    }
    for name, text in files.items():
        raw = text if isinstance(text, bytes) else text.encode()
        (tmp_path / f"{name}.csv").write_bytes(raw)
    paths = {name: tmp_path / f"{name}.csv" for name in files}
    tracemalloc.start()
    try:
        code = cli.main([a.format(**paths) for a in argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20  # refused before any large table is made
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_growth_budget_admits_a_forest_that_fits(capsys, tmp_path):
    """20 trees on the wide file hold about 83,000 nodes (25 MB): the bound
    of 2E - 1 nodes per tree lets them grow."""
    path = tmp_path / "wide.csv"
    path.write_text(WIDE_CATEGORIES)
    code, out = run(capsys, ["global", "--data", str(path), "--trees", "20"])
    assert code == 0 and out


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


def test_repeated_method_is_refused_before_growth(capsys, monkeypatch):
    """A method named twice would walk the forest twice and write the same
    matrix twice; it is refused in one line, as an unknown method is."""
    monkeypatch.setattr(cli, "build_forest", None)  # any growth would raise
    for text, name in (("local-mdi,local-mdi", "local-mdi"),
                       ("saabas, local-mdi,saabas", "saabas")):
        assert cli.main(["local", "--data", "led", "--method", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: --method names {name!r} more than once"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_local_report_formats_each_distinct_row_once(capsys, tmp_path, monkeypatch, fmt):
    """A deterministic cost guard: over repeated rows, every distinct score
    row of each matrix is formatted by one `_encode` call, however many
    instances share it, in either format."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(["gen-data", "--data", "led-sampled", "--n", "300",
                     "--seed", "2", "--out", "rows.csv"]) == 0
    dataset = load_csv("rows.csv")
    n_distinct = len(np.unique(np.column_stack(dataset.data[:-1]), axis=0))
    assert n_distinct < dataset.n_rows / 10  # the rows do repeat
    encode, formatted = cli._encode, []

    def counting(o):
        if isinstance(o, list) and o and all(type(v) is float for v in o):
            formatted.append(tuple(o))  # a score row: no other list holds floats
        return encode(o)

    monkeypatch.setattr(cli, "_encode", counting)
    code = cli.main(["local", "--data", "rows.csv", "--method", "local-mdi,saabas",
                     "--trees", "5", "--format", fmt, "--out", "report"])
    assert code == 0
    body = (tmp_path / "report").read_text()
    if fmt == "json":
        matrices = json.loads(body)["results"]["matrices"]
        rows = {tuple(row) for mat in matrices for row in mat["scores"]}
    else:
        table = {}
        for line in body.splitlines()[6:]:  # after the comments and header
            inst_id, _, score, method = line.split(",")
            table.setdefault((method, inst_id), []).append(float(score))
        rows = {tuple(row) for row in table.values()}
    assert set(formatted) == rows
    assert len(formatted) <= 2 * n_distinct


def test_class_index_is_checked_only_where_read(capsys):
    """local-mdi never reads --class-index, so any value passes with it."""
    argv = ["local", "--data", "led", "--trees", "3", "--method", "local-mdi",
            "--instance", "1,1,1,0,1,1,1", "--class-index", "12"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""


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
         "a0a350b1912b2082a8501983bd029511d8d21746b19c81f7815361b47430696a"),
        (["global", "--data", "led", "--trees", "50", "--seed", "0",
          "--k-sweep", "1..3"],
         "abcd35fc3300b0256a5456485d44f57e0ea3071cbef320f2a0cdb412fbf906d5"),
    ],
    ids=["local", "global"],
)
def test_csv_report_bytes_are_pinned(capsys, argv, digest):
    """The CSV tables are built only for --format csv, and stay byte for
    byte what they were when they were built for every report."""
    code, out = run(capsys, argv + ["--format", "csv"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["verify", "--data", "table1-y1"],
         "45c860e9b196c7c6b45cdbe4962cdcc91c7498e7bef6f4006fdd059f1b12d238"),
        (["shapley", "--data", "table1-y1"],
         "c618303841d9dfe24561fc3be63d2cf437e6ff67fdea73639172b018dbea1575"),
        (["pop-mdi", "--data", "table1-y1"],
         "942921ec97dd723744ad6d1d595ece599958d5c38fc09d0ea35b6e97643ee403"),
        (["pop-mdi", "--data", "table1-y1", "--instance", "0,0",
          "--instance", "1,1"],
         "aebf15fd9d3431140310198a0e6aba2068c138e56f192b3e4ae8809a91d14675"),
        (["global", "--data", "led", "--k-sweep", "1..3", "--trees", "50",
          "--seed", "0"],
         "bdb024a7991d927facf7e71a157d924470625649223cfdd9d71797f60654772d"),
        (["compare", "--data", "table2", "--trees", "5", "--seed", "0"],
         "72490c5384e84f06bc7ab72fa609159a087af5e9fb5a8ec89f3e79b160cee131"),
    ],
    ids=["verify", "shapley", "pop-mdi", "pop-mdi-instances", "global-k-sweep",
         "compare-undefined"],
)
def test_json_report_bytes_are_pinned(capsys, argv, digest):
    """Whole JSON reports, with nested dicts, bools, `null` and keys such as
    `I(Y1;X1)`, stay byte for byte what `json.dumps(report, indent=2,
    sort_keys=True)` wrote."""
    code, out = run(capsys, argv + ["--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_written_csv_bytes_are_pinned(tmp_path, monkeypatch):
    """The writers build whole columns and write the bytes that writing one
    cell at a time wrote."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(["gen-data", "--data", "led-sampled", "--n", "200",
                     "--seed", "1", "--out", "led.csv"]) == 0
    write_joint_csv(random_joint(5, p=8), "joint.csv")
    digests = [hashlib.sha256(Path(name).read_bytes()).hexdigest()
               for name in ("led.csv", "joint.csv")]
    assert digests == [
        "3ba8a25dc9769ee4156d4cbb8bc2f7130f7f85ff78186fd5619e5e1e7b97f07f",
        "91f1862ec687b44c51ee10fc964ef91e837fdace7f70683004ce08348237c833",
    ]


# numbers whose texts differ while they compare equal (0.0 and -0.0, 1 and
# 1.0), that never equal themselves (NaN), or that are extreme
EDGE_FLOATS = (0.0, -0.0, 1.0, float("nan"), float("inf"), float("-inf"), 5e-324,
               2.2250738585072014e-308, 1e16, 0.1)
floats = st.sampled_from(EDGE_FLOATS) | st.floats()
numbers = floats | st.sampled_from([0, 1, -1, 2**53 + 1, -(2**64)]) | st.integers()
keys = st.sampled_from(["a, b", ", ", "I(Y1;X1)", "é", "\u2603", '"', ""]) | st.text()


@st.composite
def matrices(draw):
    """Float rows that repeat, as one object or as a copy, or that differ
    from a base row only in the sign of a zero or in int against float."""
    base = draw(st.lists(floats, min_size=1, max_size=6))
    variants = [
        base,
        list(base),
        [-v if v == 0 else v for v in base],
        [int(v) if v.is_integer() else v for v in base],
        draw(st.lists(numbers, max_size=6)),
    ]
    return draw(st.lists(st.sampled_from(variants), max_size=8))


leaves = (st.none() | st.booleans() | keys | numbers | matrices()
          | st.lists(numbers, max_size=8) | st.lists(keys | st.booleans(), max_size=4))
reports = st.recursive(
    leaves,
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(keys, children, max_size=4)
        | st.dictionaries(st.none() | st.booleans() | numbers | keys, children,
                          max_size=3)
    ),
    max_leaves=20,
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(reports)
def test_json_text_matches_stdlib_indent_2(report):
    """`cli._json_text` writes what `json.dumps(indent=2, sort_keys=True)`
    writes, or raises what it raises (keys that do not sort together)."""
    try:
        want = json.dumps(report, indent=2, sort_keys=True)
    except TypeError:
        with pytest.raises(TypeError):
            cli._json_text(report)
        return
    assert cli._json_text(report) == want


def test_json_text_memo_keeps_rows_apart():
    """Rows equal as values but not in their text never share a memo entry."""
    row = [0.0, 1.0, float("inf")]
    report = {"m": [row, list(row), [-0.0, 1.0, float("inf")], [0.0, 1, float("inf")],
                    [float("nan")], [float("nan")], row], "n": [[row]]}
    assert cli._json_text(report) == json.dumps(report, indent=2, sort_keys=True)


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


# every command that writes a report; "WIDE" is a 12-input joint, whose
# lattice walk spans many blocks
CYCLE_FREE_ARGV = {
    "global": ["global", "--data", "led", "--trees", "5", "--k-sweep", "1..2",
               "--format", "json"],
    "local-json": ["local", "--data", "led", "--trees", "5",
                   "--method", "local-mdi,saabas", "--format", "json"],
    "local-csv": ["local", "--data", "led", "--trees", "5",
                  "--method", "local-mdi,saabas", "--format", "csv"],
    "saabas": ["saabas", "--data", "led", "--trees", "5", "--format", "json"],
    "compare": ["compare", "--data", "led", "--trees", "5", "--k-sweep", "1..2",
                "--format", "json"],
    "pop-mdi": ["pop-mdi", "--data", "WIDE", "--format", "json"],
    "pop-mdi-local": ["pop-mdi", "--data", "WIDE", "--format", "json",
                      "--instance", "0,0,0,0,0,0,0,0,0,0,0,0"],
    "shapley": ["shapley", "--data", "WIDE", "--format", "json"],
    "verify": ["verify", "--data", "table1-y1", "--format", "json"],
    "verify-led": ["verify", "--data", "led", "--format", "json"],
    "verify-csv": ["verify", "--data", "table2", "--format", "csv"],
    "gen-data": ["gen-data", "--data", "led-sampled", "--n", "50"],
}


@pytest.mark.parametrize("name", list(CYCLE_FREE_ARGV))
def test_commands_leave_no_reference_cycles(tmp_path, name):
    """With the cyclic collector off, a command leaves it nothing to find:
    what a command makes is freed by reference counting once it is done
    with.  A closure that calls itself (a function reaching itself through
    its own cell) leaves one cycle per call, and with it every table the
    cycle holds, until the next collection."""
    wide = tmp_path / "wide.csv"
    write_joint_csv(random_joint(12, p=12, max_arity=2, append_irrelevant=False), wide)
    argv = [str(wide) if a == "WIDE" else a for a in CYCLE_FREE_ARGV[name]]
    argv += ["--out", str(tmp_path / "report")]
    assert cli.main(argv) == 0  # the first call fills caches and imports
    gc.collect()
    gc.disable()
    try:
        assert cli.main(argv) == 0
        left = gc.collect()
    finally:
        gc.enable()
    assert left == 0
