"""CLI surface: determinism, formats, exit codes, schema validation."""

import json

import numpy as np
import pytest

from impshap import cli
from impshap.data import load_csv


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


def test_compare_led(capsys):
    code, out = run(capsys, ["compare", "--data", "led", "--trees", "300",
                             "--seed", "0", "--format", "json"])
    assert code == 0
    per_k = json.loads(out)["results"]["per_k"][0]
    assert per_k["summary"]["pearson"]["mean"] > 0.9
    assert per_k["summary"]["spearman"]["mean"] > 0.9


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


def test_io_error_exit_code(capsys):
    code, _ = run(capsys, ["global", "--data", "led", "--trees", "5",
                           "--out", "/nonexistent-dir/report.csv"])
    assert code == 3


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
    ],
    ids=["non-integer-code", "wrong-count", "code-beyond-arity",
         "local-wrong-count", "k-beyond-p", "no-trees"],
)
def test_malformed_input_is_one_line_usage_error(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


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
