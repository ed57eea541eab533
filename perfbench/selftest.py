"""Tests of the benchmark itself, kept out of the package's test suite:

    python3 -m pytest perfbench/selftest.py -q

Smoke runs use tiny inputs and run in-process; the tracer restores every
patched attribute, which one test checks directly.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

cli, data, _ = run.load_program()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _first_job(name, seed=3):
    wl = workloads.make(name, seed, tiny=True)
    wl.setup(data)
    return wl, wl.job(data, 0)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run(name, trace):
    result = run.run(name, seed=1, seconds=0.2, trace=trace, tiny=True)
    assert result["failed"] == 0, result["errors"]
    assert result["attempted"] >= 3
    metrics = result["metrics"]
    if trace:
        # the layer self times account for the whole traced job
        layers = result["layers"]
        assert sum(layers.values()) == pytest.approx(metrics["trace.job_s"][0], rel=1e-9)
        assert metrics["trace.overhead"][0] > 0
    else:
        assert set(metrics) == {"setup_s", "job_norm_p50", "peak_rss_mb"}
        assert all(value > 0 for value, _ in metrics.values())


def _corrupt(part, results):
    """Move one reported number off the identity its part checks."""
    if part == "led-global":
        results["per_k"][3]["scores"][0] += 1e-6
    elif part == "rows-local":
        results["matrices"][1]["scores"][5][0] += 0.5
    elif part == "joint-verify":
        results["passed"] = False
    else:
        results["importances"][0]["scores"][1] += 1e-8


@pytest.mark.parametrize("part", sorted(workloads.PARTS))
def test_corrupted_report_fails_its_check(part, workdir):
    name = next(w for w, parts in workloads.WORKLOADS.items() if part in parts)
    wl, job = _first_job(name)
    record, reports = run.attempt(cli, wl, job)
    assert record["ok"], record["error"]
    parsed = [json.loads(b) for b in reports]
    _corrupt(part, parsed[job.parts.index(part)]["results"])
    error = wl.check(job, parsed)
    assert error is not None and error.startswith(part)


def test_failing_job_counts_as_failed(workdir):
    wl, job = _first_job("joint")
    job.commands[0][job.commands[0].index("--data") + 1] = "missing.csv"
    record, _ = run.attempt(cli, wl, job)
    assert not record["ok"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_wrappers_leave_reports_byte_identical(name, workdir):
    wl, job = _first_job(name)
    plain, reports = run.attempt(cli, wl, job)
    tracer = tracing.Tracer()
    traced, traced_reports = run.attempt(cli, wl, job, tracer)
    assert plain["ok"] and traced["ok"]
    assert traced_reports == reports
    assert len(tracer.start) > 1


def test_uninstall_restores_every_attribute():
    modules = [m for n, m in sys.modules.items() if n.startswith("impshap")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    joint_methods = dict(vars(data.JointDistribution))
    tracer = tracing.Tracer()
    tracer.install()
    assert data.JointDistribution.marginal is not joint_methods["marginal"]
    assert cli.build_forest is not before["impshap.forest", "build_forest"]
    tracer.uninstall()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert dict(vars(data.JointDistribution)) == joint_methods


def test_self_times_subtract_child_spans():
    tracer = tracing.Tracer()
    tracer.job_id = 7
    outer = tracer._open(tracer._intern("a.outer"))
    inner = tracer._open(tracer._intern("b.inner"))
    tracer._close(inner)
    tracer._close(outer)
    tracer.start[0], tracer.end[0] = 0, 10_000_000_000
    tracer.start[1], tracer.end[1] = 2_000_000_000, 5_000_000_000
    stats = tracer.per_job()[7]
    assert stats["a.outer"] == (1, pytest.approx(7.0), pytest.approx(10.0))
    assert stats["b.inner"] == (1, pytest.approx(3.0), pytest.approx(3.0))


def test_inputs_depend_only_on_seed(workdir):
    hashes = []
    for _ in range(2):
        _, job = _first_job("joint", seed=5)
        hashes.append(job.input_sha256())
    _, other = _first_job("joint", seed=6)
    assert hashes[0] == hashes[1] != other.input_sha256()


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "PACKAGE_DIR", str(tmp_path / "impshap"))
    code = run.main(["--workload", "forest", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
