"""Run one benchmark workload against the impshap sources in this checkout.

    python3 perfbench/run.py --workload forest --seed 1 --seconds 40 --trace 0

One process, one client, one job in flight: each job calls
`impshap.cli.main(argv)` in-process on inputs made from `--seed`, checks the
reports, and starts the next job, until `--seconds` have passed.  With
`--trace 0` the jobs run untraced and the end-to-end metrics are printed;
with `--trace 1` every second job runs with spans around each call into an
impshap module, and the per-layer metrics are printed.  The last line of
standard output is the result as one JSON object.  README.md in this
directory defines every metric and workload.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "impshap")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

if HERE not in sys.path:
    sys.path.insert(0, HERE)

import numpy  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up phases are repeated and each phase reports its median.  Imports can
# only be repeated in fresh interpreters; the first sample is this process.
IMPORT_SAMPLES = 3
GENERATE_SAMPLES = 3

# The probe is a fixed pure-Python loop owned by the benchmark, timed around
# each command to follow the speed of a shared host, which swings by up to
# 2x between phases of tens of seconds.  One kernel takes about 5 ms; set-up
# phases are reported in seconds at the speed where it takes exactly that.
PROBE_ITERATIONS = 60_000
PROBE_REPEATS = 3
PROBE_REFERENCE_S = 0.005

LAYERS = ("cli", "data", "forest", "tree", "info_theory", "impurity",
          "population", "tu_game", "relevance")
SRC_MODULES = ("__init__", "cli", "data", "errors", "forest", "impurity",
               "info_theory", "population", "relevance", "tree", "tu_game")

OUTER, SELF = "outer", "self"
# metric -> (span names, which time): OUTER is the span with its children,
# SELF the span minus its child spans.
SPAN_TIMES = {
    "forest.build_s": (("forest.build_forest",), OUTER),
    "forest.global_mdi_s": (("forest.global_mdi",), OUTER),
    "forest.local_mdi_s": (("forest.local_mdi",), OUTER),
    "forest.saabas_s": (("forest.saabas",), SELF),
    "forest.predict_proba_s": (("forest.predict_proba",), OUTER),
    "info_theory.marginal_s": (("info_theory.JointDistribution.marginal",), OUTER),
    "info_theory.cond_s": (("info_theory.JointDistribution.cond_output_dist",), OUTER),
    "impurity.mean_cond_s": (("impurity.mean_conditional_impurity",), OUTER),
    "impurity.at_s": (("impurity.conditional_impurity_at",), OUTER),
    "population.pop_global_s": (("population.pop_global_mdi",), OUTER),
    "population.pop_local_s": (("population.pop_local_mdi",), OUTER),
    "population.decompositions_s": (("population.check_decompositions",), OUTER),
    "tu_game.coalition_values_s": (("tu_game.TUGame.coalition_values",), OUTER),
    "tu_game.shapley_sum_s": (("tu_game.shapley_exact",), SELF),
    "data.load_s": (("data.load_csv", "data.load_joint_csv"), OUTER),
}
SPAN_CALLS = {
    "info_theory.marginal_calls": "info_theory.JointDistribution.marginal",
    "info_theory.cond_calls": "info_theory.JointDistribution.cond_output_dist",
    "info_theory.prob_calls": "info_theory.JointDistribution.prob_of",
    "impurity.mean_cond_calls": "impurity.mean_conditional_impurity",
    "impurity.at_calls": "impurity.conditional_impurity_at",
    "population.pop_local_calls": "population.pop_local_mdi",
    "relevance.local_scans": "relevance.is_locally_irrelevant",
}
HOOK_COUNTS = ("forest.trees", "forest.nodes", "forest.array_bytes",
               "forest.walks", "info_theory.cells_read", "tu_game.coalitions",
               "data.bytes_read", "cli.report_bytes")


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


def layer_metric(layer: str) -> str:
    return "relevance.scan_s" if layer == "relevance" else f"{layer}.self_s"


def unit_of(metric: str) -> str:
    if metric in ("forest.nodes_per_s", "forest.walks_per_s"):
        return metric.split(".")[1].split("_")[0] + "/s"
    if metric in ("forest.pool_speedup", "trace.overhead"):
        return "ratio"
    if metric.endswith("src_lines") or metric == "src.lines":
        return "lines"
    if metric.endswith("_bytes") or metric == "data.bytes_read":
        return "B/job"
    if metric.endswith("_s"):
        return "s/job"
    return "count/job"


# ---------------------------------------------------------------------------
# program and machine


def load_program():
    """Import impshap from this checkout's src/, one worker process."""
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "cli.py")):
        raise SetupError(f"no impshap sources at {PACKAGE_DIR}")
    os.environ["IMPSHAP_THREADS"] = "1"
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import impshap.cli
    import impshap.data
    import impshap.forest

    if os.path.dirname(os.path.abspath(impshap.cli.__file__)) != PACKAGE_DIR:
        raise SetupError(f"impshap was imported from {impshap.cli.__file__}")
    return impshap.cli, impshap.data, impshap.forest


IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import impshap.cli; print(time.perf_counter() - t)"
)


def fresh_import_seconds() -> float:
    env = dict(os.environ, IMPSHAP_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC],
        capture_output=True, text=True, check=True, timeout=60, env=env,
    )
    return float(done.stdout)


def probe_kernel() -> int:
    s = 0
    for i in range(PROBE_ITERATIONS):
        s += (i * i) % 7
    return s


def probe() -> float:
    samples = []
    for _ in range(PROBE_REPEATS):
        t = time.perf_counter()
        probe_kernel()
        samples.append(time.perf_counter() - t)
    return statistics.median(samples)


def pool_speedup(data, forest, seed: int, tiny: bool) -> float:
    """build_forest on the led-global input at one worker over two."""
    led = data.led_population()
    trees = 20 if tiny else 600
    seconds = {}
    for n_jobs in (1, 2):
        t = time.perf_counter()
        for k in range(1, 8):
            forest.build_forest(led, k, trees, seed=seed, n_jobs=n_jobs)
        seconds[n_jobs] = time.perf_counter() - t
    return seconds[1] / seconds[2]


def provenance(name: str, seed: int, seconds: float, trace: bool) -> dict:
    src = hashlib.sha256()
    for path in sorted(source_files()):
        src.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            src.update(fh.read())
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_sha = done.stdout.strip() or None
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def source_files():
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                yield os.path.join(dirpath, f)


def source_lines() -> dict:
    lines = {}
    for path in source_files():
        with open(path, "rb") as fh:
            lines[path] = fh.read().count(b"\n")
    out = {"src.lines": sum(lines.values())}
    for mod in SRC_MODULES:
        key = "init" if mod == "__init__" else mod
        out[f"{key}.src_lines"] = lines.get(os.path.join(PACKAGE_DIR, mod + ".py"), 0)
    return out


# ---------------------------------------------------------------------------
# jobs


def attempt(cli, workload, job, tracer=None, probe_fn=None) -> tuple:
    """Run one job and check its reports; returns (record, report bytes).

    With `probe_fn`, the probe runs before the first command and after each
    one, outside the timed commands, and each command's time is divided by
    the mean of the probes on either side of it.
    """
    codes, times, probes, error = [], [], [], None
    span = tracer.job_span(job.index) if tracer else contextlib.nullcontext()
    with span:
        try:
            if probe_fn:
                probes.append(probe_fn())
            for argv in job.commands:
                t = time.perf_counter()
                codes.append(cli.main(list(argv)))
                times.append(time.perf_counter() - t)
                if probe_fn:
                    probes.append(probe_fn())
        except Exception:
            error = traceback.format_exc(limit=4)
    parts, part_norm = {}, {}
    for c, (name, seconds) in enumerate(zip(job.parts, times)):
        parts[name] = parts.get(name, 0.0) + seconds
        if probe_fn:
            norm = seconds / ((probes[c] + probes[c + 1]) / 2)
            part_norm[name] = part_norm.get(name, 0.0) + norm
    reports = []
    if error is None and any(codes):
        error = f"exit codes {codes}"
    if error is None:
        try:
            for path in job.reports:
                with open(path, "rb") as fh:
                    reports.append(fh.read())
            error = workload.check(job, [json.loads(b) for b in reports])
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            error = f"unreadable report: {exc!r}"
    record = {
        "job": job.index,
        "seconds": sum(times),
        "parts": parts,
        "norm": sum(part_norm.values()) if probe_fn else None,
        "part_norm": part_norm,
        "probes": probes,
        "ok": error is None,
        "error": error,
        "report_bytes": sum(len(b) for b in reports),
        "input_sha256": job.input_sha256(),
    }
    if tracer is not None:
        tracer.counts[job.index, "cli.report_bytes"] += record["report_bytes"]
    return record, reports


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        started: float | None = None) -> dict:
    """One run of one workload; returns the result with its provenance."""
    begin = time.perf_counter() if started is None else started
    cli, data, forest = load_program()
    # each set-up sample is paired with the probe taken right after it
    import_s, import_probe = [time.perf_counter() - begin], [probe()]
    for _ in range(0 if tiny else IMPORT_SAMPLES - 1):
        import_s.append(fresh_import_seconds())
        import_probe.append(probe())
    tracer = tracing.Tracer() if trace else None

    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK_DIR)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        wl = workloads.make(name, seed, tiny)
        generate_s, generate_probe = [], []
        for _ in range(GENERATE_SAMPLES):
            t = time.perf_counter()
            wl.setup(data)
            first = wl.job(data, 0)
            generate_s.append(time.perf_counter() - t)
            generate_probe.append(probe())

        # warm-up: job 0, then a rerun of the same command lines, traced in a
        # traced run, which must write byte-identical reports
        warm, reports = attempt(cli, wl, first, probe_fn=probe)
        if trace:
            rerun, again = attempt(cli, wl, first, tracer)
        else:
            rerun, again = attempt(cli, wl, first, probe_fn=probe)
        if rerun["ok"] and again != reports:
            rerun.update(ok=False, error="rerun of job 0 wrote different reports")
        setup_records = [warm, rerun]
        setup = {
            "import_s": import_s, "import_probe_s": import_probe,
            "generate_s": generate_s, "generate_probe_s": generate_probe,
            "warm_s": [r["seconds"] for r in setup_records],
            "warm_probes": [r["norm"] for r in setup_records],
        }
        setup_s = (
            statistics.median(t / p for t, p in zip(import_s, import_probe))
            + statistics.median(t / p for t, p in zip(generate_s, generate_probe))
            + statistics.median(r["norm"] for r in setup_records if r["norm"])
        ) * PROBE_REFERENCE_S
        workloads.remove(first.reports)
        workloads.remove(set(first.inputs) - set(wl.shared_inputs))

        speedup = (pool_speedup(data, forest, workloads.job_seed("led-global", seed, 0), tiny)
                   if trace else None)

        records = []
        deadline = time.perf_counter() + seconds
        index = 1
        while True:
            job = wl.job(data, index)
            traced = trace and index % 2 == 1
            gc.collect()
            if traced:
                record, _ = attempt(cli, wl, job, tracer)
            else:
                record, _ = attempt(cli, wl, job, probe_fn=probe)
            record["traced"] = traced
            records.append(record)
            workloads.remove(job.reports)
            workloads.remove(set(job.inputs) - set(wl.shared_inputs))
            index += 1
            if time.perf_counter() >= deadline and len(records) >= (2 if trace else 1):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)

    everything = setup_records + records
    result = {
        "provenance": provenance(name, seed, seconds, trace),
        "attempted": len(everything),
        "failed": sum(not r["ok"] for r in everything),
        "errors": [f"job {r['job']}: {r['error']}" for r in everything if not r["ok"]],
        "setup": setup,
        "jobs": records,
    }
    result["provenance"]["jobs"] = len(records)
    result["provenance"]["input_sha256"] = {
        "job0": warm["input_sha256"],
        "all_jobs": hashlib.sha256(
            "".join(r["input_sha256"] for r in records).encode()
        ).hexdigest(),
    }
    if trace:
        result["metrics"], result["layers"] = layer_metrics(tracer, records, speedup)
        result["tracer"] = tracer
    else:
        result["metrics"] = end_to_end(records, setup_s, peak_rss_mb)
    return result


# ---------------------------------------------------------------------------
# metrics


def end_to_end(records, setup_s, peak_rss_mb) -> dict:
    """The gated metrics: set-up time, probe-normalised job time, memory."""
    return {
        "setup_s": (setup_s, "s"),
        "job_norm_p50": (statistics.median(r["norm"] for r in records), "probes"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def wall_time_lines(records) -> list:
    """Raw wall times per job and per part, printed but not gated: on a
    shared host they swing by up to 2x between phases of tens of seconds."""
    seconds = sorted(r["seconds"] for r in records)
    n = len(seconds)
    lines = [f"{'job_s_p50':<28} {statistics.median(seconds):.6g} s ({n} jobs)"]
    # the highest whole percentile with at least ten jobs above it
    if n >= 100:
        pct = int(100 * (n - 10) / n)
        value = seconds[-(-pct * n // 100) - 1]
        lines.append(f"{'job_s_p' + str(pct):<28} {value:.6g} s ({n} jobs)")
    for part in records[0]["parts"]:
        done = [r for r in records if part in r["parts"]]
        raw = statistics.median(r["parts"][part] for r in done)
        norm = statistics.median(r["part_norm"][part] for r in done)
        lines.append(f"{'part ' + part:<28} {raw:.6g} s, {norm:.6g} probes (p50)")
    return lines


def layer_metrics(tracer, records, speedup) -> tuple:
    """Per-layer metrics per traced job, and the layer table behind them.

    Times are means over the traced jobs of the loop.  Counts come from the
    first of those jobs, whose input depends on the seed alone, so they
    repeat exactly.
    """
    per_job = tracer.per_job()
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    ids = [r["job"] for r in traced]
    first = ids[0]

    def span_time(job, names, which):
        stats = per_job.get(job, {})
        return sum(stats[n][1 if which == SELF else 2] for n in names if n in stats)

    def mean_over_jobs(fn):
        return statistics.fmean(fn(j) for j in ids)

    metrics = {}
    for metric, (names, which) in SPAN_TIMES.items():
        metrics[metric] = mean_over_jobs(lambda j: span_time(j, names, which))
    for metric, name in SPAN_CALLS.items():
        metrics[metric] = per_job.get(first, {}).get(name, (0, 0.0, 0.0))[0]
    for metric in HOOK_COUNTS:
        metrics[metric] = tracer.counts.get((first, metric), 0)

    layers = {}
    for layer in LAYERS + ("bench",):
        layers[layer] = mean_over_jobs(lambda j: sum(
            v[1] for n, v in per_job.get(j, {}).items() if n.split(".", 1)[0] == layer
        ))
    for layer in LAYERS:
        metrics[layer_metric(layer)] = layers[layer]

    def rate(count, time_metrics):
        total = sum(tracer.counts.get((j, count), 0) for j in ids)
        busy = sum(span_time(j, *SPAN_TIMES[m]) for j in ids for m in time_metrics)
        return total / busy if busy > 0 else 0.0

    metrics["forest.nodes_per_s"] = rate("forest.nodes", ["forest.build_s"])
    metrics["forest.walks_per_s"] = rate(
        "forest.walks",
        ["forest.local_mdi_s", "forest.saabas_s", "forest.predict_proba_s"],
    )
    metrics["forest.pool_speedup"] = speedup
    metrics["trace.job_s"] = mean_over_jobs(lambda j: per_job[j][tracing.JOB_SPAN][2])
    metrics["trace.overhead"] = (
        statistics.median(r["seconds"] for r in traced)
        / statistics.median(r["seconds"] for r in plain)
    )
    metrics.update(source_lines())
    return {k: (v, unit_of(k)) for k, v in metrics.items()}, layers


# ---------------------------------------------------------------------------
# output


def print_summary(result, trace: bool) -> None:
    prov = result["provenance"]
    print(f"workload {prov['workload']}  seed {prov['seed']}  "
          f"jobs {prov['jobs']} timed, {result['attempted']} attempted, "
          f"{result['failed']} failed  fail_ratio "
          f"{result['failed'] / result['attempted']:.4f}")
    for error in result["errors"][:5]:
        print(f"  failure: {error.strip().splitlines()[-1]}")
    if trace:
        layers = result["layers"]
        total = result["metrics"]["trace.job_s"][0]
        print(f"{'layer':<12} {'self s/job':>12} {'share':>8}")
        for layer, value in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"{layer:<12} {value:>12.4f} {100 * value / total:>7.2f}%")
        print(f"{'sum':<12} {sum(layers.values()):>12.4f} "
              f"{100 * sum(layers.values()) / total:>7.2f}%  "
              f"of traced job time {total:.4f} s")
    else:
        setup = result["setup"]
        wall = sum(statistics.median(setup[k]) for k in ("import_s", "generate_s", "warm_s"))
        print(f"{'setup wall':<28} {wall:.6g} s (sum of phase medians, unscaled)")
        print("\n".join(wall_time_lines(result["jobs"])))
    for metric, (value, unit) in result["metrics"].items():
        print(f"{metric:<28} {value:.6g} {unit}")
    print("provenance " + json.dumps(prov, sort_keys=True))


def write_result(result, trace: bool) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    prov = result["provenance"]
    stem = os.path.join(OUT_DIR, f"{prov['workload']}-seed{prov['seed']}-trace{int(trace)}")
    record = {k: v for k, v in result.items() if k != "tracer"}
    if trace:
        result["tracer"].save(stem + "-spans.npz")
        record["spans"] = os.path.basename(stem) + "-spans.npz"
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return stem + ".json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     started=STARTED)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_summary(result, bool(args.trace))
    print(f"result file {write_result(result, bool(args.trace))}")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
