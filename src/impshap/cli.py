"""Command-line interface: train, score, verify and compare with
reproducible seeds and machine-readable CSV/JSON reports.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, 3 I/O error.  Every report embeds a provenance block (version,
command line, seed, dataset fingerprint); no timestamps, so identical
invocations produce byte-identical output.
"""

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from importlib import resources

import numpy as np

from . import __version__
from .data import (
    builtin_dataset,
    builtin_joint,
    dataset_to_joint,
    example_tables,
    load_csv,
    load_joint_csv,
    write_csv,
)
from .errors import ImpshapError
from .info_theory import cond_mutual_info, mutual_info
from .forest import (
    LOCAL_MDI,
    SAABAS,
    build_forest,
    correlation_report,
    global_mdi,
    local_mdi,
    saabas,
)
from .impurity import ENTROPY, KINDS, VARIANCE, subset_lattice
from .population import (
    PopulationImportance,
    check_decompositions,
    mdi_weight_sum,
    pop_global_mdi,
    pop_local_mdi,
    pop_local_mdi_batch,
)
from .relevance import (
    verify_global_local_equivalence,
    verify_local_null_scores,
)
from .tu_game import (
    game_global_info,
    game_global_variance,
    lattice_games,
    shapley_exact,
)

BUILTIN_JOINTS = ("led", "table1-y1", "table1-y2", "table2")
EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args, argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ImpshapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impshap",
        description="Tree-ensemble importances, exact Shapley values and "
        "their population-level identities.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trees=True):
        p.add_argument("--data", required=True,
                       help="builtin name (led, led-sampled, table1-y1, "
                            "table1-y2, table2, digits) or a CSV path")
        p.add_argument("--k", type=int, default=1,
                       help="candidate features drawn per node (default 1)")
        if trees:
            p.add_argument("--trees", type=int, default=1000,
                           help="ensemble size (default 1000)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--impurity", choices=KINDS, default=ENTROPY)
        p.add_argument("--out", default=None,
                       help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("global", help="global MDI scores from a forest")
    common(p)
    p.add_argument("--k-sweep", default=None,
                   help="range like 1..7 or list like 1,2,4; overrides --k")
    p.add_argument("--normalize", action="store_true",
                   help="scale scores so absolute values sum to 1")
    p.set_defaults(func=cmd_global)

    p = sub.add_parser("local", help="local importance scores from a forest")
    common(p)
    p.add_argument("--method", default=LOCAL_MDI,
                   help=f"comma list of {LOCAL_MDI},{SAABAS} (default {LOCAL_MDI})")
    _instance_flags(p)
    p.set_defaults(func=cmd_local)

    p = sub.add_parser("saabas", help="prediction-decomposition scores")
    common(p)
    _instance_flags(p)
    p.set_defaults(func=cmd_saabas)

    p = sub.add_parser("shapley", help="exact Shapley values on a joint")
    common(p, trees=False)
    p.add_argument("--instance", action="append", default=None,
                   help="comma-separated category codes; local game")
    p.set_defaults(func=cmd_shapley)

    p = sub.add_parser("pop-mdi", help="population MDI formulas on a joint")
    common(p, trees=False)
    p.add_argument("--instance", action="append", default=None,
                   help="comma-separated category codes; local measure")
    p.set_defaults(func=cmd_pop_mdi)

    p = sub.add_parser("verify", help="run the identity suite on a joint")
    common(p, trees=False)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="decomposition tolerance (default 1e-9)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="correlate local measures across K")
    common(p)
    p.add_argument("--k-sweep", default=None,
                   help="range like 1..7 or list like 1,2,4; overrides --k")
    _instance_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gen-data", help="write a builtin dataset as CSV")
    p.add_argument("--data", required=True,
                   help="led, led-sampled, table1-y1, table1-y2, table2, digits")
    p.add_argument("--n", type=int, default=200,
                   help="sample size for sampled generators (default 200)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    return parser


def _instance_flags(p):
    p.add_argument("--instance", action="append", default=None,
                   help="comma-separated feature values (repeatable)")
    p.add_argument("--instances", default=None,
                   help="CSV file of instances (feature columns, header row)")
    p.add_argument("--class-index", type=int, default=None,
                   help="decompose this class instead of the predicted one")


# ---------------------------------------------------------------------------
# shared plumbing


def _resolve_dataset(args):
    name = args.data
    if os.path.exists(name):
        return load_csv(name)
    try:
        return builtin_dataset(
            name, n=getattr(args, "n", 200), seed=getattr(args, "seed", 0)
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _resolve_joint(args):
    name = args.data
    if name in BUILTIN_JOINTS:
        return builtin_joint(name)
    if os.path.exists(name):
        with open(name, newline="") as fh:
            header = fh.readline().strip()
        if header.endswith(",probability"):
            return load_joint_csv(name)
        return dataset_to_joint(load_csv(name))
    raise UsageError(
        f"--data {name!r} is neither a builtin joint ({', '.join(BUILTIN_JOINTS)}) "
        "nor an existing CSV file"
    )


def _check_codes(x, arities, what):
    """An instance needs one value per feature, within each known arity."""
    if len(x) != len(arities):
        raise UsageError(f"{what} has {len(x)} values, expected {len(arities)}")
    for m, (v, arity) in enumerate(zip(x, arities)):
        if arity is not None and not 0 <= v < arity:
            raise UsageError(
                f"{what}: value {v} out of range for feature {m} (arity {arity})"
            )
    return x


def _parse_instances(texts, arities):
    """Parse --instance flags: comma-separated integer codes, one per feature."""
    rows = []
    for text in texts:
        try:
            x = tuple(int(v) for v in text.split(","))
        except ValueError:
            raise UsageError(
                f"bad --instance {text!r}: values must be integer codes"
            ) from None
        rows.append(_check_codes(x, arities, f"--instance {text!r}"))
    return rows


def _resolve_instances(args, dataset):
    """Instances for local scoring: flags, a CSV file, or the training rows."""
    arities = dataset.arities[:-1]
    if getattr(args, "instance", None):
        rows = _parse_instances(args.instance, arities)
        return rows, tuple(range(len(rows)))
    if getattr(args, "instances", None):
        ds = load_csv(args.instances)
        want = dataset.n_features
        if len(ds.columns) == want + 1:
            rows = ds.instances()
        elif len(ds.columns) == want:
            rows = [ds.row(i) for i in range(ds.n_rows)]
        else:
            raise UsageError(
                f"instance file has {len(ds.columns)} columns, "
                f"expected {want} or {want + 1}"
            )
        if not rows:
            raise UsageError(f"instance file {args.instances} has no rows")
        for i, row in enumerate(rows):
            _check_codes(row, arities, f"row {i + 1} of {args.instances}")
        return rows, tuple(range(len(rows)))
    return dataset.instances(), tuple(range(dataset.n_rows))


def _forest_ks(args, n_features):
    """K values from --k-sweep (or --k), each in 1..p; checks --trees too."""
    if args.trees < 1:
        raise UsageError(f"--trees must be at least 1, got {args.trees}")
    text = getattr(args, "k_sweep", None)
    if text is None:
        ks = [args.k]
    else:
        text = text.strip()
        try:
            if ".." in text:
                lo, hi = text.split("..", 1)
                ks = list(range(int(lo), int(hi) + 1))
            else:
                ks = [int(v) for v in text.split(",")]
        except ValueError as exc:
            raise UsageError(f"bad --k-sweep {text!r}: {exc}") from exc
        if not ks:
            raise UsageError(f"bad --k-sweep {text!r}: empty range")
    for k in ks:
        if not 1 <= k <= n_features:
            raise UsageError(f"--k must be in 1..{n_features}, got {k}")
    return ks


def _provenance(args, argv, fingerprint):
    return {
        "version": __version__,
        "command_line": "impshap " + " ".join(argv),
        "seed": getattr(args, "seed", None),
        "dataset_fingerprint": fingerprint,
    }


def _load_schema():
    ref = resources.files("impshap").joinpath("schemas/report.schema.json")
    with ref.open() as fh:
        return json.load(fh)


def _emit(args, argv, fingerprint, results, table_rows, table_header) -> None:
    """Write the report in the requested format, atomically when to a file."""
    report = {
        "provenance": _provenance(args, argv, fingerprint),
        "command": args.command,
        "results": results,
    }
    if args.format == "json":
        import jsonschema

        jsonschema.validate(report, _load_schema())
        body = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        for key, value in report["provenance"].items():
            buf.write(f"# {key}: {value}\n")
        buf.write(f"# command: {args.command}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(table_header)
        writer.writerows(table_rows)
        body = buf.getvalue()
    _write_out(getattr(args, "out", None), body)


def _write_out(path, body: str) -> None:
    if path is None:
        sys.stdout.write(body)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".impshap-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# commands


def cmd_global(args, argv) -> int:
    dataset = _resolve_dataset(args)
    ks = _forest_ks(args, dataset.n_features)
    names = dataset.feature_names()
    per_k = []
    rows = []
    for k in ks:
        forest = build_forest(
            dataset, k, args.trees, impurity=args.impurity, seed=args.seed
        )
        scores = global_mdi(forest, normalize=args.normalize)
        per_k.append(
            {"k": k, "scores": [float(v) for v in scores], "features": list(names)}
        )
        rows.extend(
            (k, m, names[m], _fmt(scores[m])) for m in range(len(names))
        )
    results = {
        "impurity": args.impurity,
        "n_trees": args.trees,
        "normalized": bool(args.normalize),
        "per_k": per_k,
    }
    _emit(args, argv, dataset.fingerprint(), results, rows,
          ("k", "feature", "name", "score"))
    return EXIT_OK


def _local_matrices(args, methods):
    dataset = _resolve_dataset(args)
    _forest_ks(args, dataset.n_features)
    instances, ids = _resolve_instances(args, dataset)
    forest = build_forest(
        dataset, args.k, args.trees, impurity=args.impurity, seed=args.seed
    )
    matrices = []
    for method in methods:
        if method == LOCAL_MDI:
            matrices.append(local_mdi(forest, instances, instance_ids=ids))
        elif method == SAABAS:
            selector = "predicted" if args.class_index is None else "fixed"
            matrices.append(
                saabas(forest, instances,
                       class_selector=selector,
                       class_index=args.class_index,
                       instance_ids=ids)
            )
        else:
            raise UsageError(
                f"unknown method {method!r}; expected {LOCAL_MDI} or {SAABAS}"
            )
    return dataset, matrices


def _emit_local(args, argv, dataset, matrices) -> int:
    rows = []
    for mat in matrices:
        for i, inst_id in enumerate(mat.instance_ids):
            for m in range(mat.n_features):
                rows.append((inst_id, m, _fmt(mat.scores[i, m]), mat.method))
    results = {
        "impurity": args.impurity,
        "n_trees": args.trees,
        "k": args.k,
        "matrices": [mat.to_json_dict() for mat in matrices],
    }
    _emit(args, argv, dataset.fingerprint(), results, rows,
          ("instance_id", "feature", "score", "method"))
    return EXIT_OK


def cmd_local(args, argv) -> int:
    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    if not methods:
        raise UsageError("--method must name at least one measure")
    dataset, matrices = _local_matrices(args, methods)
    return _emit_local(args, argv, dataset, matrices)


def cmd_saabas(args, argv) -> int:
    dataset, matrices = _local_matrices(args, [SAABAS])
    return _emit_local(args, argv, dataset, matrices)


def cmd_shapley(args, argv) -> int:
    joint = _resolve_joint(args)
    if args.impurity not in (ENTROPY, VARIANCE):
        raise UsageError("shapley supports --impurity entropy or variance")
    variance = args.impurity == VARIANCE
    payload = []
    rows = []
    if args.instance:
        xs = _parse_instances(args.instance, joint.input_arities)
        lattice = subset_lattice(joint, VARIANCE if variance else ENTROPY, xs)
        for x, game in zip(xs, lattice_games(lattice)[1]):
            vec = shapley_exact(game)
            payload.append({"instance": list(x), **vec.to_json_dict()})
            rows.extend(
                (",".join(map(str, x)), m, _fmt(v))
                for m, v in enumerate(vec.payoffs)
            )
    else:
        game = (game_global_variance if variance else game_global_info)(joint)
        vec = shapley_exact(game)
        payload.append(vec.to_json_dict())
        rows.extend(("", m, _fmt(v)) for m, v in enumerate(vec.payoffs))
    _emit(args, argv, joint.fingerprint(), {"games": payload}, rows,
          ("instance", "feature", "payoff"))
    return EXIT_OK


def cmd_pop_mdi(args, argv) -> int:
    joint = _resolve_joint(args)
    payload = []
    rows = []
    if args.instance:
        xs = _parse_instances(args.instance, joint.input_arities)
        scores = pop_local_mdi_batch(joint, xs, args.impurity)
        for x, row in zip(xs, scores):
            imp = PopulationImportance(row, args.impurity, instance=x)
            payload.append(imp.to_json_dict())
            rows.extend(
                (",".join(map(str, x)), m, _fmt(v))
                for m, v in enumerate(imp.scores)
            )
    else:
        imp = pop_global_mdi(joint, args.impurity)
        payload.append(imp.to_json_dict())
        rows.extend(("", m, _fmt(v)) for m, v in enumerate(imp.scores))
    _emit(args, argv, joint.fingerprint(), {"importances": payload}, rows,
          ("instance", "feature", "score"))
    return EXIT_OK


def cmd_verify(args, argv) -> int:
    joint = _resolve_joint(args)
    identities, blocks = run_identity_suite(
        joint, impurity=args.impurity, tol=args.tol, data_name=args.data
    )
    rows = [
        (item["name"], _fmt(item["max_residual"]), _fmt(item["tolerance"]),
         item["passed"])
        for item in identities
    ]
    passed = all(item["passed"] for item in identities)
    results = {
        "impurity": args.impurity,
        "identities": identities,
        "blocks": blocks,
        "passed": passed,
    }
    _emit(args, argv, joint.fingerprint(), results, rows,
          ("identity", "max_residual", "tolerance", "passed"))
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def run_identity_suite(joint, impurity=ENTROPY, tol=1e-9, data_name=None):
    """All exact identities on one joint; returns (identities, blocks)."""
    identities = []

    def record(name, residual, tolerance):
        identities.append(
            {
                "name": name,
                "max_residual": float(residual),
                "tolerance": tolerance,
                "passed": bool(residual < tolerance),
            }
        )

    # one lattice walk over every positive instance feeds every identity;
    # each Shapley check still sets the MDI weight sum over conditional
    # decreases against shapley_exact's sum over marginal contributions
    lattice = subset_lattice(joint, impurity, joint.positive_instances())
    global_game, local_games = lattice_games(lattice)
    pop = mdi_weight_sum(lattice.mean)[0]
    sh = shapley_exact(global_game).payoffs
    record("global-shapley-equivalence", np.abs(pop - sh).max(), 1e-10)

    worst_local = 0.0
    for lo, game in zip(mdi_weight_sum(lattice.at), local_games):
        sl = shapley_exact(game).payoffs
        worst_local = max(worst_local, float(np.abs(lo - sl).max()))
    record("local-shapley-equivalence", worst_local, 1e-10)

    dec = check_decompositions(joint, impurity, tol=tol, lattice=lattice)
    record("efficiency", dec.efficiency_residual, tol)
    record("instance-decomposition", dec.instance_residual, tol)
    record("double-decomposition", dec.double_sum_residual, tol)

    eq = verify_global_local_equivalence(joint, lattice=lattice)
    identities.append(
        {
            "name": "global-local-relevance-agreement",
            "max_residual": 0.0 if eq.passed else 1.0,
            "tolerance": 1.0,
            "passed": eq.passed,
        }
    )
    nulls = verify_local_null_scores(joint, impurity, tol=tol, lattice=lattice)
    record("local-null-scores", nulls.max_violation, tol)

    blocks = {"total": dec.total, "global_scores": [float(v) for v in pop]}
    if data_name in ("table1-y1", "table1-y2"):
        blocks["strong-monotonicity-violation"] = _monotonicity_block()
    if data_name == "table2":
        x = (0,)
        blocks["negative-local-score"] = {
            "instance": list(x),
            "local_scores": [
                float(v) for v in pop_local_mdi(joint, x, impurity).scores
            ],
        }
    return identities, blocks


def _monotonicity_block():
    """The two-output example where payoff order flips against the
    marginal-contribution order once trees compete for splits (K = 2)."""
    tables = example_tables()
    j1, j2 = tables["table1-y1"], tables["table1-y2"]
    mi = {
        "I(Y1;X1)": mutual_info(j1, [2], [0]),
        "I(Y1;X1|X2)": cond_mutual_info(j1, [2], 0, [1]),
        "I(Y1;X2)": mutual_info(j1, [2], [1]),
        "I(Y1;X2|X1)": cond_mutual_info(j1, [2], 1, [0]),
        "I(Y2;X1)": mutual_info(j2, [2], [0]),
        "I(Y2;X1|X2)": cond_mutual_info(j2, [2], 0, [1]),
        "I(Y2;X2)": mutual_info(j2, [2], [1]),
        "I(Y2;X2|X1)": cond_mutual_info(j2, [2], 1, [0]),
    }
    imp = {}
    for name in ("table1-y1", "table1-y2"):
        forest = build_forest(builtin_dataset(name), k=2, n_trees=1, seed=0)
        imp[name] = [float(v) for v in global_mdi(forest)]
    premise_x1 = (
        mi["I(Y1;X1)"] >= mi["I(Y2;X1)"]
        and mi["I(Y1;X1|X2)"] >= mi["I(Y2;X1|X2)"]
    )
    violated_x1 = imp["table1-y1"][0] < imp["table1-y2"][0]
    premise_x2 = (
        mi["I(Y1;X2)"] <= mi["I(Y2;X2)"]
        and mi["I(Y1;X2|X1)"] <= mi["I(Y2;X2|X1)"]
    )
    violated_x2 = imp["table1-y1"][1] > imp["table1-y2"][1]
    return {
        "mutual_informations": {k: float(v) for k, v in mi.items()},
        "k2_importances": imp,
        "premise_holds": {"x1": premise_x1, "x2": premise_x2},
        "violated": {"x1": violated_x1, "x2": violated_x2},
    }


def cmd_compare(args, argv) -> int:
    dataset = _resolve_dataset(args)
    ks = _forest_ks(args, dataset.n_features)
    instances, ids = _resolve_instances(args, dataset)
    per_k = []
    rows = []
    for k in ks:
        forest = build_forest(
            dataset, k, args.trees, impurity=args.impurity, seed=args.seed
        )
        lm = local_mdi(forest, instances, instance_ids=ids)
        selector = "predicted" if args.class_index is None else "fixed"
        sb = saabas(forest, instances, class_selector=selector,
                    class_index=args.class_index, instance_ids=ids)
        rep = correlation_report(lm, sb, mode="absolute")
        per_k.append({"k": k, **rep.to_json_dict()})
        for metric in ("pearson", "spearman"):
            s = rep.summary[metric]
            rows.append(
                (k, metric, _fmt(s["mean"]), _fmt(s["min"]), _fmt(s["max"]),
                 rep.n_undefined)
            )
    results = {
        "impurity": args.impurity,
        "n_trees": args.trees,
        "methods": [LOCAL_MDI, SAABAS],
        "per_k": per_k,
    }
    _emit(args, argv, dataset.fingerprint(), results, rows,
          ("k", "metric", "mean", "min", "max", "n_undefined"))
    return EXIT_OK


def cmd_gen_data(args, argv) -> int:
    dataset = _resolve_dataset(args)
    provenance = [
        f"version: {__version__}",
        f"command_line: impshap {' '.join(argv)}",
        f"seed: {args.seed}",
        f"dataset_fingerprint: {dataset.fingerprint()}",
    ]
    write_csv(dataset, args.out, provenance=provenance)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
