"""Command-line interface: train, score, verify and compare with
reproducible seeds and machine-readable CSV/JSON reports.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, 3 I/O error.  Every report embeds a provenance block (version,
command line, seed, dataset fingerprint); no timestamps, so identical
invocations produce byte-identical output.
"""

import argparse
import csv
import functools
import io
import json
import math
import os
import struct
import sys
import tempfile

import numpy as np

from . import __version__
from .data import (
    BUILTIN_DATASETS,
    BUILTIN_JOINTS,
    builtin_dataset,
    builtin_joint,
    example_tables,
    load_csv,
    load_csv_columns,
    load_joint,
    write_csv,
)
from .errors import ImpshapError
from .forest import (
    LOCAL_MDI,
    SAABAS,
    build_forest,
    build_forests,
    correlation_report,
    global_mdi,
    local_mdi,
    saabas,
)
from .impurity import ENTROPY, KINDS, subset_lattice
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
    GAME_LABELS,
    TUGame,
    check_strong_monotonicity,
    game_global_info,
    lattice_games,
    shapley_exact,
    shapley_payoffs,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


class UsageError(ImpshapError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a UsageError, so it prints one line."""

    def error(self, message):
        raise UsageError(f"{message} (see {self.prog} --help)")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
        # looked up per call, so a replaced `cmd_*` attribute takes effect
        command = globals()["cmd_" + args.command.replace("-", "_")]
        return command(args, argv)
    except SystemExit as exc:  # --help and --version print, then exit
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except ImpshapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="impshap",
        description="Tree-ensemble importances, exact Shapley values and "
        "their population-level identities.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, forest=True):
        names = BUILTIN_DATASETS if forest else BUILTIN_JOINTS
        p.add_argument("--data", required=True,
                       help=f"builtin name ({', '.join(names)}) or a CSV path")
        if forest:
            p.add_argument("--k", type=int, default=1,
                           help="candidate features drawn per node (default 1)")
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

    p = sub.add_parser("local", help="local importance scores from a forest")
    common(p)
    p.add_argument("--method", default=LOCAL_MDI,
                   help=f"comma list of {LOCAL_MDI},{SAABAS} (default {LOCAL_MDI})")
    _instance_flags(p)

    p = sub.add_parser("saabas", help="prediction-decomposition scores")
    common(p)
    _instance_flags(p)

    p = sub.add_parser("shapley", help="exact Shapley values on a joint")
    common(p, forest=False)
    p.add_argument("--instance", action="append", default=None,
                   help="comma-separated category codes; local game")

    p = sub.add_parser("pop-mdi", help="population MDI formulas on a joint")
    common(p, forest=False)
    p.add_argument("--instance", action="append", default=None,
                   help="comma-separated category codes; local measure")

    p = sub.add_parser("verify", help="run the identity suite on a joint")
    common(p, forest=False)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="decomposition tolerance (default 1e-9)")

    p = sub.add_parser("compare", help="correlate local measures across K")
    common(p)
    p.add_argument("--k-sweep", default=None,
                   help="range like 1..7 or list like 1,2,4; overrides --k")
    _instance_flags(p)

    p = sub.add_parser("gen-data", help="write a builtin dataset as CSV")
    p.add_argument("--data", required=True, help=", ".join(BUILTIN_DATASETS))
    p.add_argument("--n", type=int, default=200,
                   help="sample size for sampled generators (default 200)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

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
    """A builtin name first, like `_resolve_joint`; `./led` reaches a file
    named led."""
    name = args.data
    if name not in BUILTIN_DATASETS and os.path.exists(name):
        return load_csv(name)
    try:
        return builtin_dataset(
            name, n=getattr(args, "n", 200), seed=getattr(args, "seed", 0)
        )
    except (ValueError, ImportError) as exc:  # unknown name, missing package
        raise UsageError(str(exc)) from exc


def _resolve_joint(args):
    name = args.data
    if name in BUILTIN_JOINTS:
        return builtin_joint(name)
    if os.path.exists(name):
        return load_joint(name)
    raise UsageError(
        f"--data {name!r} is neither a builtin joint ({', '.join(BUILTIN_JOINTS)}) "
        "nor an existing CSV file"
    )


def _check_codes(x, arities, what):
    """An instance's value at each categorical feature must be an integer
    code within its arity."""
    for m, (v, arity) in enumerate(zip(x, arities)):
        if arity is None:
            continue
        if not float(v).is_integer():
            raise UsageError(
                f"{what}: value {v} for feature {m} is not an integer code"
            )
        if not 0 <= v < arity:
            raise UsageError(
                f"{what}: value {v} out of range for feature {m} (arity {arity})"
            )
    return x


def _parse_instances(texts, arities):
    """Parse --instance flags: one value per feature, a code unless numeric."""
    rows = []
    for text in texts:
        what = f"--instance {text!r}"
        values = text.split(",")
        if len(values) != len(arities):
            raise UsageError(
                f"{what} has {len(values)} values, expected {len(arities)}"
            )
        x = []
        for m, (v, arity) in enumerate(zip(values, arities)):
            try:
                x.append(float(v) if arity is None else int(v))
            except ValueError:
                raise UsageError(f"bad {what}: " + (
                    "values must be integer codes" if arity is not None
                    else f"value {v!r} for feature {m} is not a number"
                )) from None
        rows.append(_check_codes(x, arities, what))
    return rows


def _resolve_instances(args, dataset):
    """Instances for local scoring, as one (n, p) float64 array: the
    --instance flags, the feature columns of an --instances file (a last
    extra column, such as the output, is dropped), or the training rows."""
    arities = dataset.arities[:-1]
    if getattr(args, "instance", None):
        return np.array(_parse_instances(args.instance, arities), dtype=np.float64)
    cols = dataset.data[:-1]
    if getattr(args, "instances", None):
        columns, data, _ = load_csv_columns(args.instances)  # no rows: exit 2
        want = dataset.n_features
        if len(columns) not in (want, want + 1):
            raise UsageError(
                f"instance file has {len(columns)} columns, "
                f"expected {want} or {want + 1}"
            )
        cols = data[:want]
        for i, row in enumerate(zip(*cols)):
            _check_codes(row, arities, f"row {i + 1} of {args.instances}")
    return np.column_stack(cols).astype(np.float64, copy=False)


def _forest_ks(args, n_features):
    """K values from --k-sweep (or --k), each in 1..p; checks --trees too."""
    if args.trees < 1:
        raise UsageError(f"--trees must be at least 1, got {args.trees}")
    text = getattr(args, "k_sweep", None)
    flag = "--k" if text is None else "--k-sweep"
    if text is None:
        ks = [args.k]
    else:
        text = text.strip()
        try:
            if ".." in text:
                lo, hi = text.split("..", 1)
                # a range, not a list, until every K is checked: the loop
                # below stops at the first K out of 1..p, whatever hi is
                ks = range(int(lo), int(hi) + 1)
            else:
                ks = [int(v) for v in text.split(",")]
        except ValueError as exc:
            raise UsageError(f"bad --k-sweep {text!r}: {exc}") from exc
        if not ks:
            raise UsageError(f"bad --k-sweep {text!r}: empty range")
    for k in ks:
        if not 1 <= k <= n_features:
            raise UsageError(f"{flag} must be in 1..{n_features}, got {k}")
    return list(ks)


def _provenance(args, argv, fingerprint):
    return {
        "version": __version__,
        "command_line": "impshap " + " ".join(argv),
        "seed": getattr(args, "seed", None),
        "dataset_fingerprint": fingerprint,
    }


# the stdlib's one-line C encoder: a list of numbers comes out as
# "[a, b, ...]", and the text of a number never holds ", "
_encode = json.JSONEncoder(sort_keys=True).encode
_FLOATS = frozenset((float,))
_NUMBERS = frozenset((int, float))


def _json_text(report) -> str:
    """What the stdlib's `json.dumps` writes for `report` with an indent of
    2 and sorted keys, byte for byte.

    Dicts and lists are walked here in the stdlib's layout, into one list
    of pieces joined once; a list of plain ints and floats (no bool, no
    subclass) is one C-encoder call with its separators re-indented.  The
    text of a list of floats is kept, keyed on its depth and float64
    bytes, so a score row met again costs one lookup and one reference: a
    report costs per distinct row.  The key is the bytes, not the values,
    because 0.0 == -0.0 and 1 == 1.0 print differently and NaN != NaN."""
    memo = {}
    pieces = []
    put = pieces.append

    def write(o, level):
        if isinstance(o, dict):
            if not o:
                put("{}")
                return
            inner = "\n" + "  " * (level + 1)
            sep = "{" + inner
            for key, value in sorted(o.items()):
                if not isinstance(key, str):
                    if key is not None and not isinstance(key, (int, float)):
                        raise TypeError(
                            "keys must be str, int, float, bool or None, "
                            f"not {key.__class__.__name__}"
                        )
                    key = _encode(key)  # as the stdlib names such keys
                put(f"{sep}{_encode(key)}: ")
                write(value, level + 1)
                sep = "," + inner
            put("\n" + "  " * level + "}")
            return
        if not isinstance(o, (list, tuple)):
            put(_encode(o))
            return
        if not o:
            put("[]")
            return
        inner = "\n" + "  " * (level + 1)
        types = set(map(type, o))
        if not types <= _NUMBERS:
            sep = "[" + inner
            for v in o:
                put(sep)
                write(v, level + 1)
                sep = "," + inner
            put("\n" + "  " * level + "]")
            return
        key = (level, struct.pack("%dd" % len(o), *o)) if types == _FLOATS else None
        text = memo.get(key)  # None is never a key
        if text is None:
            body = _encode(o)[1:-1].replace(", ", "," + inner)
            text = f"[{inner}{body}\n{'  ' * level}]"
            if key is not None:
                memo[key] = text
        put(text)

    write(report, 0)
    return "".join(pieces)


def _emit(args, argv, fingerprint, results, table_rows, table_header) -> None:
    """Write the report in the requested format, atomically when to a file.

    `table_rows` is iterated only for CSV, so callers pass a generator."""
    report = {
        "provenance": _provenance(args, argv, fingerprint),
        "command": args.command,
        "results": results,
    }
    if args.format == "json":
        body = _json_text(report) + "\n"
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
    umask = os.umask(0)
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".impshap-")
        with os.fdopen(fd, "w") as fh:
            # mkstemp makes the file 0600; give it the mode open() would
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(body)
        os.replace(tmp, path)
    except OSError as exc:  # name the path asked for, not the temp file
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _fmt(x: float | None) -> str:
    """A CSV field: the float's repr, or empty for an undefined value."""
    return "" if x is None else repr(float(x))


# ---------------------------------------------------------------------------
# commands


def cmd_global(args, argv) -> int:
    dataset = _resolve_dataset(args)
    ks = _forest_ks(args, dataset.n_features)
    names = dataset.feature_names()
    per_k = []
    # not zipped with ks: zip would hold each forest while the next K grows
    for forest in build_forests(dataset, ks, args.trees, args.impurity, args.seed):
        k, scores = forest.k, global_mdi(forest, normalize=args.normalize)
        del forest  # before the next K's build: one forest at a time
        per_k.append(
            {"k": k, "scores": scores.tolist(), "features": list(names)}
        )
    rows = (
        (item["k"], m, names[m], _fmt(v))
        for item in per_k for m, v in enumerate(item["scores"])
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


def _check_class_index(args, dataset):
    """--class-index must name an output class (checked before any growth)."""
    n_classes = dataset.arities[-1]  # None for a numeric output, refused later
    if args.class_index is None or n_classes is None:
        return
    if not 0 <= args.class_index < n_classes:
        raise UsageError(
            f"--class-index must be in 0..{n_classes - 1}, got {args.class_index}"
        )


def _local(args, argv, methods) -> int:
    """Score the instances by each of `methods` on one forest; one report."""
    dataset = _resolve_dataset(args)
    _forest_ks(args, dataset.n_features)
    if SAABAS in methods:
        _check_class_index(args, dataset)
    instances = _resolve_instances(args, dataset)
    forest = build_forest(
        dataset, args.k, args.trees, impurity=args.impurity, seed=args.seed
    )
    matrices = [local_mdi(forest, instances) if method == LOCAL_MDI
                else saabas(forest, instances, class_index=args.class_index)
                for method in methods]
    rows = (
        (inst_id, m, _fmt(v), mat.method)
        for mat in matrices
        for inst_id, scores in enumerate(mat.scores.tolist())
        for m, v in enumerate(scores)
    )
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
    for method in methods:  # checked before any growth
        if method not in (LOCAL_MDI, SAABAS):
            raise UsageError(
                f"unknown method {method!r}; expected {LOCAL_MDI} or {SAABAS}"
            )
    return _local(args, argv, methods)


def cmd_saabas(args, argv) -> int:
    return _local(args, argv, [SAABAS])


def cmd_shapley(args, argv) -> int:
    joint = _resolve_joint(args)
    xs = _parse_instances(args.instance, joint.input_arities) if args.instance else None
    global_game, local_values = lattice_games(subset_lattice(joint, args.impurity, xs))
    if xs:
        label = GAME_LABELS[args.impurity][1]
        payload = [
            {"instance": list(x), **shapley_exact(TUGame(values, label)).to_json_dict()}
            for x, values in zip(xs, local_values)
        ]
    else:
        payload = [shapley_exact(global_game).to_json_dict()]
    _emit(args, argv, joint.fingerprint(), {"games": payload},
          _score_rows(payload, "payoffs"), ("instance", "feature", "payoff"))
    return EXIT_OK


def _score_rows(payload, key):
    """CSV rows (instance, feature, value) of per-game or per-instance items."""
    return (
        (",".join(map(str, item.get("instance", ()))), m, _fmt(v))
        for item in payload for m, v in enumerate(item[key])
    )


def cmd_pop_mdi(args, argv) -> int:
    joint = _resolve_joint(args)
    if args.instance:
        xs = _parse_instances(args.instance, joint.input_arities)
        scores = pop_local_mdi_batch(joint, xs, args.impurity)
        payload = [
            PopulationImportance(row, args.impurity, instance=x).to_json_dict()
            for x, row in zip(xs, scores)
        ]
    else:
        payload = [pop_global_mdi(joint, args.impurity).to_json_dict()]
    _emit(args, argv, joint.fingerprint(), {"importances": payload},
          _score_rows(payload, "scores"), ("instance", "feature", "score"))
    return EXIT_OK


def cmd_verify(args, argv) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise UsageError(f"--tol must be a finite number > 0, got {args.tol!r}")
    joint = _resolve_joint(args)
    identities, blocks = run_identity_suite(
        joint, impurity=args.impurity, tol=args.tol, data_name=args.data
    )
    rows = (
        (item["name"], _fmt(item["max_residual"]), _fmt(item["tolerance"]),
         item["passed"])
        for item in identities
    )
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
        identities.append({"name": name, "max_residual": float(residual),
                           "tolerance": tolerance, "passed": bool(residual < tolerance)})

    # one lattice walk over every positive instance feeds every identity;
    # each Shapley check still sets the MDI weight sum over conditional
    # decreases against the Shapley sum over marginal contributions, the
    # local games in one batch
    lattice = subset_lattice(joint, impurity, joint.positive_instances())
    global_game, local_values = lattice_games(lattice)
    pop = mdi_weight_sum(lattice.mean)[0]
    sh = shapley_exact(global_game).payoffs
    record("global-shapley-equivalence", np.abs(pop - sh).max(), 1e-10)
    local = mdi_weight_sum(lattice.at)
    sl = shapley_payoffs(local_values)
    record("local-shapley-equivalence", float(np.abs(local - sl).max()), 1e-10)

    dec = check_decompositions(joint, impurity, tol=tol, lattice=lattice)
    record("efficiency", dec.efficiency_residual, tol)
    record("instance-decomposition", dec.instance_residual, tol)
    record("double-decomposition", dec.double_sum_residual, tol)

    eq = verify_global_local_equivalence(joint, lattice=lattice)
    record("global-local-relevance-agreement", 0.0 if eq.passed else 1.0, 1.0)
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
    marginal-contribution order once trees compete for splits (K = 2).

    The mutual informations are the marginal contributions of the global
    information games, v[B | X_m] - v[B] = I(Y; X_m | X_B)."""
    tables = example_tables()
    games = [game_global_info(tables[f"table1-y{y}"]) for y in (1, 2)]
    mi = {}
    for y, game in enumerate(games, 1):
        v = game.values
        for m, b in ((1, 2), (2, 1)):
            bit, given = 1 << (m - 1), 1 << (b - 1)
            mi[f"I(Y{y};X{m})"] = float(v[bit] - v[0])
            mi[f"I(Y{y};X{m}|X{b})"] = float(v[given | bit] - v[given])
    imp = {}
    for name in ("table1-y1", "table1-y2"):
        forest = build_forest(builtin_dataset(name), k=2, n_trees=1, seed=0)
        imp[name] = [float(v) for v in global_mdi(forest)]
    # x1 contributes at least as much to Y1 as to Y2, x2 at most as much
    x1 = check_strong_monotonicity(games[0], games[1])[0]
    x2 = check_strong_monotonicity(games[1], games[0])[1]
    return {
        "mutual_informations": mi,
        "k2_importances": imp,
        "premise_holds": {"x1": x1.premise_holds, "x2": x2.premise_holds},
        "violated": {"x1": imp["table1-y1"][0] < imp["table1-y2"][0],
                     "x2": imp["table1-y1"][1] > imp["table1-y2"][1]},
    }


def cmd_compare(args, argv) -> int:
    dataset = _resolve_dataset(args)
    ks = _forest_ks(args, dataset.n_features)
    _check_class_index(args, dataset)
    instances = _resolve_instances(args, dataset)
    per_k = []
    for forest in build_forests(dataset, ks, args.trees, args.impurity, args.seed):
        k, lm = forest.k, local_mdi(forest, instances)
        sb = saabas(forest, instances, class_index=args.class_index)
        del forest
        per_k.append({"k": k, **correlation_report(lm, sb).to_json_dict()})
    rows = (
        (item["k"], metric,
         *(_fmt(item["summary"][metric][q]) for q in ("mean", "min", "max")),
         item["n_undefined"])
        for item in per_k for metric in ("pearson", "spearman")
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
    provenance = _provenance(args, argv, dataset.fingerprint())
    write_csv(dataset, args.out,
              provenance=[f"{key}: {value}" for key, value in provenance.items()])
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
