"""Datasets: the LED display problem, the worked binary examples, CSV I/O.

Datasets are column stores: one numpy array per column, output column last.
Categorical columns hold nonnegative integer codes below their arity;
numeric columns hold floats and must be quantized before any of the
population machinery can use them.
"""

import csv
import hashlib
import io
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ArityOverflow, EmptyDataset, InvalidValue, ParseError, TableTooLarge
from .info_theory import MAX_CELLS, JointDistribution, cell_sums, joint_from_samples

CATEGORICAL = "categorical"
NUMERIC = "numeric"

MAX_ARITY = 64
# names `builtin_dataset` and `builtin_joint` resolve
BUILTIN_DATASETS = ("led", "led-sampled", "table1-y1", "table1-y2", "table2", "digits")
BUILTIN_JOINTS = ("led", "table1-y1", "table1-y2", "table2")

# Seven-segment encoding of the digits 0..9.  Bit order used throughout:
# (top, top-left, top-right, middle, bottom-left, bottom-right, bottom).
LED_PATTERNS = (
    (1, 1, 1, 0, 1, 1, 1),  # 0
    (0, 0, 1, 0, 0, 1, 0),  # 1
    (1, 0, 1, 1, 1, 0, 1),  # 2
    (1, 0, 1, 1, 0, 1, 1),  # 3
    (0, 1, 1, 1, 0, 1, 0),  # 4
    (1, 1, 0, 1, 0, 1, 1),  # 5
    (1, 1, 0, 1, 1, 1, 1),  # 6
    (1, 0, 1, 0, 0, 1, 0),  # 7
    (1, 1, 1, 1, 1, 1, 1),  # 8
    (1, 1, 1, 1, 0, 1, 1),  # 9
)

LED_SEGMENT_NAMES = (
    "top",
    "top_left",
    "top_right",
    "middle",
    "bottom_left",
    "bottom_right",
    "bottom",
)


@dataclass(frozen=True)
class ColumnMeta:
    name: str
    kind: str  # CATEGORICAL or NUMERIC
    arity: int | None = None
    bin_edges: tuple | None = None  # recorded by quantize


class Dataset:
    """Rectangular sample with per-column metadata and optional row weights."""

    def __init__(self, columns, data, weights=None, name=None):
        columns = list(columns)
        data = [np.asarray(col) for col in data]
        if len(columns) != len(data):
            raise ValueError("column metadata and data arrays disagree in count")
        if len(columns) < 2:
            raise ValueError("need at least one feature column and the output")
        n_rows = {len(col) for col in data}
        if len(n_rows) != 1:
            raise ValueError(f"ragged columns: row counts {sorted(n_rows)}")
        self.n_rows = n_rows.pop()
        checked = []
        for meta, col in zip(columns, data):
            if meta.kind == CATEGORICAL:
                if meta.arity is None or meta.arity < 1:
                    raise ValueError(f"column {meta.name!r} needs a positive arity")
                if meta.arity > MAX_ARITY:
                    raise ArityOverflow(
                        f"column {meta.name!r} declares {meta.arity} categories"
                    )
                if col.dtype.kind not in "biu":
                    values = col.astype(np.float64)
                    bad = ~np.isfinite(values) | (values != np.floor(values))
                    if bad.any():
                        raise InvalidValue(
                            f"column {meta.name!r} holds {float(values[bad.argmax()])!r}, "
                            "not an integer category code"
                        )
                    col = values
                col = col.astype(np.int64)
                if self.n_rows and (col.min() < 0 or col.max() >= meta.arity):
                    raise ValueError(
                        f"column {meta.name!r} has codes outside 0..{meta.arity - 1}"
                    )
            elif meta.kind == NUMERIC:
                col = col.astype(np.float64)
                meta = replace(meta, arity=None)
            else:
                raise ValueError(f"unknown column kind {meta.kind!r}")
            col.setflags(write=False)
            checked.append((meta, col))
        self.columns = [m for m, _ in checked]
        self.data = [c for _, c in checked]
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (self.n_rows,):
                raise ValueError("weights must have one entry per row")
            if not (np.isfinite(weights) & (weights >= 0.0)).all():
                raise InvalidValue("weights must be finite nonnegative numbers")
            weights.setflags(write=False)
        self.weights = weights
        self.name = name

    @property
    def n_features(self) -> int:
        return len(self.columns) - 1

    @property
    def output(self) -> np.ndarray:
        return self.data[-1]

    @property
    def output_meta(self) -> ColumnMeta:
        return self.columns[-1]

    @property
    def arities(self) -> tuple:
        return tuple(c.arity for c in self.columns)

    def feature_names(self) -> tuple:
        return tuple(c.name for c in self.columns[:-1])

    def fingerprint(self) -> str:
        """Content hash over schema, rows and weights."""
        h = hashlib.sha256()
        for meta in self.columns:
            h.update(f"{meta.name}|{meta.kind}|{meta.arity}".encode())
        for col in self.data:
            h.update(col.tobytes())
        if self.weights is not None:
            h.update(self.weights.tobytes())
        return h.hexdigest()[:16]

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Dataset(n_rows={self.n_rows}, n_features={self.n_features}{tag})"


def led_population() -> Dataset:
    """The 10-row noiseless LED population: one row per digit."""
    cols = [
        ColumnMeta(name, CATEGORICAL, arity=2) for name in LED_SEGMENT_NAMES
    ] + [ColumnMeta("digit", CATEGORICAL, arity=10)]
    data = [np.array([LED_PATTERNS[d][s] for d in range(10)]) for s in range(7)]
    data.append(np.arange(10))
    return Dataset(cols, data, name="led")


def led_sampled(n: int, seed: int = 0) -> Dataset:
    """n i.i.d. uniform digits with their exact segment patterns.

    Refuses, before allocating, n whose n x 8 cells exceed MAX_CELLS.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    width = len(LED_SEGMENT_NAMES) + 1
    if n * width > MAX_CELLS:
        raise TableTooLarge(
            f"{n} samples x {width} columns exceed the {MAX_CELLS}-cell limit"
        )
    rng = np.random.default_rng(seed)
    digits = rng.integers(0, 10, size=n)
    cols = [
        ColumnMeta(name, CATEGORICAL, arity=2) for name in LED_SEGMENT_NAMES
    ] + [ColumnMeta("digit", CATEGORICAL, arity=10)]
    patterns = np.array(LED_PATTERNS)
    data = [patterns[digits, s] for s in range(7)] + [digits]
    return Dataset(cols, data, name=f"led-sampled-{n}-seed{seed}")


# Conditional rates P(Y=1 | X1, X2) for the two-output worked example;
# inputs are uniform on {0,1}^2.
_TABLE1_Y1 = {(0, 0): 0.1, (0, 1): 0.5, (1, 0): 0.9, (1, 1): 0.4}
_TABLE1_Y2 = {(0, 0): 0.1, (0, 1): 0.8, (1, 0): 0.7, (1, 1): 0.3}
# Single binary input whose local score at x1=0 is negative.
_TABLE2 = {(0,): 0.5, (1,): 0.0}


def _joint_from_rates(rates, input_arities, name) -> JointDistribution:
    arities = tuple(input_arities) + (2,)
    table = np.zeros(arities)
    n_inputs = float(np.prod(input_arities))
    for combo, rate in rates.items():
        table[combo + (1,)] = rate / n_inputs
        table[combo + (0,)] = (1.0 - rate) / n_inputs
    return JointDistribution(arities, table, name=name)


def example_tables() -> dict:
    """The exact joints of the worked binary examples, by name."""
    return {
        "table1-y1": _joint_from_rates(_TABLE1_Y1, (2, 2), "table1-y1"),
        "table1-y2": _joint_from_rates(_TABLE1_Y2, (2, 2), "table1-y2"),
        "table2": _joint_from_rates(_TABLE2, (2,), "table2"),
    }


def dataset_from_joint(j: JointDistribution, names=None, name=None) -> Dataset:
    """One weighted row per positive-probability cell; the exact population."""
    if names is None:
        names = [f"x{i + 1}" for i in range(j.p)] + ["y"]
    cols = [
        ColumnMeta(n, CATEGORICAL, arity=a) for n, a in zip(names, j.arities)
    ]
    cells = np.argwhere(j.table > 0.0)
    weights = j.table[tuple(cells.T)]
    data = [cells[:, k] for k in range(j.p + 1)]
    return Dataset(cols, data, weights=weights, name=name or j.name)


def expand_to_rows(j: JointDistribution, n: int, names=None, name=None) -> Dataset:
    """Unweighted population dataset of n rows; requires n*P(cell) integral."""
    counts = j.table.reshape(-1) * n
    rounded = np.rint(counts)
    if np.abs(counts - rounded).max() > 1e-9:
        raise ValueError(f"{n} rows cannot realize the joint exactly")
    if names is None:
        names = [f"x{i + 1}" for i in range(j.p)] + ["y"]
    cols = [
        ColumnMeta(nm, CATEGORICAL, arity=a) for nm, a in zip(names, j.arities)
    ]
    configs = np.array(
        np.unravel_index(np.arange(counts.size), j.arities)
    ).T  # (cells, vars)
    reps = rounded.astype(np.int64)
    rows = np.repeat(configs, reps, axis=0)
    data = [rows[:, k] for k in range(j.p + 1)]
    return Dataset(cols, data, name=name or j.name)


def random_joint(
    seed: int,
    p: int | None = None,
    max_arity: int = 3,
    zero_fraction: float = 0.25,
    append_irrelevant: bool | None = None,
) -> JointDistribution:
    """Small random joint for property tests, deterministic in `seed`.

    A fraction of cells is zeroed to exercise zero-probability contexts;
    optionally an input independent of everything else is appended so the
    null-player paths get exercised too.
    """
    rng = np.random.default_rng(seed)
    if p is None:
        p = int(rng.integers(2, 5))
    arities = [int(rng.integers(2, max_arity + 1)) for _ in range(p)]
    y_arity = int(rng.integers(2, max_arity + 1))
    table = rng.random(tuple(arities) + (y_arity,))
    if zero_fraction > 0.0:
        drop = rng.random(table.shape) < zero_fraction
        # never drop everything
        if drop.all():
            drop.reshape(-1)[0] = False
        table[drop] = 0.0
    table /= table.sum()
    if append_irrelevant is None:
        append_irrelevant = bool(rng.integers(0, 2))
    if append_irrelevant:
        extra = rng.random(2) + 0.1
        extra /= extra.sum()
        table = table[..., None, :] * extra[:, None]
        arities = arities + [2]
    return JointDistribution(
        tuple(arities) + (y_arity,), table, name=f"random-{seed}"
    )


def quantize(dataset: Dataset, column: str, bins: int) -> Dataset:
    """Equal-width binning of the numeric column named `column` over its
    observed range.

    The replacement column is categorical with `bins` categories and the
    interior edges recorded in its metadata.
    """
    if bins < 2:
        raise ValueError("need at least 2 bins")
    names = [meta.name for meta in dataset.columns]
    if column not in names:
        raise ValueError(f"no column named {column!r}")
    idx = names.index(column)
    meta = dataset.columns[idx]
    if meta.kind != NUMERIC:
        raise ValueError(f"column {meta.name!r} is already categorical")
    values = dataset.data[idx]
    if not np.isfinite(values).all():
        raise InvalidValue(f"column {meta.name!r} holds a non-finite value")
    lo, hi = float(values.min()), float(values.max())
    if not np.isfinite(hi - lo):
        raise InvalidValue(f"column {meta.name!r} spans a range too wide to bin")
    if hi <= lo:
        edges = ()
        codes = np.zeros(dataset.n_rows, dtype=np.int64)
    else:
        width = (hi - lo) / bins
        edges = tuple(lo + width * k for k in range(1, bins))
        codes = np.minimum(((values - lo) / width).astype(np.int64), bins - 1)
    new_meta = ColumnMeta(meta.name, CATEGORICAL, arity=bins, bin_edges=edges)
    columns = list(dataset.columns)
    data = list(dataset.data)
    columns[idx] = new_meta
    data[idx] = codes
    return Dataset(columns, data, weights=dataset.weights, name=dataset.name)


def quantize_all(dataset: Dataset, bins: int) -> Dataset:
    """Quantize every numeric column."""
    out = dataset
    for meta in dataset.columns:
        if meta.kind == NUMERIC:
            out = quantize(out, meta.name, bins)
    return out


# Characters that send a file down the row path: str.splitlines breaks lines
# at \v, \f and \x1c-\x1e where csv does not, and np.loadtxt reads \x1c-\x1f
# as blanks where int() and float() refuse them.
_ROW_PATH_CHARS = "\v\f\x1c\x1d\x1e\x1f"


def _read_text(path) -> str:
    """A file's text as UTF-8 with an optional byte-order mark (utf-8-sig),
    decoded so that an error names its byte offset in the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start}: not valid UTF-8") from None
    return text.removeprefix("\ufeff")


@dataclass(frozen=True)
class _CsvText:
    """A CSV read once: its header, the '#kind:' rows right below it, and
    its text, whose data part starts at offset `start`.

    The header is the first row that is not empty and does not start with
    '#'; later such rows are data and must have as many fields as the
    header.  Every other row is a comment.
    """

    path: object
    text: str
    header: list
    kind_rows: list
    start: int

    def load(self, dtypes):
        """The data columns from one np.loadtxt call, column c read as
        dtypes[c], or None where the row path must read the file.

        The data part must be ASCII (np.loadtxt takes some other letters for
        digits) without _ROW_PATH_CHARS, a line there must fit csv's field
        size limit, and a comment line must not hold a quote, which could
        open a field that runs on over the lines below.  Each data line must
        come back as one row: that keeps out records spanning lines and any
        line np.loadtxt would skip, such as a blank one.
        """
        body = self.text[self.start:]
        if (not body.isascii() or any(c in body for c in _ROW_PATH_CHARS)
                or ('"' in body and "#" in body)):
            return None
        lines = [s for s in body.splitlines() if s and s[0] != "#"]
        if not lines or max(map(len, lines)) > csv.field_size_limit():
            return None
        dtype = np.dtype([(f"c{c}", d) for c, d in enumerate(dtypes)])
        try:
            with warnings.catch_warnings():
                # numpy 1.23 to 1.26 truncate an integer field that only
                # float() reads, with a DeprecationWarning; as an error it
                # becomes numpy's usual ValueError.
                warnings.simplefilter("error", DeprecationWarning)
                rows = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                                  quotechar='"', ndmin=1)
        except ValueError:
            return None
        if len(rows) != len(lines):
            return None
        return [np.ascontiguousarray(rows[name]) for name in dtype.names]

    def scan(self):
        """The row path: the data rows as columns of cells, with the line
        number of each, from one csv row and one field count at a time."""
        rows = list(_records(self.path, io.StringIO(self.text, newline="")))
        lines = [r for r, row in enumerate(rows, 1) if row and not row[0].startswith("#")]
        lines = lines[1:]  # the first is the header
        if not lines:
            raise EmptyDataset(f"{self.path}: no data rows")
        body = [rows[r - 1] for r in lines]
        for line, row in zip(lines, body):
            if len(row) != len(self.header):
                raise ParseError(
                    f"{self.path}:{line}: expected {len(self.header)} fields, got {len(row)}"
                )
        return list(zip(*body)), lines


def _records(path, fh):
    """The csv records of `fh`; a csv.Error (such as a field longer than
    csv.field_size_limit()) is a ParseError naming the line."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from None


def _read_csv(path) -> _CsvText:
    """Read a CSV once and parse its header and kind rows with csv."""
    text = _read_text(path)
    fh = io.StringIO(text, newline="")
    rows = enumerate(_records(path, fh), 1)
    for _, row in rows:
        if row and not row[0].startswith("#"):
            break
    else:
        raise ParseError(f"{path}: no header row")
    header, kind_rows, start = [h.strip() for h in row], [], fh.tell()
    for line, row in rows:
        if not row or not row[0].startswith("#"):
            break
        if row[0].startswith("#kind:"):
            kind_rows.append((line, row))
        start = fh.tell()
    return _CsvText(path, text, header, kind_rows, start)


def _parse(path, name, cells, lines, conv=float) -> np.ndarray:
    """A column of numbers, or of integers with conv=int; a cell that does
    not convert is a ParseError naming its line."""
    try:
        return np.array(list(map(conv, cells)))
    except ValueError:
        for line, cell in zip(lines, cells):
            try:
                conv(cell)
            except ValueError:
                raise ParseError(
                    f"{path}:{line}: column {name!r}: cannot parse {cell!r}"
                ) from None
        raise


def _codes(path, name, cells, lines) -> np.ndarray:
    """A column of category codes: nonnegative integers."""
    codes = _parse(path, name, cells, lines, int)
    if codes.min() < 0:
        r = int(np.argmax(codes < 0))
        raise ParseError(
            f"{path}:{lines[r]}: column {name!r}: negative category code {cells[r]!r}"
        )
    return codes


def _kinds(table) -> list | None:
    """The column kinds of the last '#kind:' row, None without one."""
    kinds = None
    for line, row in table.kind_rows:
        declared = [row[0][len("#kind:"):].strip()] + [c.strip() for c in row[1:]]
        if len(declared) != len(table.header):
            raise ParseError(
                f"{table.path}:{line}: kind row has {len(declared)} entries, "
                f"header has {len(table.header)}"
            )
        for c, k in enumerate(declared):
            if k not in (CATEGORICAL, NUMERIC):
                raise ParseError(
                    f"{table.path}:{line}: column {c + 1}: unknown kind {k!r}"
                )
        kinds = declared
    return kinds


def _table_columns(table):
    """(columns, data, weights) of a CSV read as a dataset, of any width.

    The arrays come from one np.loadtxt pass where a kind row names every
    kind and every categorical code lies in 0..MAX_ARITY-1, and from the
    row path otherwise, which infers the kinds of a file without a kind row
    and names the cell of any error.  Each column's metadata is then read
    off its array: int64 codes are categorical with arity max + 1, float64
    numbers numeric."""
    try:
        kinds = _kinds(table)
    except ParseError:
        table.scan()  # a wrong field count is reported first
        raise
    path, header = table.path, table.header
    weighted = header[-1] == "__weight__"
    names = header[:len(header) - weighted]
    cols = None
    if kinds is not None:
        cols = table.load([np.int64 if k == CATEGORICAL else np.float64
                           for k in kinds[:len(names)]] + [np.float64] * weighted)
    if cols is None or any(col.dtype == np.int64 and (col.min() < 0 or col.max() >= MAX_ARITY)
                           for col in cols):
        cells, lines = table.scan()
        # the weights are parsed first, so theirs is the error reported
        weights = [_parse(path, header[-1], cells[-1], lines)] if weighted else []
        cols = [_parse_column(path, name, c, lines, kinds[i] if kinds else None)
                for i, (name, c) in enumerate(zip(names, cells))] + weights
    columns = [ColumnMeta(name, NUMERIC) if col.dtype == np.float64
               else ColumnMeta(name, CATEGORICAL, arity=int(col.max()) + 1)
               for name, col in zip(names, cols)]
    return columns, cols[:len(names)], cols[-1] if weighted else None


def _dataset(table) -> Dataset:
    columns, data, weights = _table_columns(table)
    if len(columns) < 2:
        raise ParseError(f"{table.path}: need at least one feature column and the output")
    return Dataset(columns, data, weights=weights, name=str(table.path))


def _parse_column(path, name, cells, lines, kind):
    """A column's int64 codes or float64 numbers; without a kind, codes
    where every cell is an integer code in 0..MAX_ARITY-1."""
    if kind == CATEGORICAL:
        codes = _codes(path, name, cells, lines)
        arity = int(codes.max()) + 1
        if arity > MAX_ARITY:
            raise ArityOverflow(
                f"{path}: column {name!r}: {arity} categories exceed {MAX_ARITY}"
            )
        return codes
    if kind is None:  # infer
        try:
            codes = _codes(path, name, cells, lines)
            if codes.max() < MAX_ARITY:
                return codes
        except ParseError:
            pass
    return _parse(path, name, cells, lines)


def load_csv(path) -> Dataset:
    """Load a dataset CSV: header row, optional '#kind:' row, data rows.

    Without a kind row, a column is categorical when every value is an
    integer code in 0..MAX_ARITY-1, and numeric otherwise.  Other rows
    starting with '#' are comments.
    """
    return _dataset(_read_csv(path))


def load_csv_columns(path):
    """`load_csv`'s (columns, data, weights), also of a one-column CSV."""
    return _table_columns(_read_csv(path))


def write_csv(dataset: Dataset, path, provenance=None) -> None:
    """Write a dataset in the format `load_csv` reads back."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = [c.name for c in dataset.columns]
        if dataset.weights is not None:
            header.append("__weight__")
        writer.writerow(header)
        kinds = [c.kind for c in dataset.columns]
        if dataset.weights is not None:
            kinds.append(CATEGORICAL)  # placeholder; trimmed by the loader
        writer.writerow([f"#kind: {kinds[0]}"] + kinds[1:])
        if provenance:
            for line in provenance:
                writer.writerow([f"# {line}"])
        cols = [col.tolist() if meta.kind == CATEGORICAL else map(repr, col.tolist())
                for meta, col in zip(dataset.columns, dataset.data)]
        if dataset.weights is not None:
            cols.append(map(repr, dataset.weights.tolist()))
        writer.writerows(zip(*cols))


def _joint(table) -> JointDistribution:
    path, header = table.path, table.header
    if len(header) < 3 or header[-1] != "probability":
        table.scan()  # a wrong field count is reported first
        raise ParseError(
            f"{path}: expected header (inputs..., output, probability)"
        )
    cols = table.load([np.int64] * (len(header) - 1) + [np.float64])
    if cols is None or min(c.min() for c in cols[:-1]) < 0:
        cells, lines = table.scan()  # names the cell of any error
        cols = [_codes(path, h, c, lines) for h, c in zip(header, cells[:-1])]
        cols.append(_parse(path, header[-1], cells[-1], lines))
    arities = tuple(int(c.max()) + 1 for c in cols[:-1])
    return JointDistribution(
        arities, cell_sums(cols[:-1], arities, cols[-1]), name=str(path)
    )


def load_joint_csv(path) -> JointDistribution:
    """Load a joint distribution from rows of (config..., probability).

    The header names the input variables, then the output, then a final
    column called `probability`.  Arities are inferred from the largest
    code seen per variable; omitted configurations have probability zero
    and repeated ones add up.
    """
    return _joint(_read_csv(path))


def load_joint(path) -> JointDistribution:
    """The joint of a CSV, read once: a joint CSV (last header field
    `probability`) as `load_joint_csv` reads it, any other CSV as the
    empirical joint of the dataset `load_csv` reads from it."""
    table = _read_csv(path)
    if table.header[-1] == "probability":
        return _joint(table)
    return joint_from_samples(_dataset(table))


def write_joint_csv(j: JointDistribution, path, names=None) -> None:
    """Write the positive cells of a joint in the `load_joint_csv` format."""
    if names is None:
        names = [f"x{i + 1}" for i in range(j.p)] + ["y"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + ["probability"])
        cells = np.argwhere(j.table > 0.0).T
        writer.writerows(zip(*cells.tolist(), map(repr, j.table[tuple(cells)].tolist())))


def digits_dataset(n: int | None = None, bins: int = 4, seed: int = 0) -> Dataset:
    """Quantized 8x8 digits images (desk-scale variant).

    Requires scikit-learn for the bundled image data.  Pixels (0..16) are
    quantized to `bins` equal-width categories; a random subset of n rows
    is taken when n is given.
    """
    try:
        from sklearn.datasets import load_digits
    except ImportError as exc:  # pragma: no cover
        raise ImportError(
            "the digits dataset needs scikit-learn (pip install scikit-learn)"
        ) from exc
    bunch = load_digits()
    X, y = bunch.data, bunch.target
    if n is not None:
        rng = np.random.default_rng(seed)
        pick = rng.choice(len(y), size=min(n, len(y)), replace=False)
        pick.sort()
        X, y = X[pick], y[pick]
    cols = [ColumnMeta(f"px{i:02d}", NUMERIC) for i in range(X.shape[1])]
    cols.append(ColumnMeta("digit", CATEGORICAL, arity=10))
    data = [X[:, i] for i in range(X.shape[1])] + [y]
    ds = Dataset(cols, data, name=f"digits-{len(y)}")
    return quantize_all(ds, bins)


def builtin_dataset(name: str, n: int = 200, seed: int = 0) -> Dataset:
    """Resolve a builtin dataset name used by the CLI."""
    tables = example_tables()
    if name == "led":
        return led_population()
    if name == "led-sampled":
        return led_sampled(n, seed)
    if name in ("table1-y1", "table1-y2"):
        return expand_to_rows(tables[name], 40, names=["x1", "x2", "y"], name=name)
    if name == "table2":
        return expand_to_rows(tables[name], 4, names=["x1", "y"], name=name)
    if name == "digits":
        return digits_dataset(n=n, seed=seed)
    raise ValueError(
        f"unknown builtin dataset {name!r}; "
        f"expected one of {', '.join(BUILTIN_DATASETS)}"
    )


def builtin_joint(name: str) -> JointDistribution:
    """Resolve a builtin joint distribution by dataset name."""
    tables = example_tables()
    if name in tables:
        return tables[name]
    if name == "led":
        return joint_from_samples(led_population())
    raise ValueError(
        f"unknown builtin joint {name!r}; expected one of {', '.join(BUILTIN_JOINTS)}"
    )
