"""Dataset generators, worked-example joints, CSV loading and quantization."""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import impshap.data
from impshap.data import (
    ColumnMeta,
    Dataset,
    builtin_dataset,
    dataset_from_joint,
    expand_to_rows,
    led_population,
    led_sampled,
    load_csv,
    load_joint,
    load_joint_csv,
    quantize,
    random_joint,
    write_csv,
    write_joint_csv,
)
from impshap.errors import (
    ArityOverflow,
    EmptyDataset,
    InvalidValue,
    ParseError,
    TableTooLarge,
)
from impshap.info_theory import joint_from_samples

from oracles import (
    dataset_row,
    joint_table_by_rows,
    load_csv_by_rows,
    load_joint_by_rows,
    load_joint_csv_by_rows,
)

# The canonical encoding, frozen here independently of the implementation.
# Bit order: top, top-left, top-right, middle, bottom-left, bottom-right, bottom.
SEGMENTS = {
    0: (1, 1, 1, 0, 1, 1, 1),
    1: (0, 0, 1, 0, 0, 1, 0),
    2: (1, 0, 1, 1, 1, 0, 1),
    3: (1, 0, 1, 1, 0, 1, 1),
    4: (0, 1, 1, 1, 0, 1, 0),
    5: (1, 1, 0, 1, 0, 1, 1),
    6: (1, 1, 0, 1, 1, 1, 1),
    7: (1, 0, 1, 0, 0, 1, 0),
    8: (1, 1, 1, 1, 1, 1, 1),
    9: (1, 1, 1, 1, 0, 1, 1),
}


def test_led_population_matches_encoding():
    ds = led_population()
    assert ds.n_rows == 10
    for d in range(10):
        row = dataset_row(ds, d)
        assert row[:7] == SEGMENTS[d]
        assert row[7] == d


def test_led_patterns_injective():
    assert len(set(SEGMENTS.values())) == 10
    ds = led_population()
    assert len({dataset_row(ds, d)[:7] for d in range(10)}) == 10


def test_led_digit_8_all_segments():
    assert dataset_row(led_population(), 8)[:7] == (1,) * 7


def test_led_population_joint(led_joint):
    for d in range(10):
        cell = tuple(SEGMENTS[d]) + (d,)
        assert led_joint.table[cell] == pytest.approx(0.1, abs=1e-15)


def test_led_sampled_frequencies():
    # binomial(200, 0.1) stays within [5, 45] except with negligible odds
    for seed in (0, 1, 2):
        ds = led_sampled(200, seed=seed)
        counts = np.bincount(ds.output, minlength=10)
        assert counts.min() >= 5 and counts.max() <= 45
        for i in range(ds.n_rows):
            row = dataset_row(ds, i)
            assert row[:7] == SEGMENTS[row[7]]


def test_led_sampled_refuses_beyond_max_cells(monkeypatch):
    """n x 8 cells may reach MAX_CELLS but not pass it; the limit is
    lowered here, so that neither side of it allocates much."""
    monkeypatch.setattr(impshap.data, "MAX_CELLS", 80)
    assert led_sampled(10).n_rows == 10
    with pytest.raises(TableTooLarge, match="11 samples x 8 columns exceed"):
        led_sampled(11)


def test_example_tables_exact_cells(tables):
    # spot checks against the defining conditional rates
    assert tables["table1-y1"].table[0, 0, 1] == 0.25 * 0.1
    assert tables["table1-y1"].table[1, 0, 1] == 0.25 * 0.9
    assert tables["table1-y2"].table[1, 1, 1] == 0.25 * 0.3
    assert tables["table2"].table[1, 1] == 0.0
    assert float(tables["table2"].marginal([1])[0]) == 0.75


def test_expand_to_rows_roundtrip(tables):
    for name, n in (("table1-y1", 40), ("table1-y2", 40), ("table2", 4)):
        ds = expand_to_rows(tables[name], n)
        assert ds.n_rows == n
        back = joint_from_samples(ds)
        assert np.abs(back.table - tables[name].table).max() < 1e-15
    with pytest.raises(ValueError):
        expand_to_rows(tables["table1-y1"], 7)  # 7 rows cannot be exact


def test_dataset_from_joint_weighted(tables):
    ds = dataset_from_joint(tables["table2"])
    assert ds.n_rows == 3  # the zero cell is dropped
    back = joint_from_samples(ds)
    assert np.abs(back.table - tables["table2"].table).max() < 1e-15


def test_weighted_two_rows():
    ds = Dataset(
        [ColumnMeta("a", "categorical", 2), ColumnMeta("y", "categorical", 2)],
        [np.array([0, 1]), np.array([0, 1])],
        weights=np.array([3.0, 1.0]),
    )
    j = joint_from_samples(ds)
    assert j.table[0, 0] == 0.75
    assert j.table[1, 1] == 0.25


def test_quantize_edges():
    # pixel range 0..16 in 4 equal bins: interior edges at 4, 8, 12
    ds = Dataset(
        [ColumnMeta("px", "numeric"), ColumnMeta("y", "categorical", 2)],
        [np.arange(17.0), np.zeros(17, dtype=int)],
    )
    q = quantize(ds, "px", 4)
    assert q.columns[0].bin_edges == (4.0, 8.0, 12.0)
    assert q.columns[0].arity == 4
    assert q.data[0].tolist() == [v // 4 if v < 16 else 3 for v in range(17)]
    with pytest.raises(ValueError):
        quantize(q, "px", 4)  # already categorical


def test_quantize_constant_column():
    ds = Dataset(
        [ColumnMeta("px", "numeric"), ColumnMeta("y", "categorical", 2)],
        [np.full(5, 2.5), np.zeros(5, dtype=int)],
    )
    q = quantize(ds, "px", 4)
    assert set(q.data[0].tolist()) == {0}


@pytest.mark.parametrize("bad, shown", [
    (0.5, "0.5"), (1.7, "1.7"), (np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf"),
])
def test_categorical_codes_must_be_integral(bad, shown):
    """A fractional or non-finite code is refused, naming the column, not
    truncated to an integer; integral floats load as their codes."""
    meta = [ColumnMeta("a", "categorical", 2), ColumnMeta("y", "categorical", 2)]
    with pytest.raises(InvalidValue, match=rf"^column 'a' holds {shown}, not an integer"):
        Dataset(meta, [[0.0, bad], [0, 1]])
    assert Dataset(meta, [[1.0, 0.0], [0, 1]]).data[0].tolist() == [1, 0]


@pytest.mark.parametrize("values, message", [
    ([0.0, np.nan, 2.0], "holds a non-finite value"),
    ([0.0, np.inf, 2.0], "holds a non-finite value"),
    ([-np.inf, 0.0, 2.0], "holds a non-finite value"),
    ([-1e308, 0.0, 1e308], "spans a range too wide to bin"),
])
def test_quantize_refuses_unbinnable_columns(values, message):
    ds = Dataset(
        [ColumnMeta("px", "numeric"), ColumnMeta("y", "categorical", 2)],
        [np.array(values), np.zeros(3, dtype=int)],
    )
    with pytest.raises(InvalidValue, match=f"^column 'px' {message}$"):
        quantize(ds, "px", 4)


def test_csv_roundtrip(tmp_path, led_ds):
    path = tmp_path / "led.csv"
    write_csv(led_ds, path, provenance=["seed: 0"])
    back = load_csv(path)
    assert back.n_rows == led_ds.n_rows
    assert [c.kind for c in back.columns] == [c.kind for c in led_ds.columns]
    assert back.fingerprint() == led_ds.fingerprint()


def test_csv_weighted_roundtrip(tmp_path, tables):
    ds = dataset_from_joint(tables["table2"])
    path = tmp_path / "t2.csv"
    write_csv(ds, path)
    back = load_csv(path)
    assert back.weights is not None
    assert np.abs(back.weights - ds.weights).max() < 1e-15


def test_csv_inference(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,y\n0,1,0\n1,0,1\n2,1.5,0\n")
    ds = load_csv(path)
    assert ds.columns[0].kind == "categorical" and ds.columns[0].arity == 3
    assert ds.columns[1].kind == "numeric"
    assert ds.columns[2].kind == "categorical"


def test_csv_kind_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,y\n#kind: numeric,categorical\n0,0\n1,1\n")
    ds = load_csv(path)
    assert ds.columns[0].kind == "numeric"


def test_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,y\n0\n")
    with pytest.raises(ParseError):
        load_csv(bad)
    bad2 = tmp_path / "bad2.csv"
    bad2.write_text("a,y\n#kind: categorical,categorical\nx,0\n")
    with pytest.raises(ParseError):
        load_csv(bad2)


def test_arity_overflow(tmp_path):
    path = tmp_path / "wide.csv"
    rows = "\n".join(f"{i},0" for i in range(100))
    path.write_text("a,y\n#kind: categorical,categorical\n" + rows + "\n")
    with pytest.raises(ArityOverflow):
        load_csv(path)


def test_random_joint_deterministic():
    a = random_joint(3)
    b = random_joint(3)
    assert a.arities == b.arities
    assert np.array_equal(a.table, b.table)


def test_builtin_dataset_names():
    for name in ("led", "table1-y1", "table1-y2", "table2"):
        ds = builtin_dataset(name)
        assert ds.n_rows > 0
    with pytest.raises(ValueError):
        builtin_dataset("nope")


def test_joint_csv_roundtrip(tmp_path, tables):
    from impshap.data import load_joint_csv, write_joint_csv

    path = tmp_path / "t1.csv"
    write_joint_csv(tables["table1-y1"], path)
    back = load_joint_csv(path)
    assert back.arities == tables["table1-y1"].arities
    assert np.abs(back.table - tables["table1-y1"].table).max() < 1e-15


def test_joint_csv_errors(tmp_path):
    from impshap.data import load_joint_csv

    bad = tmp_path / "bad.csv"
    bad.write_text("x1,y\n0,0\n")  # no probability column
    with pytest.raises(ParseError):
        load_joint_csv(bad)
    bad2 = tmp_path / "bad2.csv"
    bad2.write_text("x1,y,probability\n0,0,0.4\n1,0,0.4\n")  # sums to 0.8
    with pytest.raises(ValueError):
        load_joint_csv(bad2)


@pytest.mark.parametrize("p", [6, 12])
def test_joint_csv_fill_matches_row_by_row(tmp_path, p):
    """The bincount fill equals one `+=` per row, repeated rows included,
    on joints of the benchmark's shape."""
    from impshap.data import load_joint_csv, write_joint_csv

    path = tmp_path / "j.csv"
    write_joint_csv(random_joint(p, p=p, max_arity=2), path)
    header, *rows = path.read_text().splitlines()
    # split three configurations over two rows each, the second at the end
    extra = []
    for r in (0, len(rows) // 2, len(rows) - 1):
        cfg, prob = rows[r].rsplit(",", 1)
        part = float(prob) / 3
        rows[r] = f"{cfg},{part!r}"
        extra.append(f"{cfg},{float(prob) - part!r}")
    path.write_text("\n".join([header, *rows, *extra]) + "\n")
    assert np.array_equal(load_joint_csv(path).table, joint_table_by_rows(path))


def test_csv_comment_before_header(tmp_path):
    """A dataset CSV may start with comment lines; load_joint reads it as
    its empirical joint."""
    from impshap.data import load_joint

    path = tmp_path / "d.csv"
    path.write_text("# note\na,y\n#kind: numeric,categorical\n0,0\n1,1\n")
    ds = load_csv(path)
    assert ds.feature_names() == ("a",) and ds.columns[0].kind == "numeric"
    with pytest.raises(InvalidValue):
        load_joint(path)  # a numeric column has no joint
    path.write_text("# note\na,y\n0,0\n1,1\n1,1\n")
    want = joint_from_samples(load_csv(path)).table
    assert np.array_equal(load_joint(path).table, want)


def test_joint_csv_has_no_arity_limit(tmp_path):
    from impshap.data import MAX_ARITY, load_joint_csv

    path = tmp_path / "wide.csv"
    path.write_text(f"x1,y,probability\n0,0,0.5\n{MAX_ARITY + 6},1,0.5\n")
    assert load_joint_csv(path).arities == (MAX_ARITY + 7, 2)


@pytest.mark.parametrize(
    "text, message",
    [
        ("x1,y,probability\n0,0,0.5\n1,1\n", ":3: expected 3 fields, got 2"),
        ("# c\nx1,y,probability\n0,0,0.5\na,1,0.5\n", ":4: column 'x1'"),
        ("x1,y,probability\n0,0,0.5\n1,-1,0.5\n", ":3: column 'y': negative"),
        ("x1,y,probability\n0,0,0.5\n1,1,half\n", ":3: column 'probability'"),
        ("x1,y,probability\n", None),
    ],
    ids=["field-count", "non-integer-code", "negative-code", "bad-probability",
         "no-rows"],
)
def test_joint_csv_errors_name_the_line(tmp_path, text, message):
    from impshap.data import load_joint_csv

    path = tmp_path / "bad.csv"
    path.write_text(text)
    if message is None:
        with pytest.raises(EmptyDataset):
            load_joint_csv(path)
        return
    with pytest.raises(ParseError, match=message):
        load_joint_csv(path)


def test_csv_byte_order_mark_is_not_data(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes("\ufeffa,y\n0,0\n1,1\n".encode())
    assert load_csv(path).feature_names() == ("a",)
    path.write_bytes("\ufeff# note\na,y\n0,0\n1,1\n".encode())
    assert load_csv(path).feature_names() == ("a",)
    path.write_bytes("\ufeffx1,y,probability\n0,0,0.5\n1,1,0.5\n".encode())
    assert load_joint(path).arities == (2, 2)


def test_csv_invalid_utf8_names_the_byte(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"x1,y,probability\n0,0,0.5\n1,1,0.\xff5\n")
    for load in (load_csv, load_joint_csv, load_joint):
        with pytest.raises(ParseError, match=r"bad\.csv: byte 31: not valid UTF-8"):
            load(path)


@pytest.mark.parametrize(
    "text, line",
    [
        ("x1,y,probability\n0,0,0.5\n1,1,0.5" + "0" * csv.field_size_limit() + "\n", 3),
        ("a,y\n#kind: categorical,categorical\n0,0\n1,1" + "0" * csv.field_size_limit(), 4),
        ("a" * (csv.field_size_limit() + 1) + ",y\n0,0\n", 1),
    ],
    ids=["joint-data", "dataset-data", "header"],
)
def test_csv_field_beyond_the_limit_is_a_parse_error(tmp_path, text, line):
    """csv refuses a field longer than csv.field_size_limit(); every loader
    says so in a ParseError naming the file and the line."""
    path = tmp_path / "long.csv"
    path.write_text(text)
    for load in (load_csv, load_joint_csv, load_joint):
        with pytest.raises(ParseError, match=rf"long\.csv:{line}: field larger than field limit"):
            load(path)


def test_csv_writers_write_utf8(tmp_path):
    ds = Dataset(
        [ColumnMeta("größe", "categorical", 2), ColumnMeta("y", "categorical", 2)],
        [np.array([0, 1]), np.array([1, 0])],
    )
    path = tmp_path / "d.csv"
    write_csv(ds, path)
    assert path.read_bytes().startswith("größe,y".encode())
    assert load_csv(path).fingerprint() == ds.fingerprint()
    write_joint_csv(joint_from_samples(ds), path, names=["größe", "y"])
    assert path.read_bytes().startswith("größe,y,probability".encode())
    assert load_joint_csv(path).arities == (2, 2)


def test_benchmark_shaped_csvs_take_one_pass(tmp_path, monkeypatch):
    """Files as the writers make them never fall back to the row path."""
    def no_row_path(self):
        raise AssertionError(f"{self.path} took the row path")

    monkeypatch.setattr(impshap.data._CsvText, "scan", no_row_path)
    for s in range(3):
        j = random_joint(s, p=12, max_arity=2)
        write_joint_csv(j, tmp_path / "j.csv")
        for load in (load_joint_csv, load_joint):
            assert np.array_equal(load(tmp_path / "j.csv").table, j.table)
        ds = led_sampled(2000, s)
        write_csv(ds, tmp_path / "d.csv", provenance=[f"seed: {s}"])
        assert load_csv(tmp_path / "d.csv").fingerprint() == ds.fingerprint()
        assert load_joint(tmp_path / "d.csv").arities == ds.arities


def _loadtxt_parsing_integers_via_floats(real):
    """np.loadtxt as numpy 1.23 to 1.26 have it: an integer field that only
    float() reads is truncated, with a DeprecationWarning that, raised as an
    error, becomes numpy's ValueError."""
    def loadtxt(lines, dtype, **kwargs):
        try:
            return real(lines, dtype=dtype, **kwargs)
        except ValueError:
            floats = np.dtype([(name, np.float64) for name in dtype.names])
            rows = real(lines, dtype=floats, **kwargs)
        try:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
        except DeprecationWarning as exc:
            raise ValueError("could not convert string to int64, column 1.") from exc
        return rows.astype(dtype)
    return loadtxt


@pytest.mark.parametrize(
    "text",
    [
        "x1,y,probability\n0,0,0.5\n1.5,1,0.5\n",
        "a,y\n#kind: categorical,categorical\n0,0\n0.5,1\n",
        "a,y\n0.5,0\n1.5,1\n2.5,0\n",
    ],
    ids=["joint-code", "declared-code", "inferred-numeric"],
)
def test_integers_parsed_via_floats_are_not_truncated(tmp_path, monkeypatch, text):
    """A numpy that truncates '1.5' to an int64 1 with only a warning does
    not change what the loaders return."""
    old = _loadtxt_parsing_integers_via_floats(np.loadtxt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        pair = np.dtype([("a", np.int64), ("b", np.int64)])
        assert old(["1.5,0"], dtype=pair, delimiter=",")["a"] == 1
    monkeypatch.setattr(np, "loadtxt", old)
    path = tmp_path / "f.csv"
    path.write_text(text)
    for load, reference in ((load_csv, load_csv_by_rows),
                            (load_joint_csv, load_joint_csv_by_rows),
                            (load_joint, load_joint_by_rows)):
        got, want = _outcome(load, path), _outcome(reference, path)
        assert _same(got, want), (load.__name__, got, want)


# Cells with a plain reading, and cells that int() or float() read where
# np.loadtxt does not (or the reverse), or that the csv module reads as
# something else than the bare text.
PLAIN_CELLS = ["0", "1", "2", "1", "0"]
ODD_CELLS = [" 1 ", "+2", "-1", "-0", "01", "1_0", "١", "٣", "Ǿ", "1\x1c",
             "\t2", "\x0b1", "nan", "-nan", "inf", "-inf", "0.5", "1.0", "2e0",
             "70", "99999999999999999999", '"1"', '" 2"', '"3', '"1\n"',
             '"2\r\n3"', '"1""', "", "x", "#1", '"#"']


@st.composite
def csv_texts(draw):
    """CSV texts around the shapes the loaders accept, with comments, kind
    rows, blank lines, quoting, odd cells and wrong field counts."""
    fmt = draw(st.sampled_from(["joint", "kinds", "infer", "weighted"]))
    n_in = draw(st.integers(1, 3))
    n_rows = draw(st.integers(1, 5))
    odd = draw(st.sampled_from([0, 0, 1, 3]))  # in ten cells
    newline = draw(st.sampled_from(["\n", "\r\n"]))

    def cell(pool=PLAIN_CELLS):
        if draw(st.integers(0, 9)) >= 10 - odd:
            return draw(st.sampled_from(ODD_CELLS))
        return draw(st.sampled_from(pool))

    def noise():
        """Lines that are no rows, or that a row path must reject."""
        lines = []
        while draw(st.integers(0, 9)) >= 8:
            lines.append(draw(st.sampled_from(
                ["# note", "", "#kind: numeric", '# a "quote', "  ", "#"]
            )))
        return lines

    names = [f"x{i}" for i in range(n_in)] + ["y"]
    if fmt == "joint":
        names.append(draw(st.sampled_from(["probability", " probability"])))
    elif fmt == "weighted":
        names.append("__weight__")
    lines = noise() + [",".join(names)]
    if fmt == "kinds" or draw(st.integers(0, 9)) == 9:
        kinds = [draw(st.sampled_from(["categorical", "numeric"]))
                 for _ in names[:n_in + 1]] + ["numeric"] * (len(names) - n_in - 1)
        if draw(st.integers(0, 9)) == 9:
            kinds[-1] = draw(st.sampled_from(["nominal", "numeric,numeric"]))
        lines.append(f"#kind: {','.join(kinds)}")
    share = repr(1.0 / n_rows)
    for _ in range(n_rows):
        row = [cell() for _ in range(n_in + 1)]
        if fmt == "joint":
            row.append(cell([share, f" {share}", f'"{share}"', f"{1.0 / n_rows:.6g}"]))
        elif fmt == "weighted":
            row.append(cell(["1", "0.5", "2"]))
        if draw(st.integers(0, 19)) == 19:
            row = row[:-1] if draw(st.booleans()) else row + [""]
        lines += noise() + [",".join(row)]
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    return draw(st.sampled_from(["", "\ufeff"])) + text


def _outcome(load, path):
    try:
        return load(path)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)


def _same(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    if isinstance(a, Dataset):
        return (
            a.columns == b.columns
            and all(x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True)
                    for x, y in zip(a.data, b.data))
            and (a.weights is None) == (b.weights is None)
            and (a.weights is None or np.array_equal(a.weights, b.weights, equal_nan=True))
            and a.fingerprint() == b.fingerprint()
        )
    return (a.arities == b.arities and a.name == b.name
            and a.table.tobytes() == b.table.tobytes())


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("generated")


@settings(derandomize=True, max_examples=400, deadline=None)
@given(text=csv_texts())
@example(text="a,y\n1,0\n#x,\"\n1,2\n#\"\n")  # a comment spanning a data line
@example(text="x1,y,probability\n0,0,0.5\n#x,\"\n1,1,0.5\n#\"\n")  # the same, joint
@example(text="x1,y,probability\n0,\"1\n0\",0.5\n1,1,0.5\n")  # a cell spanning lines
@example(text="x1,y,probability\n0,0,0.5\n\u01fe,1,0.5\n")  # no digit to int()
@example(text="a,y\n-0,0\n-1,1\n")  # an integer column read as numbers
@example(text="x1,y,probability\n0,0,0.5\n \t\n1,1,0.5\n")  # a row of blanks
@example(text="a,y\n0,0\n0,1e" + "0" * csv.field_size_limit() + "\n")  # csv refuses
@example(text="x1,y,probability\n0,0,0.5\n1,1,0." + "5" * csv.field_size_limit())  # the same, joint
@example(text="x1,y,probability\n0,0,0.5\n1\x1c,1,0.5\n")  # a blank to numpy only
@example(text="x1,y,probability\n0,0,0.5\f1,1,0.5\n")  # a line end to splitlines only
def test_loaders_match_the_reference_reader(csv_dir, text):
    """load_csv, load_joint_csv and load_joint return what the reference
    reader does, to the bit, or raise its exception with its message."""
    path = csv_dir / "g.csv"
    path.write_bytes(text.encode())
    for load, reference in ((load_csv, load_csv_by_rows),
                            (load_joint_csv, load_joint_csv_by_rows),
                            (load_joint, load_joint_by_rows)):
        got, want = _outcome(load, path), _outcome(reference, path)
        assert _same(got, want), (load.__name__, text, got, want)


def test_digits_dataset_quantized():
    ds = builtin_dataset("digits", n=120, seed=0)
    assert ds.n_rows == 120
    assert all(c.kind == "categorical" and c.arity == 4 for c in ds.columns[:-1])
    assert ds.output_meta.arity == 10
