"""Dataset generators, worked-example joints, CSV loading and quantization."""

import numpy as np
import pytest

from impshap.data import (
    ColumnMeta,
    Dataset,
    builtin_dataset,
    dataset_from_joint,
    dataset_to_joint,
    expand_to_rows,
    led_population,
    led_sampled,
    load_csv,
    quantize,
    random_joint,
    sample_from_joint,
    write_csv,
)
from impshap.errors import ArityOverflow, EmptyDataset, InvalidValue, ParseError

from oracles import joint_table_by_rows

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
        row = ds.row(d)
        assert row[:7] == SEGMENTS[d]
        assert row[7] == d


def test_led_patterns_injective():
    assert len(set(SEGMENTS.values())) == 10
    ds = led_population()
    assert len({ds.row(d)[:7] for d in range(10)}) == 10


def test_led_digit_8_all_segments():
    assert led_population().row(8)[:7] == (1,) * 7


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
            row = ds.row(i)
            assert row[:7] == SEGMENTS[row[7]]


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
        back = dataset_to_joint(ds)
        assert np.abs(back.table - tables[name].table).max() < 1e-15
    with pytest.raises(ValueError):
        expand_to_rows(tables["table1-y1"], 7)  # 7 rows cannot be exact


def test_dataset_from_joint_weighted(tables):
    ds = dataset_from_joint(tables["table2"])
    assert ds.n_rows == 3  # the zero cell is dropped
    back = dataset_to_joint(ds)
    assert np.abs(back.table - tables["table2"].table).max() < 1e-15


def test_weighted_two_rows():
    ds = Dataset(
        [ColumnMeta("a", "categorical", 2), ColumnMeta("y", "categorical", 2)],
        [np.array([0, 1]), np.array([0, 1])],
        weights=np.array([3.0, 1.0]),
    )
    j = dataset_to_joint(ds)
    assert j.table[0, 0] == 0.75
    assert j.table[1, 1] == 0.25


def test_sampling_converges(led_joint):
    ds = sample_from_joint(led_joint, 100_000, seed=4)
    back = dataset_to_joint(ds)
    l1 = float(np.abs(back.table - led_joint.table).sum())
    assert l1 < 0.02


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
    want = dataset_to_joint(load_csv(path)).table
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


def test_digits_dataset_quantized():
    ds = builtin_dataset("digits", n=120, seed=0)
    assert ds.n_rows == 120
    assert all(c.kind == "categorical" and c.arity == 4 for c in ds.columns[:-1])
    assert ds.output_meta.arity == 10
