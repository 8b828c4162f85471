import csv
import random
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from helpers import write_csv

from colmatch.tables import (
    Column,
    GroundTruth,
    Table,
    TYPE_LABELS,
    load_ground_truth,
    load_table,
)


def _col(values, name="c"):
    return Column(name, tuple(values))


class TestLoadTable:
    def test_two_column_file(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,b\n1,x\n2,y\n", encoding="utf-8")
        t = load_table(f)
        assert t.name == "t"
        assert t.column_names() == ["a", "b"]
        assert t.column("a").values == ("1", "2")
        assert t.column("b").values == ("x", "y")

    def test_header_only_file(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a\n", encoding="utf-8")
        t = load_table(f)
        assert t.column("a").values == ()
        assert t.column("a").inferred_type == "unknown"

    def test_duplicate_header_rejected(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,a\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="'a'"):
            load_table(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_table(tmp_path / "absent.csv")

    def test_non_utf8_rejected(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_bytes(b"a,b\n\xff\xfe,1\n")
        with pytest.raises(ValueError, match="UTF-8"):
            load_table(f)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_bytes(b"\xef\xbb\xbfid,name\r\n1,a\r\n")
        assert load_table(f).column_names() == ["id", "name"]

    def test_missing_markers_become_none(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a\n\nNA\nn/a\nNull\nNONE\nkeep\n", encoding="utf-8")
        t = load_table(f)
        assert t.column("a").values == (None, None, None, None, None, "keep")

    def test_quoted_cells_roundtrip(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text('a\n" x,y "\n"he said ""hi"""\n', encoding="utf-8")
        t = load_table(f)
        assert t.column("a").values == (" x,y ", 'he said "hi"')

    def test_short_rows_padded(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,b\n1\n", encoding="utf-8")
        t = load_table(f)
        assert t.column("b").values == (None,)

    def test_wide_row_rejected(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row 2"):
            load_table(f)


class TestInferType:
    def test_high_distinct_ratio_is_key(self):
        values = [f"v{i}" for i in range(95)] + ["v0"] * 5
        assert len(values) == 100
        assert _col(values).inferred_type == "key"

    def test_yes_no_is_binary(self):
        assert _col(["yes", "no", "yes", "no"]).inferred_type == "binary"

    def test_empty_is_unknown(self):
        assert _col([]).inferred_type == "unknown"

    def test_all_missing_is_unknown(self):
        assert _col([None, "NA", "null", ""]).inferred_type == "unknown"

    def test_numbers(self):
        values = ["1", "2.5", "-3", "+4.", ".5", "1e5", "2E-3", "7", "8", "9"] * 2
        assert _col(values).inferred_type == "numerical"

    def test_dates(self):
        days = [f"2020-01-{d:02d}" for d in range(1, 10)]
        values = (days + ["2020-02-01T10:30:00Z"]) * 2
        assert _col(values).inferred_type == "date"

    def test_invalid_calendar_date_not_date(self):
        values = ["2020-13-01", "2020-01-32", "2020-02-30"] * 4
        assert _col(values).inferred_type == "categorical"

    def test_numbers_with_units_are_categorical(self):
        values = ["2.9 cm", "3.1 cm", "4 cm"] * 4
        assert _col(values).inferred_type == "categorical"

    def test_key_beats_binary(self):
        assert _col(["yes", "no"]).inferred_type == "key"

    def test_binary_beats_numerical(self):
        assert _col(["1", "2"] * 5).inferred_type == "binary"

    def test_numerical_beats_date(self):
        # integers are numbers, not dates
        values = ["1", "2", "3"] * 4
        assert _col(values).inferred_type == "numerical"

    def test_parse_threshold(self):
        # 19/20 numeric cells is 95%, just enough
        values = (["1", "2", "3"] * 6) + ["1", "x"]
        assert _col(values).inferred_type == "numerical"
        # 18/19 is below it
        assert _col(values[1:]).inferred_type == "categorical"

    @given(
        st.lists(
            st.one_of(st.none(), st.text(max_size=6), st.integers().map(str)),
            max_size=40,
        )
    )
    def test_total_and_order_free(self, values):
        label = _col(values, name="x").inferred_type
        assert label in TYPE_LABELS
        shuffled = list(values)
        random.Random(7).shuffle(shuffled)
        assert _col(shuffled, name="x").inferred_type == label


class TestModelInvariants:
    def test_blank_column_name_rejected(self):
        with pytest.raises(ValueError):
            Column("   ", ())

    def test_table_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Table("t", (Column("a", ()), Column("a", ())))

    def test_column_stores_missing_cells_as_none(self):
        column = Column("a", (None, "", "  ", "nA", "0", "nan ok"))
        assert column.values == (None, None, None, None, "0", "nan ok")


class TestGroundTruth:
    def test_single_pair(self, tmp_path):
        f = tmp_path / "gt.csv"
        f.write_text("source_column,target_column\nAge,age_at_index\n", encoding="utf-8")
        gt = load_ground_truth(f)
        assert gt.pairs == {("Age", "age_at_index")}
        # equality, hash and repr are those of the pair set alone
        assert gt == GroundTruth({("Age", "age_at_index")})
        assert hash(gt) == hash(GroundTruth({("Age", "age_at_index")}))
        assert repr(gt) == "GroundTruth(pairs=frozenset({('Age', 'age_at_index')}))"

    def test_duplicates_collapse(self, tmp_path):
        f = tmp_path / "gt.csv"
        f.write_text(
            "source_column,target_column\nA,x\nA,x\nA,y\n", encoding="utf-8"
        )
        gt = load_ground_truth(f)
        assert gt.pairs == {("A", "x"), ("A", "y")}
        assert gt.sources() == {"A"}

    def test_empty_target_cell_rejected(self, tmp_path):
        f = tmp_path / "gt.csv"
        f.write_text("source_column,target_column\nAge,\n", encoding="utf-8")
        with pytest.raises(ValueError, match="empty target"):
            load_ground_truth(f)

    def test_wrong_column_count_rejected(self, tmp_path):
        f = tmp_path / "gt.csv"
        f.write_text("source_column,target_column\nA,x,extra\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected 2"):
            load_ground_truth(f)

    def test_wrong_header_rejected(self, tmp_path):
        f = tmp_path / "gt.csv"
        f.write_text("src,dst\nA,x\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            load_ground_truth(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_ground_truth(tmp_path / "absent.csv")

    def test_byte_order_mark_is_dropped(self, tmp_path):
        f = tmp_path / "gt.csv"
        f.write_bytes(b"\xef\xbb\xbfsource_column,target_column\r\nA,x\r\n")
        assert load_ground_truth(f).pairs == {("A", "x")}

    def test_non_utf8_rejected_naming_the_file(self, tmp_path):
        f = tmp_path / "gt.csv"
        f.write_bytes(b"source_column,target_column\n\xff,x\n")
        with pytest.raises(ValueError, match="not valid UTF-8") as raised:
            load_ground_truth(f)
        assert str(raised.value).startswith(f"{f}: ")


_pools = {
    "number": st.one_of(
        st.integers(-999, 999).map(str),
        st.floats(-1e6, 1e6, allow_nan=False).map(lambda x: f"{x:.2f}"),
    ),
    "date": st.dates().map(lambda d: d.isoformat()),
    "word": st.text(alphabet="abé中 ,\"", min_size=1, max_size=4),
    "flag": st.sampled_from(["yes", "no"]),
}
_na = st.sampled_from(["", " ", "NA", "n/a", "Null", "NONE", "na "])


@st.composite
def _csv_rows(draw):
    width = draw(st.integers(1, 5))
    cell_for = []
    for _ in range(width):
        # few distinct values, so repeats keep most columns from being keys
        kind = draw(st.sampled_from(sorted(_pools)))
        pool = draw(st.lists(_pools[kind], min_size=1, max_size=4))
        if draw(st.booleans()):
            pool += draw(st.lists(st.one_of(_na, _pools["word"]), min_size=1, max_size=2))
        cell_for.append(st.one_of(_pools[kind], st.sampled_from(pool), st.sampled_from(pool)))
    rows = []
    for _ in range(draw(st.integers(0, 30))):
        row = [draw(cell) for cell in cell_for]
        if draw(st.integers(0, 9)) == 0:  # a short row
            row = row[: draw(st.integers(0, width - 1))]
        rows.append(row)
    if rows and draw(st.integers(0, 9)) == 0:  # a row wider than the header
        rows[draw(st.integers(0, len(rows) - 1))].append("extra")
    return [f"h{i}" for i in range(width)], rows


@settings(max_examples=150, deadline=None)
@given(_csv_rows())
def test_load_table_equals_per_cell_reference(header_rows):
    header, rows = header_rows
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        try:
            expected = oracles.load_table_longhand(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                load_table(path)
            assert str(raised.value) == str(exc)
            return
        table = load_table(path)
    assert [(c.name, c.values, c.inferred_type) for c in table.columns] == expected


@given(st.lists(st.one_of(st.none(), _na, *_pools.values()), max_size=40))
def test_infer_type_on_built_columns_equals_per_cell_reference(cells):
    # a directly built Column classifies its cells itself, NA spellings and blanks as missing
    assert _col(cells).inferred_type == oracles.infer_type_longhand(cells)


_cells = st.one_of(
    st.none(),
    _na,
    st.sampled_from(["na", "nA", "NULL", "nOnE", "N/A"]),
    st.text(alphabet=" \t", min_size=1, max_size=3),
    st.text(alphabet="aé中ß ", min_size=1, max_size=4),
    *_pools.values(),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_cells, max_size=30))
def test_built_column_equals_loaded_column(cells):
    built = _col(cells)
    with tempfile.TemporaryDirectory() as tmp:
        path = write_csv(Path(tmp) / "t.csv", ["c"], [[cell] for cell in cells])
        (loaded,) = load_table(path).columns
    assert built == loaded
    assert built.values == tuple(None if oracles.cell_missing_longhand(c) else c for c in cells)
    assert built.inferred_type == oracles.infer_type_longhand(cells)


def test_kept_counts_stay_out_of_equality_hash_and_repr(tmp_path):
    cells = ["b", "NA", "a", "", "b", " none"]
    built = _col(cells)
    (loaded,) = load_table(write_csv(tmp_path / "t.csv", ["c"], [[cell] for cell in cells])).columns
    values = ("b", None, "a", None, "b", None)
    for col in (built, loaded):
        assert (col.distinct, col.counts) == (("b", "a"), (2, 1))
        assert repr(col) == f"Column(name='c', values={values!r}, inferred_type='binary')"
        assert hash(col) == hash(("c", values, "binary"))
    assert built == loaded
    assert [f.name for f in fields(Column) if f.compare] == ["name", "values", "inferred_type"]
    object.__setattr__(built, "counts", (9, 9))
    assert built == loaded and hash(built) == hash(loaded)


@pytest.mark.parametrize(
    "header, message",
    [("a, ", "column name must be non-empty"), ("a,b,a", "duplicate column name: 'a'")],
)
def test_header_errors_name_the_file(tmp_path, header, message):
    path = tmp_path / "t.csv"
    path.write_text(header + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as raised:
        load_table(path)
    assert str(raised.value) == f"{path}: {message}"
