"""Tables, columns, and ground-truth loading.

A table is an ordered list of named columns; each column keeps its cells in
file order.  Missing cells (blank, or an NA spelling in any case; see
MISSING_MARKERS) are stored as None.  A Column finds them and its type itself,
so one built in memory equals the one load_table reads from the same cells.
"""

from __future__ import annotations

import csv
import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import date
from itertools import compress
from pathlib import Path

MISSING_MARKERS = frozenset({"", "na", "n/a", "null", "none"})

TYPE_LABELS = ("numerical", "categorical", "date", "binary", "key", "unknown")

# distinct/non-missing ratio above which a column is treated as a key
KEY_DISTINCT_RATIO = 0.90
# fraction of non-missing cells that must parse for numerical/date labels
PARSE_FRACTION = 0.95

_NUMBER_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$")
_DATE_RE = re.compile(
    r"(\d{4}-\d{2}-\d{2})"
    r"([T ]\d{2}:\d{2}(:\d{2}(\.\d+)?)?(Z|[+-]\d{2}:?\d{2})?)?$"
)

GROUND_TRUTH_HEADER = ("source_column", "target_column")


def value_counts(cells) -> Counter:
    """Count of each non-missing cell; missingness is decided once per distinct cell.

    None, whitespace-only cells and NA spellings (MISSING_MARKERS, any case)
    are missing; the test runs as C-level maps over the distinct strings.
    """
    counts = Counter(cells)
    counts.pop(None, None)
    keys = list(counts)
    stripped = map(str.lower, map(str.strip, keys))
    for cell in compress(keys, map(MISSING_MARKERS.__contains__, stripped)):
        del counts[cell]
    return counts


def _is_number(cell: str) -> bool:
    return _NUMBER_RE.fullmatch(cell.strip()) is not None


def _is_date(cell: str) -> bool:
    m = _DATE_RE.fullmatch(cell.strip())
    if m is None:
        return False
    try:
        date.fromisoformat(m.group(1))
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class Column:
    """A named column; cells that value_counts finds missing are stored as None.

    inferred_type, by precedence: unknown (no cells), key (distinct ratio >
    0.90), binary (2 distinct), numerical (>= 95% decimal), date (>= 95%
    ISO-8601 calendar date, optional time), else categorical.

    `distinct` holds the non-missing values in first-occurrence order and
    `counts` the number of cells holding each; both are counted once, here,
    and take no part in equality, hash or repr.
    """

    name: str
    values: tuple
    inferred_type: str = field(init=False)
    distinct: tuple = field(init=False, compare=False, repr=False)
    counts: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.name.strip():
            raise ValueError("column name must be non-empty")
        values = tuple(self.values)
        counts = value_counts(values)
        if sum(counts.values()) < len(values):
            values = tuple(v if v in counts else None for v in values)
        object.__setattr__(self, "values", values)
        # two tuples hold about half what a Counter per column does (1.6 against 2.9 MiB
        # for 139 columns of 2000 cells)
        object.__setattr__(self, "distinct", tuple(counts))
        object.__setattr__(self, "counts", tuple(counts.values()))
        object.__setattr__(self, "inferred_type", _classify(self.distinct, self.counts))


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        seen = set()
        for col in self.columns:
            if col.name in seen:
                raise ValueError(f"duplicate column name: {col.name!r}")
            seen.add(col.name)

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise KeyError(name)

    def column_names(self) -> list:
        return [col.name for col in self.columns]


@dataclass(frozen=True)
class GroundTruth:
    """Curated correspondences; a source may map to several targets."""

    pairs: frozenset

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", frozenset(self.pairs))

    def sources(self) -> set:
        return {src for src, _ in self.pairs}


def _classify(distinct: tuple, counts: tuple) -> str:
    """Column's type label from its distinct non-missing values and their counts; each parses once."""
    n = sum(counts)
    if not n:
        return "unknown"
    if len(distinct) / n > KEY_DISTINCT_RATIO:
        return "key"
    if len(distinct) == 2:
        return "binary"
    if sum(k for v, k in zip(distinct, counts) if _is_number(v)) / n >= PARSE_FRACTION:
        return "numerical"
    if sum(k for v, k in zip(distinct, counts) if _is_date(v)) / n >= PARSE_FRACTION:
        return "date"
    return "categorical"


def _read_rows(p: Path, kind: str) -> list:
    """The rows of the UTF-8 CSV at `p`, less a leading byte-order mark; errors name the path."""
    if not p.is_file():
        raise FileNotFoundError(f"{kind} file not found: {p}")
    try:
        with open(p, encoding="utf-8-sig", newline="") as fh:
            return list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{p}: not valid UTF-8 ({exc.reason})") from None


def load_table(path) -> Table:
    """Read a UTF-8 CSV with a header row into a Table.

    Short rows are padded with missing cells; rows wider than the header
    are rejected.  Missing cells, types and the header's names are Column's
    and Table's to check; their errors are prefixed with the path.  The
    table is named after the file stem.
    """
    p = Path(path)
    rows = _read_rows(p, "table")
    if not rows:
        raise ValueError(f"{p}: empty file, expected a header row")
    header = rows[0]
    body = rows[1:]
    width = len(header)
    for lineno, row in enumerate(body, start=2):
        if len(row) > width:
            raise ValueError(f"{p}: row {lineno} has {len(row)} cells, header has {width}")
        row.extend([""] * (width - len(row)))

    columns = zip(*body) if body else [()] * width
    try:
        return Table(p.stem, [Column(h, cells) for h, cells in zip(header, columns)])
    except ValueError as exc:
        raise ValueError(f"{p}: {exc}") from None


def load_ground_truth(path) -> GroundTruth:
    """Read a two-column CSV of (source_column, target_column) pairs."""
    p = Path(path)
    rows = _read_rows(p, "ground truth")
    if not rows or tuple(rows[0]) != GROUND_TRUTH_HEADER:
        raise ValueError(
            f"{p}: expected header {','.join(GROUND_TRUTH_HEADER)!r}"
        )
    pairs = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ValueError(f"{p}: row {lineno} has {len(row)} cells, expected 2")
        src, dst = row
        if not src:
            raise ValueError(f"{p}: row {lineno} has an empty source cell")
        if not dst:
            raise ValueError(f"{p}: row {lineno} has an empty target cell")
        pairs.add((src, dst))
    return GroundTruth(frozenset(pairs))
