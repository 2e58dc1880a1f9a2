"""Property tests: the column-wise CSV reader and writer against
line-by-line ones.

``reference_read`` reads a sweep CSV one line and one field at a time
under the rules ``read_rows_csv`` documents.  On valid tables, directed
and undirected, and on malformed ones (wrong field counts, bad numbers,
empty fields where no null is allowed, blank lines), both readers must
return the same rows or fail with the same ``line N:`` message.
``reference_write`` formats one field at a time, and ``write_rows_csv``
must give the same bytes.  Neither side may change with the number of
rows handled at once.

hypothesis is a test-only dependency; without it the module is skipped.
"""

import io
import math
import struct
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from richclub import CSV_COLUMNS, SweepRow, read_rows_csv, \
    write_rows_csv  # noqa: E402
from richclub import sweep  # noqa: E402

INT_COLUMNS = {"k", "degree_at_k", "sum_di", "sum_do", "internal_edges",
               "components", "lcc_size", "internal_arcs", "reciprocal_arcs"}
ARC_COLUMNS = {"internal_arcs", "reciprocal_arcs", "sym_ratio"}
NULLABLE = {"c2", "coverage", "sym_ratio"}


def reference_read(lines):
    """Rows of a sweep CSV, read line by line and field by field."""
    lines = iter(lines)
    header = next(lines, "").strip()
    if header.split(",") != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header: {header!r}")
    rows = []
    directed = None
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != len(CSV_COLUMNS):
            raise ValueError(f"line {lineno}: expected {len(CSV_COLUMNS)} "
                             f"fields, got {len(fields)}")
        if directed is None:  # the first row decides
            directed = fields[CSV_COLUMNS.index("internal_arcs")] != ""
        values = {}
        for name, field in zip(CSV_COLUMNS, fields):
            absent = name in ARC_COLUMNS and not directed
            if field == "" and (absent or name in NULLABLE):
                values[name] = None
                continue
            try:
                if absent:
                    raise ValueError
                value = int(field) if name in INT_COLUMNS else float(field)
                if value != value or (name in INT_COLUMNS
                                      and not -2 ** 63 <= value < 2 ** 63):
                    raise ValueError
            except ValueError:
                raise ValueError(f"line {lineno}: bad {name} value "
                                 f"{field!r}") from None
            values[name] = value
        rows.append(SweepRow(**values))
    return rows


def reference_write(rows):
    """A sweep CSV written one field at a time: ``str`` for counts,
    ``"{:.6g}"`` for ratios, and an empty field for None or NaN."""
    def field(name, value):
        if value is None or value != value:
            return ""
        return str(value) if name in INT_COLUMNS else "{:.6g}".format(value)

    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(field(name, getattr(row, name))
                              for name in CSV_COLUMNS))
    return "".join(line + "\n" for line in lines)


def outcome(read, lines):
    try:
        return list(read(iter(lines)))
    except ValueError as exc:
        return str(exc)


counts = st.integers(0, 10 ** 6) | st.integers(-2 ** 63, 2 ** 63 - 1)
ratios = st.floats(allow_nan=False)
# doubles where a fast formatter could round or switch form wrongly:
# signed zeros and NaN, infinities, subnormals, exact decimal ties,
# and the neighbours of 1e-5 and 999999.5 around the switches of .6g
# between fixed and exponent form
EDGE_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
               5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1.7976931348623157e308, 0.1234565, 0.1234575, 2.5e-7,
               999999.5, math.nextafter(999999.5, 0), 9999995.0,
               math.nextafter(999999.5, math.inf), 999999.0, 1e6,
               1e-5, math.nextafter(1e-5, 0), 9.999995e-5, 1e-4,
               math.nextafter(9.999995e-5, 1), 0.1, 1 / 3]
any_ratios = (st.floats() | st.sampled_from(EDGE_FLOATS)
              | st.integers(0, 2 ** 64 - 1).map(  # any bit pattern
                  lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
              | st.builds(lambda digits, exp: float(f"{digits}5e{exp}"),
                          st.integers(-10 ** 6, 10 ** 6),
                          st.integers(-330, 310)))  # decimal ties


@st.composite
def sweep_rows(draw, directed, ratios=ratios):
    values = {name: draw(counts if name in INT_COLUMNS else ratios)
              for name in CSV_COLUMNS if directed or name not in ARC_COLUMNS}
    for name in NULLABLE & set(values):
        if draw(st.booleans()):
            values[name] = None
    return SweepRow(**values)


@st.composite
def tables(draw, max_rows=6):
    """CSV lines of a valid table, directed or undirected."""
    directed = draw(st.booleans())
    rows = draw(st.lists(sweep_rows(directed), max_size=max_rows))
    buf = io.StringIO()
    write_rows_csv(rows, buf)
    return buf.getvalue().splitlines()


# field texts that a number parser may or may not accept
texts = st.sampled_from(
    ["", " ", "x", "1", "-2", "+3", " 4 ", "1_0", "0x10", "1.5", "-0",
     "1e999", "inf", "-inf", "nan", "NaN", "99999999999999999999",
     "-9223372036854775808", "9223372036854775808"]) | st.just("") \
    | st.text("0123456789.-+e_ xna", max_size=6)


@st.composite
def damaged_tables(draw, max_rows=6):
    """A valid table after one to three edits: a field replaced, dropped
    or inserted, a blank line inserted, or a line of random fields
    appended."""
    lines = draw(tables(max_rows))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(1, len(lines)))
        edit = draw(st.sampled_from(["replace", "drop", "insert", "blank"]))
        if edit == "blank":
            lines.insert(at, draw(st.sampled_from(["", "  ", "\t"])))
            continue
        if at == len(lines):
            lines.append(",".join(draw(st.lists(texts, max_size=17))))
            continue
        fields = lines[at].split(",")
        j = draw(st.integers(0, len(fields) - 1))
        if edit == "replace":
            fields[j] = draw(texts)
        elif edit == "drop":
            del fields[j]
        else:
            fields.insert(j, draw(texts))
        lines[at] = ",".join(fields)
    return lines


@settings(max_examples=300, deadline=None, database=None)
@given(tables())
def test_reader_matches_reference_on_valid_tables(lines):
    expected = reference_read(lines)
    assert outcome(read_rows_csv, lines) == expected


HEADER = ",".join(CSV_COLUMNS)
ROW1 = "1,3,0,3,0,0.5,,0,0,1,1,0.6,,,"                     # undirected
ROW2 = "2,2,2,3,1,0.5,0.666667,2,0.5,1,2,0.5,,,"
ARCS1 = "1,3,0,3,0,0.5,,0,0,1,1,0.6,0,0,"                  # directed
ARCS2 = "2,2,2,3,1,0.5,0.666667,2,0.5,1,2,0.5,2,2,1"


@settings(max_examples=500, deadline=None, database=None)
@given(damaged_tables())
@example([HEADER, ROW1, "2,2,2,3,1,nan,0.666667,2,0.5,1,2,0.5,,,"])
@example([HEADER, ROW1, "9223372036854775808,2,2,3,1,0.5,,2,0.5,1,2,0.5,,,"])
@example([HEADER, "1,3,0,3,0,0.5,,0,x,1,1,0.6,,,", "2,2"])  # value error
@example([HEADER, "1,3,0,3,0,,,x,0,1,1,0.6,,,"])      # first bad field
@example([HEADER, "", ROW1, "  ", "2,2,2,3,1,0.5,0.666667,2,,1,2,0.5,,,"])
@example([HEADER, ROW1, "2,2,2,3,1,0.5,0.666667,2,0.5,1,2,0.5,3,,"])
@example([HEADER, "1,3,0,3,0,0.5,,0,0,1,1,0.6,,0,", ARCS2])  # first row
@example([HEADER, ARCS1, "2,2,2,3,1,0.5,0.666667,2,0.5,1,2,0.5,2,,1"])
def test_reader_matches_reference_on_damaged_tables(lines):
    assert outcome(read_rows_csv, lines) == outcome(reference_read, lines)


def written(rows):
    buf = io.StringIO()
    write_rows_csv(rows, buf)
    return buf.getvalue()


@settings(max_examples=500, deadline=None, database=None)
@given(st.booleans().flatmap(
    lambda directed: st.lists(sweep_rows(directed, any_ratios),
                              max_size=8)))
@example([SweepRow(1, 2, 0, 2, 0, x, -x, x, x, 1, 1, x, 3, 2, x)
          for x in EDGE_FLOATS])
def test_writer_matches_reference(rows):
    assert written(rows) == reference_write(rows)


def rounded(rows):
    """Rows as the CSV writer keeps them: each ratio rounded to six
    significant digits, counts and None as they are."""
    def keep(name, value):
        if value is None or name in INT_COLUMNS:
            return value
        return float("{:.6g}".format(value))

    return [SweepRow(**{name: keep(name, getattr(row, name))
                        for name in CSV_COLUMNS}) for row in rows]


@settings(max_examples=300, deadline=None, database=None)
@given(damaged_tables(max_rows=20))
@example([HEADER, "0,0,0,0,0,-9223372036854775808,0,0,0,0,0,0,0,0,0"])
def test_chunk_size_changes_no_row_and_no_error(lines):
    """Tables that span many chunks read, fail and write as in one, and
    the written text reads back as the rows first read, each ratio
    rounded as the writer's six significant digits round it."""
    expected = outcome(read_rows_csv, lines)
    text = None if isinstance(expected, str) else written(expected)
    for chunk in (1, 2, 7):
        with mock.patch.object(sweep, "_CSV_CHUNK", chunk):
            assert outcome(read_rows_csv, lines) == expected
            if text is not None:
                assert written(expected) == text
                assert outcome(read_rows_csv, text.splitlines()) == \
                    rounded(expected)
