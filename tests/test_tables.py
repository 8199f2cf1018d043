"""The one CSV writer and reader behind profile, barrier-scan and window-sample files."""

import csv
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborcert import (
    DensityProfile,
    Lattice2D,
    PreconditionError,
    dilate,
    h1_barrier_scan,
    hermite,
    min_delta,
    read_sampled_csv,
    reduce_general,
    sample_grid,
    sample_window,
    write_sampled_csv,
)
from gaborcert.tables import _read_csv_module, csv_text, read_csv


def row_writer_text(header, rows):
    """The row-by-row csv.writer text the columnar writer replaces."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows([repr(float(x)) for x in row] for row in rows)
    return buffer.getvalue()


def test_csv_text_format():
    columns = [np.array([0.1, 2.5e-300, np.nan]), np.array([1.0, -0.0, 1 / 3])]
    assert csv_text(("a", "b"), columns) == (
        "a,b\r\n0.1,1.0\r\n2.5e-300,-0.0\r\nnan,0.3333333333333333\r\n"
    )


def test_barrier_scan_and_profile_files_are_their_csv_text(tmp_path):
    for table in (h1_barrier_scan(0.5, 2.0, 5), min_delta(hermite(1), grid_points=11)):
        path = tmp_path / "table.csv"
        table.write_csv(path)
        assert path.read_bytes() == table.csv_text().encode()
        assert table.csv_text() == csv_text(table.CSV_HEADER, table.csv_columns())


def test_window_samples_go_through_the_same_writer(tmp_path):
    t = np.linspace(-1.0, 1.0, 5)
    values = np.exp(-np.pi * t * t) * (1.0 - 0.25j)
    path = tmp_path / "w.csv"
    write_sampled_csv(path, t, values)
    expected = csv_text(("t", "re", "im"), (t, values.real, values.imag))
    assert path.read_bytes() == expected.encode()
    t_back, v_back = read_sampled_csv(path)
    assert np.array_equal(t_back, t) and np.array_equal(v_back, values)


def test_columns_write_the_row_writers_bytes(tmp_path):
    # edge values, and an empty table
    edge = [np.array([-0.0, 5e-324, np.inf, -np.inf, np.nan]), np.array([1e308, -5e-324, 0.0, 2.0, 1e-7])]
    assert csv_text(("x", "y"), edge) == row_writer_text(("x", "y"), zip(*edge))
    assert csv_text(("x",), [np.array([])]) == row_writer_text(("x",), [])

    # a profile with NaN rows: omega = 0 and 1 underflow
    profile = min_delta(dilate(hermite(3), 20.0))
    assert np.isnan(profile.deltas).sum() == 2
    assert profile.csv_text() == row_writer_text(profile.CSV_HEADER, zip(*profile.csv_columns()))

    scan = h1_barrier_scan(0.01, 100.0, 2026)
    rows = [(r.b, r.delta0_low, r.delta0, r.delta0_high) for r in scan.rows]
    assert len(rows) == 2026
    assert scan.csv_text() == row_writer_text(scan.CSV_HEADER, rows)

    # a reduced window's samples, as `reduce --out-window` writes them
    reduced = reduce_general(hermite(1), Lattice2D(basis=np.array([[0.75, 0.0], [0.3, 0.75]])))
    grid, values = sample_grid(), sample_window(reduced.window)
    path = tmp_path / "reduced.csv"
    write_sampled_csv(path, grid, values)
    expected = row_writer_text(("t", "re", "im"), zip(grid, values.real, values.imag))
    assert path.read_bytes() == expected.encode()


def test_readers_name_the_bad_line(tmp_path):
    profile = min_delta(hermite(1), grid_points=11)
    lines = profile.csv_text().split("\r\n")
    cases = {
        "word": (lines[:3] + [lines[3].replace(",", ",x", 1)] + lines[4:], "line 4"),
        "short": (lines[:5] + [lines[5].rsplit(",", 1)[0]] + lines[6:], "line 6"),
    }
    for name, (text, where) in cases.items():
        path = tmp_path / f"{name}.csv"
        path.write_text("\r\n".join(text))
        with pytest.raises(PreconditionError, match=where):
            read_csv(path, DensityProfile.CSV_HEADER)
    grid = np.linspace(-1.0, 1.0, 201)
    path = tmp_path / "window.csv"
    write_sampled_csv(path, grid, np.exp(-np.pi * grid**2))
    lines = path.read_text().split("\n")
    path.write_text("\n".join(lines[:7] + ["0.5,nan?,0.0"] + lines[8:]))
    with pytest.raises(PreconditionError, match="line 8"):
        read_sampled_csv(path)


def test_reader_converts_cells_as_float_does(tmp_path):
    # the cells convert in one numpy call, which follows float(): spaces,
    # underscores, nan and overflow to inf read; hex and a bare exponent do
    # not, and the first bad line is named even when a short row follows it
    path = tmp_path / "cells.csv"
    path.write_text("x,y\r\n 1.5 ,1_0\r\nnan,-Infinity\r\n1e500,2\r\n")
    got = read_csv(path, ("x", "y"))
    want = [[1.5, float("nan"), float("inf")], [10.0, float("-inf"), 2.0]]
    np.testing.assert_array_equal(got, want)
    for bad in ("0x10", "1.5e"):
        path.write_text(f"x,y\r\n1,2\r\n3,{bad}\r\n4\r\n")
        with pytest.raises(PreconditionError, match=f"line 3: not a number in '3,{bad}'"):
            read_csv(path, ("x", "y"))


def read_outcome(read, path, header):
    """A reader's table as (shape, the bits of every double), or its
    PreconditionError message; any warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = read(path, header)
        except PreconditionError as exc:
            return str(exc)
    return table.shape, table.view(np.uint64).tolist()


ODD_CELLS = ["1_0", "\u0661\u0662", "nan", "-nan", "-Infinity", "+inf", "1e500", "1e-400",
             "x", "", "0x10", "1.5e", "1#x", "\ufeff1", '"3.5"', '"1,2"', "1 2", "\t-0.0\x0c", "1\x00",
             "1\x1c", "\x852", "3\u2028"]


@st.composite
def table_texts(draw):
    """A header width and the text of a table under it: plain tables of
    repr'd floats, and tables with odd cells, rows, lines and headers."""
    width = draw(st.integers(1, 4))
    odd = draw(st.booleans())
    pick = (lambda options: draw(st.sampled_from(options))) if odd else (lambda options: options[0])
    cell = st.floats().map(repr)
    if odd:
        padded = st.tuples(st.sampled_from(["", " ", "  "]), cell, st.sampled_from(["", " ", "\t"])).map("".join)
        cell = st.one_of(cell, padded, st.sampled_from(ODD_CELLS))
    header = "abcd"[:width]
    head = pick([",".join(header), " , ".join(header) + " ", "\ufeff" + ",".join(header),
                 ",".join(header[:-1] + "z"), ",".join(header) + ",e", '"a"' + "".join("," + c for c in header[1:])])
    lines = [head]
    for _ in range(draw(st.integers(0, 6))):
        cells = draw(st.lists(cell, min_size=width, max_size=width))
        kind = pick(["row", "blank", "spaces", "short", "long"])
        lines.append({"row": ",".join(cells), "blank": "", "spaces": "  ",
                      "short": ",".join(cells[:-1]), "long": ",".join(cells + ["0.5"])}[kind])
    ends = pick(["\r\n", "\n", "\r", "mixed"])
    if ends == "mixed":
        ends = draw(st.lists(st.sampled_from(["\r\n", "\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    else:
        ends = [ends] * len(lines)
    if pick([False, True]):
        ends[-1] = ""
    return tuple(header), "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=300)
@given(table=table_texts())
def test_reader_equals_the_csv_module_reference(tmp_path_factory, table):
    # fast path or fallback, read_csv returns the csv-module reader's doubles
    # bit for bit (NaN signs too) or raises its message
    header, text = table
    path = tmp_path_factory.mktemp("differential") / "table.csv"
    path.write_bytes(text.encode())
    assert read_outcome(read_csv, path, header) == read_outcome(_read_csv_module, path, header)


def test_reader_pinned_cases(tmp_path):
    path = tmp_path / "pinned.csv"
    cases = [
        # loadtxt reads a cell past the csv module's field limit, and '#' as
        # a comment; an all-space line is a row of one field
        (("x", "y"), "x,y\r\n1,2\r\n3," + "1" * 131_073 + "\r\n", "is not CSV text"),
        (("a", "b", "c"), "a,b,c\r\n1,2,3#x\r\n", "line 2: not a number in '1,2,3#x'"),
        # loadtxt strips \x1c to \x1f as whitespace, float() does not
        (("x",), "x\n1\x1c\n", "line 2: not a number in '1\\x1c'"),
        (("x", "y"), "x,y\r\n1,2\r\n   \r\n3,4\r\n", "line 3: expected 2 fields, got 1"),
        (("x",), "x\n1\n   \n3\n", "line 3: not a number in '   '"),
        # every row one field too long: loadtxt reads it as a wider table
        (("x", "y"), "x,y\n1,2,3\n4,5,6\n", "line 2: expected 2 fields, got 3"),
        # a header-only file raises without loadtxt's "no data" warning
        (("x", "y"), "x,y\r\n", "no rows in"),
        (("x", "y"), "x,y\r\n\r\n", "no rows in"),
        # a lone CR ends a row
        (("x", "y"), "x\r,y\n1,2\n", "expected CSV header 'x,y'"),
        (("x", "y"), "x,y\r1,2\r3\r", "line 3: expected 2 fields, got 1"),
    ]
    for header, text, message in cases:
        path.write_bytes(text.encode())
        outcome = read_outcome(read_csv, path, header)
        assert isinstance(outcome, str) and message in outcome, (text[:40], outcome)
        assert outcome == read_outcome(_read_csv_module, path, header)
    # the reference decodes lazily: a wrong header ahead of a bad byte past
    # the first chunk is the error reported
    rows = "".join(f"{k}.0,0.5\r\n" for k in range(2000))
    path.write_bytes(b"x,z\r\n" + rows.encode() + b"0.0,caf\xe9\r\n")
    with pytest.raises(PreconditionError, match="expected CSV header 'x,y'"):
        read_csv(path, ("x", "y"))
    path.write_bytes(b"x,y\r\n" + rows.encode() + b"0.0,caf\xe9\r\n")
    with pytest.raises(PreconditionError, match="is not CSV text"):
        read_csv(path, ("x", "y"))


def test_window_files_never_reach_csv_reader(tmp_path, monkeypatch):
    # a reduced window as `reduce --out-window` writes it takes the one
    # np.loadtxt pass, with the reference's doubles
    reduced = reduce_general(hermite(1), Lattice2D(basis=np.array([[0.75, 0.0], [0.3, 0.75]])))
    grid, values = sample_grid(), sample_window(reduced.window)
    path = tmp_path / "reduced.csv"
    write_sampled_csv(path, grid, values)
    want = _read_csv_module(path, ("t", "re", "im"))

    def no_reader(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(csv, "reader", no_reader)
    t, got = read_sampled_csv(path)
    assert t.size == 3201
    assert np.array_equal(np.stack([t, got.real, got.imag]).view(np.uint64), want.view(np.uint64))
    assert np.array_equal(got, values)
