"""The one CSV writer and reader behind profile, barrier-scan and window-sample files."""

import csv
import io

import numpy as np
import pytest

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
from gaborcert.tables import csv_text, read_csv


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
            DensityProfile.read_csv(path)
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
