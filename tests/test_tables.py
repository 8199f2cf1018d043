"""The one CSV writer behind profile, barrier-scan and window-sample files."""

import numpy as np

from gaborcert import h1_barrier_scan, hermite, min_delta, read_sampled_csv, write_sampled_csv
from gaborcert.tables import csv_text


def test_csv_text_format():
    rows = [(0.1, 1.0), (np.float64(2.5e-300), -0.0), (np.nan, 1 / 3)]
    assert csv_text(("a", "b"), rows) == (
        "a,b\r\n0.1,1.0\r\n2.5e-300,-0.0\r\nnan,0.3333333333333333\r\n"
    )


def test_barrier_scan_and_profile_files_are_their_csv_text(tmp_path):
    for table in (h1_barrier_scan(0.5, 2.0, 5), min_delta(hermite(1), grid_points=11)):
        path = tmp_path / "table.csv"
        table.write_csv(path)
        assert path.read_bytes() == table.csv_text().encode()
        assert table.csv_text() == csv_text(table.CSV_HEADER, table.csv_rows())


def test_window_samples_go_through_the_same_writer(tmp_path):
    t = np.linspace(-1.0, 1.0, 5)
    values = np.exp(-np.pi * t * t) * (1.0 - 0.25j)
    path = tmp_path / "w.csv"
    write_sampled_csv(path, t, values)
    expected = csv_text(("t", "re", "im"), zip(t, values.real, values.imag))
    assert path.read_bytes() == expected.encode()
    t_back, v_back = read_sampled_csv(path)
    assert np.array_equal(t_back, t) and np.array_equal(v_back, values)
