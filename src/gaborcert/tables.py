"""CSV tables of floats: the one writer of profile, scan and window files; the window-file reader.

Every value is written as repr(float(x)), so reading a file back gives the
identical doubles, and identical tables give byte-identical files.  Lines
end in \\r\\n, as the csv module writes them.
"""

from __future__ import annotations

import csv
from typing import ClassVar, Sequence

import numpy as np

from .errors import PreconditionError


def csv_text(header: Sequence[str], columns: Sequence[np.ndarray]) -> str:
    """The CSV text of a header line and equally long columns of floats."""
    cells = [map(repr, np.asarray(col, dtype=float).tolist()) for col in columns]
    lines = [",".join(header), *map(",".join, zip(*cells))]
    return "\r\n".join(lines) + "\r\n"


def read_csv(path, header: Sequence[str]) -> np.ndarray:
    """The columns of a CSV table of floats under this header, shape (len(header), rows).

    Header cells may carry surrounding spaces; blank lines are skipped.
    Raises PreconditionError for a different header, a row of another
    width or a cell that is not a number (naming the first such line), for
    a table without rows, and for a file that is not CSV text (a byte that
    does not decode, or a cell past the csv module's field limit).  Cells
    convert as float() converts them.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first is None or tuple(cell.strip() for cell in first) != tuple(header):
                raise PreconditionError(f"expected CSV header {','.join(header)!r} in {path}")
            rows, lines = [], []
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    _raise_not_a_number(path, rows, lines)
                    raise PreconditionError(
                        f"{path}, line {reader.line_num}: expected {len(header)} fields, got {len(row)}"
                    )
                rows.append(row)
                lines.append(reader.line_num)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise PreconditionError(f"{path} is not CSV text: {exc}") from None
    if not rows:
        raise PreconditionError(f"no rows in {path}")
    try:
        return np.array(rows, dtype=float).T
    except ValueError:
        _raise_not_a_number(path, rows, lines)
        raise


def _raise_not_a_number(path, rows: list[list[str]], lines: list[int]) -> None:
    """Raise PreconditionError naming the first of these rows with a cell that
    is not a number, if any."""
    for row, line in zip(rows, lines):
        try:
            [float(cell) for cell in row]
        except ValueError:
            raise PreconditionError(
                f"{path}, line {line}: not a number in {','.join(row)!r}"
            ) from None


def write_csv(path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(csv_text(header, columns))


class CsvTable:
    """Mixin giving csv_text() and write_csv(path) to a class with CSV_HEADER and csv_columns()."""

    CSV_HEADER: ClassVar[tuple[str, ...]]

    def csv_columns(self) -> Sequence[np.ndarray]:
        raise NotImplementedError

    def csv_text(self) -> str:
        return csv_text(self.CSV_HEADER, self.csv_columns())

    def write_csv(self, path) -> None:
        write_csv(path, self.CSV_HEADER, self.csv_columns())
