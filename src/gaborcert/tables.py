"""CSV tables of floats: the one writer of profile, scan and window files; the window-file reader.

Every value is written as repr(float(x)), so reading a file back gives the
identical doubles, and identical tables give byte-identical files.  Lines
end in \\r\\n, as the csv module writes them.

The reader parses a plain table, as the writer makes, in one np.loadtxt
pass.  Any other file, and any that fails, goes through the csv module: the
reference reader, and the one source of the reader's errors.
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

    A plain table takes one np.loadtxt pass, whose strtod is float()'s.  A
    quote, NUL, ASCII separator (\\x1c to \\x1f), lone CR or overlong line,
    or any failure, sends the file through the csv module
    (_read_csv_module), which raises every error above.
    """
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        # the csv-module reader decodes lazily, so a bad header ahead of the
        # bad byte is still the error it reports
        return _read_csv_module(path, header)
    table = _read_plain(text, header)
    return _read_csv_module(path, header) if table is None else table


def _read_plain(text: str, header: Sequence[str]) -> np.ndarray | None:
    """The columns of a plain table by one np.loadtxt call, or None where the
    csv-module reader must decide."""
    # quotes and NULs are the csv module's to read; loadtxt also strips the
    # ASCII separators \x1c to \x1f around a number, which float() refuses
    if any(c in text for c in '"\0\x1c\x1d\x1e\x1f'):
        return None
    lines = text.split("\n")
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    # the csv module ends a row at any CR; loadtxt takes a CR that ends a
    # body line as its end and refuses one before it, so only the header
    # is checked here
    head = lines[0].removesuffix("\r")
    if "\r" in head or tuple(cell.strip() for cell in head.split(",")) != tuple(header):
        return None
    body = list(filter(None, lines[1:]))
    # loadtxt warns on a body of no rows, and of blank CRLF lines ("\r") only
    if not body or "\r" in body:
        return None
    try:
        # comments=None: loadtxt would otherwise cut cells at '#'
        table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    return table.T if table.shape == (len(body), len(header)) else None


def _read_csv_module(path, header: Sequence[str]) -> np.ndarray:
    """read_csv through csv.reader: the reference reader and its error path."""
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
