"""CSV tables of floats: the one writer behind profile, scan and window files.

Every value is written as repr(float(x)), so reading a file back gives the
identical doubles, and identical tables give byte-identical files.
"""

from __future__ import annotations

import csv
import io
from typing import ClassVar, Iterable, Sequence


def csv_text(header: Sequence[str], rows: Iterable[Iterable[float]]) -> str:
    """The CSV text of a header line and rows of floats."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows([repr(float(x)) for x in row] for row in rows)
    return buffer.getvalue()


def write_csv(path, header: Sequence[str], rows: Iterable[Iterable[float]]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(csv_text(header, rows))


class CsvTable:
    """Mixin giving csv_text() and write_csv(path) to a class with CSV_HEADER and csv_rows()."""

    CSV_HEADER: ClassVar[tuple[str, ...]]

    def csv_rows(self) -> Iterable[Iterable[float]]:
        raise NotImplementedError

    def csv_text(self) -> str:
        return csv_text(self.CSV_HEADER, self.csv_rows())

    def write_csv(self, path) -> None:
        write_csv(path, self.CSV_HEADER, self.csv_rows())
