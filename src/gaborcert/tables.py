"""CSV tables of floats: the one writer behind profile, scan and window files.

Every value is written as repr(float(x)), so reading a file back gives the
identical doubles, and identical tables give byte-identical files.  Lines
end in \\r\\n, as the csv module writes them.
"""

from __future__ import annotations

from typing import ClassVar, Sequence

import numpy as np


def csv_text(header: Sequence[str], columns: Sequence[np.ndarray]) -> str:
    """The CSV text of a header line and equally long columns of floats."""
    cells = [map(repr, np.asarray(col, dtype=float).tolist()) for col in columns]
    lines = [",".join(header), *map(",".join, zip(*cells))]
    return "\r\n".join(lines) + "\r\n"


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
