"""CSV artifact tables: the one writer and the one checked reader for every
table the pipeline keeps on disk (benchmark days, macro levels, order
streams, calibrations, datasets, curves and reports)."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Callable, Iterable


def numbered(prefix: str, n: int) -> list[str]:
    """Column names prefix1..prefixN."""
    return [f"{prefix}{i + 1}" for i in range(n)]


def write_table(path: Path, header: list[str], rows: Iterable):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def read_table(path: Path, header: list[str],
               parse: Callable[[list[str]], object]) -> list:
    """Rows of a table written by `write_table`, each passed to `parse` as
    its cells in header order. A header that differs, a row with the wrong
    number of cells, or a cell `parse` rejects (ValueError) raises
    ValueError naming the file and line."""
    out = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        got = next(reader, [])
        if got != header:
            missing = [c for c in header if c not in got]
            why = f"missing {', '.join(missing)}" if missing else "unexpected columns"
            raise ValueError(f"{path}: line 1: bad header, {why}")
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path}: line {reader.line_num}: {len(row)} cells, "
                                 f"expected {len(header)}")
            try:
                out.append(parse(row))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc
    return out
