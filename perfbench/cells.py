"""Value-cell bookkeeping: read result tables and compare them with a reference.

A value cell is one number a sweep row reports: every column except the sweep
key (the first column), `flags` and `reason`.  A cell counts as failed when it
is reason-coded (empty), when it is missing because its run errored, or when it
differs from the reference by more than the stated tolerance.  Reason text is
never compared.  A cell that has a value where the reference had a reason is
not a failure.
"""
from __future__ import annotations

import csv
import gzip
import io
import math
from dataclasses import dataclass

NON_VALUE_COLUMNS = ("flags", "reason")


@dataclass
class CellTally:
    """Value cells attempted and failed, over any number of passes.

    `mismatched` counts the failures the reference does not share: a cell that
    lost its value, or a value outside tolerance.  Output is correct when it is
    zero.
    """

    attempted: int = 0
    failed: int = 0
    mismatched: int = 0

    def add(self, other: "CellTally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.mismatched += other.mismatched

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _value(text: str) -> float | None:
    return float(text) if text != "" else None


def read_table(path: str) -> tuple[list[str], dict[float, list[float | None]]]:
    """Parse a result table (plain or gzipped CSV) into value cells keyed by
    the first column; `#` lines are metadata and skipped."""
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt", newline="") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        columns = next(reader)
        keep = [i for i, col in enumerate(columns) if i > 0 and col not in NON_VALUE_COLUMNS]
        rows = {float(row[0]): [_value(row[i]) for i in keep] for row in reader}
    return [columns[i] for i in keep], rows


def write_table(path: str, columns: list[str], rows: dict[float, list[float | None]]) -> None:
    """Write value cells in the layout read_table expects (gzipped if .gz)."""
    if path.endswith(".gz"):  # mtime 0: the same table gives the same bytes
        fh = io.TextIOWrapper(gzip.GzipFile(path, "wb", mtime=0), newline="")
    else:
        fh = open(path, "w", newline="")
    with fh:
        writer = csv.writer(fh)
        writer.writerow(["key", *columns])
        for key, cells in rows.items():
            writer.writerow([f"{key:.17g}"] + ["" if v is None else f"{v:.17g}" for v in cells])


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def tally(
    expected: dict[float, list[float | None]],
    got: dict[float, list[float | None]] | None,
    rtol: float,
    atol: float,
) -> CellTally:
    """Count the value cells of one output against the expected reference rows.

    `got` is None when the run that should have produced it errored; every
    expected cell is then missing.  Rows the reference does not expect are
    mismatches.
    """
    out = CellTally()
    got = got if got is not None else {}
    out.mismatched += len(set(got) - set(expected))
    for key, ref_cells in expected.items():
        cells = got.get(key, [None] * len(ref_cells))
        for ref, val in zip(ref_cells, cells):
            out.attempted += 1
            if val is None:
                out.failed += 1
                out.mismatched += ref is not None
            elif ref is not None and not _close(val, ref, rtol, atol):
                out.failed += 1
                out.mismatched += 1
    return out
