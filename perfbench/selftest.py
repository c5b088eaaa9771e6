"""Self-test of the benchmark's output check: corrupted output must raise
failed_frac and make the run incorrect.

Run from the root of a wavetime checkout:

    python3 perfbench/selftest.py

It writes result tables in the CLI's CSV layout, built from the committed
stack_transmission reference, and checks them the way a benchmark pass does.
"""
from __future__ import annotations

import csv
import os
import random
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def write_cli_csv(path: str, columns: list[str], rows: dict) -> None:
    """A result table as `wavetime run` writes it: metadata, key, values, reason."""
    with open(path, "w", newline="") as fh:
        fh.write("# tool_version: selftest\r\n")
        writer = csv.writer(fh)
        writer.writerow(["energy", *columns, "reason"])
        for key, values in rows.items():
            missing = [c for c, v in zip(columns, values) if v is None]
            writer.writerow(
                [f"{key:.17g}"] + ["" if v is None else f"{v:.17g}" for v in values]
                + ["; ".join(f"{c}: StepSizeError: selftest" for c in missing)]
            )


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import cells
    import workloads

    sweep = workloads.WORKLOADS["stack_transmission"].parts[0]
    columns, reference = cells.read_table(
        workloads.reference_path(os.path.join(HERE, "reference"), "stack_transmission", sweep.part)
    )
    reason_cells = [(k, i) for k, v in reference.items() for i, x in enumerate(v) if x is None]
    assert reason_cells, "the reference has no reason-coded cell to test against"
    value_key = next(k for k, v in reference.items() if None not in v)

    workdir = os.path.join(os.getcwd(), ".perfbench", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        part = sweep.prepare(workdir, random.Random(0))
        part.grid = list(reference)  # check every reference row
        total = len(reference) * len(columns)

        def tally(rows):
            write_cli_csv(part.output_path, columns, rows)
            part.error = None
            return workloads.check(part, columns, reference)

        def copy():
            return {k: list(v) for k, v in reference.items()}

        cases = []
        out = tally(copy())
        cases.append(("unchanged output", out.failed == len(reason_cells) and out.mismatched == 0))

        rows = copy()
        rows[value_key][0] *= 1.0 + 1e-4
        out = tally(rows)
        cases.append(("perturbed value cell fails", out.failed == len(reason_cells) + 1 and out.mismatched == 1))

        rows = copy()
        rows[value_key][0] *= 1.0 + 1e-9
        out = tally(rows)
        cases.append(("change within tolerance passes", out.failed == len(reason_cells) and out.mismatched == 0))

        rows = copy()
        rows[value_key][1] = None
        out = tally(rows)
        cases.append(("newly reason-coded cell fails", out.failed == len(reason_cells) + 1 and out.mismatched == 1))

        rows = copy()
        key, i = reason_cells[0]
        rows[key][i] = 1.0
        out = tally(rows)
        cases.append(("value where the reference had a reason passes",
                      out.failed == len(reason_cells) - 1 and out.mismatched == 0))

        rows = copy()
        del rows[value_key]
        out = tally(rows)
        cases.append(("missing row fails", out.failed == len(reason_cells) + len(columns)
                      and out.mismatched == len(columns)))

        part.error = "RuntimeError: selftest"
        out = workloads.check(part, columns, reference)
        cases.append(("errored run fails every cell", out.attempted == total and out.failed == total
                      and out.mismatched == total - len(reason_cells)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, ok in cases:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in cases) else 1


if __name__ == "__main__":
    sys.exit(main())
