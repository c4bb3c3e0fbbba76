"""Correctness gate for the CSVs the workload commands write.

A command run passes when it exits with code 0, its ``--threads 1`` CSV is
byte-identical to its default-parallel CSV (the CLI contract), and
``check_csv`` finds no problem:

* on every seed: the header and row count match the reference, and the
  invariants hold -- 0 <= delta <= 1 for every overlap column,
  0 < purity <= 1, and the oracle error columns stay under the bounds in
  ``ERROR_BOUNDS``, which are the acceptance-suite tolerances;
* on the default seed: every column matches the reference CSV.  Text,
  integer and flag columns (``EXACT_COLUMNS``, ``violated_*``) must be
  equal.  Physical columns (delta, a, purity, moments, temperatures,
  witness left-hand sides) must agree to ``REL_TOL`` relative, however small
  the reference value (a finite-T delta can be 1e-30); only a reference of
  exactly 0 allows ``ABS_FLOOR`` absolute instead.  Difference columns (``DIFFERENCE_COLUMNS``) must agree to
  ``DIFF_ABS_TOL`` absolute, because a difference of two nearly equal
  numbers has no stable relative accuracy.
"""

from __future__ import annotations

import csv
import io

REL_TOL = 1e-6
ABS_FLOOR = 1e-12
DIFF_ABS_TOL = 1e-6
DIFFERENCE_COLUMNS = ("abs_error", "rel_error", "max_moment_error", "residual")
EXACT_COLUMNS = ("n_atoms", "cutoff", "validity_warning", "any_violation")
DELTA_COLUMNS = ("delta", "delta_effective", "delta_oracle", "delta_quadrature", "delta_split")
# exclusive upper bounds on the oracle-compare error columns (acceptance
# criteria 4 and 5), keyed by the column that marks the mode: ground mode
# writes delta_effective, thermal mode delta_quadrature
ERROR_BOUNDS = {
    "delta_effective": {"rel_error": 0.10},
    "delta_quadrature": {"rel_error": 0.05, "max_moment_error": 0.02},
}


def _rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty CSV")
    return rows[0], rows[1:]


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _invariant_problems(header, rows):
    bounds = {}
    for marker, columns in ERROR_BOUNDS.items():
        if marker in header:
            bounds.update(columns)
    problems = []
    for r, row in enumerate(rows):
        if len(row) != len(header):
            problems.append(f"row {r}: {len(row)} cells for {len(header)} columns")
        for name, cell in zip(header, row):
            x = _number(cell)
            if x is None:
                continue
            if name in DELTA_COLUMNS and not 0.0 <= x <= 1.0:
                problems.append(f"row {r}: {name}={cell} outside [0, 1]")
            elif name == "purity" and not 0.0 < x <= 1.0:
                problems.append(f"row {r}: purity={cell} outside (0, 1]")
            bound = bounds.get(name)
            if bound is not None and not x < bound:
                problems.append(f"row {r}: {name}={cell} not below {bound}")
    return problems


def _cell_problem(name, cell, ref):
    if cell == ref:
        return None
    x, y = _number(cell), _number(ref)
    mismatch = f"{name}={cell}, reference {ref}"
    if x is None or y is None or name in EXACT_COLUMNS or name.startswith("violated_"):
        return mismatch
    if name in DIFFERENCE_COLUMNS:
        tol = DIFF_ABS_TOL
    else:
        tol = REL_TOL * abs(y) if y != 0.0 else ABS_FLOOR
    return None if abs(x - y) <= tol else mismatch


def check_csv(text, reference, compare_values=True):
    """Problems found in one command's CSV ``text``; an empty list means it passes.

    ``reference`` is the default-seed CSV of the same command.  With
    ``compare_values`` false (any other seed) only the header, the row
    count and the invariants are checked.
    """
    try:
        header, rows = _rows(text)
    except ValueError as exc:
        return [str(exc)]
    ref_header, ref_rows = _rows(reference)
    if header != ref_header:
        return [f"header {header} differs from the reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = _invariant_problems(header, rows)
    if compare_values:
        for r, (row, ref_row) in enumerate(zip(rows, ref_rows)):
            for name, cell, ref in zip(header, row, ref_row):
                problem = _cell_problem(name, cell, ref)
                if problem:
                    problems.append(f"row {r}: {problem}")
    return problems
