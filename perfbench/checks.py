"""Output checks of the three benchmark workloads.

Every check returns a list of problems; an empty list means the output is
correct.  Outputs are read by column name, so columns that later versions
add to a CSV do not break a check.
"""

import csv
import io
from pathlib import Path

REFERENCE_DATASET = Path(__file__).resolve().parent / "reference" / "dataset.csv"

#: Largest relative deviation of a center flux from the stored reference.
REL_TOL = 1e-12

#: The paper's default grid: 40 scattering ratios x 6 widths, orders 4..52.
GRID_SEQUENCES = 240
GRID_ORDERS = 13

#: Source and total cross section of the default grid; the infinite-medium
#: flux Q / (sigma_t (1 - c)) bounds every center flux from above.
SOURCE = 1.0
SIGMA_T = 1.0

#: Strict wins over the raw sequence on the default grid, 240 sequences x
#: 5 positions = 1200 comparisons per method.  Aitken and Wynn column 2 are
#: the same transform, so their counts are equal by construction.
EXPECTED_WINS = {"aitken": 367, "wynn": 367, "evolved": 735}
COMPARISONS_PER_METHOD = 1200

_MAX_LISTED = 5


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _first(problems):
    if len(problems) > _MAX_LISTED:
        return problems[:_MAX_LISTED] + [f"... {len(problems) - _MAX_LISTED} more"]
    return problems


def _dataset_key(row):
    return float(row["c"]), float(row["width_mfp"]), int(row["order"])


def load_reference(text):
    """Center flux by (c, width, order) of a dataset CSV's text."""
    return {_dataset_key(row): float(row["center_flux"]) for row in _rows(text)}


def check_dataset(text, reference):
    """A `generate` dataset on the default grid: 240 x 13 values, each
    within REL_TOL of the reference and inside (0, Q / (sigma_t (1 - c)))."""
    try:
        rows = _rows(text)
        values = {_dataset_key(row): float(row["center_flux"]) for row in rows}
    except (KeyError, TypeError, ValueError) as exc:
        return [f"dataset unreadable: {exc!r}"]
    problems = []
    expected = GRID_SEQUENCES * GRID_ORDERS
    if len(rows) != expected or len(values) != expected:
        problems.append(f"dataset has {len(rows)} rows and {len(values)} distinct "
                        f"(c, width, order) keys, expected {expected}")
    for key, value in values.items():
        if not 0.0 < value < SOURCE / (SIGMA_T * (1.0 - key[0])):
            problems.append(f"{key}: {value!r} outside (0, Q/(sigma_t(1-c)))")
        ref = reference.get(key)
        if ref is None:
            problems.append(f"{key}: not on the reference grid")
        elif abs(value - ref) > REL_TOL * abs(ref):
            problems.append(f"{key}: {value!r} differs from reference {ref!r} "
                            f"by {abs(value - ref) / abs(ref):.3e} relative")
    return _first(problems)


def check_report(text):
    """An `evaluate` report.csv: the strict win counts of the default grid."""
    try:
        rows = {row["method"]: row for row in _rows(text)}
        wins = {name: int(rows[name]["wins"]) for name in EXPECTED_WINS if name in rows}
        total = {name: int(rows[name]["wins"]) + int(rows[name]["losses"])
                 for name in wins}
    except (KeyError, TypeError, ValueError) as exc:
        return [f"report unreadable: {exc!r}"]
    problems = []
    for name, expected in EXPECTED_WINS.items():
        if name not in wins:
            problems.append(f"method {name!r} missing from report")
            continue
        if wins[name] != expected:
            problems.append(f"{name}: {wins[name]} wins, expected {expected}")
        if total[name] != COMPARISONS_PER_METHOD:
            problems.append(f"{name}: wins + losses = {total[name]}, expected "
                            f"{COMPARISONS_PER_METHOD}")
    return problems


def check_runlog(text, generations):
    """An `evolve` runlog.csv of a run that cannot stop early: one row per
    generation 0..G and a best fitness that never decreases."""
    try:
        rows = _rows(text)
        gens = [int(row["generation"]) for row in rows]
        best = [float(row["best_fitness"]) for row in rows]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"runlog unreadable: {exc!r}"]
    problems = []
    if gens != list(range(generations + 1)):
        problems.append(f"runlog generations {gens}, expected 0..{generations}")
    for g in range(1, len(best)):
        if best[g] < best[g - 1]:
            problems.append(f"best_fitness decreases at row {g}: "
                            f"{best[g - 1]!r} -> {best[g]!r}")
    return problems


def check_identical(first, other):
    """Files of one op against the same files of the run's first op."""
    return [f"{name} differs from the first op's {name}"
            for name in first if other.get(name) != first[name]]
