#!/usr/bin/env python3
"""Self-test of the output checks: each check accepts a correct output,
still accepts it with an extra column, and rejects a corrupted one.

Needs only the stored reference, not the program.  The benchmark runs it
before every measurement; it can also be run on its own:

    python3 perfbench/selftest.py
"""

import sys

import checks

GOOD_REPORT = """method,wins,losses,invalids,success_rate
aitken,367,833,398,0.30583333333333335
wynn,367,833,398,0.30583333333333335
evolved,735,465,0,0.61250000000000004
"""

GOOD_RUNLOG = """generation,best_fitness,mean_fitness,evals
0,0.9,0.3,100
1,0.9,0.4,200
2,0.95,0.5,300
"""


def _with_column(text):
    lines = text.splitlines()
    return "\n".join([lines[0] + ",extra"] + [line + ",1" for line in lines[1:]]) + "\n"


def _perturb_one_value(text, factor):
    lines = text.splitlines()
    head, _, value = lines[1].rpartition(",")
    lines[1] = f"{head},{float(value) * factor!r}"
    return "\n".join(lines) + "\n"


def cases():
    """(name, problems, should_pass) for every case."""
    dataset = checks.REFERENCE_DATASET.read_text()
    reference = checks.load_reference(dataset)
    doubled = _perturb_one_value(dataset, 2.0)
    runlog_b = GOOD_RUNLOG.replace("0,0.9,0.3,100", "0,0.9,0.3,101")
    swapped = GOOD_REPORT.replace("aitken,367,833", "aitken,735,465").replace(
        "evolved,735,465", "evolved,367,833")
    return [
        ("dataset: reference", checks.check_dataset(dataset, reference), True),
        ("dataset: extra column", checks.check_dataset(_with_column(dataset),
                                                       reference), True),
        ("dataset: one value x (1 + 1e-9)", checks.check_dataset(
            _perturb_one_value(dataset, 1.0 + 1e-9), reference), False),
        ("dataset: one row missing", checks.check_dataset(
            "\n".join(dataset.splitlines()[:-1]) + "\n", reference), False),
        ("dataset: value above Q/(sigma_t(1-c)), reference agrees",
         checks.check_dataset(doubled, checks.load_reference(doubled)), False),
        ("report: paper counts", checks.check_report(GOOD_REPORT), True),
        ("report: extra column", checks.check_report(_with_column(GOOD_REPORT)), True),
        ("report: swapped win counts", checks.check_report(swapped), False),
        ("runlog: G+1 rows", checks.check_runlog(GOOD_RUNLOG, 2), True),
        ("runlog: extra column", checks.check_runlog(_with_column(GOOD_RUNLOG), 2), True),
        ("runlog: row missing", checks.check_runlog(GOOD_RUNLOG, 3), False),
        ("runlog: best_fitness decreases", checks.check_runlog(
            GOOD_RUNLOG.replace("2,0.95", "2,0.85"), 2), False),
        ("runlogs: identical", checks.check_identical(
            {"runlog.csv": GOOD_RUNLOG}, {"runlog.csv": GOOD_RUNLOG}), True),
        ("runlogs: two differ", checks.check_identical(
            {"runlog.csv": GOOD_RUNLOG}, {"runlog.csv": runlog_b}), False),
    ]


def run():
    """Names of the cases whose check gave the wrong verdict."""
    return [name for name, problems, should_pass in cases()
            if (not problems) != should_pass]


if __name__ == "__main__":
    wrong = []
    for name, problems, should_pass in cases():
        ok = (not problems) == should_pass
        verdict = "accepted" if not problems else "rejected"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}"
              + (f" ({problems[0]})" if problems else ""))
        wrong += [] if ok else [name]
    sys.exit(1 if wrong else 0)
