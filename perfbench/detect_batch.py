"""``detect-batch``: BigDansing violation detection, the paper's §5 case study.

Each job runs an FD rule (Scope/Block/Iterate/Detect) and an inequality DC
rule (IEJoin) over one dirty tax table of 20k rows, in a default
``RheemContext``.  Nearly all of the wall is inside ``Platform.execute_atom``
and the optimizer takes under 1%, so a kernel or data-path change shows
here and an optimizer or serving change must not.

The DC errors are placed by salary rank inside each state rather than at
random rows: a dirty row violates the DC with every cheaper row of its
state, so a random placement would make the violation count, and with it
the job's cost, swing from seed to seed.
"""

from __future__ import annotations

import random
from collections import defaultdict

import references
from common import BatchLoop, Outcome, timed_setup

from repro.apps.cleaning import (
    BigDansing,
    DCRule,
    FDRule,
    Predicate,
    generate_tax_records,
)
from repro.core.context import RheemContext

ROWS = 20_000
#: distinct tables a run cycles through
TABLES = 3
FD_ERROR_RATE = 0.01
#: salary ranks, as fractions of a state's rows, whose tax is under-reported
DC_DIRTY_RANKS = (0.1, 0.2)
SETUP_REPEATS = 3

FD = FDRule("fd-zip-city", lhs=["zipcode"], rhs=["city"])
DC = DCRule(
    "dc-salary-tax",
    [
        Predicate("state", "==", "state"),
        Predicate("salary", ">", "salary"),
        Predicate("tax", "<", "tax"),
    ],
)


def make_tables(seed: int) -> list:
    rng = random.Random(seed)
    return [
        _under_report_taxes(generate_tax_records(
            ROWS, seed=rng.randrange(1 << 30),
            fd_error_rate=FD_ERROR_RATE, dc_error_rate=0.0,
        ))
        for _ in range(TABLES)
    ]


def _under_report_taxes(rows: list) -> list:
    by_state = defaultdict(list)
    for index, row in enumerate(rows):
        by_state[row["state"]].append(index)
    for members in by_state.values():
        members.sort(key=lambda index: (rows[index]["salary"], index))
        for rank in DC_DIRTY_RANKS:
            index = members[int(rank * len(members))]
            row = rows[index]
            rows[index] = row.with_value("tax", round(row["salary"] * 0.01, 2))
    return rows


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()

    def setup():
        bigdansing = BigDansing(RheemContext())
        tables = make_tables(seed)
        detect(bigdansing, tables[0])  # warm-up
        return bigdansing, tables

    (bigdansing, tables), *setup_times = timed_setup(
        setup, 1 if trace else SETUP_REPEATS
    )
    expected = [
        (
            references.fd_violations(rows, "zipcode", "city"),
            references.dc_violations(rows, "state", "salary", "tax"),
        )
        for rows in tables
    ]
    outcome.info["violations"] = [[len(fd), len(dc)] for fd, dc in expected]

    def check(index: int, outputs) -> None:
        for rule, violations, reference in zip(
            (FD, DC), outputs, expected[index]
        ):
            outcome.check(
                all(v.rule_id == rule.rule_id for v in violations)
                and references.violation_cells(violations) == reference,
                f"table {index}: {rule.rule_id} violations differ from the "
                f"reference ({len(violations)} vs {len(reference)})",
            )

    loop = BatchLoop(lambda rows: detect(bigdansing, rows), check, tables,
                     outcome)
    loop.measure(seconds, trace, setup_times)
    return outcome


def detect(bigdansing: BigDansing, rows):
    fd, fd_metrics = bigdansing.detect(rows, FD)
    dc, dc_metrics = bigdansing.detect(rows, DC)
    return (fd, dc), fd_metrics.virtual_ms + dc_metrics.virtual_ms
