"""Golden BigDansing detection: ordered violations and virtual time.

The detection rules below are the ones the ``detect-batch`` benchmark
runs (``perfbench/detect_batch.py``).  For every detection method each
rule supports, the *ordered* violation list and ``metrics.virtual_ms``
must match ``goldens/bigdansing_detect.json`` exactly: a data-path
optimisation may not reorder output or move the virtual clock by a bit.

The 2k-row table feeds the blocked plans (``operators``, ``iejoin``);
the quadratic baselines (``single-udf``, ``cross``) run on its first
``QUADRATIC_ROWS`` rows so the suite stays fast.

To re-record after an intentional change::

    PYTHONPATH=src python tests/apps/test_detection_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.apps.cleaning import (
    BigDansing,
    DCRule,
    FDRule,
    Predicate,
    generate_tax_records,
)
from repro.core.context import RheemContext

GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "goldens", "bigdansing_detect.json"
)

ROWS = 2_000
SEED = 7
QUADRATIC_ROWS = 500

FD = FDRule("fd-zip-city", lhs=["zipcode"], rhs=["city"])
DC = DCRule(
    "dc-salary-tax",
    [
        Predicate("state", "==", "state"),
        Predicate("salary", ">", "salary"),
        Predicate("tax", "<", "tax"),
    ],
)

CASES = [
    (FD, "operators"),
    (FD, "single-udf"),
    (FD, "cross"),
    (DC, "operators"),
    (DC, "iejoin"),
    (DC, "single-udf"),
    (DC, "cross"),
]


def _rows(method: str):
    rows = generate_tax_records(ROWS, seed=SEED)
    return rows[:QUADRATIC_ROWS] if method in ("single-udf", "cross") else rows


def observe(rule, method: str) -> dict:
    """Run one detection in a fresh context and summarise its output."""
    violations, metrics = BigDansing(RheemContext()).detect(
        _rows(method), rule, method=method
    )
    canonical = [
        (v.rule_id, tuple((c.tid, c.field, c.value) for c in v.cells))
        for v in violations
    ]
    return {
        "violations": len(violations),
        "sha256": hashlib.sha256(repr(canonical).encode()).hexdigest(),
        "virtual_ms": metrics.virtual_ms,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "rule,method", CASES, ids=[f"{r.rule_id}-{m}" for r, m in CASES]
)
def test_detection_matches_golden(golden, rule, method):
    expected = golden[f"{rule.rule_id}/{method}"]
    observed = observe(rule, method)
    assert observed["violations"] == expected["violations"]
    assert observed["sha256"] == expected["sha256"], "violation order drifted"
    # exact float equality: JSON round-trips the shortest repr losslessly
    assert observed["virtual_ms"] == expected["virtual_ms"]


if __name__ == "__main__":
    recorded = {f"{r.rule_id}/{m}": observe(r, m) for r, m in CASES}
    with open(GOLDEN, "w") as fh:
        json.dump(recorded, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")
