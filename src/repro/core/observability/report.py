"""Perf-regression observatory: baselines vs history, with gating.

``benchmarks/results/`` holds two kinds of record:

* ``BENCH_<exp_id>.json`` — the *committed baselines*: one machine-
  readable payload per experiment, refreshed deliberately when a PR
  changes the numbers on purpose;
* ``history.jsonl`` — the *durable run record*: every bench run appends
  one line per experiment (git sha, scale, wall/virtual/makespan,
  resource summary when profiled), whether or not it is ever committed.

``repro report`` renders the last runs against the baselines plus the
trend; ``repro report --check`` turns the comparison into a gate:

* **hard floors** — every baseline key whose value is boolean ``True``
  (``identical``, ``deterministic``, ``outputs_identical``, ...) must be
  ``True`` in every windowed run, at any scale.  Byte-identity is never
  allowed to degrade, noisy CI box or not.
* **floor margins** — for every baseline pair ``X`` / ``X_floor``
  (e.g. ``speedup``/``speedup_floor``), the median of ``X - X_floor``
  over the window must be >= 0.  Each run is measured against *its own*
  recorded floor, so quick-scale runs gate against quick-scale floors.
* **tolerance bands** — numeric ``*_ms`` metrics are compared as
  best-of-N medians against the baseline, only when the run scale
  matches the baseline scale (wall times at quick scale say nothing
  about full-scale baselines).  Keys with a ``wall`` token
  (``wall_ms``, ``cold_wall_ms``) get the loose wall-clock band; everything else ending in ``_ms`` is virtual
  time — deterministic by construction — and gets a tight band.

The module only reads files handed to it (no repo-layout assumptions),
so it lives in core/ while the writers live in benchmarks/harness.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
from dataclasses import dataclass, field

#: provenance keys excluded from metric comparison
PROVENANCE_KEYS = ("exp_id", "scale", "git_sha", "recorded_at_utc", "profiled")

DEFAULT_BEST_OF = 3
#: wall-clock metrics are noisy across machines and loads
DEFAULT_WALL_TOLERANCE = 0.50
#: virtual-time metrics are deterministic — drift means the bill changed
DEFAULT_VIRTUAL_TOLERANCE = 0.02

OK = "ok"
FAIL = "FAIL"
SKIP = "skip"


def repo_git_sha(cwd: str | None = None) -> str | None:
    """HEAD commit sha, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd or os.getcwd(),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def load_baselines(results_dir: str) -> dict[str, dict]:
    """Committed ``BENCH_<exp_id>.json`` payloads, keyed by exp id."""
    baselines: dict[str, dict] = {}
    if not os.path.isdir(results_dir):
        return baselines
    for name in sorted(os.listdir(results_dir)):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        path = os.path.join(results_dir, name)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                document = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        exp_id = document.get("exp_id") or name[len("BENCH_"):-len(".json")]
        baselines[exp_id] = document
    return baselines


def load_history(path: str) -> tuple[list[dict], int]:
    """History entries plus the count of skipped (torn/corrupt) lines.

    Appends are fsync'd but a crash can still tear the final line;
    unparsable or non-dict lines are counted and skipped, never fatal.
    """
    entries: list[dict] = []
    skipped = 0
    if not os.path.exists(path):
        return entries, skipped
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                document = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if isinstance(document, dict) and document.get("exp_id"):
                entries.append(document)
            else:
                skipped += 1
    return entries, skipped


@dataclass
class Gate:
    """One evaluated comparison for one experiment."""

    exp_id: str
    metric: str
    status: str  # OK | FAIL | SKIP
    detail: str


@dataclass
class ExpSection:
    """One experiment's baseline, run window and gate results."""

    exp_id: str
    baseline: dict
    window: list[dict] = field(default_factory=list)
    gates: list[Gate] = field(default_factory=list)


@dataclass
class PerfReport:
    """The full observatory comparison."""

    sections: list[ExpSection] = field(default_factory=list)
    history_runs: int = 0
    skipped_lines: int = 0
    extra_exp_ids: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[Gate]:
        return [
            gate
            for section in self.sections
            for gate in section.gates
            if gate.status == FAIL
        ]


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _is_number(value) -> bool:
    return type(value) in (int, float)


def _band_keys(baseline: dict) -> list[str]:
    """Baseline metric keys eligible for tolerance-band comparison."""
    keys = []
    for key, value in baseline.items():
        if key in PROVENANCE_KEYS or not key.endswith("_ms"):
            continue
        if _is_number(value):
            keys.append(key)
        elif isinstance(value, dict) and value and all(
            _is_number(v) for v in value.values()
        ):
            keys.append(key)
    return keys


def _tolerance_for(key: str, wall_tol: float, virtual_tol: float) -> float:
    """Wall-clock keys carry a ``wall`` token (``wall_ms``, ``cold_wall_ms``)."""
    return wall_tol if "wall" in key.split("_") else virtual_tol


def build_report(
    baselines: dict[str, dict],
    history: list[dict],
    *,
    best_of: int = DEFAULT_BEST_OF,
    wall_tolerance: float = DEFAULT_WALL_TOLERANCE,
    virtual_tolerance: float = DEFAULT_VIRTUAL_TOLERANCE,
    skipped_lines: int = 0,
) -> PerfReport:
    """Compare the last ``best_of`` history runs per experiment against
    the committed baselines and evaluate every gate."""
    report = PerfReport(
        history_runs=len(history), skipped_lines=skipped_lines
    )
    baseline_ids = set(baselines)
    report.extra_exp_ids = sorted(
        {e["exp_id"] for e in history} - baseline_ids
    )
    for exp_id in sorted(baselines):
        baseline = baselines[exp_id]
        window = [e for e in history if e["exp_id"] == exp_id][-best_of:]
        section = ExpSection(exp_id, baseline, window)
        report.sections.append(section)
        if not window:
            section.gates.append(
                Gate(exp_id, "(all)", SKIP, "no history runs recorded")
            )
            continue
        _gate_booleans(section)
        _gate_floors(section)
        _gate_bands(section, wall_tolerance, virtual_tolerance)
    return report


def _gate_booleans(section: ExpSection) -> None:
    """Hard floors: baseline ``True`` booleans must stay ``True``."""
    for key, value in section.baseline.items():
        if key in PROVENANCE_KEYS or value is not True:
            continue
        observed = [e[key] for e in section.window if key in e]
        if not observed:
            section.gates.append(
                Gate(section.exp_id, key, SKIP, "metric absent from runs")
            )
            continue
        holds = sum(1 for v in observed if v is True)
        status = OK if holds == len(observed) else FAIL
        section.gates.append(
            Gate(
                section.exp_id,
                key,
                status,
                f"true in {holds}/{len(observed)} runs (hard floor)",
            )
        )


def _gate_floors(section: ExpSection) -> None:
    """Floor margins: median of ``X - X_floor`` must be >= 0."""
    baseline = section.baseline
    for key, value in baseline.items():
        if not key.endswith("_floor") or not _is_number(value):
            continue
        metric = key[: -len("_floor")]
        if not _is_number(baseline.get(metric)):
            continue
        margins = [
            float(e[metric]) - float(e.get(key, value))
            for e in section.window
            if _is_number(e.get(metric))
        ]
        if not margins:
            section.gates.append(
                Gate(section.exp_id, metric, SKIP, "metric absent from runs")
            )
            continue
        margin = _median(margins)
        status = OK if margin >= 0 else FAIL
        section.gates.append(
            Gate(
                section.exp_id,
                metric,
                status,
                f"median margin {margin:+.3f} over recorded floor "
                f"({len(margins)} run(s))",
            )
        )


def _gate_bands(
    section: ExpSection, wall_tol: float, virtual_tol: float
) -> None:
    """Tolerance bands on ``*_ms`` medians, same-scale runs only."""
    baseline = section.baseline
    base_scale = baseline.get("scale")
    scaled = [e for e in section.window if e.get("scale") == base_scale]
    for key in _band_keys(baseline):
        if not scaled:
            section.gates.append(
                Gate(
                    section.exp_id,
                    key,
                    SKIP,
                    f"no runs at baseline scale {base_scale!r}",
                )
            )
            continue
        tolerance = _tolerance_for(key, wall_tol, virtual_tol)
        base_value = baseline[key]
        if isinstance(base_value, dict):
            for sub, base_v in sorted(base_value.items()):
                observed = [
                    float(e[key][sub])
                    for e in scaled
                    if isinstance(e.get(key), dict)
                    and _is_number(e[key].get(sub))
                ]
                _append_band_gate(
                    section, f"{key}[{sub}]", float(base_v), observed,
                    tolerance,
                )
        else:
            observed = [
                float(e[key]) for e in scaled if _is_number(e.get(key))
            ]
            _append_band_gate(
                section, key, float(base_value), observed, tolerance
            )


def _append_band_gate(
    section: ExpSection,
    metric: str,
    base_value: float,
    observed: list[float],
    tolerance: float,
) -> None:
    if not observed:
        section.gates.append(
            Gate(section.exp_id, metric, SKIP, "metric absent from runs")
        )
        return
    median = _median(observed)
    limit = base_value * (1.0 + tolerance)
    status = OK if median <= limit else FAIL
    section.gates.append(
        Gate(
            section.exp_id,
            metric,
            status,
            f"median {median:.3f} vs baseline {base_value:.3f} "
            f"(band +{tolerance:.0%}, {len(observed)} run(s))",
        )
    )


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _trend(section: ExpSection, key: str = "speedup", width: int = 8) -> str:
    values = [
        float(e[key]) for e in section.window[-width:] if _is_number(e.get(key))
    ]
    if len(values) < 2:
        return ""
    return " -> ".join(f"{v:.2f}" for v in values)


def render_report(report: PerfReport, *, markdown: bool = False) -> str:
    """Render the observatory comparison as text or markdown."""
    if markdown:
        return _render_markdown(report)
    lines = [
        f"perf observatory — {len(report.sections)} baseline(s), "
        f"{report.history_runs} history entr(ies)"
        + (
            f", {report.skipped_lines} torn line(s) skipped"
            if report.skipped_lines
            else ""
        )
    ]
    for section in report.sections:
        sha = (section.baseline.get("git_sha") or "?")[:9]
        lines.append(
            f"\n{section.exp_id}  baseline: "
            f"scale={section.baseline.get('scale')} sha={sha}  "
            f"window: {len(section.window)} run(s)"
        )
        for gate in section.gates:
            lines.append(f"  [{gate.status:>4}] {gate.metric}: {gate.detail}")
        trend = _trend(section)
        if trend:
            lines.append(f"  trend speedup: {trend}")
    if report.extra_exp_ids:
        lines.append(
            "\nhistory-only experiments (no committed baseline): "
            + ", ".join(report.extra_exp_ids)
        )
    regressions = report.regressions
    lines.append(
        f"\n{'REGRESSIONS: ' + str(len(regressions)) if regressions else 'no regressions'}"
    )
    for gate in regressions:
        lines.append(f"  {gate.exp_id}.{gate.metric}: {gate.detail}")
    return "\n".join(lines)


def _render_markdown(report: PerfReport) -> str:
    lines = [
        "# Perf observatory",
        "",
        f"{len(report.sections)} baseline(s), {report.history_runs} "
        f"history entr(ies), {report.skipped_lines} torn line(s) skipped.",
        "",
        "| experiment | metric | status | detail |",
        "| --- | --- | --- | --- |",
    ]
    for section in report.sections:
        for gate in section.gates:
            lines.append(
                f"| {section.exp_id} | `{gate.metric}` | {gate.status} "
                f"| {gate.detail} |"
            )
    regressions = report.regressions
    lines.append("")
    lines.append(
        f"**{len(regressions)} regression(s).**"
        if regressions
        else "**No regressions.**"
    )
    return "\n".join(lines)
