"""Pieces shared by the workloads: the run outcome, summary statistics, the
machine-speed probe and the closed loop of the batch workloads.

Wall-clock figures are reported at a reference machine speed.  The shared
machine this benchmark was tuned on switches between a fast and a slow
state about 1.6x apart, for seconds to minutes at a time; process CPU time
follows wall time through the switches, so the program really runs slower,
and ten runs of one workload spread by up to 0.3 of their median.  Between
jobs (and between the slices of a serving run) the benchmark times a fixed
piece of interpreter work, :func:`probe_ms`, with nothing else running;
each wall time is multiplied by :data:`PROBE_REFERENCE_MS` over the mean of
the probes taken just before and just after it.  The probe is code of the
benchmark, not of the program, so a change to the program moves the scaled
figures exactly as it moves the raw ones; the raw figures are printed with
the run information.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field

from layers import Recorder, layer_metrics

#: probe time at the reference speed: the fast state of the shared 2-vCPU
#: virtual machine the benchmark was tuned on
PROBE_REFERENCE_MS = 2.3
PROBE_ROUNDS = 5


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    #: metric name -> value; units come from BENCHMARK.json
    metrics: dict = field(default_factory=dict)
    #: context printed with the result (sample counts, seeds, ...)
    info: dict = field(default_factory=dict)
    #: why ``correct`` is False
    errors: list = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        """Record a failed output check; the run stays measured."""
        if not ok:
            self.correct = False
            if len(self.errors) < 10:
                self.errors.append(message)


def percentile(values, pct: int) -> float:
    """The ``pct``-th percentile (inclusive method) of ``values``."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def median(values) -> float:
    return statistics.median(values)


def own_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_ms() -> float:
    """The machine-speed probe: the fastest of a few timings of a fixed,
    allocation-light piece of interpreter work, in ms."""
    best = float("inf")
    for _ in range(PROBE_ROUNDS):
        started = time.perf_counter()
        sums: dict[int, int] = {}
        for i in range(20_000):
            key = (i * 7919) % 97
            sums[key] = sums.get(key, 0) + i
        sorted(sums.items())
        best = min(best, time.perf_counter() - started)
    return best * 1000.0


def speed_scale(before_ms: float, after_ms: float) -> float:
    """Factor taking a wall time measured between two probes to the
    reference speed."""
    return PROBE_REFERENCE_MS / ((before_ms + after_ms) / 2.0)


def timed_setup(build, repeats: int):
    """Run ``build`` ``repeats`` times; return (last result, median of the
    scaled set-up times in s, median of the raw ones)."""
    scaled, raw = [], []
    state = None
    before = probe_ms()
    for _ in range(repeats):
        state = None  # let the previous set-up go before building anew
        started = time.perf_counter()
        state = build()
        took = time.perf_counter() - started
        after = probe_ms()
        raw.append(took)
        scaled.append(took * speed_scale(before, after))
        before = after
    return state, median(scaled), median(raw)


def at_speed_of(walls_ms, scales, other_scales) -> float:
    """Mean of ``walls_ms`` (measured under ``scales``) as it would read
    at the machine speed of a phase measured under ``other_scales``."""
    scaled = sum(wall * scale for wall, scale in zip(walls_ms, scales))
    return scaled / len(walls_ms) / statistics.fmean(other_scales)


def describe_raw(outcome: Outcome, walls_ms, scales, setup_raw_s) -> None:
    """Put the unscaled figures and the speed scales in the run info."""
    outcome.info["raw"] = {
        "latency_p50_ms": median(walls_ms),
        "latency_p99_ms": percentile(walls_ms, 99),
        "setup_s": setup_raw_s,
        "speed_scale_median": median(scales),
        "speed_scale_range": [min(scales), max(scales)],
    }


class BatchLoop:
    """Closed loop of jobs over a fixed list of inputs, taken in turn.

    ``job(input)`` returns ``(outputs, virtual_ms)`` and is the only
    timed code; ``check(index, outputs)`` runs after the job's window has
    closed.  Every input must bill the same virtual time on every run.
    """

    def __init__(self, job, check, inputs, outcome: Outcome):
        self.job = job
        self.check = check
        self.inputs = inputs
        self.outcome = outcome
        #: input index -> virtual ms billed by its first job
        self.virtual: dict[int, float] = {}

    def run(self, budget_s: float) -> list[tuple[int, int, float]]:
        """Run jobs for ``budget_s`` seconds (and over every input at
        least once); return each job's (start ns, end ns, speed scale)."""
        jobs = []
        attempts = 0
        deadline = time.monotonic_ns() + int(budget_s * 1e9)
        before = probe_ms()
        while attempts < len(self.inputs) or time.monotonic_ns() < deadline:
            index = attempts % len(self.inputs)
            attempts += 1
            self.outcome.attempted += 1
            start = time.monotonic_ns()
            try:
                outputs, virtual_ms = self.job(self.inputs[index])
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                self.outcome.failed += 1
                self.outcome.info.setdefault("failures", []).append(
                    f"{type(exc).__name__}: {exc}"
                )
                before = probe_ms()
                continue
            end = time.monotonic_ns()
            after = probe_ms()
            jobs.append((start, end, speed_scale(before, after)))
            before = after
            self.check(index, outputs)
            expected = self.virtual.setdefault(index, virtual_ms)
            self.outcome.check(
                virtual_ms == expected,
                f"input {index}: virtual {virtual_ms!r} != {expected!r}",
            )
        return jobs

    def measure(self, seconds: float, trace: bool, setup) -> None:
        """Fill the outcome's metrics: end-to-end ones untraced, or the
        per-layer ones from a traced half-run after an untraced half.
        ``setup`` is the (scaled, raw) set-up time in s."""
        outcome = self.outcome
        if not trace:
            jobs = self.run(seconds)
            walls = _walls_ms(jobs)
            scales = [scale for _start, _end, scale in jobs]
            scaled = [wall * scale for wall, scale in zip(walls, scales)]
            outcome.metrics.update(
                setup_s=setup[0],
                latency_p50_ms=median(scaled),
                latency_p99_ms=percentile(scaled, 99),
                throughput_qps=len(scaled) / (sum(scaled) / 1000.0),
                virtual_ms=sum(self.virtual.values()),
                peak_rss_mb=own_peak_rss_mb(),
            )
            outcome.info["samples"] = len(walls)
            describe_raw(outcome, walls, scales, setup[1])
            return

        # per-layer figures stay unscaled: they split the traced half's
        # own wall
        untraced = self.run(seconds / 2)
        with Recorder() as recorder:
            jobs = self.run(seconds / 2)
        traced = _walls_ms(jobs)
        outcome.metrics.update(layer_metrics(
            recorder.spans,
            recorder.cache_events,
            [(start, end) for start, end, _scale in jobs],
            jobs=len(traced),
            traced_wall_ms=sum(traced),
            untraced_wall_ms=at_speed_of(
                _walls_ms(untraced), [job[2] for job in untraced],
                [job[2] for job in jobs],
            ),
            per_thread=False,
        ))
        outcome.metrics.update({
            "plan_cache.hit_p50_ms": 0.0,
            "plan_cache.miss_p50_ms": 0.0,
        })
        outcome.info["samples"] = {"untraced": len(untraced),
                                   "traced": len(traced)}


def _walls_ms(jobs) -> list[float]:
    return [(end - start) / 1e6 for start, end, _scale in jobs]
