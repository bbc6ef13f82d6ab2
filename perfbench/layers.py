"""Per-layer tracing of the RHEEM stack, installed from outside the program.

:class:`Recorder` wraps the public entry point of each layer (the table in
``perfbench/README.md``) and records one span per call: the layer name, the
calling thread, start and end on the system-wide monotonic clock (so spans
recorded in the serving daemon line up with the load generator's clock),
and an optional amount (rows, bytes, atoms, operators).  A ``gc.callbacks``
hook records garbage-collection pauses as spans of the ``gc`` layer.  Spans
stay in memory; nothing inside ``src/`` is modified, and :meth:`uninstall`
restores every patched attribute and removes the gc hook.

:func:`attribute` turns spans into self times that add up to the covered
wall time: at each instant the innermost open span of every thread shares
the instant equally with the other threads' innermost spans, so nested
calls are subtracted from their parents and concurrent worker threads are
not double counted.  The concurrent scheduler's workers run on behalf of
the ``Executor.execute`` call that dispatched them, so an ``executor`` span
that is merely waiting for its workers gets no share while a worker thread
has an open span.
"""

from __future__ import annotations

import bisect
import functools
import gc
import os
import threading
import time
from collections import defaultdict

#: platforms with metrics of their own; any other platform is ``other``
PLATFORMS = ("java", "spark", "postgres")

#: layer whose spans wait on concurrent worker threads (see module doc)
COORDINATOR = "executor"

#: largest accepted |traced wall / untraced wall - 1| of one traced run
TRACE_TOLERANCE = 0.5

#: per-layer metric name -> (layer, kind); kind "ms" is attributed self
#: time per job, "calls" spans per job and "amount" summed amounts per job
_LAYER_METRICS = {
    "fingerprint.ms": ("fingerprint", "ms"),
    "fingerprint.calls": ("fingerprint", "calls"),
    "app_optimizer.ms": ("app_optimizer", "ms"),
    "app_optimizer.calls": ("app_optimizer", "calls"),
    "enumerator.ms": ("enumerator", "ms"),
    "enumerator.calls": ("enumerator", "calls"),
    "enumerator.operators": ("enumerator", "amount"),
    "workloads.build_ms": ("workloads", "ms"),
    "admission.wait_ms": ("admission", "ms"),
    "admission.acquires": ("admission", "calls"),
    "observability.merge_ms": ("observability", "ms"),
    "executor.self_ms": ("executor", "ms"),
    "executor.atoms": ("executor", "amount"),
    "channel.ingest_ms": ("channel.ingest", "ms"),
    "channel.egest_ms": ("channel.egest", "ms"),
    "journal.append_ms": ("journal", "ms"),
    "journal.appends": ("journal", "calls"),
    "journal.bytes": ("journal", "amount"),
    "checkpoint.save_ms": ("checkpoint", "ms"),
    "checkpoint.saves": ("checkpoint", "calls"),
    "gc.pause_ms": ("gc", "ms"),
    "gc.collections": ("gc", "calls"),
}
for _name in PLATFORMS + ("other",):
    _LAYER_METRICS[f"platform.{_name}.ms"] = (f"platform.{_name}", "ms")
    _LAYER_METRICS[f"platform.{_name}.atoms"] = (f"platform.{_name}", "calls")


def _platform_layer(args) -> str:
    name = args[0].name
    return f"platform.{name if name in PLATFORMS else 'other'}"


def _size(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


class Recorder:
    """Spans and plan-cache snapshots of one traced phase."""

    def __init__(self):
        #: (layer, thread ident, start ns, end ns, amount)
        self.spans: list[tuple] = []
        #: (ns, hits, misses, evictions) after every plan-cache lookup/insert
        self.cache_events: list[tuple] = []
        self._patches: list[tuple] = []
        self._gc_started: dict[int, int] = {}

    # ------------------------------------------------------------------
    def install(self) -> "Recorder":
        """Wrap every layer's public entry point and hook the collector."""
        from repro.core.checkpoint import CheckpointManager
        from repro.core.executor import Executor
        from repro.core.observability.registry import MetricsRegistry
        from repro.core.optimizer import fingerprint
        from repro.core.optimizer.application import ApplicationOptimizer
        from repro.core.optimizer.enumerator import MultiPlatformOptimizer
        from repro.core.recovery import RunJournal
        from repro.core.serving import daemon, workloads
        from repro.core.serving.admission import PlatformSlotPool
        from repro.core.serving.plan_cache import PlanCache
        from repro.platforms.base import Platform

        self._span(fingerprint, "logical_plan_fingerprint", "fingerprint")
        self._span(ApplicationOptimizer, "optimize", "app_optimizer")
        self._span(MultiPlatformOptimizer, "optimize", "enumerator",
                   amount=lambda args, result: len(args[1].graph))
        self._span(workloads, "build_workload", "workloads")
        # the daemon imported the builder by name before we patched it
        self._span(daemon, "build_workload", "workloads")
        self._span(PlatformSlotPool, "acquire", "admission")
        self._span(PlatformSlotPool, "wait_for_slot", "admission")
        self._span(MetricsRegistry, "merge_from", "observability")
        self._span(Executor, "execute", "executor",
                   amount=lambda args, result: result.metrics.atoms_executed)
        self._span(Platform, "execute_atom", _platform_layer)
        for cls in _subclasses(Platform):
            if "ingest" in vars(cls):
                self._span(cls, "ingest", "channel.ingest",
                           amount=lambda args, result: _size(args[1]))
            if "egest" in vars(cls):
                self._span(cls, "egest", "channel.egest",
                           amount=lambda args, result: _size(result))
        self._journal_span(RunJournal)
        self._span(CheckpointManager, "save", "checkpoint")
        self._cache_snapshots(PlanCache, "get")
        self._cache_snapshots(PlanCache, "put")
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute and remove the gc hook."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        self._gc_started.clear()

    def __enter__(self) -> "Recorder":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        original = vars(owner)[attr]
        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _span(self, owner, attr: str, layer, amount=None) -> None:
        original = vars(owner)[attr]
        spans = self.spans

        def wrapper(*args, **kwargs):
            start = time.monotonic_ns()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.monotonic_ns()
                name = layer if isinstance(layer, str) else layer(args)
                spans.append((name, threading.get_ident(), start, end,
                              amount(args, result) if result is not None
                              and amount is not None else 0))

        self._patch(owner, attr, wrapper)

    def _journal_span(self, journal_cls) -> None:
        """``RunJournal.append``; the amount is the bytes it made durable."""
        original = vars(journal_cls)["append"]
        spans = self.spans

        def wrapper(journal, *args, **kwargs):
            before = os.path.getsize(journal.path)
            start = time.monotonic_ns()
            try:
                return original(journal, *args, **kwargs)
            finally:
                end = time.monotonic_ns()
                spans.append(("journal", threading.get_ident(), start, end,
                              os.path.getsize(journal.path) - before))

        self._patch(journal_cls, "append", wrapper)

    def _cache_snapshots(self, cache_cls, attr: str) -> None:
        original = vars(cache_cls)[attr]
        events = self.cache_events

        def wrapper(cache, *args, **kwargs):
            try:
                return original(cache, *args, **kwargs)
            finally:
                stats = cache.stats()
                events.append((time.monotonic_ns(), stats["hits"],
                               stats["misses"], stats["evictions"]))

        self._patch(cache_cls, attr, wrapper)

    def _on_gc(self, phase: str, info: dict) -> None:
        tid = threading.get_ident()
        now = time.monotonic_ns()
        if phase == "start":
            self._gc_started[tid] = now
            return
        started = self._gc_started.pop(tid, None)
        if started is not None:
            self.spans.append(("gc", tid, started, now, 0))

    # ------------------------------------------------------------------
    def export(self) -> dict:
        return {"spans": self.spans, "cache_events": self.cache_events}


def _subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


# ----------------------------------------------------------------------
# attribution
# ----------------------------------------------------------------------
def in_windows(spans, windows) -> list:
    """Spans that start inside one of the disjoint ``(start, end)`` ns
    windows."""
    windows = sorted(windows)
    starts = [low for low, _high in windows]
    kept = []
    for span in spans:
        index = bisect.bisect_right(starts, span[2]) - 1
        if index >= 0 and span[2] <= windows[index][1]:
            kept.append(span)
    return kept


def attribute(spans) -> dict[str, int]:
    """Self time in ns per layer; the values sum to the covered wall time.

    Spans of one thread must nest (they do: each is one call).  See the
    module docstring for how concurrent threads share an instant.
    """
    events = []
    for index, (_layer, _tid, start, end, _amount) in enumerate(spans):
        # at equal times: ends before starts, inner ends first, outer
        # starts first — so every thread's spans pop in stack order
        events.append((start, 1, -end, index))
        events.append((end, 0, -start, index))
    events.sort()
    totals: dict[str, int] = defaultdict(int)
    stacks: dict[int, list[int]] = {}
    previous = None
    for when, is_start, _tie, index in events:
        if previous is not None and when > previous and stacks:
            tops = [spans[stack[-1]][0] for stack in stacks.values()]
            if len(tops) > 1:
                working = [layer for layer in tops if layer != COORDINATOR]
                tops = working or tops
            share, rest = divmod(when - previous, len(tops))
            for position, layer in enumerate(tops):
                totals[layer] += share + (1 if position < rest else 0)
        previous = when
        tid = spans[index][1]
        if is_start:
            stacks.setdefault(tid, []).append(index)
        else:
            stack = stacks[tid]
            stack.remove(index)
            if not stack:
                del stacks[tid]
    return dict(totals)


def layer_metrics(
    spans,
    cache_events,
    windows,
    jobs: int,
    traced_wall_ms: float,
    untraced_wall_ms: float,
    per_thread: bool,
    serving_overhead_ms: float | None = None,
) -> dict[str, float]:
    """Every per-layer metric of one traced phase, per job.

    ``traced_wall_ms`` is the summed end-to-end wall of the ``jobs`` traced
    jobs (requests), ``untraced_wall_ms`` the mean wall per job of the
    untraced phase of the same run, taken to the traced phase's machine
    speed (see ``common.py``) so that a change of machine state between
    the two halves is not read as tracing overhead.  ``per_thread`` attributes each
    thread's spans on their own: the serving daemon runs each request on
    its own handler thread, so its threads are independent requests, not
    workers of one job.  ``serving_overhead_ms`` is the summed client
    latency the daemon did not report as its own wall (None: no daemon).
    """
    spans = in_windows(spans, windows)
    if per_thread:
        by_thread = defaultdict(list)
        for span in spans:
            by_thread[span[1]].append(span)
        totals: dict[str, int] = defaultdict(int)
        for group in by_thread.values():
            for layer, ns in attribute(group).items():
                totals[layer] += ns
    else:
        totals = attribute(spans)
    calls: dict[str, int] = defaultdict(int)
    amounts: dict[str, float] = defaultdict(float)
    for layer, _tid, _start, _end, amount in spans:
        calls[layer] += 1
        amounts[layer] += amount

    metrics: dict[str, float] = {}
    for name, (layer, kind) in _LAYER_METRICS.items():
        if kind == "ms":
            value = totals.get(layer, 0) / 1e6
        elif kind == "calls":
            value = calls.get(layer, 0)
        else:
            value = amounts.get(layer, 0)
        metrics[name] = value / jobs
    channel_rows = amounts.get("channel.ingest", 0) + amounts.get(
        "channel.egest", 0
    )
    metrics["channel.rows"] = channel_rows / jobs

    overhead_ms = 0.0
    if serving_overhead_ms is not None:
        # the daemon merges a query's metrics after it stops its own wall
        # clock: that merge is inside the client-visible overhead and must
        # not be counted twice
        overhead_ms = (
            serving_overhead_ms - totals.get("observability", 0) / 1e6
        )
    metrics["serving.overhead_ms"] = overhead_ms / jobs
    layered_ms = sum(totals.values()) / 1e6 + overhead_ms
    other_ms = traced_wall_ms - layered_ms
    metrics["other.ms"] = other_ms / jobs
    traced_mean = traced_wall_ms / jobs
    metrics["trace.wall_ms"] = traced_mean
    metrics["trace.overhead_frac"] = traced_mean / untraced_wall_ms - 1.0

    hits, misses, evictions = _cache_delta(cache_events, windows)
    metrics["plan_cache.hits"] = hits / jobs
    metrics["plan_cache.misses"] = misses / jobs
    metrics["plan_cache.evictions"] = evictions / jobs
    metrics["plan_cache.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )

    # Layer self times plus other.ms must add up to the end-to-end wall:
    # exactly for the traced wall (other.ms may not be negative, which
    # would mean layers were counted twice), and within TRACE_TOLERANCE
    # for the untraced wall (the price of tracing).
    if other_ms < -0.01 * traced_wall_ms:
        raise RuntimeError(
            f"layer self times exceed the traced wall: other.ms "
            f"{other_ms / jobs:.3f} per job"
        )
    if abs(metrics["trace.overhead_frac"]) > TRACE_TOLERANCE:
        raise RuntimeError(
            f"layers + other ({traced_mean:.3f} ms/job) differ from the "
            f"untraced wall ({untraced_wall_ms:.3f} ms/job) by more than "
            f"{TRACE_TOLERANCE:.0%}"
        )
    return metrics


def _cache_delta(cache_events, windows) -> tuple[int, int, int]:
    if not cache_events or not windows:
        return 0, 0, 0
    low = min(w[0] for w in windows)
    high = max(w[1] for w in windows)
    before = (0, 0, 0)
    after = None
    for when, hits, misses, evictions in sorted(cache_events):
        if when < low:
            before = (hits, misses, evictions)
        elif when <= high:
            after = (hits, misses, evictions)
    if after is None:
        return 0, 0, 0
    return tuple(a - b for a, b in zip(after, before))

