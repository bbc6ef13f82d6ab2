"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import glob
import os
import threading
import tracemalloc

import pytest

from repro import RheemContext
from repro.core.types import Schema
from repro.platforms import JavaPlatform, PostgresPlatform, SparkPlatform

PLATFORM_NAMES = ("java", "spark", "postgres")


def _gc_callbacks() -> list:
    """``gc.callbacks`` minus hypothesis's own GC timer, which hypothesis
    installs once, on first use, for the life of the process."""
    return [
        callback
        for callback in gc.callbacks
        if not getattr(callback, "__module__", "").startswith("hypothesis")
    ]


@pytest.fixture(autouse=True)
def no_leaked_process_state():
    """Every test must leave the process-wide state it found.

    * **Shared memory** — process-mode execution maps columnar channels
      into ``multiprocessing.shared_memory`` segments; the scheduler
      guarantees they are unlinked on every exit path (refcount release,
      failover drain, SimulatedCrash, deadline kill).  The in-process
      registry must be empty, and no segment named by this coordinator
      pid may remain in the kernel namespace (``/dev/shm`` on Linux).
    * **Profiler hooks** — a profiled run holds ``tracemalloc`` and a
      ``gc.callbacks`` monitor only while it executes; both must be back
      to their state before the test.
    * **Threads** — no non-daemon thread the test started may outlive it.
    """
    from repro.core.channels import live_segments

    was_tracing = tracemalloc.is_tracing()
    callbacks = _gc_callbacks()
    threads = set(threading.enumerate())
    yield
    leaked = live_segments()
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"
    prefix = f"/dev/shm/rpshm{os.getpid():x}g"
    on_disk = glob.glob(prefix + "*")
    assert not on_disk, f"leaked /dev/shm segments: {on_disk}"
    assert tracemalloc.is_tracing() == was_tracing, "tracemalloc left toggled"
    assert _gc_callbacks() == callbacks, f"gc.callbacks changed: {gc.callbacks}"
    stray = [
        thread
        for thread in threading.enumerate()
        if thread not in threads and not thread.daemon
    ]
    for thread in stray:  # a thread already told to stop may still be exiting
        thread.join(timeout=2.0)
    stray = [thread for thread in stray if thread.is_alive()]
    assert not stray, f"leaked non-daemon threads: {stray}"


@pytest.fixture()
def ctx() -> RheemContext:
    """A context with the three default platforms."""
    return RheemContext()


@pytest.fixture()
def java_platform() -> JavaPlatform:
    return JavaPlatform()


@pytest.fixture()
def spark_platform() -> SparkPlatform:
    return SparkPlatform()


@pytest.fixture()
def postgres_platform() -> PostgresPlatform:
    return PostgresPlatform()


@pytest.fixture()
def people_schema() -> Schema:
    return Schema(["id", "name", "dept", "salary"])


@pytest.fixture()
def people(people_schema):
    rows = [
        (1, "ada", "eng", 120.0),
        (2, "bob", "eng", 95.0),
        (3, "cyn", "ops", 80.0),
        (4, "dan", "ops", 85.0),
        (5, "eve", "sci", 150.0),
    ]
    return [people_schema.record(*row) for row in rows]
