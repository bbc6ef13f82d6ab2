"""``serve-mix``: the ``repro serve`` daemon under a seeded Zipf query mix.

The daemon runs in its own process (``serve_launcher.py``).  This process
drives it over HTTP with two client threads, one per tenant, each a closed
loop: ``/submit`` is synchronous, so a tenant waits for every reply.  The
keys are wordcount (varied ``chain``), join and k-means specs, four times
as many as the daemon's plan cache holds, so the steady state mixes cache
hits with capacity misses.  An untimed pass over every key, then an
untimed stretch of Zipf traffic, bring the cache to steady state first.

This is the only workload where the serving daemon, fingerprinting, the
plan cache, the application optimizer and the enumerator carry most of the
wall; the data is tiny, so kernels barely show.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

import references
from common import (
    Outcome,
    at_speed_of,
    describe_raw,
    median,
    percentile,
    probe_ms,
    speed_scale,
)
from layers import layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "serve_launcher.py")

TENANTS = ("tenant-0", "tenant-1")
#: the daemon's ``--cache-size``; the key space is four times larger
CACHE_SIZE = 16
KEYS = 64
#: kind of the key at each Zipf rank, repeating: every seed sends the same
#: share of traffic to each kind, and the seed varies only data and sizes
KINDS_BY_RANK = ("wordcount", "join", "wordcount", "kmeans")
ZIPF_EXPONENT = 1.0
#: untimed Zipf requests per tenant before the timed phase
WARMUP_REQUESTS = 150
#: the timed phase runs in slices with a machine-speed probe between them
SLICES = 10
#: daemon boots in an untraced run; setup_s is their median
BOOTS = 5
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0


def key_space(seed: int) -> list[dict]:
    """The workload specs; the position of a spec is its Zipf rank."""
    rng = random.Random(seed)
    specs = []
    for rank in range(KEYS):
        kind = KINDS_BY_RANK[rank % len(KINDS_BY_RANK)]
        spec = {"workload": kind, "seed": rng.randrange(1 << 30)}
        if kind == "wordcount":
            spec.update(lines=rng.randint(10, 14),
                        chain=(rank // len(KINDS_BY_RANK)) % 8)
        elif kind == "join":
            spec.update(rows=rng.randint(14, 18))
        else:
            spec.update(points=rng.randint(20, 28), k=3, iters=3)
        specs.append(spec)
    return specs


def expected_rows(spec: dict):
    params = {k: v for k, v in spec.items() if k != "workload"}
    rows = getattr(references, spec["workload"])(**params)
    return json.loads(json.dumps(rows))  # the shape /result returns


def rows_match(spec: dict, got, expected) -> bool:
    if spec["workload"] == "kmeans":
        return references.same_centroids(got, expected)
    return got == expected


def key_stream(seed: int, tenant: str, keys: int):
    rng = random.Random(f"{seed}/{tenant}")
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(keys)]
    cumulative = list(itertools.accumulate(weights))
    while True:
        yield rng.choices(range(keys), cum_weights=cumulative)[0]


# ----------------------------------------------------------------------
# the daemon process
# ----------------------------------------------------------------------
def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Daemon:
    """One ``repro serve`` process, booted until ``/healthz`` answers."""

    def __init__(self, workdir: str, name: str, trace: bool):
        self.port = _free_port()
        self.report_path = os.path.join(workdir, f"{name}.json")
        self.report: dict | None = None
        self._log = open(os.path.join(workdir, f"{name}.log"), "w")
        command = [
            sys.executable, LAUNCHER, "--port", str(self.port),
            "--cache-size", str(CACHE_SIZE), "--report", self.report_path,
        ] + (["--trace"] if trace else [])
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=self._log, stderr=subprocess.STDOUT
        )
        try:
            self._wait_healthy()
        except BaseException:
            self._terminate()
            raise
        self.boot_s = time.perf_counter() - started

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.process.returncode}"
                )
            try:
                status, body = _request(self.port, "GET", "/healthz")
                if status == 200 and body.strip() == b"ok":
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("repro serve did not become healthy in time")

    def stop(self) -> dict:
        """SIGTERM the daemon, wait for it, return its exit report."""
        if self.report is not None:
            return self.report
        self._terminate()
        try:
            with open(self.report_path, encoding="utf-8") as fh:
                self.report = json.load(fh)
        except FileNotFoundError:
            raise RuntimeError(
                f"repro serve left no report (exit {self.process.returncode})"
            ) from None
        return self.report

    def _terminate(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        if exc_type is None:
            self.stop()
        else:  # keep the error that is unwinding; the report can wait
            self._terminate()


def _request(port: int, method: str, path: str, body: bytes | None = None,
             tenant: str | None = None) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        if tenant:
            headers["X-Repro-Tenant"] = tenant
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


# ----------------------------------------------------------------------
# one measured phase: warm-up, timed closed loops, output checks
# ----------------------------------------------------------------------
class Phase:
    """The traffic one daemon serves: cold pass, warm-up, timed slices and
    the hit-after-miss check, with every request's record."""

    def __init__(self, daemon: Daemon, specs, seed: int, outcome: Outcome):
        self.daemon = daemon
        self.specs = specs
        self.bodies = [json.dumps(spec).encode("utf-8") for spec in specs]
        self.outcome = outcome
        self.streams = {t: key_stream(seed, t, len(specs)) for t in TENANTS}
        #: key -> (rows, virtual_ms) of its first (cold) submission
        self.reference: dict[int, tuple] = {}
        #: (window, speed scale, records) of each timed slice; a record
        #: is (key, start ns, end ns, reply or None)
        self.slices: list[tuple] = []

    def submit(self, key: int, tenant: str) -> dict | None:
        status, body = _request(self.daemon.port, "POST", "/submit",
                                self.bodies[key], tenant)
        reply = json.loads(body)
        return reply if status == 200 and reply.get("status") == "done" \
            else None

    def result_of(self, reply: dict) -> dict:
        status, body = _request(self.daemon.port, "GET",
                                f"/result/{reply['id']}")
        if status != 200:
            raise RuntimeError(f"/result/{reply['id']} answered {status}")
        return json.loads(body)

    def cold_pass(self) -> None:
        """Submit every key once: each is a miss; check its rows."""
        for key, spec in enumerate(self.specs):
            reply = self.submit(key, TENANTS[0])
            if reply is None:
                raise RuntimeError(f"cold submit of {spec} failed")
            rows = self.result_of(reply)["rows"]
            self.outcome.check(reply["plan_cache"] == "miss",
                               f"first submit of {spec} was not a miss")
            self.outcome.check(rows_match(spec, rows, expected_rows(spec)),
                               f"{spec}: rows differ from the reference")
            self.reference[key] = (rows, reply["virtual_ms"])

    def _drive(self, tenant: str, start_ns: int, more, sink: list) -> None:
        stream = self.streams[tenant]
        while time.monotonic_ns() < start_ns:
            time.sleep(0.001)
        while more(sink):
            key = next(stream)
            started = time.monotonic_ns()
            try:
                reply = self.submit(key, tenant)
            except (OSError, http.client.HTTPException, ValueError):
                reply = None
            sink.append((key, started, time.monotonic_ns(), reply))

    def _tenants(self, requests: int | None, seconds: float):
        """Both tenants' closed loops, started together: ``requests``
        each, or (None) as many as fit in ``seconds``.  Returns the
        records and the (start, end) ns window they span."""
        start_ns = time.monotonic_ns() + 20_000_000
        deadline_ns = start_ns + int(seconds * 1e9)

        def more(sink: list) -> bool:
            if requests is None:
                return time.monotonic_ns() < deadline_ns
            return len(sink) < requests

        sinks = {tenant: [] for tenant in TENANTS}
        threads = [
            threading.Thread(
                target=self._drive, name=f"load-{tenant}",
                args=(tenant, start_ns, more, sinks[tenant]), daemon=True,
            )
            for tenant in TENANTS
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        records = [r for tenant in TENANTS for r in sinks[tenant]]
        end_ns = max((r[2] for r in records), default=start_ns)
        return records, (start_ns, end_ns)

    def run(self, seconds: float) -> None:
        self.cold_pass()
        warmup, _window = self._tenants(WARMUP_REQUESTS, 0)
        for key, _start, _end, reply in warmup:
            if reply is None:
                raise RuntimeError(f"warm-up submit of key {key} failed")
        before = probe_ms()
        for _ in range(SLICES):
            records, window = self._tenants(None, seconds / SLICES)
            after = probe_ms()
            self.slices.append((window, speed_scale(before, after), records))
            before = after
        for key, _start, _end, reply in self.records():
            self.outcome.attempted += 1
            if reply is None:
                self.outcome.failed += 1
                continue
            self.outcome.check(
                reply["virtual_ms"] == self.reference[key][1],
                f"key {key}: {reply['plan_cache']} billed "
                f"{reply['virtual_ms']!r}, cold run {self.reference[key][1]!r}",
            )
        self.hit_pass()

    def hit_pass(self) -> None:
        """Submit every key twice: the second is a hit and must return
        the rows and virtual time of the key's cold miss."""
        for key, spec in enumerate(self.specs):
            self.submit(key, TENANTS[0])
            reply = self.submit(key, TENANTS[0])
            if reply is None or reply["plan_cache"] != "hit":
                self.outcome.check(False, f"repeat submit of {spec} missed")
                continue
            rows, virtual_ms = self.reference[key]
            self.outcome.check(
                self.result_of(reply)["rows"] == rows
                and reply["virtual_ms"] == virtual_ms,
                f"{spec}: hit and miss answers differ",
            )

    # -- summaries -------------------------------------------------------
    def records(self) -> list:
        return [r for _window, _scale, records in self.slices for r in records]

    def ok(self) -> list:
        return [r for r in self.records() if r[3] is not None]

    def windows(self) -> list:
        return [window for window, _scale, _records in self.slices]

    def latencies(self, outcome: str | None = None) -> list[float]:
        """Raw latencies in ms of the answered requests (with ``outcome``)."""
        return [
            (end - start) / 1e6 for _key, start, end, reply in self.ok()
            if outcome is None or reply["plan_cache"] == outcome
        ]

    def latencies_with_scales(self) -> tuple[list, list]:
        """Raw latencies in ms and the speed scale of each one's slice."""
        pairs = [
            ((end - start) / 1e6, scale)
            for _window, scale, records in self.slices
            for _key, start, end, reply in records
            if reply is not None
        ]
        return [wall for wall, _ in pairs], [scale for _, scale in pairs]

    def scaled_span_s(self) -> float:
        return sum((end - start) / 1e9 * scale
                   for (start, end), scale, _records in self.slices)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    specs = key_space(seed)
    workdir = tempfile.mkdtemp(prefix=".perfbench-serve-", dir=os.getcwd())
    try:
        measure = _measure_traced if trace else _measure
        measure(specs, seed, seconds, workdir, outcome)
    finally:
        shutil.rmtree(workdir)
    return outcome


def _measure(specs, seed, seconds, workdir, outcome) -> None:
    boots: list[tuple[float, float]] = []  # (scaled, raw) seconds
    probes = [probe_ms()]

    def timed_boot(name: str) -> Daemon:
        daemon = Daemon(workdir, name, trace=False)
        probes.append(probe_ms())  # the daemon idles until it is asked
        scale = speed_scale(probes[-2], probes[-1])
        boots.append((daemon.boot_s * scale, daemon.boot_s))
        return daemon

    for index in range(BOOTS - 1):
        with timed_boot(f"boot{index}"):
            pass
    with timed_boot("measured") as daemon:
        phase = Phase(daemon, specs, seed, outcome)
        phase.run(seconds)
        report = daemon.stop()
    walls, scales = phase.latencies_with_scales()
    scaled = [wall * scale for wall, scale in zip(walls, scales)]
    outcome.metrics.update(
        setup_s=median(b[0] for b in boots),
        latency_p50_ms=median(scaled),
        latency_p99_ms=percentile(scaled, 99),
        throughput_qps=len(scaled) / phase.scaled_span_s(),
        virtual_ms=sum(v for _rows, v in phase.reference.values()),
        peak_rss_mb=report["peak_rss_mb"],
    )
    _describe(outcome, phase)
    describe_raw(outcome, walls, [scale for _w, scale, _r in phase.slices],
                 median(b[1] for b in boots))


def _measure_traced(specs, seed, seconds, workdir, outcome) -> None:
    with Daemon(workdir, "untraced", trace=False) as daemon:
        untraced = Phase(daemon, specs, seed, outcome)
        untraced.run(seconds / 2)
    with Daemon(workdir, "traced", trace=True) as daemon:
        traced = Phase(daemon, specs, seed, outcome)
        traced.run(seconds / 2)
        report = daemon.stop()
    ok = traced.ok()
    latencies = traced.latencies()
    outcome.metrics.update(layer_metrics(
        report["spans"],
        report["cache_events"],
        traced.windows(),
        jobs=len(ok),
        traced_wall_ms=sum(latencies),
        untraced_wall_ms=at_speed_of(
            *untraced.latencies_with_scales(),
            traced.latencies_with_scales()[1],
        ),
        per_thread=True,
        serving_overhead_ms=sum(
            latency - record[3]["wall_ms"]
            for latency, record in zip(latencies, ok)
        ),
    ))
    outcome.metrics["plan_cache.hit_p50_ms"] = median(untraced.latencies("hit"))
    outcome.metrics["plan_cache.miss_p50_ms"] = median(
        untraced.latencies("miss")
    )
    _describe(outcome, traced)


def _describe(outcome: Outcome, phase: Phase) -> None:
    hits = len(phase.latencies("hit"))
    samples = len(phase.ok())
    outcome.info.update(
        samples=samples,
        hit_fraction=hits / samples if samples else 0.0,
        keys=len(phase.specs),
        cache_size=CACHE_SIZE,
        tenants=len(TENANTS),
    )
