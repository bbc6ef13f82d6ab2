"""Benchmark of the RHEEM reproduction: three workloads, timed end to end
and, in a separate traced run, per layer.

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from the root of a source checkout: the program is imported from
``src/``, nothing needs building.  With ``--trace 0`` the last line of
standard output is a JSON object with every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` it carries every per-layer metric
instead.  Above it, one line per metric with its unit, and a
``{"run": ...}`` line recording what was measured: source identity, config
epoch, ``nproc``, seed, sample counts and the unscaled figures.  The exit
code is 0 when the workload ran (even when an output check failed, which
sets ``"correct": false``), and non-zero when it could not run or left
threads or files behind.

Every ``REPRO_*`` environment variable is removed before the program is
imported, here and in the serving daemon, so the default configuration is
what gets measured.  End-to-end wall-clock figures are scaled to a
reference machine speed (``common.py``); the raw ones are in the run
information.  See ``perfbench/README.md`` for the workloads and the layer
table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("serve-mix", "detect-batch", "train-durable")


def pin_environment() -> None:
    """Drop every REPRO_* knob, so the defaults are measured, and keep git
    lookups (ours and the daemon's) from leaving the checkout."""
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)


def source_digest() -> str:
    """sha256 over ``src/`` (the checkout need not be a git repository)."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode("utf-8"))
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def run_info(workload: str, seed: int, trace: bool) -> dict:
    from repro.core.context import RheemContext
    from repro.core.observability.report import repo_git_sha

    executor = RheemContext().executor
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": repo_git_sha(ROOT) or "unknown",
        "src_sha256": source_digest(),
        # the executor's own epoch, as the daemon stamps it in build_info
        "config_epoch": executor._config_epoch(),
        "profile": bool(executor.profile),
        "nproc": os.cpu_count(),
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    if name == "serve-mix":
        import serve_mix as module
    elif name == "detect-batch":
        import detect_batch as module
    else:
        import train_durable as module
    return module.run(seed, seconds, trace)


def _leftovers(cwd_before: set) -> list[str]:
    problems = []
    threads = [t.name for t in threading.enumerate()
               if t is not threading.main_thread()]
    if threads:
        problems.append(f"threads still running: {threads}")
    files = set(os.listdir(os.getcwd())) - cwd_before
    if files:
        problems.append(f"files left behind: {sorted(files)}")
    return problems


def measure(name: str, seed: int, seconds: float, trace: bool, spec: dict):
    """Run one workload; return (result line dict, info dict)."""
    cwd_before = set(os.listdir(os.getcwd()))
    info = run_info(name, seed, trace)
    outcome = run_workload(name, seed, seconds, trace)
    problems = _leftovers(cwd_before)
    if problems:
        raise SystemExit(f"{name}: " + "; ".join(problems))

    declared = spec["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        raise SystemExit(f"{name}: metrics not measured: {missing}")
    metrics = {
        metric: {"value": float(outcome.metrics[metric]), "unit": unit}
        for metric, unit in units.items()
    }
    info.update(outcome.info)
    info["failed_frac"] = outcome.failed / max(1, outcome.attempted)
    if outcome.errors:
        info["errors"] = outcome.errors
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args)
    # SIGTERM unwinds like an exception, so daemons are stopped and
    # scratch directories removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    pin_environment()
    sys.path.insert(0, SRC)
    result, info = measure(args.workload, args.seed, args.seconds,
                           bool(args.trace), load_spec())
    print(json.dumps({"run": info}, sort_keys=True))
    for metric, entry in result["metrics"].items():
        print(f"{args.workload:14s} {metric:26s} {entry['value']:14.4f} "
              f"{entry['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process), one
    after the other; the last line merges their results."""
    results = {}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"{name} failed with exit code {child.returncode}",
                  file=sys.stderr)
            return child.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": entry
            for name, result in results.items()
            for metric, entry in result["metrics"].items()
        },
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
