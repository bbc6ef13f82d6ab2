"""``train-durable``: iterative training with a durable run journal.

Each job is one multi-sink plan holding two independent ``repeat`` loops,
two k-means models built with the public ``kmeans`` builder of
``repro.core.serving.workloads``.  It runs through
``ctx.execute(plan, runtime=...)`` at parallelism 2, with a ``RunJournal``
and a ``CheckpointManager`` on local disk wired as ``repro demo --journal``
wires them.  Its many small atoms (36 per job) exercise the concurrent
scheduler, loop atoms, channel hand-offs and journal/checkpoint writes,
which the other two workloads bypass.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
import tempfile

import references
from common import BatchLoop, Outcome, timed_setup

from repro.core.checkpoint import CheckpointManager
from repro.core.context import RheemContext
from repro.core.logical.operators import CollectSink
from repro.core.recovery import RunJournal
from repro.core.runtime import RuntimeContext
from repro.core.serving import workloads
from repro.storage import Catalog, LocalFsStore

PARALLELISM = 2
#: points per model: a narrow seeded range, so that virtual time differs
#: between seeds while the work per job barely does
POINTS = (4_950, 5_050)
ITERATIONS = 8
#: clusters of the two models of one job
MODEL_KS = (3, 4)
#: distinct model pairs, each model a (seed, k, points), a run cycles through
INPUTS = 3
SETUP_REPEATS = 3


def make_inputs(seed: int) -> list:
    rng = random.Random(seed)
    return [
        tuple((rng.randrange(1 << 30), k, rng.randint(*POINTS))
              for k in MODEL_KS)
        for _ in range(INPUTS)
    ]


class DurableTrainer:
    """Runs each job under a fresh journal + checkpoint store in ``root``."""

    def __init__(self, root: str):
        self.ctx = RheemContext(parallelism=PARALLELISM)
        self.root = root
        self.jobs = 0

    def train(self, models):
        handles = [
            workloads.kmeans(self.ctx, seed=seed, points=points, k=k,
                             iters=ITERATIONS)
            for seed, k, points in models
        ]
        plan = handles[0].plan
        for handle in handles[1:]:
            plan.graph.absorb(handle.plan.graph)
        for handle in handles:
            plan.add(CollectSink(), [handle.operator])

        self.jobs += 1
        run_id = f"job{self.jobs}"
        rundir = os.path.join(self.root, run_id)
        os.makedirs(rundir)
        catalog = Catalog()
        catalog.register_store(LocalFsStore(root=os.path.join(rundir, "ckpt")))
        journal = RunJournal(os.path.join(rundir, f"{run_id}.journal"),
                             run_id=run_id)
        runtime = RuntimeContext(
            checkpoint=CheckpointManager(catalog, "localfs", plan_key=run_id),
            journal=journal,
        )
        try:
            result = self.ctx.execute(plan, runtime=runtime)
        finally:
            journal.close()
        # keyed by physical sink ids, which the caller never sees
        return list(result.outputs.values()), result.metrics.virtual_ms

    def discard_runs(self) -> None:
        for name in os.listdir(self.root):
            shutil.rmtree(os.path.join(self.root, name))


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    root = tempfile.mkdtemp(prefix=".perfbench-train-", dir=os.getcwd())
    try:
        def setup():
            trainer = DurableTrainer(root)
            inputs = make_inputs(seed)
            for models in inputs:  # warm-up
                trainer.train(models)
            trainer.discard_runs()
            return trainer, inputs

        (trainer, inputs), *setup_times = timed_setup(
            setup, 1 if trace else SETUP_REPEATS
        )
        expected = [
            [references.kmeans(seed, points, k, ITERATIONS)
             for seed, k, points in models]
            for models in inputs
        ]

        def check(index: int, outputs) -> None:
            trainer.discard_runs()
            outcome.check(
                any(
                    all(map(references.same_centroids, order, expected[index]))
                    for order in itertools.permutations(outputs)
                ),
                f"input {index}: centroids {outputs} != {expected[index]}",
            )

        loop = BatchLoop(trainer.train, check, inputs, outcome)
        loop.measure(seconds, trace, setup_times)
    finally:
        shutil.rmtree(root)
    return outcome
