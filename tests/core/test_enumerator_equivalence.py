"""The priced-once enumerator against the per-subset DP it replaced.

The multi-platform optimizer prices a plan once per call (order, choices,
operator and transfer costs) and runs its per-subset search over that
table.  ``enumerator_reference`` keeps the previous search, which
re-derived all of it for every platform subset.  On random plans, on the
serving benchmark's key space and on a diamond, both must agree exactly:
``==`` per-subset estimated cost, the same winner and the same
assignment.
"""

from hypothesis import given, settings

from repro import RheemContext
from repro.core.logical.operators import (
    CollectionSource,
    CollectSink,
    GroupBy,
    Map,
    Union,
)
from repro.core.logical.plan import LogicalPlan
from repro.core.observability.spans import Tracer
from repro.core.optimizer.enumerator import MultiPlatformOptimizer
from repro.core.serving.workloads import build_workload
from tests.core.enumerator_reference import reference_search
from tests.core.test_optimizer_properties import build, random_plans


def physical_of(ctx, handle):
    """The physical plan ``handle.collect()`` would hand the enumerator."""
    handle.plan.add(CollectSink(), [handle.operator])
    return ctx.app_optimizer.optimize(handle.plan)


def assert_same_search(optimizer: MultiPlatformOptimizer, physical):
    order = physical.graph.topological_order()
    estimates = optimizer.estimator.estimate_plan(physical)
    candidates, best, best_cost, best_names = reference_search(
        optimizer, physical
    )
    expected = MultiPlatformOptimizer._describe_assignment(
        order, best, estimates
    )

    assert optimizer.estimated_plan_cost(physical) == best_cost

    tracer = Tracer()
    optimizer.optimize(physical, tracer=tracer)
    got = [
        (span.attributes["platforms"], span.attributes.get("estimated_cost_ms"))
        for span in tracer.spans
        if span.name == "candidate"
    ]
    assert got == candidates
    (enumerate_span,) = [
        s for s in tracer.spans if s.name == "optimize.enumerate"
    ]
    assert enumerate_span.attributes["winner"] == best_names
    assert enumerate_span.attributes["winner_cost"] == best_cost
    assert enumerate_span.attributes["assignment"] == expected
    counter = tracer.registry.counter("enumerator.candidates")
    assert counter.total() == len(candidates)


@settings(max_examples=40, deadline=None)
@given(random_plans())
def test_random_plans_match_reference(spec):
    ctx = RheemContext()
    assert_same_search(ctx.task_optimizer, physical_of(ctx, build(ctx, spec)))


def serve_mix_specs():
    specs = [
        {"workload": "wordcount", "seed": 11, "lines": 12, "chain": chain}
        for chain in range(8)
    ]
    specs.append({"workload": "join", "seed": 12, "rows": 16})
    specs.append(
        {"workload": "kmeans", "seed": 13, "points": 24, "k": 3, "iters": 3}
    )
    return specs


def test_serve_mix_key_space_matches_reference():
    for spec in serve_mix_specs():
        ctx = RheemContext()
        physical = physical_of(ctx, build_workload(ctx, spec))
        assert_same_search(ctx.task_optimizer, physical)


def diamond_plan() -> LogicalPlan:
    """A shared producer whose branches meet again (a variant on one)."""
    plan = LogicalPlan()
    src = plan.add(CollectionSource(list(range(5000))))
    keyed = plan.add(Map(lambda x: (x % 50, x)), [src])
    grouped = plan.add(GroupBy(lambda kv: kv[0]), [keyed])
    flat = plan.add(Map(lambda kv: kv), [grouped])
    union = plan.add(Union(), [flat, keyed])
    plan.add(CollectSink(), [union])
    return plan


def test_diamond_matches_reference():
    ctx = RheemContext()
    physical = ctx.app_optimizer.optimize(diamond_plan())
    assert any(op.alternates for op in physical.graph)
    assert_same_search(ctx.task_optimizer, physical)


def _count_orders(graph) -> list[int]:
    """Shadow ``graph.topological_order`` with a call counter."""
    calls: list[int] = []
    original = graph.topological_order

    def counted():
        calls.append(1)
        return original()

    graph.topological_order = counted
    return calls


def test_optimize_orders_the_top_level_plan_once():
    """Per-subset work must not re-walk the DAG (O(subsets x n^2))."""
    for spec in serve_mix_specs():
        ctx = RheemContext()
        physical = physical_of(ctx, build_workload(ctx, spec))
        calls = _count_orders(physical.graph)
        ctx.task_optimizer.optimize(physical, tracer=Tracer())
        assert len(calls) == 1, spec


def test_estimated_plan_cost_orders_the_plan_once():
    ctx = RheemContext()
    physical = physical_of(
        ctx, build_workload(ctx, {"workload": "wordcount", "chain": 7})
    )
    calls = _count_orders(physical.graph)
    ctx.task_optimizer.estimated_plan_cost(physical)
    ctx.task_optimizer.estimated_plan_cost(physical, "java")
    assert len(calls) == 2
