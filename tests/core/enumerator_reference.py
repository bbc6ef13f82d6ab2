"""Test-only reference: the enumerator's search before it priced plans once.

This is the per-subset dynamic program the multi-platform optimizer ran
before its subset-invariant costing moved into a table built once per
call.  For every platform subset it re-derives the topological order,
the (variant, platform) choices, every operator and transfer cost, and
then re-prices the winner exactly.  It is kept, unoptimized, as an
oracle: the production search must find the same per-subset costs
(``==``), the same winner and the same assignment.
"""

from __future__ import annotations

from repro.core.optimizer.enumerator import Choice, MultiPlatformOptimizer
from repro.core.physical.plan import PhysicalPlan
from repro.errors import OptimizationError


def choices_for(operator, platforms) -> list[Choice]:
    """Every supported (variant, platform) option, variants outer."""
    variants = [operator] + list(operator.alternates)
    choices = [
        Choice(variant, platform)
        for variant in variants
        for platform in platforms
        if platform.supports(variant)
    ]
    if not choices:
        raise OptimizationError(
            f"no platform supports {operator.describe()} "
            f"(or any of its variants)"
        )
    return choices


def dp_assignment(
    optimizer: MultiPlatformOptimizer,
    plan: PhysicalPlan,
    estimates: dict[int, float],
    platforms: list,
) -> dict[int, Choice]:
    """Forward DP plus greedy reverse commit over one platform subset."""
    graph = plan.graph
    order = graph.topological_order()
    dp: dict[int, dict[tuple[int, str], float]] = {}
    choice_objects: dict[int, dict[tuple[int, str], Choice]] = {}
    for operator in order:
        in_cards = tuple(estimates[p.id] for p in graph.inputs_of(operator))
        out_card = estimates[operator.id]
        dp[operator.id] = {}
        choice_objects[operator.id] = {}
        for choice in choices_for(operator, platforms):
            cost = optimizer._operator_cost(choice, in_cards, out_card)
            for producer in graph.inputs_of(operator):
                cost += min(
                    dp[producer.id][key]
                    + optimizer.movement.transfer_ms(
                        choice_objects[producer.id][key].platform.cost_model,
                        choice.platform.cost_model,
                        estimates[producer.id],
                    )
                    for key in dp[producer.id]
                )
            key = (choice.variant.id, choice.platform.name)
            dp[operator.id][key] = cost
            choice_objects[operator.id][key] = choice

    assignment: dict[int, Choice] = {}
    for operator in reversed(order):
        consumers = graph.consumers_of(operator)
        best_key = None
        best_total = float("inf")
        for key, base_cost in dp[operator.id].items():
            choice = choice_objects[operator.id][key]
            total = base_cost
            for consumer in consumers:
                committed = assignment.get(consumer.id)
                if committed is not None:
                    total += optimizer.movement.transfer_ms(
                        choice.platform.cost_model,
                        committed.platform.cost_model,
                        estimates[operator.id],
                    )
            if total < best_total:
                best_total = total
                best_key = key
        assert best_key is not None
        assignment[operator.id] = choice_objects[operator.id][best_key]
    return assignment


def assignment_cost(
    optimizer: MultiPlatformOptimizer,
    plan: PhysicalPlan,
    assignment: dict[int, Choice],
    estimates: dict[int, float],
) -> float:
    """Exact estimated cost of a committed assignment, start-ups included."""
    graph = plan.graph
    total = 0.0
    platforms_used: set[str] = set()
    for operator in graph.topological_order():
        choice = assignment[operator.id]
        platforms_used.add(choice.platform.name)
        in_cards = tuple(estimates[p.id] for p in graph.inputs_of(operator))
        total += optimizer._operator_cost(
            choice, in_cards, estimates[operator.id]
        )
        for producer in graph.inputs_of(operator):
            total += optimizer.movement.transfer_ms(
                assignment[producer.id].platform.cost_model,
                choice.platform.cost_model,
                estimates[producer.id],
            )
    for name in platforms_used:
        total += optimizer._platform_by_name(name).cost_model.startup_ms()
    return total


def reference_search(optimizer: MultiPlatformOptimizer, plan: PhysicalPlan):
    """Run the old search; return (candidates, winner, cost, names).

    ``candidates`` lists ``(platform names, cost or None)`` per subset in
    enumeration order (``None`` for an infeasible subset).
    """
    estimates = optimizer.estimator.estimate_plan(plan)
    roster = list(optimizer.platforms)
    candidates: list[tuple[list[str], float | None]] = []
    best, best_cost, best_names = None, float("inf"), []
    n = len(roster)
    for mask in range(1, 1 << n):
        subset = [roster[i] for i in range(n) if mask & (1 << i)]
        names = [p.name for p in subset]
        try:
            candidate = dp_assignment(optimizer, plan, estimates, subset)
        except OptimizationError:
            candidates.append((names, None))
            continue
        cost = assignment_cost(optimizer, plan, candidate, estimates)
        candidates.append((names, cost))
        if cost < best_cost:
            best, best_cost, best_names = candidate, cost, names
    return candidates, best, best_cost, best_names
