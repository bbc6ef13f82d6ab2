"""Property-based tests of the optimizer pipeline over random plans.

Invariants checked for every generated plan:

* the execution plan covers every physical operator exactly once;
* the atom schedule is dependency-consistent (producers before consumers);
* the cost-based plan's results equal the forced-single-platform results;
* the cost-based estimated cost never exceeds the best single platform's;
* on plans of at most seven operators it equals the exhaustive minimum
  over every (variant, platform) assignment.
"""

import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import RheemContext
from repro.core.execution.plan import LoopAtom, TaskAtom
from repro.core.physical.fusion import PFusedPipeline
from tests.core.enumerator_reference import assignment_cost, choices_for


@st.composite
def random_plans(draw):
    """A random chain with optional binary tail over small int data."""
    data = draw(st.lists(st.integers(-9, 9), min_size=0, max_size=20))
    chain = draw(
        st.lists(
            st.sampled_from(
                ["map", "filter", "flatmap", "distinct", "sort", "group",
                 "reduceby", "limit", "sample", "count"]
            ),
            max_size=5,
        )
    )
    binary = draw(st.sampled_from([None, "union", "join", "cross"]))
    return data, chain, binary


def build(ctx, spec):
    data, chain, binary = spec
    dq = ctx.collection(data)
    for step in chain:
        if step == "map":
            dq = dq.map(lambda x: _num(x) + 1)
        elif step == "filter":
            dq = dq.filter(lambda x: _num(x) % 2 == 0)
        elif step == "flatmap":
            dq = dq.flat_map(lambda x: [x])
        elif step == "distinct":
            dq = dq.distinct()
        elif step == "sort":
            dq = dq.sort(repr)
        elif step == "group":
            dq = dq.group_by(lambda x: _num(x) % 3).map(
                lambda kv: (kv[0], len(kv[1]))
            )
        elif step == "reduceby":
            dq = dq.map(lambda x: (_num(x) % 3, 1)).reduce_by(
                lambda kv: kv[0], lambda a, b: (a[0], a[1] + b[1])
            )
        elif step == "limit":
            dq = dq.limit(5)
        elif step == "sample":
            dq = dq.sample(4, seed=1)
        elif step == "count":
            dq = dq.count()
    if binary == "union":
        dq = dq.union(ctx.collection(data))
    elif binary == "join":
        dq = dq.map(lambda x: (_num(x) % 4, x)).join(
            ctx.collection(data).map(lambda x: (_num(x) % 4, x)),
            lambda kv: kv[0],
            lambda kv: kv[0],
        )
    elif binary == "cross":
        dq = dq.limit(3).cross(ctx.collection(data[:3]))
    return dq


def _num(x):
    while isinstance(x, tuple):
        x = x[0]
    return int(x)


@settings(max_examples=40, deadline=None)
@given(random_plans())
def test_atoms_cover_every_operator_exactly_once(spec):
    ctx = RheemContext()
    handle = build(ctx, spec)
    physical = ctx.app_optimizer.optimize(handle.plan)
    execution = ctx.task_optimizer.optimize(physical)
    covered: list[int] = []
    for atom in execution.atoms:
        if isinstance(atom, TaskAtom):
            for op in atom.fragment:
                if isinstance(op, PFusedPipeline):
                    covered.extend(stage.id for stage in op.stages)
                else:
                    covered.append(op.id)
        else:
            covered.extend(atom.operator_ids)
    expected = {op.id for op in physical.graph}
    assert sorted(covered) == sorted(expected)
    assert len(covered) == len(set(covered))


@settings(max_examples=40, deadline=None)
@given(random_plans())
def test_atom_schedule_respects_dependencies(spec):
    ctx = RheemContext()
    handle = build(ctx, spec)
    physical = ctx.app_optimizer.optimize(handle.plan)
    execution = ctx.task_optimizer.optimize(physical)
    seen: set[int] = set()
    for atom in execution.atoms:
        if isinstance(atom, TaskAtom):
            for (_, _), producer_id in atom.external_inputs.items():
                assert producer_id in seen, "consumer scheduled before producer"
        elif isinstance(atom, LoopAtom):
            assert atom.state_producer_id in seen
        seen.update(atom.output_ids)
        seen.update(atom.operator_ids)


@settings(max_examples=30, deadline=None)
@given(random_plans())
def test_cost_based_results_match_forced_java(spec):
    auto_ctx = RheemContext()
    forced_ctx = RheemContext()
    auto = build(auto_ctx, spec).collect()
    forced = build(forced_ctx, spec).collect(platform="java")
    assert sorted(map(repr, auto)) == sorted(map(repr, forced))


@settings(max_examples=30, deadline=None)
@given(random_plans())
def test_estimated_cost_at_most_best_single_platform(spec):
    ctx = RheemContext()
    handle = build(ctx, spec)
    physical = ctx.app_optimizer.optimize(handle.plan)
    best_free = ctx.task_optimizer.estimated_plan_cost(physical)
    singles = []
    for platform in ("java", "spark", "postgres"):
        try:
            singles.append(
                ctx.task_optimizer.estimated_plan_cost(physical, platform)
            )
        except Exception:
            continue
    assert singles, "at least java should support every generated plan"
    assert best_free <= min(singles) + 1e-6


#: largest plan the exhaustive oracle enumerates (a few thousand assignments)
ORACLE_MAX_OPERATORS = 7


@settings(max_examples=40, deadline=None)
@given(random_plans())
def test_estimated_cost_equals_exhaustive_oracle(spec):
    """The generated plans are trees, where the per-subset DP is exact:
    its cost must be the minimum over every assignment, bit for bit.
    (Diamond-shaped plans can double-count a shared producer, so they
    are not held to the oracle.)"""
    ctx = RheemContext()
    physical = ctx.app_optimizer.optimize(build(ctx, spec).plan)
    assume(len(physical.graph) <= ORACLE_MAX_OPERATORS)
    optimizer = ctx.task_optimizer
    estimates = optimizer.estimator.estimate_plan(physical)
    operators = list(physical.graph)
    options = [choices_for(op, optimizer.platforms) for op in operators]
    oracle = min(
        assignment_cost(
            optimizer,
            physical,
            {op.id: choice for op, choice in zip(operators, combination)},
            estimates,
        )
        for combination in itertools.product(*options)
    )
    assert optimizer.estimated_plan_cost(physical) == oracle
