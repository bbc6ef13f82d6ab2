"""The multi-platform task optimizer (core-layer optimizer, paper §4.2).

Given a physical plan, the optimizer jointly decides, per operator,

* the **algorithmic variant** (e.g. ``HashGroupBy`` vs ``SortGroupBy``,
  Example 2), and
* the **processing platform**,

using pluggable per-platform cost models and the inter-platform movement
cost model.  It then *divides the plan into task atoms* — maximal
single-platform fragments — and emits an
:class:`~repro.core.execution.plan.ExecutionPlan`.

**Price once, search per subset.**  The per-operator DP cannot see
per-platform start-up costs (they are global, not per-edge), so the
search runs once per non-empty subset of the platform roster and the
exact cost, start-ups included, picks the winner.  Almost nothing that
search reads depends on the subset, so one call first builds a priced
table (:class:`_PricedPlan`): the topological order, every operator's
producers and consumers, every (variant, platform) choice over the
whole roster with its operator cost, the transfer cost of every
producer's output between every pair of platforms, and each platform's
start-up.  The per-subset work is then only arithmetic over that table:

* a forward DP — the cost of an operator under a choice is its own cost
  plus, per input, the cheapest producer choice including the movement
  cost of crossing platforms;
* a reverse-topological pass that commits one choice per operator,
  preferring choices cheap for the already-committed consumers;
* the exact re-pricing of the committed assignment.

Shared sub-plans (operators with several consumers) make the DP an
approximation — a producer's cost can be counted once per consumer.  On
trees it is exact (the property suite checks it against an exhaustive
oracle).  The executor re-prices the final plan with observed
cardinalities anyway, so the approximation only ever affects plan
choice, never reported times.

Loops (``PRepeat``) are costed as ``iterations × body cost`` with
loop-invariant sources priced at cache-read rates after the first
iteration (once per platform per call: the table holds it), and are
always scheduled as a single-platform
:class:`~repro.core.execution.plan.LoopAtom` (platforms without the
``iterative`` profile are pruned — the data-processing-profile idea of
paper §8, challenge 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.dag import OperatorGraph
from repro.core.execution.plan import ExecutionPlan, LoopAtom, TaskAtom
from repro.core.observability.spans import KIND_OPTIMIZER, maybe_span
from repro.core.optimizer.cardinality import CardinalityEstimator
from repro.core.optimizer.cost import MovementCostModel, OperatorCostInput
from repro.core.physical.columnar import analyze_boundaries
from repro.core.physical.operators import PhysicalOperator, PRepeat
from repro.core.physical.plan import PhysicalPlan
from repro.errors import OptimizationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.observability.spans import Tracer
    from repro.platforms.base import Platform


@dataclass(frozen=True)
class Choice:
    """One (variant, platform) option for a physical operator."""

    variant: PhysicalOperator
    platform: "Platform"


#: one priced option of an operator: the choice, the roster index of its
#: platform, and the operator's own cost under it
_Priced = tuple[Choice, int, float]


class _PricedPlan:
    """The subset-invariant half of one enumeration, priced once.

    Everything the search reads is the same for every platform subset it
    tries: the topological order, each operator's producers and distinct
    consumers, every (variant, platform) choice over the roster with its
    operator cost (a loop's whole-body cost included), the transfer cost
    of each producer's output between every pair of roster platforms, and
    each platform's start-up cost.  A table lives for one ``optimize`` /
    ``estimated_plan_cost`` call; :meth:`assign` (the per-subset DP),
    :meth:`forced` and :meth:`price` (the exact cost) only read it.
    """

    def __init__(
        self,
        optimizer: "MultiPlatformOptimizer",
        plan: PhysicalPlan,
        order: list[PhysicalOperator],
        estimates: dict[int, float],
        platforms: "list[Platform]",
    ):
        graph = plan.graph
        self.order = order
        self.platforms = platforms
        self.inputs = {op.id: graph.inputs_of(op) for op in order}
        self.consumers = graph.consumer_index()
        self.startup = {p.name: p.cost_model.startup_ms() for p in platforms}
        models = [p.cost_model for p in platforms]
        transfer_ms = optimizer.movement.transfer_ms
        #: operator id -> its priced options, variants outer, roster inner
        self.options: dict[int, list[_Priced]] = {}
        #: producer id -> [consumer index][producer index] -> transfer ms
        self.transfers: dict[int, list[list[float]]] = {}
        for operator in order:
            in_cards = tuple(estimates[p.id] for p in self.inputs[operator.id])
            out_card = estimates[operator.id]
            options: list[_Priced] = []
            for variant in [operator] + list(operator.alternates):
                for index, platform in enumerate(platforms):
                    if platform.supports(variant):
                        choice = Choice(variant, platform)
                        cost = optimizer._operator_cost(
                            choice, in_cards, out_card
                        )
                        options.append((choice, index, cost))
            self.options[operator.id] = options
            if not options:
                break  # infeasible on every subset: no search gets past it
            if self.consumers[operator.id]:
                self.transfers[operator.id] = [
                    [transfer_ms(producer, consumer, out_card) for producer in models]
                    for consumer in models
                ]

    def assign(self, mask: int) -> dict[int, _Priced]:
        """Commit one option per operator using only the platforms in ``mask``.

        A forward DP finds, per operator and option, the cheapest way to
        have its output available: its own cost plus, per input, the
        cheapest producer option including the movement across platforms.
        Producers are added independently, so a shared producer is counted
        once per consumer — exact on trees, an approximation on diamonds.
        A reverse pass then commits one option per operator, preferring
        options cheap for the already-committed consumers.
        """
        transfers = self.transfers
        reach: dict[int, list[tuple[int, float]]] = {}
        allowed: dict[int, list[_Priced]] = {}
        for operator in self.order:
            options = [
                o for o in self.options[operator.id] if mask >> o[1] & 1
            ]
            if not options:
                raise OptimizationError(
                    f"no platform supports {operator.describe()} "
                    f"(or any of its variants)"
                )
            feeds = [
                (transfers[p.id], reach[p.id]) for p in self.inputs[operator.id]
            ]
            costs = []
            for _, index, cost in options:
                for matrix, upstream in feeds:
                    column = matrix[index]
                    cost += min([total + column[at] for at, total in upstream])
                costs.append((index, cost))
            allowed[operator.id] = options
            reach[operator.id] = costs

        committed: dict[int, _Priced] = {}
        for operator in reversed(self.order):
            targets = [committed[c.id][1] for c in self.consumers[operator.id]]
            matrix = transfers.get(operator.id)
            best: _Priced | None = None
            best_total = float("inf")
            for option, (index, total) in zip(
                allowed[operator.id], reach[operator.id]
            ):
                for target in targets:
                    total += matrix[target][index]
                if total < best_total:
                    best, best_total = option, total
            assert best is not None  # options are never empty here
            committed[operator.id] = best
        return committed

    def forced(self) -> dict[int, _Priced]:
        """The cheapest variant of every operator on the only platform."""
        (platform,) = self.platforms
        committed: dict[int, _Priced] = {}
        for operator in self.order:
            options = self.options[operator.id]
            if not options:
                raise OptimizationError(
                    f"platform {platform.name!r} does not support "
                    f"{operator.describe()}"
                )
            committed[operator.id] = min(options, key=lambda o: o[2])
        return committed

    def price(self, committed: dict[int, _Priced]) -> float:
        """Exact estimated cost of a committed assignment, start-ups included."""
        total = 0.0
        platforms_used: set[str] = set()
        for operator in self.order:
            choice, index, cost = committed[operator.id]
            platforms_used.add(choice.platform.name)
            total += cost
            for producer in self.inputs[operator.id]:
                at = committed[producer.id][1]
                total += self.transfers[producer.id][index][at]
        for name in platforms_used:
            total += self.startup[name]
        return total


class MultiPlatformOptimizer:
    """Cost-based variant/platform assignment and task-atom cutting."""

    def __init__(
        self,
        platforms: list["Platform"],
        estimator: CardinalityEstimator | None = None,
        movement: MovementCostModel | None = None,
    ):
        if not platforms:
            raise OptimizationError("at least one platform is required")
        names = [p.name for p in platforms]
        if len(set(names)) != len(names):
            raise OptimizationError(f"duplicate platform names: {names}")
        self.platforms = list(platforms)
        self.estimator = estimator or CardinalityEstimator()
        self.movement = movement or MovementCostModel()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def optimize(
        self,
        plan: PhysicalPlan,
        forced_platform: str | None = None,
        exclude_platforms: "set[str] | None" = None,
        tracer: "Tracer | None" = None,
    ) -> ExecutionPlan:
        """Produce an execution plan for ``plan``.

        ``forced_platform`` pins every operator to one platform (used for
        platform-independence demonstrations and ablations); otherwise the
        cost-based assignment runs.  ``exclude_platforms`` removes
        platforms from the roster for this call — the Executor's failover
        path uses it to re-plan a suffix off a quarantined platform.
        ``tracer`` (optional) records the full decision trace: one
        ``candidate`` span per platform subset considered with its
        estimated cost, plus the winner and the reason it won.
        """
        order = plan.validate()
        with maybe_span(
            tracer,
            "optimize.enumerate",
            KIND_OPTIMIZER,
            operators=len(order),
            forced=forced_platform,
            excluded=sorted(exclude_platforms or ()),
        ) as span:
            roster = self._roster(exclude_platforms)
            estimates = self.estimator.estimate_plan(plan, order=order)
            # Snapshot kind + applied-correction maps NOW: variant
            # substitution renumbers operators and nested loop-body
            # estimate_plan calls reset the estimator's correction map.
            estimate_kinds = {
                op.id: op.kind for op in plan.graph.operators
            }
            estimate_corrections = dict(
                getattr(self.estimator, "last_corrections", {}) or {}
            )
            if span is not None and estimate_corrections:
                span.set(
                    calibration_corrections=len(estimate_corrections),
                    calibration_kinds=sorted(
                        {
                            estimate_kinds.get(op_id, "?")
                            for op_id in estimate_corrections
                        }
                    ),
                )
            if forced_platform is not None:
                if exclude_platforms and forced_platform in exclude_platforms:
                    raise OptimizationError(
                        f"forced platform {forced_platform!r} is excluded"
                    )
                table = _PricedPlan(
                    self,
                    plan,
                    order,
                    estimates,
                    [self._platform_by_name(forced_platform)],
                )
                committed = table.forced()
                if span is not None:
                    span.set(
                        winner=[forced_platform],
                        winner_cost=table.price(committed),
                        reason=f"platform pinned to {forced_platform!r}",
                        candidates=1,
                    )
            else:
                table = _PricedPlan(self, plan, order, estimates, roster)
                committed, _ = self._search(table, tracer=tracer, span=span)
            assignment = {
                op_id: choice for op_id, (choice, _, _) in committed.items()
            }
            if span is not None:
                span.set(
                    assignment=self._describe_assignment(
                        order, assignment, estimates
                    )
                )
        with maybe_span(tracer, "optimize.cut_atoms", KIND_OPTIMIZER) as span:
            replaced = self._apply_variants(plan, assignment)
            order = [replaced.get(op.id, op) for op in order]
            execution = self._cut_atoms(plan, order, assignment, estimates)
            execution.estimate_kinds = estimate_kinds
            execution.estimate_corrections = estimate_corrections
            # Static columnar boundary analysis: which hand-offs an
            # eligible consumer could read in place (rendered by
            # ``repro explain``, priced by the kernel-aware model).
            execution.columnar_boundaries = analyze_boundaries(execution)
            if span is not None:
                span.set(
                    atoms=len(execution.atoms),
                    platforms=[p.name for p in execution.platforms],
                )
                eligible = sum(
                    1 for b in execution.columnar_boundaries if b["eligible"]
                )
                if execution.columnar_boundaries:
                    span.set(
                        columnar_boundaries=len(execution.columnar_boundaries),
                        columnar_eligible=eligible,
                    )
        # Remember the physical plan so the Executor can rebuild the
        # remaining suffix on failover (operator objects are shared, so
        # ids — and thus channels and sinks — stay stable).
        execution.source_plan = plan
        return execution

    @staticmethod
    def _describe_assignment(
        order: list[PhysicalOperator],
        assignment: dict[int, Choice],
        estimates: dict[int, float],
    ) -> list[str]:
        """Human-readable per-operator decisions (for traces/explain)."""
        lines = []
        for operator in order:
            choice = assignment[operator.id]
            alternates = len(operator.alternates)
            extra = f" (+{alternates} variants)" if alternates else ""
            lines.append(
                f"op#{operator.id} {operator.kind}{extra} -> "
                f"{choice.variant.kind}@{choice.platform.name} "
                f"est_card={estimates[operator.id]:.0f}"
            )
        return lines

    def estimated_plan_cost(
        self,
        plan: PhysicalPlan,
        forced_platform: str | None = None,
        exclude_platforms: "set[str] | None" = None,
    ) -> float:
        """Estimated virtual cost of the best (or forced) assignment.

        Exposed for tests and ablations; includes per-platform start-up.
        """
        order = plan.validate()
        roster = self._roster(exclude_platforms)
        estimates = self.estimator.estimate_plan(plan, order=order)
        if forced_platform is not None:
            platform = self._platform_by_name(forced_platform)
            table = _PricedPlan(self, plan, order, estimates, [platform])
            return table.price(table.forced())
        table = _PricedPlan(self, plan, order, estimates, roster)
        return self._search(table)[1]

    def _roster(
        self, exclude_platforms: "set[str] | None"
    ) -> "list[Platform]":
        """The platform roster minus any excluded names."""
        if not exclude_platforms:
            return list(self.platforms)
        roster = [
            p for p in self.platforms if p.name not in exclude_platforms
        ]
        if not roster:
            raise OptimizationError(
                f"every platform is excluded: {sorted(exclude_platforms)}"
            )
        return roster

    def _platform_by_name(self, name: str) -> "Platform":
        for platform in self.platforms:
            if platform.name == name:
                return platform
        raise OptimizationError(
            f"unknown platform {name!r}; have {[p.name for p in self.platforms]}"
        )

    # ------------------------------------------------------------------
    # operator pricing
    # ------------------------------------------------------------------
    def _operator_cost(
        self,
        choice: Choice,
        input_cards: tuple[float, ...],
        output_card: float,
    ) -> float:
        if isinstance(choice.variant, PRepeat):
            return self._loop_cost(choice.variant, choice.platform, input_cards)
        cost_input = OperatorCostInput(
            kind=choice.variant.kind,
            input_cards=input_cards,
            output_card=output_card,
            udf_load=choice.variant.hints.udf_load,
        )
        return choice.platform.cost_model.operator_ms(cost_input)

    def _loop_cost(
        self,
        repeat: PRepeat,
        platform: "Platform",
        input_cards: tuple[float, ...],
    ) -> float:
        """Estimated cost of the whole loop on ``platform``.

        Body cost is the per-iteration sum of the cheapest supported
        variant of every body operator; loop-invariant sources pay full
        price once and cache-read price afterwards.
        """
        state_card = input_cards[0] if input_cards else 1.0
        body = repeat.body.graph
        order = body.topological_order()
        body_estimates = self.estimator.estimate_plan(
            repeat.body, seeds={repeat.body_input.id: state_card}, order=order
        )
        iterations = max(1, repeat.iteration_bound)
        model = platform.cost_model
        per_iteration = model.loop_iteration_ms()
        first_iteration_extra = 0.0
        for operator in order:
            in_cards = tuple(
                body_estimates[p.id] for p in body.inputs_of(operator)
            )
            out_card = body_estimates[operator.id]
            best = min(
                self._operator_cost(Choice(variant, platform), in_cards, out_card)
                for variant in [operator] + list(operator.alternates)
                if platform.supports(variant)
            )
            if operator.is_source and operator.kind != "source.loopinput":
                # Paid in full on the first iteration, cached afterwards.
                first_iteration_extra += best
                per_iteration += model.cached_read_ms(out_card)
            else:
                per_iteration += best
        return first_iteration_extra + iterations * per_iteration

    # ------------------------------------------------------------------
    # assignment search
    # ------------------------------------------------------------------
    def _search(
        self,
        table: "_PricedPlan",
        tracer: "Tracer | None" = None,
        span=None,
    ) -> "tuple[dict[int, _Priced], float]":
        """Best assignment over all platform subsets of the table's roster.

        Running the DP over the full roster alone would sprinkle
        expensive-to-start platforms onto single operators, so it runs
        once per non-empty subset — exponential in the number of
        *platforms* (a handful), linear in plan size — and the exact
        cost (start-ups included) picks the winner.

        With a tracer attached, every subset becomes a ``candidate``
        span carrying its estimated cost (or infeasibility), and the
        enclosing ``span`` receives winner/cost/reason attributes — the
        enumerator's decision trace that ``repro explain`` renders.
        """
        roster = table.platforms
        best: dict[int, _Priced] | None = None
        best_cost = float("inf")
        best_names: list[str] = []
        candidates = 0
        n = len(roster)
        for mask in range(1, 1 << n):
            names = [roster[i].name for i in range(n) if mask & (1 << i)]
            candidates += 1
            with maybe_span(
                tracer, "candidate", KIND_OPTIMIZER, platforms=names
            ) as cand_span:
                try:
                    candidate = table.assign(mask)
                except OptimizationError as error:
                    if cand_span is not None:
                        cand_span.set(feasible=False, why=str(error))
                    continue
                cost = table.price(candidate)
                if cand_span is not None:
                    cand_span.set(feasible=True, estimated_cost_ms=cost)
                if cost < best_cost:
                    best, best_cost, best_names = candidate, cost, names
        if tracer is not None:
            tracer.registry.counter(
                "enumerator.candidates",
                "platform subsets considered by the enumerator",
            ).inc(candidates)
        if best is None:
            # Re-raise the full-roster error with its informative message.
            table.assign((1 << n) - 1)
            raise OptimizationError("no feasible platform assignment")
        if span is not None:
            span.set(
                candidates=candidates,
                winner=best_names,
                winner_cost=best_cost,
                reason=(
                    f"cheapest estimated virtual cost ({best_cost:.2f}ms) "
                    f"across {candidates} platform-subset candidates "
                    "(start-ups included)"
                ),
            )
        return best, best_cost

    # ------------------------------------------------------------------
    # variant substitution
    # ------------------------------------------------------------------
    def _apply_variants(
        self, plan: PhysicalPlan, assignment: dict[int, Choice]
    ) -> dict[int, PhysicalOperator]:
        """Substitute committed variants; return old-id → new-operator map."""
        replaced: dict[int, PhysicalOperator] = {}
        for operator in list(plan.graph.operators):
            choice = assignment[operator.id]
            if choice.variant is not operator:
                plan.substitute(operator, choice.variant)
                choice.variant.alternates = []
                assignment[choice.variant.id] = choice
                del assignment[operator.id]
                replaced[operator.id] = choice.variant
        return replaced

    # ------------------------------------------------------------------
    # task-atom cutting
    # ------------------------------------------------------------------
    def _cut_atoms(
        self,
        plan: PhysicalPlan,
        order: list[PhysicalOperator],
        assignment: dict[int, Choice],
        estimates: dict[int, float],
        extra_output_ids: frozenset[int] = frozenset(),
    ) -> ExecutionPlan:
        graph = plan.graph
        # Greedy grouping with an acyclicity guard on the atom graph.
        atom_of: dict[int, int] = {}  # operator id -> atom index
        atom_members: list[list[PhysicalOperator]] = []
        atom_platform: list["Platform"] = []
        atom_deps: list[set[int]] = []  # direct dependencies between atoms

        def reaches(source: int, target: int) -> bool:
            if source == target:
                return True
            stack = [source]
            seen = set()
            while stack:
                current = stack.pop()
                if current == target:
                    return True
                if current in seen:
                    continue
                seen.add(current)
                stack.extend(atom_deps[current])
            return False

        for operator in order:
            platform = assignment[operator.id].platform
            producer_atoms = {
                atom_of[p.id] for p in graph.inputs_of(operator)
            }
            candidate = None
            if not isinstance(operator, PRepeat):
                same_platform = [
                    a for a in producer_atoms
                    if atom_platform[a] is platform
                    and not isinstance(atom_members[a][0], PRepeat)
                ]
                for atom_index in sorted(same_platform, reverse=True):
                    others = producer_atoms - {atom_index}
                    # Joining atom_index adds edges other -> atom_index; that
                    # closes a cycle iff some other atom already depends
                    # (transitively) on atom_index.
                    if not any(reaches(other, atom_index) for other in others):
                        candidate = atom_index
                        break
            if candidate is None:
                candidate = len(atom_members)
                atom_members.append([])
                atom_platform.append(platform)
                atom_deps.append(set())
            atom_members[candidate].append(operator)
            atom_of[operator.id] = candidate
            atom_deps[candidate].update(producer_atoms - {candidate})

        # Topological order of atoms.
        atom_order = self._topological_atoms(atom_deps)

        atoms: list[TaskAtom | LoopAtom] = []
        plan_sink_ids = {op.id for op in graph.sinks}
        consumers = graph.consumer_index()
        for atom_index in atom_order:
            members = atom_members[atom_index]
            platform = atom_platform[atom_index]
            if len(members) == 1 and isinstance(members[0], PRepeat):
                atoms.append(self._build_loop_atom(graph, members[0], platform))
                continue
            member_ids = {op.id for op in members}
            fragment = graph.subgraph(members)
            external_inputs: dict[tuple[int, int], int] = {}
            output_ids: set[int] = set()
            for operator in members:
                for slot, producer in enumerate(graph.inputs_of(operator)):
                    if producer.id not in member_ids:
                        external_inputs[(operator.id, slot)] = producer.id
                if operator.id in plan_sink_ids or operator.id in extra_output_ids:
                    output_ids.add(operator.id)
                for consumer in consumers[operator.id]:
                    if consumer.id not in member_ids:
                        output_ids.add(operator.id)
            atom = TaskAtom(platform, fragment, external_inputs, output_ids)
            # Platform-layer optimization phase (paper §4.3).
            platform.optimize_atom(atom)
            atoms.append(atom)
        return ExecutionPlan(atoms, plan.collect_sinks(), dict(estimates))

    def _build_loop_atom(
        self,
        graph: OperatorGraph[PhysicalOperator],
        repeat: PRepeat,
        platform: "Platform",
    ) -> LoopAtom:
        """Schedule a loop body entirely on ``platform``.

        Re-entrant: a failover or progressive re-plan may hand the same
        ``PRepeat`` object back after an earlier round already fused its
        body output into a platform-specific pipeline; undo that so the
        body can be re-cut (and re-fused) for the new platform.
        """
        from repro.core.physical.fusion import PFusedPipeline

        if isinstance(repeat.body_output, PFusedPipeline):
            repeat.body_output = repeat.body_output.stages[-1]
        body_order = repeat.body.graph.topological_order()
        body_table = _PricedPlan(
            self,
            repeat.body,
            body_order,
            self.estimator.estimate_plan(repeat.body, order=body_order),
            [platform],
        )
        body_assignment = {
            op_id: choice
            for op_id, (choice, _, _) in body_table.forced().items()
        }
        replaced = self._apply_variants(repeat.body, body_assignment)
        body_order = [replaced.get(op.id, op) for op in body_order]
        if repeat.body_input.id in replaced:
            repeat.body_input = replaced[repeat.body_input.id]
        if repeat.body_output.id in replaced:
            repeat.body_output = replaced[repeat.body_output.id]
        # The loop-output operator must be egested even when it has body-
        # internal consumers (the executor reads the state from it), and
        # must be marked *before* atom cutting so platform-layer fusion
        # keeps it addressable.
        body_plan = self._cut_atoms(
            repeat.body,
            body_order,
            body_assignment,
            self.estimator.estimate_plan(repeat.body, order=body_order),
            extra_output_ids=frozenset({repeat.body_output.id}),
        )
        # Platform-layer fusion may have folded the output operator into a
        # fused pipeline ending with it; follow the replacement.
        try:
            body_plan.atom_of(repeat.body_output.id)
        except KeyError:
            repeat.body_output = self._resolve_fused_output(
                body_plan, repeat.body_output
            )
        (state_producer,) = graph.inputs_of(repeat)
        return LoopAtom(platform, repeat, body_plan, state_producer.id)

    @staticmethod
    def _resolve_fused_output(
        body_plan: ExecutionPlan, body_output: PhysicalOperator
    ) -> PhysicalOperator:
        """Find the fused pipeline that absorbed ``body_output``."""
        from repro.core.physical.fusion import PFusedPipeline

        for atom in body_plan.atoms:
            if not isinstance(atom, TaskAtom):
                continue
            for operator in atom.fragment:
                if (
                    isinstance(operator, PFusedPipeline)
                    and operator.stages
                    and operator.stages[-1] is body_output
                ):
                    return operator
        raise OptimizationError(
            f"loop output {body_output!r} lost during platform-layer "
            "optimization"
        )

    @staticmethod
    def _topological_atoms(atom_deps: list[set[int]]) -> list[int]:
        remaining = set(range(len(atom_deps)))
        done: set[int] = set()
        order: list[int] = []
        while remaining:
            progressed = False
            for index in sorted(remaining):
                if atom_deps[index] <= done:
                    order.append(index)
                    done.add(index)
                    remaining.remove(index)
                    progressed = True
                    break
            if not progressed:
                raise OptimizationError("task-atom graph contains a cycle")
        return order
