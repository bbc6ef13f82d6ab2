"""Unit tests for the shared operator-DAG machinery."""

import random

import pytest

from repro.core.dag import OperatorGraph, OperatorNode, walk_down
from repro.errors import PlanError, ValidationError


class Src(OperatorNode):
    num_inputs = 0


class Unary(OperatorNode):
    num_inputs = 1


class Binary(OperatorNode):
    num_inputs = 2


def chain(*nodes):
    graph = OperatorGraph()
    previous = None
    for node in nodes:
        graph.add(node, [previous] if previous is not None else [])
        previous = node
    return graph


def random_dag(rng: random.Random, size: int = 30) -> OperatorGraph:
    """Random DAG, insertion order shuffled away from any topological one
    by re-wiring earlier operators onto later ones; some binaries read
    the same producer on both slots."""
    graph = OperatorGraph()
    nodes = [graph.add(Src()) for _ in range(rng.randint(1, 4))]
    for _ in range(size):
        if rng.random() < 0.4:
            left = rng.choice(nodes)
            right = left if rng.random() < 0.3 else rng.choice(nodes)
            nodes.append(graph.add(Binary(), [left, right]))
        else:
            nodes.append(graph.add(Unary(), [rng.choice(nodes)]))
    # Surgery: point some early unaries at sources added last, so
    # producers can follow their consumers in insertion order.
    for node in nodes[: len(nodes) // 2]:
        if isinstance(node, Unary) and rng.random() < 0.3:
            late = graph.add(Src())
            graph.replace_input(node, graph.inputs_of(node)[0], late)
    return graph


def reference_order(graph: OperatorGraph) -> list:
    """The original O(n^2) Kahn traversal: FIFO by ``list.pop(0)``, and a
    scan of every operator (insertion order) per dequeued producer."""
    inputs = graph._inputs
    in_degree = {op.id: len(inputs[op.id]) for op in graph}
    ready = [op for op in graph if in_degree[op.id] == 0]
    order = []
    while ready:
        current = ready.pop(0)
        order.append(current)
        for consumer in graph:
            if current in inputs[consumer.id]:
                in_degree[consumer.id] -= inputs[consumer.id].count(current)
                if in_degree[consumer.id] == 0:
                    ready.append(consumer)
    return order


class TestConstruction:
    def test_add_and_inputs(self):
        src, op = Src(), Unary()
        graph = chain(src, op)
        assert graph.inputs_of(op) == (src,)
        assert graph.consumers_of(src) == (op,)

    def test_add_wrong_arity(self):
        graph = OperatorGraph()
        src = graph.add(Src())
        with pytest.raises(PlanError, match="expects 2"):
            graph.add(Binary(), [src])

    def test_add_twice_rejected(self):
        graph = OperatorGraph()
        src = graph.add(Src())
        with pytest.raises(PlanError, match="already added"):
            graph.add(src)

    def test_foreign_input_rejected(self):
        graph = OperatorGraph()
        with pytest.raises(PlanError, match="not part of this plan"):
            graph.add(Unary(), [Src()])

    def test_duplicate_producer_slots_allowed(self):
        graph = OperatorGraph()
        src = graph.add(Src())
        cross = graph.add(Binary(), [src, src])
        assert graph.inputs_of(cross) == (src, src)
        assert graph.topological_order() == [src, cross]

    def test_sources_and_sinks(self):
        src, mid, sink = Src(), Unary(), Unary()
        graph = chain(src, mid, sink)
        assert graph.sources == (src,)
        assert graph.sinks == (sink,)


class TestTraversal:
    def test_topological_order_diamond(self):
        graph = OperatorGraph()
        src = graph.add(Src())
        left = graph.add(Unary(), [src])
        right = graph.add(Unary(), [src])
        join = graph.add(Binary(), [left, right])
        order = graph.topological_order()
        assert order.index(src) < order.index(left) < order.index(join)
        assert order.index(src) < order.index(right) < order.index(join)

    def test_cycle_detected_after_surgery(self):
        src, a, b = Src(), Unary(), Unary()
        graph = chain(src, a, b)
        graph.replace_input(a, src, b)  # creates a <-> b cycle
        with pytest.raises(PlanError, match="cycle"):
            graph.topological_order()

    @pytest.mark.parametrize("seed", range(40))
    def test_topological_order_matches_quadratic_reference(self, seed):
        graph = random_dag(random.Random(seed))
        assert graph.topological_order() == reference_order(graph)

    def test_duplicate_edge_counts_each_slot(self):
        graph = OperatorGraph()
        src = graph.add(Src())
        other = graph.add(Src())
        mid = graph.add(Unary(), [other])
        cross = graph.add(Binary(), [src, src])
        join = graph.add(Binary(), [mid, cross])
        order = graph.topological_order()
        assert order == reference_order(graph) == [src, other, cross, mid, join]

    def test_dangling_input_is_reported(self):
        src, a, b = Src(), Unary(), Unary()
        graph = chain(src, a, b)
        graph._operators.remove(a)  # b now reads an operator not in the plan
        del graph._inputs[a.id]
        with pytest.raises(PlanError, match="cycle"):
            graph.topological_order()

    def test_consumer_index_matches_consumers_of(self):
        graph = random_dag(random.Random(7))
        index = graph.consumer_index()
        for op in graph:
            assert tuple(index[op.id]) == graph.consumers_of(op)

    def test_walk_down_visits_descendants_once(self):
        graph = OperatorGraph()
        src = graph.add(Src())
        left = graph.add(Unary(), [src])
        right = graph.add(Unary(), [src])
        join = graph.add(Binary(), [left, right])
        visited = []
        walk_down(graph, src, visited.append)
        assert set(visited) == {src, left, right, join}
        assert len(visited) == 4


class TestValidation:
    def test_empty_plan_invalid(self):
        with pytest.raises(ValidationError, match="empty"):
            OperatorGraph().validate()

    def test_valid_chain(self):
        chain(Src(), Unary()).validate()

    def test_no_source_invalid(self):
        graph = OperatorGraph()
        src, op = Src(), Unary()
        graph.add(src)
        graph.add(op, [src])
        graph._operators.remove(src)  # simulate corruption
        del graph._inputs[src.id]
        with pytest.raises(ValidationError):
            graph.validate()


class TestSurgery:
    def test_replace_input(self):
        graph = OperatorGraph()
        a, b = graph.add(Src()), graph.add(Src())
        op = graph.add(Unary(), [a])
        graph.replace_input(op, a, b)
        assert graph.inputs_of(op) == (b,)

    def test_replace_input_missing(self):
        graph = OperatorGraph()
        a, b = graph.add(Src()), graph.add(Src())
        op = graph.add(Unary(), [a])
        with pytest.raises(PlanError):
            graph.replace_input(op, b, a)

    def test_insert_between(self):
        src, sink = Src(), Unary()
        graph = chain(src, sink)
        mid = Unary()
        graph.insert_between(src, sink, mid)
        assert graph.inputs_of(sink) == (mid,)
        assert graph.inputs_of(mid) == (src,)

    def test_remove_unary_splices(self):
        src, mid, sink = Src(), Unary(), Unary()
        graph = chain(src, mid, sink)
        graph.remove_unary(mid)
        assert graph.inputs_of(sink) == (src,)
        assert mid not in graph

    def test_remove_unary_rejects_sources(self):
        graph = OperatorGraph()
        src = graph.add(Src())
        with pytest.raises(PlanError):
            graph.remove_unary(src)

    def test_replace_node_transfers_wiring(self):
        src, old, sink = Src(), Unary(), Unary()
        graph = chain(src, old, sink)
        new = Unary()
        graph.replace_node(old, new)
        assert graph.inputs_of(new) == (src,)
        assert graph.inputs_of(sink) == (new,)
        assert old not in graph

    def test_replace_node_arity_mismatch(self):
        src, old = Src(), Unary()
        graph = chain(src, old)
        with pytest.raises(PlanError, match="arity"):
            graph.replace_node(old, Binary())

    def test_absorb_merges_disjoint_graphs(self):
        g1 = chain(Src(), Unary())
        src2 = Src()
        g2 = chain(src2)
        g1.absorb(g2)
        assert src2 in g1
        assert len(g1) == 3

    def test_absorb_rejects_overlap(self):
        src = Src()
        g1 = chain(src)
        g2 = OperatorGraph()
        g2._operators.append(src)
        g2._inputs[src.id] = []
        with pytest.raises(PlanError, match="both graphs"):
            g1.absorb(g2)

    def test_subgraph_keeps_internal_edges_only(self):
        src, a, b = Src(), Unary(), Unary()
        graph = chain(src, a, b)
        sub = graph.subgraph([a, b])
        assert sub.inputs_of(a) == ()  # external producer dropped
        assert sub.inputs_of(b) == (a,)


def test_explain_lists_all_operators():
    src, op = Src(), Unary()
    graph = chain(src, op)
    text = graph.explain()
    assert f"#{src.id}" in text and f"#{op.id}" in text
