"""Property tests for the IEJoin operator: equivalence with the
brute-force theta join for every inequality-operator combination, and
an exact pin of its emission order and metered work."""

import bisect
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RheemContext
from repro.apps.cleaning import iejoin as iejoin_module
from repro.apps.cleaning.iejoin import (
    InequalityJoin,
    ie_join_pairs,
    register_iejoin,
)
from repro.errors import RuleError

OPS = ["<", "<=", ">", ">="]

_COMPARE = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

points = st.lists(
    st.tuples(st.integers(-10, 10), st.integers(-10, 10)), max_size=25
)


def brute_force(left, right, op1, op2):
    return sorted(
        (l, r)
        for l in left
        for r in right
        if _COMPARE[op1](l[0], r[0]) and _COMPARE[op2](l[1], r[1])
    )


def run_iejoin(left, right, op1, op2):
    return sorted(
        ie_join_pairs(
            left, right,
            lambda t: t[0], op1, lambda t: t[0],
            lambda t: t[1], op2, lambda t: t[1],
        )
    )


@pytest.mark.parametrize("op1,op2", list(itertools.product(OPS, OPS)))
def test_all_operator_combinations_small(op1, op2):
    left = [(1, 5), (2, 3), (2, 3), (4, 1), (0, 0)]
    right = [(2, 2), (3, 4), (1, 1), (4, 0)]
    assert run_iejoin(left, right, op1, op2) == brute_force(left, right, op1, op2)


@settings(max_examples=60)
@given(points, points, st.sampled_from(OPS), st.sampled_from(OPS))
def test_matches_brute_force_property(left, right, op1, op2):
    assert run_iejoin(left, right, op1, op2) == brute_force(left, right, op1, op2)


def reference_ie_join_pairs(left, right, op1, op2, report):
    """The numpy bit-array sweep IEJoin used to run, kept as the order and
    work oracle: keys are the tuples' first two fields, and every
    ``report_work`` call is appended to ``report``."""
    n, m = len(left), len(right)
    if not left or not right:
        return
    report.append(
        0.25 * (n * float(np.log2(max(n, 2))) + m * float(np.log2(max(m, 2))))
        + (n + m) / 16.0
    )
    compare1 = _COMPARE[op1]
    descending1 = op1 in (">", ">=")
    left_order = sorted(range(n), key=lambda i: left[i][0], reverse=descending1)
    right_order = sorted(range(m), key=lambda j: right[j][0], reverse=descending1)
    y_order = sorted(range(n), key=lambda i: left[i][1])
    y_keys = [left[i][1] for i in y_order]
    rank_of_left = {index: rank for rank, index in enumerate(y_order)}
    y_order_array = np.asarray(y_order)
    active = np.zeros(n, dtype=bool)
    pointer = 0
    for j in right_order:
        right_tuple = right[j]
        rx = right_tuple[0]
        while pointer < n and compare1(left[left_order[pointer]][0], rx):
            active[rank_of_left[left_order[pointer]]] = True
            pointer += 1
        ry = right_tuple[1]
        if op2 == ">":
            low, high = bisect.bisect_right(y_keys, ry), n
        elif op2 == ">=":
            low, high = bisect.bisect_left(y_keys, ry), n
        elif op2 == "<":
            low, high = 0, bisect.bisect_left(y_keys, ry)
        else:
            low, high = 0, bisect.bisect_right(y_keys, ry)
        if low >= high:
            continue
        hits = np.nonzero(active[low:high])[0]
        report.append(float(len(hits)))
        for rank in hits:
            yield (left[y_order_array[low + rank]], right_tuple)


#: (k1, k2, id) tuples over a narrow key range: ties and duplicate keys
#: are common, and the id tells equal-keyed tuples apart in the order
tagged_points = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=30
).map(lambda keys: [(x, y, i) for i, (x, y) in enumerate(keys)])


class TestEmissionOrderAndWork:
    """IEJoin must emit exactly the reference's pair *sequence* and make
    exactly its ``report_work`` calls: the sequence feeds downstream
    operators in order, and the float sum of the calls is virtual time."""

    @staticmethod
    def _observe(left, right, op1, op2):
        calls = []
        with mock.patch.object(iejoin_module, "report_work", calls.append):
            pairs = list(
                ie_join_pairs(
                    left, right,
                    lambda t: t[0], op1, lambda t: t[0],
                    lambda t: t[1], op2, lambda t: t[1],
                )
            )
        return pairs, calls

    @pytest.mark.parametrize("op1,op2", list(itertools.product(OPS, OPS)))
    @settings(max_examples=40, deadline=None)
    @given(left=tagged_points, right=tagged_points)
    def test_matches_reference_sweep(self, op1, op2, left, right):
        pairs, calls = self._observe(left, right, op1, op2)
        expected_calls = []
        expected = list(
            reference_ie_join_pairs(left, right, op1, op2, expected_calls)
        )
        assert pairs == expected
        assert calls == expected_calls

    @pytest.mark.parametrize("op1,op2", list(itertools.product(OPS, OPS)))
    def test_self_join_with_duplicates(self, op1, op2):
        data = [(i % 3, (i * 5) % 4, i) for i in range(40)]
        pairs, calls = self._observe(data, data, op1, op2)
        expected_calls = []
        assert pairs == list(
            reference_ie_join_pairs(data, data, op1, op2, expected_calls)
        )
        assert calls == expected_calls

    def test_each_key_udf_runs_once_per_tuple(self):
        data = [(i % 5, (i * 7) % 6) for i in range(30)]
        counts = {"lx": 0, "ly": 0, "rx": 0, "ry": 0}

        def counted(name, position):
            def key(t):
                counts[name] += 1
                return t[position]
            return key

        list(
            ie_join_pairs(
                data, data[:20],
                counted("lx", 0), "<", counted("rx", 0),
                counted("ly", 1), ">", counted("ry", 1),
            )
        )
        assert counts == {"lx": 30, "ly": 30, "rx": 20, "ry": 20}


class TestEdgeCases:
    def test_empty_sides(self):
        assert run_iejoin([], [(1, 1)], "<", ">") == []
        assert run_iejoin([(1, 1)], [], "<", ">") == []

    def test_duplicate_keys(self):
        left = [(1, 1)] * 3
        right = [(2, 0)] * 2
        assert len(run_iejoin(left, right, "<", ">")) == 6

    def test_equality_operator_rejected(self):
        with pytest.raises(RuleError, match="inequality"):
            list(
                ie_join_pairs(
                    [(1, 1)], [(1, 1)],
                    lambda t: t[0], "==", lambda t: t[0],
                    lambda t: t[1], "<", lambda t: t[1],
                )
            )

    def test_self_join_strict_excludes_self_pairs(self):
        data = [(1, 2), (2, 1)]
        pairs = run_iejoin(data, data, "<", ">")
        assert pairs == [((1, 2), (2, 1))]


class TestOperatorIntegration:
    def test_logical_operator_validates_ops(self):
        with pytest.raises(RuleError):
            InequalityJoin(
                lambda t: t, "==", lambda t: t, lambda t: t, "<", lambda t: t
            )

    def test_pair_predicate(self):
        join = InequalityJoin(
            lambda t: t[0], "<", lambda t: t[0],
            lambda t: t[1], ">", lambda t: t[1],
        )
        assert join.pair_predicate((1, 5), (2, 3)) is True
        assert join.pair_predicate((3, 5), (2, 3)) is False

    @pytest.mark.parametrize("platform", ["java", "spark", "postgres"])
    def test_plan_level_iejoin_on_every_platform(self, platform):
        ctx = RheemContext()
        register_iejoin(ctx.mappings, ctx.platforms)
        data = [(i % 7, (i * 3) % 11) for i in range(40)]
        left = ctx.collection(data)
        right = ctx.collection(data)
        join = InequalityJoin(
            lambda t: t[0], "<", lambda t: t[0],
            lambda t: t[1], ">", lambda t: t[1],
        )
        out = sorted(left.apply_binary_operator(join, right).collect(platform=platform))
        assert out == brute_force(data, data, "<", ">")

    def test_registration_idempotent(self):
        ctx = RheemContext()
        register_iejoin(ctx.mappings, ctx.platforms)
        register_iejoin(ctx.mappings, ctx.platforms)
        join = InequalityJoin(
            lambda t: t[0], "<", lambda t: t[0],
            lambda t: t[1], ">", lambda t: t[1],
        )
        assert len(ctx.mappings.candidates(join)) == 2

    def test_iejoin_variant_preferred_by_cost(self):
        """The optimizer should pick IEJoin over the nested-loop variant."""
        ctx = RheemContext()
        register_iejoin(ctx.mappings, ctx.platforms)
        data = [(i, -i) for i in range(200)]
        join = InequalityJoin(
            lambda t: t[0], "<", lambda t: t[0],
            lambda t: t[1], ">", lambda t: t[1],
        )
        physical = ctx.app_optimizer.optimize(
            ctx.collection(data)
            .apply_binary_operator(join, ctx.collection(data))
            .plan
        )
        # translate attaches alternates; enumerate commits the cheaper one
        execution = ctx.task_optimizer.optimize(physical, forced_platform="java")
        kinds = {
            op.kind
            for atom in execution.atoms
            for op in getattr(atom, "fragment", [])
        }
        assert "join.iejoin" in kinds
