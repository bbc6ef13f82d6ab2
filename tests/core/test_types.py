"""Unit tests for the data-quanta model (Schema / Record)."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.types import Record, Schema, records_from_dicts
from repro.errors import ValidationError


class TestSchema:
    def test_fields_in_order(self):
        schema = Schema(["a", "b", "c"])
        assert schema.fields == ("a", "b", "c")
        assert len(schema) == 3
        assert list(schema) == ["a", "b", "c"]

    def test_index_of(self):
        schema = Schema(["a", "b"])
        assert schema.index_of("a") == 0
        assert schema.index_of("b") == 1

    def test_index_of_unknown_field_raises(self):
        with pytest.raises(ValidationError, match="unknown field"):
            Schema(["a"]).index_of("zzz")

    def test_duplicate_fields_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            Schema(["a", "a"])

    def test_empty_schema_rejected(self):
        with pytest.raises(ValidationError):
            Schema([])

    def test_contains(self):
        schema = Schema(["x", "y"])
        assert "x" in schema
        assert "z" not in schema

    def test_project_keeps_order_given(self):
        schema = Schema(["a", "b", "c"])
        assert schema.project(["c", "a"]).fields == ("c", "a")

    def test_project_unknown_field_raises(self):
        with pytest.raises(ValidationError):
            Schema(["a"]).project(["b"])

    def test_equality_and_hash(self):
        assert Schema(["a", "b"]) == Schema(["a", "b"])
        assert Schema(["a", "b"]) != Schema(["b", "a"])
        assert hash(Schema(["a"])) == hash(Schema(["a"]))

    def test_record_constructor_arity_checked(self):
        schema = Schema(["a", "b"])
        with pytest.raises(ValidationError, match="expected 2 values"):
            schema.record(1)

    def test_from_mapping(self):
        schema = Schema(["a", "b"])
        record = schema.from_mapping({"b": 2, "a": 1})
        assert record.values == (1, 2)

    def test_from_mapping_missing_field(self):
        with pytest.raises(ValidationError, match="missing field"):
            Schema(["a", "b"]).from_mapping({"a": 1})


class TestRecord:
    def test_access_by_name_and_index(self):
        record = Schema(["a", "b"]).record(10, 20)
        assert record["a"] == 10
        assert record[1] == 20

    def test_get_with_default(self):
        record = Schema(["a"]).record(1)
        assert record.get("a") == 1
        assert record.get("missing", 42) == 42

    def test_with_value_is_pure(self):
        original = Schema(["a", "b"]).record(1, 2)
        updated = original.with_value("b", 99)
        assert updated["b"] == 99
        assert original["b"] == 2

    def test_project(self):
        record = Schema(["a", "b", "c"]).record(1, 2, 3)
        projected = record.project(["c", "a"])
        assert projected.values == (3, 1)
        assert projected.schema.fields == ("c", "a")

    def test_as_dict_and_tuple(self):
        record = Schema(["a", "b"]).record(1, 2)
        assert record.as_dict() == {"a": 1, "b": 2}
        assert record.as_tuple() == (1, 2)

    def test_equality_and_hash(self):
        schema = Schema(["a"])
        assert schema.record(1) == schema.record(1)
        assert schema.record(1) != schema.record(2)
        assert len({schema.record(1), schema.record(1)}) == 1

    def test_records_of_different_schemas_differ(self):
        assert Schema(["a"]).record(1) != Schema(["b"]).record(1)

    def test_repr_mentions_fields(self):
        assert "a=1" in repr(Schema(["a"]).record(1))


class TestProjectionContract:
    """Projection is memoized per (source fields, wanted fields); field
    access resolves a name with one lookup.  Neither may change what a
    schema or record is, how it compares, or how it pickles."""

    def test_projected_schema_equals_fresh_schema(self):
        schema = Schema(["a", "b", "c"])
        assert schema.project(["c", "a"]) == Schema(["c", "a"])
        assert schema.project(("c", "a")) == Schema(["c", "a"])

    def test_projected_schema_is_shared_across_rows(self):
        schema = Schema(["a", "b", "c"])
        rows = [schema.record(i, -i, 2 * i) for i in range(4)]
        projected = [row.project(["c", "a"]) for row in rows]
        assert {id(p.schema) for p in projected} == {id(projected[0].schema)}
        assert projected[0].schema is schema.project(["c", "a"])
        assert [p.values for p in projected] == [(2 * i, i) for i in range(4)]
        # an equal source schema shares the same projection
        assert Schema(["a", "b", "c"]).project(["c", "a"]) is projected[0].schema

    def test_single_field_projection(self):
        record = Schema(["a", "b"]).record(1, 2)
        projected = record.project(["b"])
        assert projected.values == (2,)
        assert projected["b"] == 2

    def test_projection_depends_on_the_source_layout(self):
        first = Schema(["a", "b"]).record(1, 2).project(["b"])
        second = Schema(["b", "a"]).record(1, 2).project(["b"])
        assert first.values == (2,)
        assert second.values == (1,)

    def test_positional_access(self):
        record = Schema(["a", "b", "c"]).record(10, 20, 30)
        assert record[0] == 10
        assert record[-1] == 30
        assert record[-3] == 10
        with pytest.raises(IndexError):
            record[3]

    def test_unknown_name_raises_validation_error(self):
        record = Schema(["a", "b"]).record(1, 2)
        with pytest.raises(ValidationError, match="unknown field 'zzz'"):
            record["zzz"]
        with pytest.raises(ValidationError, match="unknown field 'zzz'"):
            record.project(["a", "zzz"])
        with pytest.raises(ValidationError, match="unknown field 'zzz'"):
            record.schema.project(["zzz"])

    def test_invalid_projection_is_not_memoized(self):
        schema = Schema(["a", "b"])
        for _ in range(2):
            with pytest.raises(ValidationError, match="duplicate"):
                schema.project(["a", "a"])
            with pytest.raises(ValidationError):
                schema.project([])

    def test_pickle_bytes_unchanged_by_memoization(self):
        schema = Schema(["p", "q", "r"])
        record = schema.record(1, "two", 3.0)
        schema_bytes = pickle.dumps(schema)
        record_bytes = pickle.dumps(record)
        projected = record.project(["r", "p"])
        record.project(["r", "p"])
        assert pickle.dumps(schema) == schema_bytes
        assert pickle.dumps(record) == record_bytes
        # and projected rows round-trip like any other record
        clone = pickle.loads(pickle.dumps(projected))
        assert clone == projected
        assert clone["p"] == 1 and clone[-1] == 1


def test_records_from_dicts():
    schema = Schema(["x", "y"])
    records = records_from_dicts(schema, [{"x": 1, "y": 2}, {"x": 3, "y": 4}])
    assert [r.values for r in records] == [(1, 2), (3, 4)]


@given(st.lists(st.integers(), min_size=1, max_size=8, unique=True))
def test_record_roundtrip_via_dict(values):
    fields = [f"f{i}" for i in range(len(values))]
    schema = Schema(fields)
    record = schema.record(*values)
    assert schema.from_mapping(record.as_dict()) == record


@given(
    st.lists(
        st.tuples(st.text(min_size=1, max_size=5), st.integers()),
        min_size=1,
        max_size=6,
    )
)
def test_with_value_then_read_back(pairs):
    fields = []
    for name, _ in pairs:
        if name not in fields:
            fields.append(name)
    schema = Schema(fields)
    record = schema.record(*[0] * len(fields))
    for name, value in pairs:
        record = record.with_value(name, value)
        assert record[name] == value
