"""Data-quanta model.

The paper defines a *data quantum* as "the smallest unit of data elements
from the input datasets" — a tuple of a dataset, a row of a matrix, a line
of text.  RHEEM operators are defined over single quanta, which is what
lets the core parallelise them freely.

In this reproduction a data quantum is any Python object.  For structured
workloads we provide :class:`Schema` and :class:`Record`, a lightweight
named-tuple-like row that keeps field access readable in UDFs while staying
cheap to hash and compare (both are required by shuffles and joins).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import ValidationError

#: A UDF over a single data quantum.
Udf = Callable[[Any], Any]

#: A predicate UDF over a single data quantum.
Predicate = Callable[[Any], bool]

#: A key-extraction UDF.
KeyUdf = Callable[[Any], Any]

#: Projection memo: (source fields, wanted fields) -> (the shared projected
#: schema, a getter copying the wanted values out of a source value
#: tuple).  Module-level rather than a Schema slot so schemas and records
#: pickle exactly as they always have (process-mode payloads, checkpoints).
_PROJECTIONS: dict[tuple[tuple[str, ...], tuple[str, ...]], tuple[Any, Any]] = {}
#: distinct projections are fixed by the program's schemas; the cap only
#: guards long-lived processes that see unboundedly many ad-hoc ones
_PROJECTIONS_CAP = 4096


class Schema:
    """An ordered set of named fields describing structured data quanta.

    Schemas are immutable; equality is field-wise, which allows storage
    formats and relational operators to check compatibility cheaply.
    """

    __slots__ = ("_fields", "_index")

    def __init__(self, fields: Sequence[str]):
        if len(set(fields)) != len(fields):
            raise ValidationError(f"duplicate field names in schema: {fields!r}")
        if not fields:
            raise ValidationError("a schema needs at least one field")
        self._fields: tuple[str, ...] = tuple(fields)
        self._index: dict[str, int] = {name: i for i, name in enumerate(self._fields)}

    @property
    def fields(self) -> tuple[str, ...]:
        """The field names, in order."""
        return self._fields

    def index_of(self, field: str) -> int:
        """Return the positional index of ``field``.

        Raises :class:`ValidationError` for unknown fields so schema bugs
        surface as library errors rather than ``KeyError`` noise.
        """
        try:
            return self._index[field]
        except KeyError:
            raise ValidationError(
                f"unknown field {field!r}; schema has {self._fields!r}"
            ) from None

    def project(self, fields: Sequence[str]) -> "Schema":
        """Return the schema restricted to ``fields`` (kept in given order).

        Equal to ``Schema(fields)``; one instance is shared by every
        projection of this field list onto this schema.
        """
        return self._projection(fields)[0]

    def _projection(self, fields: Sequence[str]) -> tuple["Schema", Any]:
        """The memoized (projected schema, value getter) for ``fields``."""
        key = (self._fields, tuple(fields))
        try:
            return _PROJECTIONS[key]
        except KeyError:
            pass
        wanted = key[1]
        positions = [self.index_of(field) for field in wanted]
        projected = Schema(wanted)
        if len(positions) == 1:
            (position,) = positions

            def getter(values: tuple[Any, ...]) -> tuple[Any, ...]:
                return (values[position],)
        else:
            getter = itemgetter(*positions)
        if len(_PROJECTIONS) >= _PROJECTIONS_CAP:
            _PROJECTIONS.clear()
        _PROJECTIONS[key] = (projected, getter)
        return projected, getter

    def record(self, *values: Any) -> "Record":
        """Build a :class:`Record` of this schema from positional values."""
        if len(values) != len(self._fields):
            raise ValidationError(
                f"expected {len(self._fields)} values for schema "
                f"{self._fields!r}, got {len(values)}"
            )
        return Record(self, tuple(values))

    def from_mapping(self, mapping: dict[str, Any]) -> "Record":
        """Build a :class:`Record` from a field→value mapping."""
        try:
            values = tuple(mapping[name] for name in self._fields)
        except KeyError as exc:
            raise ValidationError(f"mapping is missing field {exc}") from None
        return Record(self, values)

    def __len__(self) -> int:
        return len(self._fields)

    def __contains__(self, field: str) -> bool:
        return field in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self._fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self._fields == other._fields

    def __hash__(self) -> int:
        return hash(self._fields)

    def __repr__(self) -> str:
        return f"Schema({list(self._fields)!r})"


class Record:
    """A structured data quantum: a tuple of values plus a shared schema.

    Records hash and compare by value (schema included), so they can flow
    through shuffles, ``Distinct`` and join keys unchanged.  Records are
    immutable; :meth:`with_value` returns an updated copy, which keeps
    repair algorithms side-effect free.
    """

    __slots__ = ("schema", "values")

    def __init__(self, schema: Schema, values: tuple[Any, ...]):
        self.schema = schema
        self.values = values

    def __getitem__(self, field: str | int) -> Any:
        # One dict lookup resolves a name; a position is not a key of the
        # index, so ``get`` hands it through unchanged.  An unknown name
        # reaches the tuple as a str and raises TypeError there.
        try:
            return self.values[self.schema._index.get(field, field)]
        except TypeError:
            self.schema.index_of(field)  # ValidationError for unknown names
            raise

    def get(self, field: str, default: Any = None) -> Any:
        """Return the value of ``field``, or ``default`` if absent."""
        index = self.schema._index.get(field)
        return default if index is None else self.values[index]

    def with_value(self, field: str, value: Any) -> "Record":
        """Return a copy of this record with ``field`` replaced by ``value``."""
        index = self.schema.index_of(field)
        values = self.values[:index] + (value,) + self.values[index + 1 :]
        return Record(self.schema, values)

    def project(self, fields: Sequence[str]) -> "Record":
        """Return a record holding only ``fields`` (with a projected schema)."""
        schema, getter = self.schema._projection(fields)
        return Record(schema, getter(self.values))

    def as_dict(self) -> dict[str, Any]:
        """Return the record as a plain ``dict`` (field → value)."""
        return dict(zip(self.schema.fields, self.values))

    def as_tuple(self) -> tuple[Any, ...]:
        """Return the raw value tuple."""
        return self.values

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Record)
            and self.schema == other.schema
            and self.values == other.values
        )

    def __lt__(self, other: "Record") -> bool:
        # Tuple-like ordering so sort-based operator variants (SortDistinct,
        # SortGroupBy) work on record datasets.
        if not isinstance(other, Record):
            return NotImplemented
        return (self.schema.fields, self.values) < (
            other.schema.fields,
            other.values,
        )

    def __hash__(self) -> int:
        return hash((self.schema, self.values))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}={v!r}" for k, v in zip(self.schema.fields, self.values))
        return f"Record({pairs})"


def records_from_dicts(schema: Schema, rows: Iterable[dict[str, Any]]) -> list[Record]:
    """Convenience constructor: turn dict rows into :class:`Record` quanta."""
    return [schema.from_mapping(row) for row in rows]
