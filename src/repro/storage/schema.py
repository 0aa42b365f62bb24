"""Schemas: ordered, named, typed column lists.

A schema assigns a position, a name, and a (dynamic) type to each field of
a row tuple.  Column names inside a single schema must be unique; plans
guarantee global uniqueness via binder-assigned qualifiers
(``"q3.ps_partkey"``), so algebraic operators can identify attributes by
name alone, exactly as the paper's algebra does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.errors import SchemaError


class ColumnType(enum.Enum):
    """Dynamic column types.

    The engine is dynamically typed (values are Python objects and ``None``
    is the SQL NULL), but the catalog records declared types so that data
    generators, CSV import, and the cost model can reason about domains.
    """

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    BOOL = "bool"
    ANY = "any"

    def python_type(self) -> type | None:
        """Return the Python type values of this column should have."""
        return {
            ColumnType.INT: int,
            ColumnType.FLOAT: float,
            ColumnType.STRING: str,
            ColumnType.BOOL: bool,
            ColumnType.ANY: None,
        }[self]

    def parse(self, text: str):
        """Parse ``text`` (e.g. a CSV field) into a value of this type.

        The empty string parses to ``None`` (SQL NULL).
        """
        if text == "":
            return None
        if self is ColumnType.INT:
            return int(text)
        if self is ColumnType.FLOAT:
            return float(text)
        if self is ColumnType.BOOL:
            return text.lower() in ("1", "t", "true", "yes")
        return text


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    type: ColumnType = ColumnType.ANY

    def renamed(self, name: str) -> "Column":
        return Column(name, self.type)


class Schema:
    """An ordered list of uniquely named columns.

    Schemas are immutable.  Equality and hashing consider only the column
    *names* (the paper's algebra is name-based; types are advisory).
    """

    __slots__ = ("_columns", "_index")

    def __init__(self, columns: Iterable[Column | str]):
        cols = []
        for col in columns:
            if isinstance(col, str):
                col = Column(col)
            cols.append(col)
        self._columns: tuple[Column, ...] = tuple(cols)
        self._index: dict[str, int] = {}
        for position, col in enumerate(self._columns):
            if col.name in self._index:
                raise SchemaError(f"duplicate column name {col.name!r} in schema")
            self._index[col.name] = position

    # -- basic accessors -------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(col.name for col in self._columns)

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __getitem__(self, key: int | str) -> Column:
        if isinstance(key, int):
            return self._columns[key]
        return self._columns[self.position(key)]

    def position(self, name: str) -> int:
        """Return the tuple position of column ``name``.

        Raises :class:`SchemaError` if the column does not exist.
        """
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(
                f"unknown column {name!r}; schema has {list(self._index)}"
            ) from None

    def positions(self, names: Sequence[str]) -> tuple[int, ...]:
        return tuple(self.position(name) for name in names)

    def column_type(self, name: str) -> ColumnType:
        return self._columns[self.position(name)].type

    # -- construction helpers --------------------------------------------

    def concat(self, other: "Schema") -> "Schema":
        """Schema of the tuple concatenation ``x ∘ y`` (join/product output)."""
        return Schema(self._columns + other._columns)

    def project(self, names: Sequence[str]) -> "Schema":
        """Schema restricted to ``names``, in the order given."""
        return Schema([self[name] for name in names])

    def extend(self, column: Column | str) -> "Schema":
        """Schema with one extra column appended (map/χ, numbering/ν)."""
        if isinstance(column, str):
            column = Column(column)
        return Schema(self._columns + (column,))

    def rename(self, mapping: dict[str, str]) -> "Schema":
        """Schema with columns renamed according to ``mapping`` (ρ)."""
        return Schema(
            [
                col.renamed(mapping[col.name]) if col.name in mapping else col
                for col in self._columns
            ]
        )

    def qualify(self, qualifier: str) -> "Schema":
        """Prefix every column with ``qualifier + '.'`` (binder use)."""
        return Schema(
            [col.renamed(f"{qualifier}.{col.name}") for col in self._columns]
        )

    def unqualified_names(self) -> tuple[str, ...]:
        """Column names with any ``qualifier.`` prefix stripped."""
        return tuple(name.rsplit(".", 1)[-1] for name in self.names)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Schema({', '.join(self.names)})"
