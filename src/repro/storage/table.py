"""Tables: ordered bags of row tuples with a schema.

The paper's formal algebra is defined over sets, with a section (§3.7)
arguing correctness over multisets; our tables are multisets (ordered for
reproducibility).  ``Table`` also provides the handful of bag/set helpers
the test-suite uses to compare query results independent of row order.
"""

from __future__ import annotations

import csv
import io
import threading
from collections import Counter
from typing import Iterable, Iterator, Sequence

from repro.errors import SchemaError
from repro.storage.schema import Column, ColumnType, Schema

Row = tuple


class Table:
    """An in-memory bag of rows sharing one schema.

    Rows are plain tuples whose arity must match the schema.  The class is
    deliberately small: all query processing happens in the engine; a
    table only stores data and answers simple statistics queries.
    """

    __slots__ = ("schema", "_rows", "name", "version", "batch_cache", "index_cache", "batch_lock")

    def __init__(self, schema: Schema | Sequence[Column | str], rows: Iterable[Row] = (), name: str = ""):
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        self.schema = schema
        self.rows: list[Row] = [tuple(row) for row in rows]
        self.name = name
        #: Bumped by every mutation (append / DML); consumers that cache a
        #: derived view of ``rows`` (the vectorized engine's column pivot,
        #: the secondary index builds) key it on this counter.  Code that
        #: mutates ``rows`` directly must call :meth:`invalidate`.
        self.version = 0
        #: ``(version, Batch)`` set by the vectorized engine and carried
        #: forward by writers (:meth:`carry_batch`).  Read with a single
        #: attribute load (the tuple is an atomic snapshot) and published
        #: under ``batch_lock`` so concurrent server queries pivot each
        #: table at most once per version.
        self.batch_cache = None
        #: ``(version, {catalog Index: build})``: the index builds over
        #: these rows (:func:`repro.storage.index.index_for`), published
        #: under ``batch_lock`` like the batch.
        self.index_cache = None
        self.batch_lock = threading.Lock()
        arity = len(schema)
        for row in self.rows:
            if len(row) != arity:
                raise SchemaError(
                    f"row arity {len(row)} does not match schema arity {arity}"
                )

    @classmethod
    def adopt(cls, schema: Schema, rows) -> "Table":
        """A table over ``rows`` as they are — no copy, no check.

        For the engine's own output, owned by the caller from here on: a
        list of tuples of the plan's arity, or a root ``Batch``, whose rows
        :attr:`rows` builds on first read.  Rows from anywhere else go
        through the constructor, which validates them.
        """
        table = cls(schema)
        if isinstance(rows, list):
            table.rows = rows
        else:  # a Batch
            table._rows, table.batch_cache = None, (0, rows)
        return table

    @property
    def rows(self) -> list[Row]:
        if self._rows is None:
            self._rows = self.batch_cache[1].to_rows()
        return self._rows

    @rows.setter
    def rows(self, rows: list[Row]) -> None:
        self._rows = rows

    def head(self, count: int) -> "Table":
        """The first ``count`` rows, still unbuilt if they were."""
        rows = self.batch_cache[1].head(count) if self._rows is None else self._rows[:count]
        return Table.adopt(self.schema, rows)

    def columns(self) -> list:
        """Each column: from the batch if it holds this version (int64 and
        float64 arrays as they are), else the values, from the rows."""
        cached = self.batch_cache
        if cached is None or cached[0] != self.version:
            return list(zip(*self.rows)) or [()] * len(self.schema)
        from repro.storage.batch import column_to_pylist

        columns = map(cached[1].column, range(len(self.schema)))
        return [d if v is None and d.dtype.kind in "if" else column_to_pylist(d, v)
                for d, v in columns]

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.batch_cache[1] if self._rows is None else self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def append(self, row: Sequence) -> None:
        row = tuple(row)
        if len(row) != len(self.schema):
            raise SchemaError(
                f"row arity {len(row)} does not match schema arity {len(self.schema)}"
            )
        self.rows.append(row)
        self.version += 1

    def extend(self, rows: Iterable[Sequence]) -> None:
        for row in rows:
            self.append(row)

    def invalidate(self) -> None:
        """Mark cached derived views stale after an in-place ``rows`` edit."""
        self.version += 1

    def carry_batch(self, base_version: int, derive) -> None:
        """Writer-side upkeep of ``batch_cache`` after a statement.

        A batch cached at ``base_version`` (the version just before the
        statement) is replaced by ``derive(batch)`` at the current
        version.  When ``derive`` returns ``None`` — the change does not
        fit the cached column layout — or the cache holds some other
        past version, it is dropped and the next scan pivots the rows.
        """
        with self.batch_lock:
            cached = self.batch_cache
            if cached is None or cached[0] == self.version:
                return
            batch = derive(cached[1]) if cached[0] == base_version else None
            self.batch_cache = None if batch is None else (self.version, batch)

    # -- bag/set comparisons --------------------------------------------------

    def bag_equals(self, other: "Table | Iterable[Row]") -> bool:
        other_rows = other.rows if isinstance(other, Table) else list(other)
        return Counter(self.rows) == Counter(tuple(r) for r in other_rows)

    # -- statistics -------------------------------------------------------

    def column_values(self, name: str) -> list:
        position = self.schema.position(name)
        return [row[position] for row in self.rows]

    def distinct_count(self, name: str) -> int:
        """Number of distinct non-NULL values in column ``name``."""
        position = self.schema.position(name)
        return len({row[position] for row in self.rows if row[position] is not None})

    def min_max(self, name: str) -> tuple:
        """(min, max) over non-NULL values, or (None, None) if all NULL."""
        values = [v for v in self.column_values(name) if v is not None]
        if not values:
            return (None, None)
        return (min(values), max(values))

    # -- CSV I/O -----------------------------------------------------------

    def to_csv(self, path: str) -> None:
        """Write the table (with a header line) to ``path``."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.schema.names)
            for row in self.rows:
                writer.writerow(["" if v is None else v for v in row])

    @classmethod
    def from_csv(cls, path: str, schema: Schema | None = None, name: str = "") -> "Table":
        """Load a CSV file with a header line (what :meth:`to_csv` writes).

        Values are parsed by the schema's column types — with no schema,
        by the types :func:`infer_type` reads off the data; empty fields
        become NULL.
        """
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            records = list(reader)
        if schema is None:
            if header is None:
                raise SchemaError(f"{path}: empty file")
            schema = Schema(
                [Column(col, infer_type(records, i)) for i, col in enumerate(header)]
            )
        elif header is not None and tuple(header) != schema.names:
            raise SchemaError(f"CSV header {header} does not match schema {list(schema.names)}")
        types = [col.type for col in schema]
        rows = [tuple(t.parse(field) for t, field in zip(types, record)) for record in records]
        return cls(schema, rows, name=name)

    # -- durable payload (snapshot files, create_table log records) ---------

    def to_payload(self, key: str) -> dict:
        """The JSON shape a table has on disk and on the replication wire.

        ``key`` is the catalog name it is registered under — the fallback
        for a table that carries no name of its own.  The key order is
        part of the format: checkpoints and log records are compared
        byte for byte across nodes.
        """
        return {
            "table_name": self.name or key,
            "columns": [[col.name, col.type.value] for col in self.schema],
            "rows": [list(row) for row in self.rows],
        }

    @classmethod
    def from_payload(cls, payload: dict, key: str) -> "Table":
        """Rebuild a table from :meth:`to_payload` output."""
        schema = Schema([Column(col, ColumnType(kind)) for col, kind in payload["columns"]])
        return cls(schema, payload["rows"], name=payload.get("table_name") or key)

    # -- pretty printing -----------------------------------------------------

    def pretty(self, limit: int = 20) -> str:
        """Render the first ``limit`` rows as an aligned text table."""
        names = self.schema.names
        shown = self.rows[:limit]
        cells = [[("NULL" if v is None else str(v)) for v in row] for row in shown]
        widths = [len(n) for n in names]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        out = io.StringIO()
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        out.write(header + "\n")
        out.write("-+-".join("-" * w for w in widths) + "\n")
        for row in cells:
            out.write(" | ".join(c.ljust(w) for c, w in zip(row, widths)) + "\n")
        if len(self.rows) > limit:
            out.write(f"... ({len(self.rows) - limit} more rows)\n")
        return out.getvalue()

    def __repr__(self) -> str:
        label = self.name or "<anonymous>"
        return f"Table({label}, {len(self.rows)} rows, {list(self.schema.names)})"


def infer_type(records: list, position: int) -> ColumnType:
    """The narrowest type holding every non-empty CSV field at
    ``position``: INT, else FLOAT, else STRING (also for no value)."""
    saw_float = False
    saw_value = False
    for record in records:
        field = record[position] if position < len(record) else ""
        if field == "":
            continue
        saw_value = True
        try:
            int(field)
            continue
        except ValueError:
            pass
        try:
            float(field)
            saw_float = True
            continue
        except ValueError:
            return ColumnType.STRING
    if not saw_value:
        return ColumnType.STRING
    return ColumnType.FLOAT if saw_float else ColumnType.INT


def make_table(name: str, columns: Sequence[tuple[str, ColumnType]], rows: Iterable[Row]) -> Table:
    """Convenience constructor used by tests and examples."""
    schema = Schema([Column(col_name, col_type) for col_name, col_type in columns])
    return Table(schema, rows, name=name)
