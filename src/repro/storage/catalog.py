"""The catalog: named tables plus optimizer statistics.

Statistics are deliberately simple (row count, per-column distinct counts,
NULL counts, min/max and an equi-width histogram) — enough for the
selectivity formulas in :mod:`repro.optimizer.cardinality`.

They are kept current at the cost of what a statement changes.  A
:class:`TableStats` holds, per column, the multiset of its values
(value → count) and its NULL count; :mod:`repro.dml` hands
:meth:`Catalog.apply_delta` the rows each statement added and removed,
which moves only those counts.  The figures the optimizer reads are
derived one column at a time (:meth:`TableStats.column`), under the lock
a delta takes, the first time a planner asks after a change, and cached
until the next one: a point write pays for the columns its predicate
names.  They are a pure function of the table's contents: a store
recovered from its log, loaded from a snapshot or fed by replication
reports what the primary does.

:meth:`Catalog.register`, :meth:`Catalog.replace` and
:meth:`Catalog.analyze` (re)build the multisets from the rows — the one
full computation, :meth:`TableStats.compute` — and are what an
out-of-protocol ``table.append`` needs before the planner sees it.

The catalog also owns the views, and *stamps* every change a plan can
depend on: a table's stamp is renewed when it is registered, replaced or
ANALYZEd or gains or loses an index, the views' by view DDL — each after
the change is visible, so stamps copied before a look are never newer
than what it saw (:mod:`repro.service.plancache`).
"""

from __future__ import annotations

import itertools
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.errors import CatalogError
from repro.storage.index import Index, make_index
from repro.storage.table import Table

#: The key :meth:`Catalog.stamps` files the views' stamp under: no table
#: can be registered without a name.
VIEWS = ""


@dataclass
class Histogram:
    """An equi-width histogram over a numeric column.

    ``edges`` has ``len(counts) + 1`` entries; bucket ``i`` covers
    ``[edges[i], edges[i+1])`` (the last bucket is right-closed).
    """

    edges: list[float] = field(default_factory=list)
    counts: list[int] = field(default_factory=list)

    @classmethod
    def build(cls, values: list, buckets: int = 20) -> "Histogram | None":
        return cls.from_counts(Counter(values), buckets)

    @classmethod
    def from_counts(cls, counts: Mapping, buckets: int = 20) -> "Histogram | None":
        """The histogram of a value → multiplicity mapping.

        Values equal under ``==`` are one entry of such a mapping, so a
        column mixing ``1``, ``1.0`` and ``True`` is binned by whichever
        of them the mapping holds as the key.
        """
        numeric = {
            v: n
            for v, n in counts.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }
        total = sum(numeric.values())
        if total < 2:
            return None
        low, high = min(numeric), max(numeric)
        if high <= low:
            return None
        buckets = min(buckets, max(total // 2, 1))
        width = (high - low) / buckets
        bins = [0] * buckets
        for v, n in numeric.items():
            bins[min(int((v - low) / width), buckets - 1)] += n
        edges = [low + i * width for i in range(buckets)] + [float(high)]
        return cls(edges, bins)

    @property
    def total(self) -> int:
        return sum(self.counts)

    def fraction_below(self, value: float) -> float:
        """Estimated fraction of values strictly below ``value``.

        Interpolates linearly inside the containing bucket.
        """
        if not self.counts or self.total == 0:
            return 0.5
        if value <= self.edges[0]:
            return 0.0
        if value >= self.edges[-1]:
            return 1.0
        below = 0.0
        for index, count in enumerate(self.counts):
            low, high = self.edges[index], self.edges[index + 1]
            if value >= high:
                below += count
                continue
            if value > low:
                below += count * (value - low) / (high - low)
            break
        return below / self.total


@dataclass
class ColumnStats:
    """Statistics for a single column."""

    distinct: int = 0
    min_value: object = None
    max_value: object = None
    null_count: int = 0
    histogram: "Histogram | None" = None


class _ColumnCounts:
    """One column's contents as a multiset: value → count, NULLs apart."""

    __slots__ = ("counts", "nulls")

    def __init__(self, values: Iterable = ()):
        self.counts: Counter = Counter()
        self.nulls = 0
        self.add(values)

    def add(self, values: Iterable) -> None:
        fresh = Counter(values)
        self.nulls += fresh.pop(None, 0)
        self.counts.update(fresh)

    def remove(self, values: Iterable) -> None:
        gone = Counter(values)
        self.nulls -= gone.pop(None, 0)
        counts = self.counts
        for value, n in gone.items():
            left = counts[value] - n
            if left:
                counts[value] = left
            else:
                del counts[value]

    def summary(self, histogram_buckets: int) -> ColumnStats:
        counts = self.counts
        try:
            low, high = (min(counts), max(counts)) if counts else (None, None)
        except TypeError:
            # Values without a shared order (a string in an int column):
            # no range to estimate from, the other figures still hold.
            low = high = None
        return ColumnStats(
            distinct=len(counts),
            min_value=low,
            max_value=high,
            null_count=self.nulls,
            histogram=Histogram.from_counts(counts, histogram_buckets),
        )


class _ColumnsView(Mapping):
    """:attr:`TableStats.columns`: name → :class:`ColumnStats`, each
    derived by :meth:`TableStats.column` when it is asked for."""

    def __init__(self, stats: "TableStats"):
        self._stats = stats

    def __getitem__(self, name: str) -> ColumnStats:
        return self._stats.column(name)

    def __iter__(self) -> Iterator[str]:
        return iter(self._stats._counts)

    def __len__(self) -> int:
        return len(self._stats._counts)


class TableStats:
    """Statistics for one table.

    ``row_count`` and the per-column multisets are the state; a column's
    :class:`ColumnStats` is derived from its multiset alone, by
    :meth:`column`, the first time it is asked for after a change.  A
    table registered with ``analyze=False`` tracks only its row count
    and has no columns.

    Planner threads read while a writer applies a delta, so both the
    derivation and :meth:`apply_delta` hold the object's lock; the
    ``ColumnStats`` handed out are never mutated afterwards.
    """

    def __init__(self, row_count: int = 0, histogram_buckets: int = 20):
        self.row_count = row_count
        self._histogram_buckets = histogram_buckets
        self._counts: dict[str, _ColumnCounts] = {}
        #: What :meth:`column` derived at this version of the table.
        self._derived: dict[str, ColumnStats] = {}
        self._lock = threading.Lock()

    @classmethod
    def compute(cls, table: Table, histogram_buckets: int = 20) -> "TableStats":
        stats = cls(len(table), histogram_buckets)
        columns = zip(*table.rows) if table.rows else [()] * len(table.schema)
        for column, values in zip(table.schema, columns):
            stats._counts[column.name] = _ColumnCounts(values)
        return stats

    def column(self, name: str) -> ColumnStats:
        """The figures of one column (``KeyError``: not a tracked one)."""
        derived = self._derived.get(name)
        if derived is None:
            with self._lock:
                # Read again under the lock: a delta swaps the cache.
                derived = self._derived.get(name)
                if derived is None:
                    derived = self._counts[name].summary(self._histogram_buckets)
                    self._derived[name] = derived
        return derived

    @property
    def columns(self) -> Mapping[str, ColumnStats]:
        return _ColumnsView(self)

    def apply_delta(self, added: list, removed: list) -> None:
        """Account for rows that entered and left the table."""
        with self._lock:
            self.row_count += len(added) - len(removed)
            for position, counts in enumerate(self._counts.values()):
                counts.remove(row[position] for row in removed)
                counts.add(row[position] for row in added)
            self._derived = {}  # swapped, not cleared: the old version's stay whole

    def __eq__(self, other) -> bool:
        if not isinstance(other, TableStats):
            return NotImplemented
        return self.row_count == other.row_count and self.columns == other.columns

    def __repr__(self) -> str:
        return f"TableStats(row_count={self.row_count}, columns={dict(self.columns)})"


class Catalog:
    """A named collection of tables, their indexes, and views.

    Table names are case-insensitive (folded to lower case), matching the
    SQL front-end's identifier folding.
    """

    def __init__(self):
        self._tables: dict[str, Table] = {}
        self._stats: dict[str, TableStats] = {}
        self._indexes: dict[str, Index] = {}
        #: View name → parsed definition, and → its SQL text.
        self._views: dict[str, object] = {}
        self._view_sql: dict[str, str] = {}
        self._clock = itertools.count(1)  # a renewed stamp equals no earlier one
        self._stamps: dict[str, int] = {VIEWS: next(self._clock)}

    def register(self, table: Table, name: str | None = None, analyze: bool = True) -> None:
        """Add ``table`` under ``name`` (default: the table's own name)."""
        key = (name or table.name).lower()
        if not key:
            raise CatalogError("cannot register a table without a name")
        if key in self._tables:
            raise CatalogError(f"table {key!r} is already registered")
        self._tables[key] = table
        self._stats[key] = TableStats.compute(table) if analyze else TableStats(len(table))
        self._renew(key)

    def replace(self, table: Table, name: str | None = None) -> None:
        """Register ``table``, overwriting any existing entry."""
        key = (name or table.name).lower()
        if not key:
            raise CatalogError("cannot register a table without a name")
        stats = TableStats.compute(table)
        # Replacement has drop-and-create semantics: indexes describe the
        # old table object's rows, so they go with it.  Purge them *before*
        # swapping so a concurrent planner can never pair the new table
        # with an index over the old rows, and swap in place (rather than
        # pop + register) so the name never transiently disappears for
        # readers racing this DDL.
        self._purge_indexes(key)
        self._tables[key] = table
        self._stats[key] = stats
        self._renew(key)

    def drop(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"unknown table {name!r}")
        del self._tables[key]
        del self._stats[key]
        self._purge_indexes(key)
        del self._stamps[key]

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(
                f"unknown table {name!r}; catalog has {sorted(self._tables)}"
            ) from None

    def stats(self, name: str) -> TableStats:
        try:
            return self._stats[name.lower()]
        except KeyError:
            raise CatalogError(f"no statistics for table {name!r}") from None

    def analyze(self, name: str | None = None) -> None:
        """Recompute statistics for one table, or for all tables."""
        names = [name.lower()] if name else list(self._tables)
        for key in names:
            self._stats[key] = TableStats.compute(self.table(key))
            self._renew(key)

    def apply_delta(self, name: str, added: list, removed: list) -> None:
        """Move ``name``'s statistics by the rows a statement added and
        removed (what :mod:`repro.dml` calls instead of :meth:`analyze`)."""
        self.stats(name).apply_delta(added, removed)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._tables

    def __iter__(self) -> Iterator[str]:
        return iter(self._tables)

    def __len__(self) -> int:
        return len(self._tables)

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    # -- stamps ---------------------------------------------------------------

    def stamp(self, name: str) -> int | None:
        """The stamp of table ``name`` (None: none such), or the views' for :data:`VIEWS`."""
        return self._stamps.get(name.lower())

    def stamps(self) -> dict[str, int]:
        """A copy of every stamp, the views' under :data:`VIEWS`."""
        return dict(self._stamps)

    def _renew(self, key: str) -> None:
        self._stamps[key] = next(self._clock)

    # -- views ------------------------------------------------------------------

    @property
    def views(self) -> Mapping[str, object]:
        """View name → parsed definition: what a FROM-list reference inlines."""
        return self._views

    def create_view(self, name: str, sql: str, statement) -> None:
        """Register ``statement``, parsed from ``sql``, as a checked view."""
        key = name.lower()
        self._views[key] = statement
        self._view_sql[key] = sql
        self._renew(VIEWS)

    def drop_view(self, name: str) -> None:
        key = name.lower()
        if key not in self._views:
            raise CatalogError(f"unknown view {name!r}")
        del self._views[key]
        del self._view_sql[key]
        self._renew(VIEWS)

    def view_definitions(self) -> list[tuple[str, str]]:
        """``(name, sql)`` of every view, in creation order."""
        return list(self._view_sql.items())

    # -- secondary indexes -------------------------------------------------

    def create_index(
        self, name: str, table_name: str, column: str, kind: str = "hash"
    ) -> Index:
        """Create and register an index; builds it immediately.

        Column names are matched case-insensitively against the table's
        schema (the SQL front-end folds identifiers to lower case while
        stored schemas may use their original spelling).
        """
        key = name.lower()
        if not key:
            raise CatalogError("cannot create an index without a name")
        if key in self._indexes:
            raise CatalogError(f"index {key!r} already exists")
        table_key = table_name.lower()
        table = self.table(table_key)
        by_folded = {column_name.lower(): column_name for column_name in table.schema.names}
        resolved = by_folded.get(column.lower())
        if resolved is None:
            raise CatalogError(
                f"table {table_key!r} has no column {column!r}; "
                f"columns are {list(table.schema.names)}"
            )
        index = make_index(key, table, table_key, resolved, kind)
        self._indexes[key] = index
        self._renew(table_key)
        return index

    def drop_index(self, name: str) -> Index:
        key = name.lower()
        if key not in self._indexes:
            raise CatalogError(f"unknown index {name!r}")
        index = self._indexes.pop(key)
        self._renew(index.table_name)
        return index

    def index(self, name: str) -> Index:
        try:
            return self._indexes[name.lower()]
        except KeyError:
            raise CatalogError(
                f"unknown index {name!r}; catalog has {sorted(self._indexes)}"
            ) from None

    def indexes_on(self, table_name: str) -> list[Index]:
        key = table_name.lower()
        return [index for index in self._indexes.values() if index.table_name == key]

    def index_names(self) -> list[str]:
        return sorted(self._indexes)

    def index_info(self) -> list[dict]:
        return [self._indexes[key].info() for key in sorted(self._indexes)]

    def _purge_indexes(self, table_key: str) -> None:
        stale = [key for key, index in self._indexes.items() if index.table_name == table_key]
        for key in stale:
            del self._indexes[key]
