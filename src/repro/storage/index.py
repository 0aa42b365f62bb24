"""Secondary indexes: hash buckets and key-sorted positions.

Two index kinds back the optimizer's access-path selection
(:mod:`repro.optimizer.access`):

* :class:`HashIndex` — value → row-position buckets for equality keys.
  NULL keys are **excluded** from the buckets: under SQL's three-valued
  logic ``col = anything`` is UNKNOWN for a NULL ``col``, so an equality
  probe must never return a NULL-keyed row.
* :class:`SortedIndex` — the non-NULL ``(key, position)`` pairs of an
  orderable column, sorted by key.  A probe bisects once per bound and
  touches only the matching entries; every other row counts as skipped
  (the resource governor charges skipped rows at a discount; see
  ``ExecContext.tick_skipped``).

Indexes are *self-maintaining*: every structure is stamped with the
owning table's ``version`` and rebuilt lazily on first use after a
mutation.  Nothing is rebuilt at DML time; an INSERT folds its appended
tail into the indexes that were current just before it (see
:meth:`Index.note_appends`), DELETE and UPDATE leave them stale.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from typing import NamedTuple

from repro.errors import CatalogError
from repro.storage.table import Table

INDEX_KINDS = ("hash", "sorted")


class IndexLookup(NamedTuple):
    """Result of one index probe.

    ``positions`` are row positions in physical table order (ascending),
    ``rows_examined`` counts candidate rows the probe actually touched,
    ``rows_skipped`` the rows the index pruned without reading.  (A
    NamedTuple, not a dataclass: correlated scans construct one per
    outer row, so creation cost is on the hot path.)
    """

    positions: tuple[int, ...]
    rows_examined: int
    rows_skipped: int


class Index:
    """Base class: version-stamped lazy rebuild against one table column."""

    kind = "abstract"

    def __init__(self, name: str, table: Table, table_name: str, column: str):
        self.name = name
        self.table = table
        self.table_name = table_name
        self.column = column
        self.position = table.schema.position(column)
        self.version = -1
        self._lock = threading.Lock()
        self.refresh()

    # -- maintenance -------------------------------------------------------

    def refresh(self) -> None:
        """Rebuild if the table mutated since the structures were built."""
        if self.version == self.table.version:
            return
        with self._lock:
            if self.version == self.table.version:
                return
            self._rebuild()
            self.version = self.table.version

    def note_appends(self, start: int, base_version: int) -> None:
        """Fold rows appended at positions ``>= start`` into the index.

        The INSERT fast path: the caller guarantees that rows below
        ``start`` are what they were at ``base_version``, the table's
        version just before the appends.  Only an index that was current
        then can take the tail alone; one already stale (an
        out-of-protocol ``table.append``, an earlier DELETE/UPDATE) is
        missing more than the tail, so it is left stale for the next
        probe's :meth:`refresh` to rebuild.
        """
        with self._lock:
            if self.version != base_version:
                return
            self._extend(start)
            self.version = self.table.version

    def _rebuild(self) -> None:
        raise NotImplementedError

    def _extend(self, start: int) -> None:
        self._rebuild()

    # -- probing -----------------------------------------------------------

    def eq_positions(self, value) -> tuple[int, ...]:
        """Row positions whose key equals ``value`` (never NULL-keyed)."""
        raise NotImplementedError

    # -- introspection -----------------------------------------------------

    def info(self) -> dict:
        self.refresh()
        return {
            "name": self.name,
            "table": self.table_name,
            "column": self.column,
            "kind": self.kind,
            "entries": self._entry_count(),
            "rows": len(self.table.rows),
        }

    def _entry_count(self) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r} on "
            f"{self.table_name}.{self.column})"
        )


class HashIndex(Index):
    """Equality index: value → tuple of row positions, NULLs excluded."""

    kind = "hash"

    def _rebuild(self) -> None:
        position = self.position
        buckets: dict[object, list[int]] = {}
        for row_pos, row in enumerate(self.table.rows):
            value = row[position]
            if value is None:
                continue
            buckets.setdefault(value, []).append(row_pos)
        self.buckets = buckets

    def _extend(self, start: int) -> None:
        position = self.position
        buckets = self.buckets
        rows = self.table.rows
        for row_pos in range(start, len(rows)):
            value = rows[row_pos][position]
            if value is None:
                continue
            buckets.setdefault(value, []).append(row_pos)

    def eq_positions(self, value) -> tuple[int, ...]:
        if value is None:
            return ()
        try:
            bucket = self.buckets.get(value)
        except TypeError:  # unhashable probe value never matches
            return ()
        return tuple(bucket) if bucket else ()

    def _entry_count(self) -> int:
        return len(self.buckets)


class SortedIndex(Index):
    """Range index: non-NULL keys in sorted order beside their positions.

    ``_entries`` is one ``(keys, positions, ordered)`` triple — two
    parallel lists and a flag — replaced as a whole, so a concurrent
    reader never sees its parts disagree.  Equal keys keep ascending
    physical positions (the sort is stable, and appended positions are
    the largest).  Keys without a shared total order leave the index
    *unordered*, its pairs in physical order: that still serves equality
    (``==`` is total) but no range.
    """

    kind = "sorted"

    def _rebuild(self) -> None:
        rows = self.table.rows
        column = self.position
        positions = [pos for pos, row in enumerate(rows) if row[column] is not None]
        ordered = True
        try:
            positions = sorted(positions, key=lambda pos: rows[pos][column])
        except TypeError:
            ordered = False
        self._entries = ([rows[pos][column] for pos in positions], positions, ordered)

    def _extend(self, start: int) -> None:
        rows = self.table.rows
        column = self.position
        keys, positions, ordered = self._entries
        tail = range(start, len(rows))
        if not ordered or len(tail) > len(keys):
            return self._rebuild()
        keys, positions = list(keys), list(positions)
        for pos in tail:
            key = rows[pos][column]
            if key is None:
                continue
            try:
                at = bisect_right(keys, key)
            except TypeError:  # the new key broke the total order
                return self._rebuild()
            keys.insert(at, key)
            positions.insert(at, pos)
        self._entries = (keys, positions, True)

    def range_positions(
        self, lo, lo_inclusive: bool, hi, hi_inclusive: bool
    ) -> IndexLookup:
        """Positions of rows with ``lo <(=) key <(=) hi``; None = unbounded.

        A bound the keys cannot be ordered against raises ``TypeError``
        out of the bisection, exactly as the comparison would in a scan.
        """
        keys, positions, ordered = self._entries
        if not ordered:
            raise TypeError(
                f"keys of {self.table_name}.{self.column} share no total "
                f"order; index {self.name!r} cannot serve a range"
            )
        start = 0
        if lo is not None:
            start = (bisect_left if lo_inclusive else bisect_right)(keys, lo)
        stop = len(keys)
        if hi is not None:
            stop = (bisect_right if hi_inclusive else bisect_left)(keys, hi)
        hits = sorted(positions[start:stop])  # back to physical order
        return IndexLookup(tuple(hits), len(hits), len(self.table.rows) - len(hits))

    def eq_positions(self, value) -> tuple[int, ...]:
        if value is None:
            return ()
        keys, positions, ordered = self._entries
        if ordered:
            try:
                start = bisect_left(keys, value)
                return tuple(positions[start:bisect_right(keys, value, start)])
            except TypeError:
                pass  # unorderable probe value: only ``==`` can decide
        return tuple(pos for key, pos in zip(keys, positions) if key == value)

    def _entry_count(self) -> int:
        return len(self._entries[0])


def make_index(name: str, table: Table, table_name: str, column: str, kind: str) -> Index:
    """Construct an index of ``kind`` (``hash`` or ``sorted``)."""
    if kind == "hash":
        return HashIndex(name, table, table_name, column)
    if kind == "sorted":
        return SortedIndex(name, table, table_name, column)
    raise CatalogError(
        f"unknown index kind {kind!r}; supported kinds: {', '.join(INDEX_KINDS)}"
    )


def probe_bounds(index: Index, bounds: tuple) -> IndexLookup:
    """Evaluate one index probe; shared by the row and vectorized engines.

    ``bounds`` is ``(op, value)`` pairs: one ``=``, or one or two of
    ``<``, ``<=``, ``>``, ``>=`` (a two-sided range with per-side
    inclusiveness).  A NULL probe value makes the comparison UNKNOWN for
    every row, so the result is empty and the whole table counts as
    skipped.
    """
    total = len(index.table.rows)
    if len(bounds) == 1 and bounds[0][0] == "=":
        # Correlated equality probes hit this once per outer row.
        # eq_positions already maps a NULL (or unhashable) key to ().
        positions = index.eq_positions(bounds[0][1])
        return IndexLookup(positions, len(positions), total - len(positions))
    if not isinstance(index, SortedIndex):
        raise CatalogError(f"index {index.name!r} ({index.kind}) cannot serve ranges")
    lo = hi = None
    lo_inclusive = hi_inclusive = True
    for op, value in bounds:
        if value is None:
            return IndexLookup((), 0, total)
        if op == ">":
            lo, lo_inclusive = value, False
        elif op == ">=":
            lo, lo_inclusive = value, True
        elif op == "<":
            hi, hi_inclusive = value, False
        elif op == "<=":
            hi, hi_inclusive = value, True
        else:
            raise CatalogError(f"operator {op!r} cannot appear in a range probe")
    return index.range_positions(lo, lo_inclusive, hi, hi_inclusive)
