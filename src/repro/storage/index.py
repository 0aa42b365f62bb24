"""Secondary indexes: hash buckets and zone-mapped sorted access paths.

Two index kinds back the optimizer's access-path selection
(:mod:`repro.optimizer.access`):

* :class:`HashIndex` — value → row-position buckets for equality keys.
  NULL keys are **excluded** from the buckets: under SQL's three-valued
  logic ``col = anything`` is UNKNOWN for a NULL ``col``, so an equality
  probe must never return a NULL-keyed row.
* :class:`SortedIndex` — per-block zone maps (min/max over fixed-size
  runs of the physical row order) for orderable columns.  A range probe
  skips every block whose ``[min, max]`` envelope cannot intersect the
  requested interval and scans only the survivors, reporting how many
  blocks and rows it never touched (the resource governor charges
  skipped rows at a discount; see ``ExecContext.tick_skipped``).

Indexes are *self-maintaining*: every structure is stamped with the
owning table's ``version`` and rebuilt lazily on first use after a
mutation.  Nothing is rebuilt at DML time; an INSERT folds its appended
tail into the indexes that were current just before it (see
:meth:`Index.note_appends`), DELETE and UPDATE leave them stale.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import CatalogError
from repro.storage.table import Table

#: Rows per zone-map block.  Small enough that selective ranges skip
#: most of a mid-size table, large enough that the per-block min/max
#: bookkeeping stays negligible next to the row data.
ZONE_BLOCK_ROWS = 256

INDEX_KINDS = ("hash", "sorted")


class IndexLookup(NamedTuple):
    """Result of one index probe.

    ``positions`` are row positions in physical table order (ascending),
    ``rows_examined`` counts candidate rows the probe actually touched,
    ``blocks_skipped`` / ``rows_skipped`` count what the index pruned
    without reading.  (A NamedTuple, not a dataclass: correlated scans
    construct one per outer row, so creation cost is on the hot path.)
    """

    positions: tuple[int, ...]
    rows_examined: int
    blocks_skipped: int
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


class _Incomparable:
    """Envelope marker for blocks whose keys share no total order.

    Such blocks can never be pruned; their rows are compared one by one
    at probe time (where a genuine mixed-type range comparison raises,
    exactly as it would in a full scan).
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<incomparable>"


_INCOMPARABLE = _Incomparable()


@dataclass
class _Zone:
    """Min/max envelope over one block of physical row positions."""

    start: int
    stop: int
    min_value: object
    max_value: object


class SortedIndex(Index):
    """Zone-mapped index: per-block min/max over the physical row order.

    Range and equality probes first prune whole blocks through the
    envelopes, then scan only the surviving blocks row by row.  Rows
    with NULL keys live in no envelope's value range and are skipped
    during the block scan — a NULL never satisfies a comparison.
    """

    kind = "sorted"

    def _rebuild(self) -> None:
        self.zones = [
            self._build_zone(start)
            for start in range(0, len(self.table.rows), ZONE_BLOCK_ROWS)
        ]

    def _extend(self, start: int) -> None:
        # Blocks are fixed multiples of ZONE_BLOCK_ROWS, so appending only
        # dirties the block containing ``start`` and everything after it.
        first_dirty = start // ZONE_BLOCK_ROWS
        del self.zones[first_dirty:]
        for block_start in range(
            first_dirty * ZONE_BLOCK_ROWS, len(self.table.rows), ZONE_BLOCK_ROWS
        ):
            self.zones.append(self._build_zone(block_start))

    def _build_zone(self, start: int) -> _Zone:
        rows = self.table.rows
        position = self.position
        stop = min(start + ZONE_BLOCK_ROWS, len(rows))
        lo = hi = None
        try:
            for row_pos in range(start, stop):
                value = rows[row_pos][position]
                if value is None:
                    continue
                if lo is None:
                    lo = hi = value
                else:
                    if value < lo:
                        lo = value
                    if value > hi:
                        hi = value
        except TypeError:
            # Keys without a shared total order: the block gets an
            # unprunable envelope instead of failing index creation.
            return _Zone(start, stop, _INCOMPARABLE, _INCOMPARABLE)
        return _Zone(start, stop, lo, hi)

    def range_positions(
        self, lo, lo_inclusive: bool, hi, hi_inclusive: bool
    ) -> IndexLookup:
        """Positions of rows with ``lo <(=) key <(=) hi``; None = unbounded."""
        rows = self.table.rows
        position = self.position
        positions: list[int] = []
        blocks_skipped = 0
        rows_examined = 0
        # An equality probe arrives as the degenerate range [v, v]; its
        # row check must use only ``==`` (total, never raises) so mixed
        # type columns behave exactly like a full scan would.
        is_point = (
            lo is not None and hi is not None
            and lo_inclusive and hi_inclusive and lo == hi
        )
        for zone in self.zones:
            if zone.min_value is None or self._zone_disjoint(zone, lo, hi):
                # All-NULL block, or envelope outside the interval.
                blocks_skipped += 1
                continue
            rows_examined += zone.stop - zone.start
            for row_pos in range(zone.start, zone.stop):
                value = rows[row_pos][position]
                if value is None:
                    continue
                try:
                    if lo is not None:
                        if value < lo or (not lo_inclusive and value == lo):
                            continue
                    if hi is not None:
                        if value > hi or (not hi_inclusive and value == hi):
                            continue
                except TypeError:
                    if is_point:
                        if value == lo:
                            positions.append(row_pos)
                        continue
                    raise  # a mixed-type *range* errors like a full scan
                positions.append(row_pos)
        return IndexLookup(
            tuple(positions),
            rows_examined,
            blocks_skipped,
            len(rows) - rows_examined,
        )

    @staticmethod
    def _zone_disjoint(zone: _Zone, lo, hi) -> bool:
        if zone.min_value is _INCOMPARABLE:
            return False  # unprunable mixed-type block
        try:
            if lo is not None and zone.max_value < lo:
                return True
            if hi is not None and zone.min_value > hi:
                return True
        except TypeError:
            # Envelope incomparable with the probe value: cannot prune,
            # scan the block (per-row checks decide, or raise, there).
            return False
        return False

    def eq_positions(self, value) -> tuple[int, ...]:
        if value is None:
            return ()
        return self.range_positions(value, True, value, True).positions

    def _entry_count(self) -> int:
        return len(self.zones)


def make_index(name: str, table: Table, table_name: str, column: str, kind: str) -> Index:
    """Construct an index of ``kind`` (``hash`` or ``sorted``)."""
    if kind == "hash":
        return HashIndex(name, table, table_name, column)
    if kind == "sorted":
        return SortedIndex(name, table, table_name, column)
    raise CatalogError(
        f"unknown index kind {kind!r}; supported kinds: {', '.join(INDEX_KINDS)}"
    )


def probe(index: Index, op: str, values: tuple) -> IndexLookup:
    """Evaluate one index probe; shared by the row and vectorized engines.

    ``op`` is ``=``, ``<``, ``<=``, ``>``, ``>=`` or ``between`` (with
    ``values = (lo, hi)``, both inclusive).  A NULL probe value makes the
    comparison UNKNOWN for every row, so the result is empty and the
    whole table counts as skipped.
    """
    total = len(index.table.rows)
    if any(value is None for value in values):
        blocks = len(getattr(index, "zones", ()))
        return IndexLookup((), 0, blocks, total)
    if op == "=":
        if isinstance(index, HashIndex):
            positions = index.eq_positions(values[0])
            return IndexLookup(positions, len(positions), 0, total - len(positions))
        return index.range_positions(values[0], True, values[0], True)
    if not isinstance(index, SortedIndex):
        raise CatalogError(
            f"index {index.name!r} ({index.kind}) does not support {op!r} probes"
        )
    if op == "between":
        return index.range_positions(values[0], True, values[1], True)
    if op == "<":
        return index.range_positions(None, True, values[0], False)
    if op == "<=":
        return index.range_positions(None, True, values[0], True)
    if op == ">":
        return index.range_positions(values[0], False, None, True)
    if op == ">=":
        return index.range_positions(values[0], True, None, True)
    raise CatalogError(f"unknown index probe operator {op!r}")


def probe_bounds(index: Index, bounds: tuple) -> IndexLookup:
    """Probe with a compound key predicate: ``bounds`` is ``(op, value)``
    pairs (one for equality / single-sided ranges, two for a two-sided
    range with per-side inclusiveness).  This is the entry point both
    engines use; :func:`probe` is the single-operator primitive.
    """
    if len(bounds) == 1 and bounds[0][0] == "=" and type(index) is HashIndex:
        # Hot path: correlated equality probes hit this once per outer
        # row, so skip the generic bound normalisation entirely.
        # eq_positions already maps a NULL (or unhashable) key to ().
        positions = index.eq_positions(bounds[0][1])
        total = len(index.table.rows)
        return IndexLookup(positions, len(positions), 0, total - len(positions))
    total = len(index.table.rows)
    if any(value is None for _, value in bounds):
        blocks = len(getattr(index, "zones", ()))
        return IndexLookup((), 0, blocks, total)
    if len(bounds) == 1:
        return probe(index, bounds[0][0], (bounds[0][1],))
    lo = hi = None
    lo_inclusive = hi_inclusive = True
    for op, value in bounds:
        if op == ">":
            lo, lo_inclusive = value, False
        elif op == ">=":
            lo, lo_inclusive = value, True
        elif op == "<":
            hi, hi_inclusive = value, False
        elif op == "<=":
            hi, hi_inclusive = value, True
        else:
            raise CatalogError(f"operator {op!r} cannot appear in a compound range")
    if not isinstance(index, SortedIndex):
        raise CatalogError(f"index {index.name!r} ({index.kind}) cannot serve ranges")
    return index.range_positions(lo, lo_inclusive, hi, hi_inclusive)
