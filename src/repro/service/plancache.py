"""A normalized, bounded plan cache that re-plans exactly when it must.

Every query pays parse → classify → unnest-rewrite → cost-based planning
before its first row is produced; for the paper's query templates that
derivation dwarfs execution at small-to-mid cardinalities.  The cache
memoises :class:`~repro.optimizer.planner.PlannedQuery` objects keyed on
the **canonicalized AST** (the parser case-folds identifiers and drops
whitespace/comments; a ``?`` template is one entry for all bindings) and
the strategy.  A plan does not depend on the engine: one entry serves both.

A cache serves one :class:`~repro.storage.catalog.Catalog`.  An entry is
fresh (:meth:`PlanCache._fresh`, the one rule) while the catalog stamps
it copied **before planning** — of every table the plan reads, and of
the views — are current, and no table it reads drifted: once a table's
``version`` moved, its row count must stay within ``max(RECOST_MIN_ROWS,
RECOST_FRACTION × planned-time rows)``, so a bulk load re-costs a plan
while single-row DML keeps it warm.  A lookup drops a stale entry
(an invalidation); beyond ``capacity`` the least recently used one goes.
:meth:`PlanCache.info` counts both; the server's ``/metrics``
republishes it.  All operations are thread-safe; a cached plan is
immutable and shared freely across threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass

from repro.algebra import ops as L
from repro.optimizer.planner import PlannedQuery, Strategy, plan_query
from repro.sql.parser import parse
from repro.storage.catalog import VIEWS, Catalog

#: Absolute row-count drift below which a plan is never re-costed.
RECOST_MIN_ROWS = 16

#: Relative drift (fraction of planned-time row count) that triggers
#: re-planning; mirrors the "ANALYZE threshold" intuition of mainstream
#: systems (re-optimise after ~20–25% churn).
RECOST_FRACTION = 0.25


@dataclass(frozen=True)
class CacheInfo:
    """A snapshot of cache effectiveness counters."""

    hits: int
    misses: int
    invalidations: int
    evictions: int
    size: int
    capacity: int
    #: Cumulative count of quarantine events (plans reported failing at
    #: runtime by the self-healing layer).
    quarantined: int = 0
    #: Keys currently blocked from re-caching.
    quarantined_keys: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {**asdict(self), "hit_rate": round(self.hit_rate, 4)}


@dataclass
class _Entry:
    planned: PlannedQuery
    #: The stamps copied before planning: each table read, and the views.
    stamps: dict[str, int | None]
    #: Each table read → (version, row count) after planning.
    sizes: dict[str, tuple[int, int]]


def plan_table_names(plan: L.Operator) -> set[str]:
    """All base tables a plan scans, including nested subquery plans."""
    return {
        node.table_name.lower() for node in plan.iter_dag(nested=True) if isinstance(node, L.Scan)
    }


class PlanCache:
    """LRU cache of one catalog's planned queries, validated on lookup."""

    def __init__(self, catalog: Catalog, capacity: int = 128):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.catalog = catalog
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
        self._evictions = 0
        self._quarantine_events = 0
        #: (key, engine) whose plan failed at runtime → the catalog's
        #: stamps at the report.  Such a key is planned afresh and never
        #: cached until one of those stamps changes (see quarantine).
        self._quarantined: dict[tuple, dict[str, int]] = {}

    # -- the main entry point ----------------------------------------------

    def get_or_plan(
        self, sql: str, strategy: "str | Strategy" = "auto", statement=None, plan=None
    ) -> PlannedQuery:
        """Return a cached plan for ``sql`` or plan-and-insert it.

        The statement is parsed exactly once per call; the resulting AST
        both normalises the key and feeds the planner on a miss.  Callers
        holding the parsed tree already (prepared statements) pass it as
        ``statement`` and skip even the parse.  Callers with non-default
        :class:`~repro.rewrite.UnnestOptions` must plan directly — those
        knobs are not part of the key.  ``plan(strategy)`` plans a miss
        in place of :func:`plan_query`: a flat write's ν + σ read, keyed
        on its lifted statement (:mod:`repro.dml`).
        """
        if statement is None:
            statement = parse(sql)
        key = self._key(statement, strategy)

        with self._lock:
            quarantined = self._quarantines(key)
            entry = self._entries.get(key)
            if entry is not None:
                if self._fresh(entry):
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return entry.planned
                del self._entries[key]
                self._invalidations += 1
            self._misses += 1

        # Plan outside the lock: planning is the expensive step, and two
        # concurrent misses on one key are safe (last insert wins).  The
        # stamps are copied first, so a change that lands while planning
        # runs leaves an entry that is already stale.
        stamps = self.catalog.stamps()
        if plan is None:
            planned = plan_query(sql, self.catalog, strategy, statement=statement)
        else:
            planned = plan(strategy)
        if quarantined:
            # A plan for this key failed at runtime; keep planning fresh
            # per execution but never re-publish it to other callers.
            return planned
        entry = self._entry(planned, stamps)
        with self._lock:
            if self._quarantines(key):  # raced with a quarantine report
                return planned
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
        return planned

    @staticmethod
    def _key(statement, strategy: "str | Strategy") -> tuple:
        strategy_name = strategy if isinstance(strategy, str) else strategy.name
        return (statement, strategy_name.lower())

    # -- quarantine ---------------------------------------------------------

    def quarantine(
        self, sql: str, strategy: "str | Strategy", engine: str, statement=None
    ) -> bool:
        """Report that the cached plan for this key failed on ``engine``.

        The entry is evicted and the key is blocked from re-caching, so a
        poisoned plan cannot keep serving hits while the self-healing
        layer degrades around it.  The report is lifted once any of the
        catalog's stamps changes (DDL or ANALYZE) — the events that
        change what the plan would be.  Returns True if a live entry was
        evicted.
        """
        if statement is None:
            statement = parse(sql)
        key = self._key(statement, strategy)
        with self._lock:
            evicted = self._entries.pop(key, None) is not None
            self._quarantined[key, engine] = self.catalog.stamps()
            self._quarantine_events += 1
            return evicted

    def _quarantines(self, key: tuple) -> bool:
        """Whether ``key`` is quarantined on any engine (under the lock)."""
        self._lift_quarantines()
        return any(reported[0] == key for reported in self._quarantined)

    def _lift_quarantines(self) -> None:
        """Forget the reports the catalog has changed since (under the lock)."""
        if self._quarantined:
            stamps = self.catalog.stamps()
            self._quarantined = {k: at for k, at in self._quarantined.items() if at == stamps}

    # -- introspection ------------------------------------------------------

    def info(self) -> CacheInfo:
        with self._lock:
            self._lift_quarantines()
            return CacheInfo(
                hits=self._hits,
                misses=self._misses,
                invalidations=self._invalidations,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self.capacity,
                quarantined=self._quarantine_events,
                quarantined_keys=len(self._quarantined),
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- internals ----------------------------------------------------------

    def _entry(self, planned: PlannedQuery, stamps: dict[str, int]) -> _Entry:
        names = plan_table_names(planned.logical)
        tables = {name: self.catalog.table(name) for name in names if name in self.catalog}
        return _Entry(
            planned,
            {name: stamps.get(name) for name in (*names, VIEWS)},
            {name: (table.version, len(table)) for name, table in tables.items()},
        )

    def _fresh(self, entry: _Entry) -> bool:
        """The one freshness rule: every stamp the entry copied is still
        current, and no table it reads drifted past the re-cost threshold."""
        catalog = self.catalog
        for name, stamp in entry.stamps.items():
            if stamp is None or catalog.stamp(name) != stamp:
                return False  # dropped, replaced, ANALYZEd, indexed, or view DDL
        for name, (version, rows) in entry.sizes.items():
            table = catalog.table(name)
            if table.version != version and self._drifted(rows, len(table)):
                return False
        return True

    @staticmethod
    def _drifted(planned_rows: int, current_rows: int) -> bool:
        threshold = max(RECOST_MIN_ROWS, RECOST_FRACTION * planned_rows)
        return abs(current_rows - planned_rows) > threshold
