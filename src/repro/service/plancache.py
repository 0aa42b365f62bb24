"""A normalized, bounded, invalidating plan cache.

Every query pays parse → classify → unnest-rewrite → cost-based planning
before its first row is produced; for the paper's query templates that
derivation dwarfs execution at small-to-mid cardinalities.  The cache
memoises :class:`~repro.optimizer.planner.PlannedQuery` objects keyed on
the **canonicalized AST** — the parser already case-folds identifiers and
discards whitespace/comments, so two spellings of one query share an
entry, and a parameterized template (``A1 = ?``) shares one entry across
all bindings — together with the strategy, the execution engine, and a
caller-supplied token for anything else the plan depends on (views).

Entries are LRU-evicted beyond ``capacity`` and invalidated lazily on
lookup:

* **DDL** — a dependency table was dropped or replaced (object identity
  changed);
* **statistics drift** — the table's :attr:`~repro.storage.table.Table.
  version` moved *and* its row count drifted past the re-cost threshold
  (``max(RECOST_MIN_ROWS, RECOST_FRACTION × planned-time rows)``), so a
  plan picked when a table was tiny is re-costed after a bulk load while
  single-row DML keeps the entry warm;
* **explicit** — :meth:`PlanCache.invalidate_table` / :meth:`clear`
  (wired to ``Database.analyze`` and view DDL).

Hit/miss/invalidation/eviction counters are exposed via :meth:`info`;
the server's ``/metrics`` republishes them.  All operations are
thread-safe; a cached plan itself is immutable after planning and shared
freely across threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.algebra import ops as L
from repro.optimizer.planner import PlannedQuery, Strategy, plan_query
from repro.sql.parser import parse
from repro.storage.catalog import Catalog

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
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "quarantined": self.quarantined,
            "quarantined_keys": self.quarantined_keys,
            "size": self.size,
            "capacity": self.capacity,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class _Dependency:
    """What an entry assumed about one base table at planning time."""

    table_id: int
    version: int
    row_count: int


@dataclass
class _Entry:
    planned: PlannedQuery
    deps: dict[str, _Dependency]


def plan_table_names(plan: L.Operator) -> set[str]:
    """All base tables a plan scans, including nested subquery plans."""
    return {
        node.table_name.lower() for node in plan.iter_dag(nested=True) if isinstance(node, L.Scan)
    }


class PlanCache:
    """LRU cache of planned queries with lazy staleness validation."""

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
        self._evictions = 0
        self._quarantine_events = 0
        #: Keys whose cached plans failed at runtime; blocked from
        #: re-caching until DDL/analyze re-admits them (see quarantine).
        self._quarantined: set[tuple] = set()

    # -- the main entry point ----------------------------------------------

    def get_or_plan(
        self,
        sql: str,
        catalog: Catalog,
        strategy: "str | Strategy" = "auto",
        engine: str = "row",
        views: dict | None = None,
        extra_token: object = None,
        statement=None,
    ) -> PlannedQuery:
        """Return a cached plan for ``sql`` or plan-and-insert it.

        The statement is parsed exactly once per call; the resulting AST
        both normalises the key and feeds the planner on a miss.  Callers
        holding the parsed tree already (prepared statements) pass it as
        ``statement`` and skip even the parse.  Callers with non-default
        :class:`~repro.rewrite.UnnestOptions` must plan directly — those
        knobs are not part of the key.
        """
        if statement is None:
            statement = parse(sql)
        key = self._key(statement, strategy, engine, extra_token)

        with self._lock:
            quarantined = key in self._quarantined
            entry = self._entries.get(key)
            if entry is not None:
                if self._fresh(entry, catalog):
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return entry.planned
                del self._entries[key]
                self._invalidations += 1
            self._misses += 1

        # Plan outside the lock: planning is the expensive step, and two
        # concurrent misses on one key are safe (last insert wins).
        planned = plan_query(sql, catalog, strategy, None, views, statement=statement)
        if quarantined:
            # A plan for this key failed at runtime; keep planning fresh
            # per execution but never re-publish it to other callers.
            return planned
        entry = _Entry(planned, self._capture_deps(planned, catalog))
        with self._lock:
            if key in self._quarantined:  # raced with a quarantine report
                return planned
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
        return planned

    @staticmethod
    def _key(statement, strategy: "str | Strategy", engine: str, extra_token) -> tuple:
        strategy_name = strategy if isinstance(strategy, str) else strategy.name
        return (statement, strategy_name.lower(), engine, extra_token)

    # -- quarantine ---------------------------------------------------------

    def quarantine(
        self,
        sql: str,
        strategy: "str | Strategy" = "auto",
        engine: str = "row",
        extra_token: object = None,
        statement=None,
    ) -> bool:
        """Report that the cached plan for this key failed at runtime.

        The entry is evicted and the key is blocked from re-caching, so a
        poisoned plan cannot keep serving hits while the self-healing
        layer degrades around it.  Quarantined keys are re-admitted by
        DDL/analyze (:meth:`invalidate_table` / :meth:`clear`) — the
        events that change what the plan would be.  Returns True if a
        live entry was evicted.
        """
        if statement is None:
            statement = parse(sql)
        key = self._key(statement, strategy, engine, extra_token)
        with self._lock:
            evicted = self._entries.pop(key, None) is not None
            self._quarantined.add(key)
            self._quarantine_events += 1
            return evicted

    # -- invalidation -------------------------------------------------------

    def invalidate_table(self, name: str) -> int:
        """Drop every entry depending on ``name``; returns the count.

        Also re-admits all quarantined keys: invalidation means the
        world the failing plan was built for no longer exists.
        """
        key_name = name.lower()
        with self._lock:
            stale = [
                key
                for key, entry in self._entries.items()
                if key_name in entry.deps
            ]
            for key in stale:
                del self._entries[key]
            self._invalidations += len(stale)
            self._quarantined.clear()
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._invalidations += len(self._entries)
            self._entries.clear()
            self._quarantined.clear()

    # -- introspection ------------------------------------------------------

    def info(self) -> CacheInfo:
        with self._lock:
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

    def _capture_deps(
        self, planned: PlannedQuery, catalog: Catalog
    ) -> dict[str, _Dependency]:
        deps: dict[str, _Dependency] = {}
        for name in plan_table_names(planned.logical):
            if name in catalog:
                table = catalog.table(name)
                deps[name] = _Dependency(id(table), table.version, len(table))
        return deps

    def _fresh(self, entry: _Entry, catalog: Catalog) -> bool:
        for name, dep in entry.deps.items():
            if name not in catalog:
                return False
            table = catalog.table(name)
            if id(table) != dep.table_id:
                return False  # DDL: dropped and re-created
            if table.version != dep.version and self._drifted(
                dep.row_count, len(table)
            ):
                return False
        return True

    @staticmethod
    def _drifted(planned_rows: int, current_rows: int) -> bool:
        threshold = max(RECOST_MIN_ROWS, RECOST_FRACTION * planned_rows)
        return abs(current_rows - planned_rows) > threshold
