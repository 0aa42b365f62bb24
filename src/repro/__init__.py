"""repro — unnesting scalar SQL queries in the presence of disjunction.

A from-scratch reproduction of Brantner, May & Moerkotte (ICDE 2007):
a relational query processor whose algebra includes bypass operators,
plus the paper's unnesting equivalences for nested queries whose linking
or correlation predicates occur disjunctively.

Quickstart::

    from repro import Database

    db = Database()
    db.create_table("r", ["A1", "A2", "A3", "A4"], [(1, 1, 0, 2000), ...])
    db.create_table("s", ["B1", "B2", "B3", "B4"], [(9, 1, 0, 0), ...])

    sql = '''SELECT DISTINCT * FROM r
             WHERE A1 = (SELECT COUNT(DISTINCT *) FROM s WHERE A2 = B2)
                OR A4 > 1500'''
    print(db.explain(sql, strategy="unnested"))   # the bypass DAG
    result = db.execute(sql)                       # cost-based strategy
    print(result.pretty())

The layers underneath are importable on their own: ``repro.sql`` (parser,
canonical translation, classification), ``repro.algebra`` (logical
operators incl. σ±/⋈±, aggregates with fI/fO decomposition),
``repro.rewrite`` (Equivalences 1–5), ``repro.optimizer`` (cost model,
join ordering, strategies), ``repro.engine`` (the DAG executor),
``repro.datagen`` (RST & TPC-H-like generators), ``repro.bench`` (the
Figure-7 harness).
"""

from __future__ import annotations

import functools
import threading
from typing import Iterable, Sequence

from dataclasses import replace as _dc_replace

from repro.algebra.explain import explain as explain_plan
from repro.engine import EvalOptions
from repro.engine.context import ACCESS_COUNTERS
from repro.engine.governor import ResourceLimits
from repro.errors import (
    DurabilityError,
    InjectedFault,
    ParameterError,
    ReplicationError,
    ReproError,
    ResourceExhausted,
)
from repro.faults import FaultConfig, FaultInjector, injector_from_env
from repro.optimizer import plan_query, PlannedQuery, Strategy
from repro.optimizer.planner import STRATEGIES
from repro.rewrite import UnnestOptions
from repro.service.plancache import CacheInfo, PlanCache
from repro.service.prepared import PreparedStatement
from repro.sql import ast as sql_ast
from repro.sql.parser import parse_any, statement_kind
from repro.sql.classify import QueryClass
from repro.storage import Catalog, Column, ColumnType, Schema, Table
from repro.storage.mvcc import SnapshotCatalog, SnapshotHandle, SnapshotManager
from repro.storage.wal import (
    DurabilityConfig,
    DurabilityManager,
    LogRecord,
    WalTail,
    list_snapshots,
    read_wal_tail,
)

__version__ = "1.0.0"

__all__ = [
    "Database",
    "Catalog",
    "CacheInfo",
    "Column",
    "ColumnType",
    "DurabilityConfig",
    "DurabilityError",
    "FaultConfig",
    "FaultInjector",
    "PlanCache",
    "PreparedStatement",
    "ReplicationError",
    "ResourceExhausted",
    "ResourceLimits",
    "Schema",
    "SnapshotCatalog",
    "SnapshotHandle",
    "SnapshotManager",
    "Table",
    "EvalOptions",
    "UnnestOptions",
    "PlannedQuery",
    "Strategy",
    "STRATEGIES",
    "ReproError",
    "__version__",
]

#: Fault-site prefixes that describe the durability path rather than a
#: query plan.  A retryable fault here is a *disk* problem: the
#: self-healing fallback still runs, but the plan-cache entry is not
#: quarantined (the plan did nothing wrong).
DURABILITY_FAULT_PREFIXES = ("storage.wal", "storage.checkpoint")


@functools.cache
def _replay_options() -> EvalOptions:
    """Redo logged statements on the batch engine when numpy imports (all
    that ``vectorized=True`` asks for), else on the row engine."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return EvalOptions()
    return EvalOptions(vectorized=True)


class Database:
    """A small façade over catalog + planner + engine.

    All strategy names accepted by :meth:`execute` / :meth:`explain`:
    ``auto`` (default, cost-based), ``canonical``, ``unnested``, and the
    commercial-baseline emulations ``s1``, ``s2``, ``s3``.

    Passing ``data_dir`` (or a full :class:`DurabilityConfig`) makes the
    database durable: committed DML and DDL append to a checksummed
    write-ahead log, checkpoints snapshot the whole catalog, and opening
    the same directory again — :meth:`Database.open` — recovers the
    state, discarding any torn trailing log records.  See
    ``docs/durability.md``.
    """

    def __init__(
        self,
        plan_cache_capacity: int = 128,
        data_dir: str | None = None,
        durability: DurabilityConfig | None = None,
    ):
        self.catalog = Catalog()
        # Multi-version concurrency control: every committed mutation
        # appends per-table versions at a fresh commit LSN; read queries
        # pin the current LSN and execute against frozen snapshots, so
        # they never take ``_commit_lock``.  See repro.storage.mvcc and
        # docs/mvcc.md.
        self._snapshots = SnapshotManager()
        self._views: dict[str, object] = {}
        self._plan_cache = PlanCache(plan_cache_capacity)
        # View DDL changes what a cached plan means without touching any
        # table version, so the epoch participates in every cache key;
        # bumping it orphans old entries, which then age out of the LRU.
        self._views_epoch = 0
        # Self-healing counters (see execute): how often a retryable
        # runtime failure degraded an execution to the canonical row
        # plan, and what the last degradation looked like.
        self._degradations = 0
        self._fallback_successes = 0
        self._last_degradation: dict | None = None
        # Cumulative access-path counters (see ExecContext.access),
        # surfaced through access_info() and the service /metrics body.
        self._access_totals = dict.fromkeys(ACCESS_COUNTERS, 0)
        # Durability (None = pure in-memory).  The original SQL of each
        # view is kept alongside the parsed form so snapshots can store
        # a replayable definition.
        self._view_sql: dict[str, str] = {}
        # Serializes every mutation's apply+log critical section: the
        # query server admits concurrent execute() calls, and the WAL
        # must record mutations in the order they hit the catalog (and
        # checkpoints must snapshot state consistent with the LSN they
        # claim).  Reentrant: recovery replays records through the same
        # public mutation paths.
        self._commit_lock = threading.RLock()
        # Pins handed out through the public pin_snapshot() facade (the
        # server's sessions, library callers).  close() force-releases
        # whatever is still here: a leaked pin would block version GC
        # forever.  Guarded by its own small lock — pinning must never
        # contend with a writer's commit section.
        self._issued_pins: set[SnapshotHandle] = set()
        self._pins_lock = threading.Lock()
        self._durability: DurabilityManager | None = None
        self._recovery: dict = {}
        self._wal_commit_failures = 0
        self._durability_exemptions = 0
        # Fencing era (replication failover): a monotonic term persisted
        # as an ``era`` WAL control record.  ``_era_lsn`` is the LSN of
        # the record that installed the current era — the first record
        # of the current primary's reign, which is what lets a rejoining
        # node detect a divergent WAL suffix (see docs/replication.md).
        # ``_era_history`` keeps every (era, lsn) reign boundary (one
        # entry per failover) so a node that slept through *several*
        # eras can still locate the first reign record its log missed.
        self._era = 0
        self._era_lsn = 0
        self._era_history: list[tuple[int, int]] = []
        if durability is None and data_dir is not None:
            durability = DurabilityConfig(data_dir=data_dir)
        if durability is not None:
            self._open_durable(durability)

    @classmethod
    def open(
        cls,
        data_dir: str,
        plan_cache_capacity: int = 128,
        durability: DurabilityConfig | None = None,
    ) -> "Database":
        """Open (or create) a durable database rooted at ``data_dir``.

        Recovery runs before the constructor returns: the newest valid
        ``snapshot.<lsn>`` is loaded, the WAL tail is replayed through
        the ordinary execution paths (so index and view epochs advance
        exactly as they did live), and torn trailing records are
        detected by checksum and dropped.
        """
        return cls(plan_cache_capacity, data_dir=data_dir, durability=durability)

    # -- durability ---------------------------------------------------------

    def _open_durable(self, config: DurabilityConfig) -> None:
        import time as _time

        manager = DurabilityManager(config)
        started = _time.perf_counter()
        recovery = manager.start()
        if recovery.snapshot_state is not None:
            self._load_snapshot_state(recovery.snapshot_state)
        for record in recovery.records:
            self.apply_record(record)
        # Attach only after replay: the mutation paths log iff the
        # manager is attached, so replay never re-logs its own records.
        self._durability = manager
        self._recovery = {
            "seconds": round(_time.perf_counter() - started, 6),
            "snapshot_lsn": recovery.snapshot_lsn,
            "records_replayed": len(recovery.records),
            "torn_bytes_dropped": recovery.torn_bytes_dropped,
            "snapshot_fallback": recovery.snapshot_fallback,
        }

    def _snapshot_state(self) -> dict:
        """The full catalog as a JSON-serializable checkpoint payload."""
        tables = {
            name: self.catalog.table(name).to_payload(name)
            for name in self.catalog.table_names()
        }
        # The definitions only: ``Index.info()`` would also count entries,
        # which rebuilds an index that DELETE/UPDATE left stale.
        indexes = [
            {
                "name": index.name,
                "table": index.table_name,
                "column": index.column,
                "kind": index.kind,
            }
            for index in map(self.catalog.index, self.catalog.index_names())
        ]
        return {
            "tables": tables,
            "views": [[name, sql] for name, sql in self._view_sql.items()],
            "indexes": indexes,
            "era": self._era,
            "era_lsn": self._era_lsn,
            "era_history": [[era, lsn] for era, lsn in self._era_history],
        }

    def _load_snapshot_state(self, state: dict) -> None:
        loaded: dict[str, Table] = {}
        for name, payload in state.get("tables", {}).items():
            table = Table.from_payload(payload, name)
            self.catalog.register(table, name)
            loaded[name.lower()] = table
        if loaded:
            # One commit LSN covering the whole checkpoint: the snapshot
            # is a single consistent state, so its version chain entry is
            # a single consistent LSN too.
            self._snapshots.commit(loaded)
        for name, sql in state.get("views", []):
            self.create_view(name, sql)
        for index in state.get("indexes", []):
            self.create_index(
                index["name"], index["table"], index["column"], index["kind"]
            )
        # Old snapshots predate the fencing era and default to era 0.
        self._era = max(self._era, int(state.get("era", 0)))
        self._era_lsn = max(self._era_lsn, int(state.get("era_lsn", 0)))
        for era, lsn in state.get("era_history", []):
            entry = (int(era), int(lsn))
            if entry not in self._era_history:
                self._era_history.append(entry)
        self._era_history.sort()

    def apply_record(self, record: LogRecord) -> None:
        """Redo one log record through the ordinary, *logging* mutation paths.

        The one replay path.  Crash recovery calls it before the
        durability manager is attached, so nothing is re-logged; a
        replication follower calls it on its live store, where every
        branch logs exactly one local record — which is what keeps the
        follower's WAL record-for-record aligned with the primary's.
        """
        kind, data = record.kind, record.data
        if kind == "dml":
            self.execute(data["sql"], options=_replay_options())
        elif kind == "create_table":
            self.register(Table.from_payload(data, data["name"]), data["name"])
        elif kind == "drop_table":
            self.drop_table(data["name"])
        elif kind == "create_view":
            self.create_view(data["name"], data["sql"])
        elif kind == "drop_view":
            self.drop_view(data["name"])
        elif kind == "create_index":
            self.create_index(data["name"], data["table"], data["column"], data["kind"])
        elif kind == "drop_index":
            self.drop_index(data["name"])
        else:
            # Control records and kinds a newer writer logged that this
            # reader predates: logged verbatim, so the LSN advances even
            # when nothing else does.  An ``era`` record installs its
            # fencing era at its own LSN — the first of that reign —
            # unless this node already holds that era or a newer one.
            with self._commit_lock:
                self._log_durable(kind, data)
                if kind == "era" and int(data["era"]) > self._era:
                    self._install_era(int(data["era"]), record.lsn)

    def _log_durable(self, kind: str, data: dict, injector=None) -> None:
        """Append one record for a mutation that just committed in memory.

        A fault on the append/fsync path surfaces to the caller (the
        statement is unacknowledged; the WAL rolls its record back) and
        is counted; the in-memory mutation is *not* rolled back — it was
        never acknowledged, and a crash-recovery simply serves the
        pre-statement state.  Every caller holds ``_commit_lock``, which
        also keeps the auto-checkpoint's state capture consistent with
        the LSN it claims to cover.
        """
        manager = self._durability
        if manager is None:
            return
        try:
            manager.log(kind, data, injector=injector)
        except InjectedFault:
            self._wal_commit_failures += 1
            raise
        if manager.checkpoint_due():
            try:
                manager.checkpoint(self._snapshot_state(), injector=injector)
            except (InjectedFault, OSError):
                # The log already holds every committed record, so a
                # failed auto-checkpoint costs compaction, not safety.
                manager.note_checkpoint_failure()

    def checkpoint(self) -> int | None:
        """Snapshot the catalog and truncate the WAL; returns the LSN.

        No-op (returns None) on a pure in-memory database.  Unlike the
        automatic checkpoints, failures here propagate to the caller.
        """
        if self._durability is None:
            return None
        # The commit lock keeps the state capture and the checkpoint LSN
        # consistent: no record can land between the two.
        with self._commit_lock:
            return self._durability.checkpoint(self._snapshot_state())

    def durability_info(self) -> dict:
        """WAL/checkpoint/recovery counters (see docs/durability.md)."""
        if self._durability is None:
            return {"enabled": False}
        info = self._durability.info()
        info["enabled"] = True
        info["recovery"] = dict(self._recovery)
        info["recovery_seconds"] = self._recovery.get("seconds", 0.0)
        info["wal_commit_failures"] = self._wal_commit_failures
        return info

    # -- replication (primary side; see repro.replication) ------------------

    def _require_durability(self) -> DurabilityManager:
        manager = self._durability
        if manager is None:
            raise ReplicationError(
                "replication requires durable storage: open the primary with"
                " a data_dir so there is a WAL to stream"
            )
        return manager

    @property
    def wal_lsn(self) -> int:
        """The durability (WAL) LSN of the newest acknowledged mutation.

        This — not :attr:`commit_lsn`, which counts MVCC versions and
        skips view/index DDL — is the replication causality token: a
        replica's applied LSN is directly comparable to it.  0 on a
        pure in-memory database.
        """
        manager = self._durability
        return 0 if manager is None else manager.last_lsn

    @property
    def era(self) -> int:
        """The fencing era this node believes in (0 = pre-failover)."""
        return self._era

    @property
    def era_lsn(self) -> int:
        """The WAL LSN of the record that installed the current era.

        The first record of the current primary's reign: any node whose
        log already extends to (or past) this LSN while still believing
        an *older* era holds a divergent suffix and must truncate.
        """
        return self._era_lsn

    @property
    def era_history(self) -> tuple[tuple[int, int], ...]:
        """Every (era, era_lsn) reign boundary this node knows of.

        One entry per failover, shipped with the replication stream so a
        follower that slept through several eras can still find the first
        reign record its own log never applied (see docs/replication.md).
        """
        return tuple(self._era_history)

    def pruned_era_history(self) -> tuple[tuple[int, int], ...]:
        """:attr:`era_history` with unreachable reign boundaries pruned
        — what replication responses ship, so a long-lived cluster does
        not grow an unbounded list.

        A boundary is shippable-in-full only while a follower could
        still stream across it.  Streaming always starts at or past the
        WAL's base, and the base never precedes the *oldest retained*
        snapshot: any follower whose log ends before that snapshot's LSN
        gets ``snapshot_required`` and resyncs from scratch, never
        consulting old boundaries at all.  So boundaries at or past the
        oldest retained snapshot are kept verbatim, and everything older
        collapses into one sentinel — the *newest* boundary before the
        snapshot.  The sentinel cannot be dropped: a divergent follower
        whose log reaches past the snapshot LSN while still believing an
        era older than the sentinel's (it slept through that failover,
        then kept applying a deposed primary's suffix) is detected
        exactly by that entry — its LSN is ≤ the follower's log length
        and its era is newer than the follower's belief.
        """
        history = tuple(self._era_history)
        manager = self._durability
        if manager is None or len(history) <= 1:
            return history
        snapshots = list_snapshots(manager.config.data_dir)
        if not snapshots:
            return history
        oldest_retained = snapshots[0][0]
        kept = [entry for entry in history if entry[1] >= oldest_retained]
        pruned = [entry for entry in history if entry[1] < oldest_retained]
        if pruned:
            kept.insert(0, pruned[-1])
        return tuple(kept)

    def bump_era(self, era: int) -> int:
        """Install a newer fencing era, durably (an ``era`` WAL record).

        This is the promotion commit point: the record is the first of
        the new primary's reign, so its LSN becomes :attr:`era_lsn`.
        Eras only move forward; a stale bump is a protocol error.
        """
        with self._commit_lock:
            if era <= self._era:
                raise ReplicationError(
                    f"fencing era must be monotonic: cannot move from"
                    f" {self._era} to {era}"
                )
            self._log_durable("era", {"era": era})
            self._install_era(era, self.wal_lsn)
            return self._era

    def _install_era(self, era: int, lsn: int) -> None:
        self._era = era
        self._era_lsn = lsn
        self._era_history.append((era, lsn))

    def replication_snapshot(self) -> dict:
        """A consistent ``{"lsn", "state"}`` bootstrap payload.

        Taken under the commit lock so the state and the LSN it claims
        to cover cannot be split by a concurrent writer — the same
        guarantee a checkpoint gets.  A follower writes this state as
        its own local checkpoint file and recovers from it, which bases
        its local WAL at exactly the primary's LSN (see
        docs/replication.md for why the two logs then stay aligned).
        """
        manager = self._require_durability()
        with self._commit_lock:
            return {"lsn": manager.last_lsn, "state": self._snapshot_state()}

    def replication_wal_tail(
        self,
        from_lsn: int,
        max_records: int = 512,
        max_bytes: int = 1 << 20,
        wait: float = 0.0,
    ) -> WalTail:
        """The raw WAL frames past ``from_lsn`` (catch-up / live tail).

        With ``wait > 0`` this long-polls: it blocks until a record past
        ``from_lsn`` is durable or the wait budget elapses, then answers
        either way.  The frames keep their on-disk CRC framing so the
        follower re-validates every byte (torn frames injected or real
        are detected on the receiving side, exactly like recovery).
        """
        manager = self._require_durability()
        if wait > 0 and manager.last_lsn <= from_lsn:
            manager.wait_for_lsn(from_lsn + 1, wait)
        # Make buffered records (sync="none"/"flush" modes) visible to
        # the file-level reader below.
        manager.flush()
        return read_wal_tail(
            manager.config.data_dir, from_lsn, max_records, max_bytes
        )

    def close(self) -> None:
        """Flush and release the WAL file handle (idempotent).

        Any snapshot pins still outstanding from :meth:`pin_snapshot`
        are force-released first — a leaked pin would keep every table
        version at its LSN alive forever, and after close there is no
        caller left to read them.  Force releases are counted in
        :meth:`mvcc_info` (``pins_force_released``).
        """
        with self._pins_lock:
            leaked = list(self._issued_pins)
            self._issued_pins.clear()
        for handle in leaked:
            self._snapshots.force_unpin(handle)
        if self._durability is not None:
            self._durability.close()

    # -- schema management ---------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Sequence[str | Column],
        rows: Iterable[tuple] = (),
    ) -> Table:
        """Create and register a table; returns it for further loading.

        On a durable database the table (schema *and* rows) is logged,
        so tables created before a crash come back on recovery.  Rows
        appended directly to the returned :class:`Table` afterwards
        bypass the log — use ``INSERT`` statements for durable loads, or
        call :meth:`checkpoint` after a bulk load.
        """
        table = Table(Schema(columns), rows, name=name)
        self.register(table)
        return table

    def register(self, table: Table, name: str | None = None) -> None:
        """Register an existing :class:`Table` (e.g. from a generator)."""
        key = (name or table.name).lower()
        with self._commit_lock:
            self.catalog.register(table, name)
            if self._durability is not None:  # do not encode rows for nothing
                self._log_durable("create_table", {"name": key, **table.to_payload(key)})
            self._snapshots.commit({key: table})

    def drop_table(self, name: str) -> None:
        """Drop a table (and, implicitly, its indexes)."""
        with self._commit_lock:
            self.catalog.drop(name)
            self._plan_cache.invalidate_table(name)
            self._log_durable("drop_table", {"name": name.lower()})
            self._snapshots.note_drop(name)

    def analyze(self, name: str | None = None) -> None:
        """Refresh optimizer statistics after bulk loads.

        Cached plans depending on the re-analyzed table(s) are evicted so
        the next execution re-costs against the fresh statistics.
        """
        self.catalog.analyze(name)
        if name is None:
            self._plan_cache.clear()
        else:
            self._plan_cache.invalidate_table(name)

    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    # -- views ------------------------------------------------------------------

    def create_view(self, name: str, sql: str) -> None:
        """Register a named query; FROM-list references inline it.

        The definition is validated eagerly (parsed and translated once);
        cyclic definitions are rejected at query time.
        """
        from repro.errors import CatalogError
        from repro.sql import parse as parse_sql
        from repro.sql import translate as translate_sql

        key = name.lower()
        with self._commit_lock:
            if key in self.catalog or key in self._views:
                raise CatalogError(f"name {name!r} is already in use")
            statement = parse_sql(sql)
            trial = dict(self._views)
            trial[key] = statement
            translate_sql(statement, self.catalog, trial)  # validate eagerly
            self._views[key] = statement
            self._view_sql[key] = sql
            self._views_epoch += 1
            self._log_durable("create_view", {"name": key, "sql": sql})

    def drop_view(self, name: str) -> None:
        from repro.errors import CatalogError

        key = name.lower()
        with self._commit_lock:
            if key not in self._views:
                raise CatalogError(f"unknown view {name!r}")
            del self._views[key]
            self._view_sql.pop(key, None)
            self._views_epoch += 1
            self._log_durable("drop_view", {"name": key})

    def view_names(self) -> list[str]:
        return sorted(self._views)

    # -- indexes ----------------------------------------------------------------

    def create_index(
        self, name: str, table: str, column: str, kind: str = "hash"
    ) -> None:
        """Create a secondary index (``hash`` or ``sorted``) on a column."""
        with self._commit_lock:
            self.catalog.create_index(name, table, column, kind)
            self._plan_cache.invalidate_table(table)
            self._log_durable(
                "create_index",
                {
                    "name": name.lower(),
                    "table": table.lower(),
                    "column": column,
                    "kind": kind,
                },
            )

    def drop_index(self, name: str) -> None:
        with self._commit_lock:
            index = self.catalog.drop_index(name)
            self._plan_cache.invalidate_table(index.table_name)
            self._log_durable("drop_index", {"name": name.lower()})

    def index_names(self) -> list[str]:
        return self.catalog.index_names()

    def indexes(self) -> list[dict]:
        """Metadata for every registered index (name/table/column/kind/…)."""
        return self.catalog.index_info()

    def _execute_ddl(self, statement) -> Table:
        """``CREATE INDEX`` / ``DROP INDEX`` through the SQL front end."""
        if isinstance(statement, sql_ast.CreateIndexStmt):
            self.create_index(
                statement.name, statement.table, statement.column, statement.method
            )
        else:  # the parser's only other DDL form
            self.drop_index(statement.name)
        return Table(Schema(["rows_affected"]), [(0,)])

    # -- querying -----------------------------------------------------------------

    def execute(
        self,
        sql: str,
        strategy: str = "auto",
        options: EvalOptions | None = None,
        unnest_options: UnnestOptions | None = None,
        params=None,
        at_lsn: int | None = None,
    ) -> Table:
        """Run ``sql`` and return the result table.

        DML statements (INSERT/DELETE/UPDATE) are executed too — their
        embedded read planned under ``strategy`` and run with ``options``
        like a query — and return a one-row ``rows_affected`` table, as
        does index DDL
        (``CREATE INDEX name ON table (col) [USING hash|sorted]`` and
        ``DROP INDEX name``).  ``params`` supplies
        values for ``?`` / ``:name`` placeholders in queries (a sequence
        or a mapping respectively); parameterized DML is not supported.

        Execution is *self-healing*: if the chosen plan fails with a
        retryable runtime error (an injected fault, an unexpected engine
        exception) and a structurally simpler alternative exists, the
        plan-cache entry is quarantined and the query re-runs on the
        canonical row-engine plan before any error reaches the caller.
        Deliberate verdicts — budget, cancellation, governor limits —
        are not retried.

        Read queries run under **snapshot isolation**: the current commit
        LSN is pinned before execution and every table scan sees exactly
        the state as of that LSN, concurrent writers notwithstanding —
        readers never take the commit lock.  ``at_lsn`` executes against
        an older pinned LSN instead (the caller must hold a pin from
        :meth:`pin_snapshot`, e.g. a server session); it is ignored for
        DML and DDL, which always act on the live state.
        """
        kind = statement_kind(sql)
        if kind == "query":
            return self._run_read(sql, strategy, options, params, at_lsn, unnest_options)[0]
        if params is not None:
            raise ParameterError(
                f"parameters are not supported in {kind.upper()} statements"
            )
        statement = parse_any(sql)
        if kind == "ddl":
            return self._execute_ddl(statement)
        return self._execute_dml(sql, statement, strategy, options)

    def _execute_dml(self, sql: str, statement, strategy, options: EvalOptions | None) -> Table:
        from repro.dml import execute_dml

        # The statement's embedded read is armed, governed and healed like
        # any read, but on the live catalog under the commit lock: a writer
        # sees its own state, so there is no pin.
        base = self._armed_options(options or EvalOptions())
        # No eager plan-cache invalidation here: plans stay *correct*
        # across DML (indexes refresh lazily, batch caches key on the
        # table version); the cache's own drift threshold re-costs
        # plans once the table's cardinality moves far enough.
        with self._commit_lock:
            key = statement.table.lower()
            # Capture the pre-statement state: a reader resolving the
            # newest LSN mid-apply is served this capture instead of
            # the half-mutated live table.
            if key in self.catalog:
                self._snapshots.begin(key, self.catalog.table(key))
            try:
                result = execute_dml(
                    statement, self.catalog, self._views,
                    lambda plan_for: self._run_healed(plan_for, strategy, base, self.catalog)[0],
                )
                # The statement commits (is acknowledged) only once its
                # WAL record is synced; durability fault sites arm from
                # the same options/env plumbing as the engine sites.
                self._log_durable("dml", {"sql": sql}, injector=base.faults)
            except BaseException:
                self._snapshots.abort(key)
                raise
            # Applied and logged: publish the statement as a new
            # readable version at the next commit LSN.
            self._snapshots.commit({key: self.catalog.table(key)})
        return result.as_table()

    def _run_read(
        self,
        sql: str,
        strategy: str,
        options: EvalOptions | None,
        params,
        at_lsn: int | None,
        unnest_options: UnnestOptions | None = None,
        statement=None,
    ) -> tuple[Table, object, PlannedQuery]:
        """The one read pipeline: arm, pin, :meth:`_run_healed`, unpin.

        Every reader goes through here — ad hoc :meth:`execute`,
        :class:`PreparedStatement` (which passes its parsed
        ``statement``), custom ``unnest_options`` (planned from scratch:
        those knobs are not part of the cache key) and
        :meth:`explain_analyze` — so every one of them is governed,
        fault-armed, healed and counted alike.
        """
        base = self._armed_options(options or EvalOptions())
        quarantine = None
        if unnest_options is None:  # what was cached is what can be poisoned
            quarantine = functools.partial(
                self._plan_cache.quarantine,
                sql, strategy, extra_token=self._epoch_token(), statement=statement,
            )
        handle = self._snapshots.pin() if at_lsn is None else None
        lsn = at_lsn if handle is None else handle.lsn
        try:
            return self._run_healed(
                lambda chosen, engine: self.plan(sql, chosen, unnest_options, engine, statement),
                strategy, base, SnapshotCatalog(self.catalog, self._snapshots, lsn),
                params, quarantine,
            )
        finally:
            if handle is not None:
                self._snapshots.unpin(handle)

    def _run_healed(
        self, plan_for, strategy, base: EvalOptions, catalog, params=None, quarantine=None
    ) -> tuple[Table, object, PlannedQuery]:
        """Plan, run, heal, count — the one place a plan is executed.

        ``plan_for(strategy, engine)`` plans: a read's comes from the plan
        cache, a DML statement's embedded read from :mod:`repro.dml`.  A
        retryable failure re-runs once on the canonical row-engine plan.
        Returns the result, the execution context, and the plan that
        produced it (the canonical fallback when the execution healed).
        """
        engine = "vectorized" if base.vectorized else "row"
        planned = plan_for(strategy, engine)
        try:
            result, ctx = planned.execute(catalog, base, with_context=True, params=params)
        except ReproError as error:
            if not getattr(error, "retryable", False):
                raise
            if engine == "row" and planned.chosen_alternative == "canonical":
                # Nothing simpler to fall back to.
                raise
            # Quarantine the failing cache key so the poisoned plan stops
            # serving hits.  Faults on the durability path are exempt: a
            # failed WAL write or checkpoint says nothing about the plan
            # that happened to be executing.  (Nothing is cached for DML,
            # so it passes no ``quarantine``.)
            if (getattr(error, "site", "") or "").startswith(DURABILITY_FAULT_PREFIXES):
                self._durability_exemptions += 1
            elif quarantine is not None:
                quarantine(engine=engine)
            self._degradations += 1
            self._last_degradation = {
                "strategy": planned.strategy.name,
                "alternative": planned.chosen_alternative,
                "engine": engine,
                "error_code": getattr(error, "code", type(error).__name__),
            }
            # The healing path must not be re-injected, and runs on
            # the row engine.  A failure of the fallback itself
            # propagates — there is nothing simpler left.
            planned = plan_for("canonical", "row")
            result, ctx = planned.execute(
                catalog,
                _dc_replace(base, vectorized=False, faults=None),
                with_context=True,
                params=params,
            )
            self._fallback_successes += 1
        totals = self._access_totals
        for key, value in ctx.access.items():
            totals[key] += value
        return result, ctx, planned

    @staticmethod
    def _armed_options(base: EvalOptions) -> EvalOptions:
        """Fold ``REPRO_FAULT_*`` / ``REPRO_GOVERNOR_*`` into options.

        Explicit settings always win; the injector is built fresh per
        execution so every query replays the same seeded fault sequence.
        """
        updates = {}
        if base.faults is None:
            injector = injector_from_env()
            if injector is not None:
                updates["faults"] = injector
        if base.resources is None:
            limits = ResourceLimits.from_env()
            if limits is not None:
                updates["resources"] = limits
        return _dc_replace(base, **updates) if updates else base

    def resilience_info(self) -> dict:
        """Self-healing counters: degradations, fallback successes."""
        return {
            "degradations": self._degradations,
            "fallback_successes": self._fallback_successes,
            "last_degradation": self._last_degradation,
            # Durability-path faults: retried without plan quarantine
            # (a disk fault is not a plan bug), and WAL appends whose
            # statement was applied in memory but never acknowledged.
            "durability_exemptions": self._durability_exemptions,
            "wal_commit_failures": self._wal_commit_failures,
        }

    def access_info(self) -> dict:
        """Cumulative access-path counters plus the index inventory."""
        info = dict(self._access_totals)
        info["indexes"] = self.catalog.index_info()
        return info

    # -- snapshots (MVCC) ---------------------------------------------------

    @property
    def commit_lsn(self) -> int:
        """The newest committed LSN (what a fresh pin would read)."""
        return self._snapshots.lsn

    def pin_snapshot(self, lsn: int | None = None) -> SnapshotHandle:
        """Pin a commit LSN (default: the newest) for repeatable reads.

        Queries run with ``execute(..., at_lsn=handle.lsn)`` observe the
        database exactly as of that LSN, no matter how many writers
        commit in between.  The pin keeps the reachable versions from
        being garbage-collected; release it with
        :meth:`release_snapshot`.
        """
        handle = self._snapshots.pin(lsn)
        with self._pins_lock:
            self._issued_pins.add(handle)
        return handle

    def release_snapshot(self, handle: SnapshotHandle) -> None:
        """Release a pin taken with :meth:`pin_snapshot` (idempotent)."""
        with self._pins_lock:
            self._issued_pins.discard(handle)
        self._snapshots.unpin(handle)

    def mvcc_info(self) -> dict:
        """Version-chain and pin counters (see docs/mvcc.md)."""
        return self._snapshots.info()

    def prepare(self, sql: str, strategy: str = "auto") -> PreparedStatement:
        """Plan a parameterized query once; execute it many times."""
        return PreparedStatement(self, sql, strategy)

    def cache_info(self) -> CacheInfo:
        """Plan-cache counters (hits/misses/invalidations/evictions)."""
        return self._plan_cache.info()

    def _epoch_token(self) -> tuple:
        """Cache-key component covering every DDL kind.

        View DDL and index DDL both change what a cached plan means
        without touching any table version, so both epochs participate
        in the plan-cache key.
        """
        return (self._views_epoch, self.catalog.index_epoch)

    def plan(
        self,
        sql: str,
        strategy: str = "auto",
        unnest_options: UnnestOptions | None = None,
        engine: str = "row",
        statement=None,
    ) -> PlannedQuery:
        """Plan without executing — the one planning step of every reader.

        With default ``unnest_options`` the plan comes from (and warms)
        the plan cache, under ``engine``'s key; custom options are not
        part of that key and always plan from scratch.  ``statement``
        passes an already-parsed tree.
        """
        if unnest_options is not None:
            return plan_query(
                sql, self.catalog, strategy, unnest_options, self._views, statement
            )
        return self._plan_cache.get_or_plan(
            sql,
            self.catalog,
            strategy,
            engine=engine,
            views=self._views,
            extra_token=self._epoch_token(),
            statement=statement,
        )

    def explain(
        self,
        sql: str,
        strategy: str = "auto",
        unnest_options: UnnestOptions | None = None,
    ) -> str:
        """Render the chosen plan as an ASCII DAG."""
        planned = self.plan(sql, strategy, unnest_options)
        header = (
            f"-- strategy: {planned.strategy.name}"
            f" (chose {planned.chosen_alternative},"
            f" est. cost {planned.estimated_cost:.0f})\n"
            f"-- query class: {planned.classification.describe()}\n"
        )
        return header + explain_plan(planned.logical)

    def classify(self, sql: str) -> QueryClass:
        """Kim/Muralikrishna classification of a query."""
        return self.plan(sql, strategy="canonical").classification

    def explain_analyze(
        self,
        sql: str,
        strategy: str = "auto",
        options: EvalOptions | None = None,
        unnest_options: UnnestOptions | None = None,
    ) -> str:
        """Execute and render the physical plan with actual row counts.

        Runs through the same pipeline as :meth:`execute` — a pinned
        snapshot, armed options, healing — so the counts are those of
        one consistent commit LSN and the report shows the plan that
        actually produced the rows.
        """
        from repro.engine.executor import render_analyze

        base = _dc_replace(options or EvalOptions(), collect_stats=True)
        result, ctx, planned = self._run_read(
            sql, strategy, base, None, None, unnest_options
        )
        header = (
            f"-- strategy: {planned.strategy.name}"
            f" (chose {planned.chosen_alternative})\n"
        )
        return header + render_analyze(ctx, len(result))
