"""A concurrent SQL server: JSON over HTTP on stdlib machinery.

``ThreadingHTTPServer`` gives one thread per connection, and connections
persist: an idle one is closed after ``max_wait_seconds``, an answer
given while draining says ``Connection: close``, ``stop()`` hangs up on
all that are open.  The interesting parts live above it:

* **admission control** — at most ``max_in_flight`` queries execute
  concurrently; up to ``max_queue`` more may wait ``queue_timeout``
  seconds for a slot; everything beyond that is rejected *immediately*
  with a structured ``SERVER_OVERLOADED`` error (HTTP 429) instead of
  queueing unboundedly;
* **per-query timeouts** — the request's ``timeout`` (or the server
  default) becomes :attr:`EvalOptions.budget_seconds`, enforced
  cooperatively inside both engines, so a runaway query ends with a
  ``QUERY_TIMEOUT`` error while its thread survives;
* **cooperative shutdown** — ``POST /shutdown`` sets a shared cancel
  event polled by every in-flight execution, so draining takes one tick
  interval, not one query;
* **sessions & prepared statements** — ``POST /session`` returns an id;
  ``/prepare`` plans a parameterized template into that session and
  ``/execute`` binds values per call, all backed by the database's plan
  cache.

Wire protocol (see ``docs/service.md`` for the full reference)::

    GET  /healthz                         -> {"status": "ok", ...}
    GET  /health                          -> {"live": ..., "ready": ...}
                                             (503 while draining)
    GET  /metrics                         -> counters, latency, cache
    POST /session        {pin_snapshot?}   -> {"session": id, "snapshot_lsn"?}
    POST /session/close  {session}        -> {"closed": true}
    POST /session/pin    {session}        -> {"pinned": true, "snapshot_lsn"}
    POST /session/unpin  {session}        -> {"pinned": false}
    POST /prepare        {session, sql, strategy?}
                                          -> {"statement": id, "params": ...}
    POST /execute        {session, statement, params?, timeout?, engine?}
    POST /query          {sql, params?, strategy?, timeout?, engine?}
    POST /replication/snapshot {}         -> {"lsn", "state", "commit_lsn",
                                              "era", "era_lsn"}
    POST /replication/wal {from_lsn, max_records?, wait?}
                                          -> {"base_lsn", "last_lsn",
                                              "records", "frames",
                                              "snapshot_required",
                                              "era", "era_lsn", ...}
    POST /replication/topology {}         -> {"role", "era", "era_lsn",
                                              "fenced", "wal_lsn",
                                              "leader_url", ...}
    POST /replication/promote  {era}      -> {"promoted": true, "era", ...}
    POST /replication/demote   {era, leader_url?}
                                          -> {"fenced": true, "era", ...}
    POST /replication/repoint  {leader_url, era}  (replicas only)
    POST /shutdown       {}               -> {"shutting_down": true}

Failover (see ``docs/replication.md``): every node carries a **fencing
era** — a monotonic term persisted as a WAL control record.  A fenced
node (demoted by the coordinator, started with ``fenced=True``, or one
that learns from a request's ``era`` field that a newer era exists)
refuses writes with a structured ``NOT_PRIMARY`` (HTTP 409) carrying the
newest era and the leader's address, so a stale ex-primary can never
acknowledge a write after the cluster has moved on.

Write responses (``/query`` and ``/execute`` against a durable primary)
carry ``commit_lsn`` — the WAL LSN after the statement — as a causality
token a client can hand to a replica as ``min_lsn`` to guarantee
read-your-writes (see ``docs/replication.md``).

Every error body is ``{"error": {"code": ..., "message": ...}}`` — the
``code`` comes from :mod:`repro.errors`; tracebacks never cross the wire.
"""

from __future__ import annotations

import contextlib
import io
import json
import socket
import threading
import time
import uuid
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.engine import EvalOptions
from repro.errors import (
    AdmissionRejected,
    BadRequestError,
    BudgetExceeded,
    QueryCancelled,
    ReproError,
    ServiceUnavailable,
    SessionError,
)
from repro.faults import injector_from_env
from repro.replication.role import NodeRole
from repro.service.metrics import ServerMetrics
from repro.sim.clock import SYSTEM_CLOCK
from repro.sql import statement_kind

#: repro.errors code -> HTTP status.  Anything not listed is a client
#: error (400); unexpected exceptions map to INTERNAL_ERROR / 500.
_STATUS_BY_CODE = {
    "SERVER_OVERLOADED": 429,
    "QUERY_TIMEOUT": 408,
    "QUERY_CANCELLED": 503,
    "SERVICE_UNAVAILABLE": 503,
    "FAULT_INJECTED": 503,
    "RESOURCE_EXHAUSTED": 413,
    "UNKNOWN_SESSION": 404,
    "CATALOG_ERROR": 404,
    "REPLICA_LAGGING": 503,
    "READ_ONLY_REPLICA": 403,
    "NOT_PRIMARY": 409,
    "INTERNAL_ERROR": 500,
}

#: Refuse request bodies beyond this (a query text, not a bulk loader).
MAX_BODY_BYTES = 1 << 20

@dataclass(frozen=True)
class ServerConfig:
    """Tunables for :class:`QueryServer`."""

    host: str = "127.0.0.1"
    port: int = 8080  # 0 = pick an ephemeral port
    max_in_flight: int = 4
    max_queue: int = 8
    queue_timeout: float = 2.0
    default_timeout: float = 30.0
    max_rows: int = 10_000  # result-size guard per response
    #: Per-query resource budgets (see repro.engine.governor), applied
    #: to every request; None leaves only the REPRO_GOVERNOR_* env vars.
    resources: object = None
    #: Seconds a graceful drain waits for in-flight queries to finish
    #: before cancelling them (see QueryServer.drain).
    drain_grace: float = 10.0
    #: Sessions idle longer than this are expired (their snapshot pin is
    #: released — a leaked pin blocks MVCC version GC).  None disables.
    session_ttl: float | None = 3600.0
    #: Ceiling on the per-request long-poll/read-gate waits (the
    #: ``wait`` of /replication/wal and the ``lsn_wait`` of a min_lsn
    #: read): a client cannot park a handler thread longer than this.
    max_wait_seconds: float = 30.0
    #: The URL other nodes should use to reach this one; reported by
    #: /replication/topology and handed out in NOT_PRIMARY redirects.
    advertise_url: str | None = None
    #: Start fenced: refuse writes with NOT_PRIMARY until a coordinator
    #: confirms this node's reign (/replication/promote).  The safe way
    #: to revive an ex-primary whose cluster may have moved on.
    fenced: bool = False
    #: Time source (see repro.sim.clock); None = the system clock.  The
    #: simulator injects a VirtualClock so session GC and drain run on
    #: virtual time.
    clock: object = None


class _Session:
    def __init__(self, session_id: str, clock=SYSTEM_CLOCK):
        self.id = session_id
        self._clock = clock
        self.created = clock.now()
        self.last_used = clock.monotonic()
        self.statements: dict[str, object] = {}
        self.lock = threading.Lock()
        #: MVCC pin: while set, every query in this session reads the
        #: pinned LSN — a stable snapshot across requests, immune to
        #: concurrent commits (released on unpin/close).
        self.snapshot: object | None = None

    def touch(self) -> None:
        self.last_used = self._clock.monotonic()


class _Admission:
    """Counting semaphore + bounded wait queue + fast rejection."""

    def __init__(self, max_in_flight: int, max_queue: int, queue_timeout: float):
        self._slots = threading.Semaphore(max_in_flight)
        self._queue_timeout = queue_timeout
        self._max_queue = max_queue
        self._waiting = 0
        self._lock = threading.Lock()

    def __enter__(self):
        if self._slots.acquire(blocking=False):
            return self
        with self._lock:
            if self._waiting >= self._max_queue:
                raise AdmissionRejected(
                    "server at capacity (in-flight limit and queue are full); retry later"
                )
            self._waiting += 1
        try:
            admitted = self._slots.acquire(timeout=self._queue_timeout)
        finally:
            with self._lock:
                self._waiting -= 1
        if not admitted:
            raise AdmissionRejected(
                "server at capacity (queued request timed out waiting for a slot)"
            )
        return self

    def __exit__(self, *exc):
        self._slots.release()
        return False

    def snapshot(self) -> dict:
        with self._lock:
            return {"queued": self._waiting, "max_queue": self._max_queue}


class QueryService:
    """The HTTP-agnostic request logic (unit-testable without sockets).

    ``database`` is either a ready :class:`~repro.Database` or a
    zero-argument callable returning one.  A callable defers the
    expensive part of startup — typically ``Database.open`` replaying a
    WAL — to :meth:`startup`, which the server runs on a background
    thread while HTTP is already answering: ``/health`` reports
    ``ready: false`` (503) and queries are refused with a retryable
    ``SERVICE_UNAVAILABLE`` until recovery finishes.

    ``follower`` makes the node a replica: the
    :class:`~repro.replication.replica.ReplicationFollower` feeding
    ``database``.  Whatever differs between a primary, a fenced primary
    and a replica is decided by :attr:`role`; a follower that rebuilds
    its store (resync) swaps the served one through :meth:`attach`.
    """

    def __init__(self, database, config: ServerConfig | None = None, follower=None):
        self._db: object | None = None
        self._db_factory = database if callable(database) else None
        self.config = config or ServerConfig()
        self.clock = self.config.clock or SYSTEM_CLOCK
        self.metrics = ServerMetrics()
        self.cancel_event = threading.Event()
        #: Set once the database is attached (immediately for a ready
        #: database, after recovery for a deferred factory).
        self.ready = threading.Event()
        #: Set once the startup phase is *over*, successfully or not —
        #: the event companions of ``ready``/``startup_error`` for
        #: waiters that must not spin-poll (the replica's follower
        #: thread parks on this instead of sleeping in a loop).
        self.startup_finished = threading.Event()
        self.startup_error: str | None = None
        #: Set while the server drains: new queries are refused with
        #: SERVICE_UNAVAILABLE (503) but in-flight ones run to completion
        #: (until the drain grace expires and cancel_event fires).
        self.draining = threading.Event()
        self._admission = _Admission(
            self.config.max_in_flight, self.config.max_queue, self.config.queue_timeout
        )
        self._sessions: dict[str, _Session] = {}
        self._sessions_lock = threading.Lock()
        self._sessions_expired = 0
        self._last_session_sweep = self.clock.monotonic()
        #: What ``POST /shutdown`` runs off-thread (the server's HTTP loop stop).
        self.shutdown_callback = None
        self.role = NodeRole(
            lambda: self.db, follower, self.config.advertise_url, self.config.fenced
        )
        if follower is not None:
            follower.on_install = self.attach
        if self._db_factory is None:
            self.attach(database)

    @property
    def db(self):
        database = self._db
        if database is None:
            message = (
                f"server startup failed: {self.startup_error}"
                if self.startup_error is not None
                else "server is recovering and not yet admitting queries; retry shortly"
            )
            raise ServiceUnavailable(message)
        return database

    def attach(self, database) -> None:
        """Serve from ``database`` and admit queries: the end of startup,
        and a follower's re-bootstrap swapping the store underneath."""
        self._db = database
        self.ready.set()
        self.startup_finished.set()

    def startup(self) -> None:
        """Resolve a deferred database factory (the recovery phase).

        ``startup_finished`` is set on every exit path — success or
        failure — so event-driven waiters wake exactly once instead of
        polling ``ready``/``startup_error``.
        """
        if self._db is not None:
            return
        try:
            database = self._db_factory()
        except Exception as error:  # surfaced via /health, never swallowed silently
            self.startup_error = f"{type(error).__name__}: {error}"
            self.startup_finished.set()
            return
        self.attach(database)

    # -- dispatch -----------------------------------------------------------

    def handle(self, method: str, path: str, payload: dict) -> tuple[int, dict]:
        """Route one request; returns ``(http_status, response_body)``."""
        self.metrics.record_request()
        self._expire_sessions()
        try:
            if method == "GET" and path == "/health":
                return self._health()
            route = _ROUTES.get((method, path))
            if route is None:
                raise BadRequestError(f"no such endpoint: {method} {path}")
            return 200, route(self, payload)
        except AdmissionRejected as error:
            self.metrics.record_rejection()
            return _STATUS_BY_CODE[error.code], {"error": error.as_dict()}
        except ReproError as error:
            status = _STATUS_BY_CODE.get(error.code, 400)
            return status, {"error": error.as_dict()}
        except Exception:
            # Deliberately opaque: internals stay on the server side.
            return 500, {
                "error": {"code": "INTERNAL_ERROR", "message": "internal server error"}
            }

    # -- endpoints ----------------------------------------------------------

    def _health(self) -> tuple[int, dict]:
        """Kubernetes-style liveness/readiness: *live* while the process
        serves HTTP at all, *ready* only while queries are admitted —
        a recovering server (WAL replay still running) and a draining one
        are both live but not ready, so load balancers hold traffic (503)
        until recovery finishes or route it elsewhere during drain."""
        draining = self.draining.is_set()
        recovering = not self.ready.is_set() and self.startup_error is None
        ready = not draining and not recovering and self.startup_error is None
        body = {
            "live": True,
            "ready": ready,
            "draining": draining,
            "recovering": recovering,
            "in_flight": self.metrics.snapshot()["in_flight"],
        }
        if self.startup_error is not None:
            body["startup_error"] = self.startup_error
        return (200 if ready else 503), body

    def _metrics_body(self) -> dict:
        with self._sessions_lock:
            session_count = len(self._sessions)
        body = {
            "server": self.metrics.snapshot(),
            "admission": self._admission.snapshot(),
            "sessions": session_count,
            "sessions_expired": self._sessions_expired,
            "draining": self.draining.is_set(),
            "ready": self.ready.is_set(),
        }
        database = self._db
        if database is not None:
            body["plan_cache"] = database.cache_info().as_dict()
            body["tables"] = database.catalog.table_names()
            body["resilience"] = database.resilience_info()
            body["access_paths"] = database.access_info()
            body["durability"] = database.durability_info()
            body["mvcc"] = database.mvcc_info()
        # A replica reports its follower even while the bootstrap runs.
        if database is not None or self.role.follower is not None:
            body["replication"] = self.role.metrics()
        return body

    def _create_session(self, payload: dict) -> dict:
        session = _Session(uuid.uuid4().hex, self.clock)
        body = {"session": session.id}
        if payload.get("pin_snapshot"):
            session.snapshot = self.db.pin_snapshot()
            body["snapshot_lsn"] = session.snapshot.lsn
        with self._sessions_lock:
            self._sessions[session.id] = session
        return body

    def _close_session(self, payload: dict) -> dict:
        session_id = _required_str(payload, "session")
        with self._sessions_lock:
            session = self._sessions.pop(session_id, None)
        if session is None:
            raise SessionError(f"unknown session {session_id!r}")
        self._release_pin(session)
        return {"closed": True}

    def _release_pin(self, session: _Session) -> None:
        with session.lock:
            handle = session.snapshot
            session.snapshot = None
        if handle is not None:
            self.db.release_snapshot(handle)

    def _pin_session(self, payload: dict) -> dict:
        """Pin the session at the current commit LSN (re-pin moves it)."""
        session = self._session(payload)
        handle = self.db.pin_snapshot()
        with session.lock:
            old = session.snapshot
            session.snapshot = handle
        if old is not None:
            self.db.release_snapshot(old)
        return {"pinned": True, "snapshot_lsn": handle.lsn}

    def _unpin_session(self, payload: dict) -> dict:
        session = self._session(payload)
        self._release_pin(session)
        return {"pinned": False}

    def _session_lsn(self, session: _Session) -> int | None:
        with session.lock:
            handle = session.snapshot
        return None if handle is None else handle.lsn

    def _session(self, payload: dict) -> _Session:
        session_id = _required_str(payload, "session")
        with self._sessions_lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise SessionError(f"unknown session {session_id!r}")
        session.touch()
        return session

    def _expire_sessions(self) -> None:
        """Drop sessions idle past ``session_ttl`` and release their pins.

        Runs inline on the request path (no reaper thread to manage) but
        only actually sweeps every ``ttl/4`` seconds.  Releasing the
        snapshot pin is the point, not a nicety: an expired session that
        kept its pin would block MVCC version GC forever.
        """
        ttl = self.config.session_ttl
        if not ttl:
            return
        now = self.clock.monotonic()
        if now - self._last_session_sweep < min(max(ttl / 4.0, 0.01), 60.0):
            return
        self._last_session_sweep = now
        expired = []
        with self._sessions_lock:
            for session_id, session in list(self._sessions.items()):
                if now - session.last_used > ttl:
                    del self._sessions[session_id]
                    expired.append(session)
        for session in expired:
            self._sessions_expired += 1
            try:
                self._release_pin(session)
            except ReproError:
                pass  # db not attached yet/any more; the pin died with it

    def _prepare(self, payload: dict) -> dict:
        session = self._session(payload)
        sql = _required_str(payload, "sql")
        strategy = _optional_str(payload, "strategy", "auto")
        statement = self.db.prepare(sql, strategy)
        statement_id = uuid.uuid4().hex[:12]
        with session.lock:
            session.statements[statement_id] = statement
        return {"statement": statement_id, "params": statement.describe()}

    def _execute(self, payload: dict) -> dict:
        session = self._session(payload)
        statement_id = _required_str(payload, "statement")
        with session.lock:
            statement = session.statements.get(statement_id)
        if statement is None:
            raise BadRequestError(f"unknown statement {statement_id!r} in session")
        # A prepared statement is always a read: ``prepare`` parses with
        # the SELECT-only grammar, so DML never gets this far.
        self._read_gate(payload)
        params = _params_of(payload)
        at_lsn = self._session_lsn(session)
        return self.role.annotate(
            self._run(
                lambda options: statement.execute(params, options=options, at_lsn=at_lsn),
                payload,
            )
        )

    def _query(self, payload: dict) -> dict:
        sql = _required_str(payload, "sql")
        if statement_kind(sql) != "query":
            self.role.check_write(_number_field(payload, "era"))
        else:
            self._read_gate(payload)
        strategy = _optional_str(payload, "strategy", "auto")
        params = _params_of(payload)
        # An optional pinned session makes ad-hoc queries read the
        # session's stable snapshot instead of the current commit LSN.
        at_lsn = None
        if isinstance(payload.get("session"), str):
            at_lsn = self._session_lsn(self._session(payload))
        return self.role.annotate(
            self._run(
                lambda options: self.db.execute(
                    sql, strategy, options=options, params=params, at_lsn=at_lsn
                ),
                payload,
            )
        )

    def _read_gate(self, payload: dict) -> None:
        """Hand a read's causality fields (``min_lsn``, ``era``) to the role."""
        min_lsn = _number_field(payload, "min_lsn")
        era = _number_field(payload, "era")
        wait = 0.0
        if min_lsn is not None:
            wait = _number_field(payload, "lsn_wait", default=1.0, seconds=True)
            wait = min(float(wait), self.config.max_wait_seconds)
            budget = _number_field(payload, "budget", seconds=True)
            if budget is not None:
                # Deadline propagation: parking the gate longer than the
                # caller's remaining budget only manufactures a timeout the
                # client has already stopped waiting for.
                wait = min(wait, budget)
        self.role.check_read(min_lsn, era, wait)

    def _shutdown(self) -> dict:
        self.cancel_event.set()
        callback = self.shutdown_callback
        if callback is not None:
            threading.Thread(target=callback, daemon=True).start()
        return {"shutting_down": True}

    # -- query execution ----------------------------------------------------

    def _run(self, thunk, payload: dict) -> dict:
        if self.draining.is_set():
            raise ServiceUnavailable(
                "server is draining and no longer admits queries; retry elsewhere"
            )
        if not self.ready.is_set():
            # Touch the db property for its precise message (recovery in
            # progress vs. startup failure).
            self.db
        # Chaos hook: a fresh env-configured injector per request keeps a
        # seeded fault sequence deterministic per query.  The engine-level
        # sites are armed separately by Database.execute; this one covers
        # the service edge itself.
        injector = injector_from_env()
        if injector is not None:
            injector.maybe_fail("service.request")
        timeout = payload.get("timeout", self.config.default_timeout)
        if timeout is not None and not isinstance(timeout, (int, float)):
            raise BadRequestError("'timeout' must be a number (seconds) or null")
        budget = _number_field(payload, "budget", seconds=True)
        if budget is not None:
            # Deadline propagation: the client sent how much of *its*
            # time budget is left; running the query longer than that is
            # pure waste (the caller has already given up on us), so the
            # per-query timeout is clamped to it.
            timeout = budget if timeout is None else min(timeout, budget)
        engine = _optional_str(payload, "engine", "row")
        if engine not in ("row", "vectorized"):
            raise BadRequestError(f"unknown engine {engine!r} (row | vectorized)")
        options = EvalOptions(
            budget_seconds=timeout,
            vectorized=engine == "vectorized",
            cancel_event=self.cancel_event,
            resources=self.config.resources,
        )
        with self._admission:
            self.metrics.query_started()
            start = time.perf_counter()
            try:
                table = thunk(options)
            except BudgetExceeded:
                self.metrics.query_finished(time.perf_counter() - start, "timeout")
                raise
            except QueryCancelled:
                self.metrics.query_finished(time.perf_counter() - start, "cancelled")
                raise
            except Exception:
                self.metrics.query_finished(time.perf_counter() - start, "error")
                raise
            elapsed = time.perf_counter() - start
            self.metrics.query_finished(elapsed, "ok")
        rows = table.rows
        truncated = len(rows) > self.config.max_rows
        if truncated:
            rows = rows[: self.config.max_rows]
        return {
            "columns": list(table.schema.names),
            "rows": rows,  # tuples: json encodes them as arrays
            "row_count": len(table),
            "truncated": truncated,
            "elapsed": round(elapsed, 6),
        }

    # -- graceful drain -----------------------------------------------------

    def drain(self, grace: float | None = None) -> bool:
        """Stop admitting queries; wait for in-flight work, then cancel.

        Returns True when the server drained cleanly within ``grace``
        seconds (default ``config.drain_grace``), False when the grace
        expired and the stragglers were cooperatively cancelled.  Safe
        to call more than once.
        """
        if grace is None:
            grace = self.config.drain_grace
        self.draining.set()
        deadline = self.clock.monotonic() + grace
        while self.clock.monotonic() < deadline:
            if self.metrics.snapshot()["in_flight"] == 0:
                return True
            self.clock.sleep(0.02)
        clean = self.metrics.snapshot()["in_flight"] == 0
        if not clean:
            self.cancel_event.set()
        return clean


def _era_of(payload: dict) -> int:
    era = payload.get("era")
    if isinstance(era, bool) or not isinstance(era, int) or era < 1:
        raise BadRequestError("'era' must be a positive integer")
    return era


def _number_field(payload: dict, key: str, default=None, seconds=False, bounds=None):
    """A numeric request field (``bool`` is not a number).

    A non-negative integer by default; non-negative seconds (int or
    float) with ``seconds``; an integer within inclusive ``bounds`` when
    given.  A missing key reads as ``default``, and only a ``None``
    default admits a null.
    """
    value = payload.get(key, default)
    if value is None and default is None:
        return None
    low, high = bounds or (0, None)
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float) if seconds else int)
        or value < low
        or (high is not None and value > high)
    ):
        if bounds:
            expected = f"an integer in [{low}, {high}]"
        else:
            expected = "a non-negative " + ("number of seconds" if seconds else "integer")
        raise BadRequestError(f"{key!r} must be {expected}")
    return value


def _required_str(payload: dict, key: str) -> str:
    value = payload.get(key)
    if not isinstance(value, str) or not value:
        raise BadRequestError(f"missing or non-string field {key!r}")
    return value


def _optional_str(payload: dict, key: str, default: str) -> str:
    value = payload.get(key, default)
    if not isinstance(value, str):
        raise BadRequestError(f"field {key!r} must be a string")
    return value


def _params_of(payload: dict):
    params = payload.get("params")
    if params is not None and not isinstance(params, (list, dict)):
        raise BadRequestError(
            "'params' must be an array (positional '?') or an object (named ':name')"
        )
    return params


def _wal_route(service: QueryService, payload: dict) -> dict:
    # Required: a missing ``from_lsn`` reads as -1 and is refused.
    from_lsn = _number_field(payload, "from_lsn", default=-1)
    max_records = _number_field(payload, "max_records", default=512, bounds=(1, 4096))
    wait = _number_field(payload, "wait", default=0.0, seconds=True)
    wait = min(float(wait), service.config.max_wait_seconds)
    return service.role.wal_tail(from_lsn, max_records, wait)


def _demote_route(service: QueryService, payload: dict) -> dict:
    leader = payload.get("leader_url")
    if leader is not None and not isinstance(leader, str):
        raise BadRequestError("'leader_url' must be a string")
    return service.role.demote(_era_of(payload), leader)


#: ``(method, path) -> handler(service, payload)``.  For ``/replication/*``
#: the handler only parses the payload; what the node does with it is
#: :class:`~repro.replication.role.NodeRole`'s decision (the state ×
#: method table is in ``docs/replication.md``).
_ROUTES = {
    ("GET", "/healthz"): lambda s, p: {
        "status": "ok",
        "in_flight": s.metrics.snapshot()["in_flight"],
    },
    ("GET", "/metrics"): lambda s, p: s._metrics_body(),
    ("POST", "/session"): QueryService._create_session,
    ("POST", "/session/close"): QueryService._close_session,
    ("POST", "/session/pin"): QueryService._pin_session,
    ("POST", "/session/unpin"): QueryService._unpin_session,
    ("POST", "/prepare"): QueryService._prepare,
    ("POST", "/execute"): QueryService._execute,
    ("POST", "/query"): QueryService._query,
    ("POST", "/shutdown"): lambda s, p: s._shutdown(),
    ("POST", "/replication/snapshot"): lambda s, p: s.role.snapshot(),
    ("POST", "/replication/wal"): _wal_route,
    ("GET", "/replication/topology"): lambda s, p: s.role.topology(),
    ("POST", "/replication/topology"): lambda s, p: s.role.topology(),
    ("POST", "/replication/promote"): lambda s, p: s.role.promote(_era_of(p)),
    ("POST", "/replication/demote"): _demote_route,
    ("POST", "/replication/repoint"): lambda s, p: s.role.repoint(
        _required_str(p, "leader_url"), _era_of(p)
    ),
}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # connections persist: one thread each
    # With Nagle on, a second write on a kept connection stalls behind
    # the client's delayed ACK (40 ms a request).
    disable_nagle_algorithm = True
    # Injected by QueryServer, with ``timeout`` = max_wait_seconds: an idle
    # connection parks its thread no longer than any wait a client can ask for.
    service: QueryService

    # ThreadingHTTPServer logs every request to stderr by default; the
    # server's metrics endpoint replaces that.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _respond(self, status: int, body: dict, close: bool = False) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if close or self.service.draining.is_set():
            # A pooling client must not come back on this connection (and
            # send_header makes this answer the connection's last).
            self.send_header("Connection", "close")
        # Headers and body leave in one write (one segment when small).
        wire, self.wfile = self.wfile, io.BytesIO()
        self.end_headers()
        head, self.wfile = self.wfile.getvalue(), wire
        wire.write(head + data)

    def do_GET(self):  # noqa: N802 - stdlib naming
        status, body = self.service.handle("GET", self.path, {})
        self._respond(status, body)

    def do_POST(self):  # noqa: N802 - stdlib naming
        try:
            payload = self._read_payload()
        except BadRequestError as error:
            # The body (if any) was not consumed; the connection cannot
            # carry another request.
            self._respond(400, {"error": error.as_dict()}, close=True)
            return
        status, body = self.service.handle("POST", self.path, payload)
        self._respond(status, body)

    def _read_payload(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            # Checked before reading: read(-1) would park this thread
            # until the client hangs up.
            raise BadRequestError("'Content-Length' must be a non-negative integer")
        if length > MAX_BODY_BYTES:
            raise BadRequestError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        if not length:
            return {}
        try:
            payload = json.loads(self.rfile.read(length))
        except ValueError:
            raise BadRequestError("request body is not valid JSON") from None
        if not isinstance(payload, dict):
            raise BadRequestError("request body must be a JSON object")
        return payload


class _HTTPServer(ThreadingHTTPServer):
    """Tells ``metrics`` (set by :class:`QueryServer`) which connections are open."""

    def process_request(self, request, client_address):
        self.metrics.connection_opened(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        self.metrics.connection_closed(request)
        super().shutdown_request(request)


class QueryServer:
    """Owns the listening socket and the service; start/stop lifecycle.

    ``database`` is what :class:`QueryService` takes, or a ready
    ``QueryService`` to serve as is (how a replica mounts its follower).
    """

    def __init__(self, database, config: ServerConfig | None = None):
        if isinstance(database, QueryService):
            self.service = database
        else:
            self.service = QueryService(database, config)
        self.config = self.service.config
        # (``or None``: 0 tells the gates never to wait; a socket has to.)
        bound = {"service": self.service, "timeout": self.config.max_wait_seconds or None}
        handler = type("BoundHandler", (_Handler,), bound)
        self._httpd = _HTTPServer((self.config.host, self.config.port), handler)
        self._httpd.daemon_threads = True
        self._httpd.metrics = self.service.metrics
        self.service.shutdown_callback = self._httpd.shutdown
        self._thread: threading.Thread | None = None
        self._startup_thread: threading.Thread | None = None

    def _begin_startup(self) -> None:
        """Run the recovery phase (deferred database factory) off-thread
        so /health answers 503 ready=false while the WAL replays."""
        if self.service.ready.is_set() or self._startup_thread is not None:
            return
        self._startup_thread = threading.Thread(
            target=self.service.startup, name="repro-startup", daemon=True
        )
        self._startup_thread.start()

    def _checkpoint_on_exit(self) -> None:
        """Best-effort flush + checkpoint so a clean shutdown leaves a
        snapshot and an empty WAL tail (fast next startup).  Failures are
        tolerable: the WAL already holds everything a restart needs."""
        database = self.service._db
        if database is None:
            return
        try:
            database.checkpoint()
        except Exception:
            pass

    @property
    def address(self) -> tuple[str, int]:
        """Bound (host, port) — resolves ``port=0`` to the actual port."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "QueryServer":
        """Serve in a daemon thread (tests, embedding); returns self."""
        self._begin_startup()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-server", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI ``serve`` command)."""
        self._begin_startup()
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def drain(self, grace: float | None = None) -> bool:
        """Graceful shutdown: refuse new queries, finish in-flight work
        (up to ``grace`` seconds), flush + checkpoint the durable store,
        then stop the HTTP loop and release the socket.  This is what the
        CLI's SIGTERM handler calls — clients see 503s they can retry,
        never dropped queries or a long WAL replay on the next boot."""
        clean = self.service.drain(grace)
        self._checkpoint_on_exit()
        self.stop()
        return clean

    def stop(self) -> None:
        """Cancel in-flight queries, stop accepting, release the socket
        and hang up on every open connection, idle or busy: a client that
        kept one sees EOF, never an answer from a stopped server."""
        self.service.cancel_event.set()
        self.service.draining.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        for connection in self.service.metrics.open_connections():
            with contextlib.suppress(OSError):  # already gone
                connection.shutdown(socket.SHUT_RDWR)  # its thread closes it
        if self._thread is not None and self._thread is not threading.current_thread():
            self._thread.join(timeout=5)
