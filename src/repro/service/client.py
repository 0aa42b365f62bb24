"""A small stdlib client for the repro SQL server.

:class:`ServiceClient` speaks the JSON protocol of
:mod:`repro.service.server` over kept HTTP/1.1 sockets
(:class:`~repro.sim.transport.HttpTransport`: checked before each send,
never re-sent on); structured error bodies are
re-raised as the matching :mod:`repro.errors` exception class, so client
code handles server-side failures exactly like embedded-library ones::

    from repro.service.client import ServiceClient

    client = ServiceClient("http://127.0.0.1:8080")
    result = client.query("SELECT A1 FROM r WHERE A4 > ?", params=[1500])
    print(result.columns, result.rows)

    with client.session() as session:
        stmt = session.prepare("SELECT A1 FROM r WHERE A4 > :lo")
        for lo in (100, 1000, 1500):
            print(lo, stmt.execute({"lo": lo}).rows)
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import (
    AdmissionRejected,
    BadRequestError,
    BudgetExceeded,
    NotPrimary,
    ParameterError,
    QueryCancelled,
    ReadOnlyReplica,
    ReplicaLagging,
    ReproError,
    ServiceUnavailable,
    SessionError,
)
from repro.service.resilience import CircuitBreaker, RetryPolicy
from repro.sim.clock import SYSTEM_CLOCK, Clock
from repro.sim.transport import HTTP_TRANSPORT, Transport

#: Error codes the client maps back to concrete exception classes;
#: anything else becomes a plain :class:`ServiceError` with that code.
_EXCEPTION_BY_CODE = {
    "SERVER_OVERLOADED": AdmissionRejected,
    "BAD_REQUEST": BadRequestError,
    "UNKNOWN_SESSION": SessionError,
    "PARAMETER_ERROR": ParameterError,
    "QUERY_CANCELLED": QueryCancelled,
    "SERVICE_UNAVAILABLE": ServiceUnavailable,
    "READ_ONLY_REPLICA": ReadOnlyReplica,
}


def _raise_for(error: dict) -> None:
    code = error.get("code", "SERVICE_ERROR")
    message = error.get("message", "unknown server error")
    if code == "QUERY_TIMEOUT":
        raise BudgetExceeded(message=message)
    if code == "REPLICA_LAGGING":
        # Reconstruct with the LSNs the replica reported so routing can
        # update its freshness estimate for that endpoint.
        raise ReplicaLagging(
            int(error.get("min_lsn", 0)),
            int(error.get("applied_lsn", 0)),
            message=message,
        )
    if code == "NOT_PRIMARY":
        # Reconstruct with the era and leader hint so the replica-set
        # client can fail the write over without a topology probe.
        leader_url = error.get("leader_url")
        raise NotPrimary(
            int(error.get("era", 0)),
            leader_url if isinstance(leader_url, str) else None,
            message=message,
        )
    exc_class = _EXCEPTION_BY_CODE.get(code)
    if exc_class is not None:
        raise exc_class(message)
    exc = ReproError(message)
    exc.code = code  # preserve the server's code on the generic fallback
    raise exc


@dataclass
class QueryResult:
    """One query's response: column names, row tuples, server timing.

    ``commit_lsn`` is set on responses from a durable primary — the WAL
    LSN after the statement, i.e. the causality token to hand a replica
    as ``min_lsn``.  ``applied_lsn`` is set on responses from a replica:
    how far it had replicated when it answered.
    """

    columns: list[str]
    rows: list[tuple]
    row_count: int
    truncated: bool
    elapsed: float
    commit_lsn: int | None = None
    applied_lsn: int | None = None
    #: The answering node's fencing era (None before any failover).
    era: int | None = None

    def __len__(self) -> int:
        return len(self.rows)


class ServiceClient:
    """Blocking JSON-over-HTTP client; one instance per base URL.

    Requests that fail *retryably* — the server is unreachable
    (``SERVICE_UNAVAILABLE``, including a drain/restart window), sheds
    load (``SERVER_OVERLOADED``, HTTP 429), or cancelled the query while
    draining — are retried under ``retry_policy`` with exponential
    backoff and jitter.  A :class:`~repro.service.resilience.
    CircuitBreaker` fails fast once the server has been unreachable for
    several consecutive transport attempts.  Pass
    ``retry_policy=RetryPolicy(max_attempts=1)`` for callers that must
    see every failure (e.g. DML, where a blind retry is not idempotent).

    ``sleep``/``rng``/``clock``/``transport`` exist for deterministic
    tests and the simulator; leave them alone in production code.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 60.0,
        retry_policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        sleep=None,
        rng: random.Random | None = None,
        clock: Clock | None = None,
        transport: Transport | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.http_timeout = timeout
        self.retry_policy = retry_policy or RetryPolicy()
        self._clock = clock or SYSTEM_CLOCK
        self.transport = transport or HTTP_TRANSPORT
        self.breaker = breaker or CircuitBreaker(clock=self._clock.monotonic)
        self._sleep = sleep if sleep is not None else self._clock.sleep
        self._rng = rng or random.Random()

    # -- transport ----------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        budget: float | None = None,
    ) -> dict:
        """One logical request = up to ``max_attempts`` transport attempts.

        ``budget`` is the caller's remaining time budget in seconds.
        Each attempt ships what is left as the ``budget`` request field
        (the server clamps its per-query timeout and read-gate wait to
        it), the transport timeout is clamped to it, and retries stop
        the moment it runs out — so stacked retry loops (routing over
        this client over the server) no longer compound.
        """
        deadline = None if budget is None else self._clock.monotonic() + budget
        attempt = 0
        while True:
            attempt += 1
            request_payload = payload
            timeout = self.http_timeout
            if deadline is not None:
                remaining = deadline - self._clock.monotonic()
                if remaining <= 0:
                    raise BudgetExceeded(message="request budget exhausted before attempt")
                request_payload = dict(payload or {})
                request_payload["budget"] = remaining
                timeout = min(timeout, max(remaining, 0.001))
            self.breaker.allow()
            try:
                body = self._request_once(method, path, request_payload, timeout)
            except ServiceUnavailable:
                self.breaker.record_failure()
                if not self._may_retry(attempt, deadline):
                    raise
                self._sleep(self._retry_delay(attempt, deadline))
                continue
            except ReproError as error:
                # The server answered — the transport works.
                self.breaker.record_success()
                if not getattr(error, "retryable", False):
                    raise
                if not self._may_retry(attempt, deadline):
                    raise
                self._sleep(self._retry_delay(attempt, deadline))
                continue
            self.breaker.record_success()
            return body

    def _may_retry(self, attempt: int, deadline: float | None) -> bool:
        if not self.retry_policy.should_retry(attempt):
            return False
        return deadline is None or self._clock.monotonic() < deadline

    def _retry_delay(self, attempt: int, deadline: float | None) -> float:
        delay = self.retry_policy.delay(attempt, self._rng)
        if deadline is not None:
            delay = min(delay, max(deadline - self._clock.monotonic(), 0.0))
        return delay

    def _request_once(
        self,
        method: str,
        path: str,
        payload: dict | None,
        timeout: float | None = None,
    ) -> dict:
        body = self.transport.request(
            self.base_url,
            method,
            path,
            payload,
            self.http_timeout if timeout is None else timeout,
        )
        if isinstance(body, dict) and "error" in body:
            _raise_for(body["error"])
        return body

    # -- one-shot queries ---------------------------------------------------

    def query(
        self,
        sql: str,
        params=None,
        strategy: str = "auto",
        timeout: float | None = None,
        engine: str | None = None,
        min_lsn: int | None = None,
        lsn_wait: float | None = None,
        era: int | None = None,
        budget: float | None = None,
    ) -> QueryResult:
        """Run one statement.  Against a replica, ``min_lsn`` demands the
        answer reflect at least that commit LSN (waiting up to
        ``lsn_wait`` seconds for replication) — pass the ``commit_lsn``
        of your own write for read-your-writes.  ``era`` stamps a write
        with the fencing era the caller believes in: a node holding an
        older era fences itself and refuses with ``NOT_PRIMARY`` instead
        of acknowledging a write the cluster would not honor.
        ``budget`` bounds the whole call — retries included — and is
        forwarded so the server clamps its own timeout to it."""
        payload = _payload(
            {"sql": sql, "strategy": strategy}, engine=engine, params=params,
            timeout=timeout, min_lsn=min_lsn, lsn_wait=lsn_wait, era=era,
        )
        return _result(self._request("POST", "/query", payload, budget=budget))

    # -- sessions and prepared statements -----------------------------------

    def session(self, pin_snapshot: bool = False) -> "ClientSession":
        payload = {"pin_snapshot": True} if pin_snapshot else {}
        body = self._request("POST", "/session", payload)
        session = ClientSession(self, body["session"])
        session.snapshot_lsn = body.get("snapshot_lsn")
        return session

    # -- operations ---------------------------------------------------------

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def shutdown(self) -> dict:
        return self._request("POST", "/shutdown")

    # -- replication stream (used by the replica's follower) ----------------

    def replication_snapshot(self) -> dict:
        """Fetch the primary's full-state bootstrap payload."""
        return self._request("POST", "/replication/snapshot", {})

    def replication_wal(
        self,
        from_lsn: int,
        max_records: int | None = None,
        wait: float | None = None,
    ) -> dict:
        """Fetch raw WAL frames past ``from_lsn`` (long-polls ``wait``s)."""
        payload = _payload({"from_lsn": from_lsn}, max_records=max_records, wait=wait)
        return self._request("POST", "/replication/wal", payload)

    # -- cluster control (used by the failover coordinator) ------------------

    def replication_topology(self) -> dict:
        """The node's own view of its role, era, and log position."""
        return self._request("POST", "/replication/topology", {})

    def replication_promote(self, era: int) -> dict:
        """Promote the node to primary of ``era`` (durable era record)."""
        return self._request("POST", "/replication/promote", {"era": era})

    def replication_demote(self, era: int, leader_url: str | None = None) -> dict:
        """Fence the node: a newer ``era`` reigns (optionally: where)."""
        payload = _payload({"era": era}, leader_url=leader_url)
        return self._request("POST", "/replication/demote", payload)

    def replication_repoint(self, leader_url: str, era: int) -> dict:
        """Point a replica's follower at a (newly promoted) primary."""
        return self._request(
            "POST", "/replication/repoint", {"leader_url": leader_url, "era": era}
        )


class ClientSession:
    """A server session; usable as a context manager (closes on exit)."""

    def __init__(self, client: ServiceClient, session_id: str):
        self.client = client
        self.id = session_id
        #: The LSN this session reads at, or None when unpinned.
        self.snapshot_lsn: int | None = None

    def prepare(self, sql: str, strategy: str = "auto") -> "ClientStatement":
        body = self.client._request(
            "POST", "/prepare", {"session": self.id, "sql": sql, "strategy": strategy}
        )
        return ClientStatement(self, body["statement"], body["params"])

    def query(
        self,
        sql: str,
        params=None,
        strategy: str = "auto",
        timeout: float | None = None,
        engine: str | None = None,
    ) -> QueryResult:
        """Ad-hoc query inside this session (reads its pinned snapshot)."""
        payload = _payload(
            {"sql": sql, "strategy": strategy, "session": self.id},
            engine=engine, params=params, timeout=timeout,
        )
        return _result(self.client._request("POST", "/query", payload))

    def pin(self) -> int:
        """Pin (or move the pin) to the current commit LSN; returns it."""
        body = self.client._request("POST", "/session/pin", {"session": self.id})
        self.snapshot_lsn = body["snapshot_lsn"]
        return self.snapshot_lsn

    def unpin(self) -> None:
        self.client._request("POST", "/session/unpin", {"session": self.id})
        self.snapshot_lsn = None

    def close(self) -> None:
        self.client._request("POST", "/session/close", {"session": self.id})

    def __enter__(self) -> "ClientSession":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.close()
        except ReproError:
            pass  # session may be gone if the server restarted


class ClientStatement:
    """A prepared statement handle living in a server session."""

    def __init__(self, session: ClientSession, statement_id: str, params: dict):
        self.session = session
        self.id = statement_id
        self.params = params  # {"positional": n, "named": [...]}

    def execute(
        self,
        params=None,
        timeout: float | None = None,
        engine: str | None = None,
    ) -> QueryResult:
        payload = _payload(
            {"session": self.session.id, "statement": self.id},
            engine=engine, params=params, timeout=timeout,
        )
        return _result(self.session.client._request("POST", "/execute", payload))


def _payload(fields: dict, **optional) -> dict:
    """``fields`` plus each ``optional`` one the caller named (not None):
    a field left out is the server's default — the engine's among them."""
    return fields | {key: value for key, value in optional.items() if value is not None}


def _result(body: dict) -> QueryResult:
    rows = body["rows"]  # a frame's rows are tuples already, JSON's are lists
    return QueryResult(
        columns=body["columns"],
        rows=list(rows) if rows and type(rows[0]) is tuple else [tuple(row) for row in rows],
        row_count=body["row_count"],
        truncated=body["truncated"],
        elapsed=body["elapsed"],
        commit_lsn=body.get("commit_lsn"),
        applied_lsn=body.get("applied_lsn"),
        era=body.get("era"),
    )
