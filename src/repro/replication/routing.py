"""Read/write-split routing over a primary plus a set of read replicas.

:class:`ReplicaSetClient` composes the existing resilience pieces — one
:class:`~repro.service.client.ServiceClient` per endpoint, each with its
own circuit breaker — into a topology-aware client:

* **writes** go to the current primary; its response's ``commit_lsn`` is
  remembered as the session's causality token;
* **reads** prefer replicas, rotating among the ones believed fresh
  enough (lag-aware: each response's ``applied_lsn`` updates a local
  estimate) and carrying ``min_lsn = last written commit_lsn`` so a
  replica can never answer staler than this client's own writes;
* a replica that is lagging (``REPLICA_LAGGING``), unreachable, tripped
  its breaker, or shedding load is skipped for the next candidate, and
  the **primary is the final fallback** — a read never fails because
  replicas do when the primary could have answered it.

**Write failover** (the failover protocol's client side): every write
carries the newest fencing ``era`` this client has seen.  A write that
answers ``NOT_PRIMARY`` — or cannot reach the primary at all — triggers
leader re-discovery: adopt the leader the error names, or poll
``/replication/topology`` on every known endpoint and adopt the leader
the failover coordinator would (:func:`~repro.replication.failover.
reigning_leader`).  The write then retries
against the new leader, bounded by the endpoint count.  On a leader
change the causality token is clamped to the new leader's ``wal_lsn``:
writes the deposed primary acknowledged but never replicated are lost by
design (they were never durable on the surviving timeline), and a token
demanding them would make every future read fail.

Per-endpoint retry policies are ``max_attempts=1`` on purpose: this
layer *is* the retry policy, and failing over to a different endpoint
beats hammering the same one.
"""

from __future__ import annotations

import threading

from repro.errors import (
    AdmissionRejected,
    BudgetExceeded,
    CircuitOpen,
    NotPrimary,
    ReplicaLagging,
    ReproError,
    ServiceUnavailable,
)
from repro.replication.failover import NodeView, reigning_leader
from repro.service.client import QueryResult, ServiceClient
from repro.service.resilience import RetryPolicy
from repro.sim.clock import SYSTEM_CLOCK, Clock
from repro.sim.transport import Transport

#: Errors that mean "try the next endpoint", not "fail the read".
_FAILOVER_ERRORS = (ServiceUnavailable, CircuitOpen, AdmissionRejected)


class ReplicaSetClient:
    """A read/write-splitting client over one primary and N replicas."""

    def __init__(
        self,
        primary_url: str,
        replica_urls: tuple | list = (),
        timeout: float = 60.0,
        lsn_wait: float = 2.0,
        read_your_writes: bool = True,
        sleep=None,
        clock: Clock | None = None,
        transport: Transport | None = None,
        budget: float | None = None,
    ):
        self._timeout = timeout
        self._clock = clock or SYSTEM_CLOCK
        self._transport = transport
        self._sleep = sleep if sleep is not None else self._clock.sleep
        #: Default per-operation time budget (seconds) covering *all*
        #: failover attempts of one execute()/query() call; None keeps
        #: the historical unbounded behavior.
        self.budget = budget
        self._lock = threading.Lock()
        #: Every endpoint ever known, keyed by normalized URL.  Clients
        #: are cached so breaker state survives role changes.
        self._endpoints: dict[str, ServiceClient] = {}
        self.primary = self._client(primary_url)
        self.replicas = [self._client(url) for url in replica_urls]
        #: Per-replica freshness estimate (applied LSN from responses).
        self._applied = {client.base_url: 0 for client in self.replicas}
        self.lsn_wait = lsn_wait
        self.read_your_writes = read_your_writes
        #: The causality token: the commit LSN of this client's newest
        #: acknowledged write (0 = never wrote).
        self.last_commit_lsn = 0
        #: Newest fencing era observed in any response or error; rides
        #: on every write so a deposed primary self-fences on contact.
        self.era = 0
        self._rr = 0
        self.counters = {
            "primary_reads": 0,
            "replica_reads": 0,
            "writes": 0,
            "failovers": 0,
            "lagging_redirects": 0,
            "write_failovers": 0,
            "leader_changes": 0,
            "topology_refreshes": 0,
        }

    def _client(self, url: str) -> ServiceClient:
        url = url.rstrip("/")
        with self._lock:
            client = self._endpoints.get(url)
            if client is None:
                client = ServiceClient(
                    url,
                    timeout=self._timeout,
                    retry_policy=RetryPolicy(max_attempts=1),
                    sleep=self._sleep,
                    clock=self._clock,
                    transport=self._transport,
                )
                self._endpoints[url] = client
            return client

    def _deadline(self, budget: float | None) -> float | None:
        if budget is None:
            budget = self.budget
        return None if budget is None else self._clock.monotonic() + budget

    def _remaining(self, deadline: float | None) -> float | None:
        return None if deadline is None else deadline - self._clock.monotonic()

    # -- writes -------------------------------------------------------------

    def execute(
        self,
        sql: str,
        params=None,
        strategy: str = "auto",
        timeout: float | None = None,
        engine: str = "row",
        budget: float | None = None,
    ) -> QueryResult:
        """Run a write on the current primary; fail over if it is deposed.

        Bounded at ``len(endpoints) + 1`` attempts: enough to walk the
        whole cluster once after a re-discovery, never an infinite loop.
        ``budget`` additionally bounds the *whole* call in seconds: the
        remaining budget rides on each attempt (the server clamps its
        query timeout to it) and attempts stop once it is spent, so the
        routing retries and the per-endpoint retries cannot compound.
        Raises the last error when every attempt fails — with all nodes
        down that is a clean retryable ``SERVICE_UNAVAILABLE``.
        """
        deadline = self._deadline(budget)
        last_error = None
        attempts = len(self._endpoints) + 1
        for _ in range(attempts):
            remaining = self._remaining(deadline)
            if remaining is not None and remaining <= 0:
                break
            client = self.primary
            try:
                result = client.query(
                    sql,
                    params=params,
                    strategy=strategy,
                    timeout=timeout,
                    engine=engine,
                    era=self.era or None,
                    budget=remaining,
                )
            except NotPrimary as error:
                last_error = error
                with self._lock:
                    self.counters["write_failovers"] += 1
                    self.era = max(self.era, error.era)
                if error.leader_url and error.leader_url.rstrip("/") != client.base_url:
                    self._adopt_leader(error.leader_url)
                else:
                    self._rediscover()
                continue
            except _FAILOVER_ERRORS as error:
                last_error = error
                with self._lock:
                    self.counters["write_failovers"] += 1
                self._rediscover()
                continue
            with self._lock:
                self.counters["writes"] += 1
                if result.era:
                    self.era = max(self.era, result.era)
                if result.commit_lsn:
                    self.last_commit_lsn = max(self.last_commit_lsn, result.commit_lsn)
            return result
        if last_error is not None:
            raise last_error
        if deadline is not None and self._remaining(deadline) <= 0:
            raise BudgetExceeded(message="write budget exhausted before any attempt")
        raise ServiceUnavailable("replica set has no endpoints configured")

    # -- leader discovery ---------------------------------------------------

    def _adopt_leader(self, url: str) -> None:
        """Route writes at ``url`` from now on; drop it from read rotation."""
        client = self._client(url)
        with self._lock:
            if client is self.primary:
                return
            self.counters["leader_changes"] += 1
            old = self.primary
            self.primary = client
            self.replicas = [c for c in self.replicas if c is not client]
            self._applied.pop(client.base_url, None)
            # The deposed primary is *not* added to the read rotation:
            # until the coordinator repoints it, its state is suspect
            # (it may hold a divergent suffix).  Reads re-learn it once
            # a re-discovery sees it serving as a replica.
            self.replicas = [c for c in self.replicas if c is not old]
            self._applied.pop(old.base_url, None)

    def _rediscover(self) -> bool:
        """Poll every known endpoint's topology; adopt the current leader.

        The leader and the newest era are :func:`~repro.replication.
        failover.reigning_leader`'s, over every answer and this client's
        own era.  On a leader *change* the causality token is clamped to
        the new leader's ``wal_lsn`` — see the module docstring for why
        acked-but-unreplicated writes are lost.  Returns True when a
        leader was found.
        """
        with self._lock:
            self.counters["topology_refreshes"] += 1
            clients = list(self._endpoints.values())
            known_era = self.era
        views: dict[str, NodeView] = {}
        for client in clients:
            try:
                body = client.replication_topology()
            except ReproError:
                continue
            views[client.base_url] = NodeView.from_topology(client.base_url, body)
        era, leader = reigning_leader(views.values(), known_era)
        with self._lock:
            self.era = max(self.era, era)
        if leader is None:
            return False
        changed = leader.url != self.primary.base_url
        self._adopt_leader(leader.url)
        with self._lock:
            # A primary's applied_lsn is its wal_lsn.
            if changed and self.last_commit_lsn > leader.applied_lsn:
                self.last_commit_lsn = leader.applied_lsn
            replicas = []
            applied = {}
            for client in clients:
                view = views.get(client.base_url)
                if view is None or view is leader:
                    continue
                if view.role == "replica" and not view.broken:
                    replicas.append(client)
                    applied[client.base_url] = max(
                        self._applied.get(client.base_url, 0), view.applied_lsn
                    )
            if replicas or changed:
                self.replicas = replicas
                self._applied = applied
        return True

    # -- reads --------------------------------------------------------------

    def query(
        self,
        sql: str,
        params=None,
        strategy: str = "auto",
        timeout: float | None = None,
        engine: str = "row",
        min_lsn: int | None = None,
        budget: float | None = None,
    ) -> QueryResult:
        """Run a read, preferring replicas; never staler than ``min_lsn``.

        ``min_lsn`` defaults to this client's own last write (when
        ``read_your_writes`` is on), which is exactly the
        read-your-writes guarantee; pass an explicit token to read
        no-staler-than someone else's write instead.  The token is sent
        to the primary fallback too: during a failover window a deposed
        primary must fail the read (retryably) rather than serve an
        answer staler than the client's own write on the new timeline.
        ``budget`` bounds the whole call across every endpoint and both
        rounds — without it, a set of lagging replicas each waiting out
        ``lsn_wait`` turns one read into a retry storm.
        """
        if min_lsn is None:
            min_lsn = self.last_commit_lsn if self.read_your_writes else 0
        deadline = self._deadline(budget)
        last_error = None
        budget_spent = False
        for round_no in range(2):
            for client in self._read_order(min_lsn):
                remaining = self._remaining(deadline)
                if remaining is not None and remaining <= 0:
                    budget_spent = True
                    break
                is_primary = client is self.primary
                try:
                    # era stamps the read with the newest reign this
                    # client has seen: a node still on an older timeline
                    # must refuse rather than satisfy the LSN gate with
                    # divergent history (see the server's causality gate).
                    result = client.query(
                        sql,
                        params=params,
                        strategy=strategy,
                        timeout=timeout,
                        engine=engine,
                        min_lsn=min_lsn or None,
                        lsn_wait=None if is_primary else self.lsn_wait,
                        era=self.era or None,
                        budget=remaining,
                    )
                except ReplicaLagging as error:
                    with self._lock:
                        self.counters["lagging_redirects"] += 1
                        if not is_primary:
                            self._applied[client.base_url] = error.applied_lsn
                    last_error = error
                    continue
                except _FAILOVER_ERRORS as error:
                    with self._lock:
                        self.counters["failovers"] += 1
                    last_error = error
                    continue
                with self._lock:
                    key = "primary_reads" if is_primary else "replica_reads"
                    self.counters[key] += 1
                    if result.era:
                        self.era = max(self.era, result.era)
                    if result.applied_lsn is not None and not is_primary:
                        self._applied[client.base_url] = max(
                            self._applied.get(client.base_url, 0), result.applied_lsn
                        )
                return result
            # Exhausted every endpoint.  When the failure smells like a
            # topology change (unreachable primary, every replica behind
            # the token), one re-discovery buys one more round.
            if (
                round_no == 0
                and not budget_spent
                and isinstance(last_error, (*_FAILOVER_ERRORS, ReplicaLagging, NotPrimary))
                and self._rediscover()
            ):
                continue
            break
        if last_error is not None:
            raise last_error
        if budget_spent:
            raise BudgetExceeded(message="read budget exhausted before any attempt")
        raise ServiceUnavailable("replica set has no endpoints configured")

    def _read_order(self, min_lsn: int) -> list[ServiceClient]:
        """Fresh replicas round-robin, then stale ones freshest-first,
        then the primary as the fallback of last resort."""
        with self._lock:
            replicas = [c for c in self.replicas if c is not self.primary]
            fresh = [c for c in replicas if self._applied.get(c.base_url, 0) >= min_lsn]
            stale = sorted(
                (c for c in replicas if self._applied.get(c.base_url, 0) < min_lsn),
                key=lambda c: self._applied.get(c.base_url, 0),
                reverse=True,
            )
            if fresh:
                pivot = self._rr % len(fresh)
                self._rr += 1
                fresh = fresh[pivot:] + fresh[:pivot]
            primary = self.primary
        return [*fresh, *stale, primary]

    # -- introspection ------------------------------------------------------

    def info(self) -> dict:
        with self._lock:
            info = dict(self.counters)
            info["last_commit_lsn"] = self.last_commit_lsn
            info["era"] = self.era
            info["primary_url"] = self.primary.base_url
            info["replica_applied"] = dict(self._applied)
        return info
