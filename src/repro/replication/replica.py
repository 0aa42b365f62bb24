"""The replica: a WAL-shipping follower plus a read-only query server.

A :class:`ReplicationFollower` bootstraps from the primary's state
snapshot, then tails its WAL (long-polling ``POST /replication/wal``)
and replays every record through the **same function crash recovery
uses** — :meth:`repro.Database.apply_record` — so index epochs, view
epochs, and MVCC versions advance on the replica exactly as they did
live on the primary.

The follower's local store is itself a durable :class:`~repro.Database`,
and the two logs stay **record-for-record aligned** by construction: the
bootstrap writes the primary's state as a *local* snapshot at the
primary's LSN, so the local WAL bases there, and each applied primary
record logs exactly one local record.  ``applied_lsn`` is therefore just
the local ``wal_lsn`` — no side table, and a SIGKILLed replica resumes
from whatever its own recovery reports, torn tail discarded and all.
After every record the follower asserts the alignment; drift is fatal
(:class:`~repro.errors.ReplicationError`), never papered over.

:class:`ReplicaServer` is a :class:`QueryServer` whose service mounts
the follower plus the one thread that runs it; what a node with a
follower answers (``READ_ONLY_REPLICA`` to writes, wait-then-
``REPLICA_LAGGING`` to ``min_lsn`` reads) is decided in
:mod:`repro.replication.role`.  See ``docs/replication.md``.
"""

from __future__ import annotations

import dataclasses
import os
import random
import threading
from dataclasses import dataclass

from repro import Database
from repro.errors import InjectedFault, NotPrimary, ReplicationError, ReproError
from repro.faults import injector_from_env
from repro.replication.stream import SITE_STREAM_APPLY, decode_frames, frames_from_wire
from repro.service.client import ServiceClient
from repro.service.resilience import CircuitBreaker, RetryPolicy
from repro.sim.clock import SYSTEM_CLOCK
from repro.service.server import QueryServer, QueryService, ServerConfig
from repro.storage.wal import (
    WAL_NAME,
    DurabilityConfig,
    LogRecord,
    list_snapshots,
    snapshot_path,
    write_snapshot,
)


@dataclass(frozen=True)
class ReplicaConfig:
    """Tunables for one replica (follower + server)."""

    #: Base URL of the primary query server to stream from.
    primary_url: str
    #: Local directory for the replica's own durable store.  Survives a
    #: kill: on restart the follower recovers it and resumes tailing
    #: from its last applied LSN instead of re-bootstrapping.
    data_dir: str
    #: Long-poll budget per tail request (the primary answers sooner
    #: when a record lands); must stay below ``http_timeout``.
    poll_wait: float = 5.0
    #: Records per tail batch.
    max_records: int = 512
    #: HTTP timeout of the follower's client.
    http_timeout: float = 30.0
    #: Sync mode of the local store.  ``"none"`` is safe here — a
    #: replica that loses buffered records simply refetches them, its
    #: recovery truncating the local log back to a clean prefix.
    sync: str = "none"
    #: How long an injected ``replication.stream.apply`` fault stalls
    #: the follower (it then proceeds — a slow follower, not a dead one).
    stall_seconds: float = 0.05


class ReplicationFollower:
    """Tails the primary's WAL into a local database; owns the loop.

    ``on_install`` (optional callable) is invoked with the database
    object whenever one is (re)built — at bootstrap and after a full
    resync — so an embedding server can swap what it serves from
    (a :class:`QueryService` given this follower points it at ``attach``).
    """

    def __init__(
        self,
        config: ReplicaConfig,
        client: ServiceClient | None = None,
        on_install=None,
        rng: random.Random | None = None,
        clock=None,
        transport=None,
    ):
        self.config = config
        self._clock = clock or SYSTEM_CLOCK
        self._transport = transport
        self.client = client or self._client_for(config.primary_url)
        self.on_install = on_install
        self._db: Database | None = None
        self._cond = threading.Condition()
        #: Set by :meth:`close`; the streaming loop's stop signal.
        self.closed = threading.Event()
        #: The thread driving :meth:`run`, when one does (the simulator
        #: and hand-stepping tests have none); :meth:`halt` joins it.
        self.thread: threading.Thread | None = None
        self._rng = rng or random.Random()
        #: Set (with a reason) when apply detected drift; the follower
        #: refuses further work rather than serve divergent state.
        self.broken: str | None = None
        #: Newest primary LSN observed in any response (lag = this
        #: minus applied_lsn).
        self.primary_lsn = 0
        #: The fencing era this follower believes in: the max of every
        #: era record it applied and every repoint it accepted.  A tail
        #: response from a *lower* era is a stale ex-primary's stream
        #: and is rejected, never applied.
        self.era = 0
        self.counters = {
            "batches": 0,
            "records_applied": 0,
            "torn_batches": 0,
            "resyncs": 0,
            "fetch_errors": 0,
            "apply_stalls": 0,
            "stale_stream_rejected": 0,
            "truncations": 0,
        }

    def _client_for(self, primary_url: str) -> ServiceClient:
        # max_attempts=1: the follower loop is its own retry policy —
        # a fetch that fails backs off and refetches from applied_lsn,
        # which is always correct, so inner retries only hide lag.  The
        # same goes for the circuit breaker: a resting breaker would
        # keep the replication pipeline dark for its full reset timeout
        # after a partition heals, and every LSN the primary acks in
        # that dark window is one more acked write a failover can lose.
        # reset_timeout=0 keeps the fail-fast bookkeeping but always
        # admits the next (already rate-limited) poll.
        return ServiceClient(
            primary_url,
            timeout=self.config.http_timeout,
            retry_policy=RetryPolicy(max_attempts=1),
            breaker=CircuitBreaker(reset_timeout=0.0, clock=self._clock.monotonic),
            clock=self._clock,
            transport=self._transport,
        )

    # -- lifecycle ----------------------------------------------------------

    @property
    def db(self) -> Database:
        database = self._db
        if database is None:
            raise ReplicationError("follower is not bootstrapped")
        return database

    @property
    def applied_lsn(self) -> int:
        """The local WAL LSN — aligned with the primary's by design."""
        database = self._db
        return 0 if database is None else database.wal_lsn

    def bootstrap(self) -> Database:
        """Open (or build) the local store; returns the database.

        A data directory with prior state is *recovered*, not wiped:
        the replica resumes streaming from its own last clean LSN —
        this is the kill-and-rejoin path.  An empty directory gets a
        full state snapshot from the primary.
        """
        if self._db is not None:
            return self._db
        if self._has_local_state():
            db = Database.open(self.config.data_dir, durability=self._durability_config())
            self._install(db)
            return db
        return self._resync()

    def _has_local_state(self) -> bool:
        directory = self.config.data_dir
        if os.path.exists(os.path.join(directory, WAL_NAME)):
            return True
        return bool(list_snapshots(directory))

    def _durability_config(self) -> DurabilityConfig:
        return DurabilityConfig(data_dir=self.config.data_dir, sync=self.config.sync)

    def _resync(self) -> Database:
        """Full re-bootstrap: primary state snapshot -> local checkpoint.

        Writing the fetched state as a *local* ``snapshot.<lsn>`` file
        and recovering from it is the whole alignment trick: recovery
        bases the fresh local WAL at exactly the primary's LSN.
        """
        body = self.client.replication_snapshot()
        snapshot_era = int(body.get("era", 0))
        if snapshot_era < self.era:
            self.counters["stale_stream_rejected"] += 1
            raise NotPrimary(
                self.era,
                message=(
                    f"bootstrap snapshot is from era {snapshot_era}, a stale"
                    f" primary; this follower is at era {self.era}"
                ),
            )
        lsn, state = body["lsn"], body["state"]
        old, self._db = self._db, None
        if old is not None:
            old.close()
        self._wipe_data_dir()
        os.makedirs(self.config.data_dir, exist_ok=True)
        write_snapshot(snapshot_path(self.config.data_dir, lsn), lsn, state)
        db = Database.open(self.config.data_dir, durability=self._durability_config())
        if db.wal_lsn != lsn:
            raise ReplicationError(
                f"bootstrap misalignment: local store recovered to LSN"
                f" {db.wal_lsn}, primary snapshot claimed {lsn}"
            )
        self._install(db)
        return db

    def _wipe_data_dir(self) -> None:
        """Remove replication state files (WAL + snapshots), keep the dir."""
        directory = self.config.data_dir
        try:
            entries = os.listdir(directory)
        except OSError:
            return
        for entry in entries:
            if entry == WAL_NAME or entry.startswith("snapshot.") or entry.endswith(".tmp"):
                try:
                    os.remove(os.path.join(directory, entry))
                except OSError:
                    pass

    def _install(self, db: Database) -> None:
        self._db = db
        # A recovered (or freshly bootstrapped) store may carry era
        # records from before the kill; never move backwards.
        self.era = max(self.era, db.era)
        if self.on_install is not None:
            self.on_install(db)
        with self._cond:
            self._cond.notify_all()

    def repoint(self, primary_url: str, era: int | None = None) -> None:
        """Follow a different primary (failover): swap client + config.

        ``era`` is the coordinator's view of the current era; adopting
        it arms the stale-stream rejection immediately — a late tail
        response from the deposed primary (lower era) is refused even
        before the new primary's era record arrives in-stream.
        """
        self.config = dataclasses.replace(self.config, primary_url=primary_url)
        self.client = self._client_for(primary_url)
        if era is not None:
            self.era = max(self.era, era)

    # -- the streaming loop -------------------------------------------------

    def step(self, wait: float | None = None) -> int:
        """One fetch+apply round; returns how many records were applied.

        Raises the client's transport/service errors on fetch problems
        (the caller backs off and calls again) and
        :class:`ReplicationError` on apply drift (fatal).
        """
        if self.broken is not None:
            raise ReplicationError(f"follower is broken: {self.broken}")
        db = self.bootstrap()
        client = self.client
        body = client.replication_wal(
            from_lsn=db.wal_lsn,
            max_records=self.config.max_records,
            wait=self.config.poll_wait if wait is None else wait,
        )
        stream_era = int(body.get("era", 0))
        stream_era_lsn = int(body.get("era_lsn", 0))
        if stream_era < self.era:
            # A deposed primary's stream: refuse it wholesale.  Nothing
            # from an older era may be applied — not even records that
            # would happen to fit our LSN sequence, because they are the
            # divergent suffix the cluster already disowned.
            self.counters["stale_stream_rejected"] += 1
            raise NotPrimary(
                self.era,
                message=(
                    f"replication stream is from era {stream_era}, a stale"
                    f" primary; this follower is at era {self.era}"
                ),
            )
        boundaries = [(int(era), int(lsn)) for era, lsn in body.get("era_history", [])]
        if not boundaries and stream_era:
            boundaries = [(stream_era, stream_era_lsn)]
        if any(lsn and lsn <= db.wal_lsn and era > db.era for era, lsn in boundaries):
            # Rejoin-with-truncation: some reign's era record sits at an
            # LSN our log already reached, yet we never applied it — our
            # suffix past that point came from the old timeline (writes
            # the deposed primary acknowledged but never replicated).
            # Checking the full history (not just the newest era) covers
            # a node that slept through several failovers.  Truncate by
            # re-bootstrapping through the snapshot path.
            self.counters["truncations"] += 1
            self.counters["resyncs"] += 1
            self._resync()
            return 0
        self.primary_lsn = max(self.primary_lsn, int(body.get("last_lsn", 0)))
        if body.get("snapshot_required"):
            # A primary checkpoint truncated the records we still need
            # (we were down too long); start over from a state snapshot.
            self.counters["resyncs"] += 1
            self._resync()
            return 0
        frames = frames_from_wire(body.get("frames", ""))
        if not frames:
            return 0
        records, clean = decode_frames(frames, db.wal_lsn)
        if not clean:
            # Damaged in flight or deliberately torn by fault injection:
            # the clean prefix still applies; the rest is refetched.
            self.counters["torn_batches"] += 1
        if not records:
            return 0
        if self.closed.is_set() or client is not self.client:
            # Closed between fetch and apply (promotion in flight), or
            # repointed away from the primary that answered (failover): the
            # batch must not land on what is about to be a new timeline.
            return 0
        self.counters["batches"] += 1
        injector = injector_from_env()
        for record in records:
            self._apply_record(db, record, injector)
        return len(records)

    def _apply_record(self, db: Database, record: LogRecord, injector=None) -> None:
        """Apply one primary record (:meth:`repro.Database.apply_record`).

        That call logs exactly one local record whatever the kind — the
        invariant that keeps the local WAL aligned with the primary's;
        what is left here is the stall fault, the counters and the
        drift check that asserts the alignment.
        """
        if injector is not None:
            try:
                injector.maybe_fail(SITE_STREAM_APPLY)
            except InjectedFault:
                # A stalled follower, not a dead one: lag grows, the
                # min_lsn read gates feel it, and then we proceed.
                self.counters["apply_stalls"] += 1
                self._clock.sleep(self.config.stall_seconds)
        db.apply_record(record)
        self.era = max(self.era, db.era)
        self.counters["records_applied"] += 1
        if db.wal_lsn != record.lsn:
            self.broken = (
                f"applied-LSN drift: local log at {db.wal_lsn} after applying"
                f" primary record {record.lsn}"
            )
            raise ReplicationError(self.broken)
        with self._cond:
            self._cond.notify_all()

    def run(self, stop_event: threading.Event | None = None) -> None:
        """Stream until closed (or ``stop_event`` is set).  Fetch errors
        back off and refetch (refetching from ``applied_lsn`` is always
        correct); a stale stream (``NOT_PRIMARY``) backs off too — the
        coordinator will repoint us at the new leader; apply drift
        propagates after marking the follower broken.

        The backoff is :class:`RetryPolicy`'s, jittered by the
        constructor's ``rng`` so a fleet of replicas does not hammer a
        restarting primary in lockstep."""
        stop = stop_event or self.closed
        policy = RetryPolicy()
        failures = 0
        while not (self.closed.is_set() or stop.is_set()):
            try:
                self.step()
                failures = 0
                continue
            except NotPrimary:
                # The node we are tailing is a deposed primary; nothing
                # was applied.  Wait for a repoint rather than dying —
                # NotPrimary must be handled before its ReplicationError
                # base class, which is fatal here.
                pass
            except ReplicationError:
                raise
            except ReproError:
                self.counters["fetch_errors"] += 1
            # Bounded: the delay sits at its cap long before, and the
            # policy's power must stay finite.
            failures = min(failures + 1, 32)
            self._clock.wait(stop, policy.delay(failures, self._rng))

    def wait_for_lsn(self, lsn: int, timeout: float) -> int:
        """Block until ``applied_lsn >= lsn`` or ``timeout``; returns
        the applied LSN either way (the ``min_lsn`` read-gate wait)."""
        with self._cond:
            self._cond.wait_for(
                lambda: self.applied_lsn >= lsn or self.closed.is_set() or self.broken,
                timeout=timeout,
            )
            return self.applied_lsn

    def info(self) -> dict:
        """The ``/metrics`` replication section of a replica."""
        applied = self.applied_lsn
        primary = max(self.primary_lsn, applied)
        info = {
            "role": "replica",
            "primary_url": self.config.primary_url,
            "applied_lsn": applied,
            "primary_lsn": primary,
            "lag_records": primary - applied,
            "era": self.era,
            "broken": self.broken,
        }
        info.update(self.counters)
        return info

    def close(self) -> None:
        """Stop the loop and wake every read-gate waiter (idempotent)."""
        self.closed.set()
        with self._cond:
            self._cond.notify_all()

    def halt(self, timeout: float = 10.0) -> bool:
        """Stop the streaming loop for good; True once provably stopped.

        The promotion prerequisite: the loop's thread may be mid-way
        through a long poll against the (dead) old primary, and a batch
        it fetched before the era bump must never land on the new
        timeline.  ``close()`` makes the loop exit after its current
        step; the join bounds how long the caller waits for it.
        """
        self.close()
        thread = self.thread
        if thread is None or thread is threading.current_thread():
            return True
        thread.join(timeout)
        return not thread.is_alive()


class ReplicaServer:
    """One process's worth of replica: a :class:`QueryServer` whose
    service mounts the follower, plus the one thread that runs it.

    The server starts immediately and reports ``ready: false`` while the
    bootstrap (snapshot fetch or local recovery) runs on the startup
    thread — the same deferred-database machinery the primary uses for
    WAL replay.
    """

    def __init__(self, config: ReplicaConfig, server_config: ServerConfig | None = None):
        self.config = config
        self.follower = ReplicationFollower(config)
        self.server = QueryServer(
            QueryService(lambda: self.follower.bootstrap(), server_config, self.follower)
        )

    @property
    def url(self) -> str:
        return self.server.url

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    def _spawn_follower(self) -> None:
        self.follower.thread = threading.Thread(
            target=self._follow, name="repro-replication", daemon=True
        )
        self.follower.thread.start()

    def _follow(self) -> None:
        service = self.server.service
        # Event-driven hand-off: park on startup_finished (set on
        # success, failure, and shutdown) instead of polling ``ready`` at
        # 50 Hz — a parked replica burns no CPU while the primary-side
        # bootstrap or local recovery runs.
        service.startup_finished.wait()
        if service.startup_error is not None or not service.ready.is_set():
            return
        try:
            self.follower.run()
        except ReplicationError:
            # Recorded in follower.broken and surfaced via /metrics; the
            # server keeps answering reads at its last consistent LSN.
            pass

    def start(self) -> "ReplicaServer":
        self.server.start()
        self._spawn_follower()
        return self

    def serve_forever(self) -> None:
        """Follower on a daemon thread, HTTP on the calling thread (CLI)."""
        self._spawn_follower()
        self.server.serve_forever()

    def drain(self, grace: float | None = None) -> bool:
        """Graceful shutdown, the same one a primary gets (a promoted
        replica *is* one): finish in-flight queries, checkpoint at the
        applied LSN, release the socket (see :meth:`QueryServer.drain`)."""
        return self._shut_down(lambda: self.server.drain(grace))

    def stop(self) -> None:
        self._shut_down(self.server.stop)

    def _shut_down(self, stop_server):
        """Halt the follower, stop the server, close the store — in that
        order, so nothing is applied under a checkpoint or a closed log."""
        # Wake a _follow thread still parked on the startup hand-off
        # (shutdown before bootstrap finished, e.g. an unreachable primary).
        self.server.service.startup_finished.set()
        self.follower.halt(timeout=5)
        result = stop_server()
        database = self.follower._db
        if database is not None:
            database.close()
        return result
