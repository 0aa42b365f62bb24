"""One cluster node's role: primary, fenced primary, replica, promoted.

A node is a **replica** while it has a follower and a **primary** once it
has none — promotion halts the follower and drops it, and from then on
every method below takes the same branch it takes on a node that was
born a primary.  A primary is additionally **fenced** or not.  That is
the whole state: ``follower``, ``fenced`` / ``fenced_era`` /
``leader_url``.  Each decision the failover protocol rests on — may this
node acknowledge a write, may it serve this causal read, what does it
tell the coordinator — is made here and nowhere else; the server only
parses request fields and calls in (``docs/replication.md`` has the
state × method table this module mirrors).
"""

from __future__ import annotations

import threading

from repro.errors import (
    InjectedFault,
    NotPrimary,
    ReadOnlyReplica,
    ReplicaLagging,
    ReplicationError,
    ServiceUnavailable,
)
from repro.faults import injector_from_env
from repro.replication.stream import SITE_STREAM_SERVE, SITE_STREAM_TORN, frames_to_wire


class NodeRole:
    """The role state machine of one node.

    ``database`` is a zero-argument callable returning the node's
    attached :class:`~repro.Database` (raising ``SERVICE_UNAVAILABLE``
    while recovery or a bootstrap is still running); ``follower`` is the
    :class:`~repro.replication.replica.ReplicationFollower` feeding it,
    or ``None`` on a primary.
    """

    def __init__(self, database, follower=None, advertise_url=None, fenced=False):
        self._database = database
        self.follower = follower
        self.advertise_url = advertise_url
        # ``fenced`` starts from config; ``fenced_era`` remembers the era
        # that fenced us (0 when fenced at startup before hearing one);
        # ``leader_url`` is the best-known leader to redirect writers to.
        self._lock = threading.Lock()
        self.fenced = fenced
        self.fenced_era = 0
        self.leader_url: str | None = None
        self.counters = {
            "snapshots_served": 0,
            "tails_served": 0,
            "records_streamed": 0,
            "torn_frames_injected": 0,
        }
        self.not_primary_rejections = 0

    def _store_era(self) -> tuple[int, int]:
        """``(era, era_lsn)`` of the served store; zeros until a replica's
        bootstrap attaches one (it answers topology probes before that)."""
        try:
            database = self._database()
        except ServiceUnavailable:
            return 0, 0
        return database.era, database.era_lsn

    def _count(self, **deltas: int) -> None:
        with self._lock:
            for key, delta in deltas.items():
                self.counters[key] += delta

    # -- request gates -------------------------------------------------------

    def check_write(self, era: int | None) -> None:
        """Refuse writes a replica never takes, or a primary no longer may.

        A replica refuses outright.  A primary refuses once its reign is
        over (split-brain guard), on two triggers: the node is *fenced*
        (demoted by the coordinator, or started fenced after a crash), or
        the request itself carries an ``era`` newer than ours — proof the
        cluster promoted someone else while we were isolated; we fence in
        place and answer this and every later write with ``NOT_PRIMARY``.
        """
        if self.follower is not None:
            raise ReadOnlyReplica(
                "this server is a read-only replica; send writes to the primary"
            )
        own_era = self._database().era
        with self._lock:
            if self.fenced:
                self.not_primary_rejections += 1
                raise NotPrimary(max(self.fenced_era, own_era), self.leader_url)
            if era is not None and era > own_era:
                self.fenced = True
                self.fenced_era = era
                self.not_primary_rejections += 1
                raise NotPrimary(era, self.leader_url)

    def check_read(self, min_lsn: int | None, era: int | None, wait: float = 0.0) -> None:
        """Honor ``min_lsn`` / ``era`` on a read, or refuse retryably.

        Every refusal is ``REPLICA_LAGGING`` — the replica-set client
        moves on to a node that can actually honor the read.  ``wait`` is
        how long a replica may park for replication to catch up; a
        primary fails fast.
        """
        if min_lsn is None and not era:
            return
        follower = self.follower
        if follower is None:
            self._check_primary_read(min_lsn, era)
        else:
            self._check_replica_read(follower, min_lsn, era, wait)

    def _check_primary_read(self, min_lsn: int | None, era: int | None) -> None:
        """On a healthy primary every commit is already visible, so this
        never fires for tokens the node itself issued.  It exists for
        the failover window, and LSNs alone are not enough there: a
        deposed primary's log keeps the divergent suffix it acknowledged
        while isolated, so its ``wal_lsn`` can *pass* a token the new
        timeline issued while the data behind it is a different history.
        The era closes that hole — a read stamped with era N may only be
        served by a node that has proven era N's timeline:

        * a **fenced** node refuses every causal read (era- or
          token-stamped): it froze with a possibly-divergent suffix and
          cannot tell which of its records the cluster kept;
        * an unfenced node seeing ``era`` newer than its own is deposed
          and just found out — it fences in place (same as the write
          gate) and refuses;
        * otherwise the plain LSN gate applies.
        """
        database = self._database()
        applied = database.wal_lsn
        own_era = database.era
        with self._lock:
            if self.fenced:
                raise ReplicaLagging(
                    min_lsn or 0,
                    applied,
                    message=(
                        f"this node is fenced (era {max(self.fenced_era, own_era)});"
                        " its log may diverge from the surviving timeline —"
                        " retry on the current primary or a repointed replica"
                    ),
                )
            if era and era > own_era:
                self.fenced = True
                self.fenced_era = era
                raise ReplicaLagging(
                    min_lsn or 0,
                    applied,
                    message=(
                        f"read is stamped with era {era} but this node only"
                        f" reached era {own_era}; it is deposed and now fenced"
                    ),
                )
        if min_lsn is not None and applied < min_lsn:
            raise ReplicaLagging(min_lsn, applied)

    def _check_replica_read(self, follower, min_lsn: int | None, era: int | None, wait: float):
        """Wait up to ``wait`` for the token, then serve or refuse.

        The era check guards the timeline, not the position: a replica
        still tailing a deposed primary can hold *old-timeline* LSNs far
        past a new-timeline token, so an LSN-only gate would serve it
        stale-history data.  A read stamped with era N is refused
        until this replica has both heard of era N *and* applied its
        boundary record — between a repoint (which arms
        ``follower.era``) and the in-stream era record (which advances
        the store's era and truncates any divergent suffix first), the
        local log is still unproven.
        """
        if era:
            db_era = self._store_era()[0]
            if era > max(db_era, follower.era):
                raise ReplicaLagging(
                    min_lsn or 0,
                    follower.applied_lsn,
                    message=(
                        f"read is stamped with era {era} but this replica only"
                        f" reached era {max(db_era, follower.era)}; it may still"
                        " be tailing a deposed primary"
                    ),
                )
            if follower.era > db_era:
                raise ReplicaLagging(
                    min_lsn or 0,
                    follower.applied_lsn,
                    message=(
                        f"replica is armed with era {follower.era} but has not"
                        f" applied its boundary record yet (local era {db_era});"
                        " the local log is unproven until the stream truncates"
                        " or confirms it"
                    ),
                )
        if min_lsn is None:
            return
        applied = follower.applied_lsn
        if applied < min_lsn:
            applied = follower.wait_for_lsn(min_lsn, wait)
        if applied < min_lsn:
            raise ReplicaLagging(min_lsn, applied)

    def annotate(self, body: dict) -> dict:
        """Stamp the causality token on a query response.

        A primary stamps ``commit_lsn``, the WAL LSN after this
        statement: a client that just wrote can demand
        ``min_lsn=commit_lsn`` from any replica — read-your-writes
        without waiting for replication on the write path itself.  A
        replica stamps how far it has applied, not a commit it performed
        (it performs none).
        """
        follower = self.follower
        if follower is None:
            database = self._database()
            lsn = database.wal_lsn
            if lsn:
                body["commit_lsn"] = lsn
            era = database.era
        else:
            body["applied_lsn"] = follower.applied_lsn
            era = max(self._store_era()[0], follower.era)
        if era:
            body["era"] = era
        return body

    # -- cluster control -----------------------------------------------------

    def topology(self) -> dict:
        """The node's own view of the cluster: role, era, log position.

        A replica answers before its bootstrap has attached a store (the
        coordinator probes it), is never fenced, and adds ``broken``.
        """
        follower = self.follower
        if follower is not None:
            db_era, era_lsn = self._store_era()
            era, lsn = max(db_era, follower.era), follower.applied_lsn
            fenced, fenced_era, leader = False, 0, follower.config.primary_url
        else:
            database = self._database()
            era, era_lsn, lsn = database.era, database.era_lsn, database.wal_lsn
            with self._lock:
                fenced, fenced_era, leader = self.fenced, self.fenced_era, self.leader_url
            if not fenced and leader is None:
                leader = self.advertise_url
        body = {
            "role": "primary" if follower is None else "replica",
            "fenced": fenced,
            "fenced_era": fenced_era,
            "era": era,
            "era_lsn": era_lsn,
            "wal_lsn": lsn,
            "applied_lsn": lsn,
            "leader_url": leader,
        }
        if follower is not None:
            body["broken"] = follower.broken
        return body

    def promote(self, era: int) -> dict:
        """Install (or confirm) a reign: bump the era durably, unfence.

        On a primary, ``era`` equal to ours confirms an existing reign
        (unfencing a ``fenced=True`` startup); a newer one is written as
        an ``era`` WAL control record — the first record of the new
        reign, whose LSN is what rejoining nodes use to detect divergent
        suffixes.

        On a replica the era must be strictly newer, and the era bump is
        the commit point — a promotion that fails before it leaves the
        node a plain replica.  The follower must be provably stopped
        first so no stale in-flight batch can land on the new timeline;
        if it is still draining a long poll the promotion fails
        retryably and the coordinator tries again.
        """
        database = self._database()
        follower = self.follower
        if follower is None:
            own_era = database.era
            if era < own_era:
                raise ReplicationError(
                    f"stale promotion: era {era} is behind this node's era {own_era}"
                )
            if era > own_era:
                database.bump_era(era)
        else:
            if follower.broken is not None:
                raise ReplicationError(
                    f"cannot promote a broken follower: {follower.broken}"
                )
            current = max(database.era, follower.era)
            if era <= current:
                raise ReplicationError(
                    f"stale promotion: era {era} is not newer than this node's era {current}"
                )
            if not follower.halt():
                raise ServiceUnavailable(
                    "follower thread is still draining its last poll; retry promotion"
                )
            follower.era = max(follower.era, era)
            database.bump_era(era)
            self.follower = None
        with self._lock:
            self.fenced = False
            self.fenced_era = 0
            self.leader_url = self.advertise_url
        return {
            "promoted": True,
            "role": "primary",
            "era": database.era,
            "era_lsn": database.era_lsn,
            "applied_lsn": database.wal_lsn,
        }

    def demote(self, era: int, leader_url: str | None = None) -> dict:
        """Fence this node: a newer era reigns elsewhere — or the *same*
        era does, on a different node.

        Same-era demotion is how a concurrent-promotion race converges:
        when two coordinators (or an operator's ``repro promote`` racing
        the coordinator) install the same era on two nodes, exactly one
        of them — the lowest-URL primary at the newest era, the same
        deterministic rule every coordinator applies — keeps the reign,
        and the loser is fenced *at* that era.  Only an era strictly
        older than ours is refused.

        Deliberately does NOT write an era record — the new era's WAL
        record belongs to the new primary's timeline, and logging it
        here would defeat the divergence detection a rejoin relies on.
        The fence is in-memory; a restarted ex-primary must come back
        ``fenced=True`` (the CLI's ``--fenced``) or will fence itself on
        the first era-carrying write it sees.  A replica records the
        fence too, to no effect: its gates never consult it and a
        promotion clears it.
        """
        own_era = self._database().era
        with self._lock:
            if era < own_era:
                raise ReplicationError(
                    f"demotion era {era} is behind this node's era {own_era}"
                )
            self.fenced = True
            self.fenced_era = max(self.fenced_era, era)
            if leader_url:
                self.leader_url = leader_url
            return {"fenced": True, "era": self.fenced_era, "leader_url": self.leader_url}

    def repoint(self, leader_url: str, era: int) -> dict:
        """Follow a different primary (the coordinator heals topology)."""
        follower = self.follower
        if follower is None:
            raise ReplicationError("only replicas can be repointed at a new primary")
        if era < follower.era:
            raise ReplicationError(
                f"stale repoint: era {era} is behind this follower's era {follower.era}"
            )
        follower.repoint(leader_url, era)
        return {"repointed": True, "leader_url": leader_url, "era": follower.era}

    # -- replication stream (serving side) -----------------------------------

    def _stream_header(self, database) -> dict:
        """The era this stream speaks for: a follower on a newer era
        rejects the batch; one whose log already reaches a reign
        boundary it never applied knows it diverged.  The full
        (era, era_lsn) history rides along so even a node that slept
        through several failovers can spot the first reign record its
        own log missed."""
        return {
            "era": database.era,
            "era_lsn": database.era_lsn,
            "era_history": [list(entry) for entry in database.pruned_era_history()],
        }

    def snapshot(self) -> dict:
        """Full-state bootstrap for a new (or resyncing) replica.

        Returns the snapshot-file state shape at a consistent LSN; the
        follower writes it as a *local* snapshot so its own WAL bases at
        the same LSN and stays record-for-record aligned with ours.
        """
        injector = injector_from_env()
        if injector is not None:
            injector.maybe_fail(SITE_STREAM_SERVE)
        database = self._database()
        snapshot = database.replication_snapshot()
        self._count(snapshots_served=1)
        return {
            "lsn": snapshot["lsn"],
            "state": snapshot["state"],
            "commit_lsn": snapshot["lsn"],
            **self._stream_header(database),
        }

    def wal_tail(self, from_lsn: int, max_records: int, wait: float) -> dict:
        """Stream WAL frames after ``from_lsn`` (long-polls up to ``wait``).

        The response reuses the on-disk record framing verbatim — raw
        CRC-framed bytes, armored for JSON by :mod:`.stream` — so the
        follower validates them with the same checksum scan recovery
        uses and a torn tail (injected or real) degrades to a clean
        shorter batch.
        """
        injector = injector_from_env()
        if injector is not None:
            injector.maybe_fail(SITE_STREAM_SERVE)
        database = self._database()
        tail = database.replication_wal_tail(from_lsn, max_records=max_records, wait=wait)
        frames = tail.frames
        torn = 0
        if injector is not None and frames:
            try:
                injector.maybe_fail(SITE_STREAM_TORN)
            except InjectedFault:
                # Serve a deliberately torn batch: cut mid-frame so the
                # follower's CRC scan must discard the damaged suffix.
                frames = frames[: max(1, len(frames) // 2)]
                torn = 1
        self._count(tails_served=1, records_streamed=tail.records, torn_frames_injected=torn)
        return {
            "base_lsn": tail.base_lsn,
            "last_lsn": tail.last_lsn,
            "records": tail.records,
            "snapshot_required": tail.snapshot_required,
            "frames": frames_to_wire(frames),
            "commit_lsn": tail.last_lsn,
            **self._stream_header(database),
        }

    def metrics(self) -> dict:
        """The ``replication`` section of ``/metrics``."""
        follower = self.follower
        if follower is not None:
            return follower.info()
        database = self._database()
        with self._lock:
            return {
                **self.counters,
                "role": "primary",
                "commit_lsn": database.wal_lsn,
                "era": database.era,
                "era_lsn": database.era_lsn,
                "fenced": self.fenced,
                "leader_url": self.leader_url,
                "not_primary_rejections": self.not_primary_rejections,
            }
