"""Failover benchmark: detection + promotion RTO, convergence, rejoin.

One scripted failover against an in-process three-node cluster with a
live :class:`~repro.replication.failover.ClusterCoordinator`:

1. a client writes a burst through the primary and every replica
   catches up;
2. the primary "dies" (server stopped) — but first its database eats a
   few more writes nobody replicated: the **divergent suffix** a real
   crash leaves behind when a primary acks what it never shipped;
3. the coordinator detects the loss, elects the most-caught-up replica,
   and promotes it under era 1; the same client's writes fail over and
   resume on the new primary;
4. the old primary's data directory rejoins as a replica of the winner:
   its divergent suffix is truncated (exactly one resync) and all three
   stores converge to the same digest on both engines.

The script asserts the deterministic protocol counters where they
happen (one promotion, era 1, one truncation, no new-primary ack lost,
no divergent row left, the digest the data dictates on every node) and
returns the recovery-time window — kill-to-promotion and kill-to-first-
acked-write — whose wall-clock bounds live under the ``timing`` marker,
excluded from the CI smoke run like every other timing assertion in
this suite.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from benchmarks.bench_util import seeded_rng
from repro import Database, EvalOptions
from repro.errors import ReproError
from repro.replication.failover import ClusterCoordinator, CoordinatorConfig
from repro.replication.replica import ReplicaConfig, ReplicaServer, ReplicationFollower
from repro.replication.routing import ReplicaSetClient
from repro.service.server import QueryServer, ServerConfig

#: Base rows scale with REPRO_BENCH_ROWS like the other suites: the
#: default 250 gives 2_000 rows, the CI smoke setting of 40 gives 320.
ROWS = 8 * int(os.environ.get("REPRO_BENCH_ROWS", "250"))

BURST_RECORDS = 30
DIVERGENT_RECORDS = 5
RESUME_RECORDS = 10
FAILOVER_DEADLINE = 60.0

#: Rows with A1 past this never enter the digest, so retried probe
#: writes during the outage window cannot perturb it.
DIGEST_SQL = "SELECT COUNT(*), SUM(A1), SUM(A4) FROM r WHERE A1 < 80000"


def _digest(db: Database) -> dict:
    return {
        engine: db.execute(DIGEST_SQL, options=EvalOptions(vectorized=engine == "vectorized")).rows
        for engine in ("row", "vectorized")
    }


def _wait(predicate, deadline: float, message: str) -> float:
    start = time.perf_counter()
    end = start + deadline
    while time.perf_counter() < end:
        if predicate():
            return time.perf_counter() - start
        time.sleep(0.01)
    raise AssertionError(message)


def run_scripted_failover(tmp_path) -> tuple[float, float]:
    """Run the script above; returns (kill-to-promotion, kill-to-first-
    acked-write) seconds."""
    rng = seeded_rng("failover")
    seed_rows = [
        (i, rng.randrange(5), rng.randrange(3), rng.randrange(10_000)) for i in range(ROWS)
    ]
    db = Database.open(str(tmp_path / "primary"))
    db.create_table("r", ["A1", "A2", "A3", "A4"], seed_rows)
    primary = QueryServer(db, ServerConfig(port=0)).start()
    replicas = [
        ReplicaServer(
            ReplicaConfig(primary_url=primary.url, data_dir=str(tmp_path / name), poll_wait=0.5),
            ServerConfig(port=0),
        ).start()
        for name in ("replica0", "replica1")
    ]
    coordinator = ClusterCoordinator(
        CoordinatorConfig(
            nodes=(primary.url, *(r.url for r in replicas)),
            health_interval=0.05,
            failure_threshold=3,
            http_timeout=2.0,
        )
    )
    coordinator_stop = threading.Event()
    coordinator_thread = threading.Thread(
        target=coordinator.run, args=(coordinator_stop,), daemon=True
    )
    rejoiner = None
    try:
        # Phase 1: a replicated write burst through the routing client.
        client = ReplicaSetClient(primary.url, [r.url for r in replicas], lsn_wait=10.0)
        for i in range(BURST_RECORDS):
            client.execute(f"INSERT INTO r VALUES ({30_000 + i}, 0, 0, {i})")
        assert client.info()["writes"] == BURST_RECORDS
        burst_lsn = client.last_commit_lsn
        _wait(
            lambda: all(r.follower.applied_lsn >= burst_lsn for r in replicas),
            30.0,
            "replicas never caught up with the burst",
        )
        coordinator_thread.start()
        _wait(
            lambda: coordinator.leader_url is not None,
            30.0,
            "coordinator never adopted the healthy leader",
        )

        # Phase 2: the primary dies — after acking writes it never
        # shipped.  The server stops first, and the divergent writes
        # wait out the long-poll budget: an in-flight tail handler
        # survives the socket close for up to ``poll_wait`` and would
        # otherwise ship the "unreplicated" suffix to a replica.
        primary.stop()
        killed_at = time.perf_counter()
        time.sleep(2 * 0.5)
        for i in range(DIVERGENT_RECORDS):
            db.execute(f"INSERT INTO r VALUES ({60_000 + i}, 9, 9, 9)")
        assert db.wal_lsn == burst_lsn + DIVERGENT_RECORDS
        db.close()

        # Phase 3: detection + promotion, then writes resume.
        _wait(
            lambda: coordinator.counters["promotions"] >= 1,
            FAILOVER_DEADLINE,
            "coordinator never promoted a replica",
        )
        detection_seconds = time.perf_counter() - killed_at
        unavailability_seconds = None
        probe_deadline = time.perf_counter() + FAILOVER_DEADLINE
        attempts = 0
        while time.perf_counter() < probe_deadline:
            attempts += 1
            try:
                client.execute(f"INSERT INTO r VALUES ({90_000 + attempts}, 0, 0, 0)")
            except ReproError:
                time.sleep(0.02)
                continue
            unavailability_seconds = time.perf_counter() - killed_at
            break
        assert unavailability_seconds is not None, "writes never resumed after the failover"

        assert coordinator.counters["promotions"] == 1
        winner = next(r for r in replicas if r.url == coordinator.leader_url)
        loser = next(r for r in replicas if r is not winner)
        new_db = winner.follower.db
        assert new_db.era == 1

        # Every write acked after the failover must be durable on the
        # new timeline — new-primary acks are never lost.
        resume_tokens = []
        for i in range(RESUME_RECORDS):
            result = client.execute(f"INSERT INTO r VALUES ({70_000 + i}, 0, 0, {i})")
            resume_tokens.append(result.commit_lsn)
        assert all(resume_tokens) and resume_tokens == sorted(resume_tokens)
        resumed_rows = new_db.execute(
            "SELECT COUNT(*) FROM r WHERE A1 >= 70000 AND A1 < 80000"
        ).rows
        assert resumed_rows == [(RESUME_RECORDS,)]

        # Phase 4: the old primary's directory rejoins the new leader.
        rejoiner = ReplicationFollower(
            ReplicaConfig(
                primary_url=winner.url, data_dir=str(tmp_path / "primary"), poll_wait=0.2
            )
        )
        target = new_db.wal_lsn
        while rejoiner.applied_lsn < target:
            rejoiner.step(wait=0.0)
        assert rejoiner.counters["truncations"] == 1
        assert rejoiner.counters["resyncs"] == 1
        assert rejoiner.db.era == 1
        divergent_left = rejoiner.db.execute(
            "SELECT COUNT(*) FROM r WHERE A1 >= 60000 AND A1 < 70000"
        ).rows
        assert divergent_left == [(0,)]

        # Convergence: the loser replica was repointed by the coordinator
        # and all three stores hold the seed rows, the burst and the
        # resumed writes — nothing else below the digest cut-off — on
        # both engines.
        _wait(
            lambda: loser.follower.applied_lsn >= target,
            30.0,
            "surviving replica never converged on the new timeline",
        )
        survivors = (
            seed_rows
            + [(30_000 + i, 0, 0, i) for i in range(BURST_RECORDS)]
            + [(70_000 + i, 0, 0, i) for i in range(RESUME_RECORDS)]
        )
        expected = [
            (len(survivors), sum(row[0] for row in survivors), sum(row[3] for row in survivors))
        ]
        for node_db in (new_db, rejoiner.db, loser.follower.db):
            assert _digest(node_db) == {"row": expected, "vectorized": expected}
        return detection_seconds, unavailability_seconds
    finally:
        coordinator_stop.set()
        if coordinator_thread.is_alive():
            coordinator_thread.join(timeout=10)
        if rejoiner is not None:
            rejoiner.close()
            if rejoiner._db is not None:
                rejoiner.db.close()
        for replica in replicas:
            replica.stop()
        primary.stop()


def test_scripted_failover_loses_no_acked_write_and_converges(tmp_path):
    run_scripted_failover(tmp_path)  # every protocol assertion is inline


@pytest.mark.timing
def test_detection_and_promotion_window_is_bounded(tmp_path):
    """The ISSUE acceptance bound, asserted at the default scale."""
    detection_seconds, unavailability_seconds = run_scripted_failover(tmp_path)
    # Threshold 3 at a 50ms probe interval detects in ~150ms; the
    # promotion RPC and era fsync ride on top.  10s is a generous
    # ceiling that still catches a coordinator stuck in a retry loop.
    assert detection_seconds < 10.0
    assert unavailability_seconds < 30.0
