"""Automatic primary failover: fencing eras, promotion, rejoin, routing.

Layers, mirroring the protocol:

* **era plumbing** — ``bump_era`` durability, monotonicity, recovery,
  and the ``era``/``era_lsn``/``era_history`` stream fields;
* **endpoints** — ``/replication/topology``, ``promote``, ``demote``,
  ``repoint``, and the write gate's ``NOT_PRIMARY`` refusals (HTTP-free
  where possible, via ``QueryService.handle``);
* **the role object** — ``NodeRole`` alone, no HTTP: the state × method
  table of ``docs/replication.md`` row by row, and the transitions
  between its rows;
* **follower semantics** — stale-stream rejection, the in-stream era
  record, and rejoin-with-truncation of a divergent WAL suffix;
* **coordinator** — detection, election of the most-caught-up replica,
  fenced promotion, policing (demote + repoint), fault tolerance;
* **client failover** — ``ReplicaSetClient`` write failover with
  read-your-writes across the promotion, and endpoint-exhaustion
  behaviour (clean retryable errors, bounded retries);
* **satellites** — jittered follower backoff, the event-driven (never
  polling) replica startup hand-off, and a full subprocess cluster that
  SIGKILLs the primary and converges after promotion and rejoin.
"""

from __future__ import annotations

import os
import random
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import Database
from repro.errors import (
    CircuitOpen,
    NotPrimary,
    ReplicaLagging,
    ReplicationError,
    ServiceUnavailable,
)
from repro.replication.failover import ClusterCoordinator, CoordinatorConfig
from repro.replication.replica import (
    ReplicaConfig,
    ReplicaServer,
    ReplicationFollower,
)
from repro.replication.role import NodeRole
from repro.replication.routing import ReplicaSetClient
from repro.service.client import ServiceClient
from repro.service.resilience import RetryPolicy
from repro.service.server import QueryServer, QueryService, ServerConfig
from repro.sim.clock import Clock
from repro.sim.transport import Transport

from .conftest import PAPER_SHAPED_WRITES

CHECKSUM_SQL = "SELECT COUNT(*), SUM(A1), SUM(A4) FROM r"


def make_db(tmp_path, name="primary", rows: int = 8) -> Database:
    db = Database.open(str(tmp_path / name))
    db.create_table(
        "r",
        ["A1", "A2", "A3", "A4"],
        [(i, i % 5, i % 3, i * 100) for i in range(rows)],
    )
    return db


def make_follower(url, tmp_path, name="replica", **overrides) -> ReplicationFollower:
    config = ReplicaConfig(
        primary_url=url, data_dir=str(tmp_path / name), poll_wait=0.2, **overrides
    )
    return ReplicationFollower(config)


def drain(follower: ReplicationFollower, deadline: float = 10.0) -> None:
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        follower.step(wait=0.0)
        if follower.applied_lsn >= follower.primary_lsn:
            return
    raise AssertionError("follower failed to catch up within the deadline")


def checksums(db: Database) -> dict:
    from repro import EvalOptions

    return {
        engine: db.execute(CHECKSUM_SQL, options=EvalOptions(vectorized=engine == "vectorized")).rows
        for engine in ("row", "vectorized")
    }


class TestEraPlumbing:
    def test_bump_era_is_durable_and_recovers(self, tmp_path):
        db = make_db(tmp_path)
        db.bump_era(1)
        era_lsn = db.era_lsn
        assert db.era == 1 and era_lsn == db.wal_lsn
        db.execute("INSERT INTO r VALUES (100, 0, 0, 0)")
        db.close()

        recovered = Database.open(str(tmp_path / "primary"))
        assert recovered.era == 1
        assert recovered.era_lsn == era_lsn
        assert (1, era_lsn) in recovered.era_history
        recovered.close()

    def test_bump_era_survives_checkpoint(self, tmp_path):
        db = make_db(tmp_path)
        db.bump_era(3)
        db.checkpoint()
        db.close()
        recovered = Database.open(str(tmp_path / "primary"))
        assert recovered.era == 3
        assert recovered.era_history == ((3, recovered.era_lsn),)
        recovered.close()

    def test_bump_era_must_be_monotonic(self, tmp_path):
        db = make_db(tmp_path)
        db.bump_era(2)
        with pytest.raises(ReplicationError):
            db.bump_era(2)
        with pytest.raises(ReplicationError):
            db.bump_era(1)
        assert db.era == 2
        db.close()

    def test_stream_responses_carry_era_fields(self, tmp_path):
        db = make_db(tmp_path)
        db.bump_era(1)
        service = QueryService(db, ServerConfig(port=0))
        _, snapshot = service.handle("POST", "/replication/snapshot", {})
        assert snapshot["era"] == 1 and snapshot["era_lsn"] == db.era_lsn
        _, tail = service.handle("POST", "/replication/wal", {"from_lsn": 0})
        assert tail["era"] == 1
        assert tail["era_history"] == [[1, db.era_lsn]]
        db.close()


class TestClusterEndpoints:
    def test_topology_shape_primary(self, tmp_path):
        db = make_db(tmp_path)
        service = QueryService(db, ServerConfig(port=0, advertise_url="http://p:1"))
        status, body = service.handle("GET", "/replication/topology", {})
        assert status == 200
        assert body["role"] == "primary" and body["fenced"] is False
        assert body["era"] == 0 and body["applied_lsn"] == db.wal_lsn
        assert body["leader_url"] == "http://p:1"
        db.close()

    def test_promote_bumps_era_and_unfences(self, tmp_path):
        db = make_db(tmp_path)
        service = QueryService(db, ServerConfig(port=0, fenced=True))
        status, refused = service.handle("POST", "/query", {"sql": "INSERT INTO r VALUES (9,0,0,0)"})
        assert status == 409 and refused["error"]["code"] == "NOT_PRIMARY"
        status, body = service.handle("POST", "/replication/promote", {"era": 1})
        assert status == 200 and body["promoted"] and body["era"] == 1
        assert db.era == 1
        status, _ = service.handle("POST", "/query", {"sql": "INSERT INTO r VALUES (9,0,0,0)"})
        assert status == 200
        db.close()

    def test_stale_promotion_is_refused(self, tmp_path):
        db = make_db(tmp_path)
        db.bump_era(5)
        service = QueryService(db, ServerConfig(port=0))
        status, body = service.handle("POST", "/replication/promote", {"era": 3})
        assert status != 200 and body["error"]["code"] == "REPLICATION_ERROR"
        assert db.era == 5
        db.close()

    def test_demote_fences_writes_with_leader_hint(self, tmp_path):
        db = make_db(tmp_path)
        service = QueryService(db, ServerConfig(port=0))
        status, body = service.handle(
            "POST", "/replication/demote", {"era": 2, "leader_url": "http://new:1"}
        )
        assert status == 200 and body["fenced"]
        status, refused = service.handle(
            "POST", "/query", {"sql": "INSERT INTO r VALUES (9,0,0,0)"}
        )
        assert status == 409
        assert refused["error"]["code"] == "NOT_PRIMARY"
        assert refused["error"]["era"] == 2
        assert refused["error"]["leader_url"] == "http://new:1"
        # Reads still work on a fenced node (it serves its last state).
        status, _ = service.handle("POST", "/query", {"sql": "SELECT COUNT(*) FROM r"})
        assert status == 200
        db.close()

    def test_era_carrying_write_self_fences_a_stale_primary(self, tmp_path):
        db = make_db(tmp_path)
        service = QueryService(db, ServerConfig(port=0))
        status, refused = service.handle(
            "POST", "/query", {"sql": "INSERT INTO r VALUES (9,0,0,0)", "era": 3}
        )
        assert status == 409 and refused["error"]["code"] == "NOT_PRIMARY"
        # Once self-fenced, even era-less writes are refused: the node
        # has durable-in-memory proof that a newer reign exists.
        status, refused = service.handle("POST", "/query", {"sql": "INSERT INTO r VALUES (9,0,0,0)"})
        assert status == 409
        assert db.execute("SELECT COUNT(*) FROM r WHERE A1 = 9").rows == [(0,)]
        db.close()

    def test_primary_causality_gate_fails_fast_on_future_min_lsn(self, tmp_path):
        db = make_db(tmp_path)
        service = QueryService(db, ServerConfig(port=0))
        status, body = service.handle(
            "POST", "/query", {"sql": "SELECT COUNT(*) FROM r", "min_lsn": db.wal_lsn + 10}
        )
        assert status == 503 and body["error"]["code"] == "REPLICA_LAGGING"
        db.close()


@pytest.fixture()
def primary(tmp_path):
    db = make_db(tmp_path)
    server = QueryServer(db, ServerConfig(port=0)).start()
    yield server, db
    server.stop()
    db.close()


class TestNodeRole:
    """``NodeRole`` without HTTP.  ``TABLE`` is docs/replication.md's
    state × method table: what each node state answers to a write, to a
    causal read, and to the coordinator's topology probe."""

    #: state, check_write, check_read(min_lsn, era), annotate's stamp, role, fenced
    LAGGING, READ_ONLY = "REPLICA_LAGGING", "READ_ONLY_REPLICA"
    TABLE = [
        ("primary", None, (1, None), None, "commit_lsn", "primary", False),
        ("fenced primary", "NOT_PRIMARY", (1, None), LAGGING, "commit_lsn", "primary", True),
        ("replica", READ_ONLY, (1, None), None, "applied_lsn", "replica", False),
        ("armed replica", READ_ONLY, (1, 5), LAGGING, "applied_lsn", "replica", False),
        ("promoted replica", None, (1, None), None, "commit_lsn", "primary", False),
    ]

    @pytest.fixture()
    def node(self, primary, tmp_path):
        """``node(state) -> (role, store)``: a role in that row of the table."""
        server, _ = primary
        stores = []

        def build(state):
            if state.endswith("primary"):
                follower = None
                store = make_db(tmp_path, name="node")
            else:
                follower = make_follower(server.url, tmp_path, name="node")
                store = follower.bootstrap()
            stores.append(store)
            role = NodeRole(lambda: store, follower, advertise_url="http://self")
            if state == "fenced primary":
                role.demote(store.era, "http://leader")
            elif state == "armed replica":
                role.repoint("http://leader", 5)
            elif state == "promoted replica":
                role.promote(1)
            return role, store

        yield build
        for store in stores:
            store.close()

    @staticmethod
    def code_of(call, *args):
        try:
            call(*args)
        except ReplicationError as error:
            return error.code
        return None

    @pytest.mark.parametrize("state, write, read, read_code, stamp, role_name, fenced", TABLE)
    def test_table(self, node, state, write, read, read_code, stamp, role_name, fenced):
        role, store = node(state)
        assert self.code_of(role.check_write, None) == write
        assert self.code_of(role.check_read, *read) == read_code
        assert stamp in role.annotate({})
        topology = role.topology()
        assert (topology["role"], topology["fenced"]) == (role_name, fenced)
        assert role.metrics()["role"] == role_name

    def test_primary_demote_then_same_era_promote_confirms_and_unfences(self, node):
        role, store = node("primary")
        store.bump_era(2)
        lsn = store.wal_lsn
        with pytest.raises(ReplicationError):
            role.demote(1)  # an era behind ours fences nothing
        assert role.demote(2, "http://rival") == {
            "fenced": True, "era": 2, "leader_url": "http://rival",
        }
        with pytest.raises(NotPrimary) as refused:
            role.check_write(None)
        assert (refused.value.era, refused.value.leader_url) == (2, "http://rival")
        with pytest.raises(ReplicaLagging):
            role.check_read(1, None)
        with pytest.raises(ReplicaLagging):
            role.check_read(None, 2)
        assert role.check_read(None, None) is None  # non-causal reads still served
        with pytest.raises(ReplicationError):
            role.promote(1)
        body = role.promote(2)
        assert body["promoted"] and body["era"] == 2
        assert store.wal_lsn == lsn, "confirming a reign writes no era record"
        role.check_write(2)
        role.check_read(1, 2)
        assert role.topology()["leader_url"] == "http://self"
        assert role.metrics()["not_primary_rejections"] == 1

    def test_a_newer_era_on_a_request_fences_in_place(self, node):
        role, store = node("primary")
        with pytest.raises(NotPrimary):
            role.check_write(store.era + 1)
        assert role.topology()["fenced_era"] == store.era + 1
        with pytest.raises(ReplicationError):
            role.repoint("http://leader", 1)  # primaries are demoted, not repointed

    def test_replica_promotion_halts_the_follower_before_the_era_bump(self, node):
        role, store = node("replica")
        follower = role.follower
        role.repoint("http://leader", 3)
        for stale in (1, 3):
            with pytest.raises(ReplicationError):
                role.promote(stale)
        assert role.topology()["role"] == "replica" and not follower.closed.is_set()
        halted_at_bump = []
        real_bump = store.bump_era
        store.bump_era = lambda era: (
            halted_at_bump.append(follower.closed.is_set()),
            real_bump(era),
        )
        body = role.promote(4)
        assert halted_at_bump == [True]
        assert body == {
            "promoted": True, "role": "primary", "era": 4,
            "era_lsn": store.era_lsn, "applied_lsn": store.wal_lsn,
        }
        assert role.follower is None and role.topology()["role"] == "primary"
        assert role.promote(4)["promoted"]  # now confirmable like any primary's reign

    def test_a_follower_that_cannot_stop_fails_the_promotion_retryably(self, node):
        role, store = node("replica")
        role.follower.halt = lambda: False
        with pytest.raises(ServiceUnavailable):
            role.promote(1)
        assert store.era == 0 and role.topology()["role"] == "replica"


class TestFollowerEraChecks:
    def test_rejects_stream_from_lower_era(self, primary, tmp_path):
        server, db = primary
        follower = make_follower(server.url, tmp_path)
        drain(follower)
        follower.era = 2  # a repoint armed us with a newer era
        with pytest.raises(NotPrimary):
            follower.step(wait=0.0)
        assert follower.counters["stale_stream_rejected"] == 1
        follower.db.close()

    def test_drops_a_batch_from_the_primary_it_was_repointed_away_from(self, primary, tmp_path):
        server, db = primary
        follower = make_follower(server.url, tmp_path)
        drain(follower)
        before = follower.applied_lsn
        db.execute("INSERT INTO r VALUES (50, 0, 0, 0)")

        class RepointedMidPoll:
            """The old primary's long poll returns after a failover has
            already repointed the follower."""

            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def replication_wal(self, **kw):
                body = self.inner.replication_wal(**kw)
                follower.repoint(server.url)
                return body

        follower.client = RepointedMidPoll(follower.client)
        assert follower.step(wait=0.0) == 0
        assert follower.applied_lsn == before
        assert follower.step(wait=0.0) == 1  # the new client's answer applies
        assert follower.applied_lsn == db.wal_lsn
        follower.close()
        follower.db.close()

    def test_snapshot_from_lower_era_is_rejected(self, primary, tmp_path):
        server, _ = primary
        follower = make_follower(server.url, tmp_path)
        follower.era = 2
        with pytest.raises(NotPrimary):
            follower.bootstrap()

    def test_era_record_applies_in_stream(self, primary, tmp_path):
        server, db = primary
        follower = make_follower(server.url, tmp_path)
        drain(follower)
        db.bump_era(1)
        db.execute("INSERT INTO r VALUES (50, 0, 0, 0)")
        drain(follower)
        assert follower.db.era == 1
        assert follower.era == 1
        assert follower.db.era_lsn == db.era_lsn
        assert follower.applied_lsn == db.wal_lsn
        assert follower.counters["truncations"] == 0
        follower.db.close()

    def test_rejoin_truncates_divergent_suffix(self, tmp_path):
        # Old primary P; F was its most-caught-up replica.
        p_db = make_db(tmp_path, "p")
        p_server = QueryServer(p_db, ServerConfig(port=0)).start()
        follower = make_follower(p_server.url, tmp_path, "f")
        drain(follower)
        common_lsn = follower.applied_lsn

        # P "dies": stop serving, then ack 3 divergent writes nobody saw.
        p_server.stop()
        for i in range(3):
            p_db.execute(f"INSERT INTO r VALUES ({200 + i}, 9, 9, 9)")
        assert p_db.wal_lsn == common_lsn + 3
        p_db.close()

        # F is promoted (era 1) and becomes the new primary; its reign
        # commits new writes on the new timeline.
        f_db = follower.db
        follower.close()
        f_db.bump_era(1)
        for i in range(2):
            f_db.execute(f"INSERT INTO r VALUES ({300 + i}, 1, 1, 1)")
        new_primary = QueryServer(f_db, ServerConfig(port=0)).start()

        # P rejoins as a replica of F.  Its log extends past the era-1
        # boundary it never applied -> the suffix is divergent and must
        # be truncated (full resync through the snapshot path).
        rejoiner = ReplicationFollower(
            ReplicaConfig(primary_url=new_primary.url, data_dir=str(tmp_path / "p"), poll_wait=0.2)
        )
        drain(rejoiner)
        assert rejoiner.counters["truncations"] == 1
        assert rejoiner.db.era == 1
        assert rejoiner.applied_lsn == f_db.wal_lsn
        # The divergent rows are gone; the new-timeline rows are present,
        # and both engines agree on the digest.
        assert rejoiner.db.execute("SELECT COUNT(*) FROM r WHERE A1 >= 200 AND A1 < 300").rows == [
            (0,)
        ]
        assert checksums(rejoiner.db) == checksums(f_db)

        # Streaming continues cleanly after the truncation.
        f_db.execute("INSERT INTO r VALUES (400, 2, 2, 2)")
        drain(rejoiner)
        assert checksums(rejoiner.db) == checksums(f_db)
        new_primary.stop()
        rejoiner.db.close()
        f_db.close()

    def test_rejoin_after_missing_two_eras(self, tmp_path):
        # A node that slept through TWO failovers: only the full
        # era_history can prove its suffix diverged, because the newest
        # era's boundary LSN is already past the sleeper's log end.
        p_db = make_db(tmp_path, "p")
        p_server = QueryServer(p_db, ServerConfig(port=0)).start()
        follower = make_follower(p_server.url, tmp_path, "f")
        drain(follower)

        p_server.stop()
        p_db.execute("INSERT INTO r VALUES (200, 9, 9, 9)")  # divergent
        p_db.close()

        f_db = follower.db
        follower.close()
        f_db.bump_era(1)  # first failover
        for i in range(5):
            f_db.execute(f"INSERT INTO r VALUES ({300 + i}, 1, 1, 1)")
        f_db.bump_era(2)  # second failover (same node wins again)
        assert f_db.era_lsn > p_db_wal_lsn_guess(tmp_path)
        new_primary = QueryServer(f_db, ServerConfig(port=0)).start()

        rejoiner = ReplicationFollower(
            ReplicaConfig(primary_url=new_primary.url, data_dir=str(tmp_path / "p"), poll_wait=0.2)
        )
        drain(rejoiner)
        assert rejoiner.counters["truncations"] == 1
        assert rejoiner.db.era == 2
        assert checksums(rejoiner.db) == checksums(f_db)
        new_primary.stop()
        rejoiner.db.close()
        f_db.close()


def p_db_wal_lsn_guess(tmp_path) -> int:
    """The sleeper's log end, read offline (its db object is closed)."""
    from repro.storage.wal import scan_wal

    scan = scan_wal(str(tmp_path / "p"))
    assert scan.header_ok
    return scan.last_lsn


@pytest.fixture()
def cluster(tmp_path):
    """Primary + two replica servers, both caught up."""
    db = make_db(tmp_path)
    server = QueryServer(db, ServerConfig(port=0)).start()
    replicas = []
    for name in ("r1", "r2"):
        replica = ReplicaServer(
            ReplicaConfig(
                primary_url=server.url, data_dir=str(tmp_path / name), poll_wait=0.2
            ),
            ServerConfig(port=0),
        ).start()
        replicas.append(replica)
    deadline = time.monotonic() + 15
    while time.monotonic() < deadline:
        if all(r.follower.applied_lsn >= db.wal_lsn for r in replicas):
            break
        time.sleep(0.02)
    yield server, db, replicas
    for replica in replicas:
        replica.stop()
    server.stop()
    db.close()


def wait_until(predicate, deadline=15.0, message="condition never became true"):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(message)


class TestCoordinator:
    def test_config_requires_two_nodes(self):
        with pytest.raises(ValueError):
            CoordinatorConfig(nodes=("http://one:1",))

    def test_healthy_cluster_never_fails_over(self, cluster):
        server, _, replicas = cluster
        coordinator = ClusterCoordinator(
            CoordinatorConfig(
                nodes=(server.url, *(r.url for r in replicas)),
                failure_threshold=2,
                http_timeout=2.0,
            )
        )
        for _ in range(4):
            coordinator.step()
        info = coordinator.info()
        assert info["leader_url"] == server.url
        assert info["failovers"] == 0 and info["promotions"] == 0
        assert info["era"] == 0

    def test_elects_most_caught_up_replica(self, cluster, tmp_path):
        server, db, (r1, r2) = cluster
        # Lag r2: point its follower at a dead URL (the loop stays alive,
        # backing off on fetch errors), then commit writes only r1 applies.
        r2.follower.repoint("http://127.0.0.1:9")
        for i in range(4):
            db.execute(f"INSERT INTO r VALUES ({60 + i}, 0, 0, 0)")
        wait_until(lambda: r1.follower.applied_lsn >= db.wal_lsn)
        assert r2.follower.applied_lsn < r1.follower.applied_lsn

        coordinator = ClusterCoordinator(
            CoordinatorConfig(
                nodes=(server.url, r1.url, r2.url),
                failure_threshold=2,
                http_timeout=2.0,
            )
        )
        coordinator.step()  # adopt the healthy leader first
        server.stop()  # primary dies (socket closed; db object kept by fixture)
        wait_until(
            lambda: coordinator.step() is not None and coordinator.counters["promotions"] >= 1,
            message="coordinator never promoted",
        )
        info = coordinator.info()
        assert info["leader_url"] == r1.url
        assert info["era"] == 1
        topology = ServiceClient(r1.url).replication_topology()
        assert topology["role"] == "primary" and topology["era"] == 1
        # The lagging replica is repointed at the new leader and converges.
        wait_until(
            lambda: coordinator.step() is not None
            and ServiceClient(r2.url).replication_topology()["leader_url"] == r1.url,
            message="lagging replica never repointed",
        )
        writer = ServiceClient(r1.url)
        for sql in PAPER_SHAPED_WRITES:  # replayed unnested, on the batch engine
            assert writer.query(sql).rows[0][0] > 0, sql
        token = writer.query("INSERT INTO r VALUES (70, 0, 0, 0)").commit_lsn
        wait_until(lambda: r2.follower.applied_lsn >= token)
        assert ServiceClient(r2.url).query(CHECKSUM_SQL, min_lsn=token).rows == writer.query(
            CHECKSUM_SQL
        ).rows

    def test_demotes_revived_stale_primary(self, cluster):
        server, db, (r1, r2) = cluster
        coordinator = ClusterCoordinator(
            CoordinatorConfig(
                nodes=(server.url, r1.url, r2.url),
                failure_threshold=1,
                http_timeout=2.0,
            )
        )
        coordinator.step()
        # Promote r1 behind the coordinator's back (it must converge via
        # era adoption) — the old primary is then a stale primary.
        ServiceClient(r1.url).replication_promote(1)
        wait_until(
            lambda: coordinator.step() is not None and coordinator.counters["demotions"] >= 1,
            message="stale primary never demoted",
        )
        assert coordinator.leader_url == r1.url and coordinator.era == 1
        # The revived stale primary never acks a write again.
        with pytest.raises(NotPrimary) as excinfo:
            ServiceClient(server.url).query("INSERT INTO r VALUES (80, 0, 0, 0)")
        assert excinfo.value.era >= 1
        assert excinfo.value.leader_url == r1.url
        topology = ServiceClient(server.url).replication_topology()
        assert topology["fenced"] is True

    def test_sustained_probe_faults_drive_failover_deterministically(self, cluster, monkeypatch):
        # REPRO_FAULT_COUNT defaults to 1 and probe_all builds one
        # injector per round, so with probability 1.0 exactly the FIRST
        # probe of every round fails — the nodes tuple puts the primary
        # first, so the (alive) leader looks down round after round.
        # Sustained probe loss is indistinguishable from a dead primary;
        # the coordinator must fail over, deterministically.
        server, _, (r1, r2) = cluster
        monkeypatch.setenv("REPRO_FAULT_SITES", "replication.failover.health")
        monkeypatch.setenv("REPRO_FAULT_PROB", "1.0")
        coordinator = ClusterCoordinator(
            CoordinatorConfig(
                nodes=(server.url, r1.url, r2.url),
                failure_threshold=2,
                http_timeout=2.0,
            )
        )
        for _ in range(4):
            coordinator.step()
        assert coordinator.counters["probe_failures"] >= 4
        assert coordinator.counters["promotions"] == 1
        # Election is deterministic: equal applied LSNs, lowest URL wins.
        assert coordinator.leader_url == min(r1.url, r2.url)
        assert coordinator.era == 1


class TestReplicaSetWriteFailover:
    def test_write_fails_over_after_promotion(self, cluster):
        server, db, (r1, r2) = cluster
        client = ReplicaSetClient(server.url, [r1.url, r2.url], lsn_wait=0.3)
        token_before = client.execute("INSERT INTO r VALUES (90, 0, 0, 0)").commit_lsn
        assert token_before
        # r1 must have replicated the write before it is promoted, or
        # the write would (correctly!) be lost to the timeline switch.
        wait_until(lambda: r1.follower.applied_lsn >= token_before)

        # Failover: promote r1, demote the old primary.
        ServiceClient(r1.url).replication_promote(1)
        ServiceClient(server.url).replication_demote(1, leader_url=r1.url)

        result = client.execute("INSERT INTO r VALUES (91, 0, 0, 0)")
        assert result.era == 1
        info = client.info()
        assert info["write_failovers"] >= 1
        assert info["leader_changes"] == 1
        assert info["primary_url"] == r1.url.rstrip("/")
        # Read-your-writes across the promotion: the read must see the
        # new-primary write even though the old primary is fenced.
        rows = client.query("SELECT A1 FROM r WHERE A1 IN (90, 91) ORDER BY A1").rows
        assert rows == [(90,), (91,)]
        assert client.era == 1

    def test_write_failover_discovers_leader_without_hint(self, cluster):
        server, db, (r1, r2) = cluster
        client = ReplicaSetClient(server.url, [r1.url, r2.url], lsn_wait=0.3)
        client.execute("INSERT INTO r VALUES (92, 0, 0, 0)")
        ServiceClient(r1.url).replication_promote(1)
        # Demote WITHOUT a leader hint: the client must rediscover via
        # topology probes instead of following the error's leader_url.
        ServiceClient(server.url).replication_demote(1)
        result = client.execute("INSERT INTO r VALUES (93, 0, 0, 0)")
        assert result.commit_lsn
        assert client.info()["primary_url"] == r1.url.rstrip("/")
        assert client.info()["topology_refreshes"] >= 1

    def test_all_nodes_down_is_clean_service_unavailable(self):
        client = ReplicaSetClient(
            "http://127.0.0.1:9", ["http://127.0.0.1:10"], lsn_wait=0.1, timeout=0.5
        )
        with pytest.raises((ServiceUnavailable, CircuitOpen)) as excinfo:
            client.query("SELECT 1 FROM r")
        assert isinstance(excinfo.value, (ServiceUnavailable, CircuitOpen))
        with pytest.raises((ServiceUnavailable, CircuitOpen)):
            client.execute("INSERT INTO r VALUES (1, 1, 1, 1)")
        info = client.info()
        assert info["writes"] == 0
        # Breakers may be open now, but the client still fails cleanly
        # (CIRCUIT_OPEN or SERVICE_UNAVAILABLE, never a hang or a crash).
        with pytest.raises((ServiceUnavailable, CircuitOpen)):
            client.query("SELECT 1 FROM r")

    def test_replicas_down_falls_back_to_primary(self, primary):
        server, _ = primary
        client = ReplicaSetClient(
            server.url, ["http://127.0.0.1:9", "http://127.0.0.1:10"], lsn_wait=0.2, timeout=1.0
        )
        result = client.query("SELECT COUNT(*) FROM r")
        assert result.rows == [(8,)]
        info = client.info()
        assert info["primary_reads"] == 1
        assert info["failovers"] >= 2

    def test_lagging_retry_budget_is_bounded(self, cluster):
        server, db, (r1, r2) = cluster
        # Halt replication so no node can ever satisfy the token, and
        # ask for an LSN beyond even the primary's log.
        r1.follower.halt()
        r2.follower.halt()
        client = ReplicaSetClient(server.url, [r1.url, r2.url], lsn_wait=0.1)
        impossible = db.wal_lsn + 100
        start = time.monotonic()
        with pytest.raises(ReplicaLagging):
            client.query("SELECT COUNT(*) FROM r", min_lsn=impossible)
        elapsed = time.monotonic() - start
        # Two rounds over three endpoints, 0.1s lsn_wait each: the retry
        # budget is bounded — it must not spin or wait unboundedly.
        assert elapsed < 10.0
        assert client.info()["lagging_redirects"] <= 2 * 3


class TopologyStub(Transport):
    """Answers ``/replication/topology`` from fixed bodies; every other
    node, and every other path, is unreachable."""

    def __init__(self, bodies: dict[str, dict]):
        self.bodies = bodies

    def request(self, base_url, method, path, payload, timeout):
        body = self.bodies.get(base_url.rstrip("/"))
        if body is None or path != "/replication/topology":
            raise ServiceUnavailable(f"{base_url}{path} unreachable")
        return body


def topology(era: int, wal_lsn: int, fenced_era: int = 0) -> dict:
    return {
        "role": "primary",
        "era": era,
        "fenced": bool(fenced_era),
        "fenced_era": fenced_era,
        "wal_lsn": wal_lsn,
        "applied_lsn": wal_lsn,
        "leader_url": None,
    }


class TestOneElectionRule:
    """The routing client adopts the leader the coordinator would."""

    NODES = ("http://a", "http://b", "http://down")

    def elect(self, bodies: dict[str, dict]):
        stub = TopologyStub(bodies)
        coordinator = ClusterCoordinator(CoordinatorConfig(nodes=self.NODES), transport=stub)
        coordinator.step()
        client = ReplicaSetClient("http://down", ["http://a", "http://b"], transport=stub)
        found = client._rediscover()
        return coordinator, client, found

    def test_same_era_race_goes_to_the_lowest_url(self):
        # b is further ahead, but a wins the tie; the coordinator demotes b.
        coordinator, client, found = self.elect(
            {"http://a": topology(2, 10), "http://b": topology(2, 50)}
        )
        assert coordinator.leader_url == "http://a"
        assert found and client.primary.base_url == "http://a"
        assert client.era == coordinator.era == 2

    def test_a_fenced_newer_era_deposes_the_older_primary(self):
        coordinator, client, found = self.elect(
            {"http://a": topology(2, 10), "http://b": topology(2, 12, fenced_era=3)}
        )
        assert coordinator.leader_url is None
        assert not found and client.primary.base_url == "http://down"
        assert client.era == coordinator.era == 3


class TestFollowerBackoffJitter:
    @staticmethod
    def _sleeps(tmp_path, seed: int, count: int = 8) -> list[float]:
        """The first ``count`` backoff sleeps of a follower whose fetches
        all fail, under ``random.Random(seed)``."""
        sleeps: list[float] = []
        stop = threading.Event()

        class Recording(Clock):
            def wait(self, event, timeout):
                sleeps.append(timeout)
                if len(sleeps) == count:
                    stop.set()
                return stop.is_set()

        config = ReplicaConfig(primary_url="http://127.0.0.1:9", data_dir=str(tmp_path / "j"))
        follower = ReplicationFollower(config, rng=random.Random(seed), clock=Recording())

        def fail(*args, **kwargs):
            raise ServiceUnavailable("primary down")

        follower.step = fail
        follower.run(stop)
        return sleeps

    def test_jitter_stays_in_envelope_and_is_seeded(self, tmp_path):
        policy = RetryPolicy()
        delays_a = self._sleeps(tmp_path, 42)
        for attempt, delay in enumerate(delays_a, start=1):
            nominal = min(policy.max_delay, policy.base_delay * policy.multiplier ** (attempt - 1))
            assert nominal * (1 - policy.jitter) <= delay <= nominal
        assert delays_a == self._sleeps(tmp_path, 42), "same seed must give the same delays"
        assert delays_a != self._sleeps(tmp_path, 7), "different seeds must diverge"

    def test_a_long_outage_keeps_backing_off_at_the_cap(self, tmp_path):
        # 2.0 ** 1024 overflows a float: the attempt count must not grow with the outage.
        last = self._sleeps(tmp_path, 1, count=1100)[-1]
        assert RetryPolicy().max_delay / 2 <= last <= RetryPolicy().max_delay

    def test_run_backs_off_on_fetch_errors(self, tmp_path):
        config = ReplicaConfig(
            primary_url="http://127.0.0.1:9",
            data_dir=str(tmp_path / "j"),
            http_timeout=0.5,
        )
        follower = ReplicationFollower(config, rng=random.Random(1))
        stop = threading.Event()
        thread = threading.Thread(target=follower.run, args=(stop,), daemon=True)
        thread.start()
        wait_until(lambda: follower.counters["fetch_errors"] >= 3, deadline=10.0)
        stop.set()
        follower.close()
        thread.join(timeout=5)
        assert not thread.is_alive()


class TestEventDrivenStartup:
    def test_follow_parks_without_polling(self, tmp_path):
        server = ReplicaServer(
            ReplicaConfig(primary_url="http://127.0.0.1:9", data_dir=str(tmp_path / "r")),
            ServerConfig(port=0),
        )
        gate = threading.Event()
        server.follower.bootstrap = lambda: gate.wait(10)  # startup blocks
        service = server.server.service
        calls = []
        real_is_set = service.ready.is_set
        service.ready.is_set = lambda: (calls.append(1), real_is_set())[1]
        server.start()
        try:
            time.sleep(0.4)  # parked on startup_finished, not polling
            # The old implementation polled ready.is_set() at 50 Hz and
            # would have racked up ~20 calls by now.
            assert len(calls) <= 3
            assert server.follower.thread.is_alive()
        finally:
            server.stop()  # wakes the parked thread via startup_finished
            gate.set()
        server.follower.thread.join(timeout=5)
        assert not server.follower.thread.is_alive()

    def test_stop_before_bootstrap_finishes_joins_promptly(self, tmp_path):
        server = ReplicaServer(
            ReplicaConfig(
                primary_url="http://127.0.0.1:9",
                data_dir=str(tmp_path / "r"),
                http_timeout=30.0,
            ),
            ServerConfig(port=0),
        )
        gate = threading.Event()
        server.follower.bootstrap = lambda: gate.wait(30)
        server.start()
        start = time.monotonic()
        server.stop()
        gate.set()
        assert time.monotonic() - start < 10.0
        assert not server.follower.thread.is_alive()


class TestSubprocessFailover:
    """The CI chaos path: real processes, SIGKILL the primary, promote,
    resume writes, rejoin the old primary, converge."""

    @staticmethod
    def start_process(cmd, cwd):
        env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            cwd=cwd,
            env=env,
        )
        line = proc.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        assert match, f"no address line from {cmd}: {line!r}"
        return proc, f"http://{match.group(1)}:{match.group(2)}"

    def wait_ready(self, url, deadline=30.0):
        client = ServiceClient(url, timeout=5.0)
        end = time.monotonic() + deadline
        while time.monotonic() < end:
            try:
                client.healthz()
                return client
            except Exception:
                time.sleep(0.1)
        raise AssertionError(f"server at {url} never became ready")

    def test_sigkilled_primary_fails_over_and_old_primary_rejoins(self, tmp_path):
        procs = []
        try:
            primary_cmd = [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--data-dir", str(tmp_path / "pdata"),
                "--dataset", "rst:0.2",
            ]
            primary, purl = self.start_process(primary_cmd, cwd=os.getcwd())
            procs.append(primary)
            primary_client = self.wait_ready(purl)

            replica, rurl = self.start_process(
                [
                    sys.executable, "-m", "repro", "replica",
                    "--primary", purl,
                    "--data-dir", str(tmp_path / "rdata"),
                    "--port", "0",
                    "--poll-wait", "0.5",
                ],
                cwd=os.getcwd(),
            )
            procs.append(replica)
            self.wait_ready(rurl)

            client = ReplicaSetClient(purl, [rurl], lsn_wait=20.0)
            acked = []
            for i in range(10):
                acked.append(client.execute(f"INSERT INTO r VALUES ({500 + i}, 1, 1, 1)"))
            token = client.last_commit_lsn
            wait_until(
                lambda: ServiceClient(rurl).metrics()["replication"]["applied_lsn"] >= token,
                deadline=30.0,
            )

            # SIGKILL the primary mid-reign, promote the replica.
            primary.send_signal(signal.SIGKILL)
            primary.wait(timeout=10)
            promote = ServiceClient(rurl, timeout=20.0)
            deadline = time.monotonic() + 30
            while True:
                try:
                    body = promote.replication_promote(1)
                    break
                except Exception:
                    assert time.monotonic() < deadline, "promotion never succeeded"
                    time.sleep(0.2)
            assert body["promoted"] and body["era"] == 1

            # Writes resume through the same client (write failover),
            # and every pre-failover acked write is still visible.
            result = client.execute("INSERT INTO r VALUES (600, 1, 1, 1)")
            assert result.era == 1
            rows = client.query(
                "SELECT COUNT(*) FROM r WHERE A1 >= 500 AND A1 <= 600"
            ).rows
            assert rows == [(11,)]

            # The old primary rejoins fenced; the coordinator-free path
            # here repoints it by hand: restart it as a *replica* of the
            # new primary so its WAL goes through rejoin-with-truncation.
            rejoined, jurl = self.start_process(
                [
                    sys.executable, "-m", "repro", "replica",
                    "--primary", rurl,
                    "--data-dir", str(tmp_path / "pdata"),
                    "--port", "0",
                    "--poll-wait", "0.5",
                ],
                cwd=os.getcwd(),
            )
            procs.append(rejoined)
            rejoined_client = self.wait_ready(jurl)
            token = client.last_commit_lsn
            digest = "SELECT COUNT(*), SUM(A1) FROM r"
            wait_until(
                lambda: rejoined_client.metrics()["replication"]["applied_lsn"] >= token,
                deadline=30.0,
            )
            new_primary_client = ServiceClient(rurl)
            assert (
                rejoined_client.query(digest, min_lsn=token, lsn_wait=20.0).rows
                == new_primary_client.query(digest).rows
            )
            assert rejoined_client.metrics()["replication"]["broken"] is None
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait(timeout=10)
