"""The replication subsystem: streaming, followers, consistency, routing.

Three layers of tests:

* **endpoints** — request validation and response shapes of
  ``/replication/snapshot`` and ``/replication/wal`` (HTTP-free, via
  ``QueryService.handle``);
* **follower semantics** — bootstrap LSN alignment, catch-up, resync
  after a checkpoint gap, torn batches, unknown record kinds, and
  convergence under injected stream faults (a real primary server, a
  hand-stepped follower for determinism);
* **cluster behaviour** — read-your-writes under a concurrent write
  burst, the ``min_lsn`` gate, read-only rejection, replica-set routing
  with failover, and a SIGKILLed subprocess replica rejoining and
  converging to the primary's checksums.
"""

from __future__ import annotations

import base64
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import Database
from repro.errors import ReadOnlyReplica, ReplicaLagging, ReplicationError
from repro.replication.replica import (
    ReplicaConfig,
    ReplicaServer,
    ReplicationFollower,
)
from repro.replication.routing import ReplicaSetClient
from repro.replication.stream import decode_frames, frames_from_wire
from repro.service.client import ServiceClient
from repro.service.server import QueryServer, QueryService, ServerConfig
from repro.storage.catalog import TableStats
from repro.storage.wal import DurabilityConfig, list_snapshots

from .conftest import PAPER_SHAPED_WRITES

#: The query used as a state digest when comparing primary and replica.
CHECKSUM_SQL = "SELECT COUNT(*), SUM(A1), SUM(A4) FROM r"


def make_db(tmp_path, rows: int = 8) -> Database:
    db = Database.open(str(tmp_path / "primary"))
    db.create_table(
        "r",
        ["A1", "A2", "A3", "A4"],
        [(i, i % 5, i % 3, i * 100) for i in range(rows)],
    )
    return db


@pytest.fixture()
def primary(tmp_path):
    db = make_db(tmp_path)
    server = QueryServer(db, ServerConfig(port=0)).start()
    yield server, db
    server.stop()
    db.close()


def make_follower(url, tmp_path, name="replica", **overrides) -> ReplicationFollower:
    config = ReplicaConfig(
        primary_url=url, data_dir=str(tmp_path / name), poll_wait=0.2, **overrides
    )
    return ReplicationFollower(config)


def drain(follower: ReplicationFollower, deadline: float = 10.0) -> None:
    """Step until the follower is caught up with its primary."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        follower.step(wait=0.0)
        if follower.applied_lsn >= follower.primary_lsn:
            return
    raise AssertionError("follower failed to catch up within the deadline")


class TestEndpoints:
    """HTTP-free validation of the primary's streaming endpoints."""

    def test_snapshot_shape(self, tmp_path):
        db = make_db(tmp_path)
        service = QueryService(db, ServerConfig(port=0))
        status, body = service.handle("POST", "/replication/snapshot", {})
        assert status == 200
        assert body["lsn"] == db.wal_lsn == body["commit_lsn"]
        assert "r" in body["state"]["tables"]
        db.close()

    def test_wal_tail_shape_and_roundtrip(self, tmp_path):
        db = make_db(tmp_path)
        service = QueryService(db, ServerConfig(port=0))
        status, body = service.handle("POST", "/replication/wal", {"from_lsn": 0})
        assert status == 200
        assert body["records"] == db.wal_lsn == body["last_lsn"]
        records, clean = decode_frames(frames_from_wire(body["frames"]), 0)
        assert clean and len(records) == body["records"]
        assert records[0].kind == "create_table"
        db.close()

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"from_lsn": -1},
            {"from_lsn": True},
            {"from_lsn": "0"},
            {"from_lsn": 0, "max_records": 0},
            {"from_lsn": 0, "max_records": 5000},
            {"from_lsn": 0, "wait": -1},
            {"from_lsn": 0, "wait": "long"},
        ],
    )
    def test_wal_tail_rejects_bad_payloads(self, tmp_path, payload):
        db = make_db(tmp_path)
        service = QueryService(db, ServerConfig(port=0))
        status, body = service.handle("POST", "/replication/wal", payload)
        assert status == 400
        assert body["error"]["code"] == "BAD_REQUEST"
        db.close()

    def test_replication_requires_durability(self):
        db = Database()
        db.create_table("r", ["A1"], [(1,)])
        service = QueryService(db, ServerConfig(port=0))
        status, body = service.handle("POST", "/replication/snapshot", {})
        assert status == 400
        assert body["error"]["code"] == "REPLICATION_ERROR"

    def test_write_responses_carry_commit_lsn(self, tmp_path):
        db = make_db(tmp_path)
        service = QueryService(db, ServerConfig(port=0))
        status, body = service.handle(
            "POST", "/query", {"sql": "INSERT INTO r VALUES (90, 1, 1, 100)"}
        )
        assert status == 200
        assert body["commit_lsn"] == db.wal_lsn
        db.close()


class TestFollower:
    def test_bootstrap_aligns_local_lsn_with_primary(self, primary, tmp_path):
        server, db = primary
        follower = make_follower(server.url, tmp_path)
        replica_db = follower.bootstrap()
        assert follower.applied_lsn == db.wal_lsn
        assert sorted(replica_db.table("r").rows) == sorted(db.table("r").rows)
        follower.close()
        replica_db.close()

    def test_streams_dml_and_ddl_and_stays_aligned(self, primary, tmp_path):
        server, db = primary
        db.execute("DELETE FROM r WHERE A1 = 0")
        db.checkpoint()  # mid-stream: what a restart of the primary starts from
        follower = make_follower(server.url, tmp_path)
        replica_db = follower.bootstrap()
        version_at_bootstrap = db.table("r").version
        db.execute("INSERT INTO r VALUES (50, 1, 2, 300), (51, NULL, 2, NULL)")
        db.execute("UPDATE r SET A4 = 0 WHERE A1 = 50")
        db.create_view("v", "SELECT A1 FROM r WHERE A4 > 100")
        db.create_index("idx_a1", "r", "A1")
        db.execute("DELETE FROM r WHERE A4 = (SELECT MAX(A4) FROM r)")
        db.execute("UPDATE r SET A2 = A3, A3 = A2 WHERE A1 > 3")
        # The paper's predicates in writes (Q1: disjunctive linking, Q2:
        # disjunctive correlation): the primary runs them on the canonical
        # plan and the row engine, the follower and the recovery below
        # replay them unnested on the batch engine — same rows, same order
        # (of an INSERT … SELECT's appends too), same statistics.
        for sql in PAPER_SHAPED_WRITES:
            assert db.execute(sql, strategy="canonical").rows[0][0] > 0, sql
        drain(follower)
        assert follower.applied_lsn == db.wal_lsn
        assert replica_db.table("r").rows == db.table("r").rows
        assert replica_db.view_names() == ["v"]
        assert replica_db.index_names() == ["idx_a1"]
        assert replica_db.execute("SELECT A1 FROM v").rows == db.execute("SELECT A1 FROM v").rows
        # Statistics kept by deltas on the primary, by deltas on top of a
        # snapshot load on the follower, and by the same on a recovery
        # from the checkpoint are one function of the table's contents.
        live_stats = db.catalog.stats("r")
        assert live_stats == TableStats.compute(db.table("r"))
        db.close()
        recovered = Database.open(str(tmp_path / "primary"))
        assert recovered.durability_info()["recovery"]["snapshot_lsn"] > 0
        for store in (replica_db, recovered):
            stats = store.catalog.stats("r")
            assert stats == live_stats
            for name, column in stats.columns.items():
                assert column == live_stats.columns[name], name  # histograms included
            # Both loaded the table at version 0 and applied the same tail.
            assert store.table("r").version == db.table("r").version - version_at_bootstrap
        recovered.close()
        follower.close()
        replica_db.close()

    def test_kill_and_rejoin_resumes_from_local_lsn(self, primary, tmp_path):
        server, db = primary
        follower = make_follower(server.url, tmp_path)
        follower.bootstrap()
        drain(follower)
        stopped_at = follower.applied_lsn
        follower.close()
        follower.db.close()  # simulate the process dying

        for i in range(4):
            db.execute(f"INSERT INTO r VALUES ({60 + i}, 1, 1, 10)")
        rejoined = make_follower(server.url, tmp_path)  # same data_dir
        replica_db = rejoined.bootstrap()
        assert rejoined.applied_lsn == stopped_at  # resumed, not re-bootstrapped
        drain(rejoined)
        assert rejoined.counters["records_applied"] == 4
        assert rejoined.counters["resyncs"] == 0
        assert sorted(replica_db.table("r").rows) == sorted(db.table("r").rows)
        rejoined.close()
        replica_db.close()

    def test_checkpoint_gap_forces_resync(self, primary, tmp_path):
        server, db = primary
        follower = make_follower(server.url, tmp_path)
        follower.bootstrap()
        drain(follower)
        behind_at = follower.applied_lsn
        # While the follower sleeps, the primary commits more records and
        # checkpoints — truncating the log past the follower's position.
        db.execute("INSERT INTO r VALUES (70, 1, 1, 10)")
        db.checkpoint()
        db.execute("INSERT INTO r VALUES (71, 1, 1, 10)")
        assert follower.applied_lsn == behind_at
        drain(follower)
        assert follower.counters["resyncs"] == 1
        assert follower.applied_lsn == db.wal_lsn
        assert sorted(follower.db.table("r").rows) == sorted(db.table("r").rows)
        follower.close()
        follower.db.close()

    def test_unknown_record_kinds_advance_the_lsn(self, primary, tmp_path):
        server, db = primary
        follower = make_follower(server.url, tmp_path)
        replica_db = follower.bootstrap()
        # A "newer primary" logs a record kind this replica predates.
        with db._commit_lock:
            db._log_durable("future_feature", {"x": 1})
        db.execute("INSERT INTO r VALUES (80, 1, 1, 10)")
        drain(follower)
        assert follower.applied_lsn == db.wal_lsn
        assert sorted(replica_db.table("r").rows) == sorted(db.table("r").rows)
        follower.close()
        replica_db.close()

    def test_recovery_and_follower_replay_the_same_records_alike(self, tmp_path):
        """One record list — all eight kinds, a kind from the future and
        a replayed older era — through ``Database.apply_record`` twice:
        by crash recovery and by a follower.  Same catalog, same eras,
        and the follower's log ends where the primary's does."""
        from repro.storage.wal import scan_wal

        db = make_db(tmp_path)  # create_table
        db.create_table("gone", ["x"], [(1,), (2,)])
        db.execute("INSERT INTO r VALUES (50, 1, 2, 300), (51, NULL, 2, NULL)")  # dml
        db.execute("/* led by a comment */ DELETE FROM r WHERE A1 = 0")
        db.create_view("v", "SELECT A1 FROM r WHERE A4 > 100")
        db.create_view("v_gone", "SELECT x FROM gone")
        db.create_index("idx_a1", "r", "A1")
        db.create_index("idx_gone", "r", "A2", "sorted")
        db.bump_era(1)
        db.drop_index("idx_gone")
        db.drop_view("v_gone")
        db.drop_table("gone")
        db.bump_era(3)
        with db._commit_lock:
            db._log_durable("future_feature", {"x": 1})
            db._log_durable("era", {"era": 2})  # replayed, older than ours
        db.execute("UPDATE r SET A4 = 0 WHERE A1 = 50")
        records = scan_wal(str(tmp_path / "primary")).records
        assert {record.kind for record in records} == {
            "create_table", "drop_table", "create_view", "drop_view",
            "create_index", "drop_index", "dml", "era", "future_feature",
        }
        follower = make_follower("http://127.0.0.1:1", tmp_path)
        replica_db = Database.open(follower.config.data_dir, durability=follower._durability_config())
        for record in records:
            follower._apply_record(replica_db, record)
        assert replica_db.wal_lsn == records[-1].lsn == db.wal_lsn
        assert follower.era == 3 and follower.counters["records_applied"] == len(records)
        db.close()
        recovered = Database.open(str(tmp_path / "primary"))
        assert recovered.durability_info()["recovery"]["records_replayed"] == len(records)
        for store in (recovered, replica_db):
            assert store.catalog.table_names() == db.catalog.table_names() == ["r"]
            assert store.table("r").rows == db.table("r").rows
            assert store.table("r").version == db.table("r").version
            assert store.catalog.stats("r") == db.catalog.stats("r")
            assert store.view_names() == ["v"]
            assert store.indexes() == db.indexes()
            assert (store.era, store.era_lsn) == (db.era, db.era_lsn) == (3, records[-4].lsn)
            assert store.era_history == db.era_history
            store.close()

    def test_injected_torn_batch_still_converges(self, primary, tmp_path, monkeypatch):
        server, db = primary
        follower = make_follower(server.url, tmp_path)
        follower.bootstrap()
        for i in range(6):
            db.execute(f"INSERT INTO r VALUES ({85 + i}, 1, 1, 10)")
        # One injected torn response: the primary cuts the batch in
        # half; the follower applies whatever prefix survives the scan.
        monkeypatch.setenv("REPRO_FAULT_SITES", "replication.stream.torn")
        applied = follower.step(wait=0.0)
        assert applied < 6
        replication = server.service._metrics_body()["replication"]
        assert replication["torn_frames_injected"] == 1
        monkeypatch.delenv("REPRO_FAULT_SITES")
        drain(follower)
        assert follower.applied_lsn == db.wal_lsn
        assert sorted(follower.db.table("r").rows) == sorted(db.table("r").rows)
        follower.close()
        follower.db.close()

    def test_torn_wire_batch_applies_clean_prefix(self, primary, tmp_path):
        server, db = primary

        class TearingClient:
            """Delegates to a real client but tears one byte off every
            WAL batch, guaranteeing the final frame arrives damaged."""

            def __init__(self, inner):
                self.inner = inner
                self.torn = 0

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def replication_wal(self, **kw):
                body = dict(self.inner.replication_wal(**kw))
                frames = frames_from_wire(body["frames"])
                if frames:
                    self.torn += 1
                    body["frames"] = base64.b64encode(frames[:-1]).decode("ascii")
                return body

        config = ReplicaConfig(
            primary_url=server.url, data_dir=str(tmp_path / "replica"), poll_wait=0.2
        )
        client = TearingClient(ServiceClient(server.url))
        follower = ReplicationFollower(config, client=client)
        follower.bootstrap()
        for i in range(4):
            db.execute(f"INSERT INTO r VALUES ({85 + i}, 1, 1, 10)")
        applied = follower.step(wait=0.0)
        # Four records served, the last torn: exactly three applied.
        assert applied == 3
        assert follower.counters["torn_batches"] == 1
        # Every refetch re-tears its own final frame, but each round
        # still applies the intact prefix — convergence is only limited
        # by the last record, which we let through by healing the wire.
        assert follower.step(wait=0.0) == 0
        assert follower.counters["torn_batches"] == 2
        follower.client = client.inner
        drain(follower)
        assert follower.applied_lsn == db.wal_lsn
        assert sorted(follower.db.table("r").rows) == sorted(db.table("r").rows)
        follower.close()
        follower.db.close()

    def test_converges_under_apply_stall_chaos(self, primary, tmp_path, monkeypatch):
        server, db = primary
        follower = make_follower(server.url, tmp_path, stall_seconds=0.001)
        follower.bootstrap()
        for i in range(5):
            db.execute(f"INSERT INTO r VALUES ({95 + i}, 1, 1, 10)")
        monkeypatch.setenv("REPRO_FAULT_SITES", "replication.stream.apply")
        monkeypatch.setenv("REPRO_FAULT_COUNT", "-1")
        drain(follower)
        assert follower.counters["apply_stalls"] >= 1
        assert follower.applied_lsn == db.wal_lsn
        assert sorted(follower.db.table("r").rows) == sorted(db.table("r").rows)
        follower.close()
        follower.db.close()

    def test_lsn_drift_is_fatal_and_marks_the_follower_broken(self, primary, tmp_path, monkeypatch):
        server, db = primary
        follower = make_follower(server.url, tmp_path)
        replica_db = follower.bootstrap()
        # Sabotage the alignment invariant: an apply path that silently
        # fails to log would leave the local WAL behind the stream.  The
        # follower must refuse to continue rather than drift.
        monkeypatch.setattr(replica_db, "execute", lambda *a, **kw: None)
        db.execute("INSERT INTO r VALUES (99, 1, 1, 10)")
        with pytest.raises(ReplicationError):
            drain(follower)
        assert follower.broken is not None
        with pytest.raises(ReplicationError):
            follower.step(wait=0.0)
        follower.close()
        replica_db.close()


@pytest.fixture()
def cluster(tmp_path):
    """A primary server plus one fully-threaded replica server."""
    db = make_db(tmp_path)
    server = QueryServer(db, ServerConfig(port=0)).start()
    replica = ReplicaServer(
        ReplicaConfig(
            primary_url=server.url,
            data_dir=str(tmp_path / "replica"),
            poll_wait=0.2,
        ),
        ServerConfig(port=0),
    ).start()
    deadline = time.monotonic() + 15
    while time.monotonic() < deadline:
        if replica.server.service.ready.is_set():
            break
        time.sleep(0.02)
    yield server, db, replica
    replica.stop()
    server.stop()
    db.close()


class TestEraHistoryPruning:
    """Replication responses ship a *pruned* era history: reign
    boundaries no follower could ever stream across (they predate the
    oldest retained snapshot, so any log that short resyncs from
    scratch) collapse into one sentinel, keeping a long-lived cluster's
    shipped history bounded."""

    @staticmethod
    def make_aged_primary(tmp_path, eras: int = 4) -> Database:
        data_dir = str(tmp_path / "primary")
        db = Database.open(
            data_dir,
            durability=DurabilityConfig(
                data_dir=data_dir, sync="none", snapshots_kept=1
            ),
        )
        db.create_table(
            "r",
            ["A1", "A2", "A3", "A4"],
            [(i, i % 5, i % 3, i * 100) for i in range(8)],
        )
        # Each cycle: a failover boundary, a reign's worth of writes,
        # then a checkpoint that moves the oldest retained snapshot
        # past the boundary — making it prunable.
        for era in range(1, eras + 1):
            db.bump_era(era)
            db.execute(f"INSERT INTO r VALUES ({100 + era}, 1, 1, 1)")
            db.checkpoint()
        return db

    def test_old_boundaries_collapse_into_a_sentinel(self, tmp_path):
        db = self.make_aged_primary(tmp_path)
        full = db.era_history
        pruned = db.pruned_era_history()
        assert len(pruned) < len(full)
        oldest_retained = list_snapshots(db._durability.config.data_dir)[0][0]
        # Everything at or past the oldest retained snapshot survives
        # verbatim; the sentinel is the newest boundary before it.
        kept = tuple(entry for entry in full if entry[1] >= oldest_retained)
        dropped = tuple(entry for entry in full if entry[1] < oldest_retained)
        assert dropped, "test must actually age some boundaries out"
        assert pruned == (dropped[-1],) + kept
        # The newest reign is always shippable — it is what fencing
        # decisions key on.
        assert pruned[-1] == full[-1]
        db.close()

    def test_replication_responses_ship_the_pruned_list(self, tmp_path):
        db = self.make_aged_primary(tmp_path)
        service = QueryService(db, ServerConfig(port=0))
        expected = [list(entry) for entry in db.pruned_era_history()]
        assert len(expected) < len(db.era_history)
        status, body = service.handle("POST", "/replication/snapshot", {})
        assert status == 200
        assert body["era_history"] == expected
        status, body = service.handle("POST", "/replication/wal", {"from_lsn": 0})
        assert status == 200
        assert body["era_history"] == expected
        db.close()

    def test_follower_bootstraps_against_pruned_history(self, tmp_path):
        db = self.make_aged_primary(tmp_path)
        server = QueryServer(db, ServerConfig(port=0)).start()
        try:
            follower = make_follower(server.url, tmp_path)
            replica_db = follower.bootstrap()
            try:
                drain(follower)
                assert replica_db.era == db.era
                assert replica_db.execute(CHECKSUM_SQL).rows == db.execute(CHECKSUM_SQL).rows
                # And the stream keeps working across the next boundary.
                db.bump_era(db.era + 1)
                db.execute("INSERT INTO r VALUES (900, 1, 1, 1)")
                drain(follower)
                assert replica_db.era == db.era
                assert replica_db.execute(CHECKSUM_SQL).rows == db.execute(CHECKSUM_SQL).rows
            finally:
                follower.close()
        finally:
            server.stop()
            db.close()


class TestReplicaServer:
    def test_rejects_writes_with_read_only_replica(self, cluster):
        _, _, replica = cluster
        client = ServiceClient(replica.url)
        for sql in (
            "INSERT INTO r VALUES (1, 1, 1, 1)",
            "DELETE FROM r WHERE A1 = 1",
            "UPDATE r SET A4 = 0",
            "CREATE INDEX i ON r (A1)",
            "DROP INDEX i",
        ):
            with pytest.raises(ReadOnlyReplica):
                client.query(sql)

    def test_min_lsn_gate_times_out_with_replica_lagging(self, cluster):
        server, db, replica = cluster
        client = ServiceClient(replica.url)
        # Demand an LSN the primary itself has not reached: the gate
        # must wait its budget, then fail retryably with both LSNs.
        with pytest.raises(ReplicaLagging) as info:
            client.query("SELECT COUNT(*) FROM r", min_lsn=db.wal_lsn + 50, lsn_wait=0.05)
        assert info.value.retryable
        assert info.value.min_lsn == db.wal_lsn + 50
        assert info.value.applied_lsn <= db.wal_lsn

    def test_read_your_writes_with_causality_token(self, cluster):
        server, db, replica = cluster
        primary_client = ServiceClient(server.url)
        replica_client = ServiceClient(replica.url)
        result = primary_client.query("INSERT INTO r VALUES (41, 4, 1, 4100)")
        assert result.commit_lsn == db.wal_lsn
        fresh = replica_client.query(
            "SELECT A1 FROM r WHERE A1 = 41",
            min_lsn=result.commit_lsn,
            lsn_wait=10.0,
        )
        assert fresh.rows == [(41,)]
        assert fresh.applied_lsn >= result.commit_lsn

    def test_read_your_writes_under_concurrent_write_burst(self, cluster):
        """The acceptance criterion: a client holding its own commit-LSN
        token never reads staler than its write, even while another
        writer floods the primary."""
        server, db, replica = cluster
        stop = threading.Event()

        def burst():
            client = ServiceClient(server.url)
            i = 0
            while not stop.is_set():
                client.query(f"INSERT INTO r VALUES ({1000 + i}, 0, 0, 1)")
                i += 1

        noise = threading.Thread(target=burst, daemon=True)
        noise.start()
        try:
            primary_client = ServiceClient(server.url)
            replica_client = ServiceClient(replica.url)
            for i in range(10):
                marker = 2000 + i
                written = primary_client.query(f"INSERT INTO r VALUES ({marker}, 9, 9, 9)")
                assert written.commit_lsn
                read = replica_client.query(
                    "SELECT A1 FROM r WHERE A1 = ?",
                    params=[marker],
                    min_lsn=written.commit_lsn,
                    lsn_wait=15.0,
                )
                assert read.rows == [(marker,)], f"lost write {marker}"
                assert read.applied_lsn >= written.commit_lsn
        finally:
            stop.set()
            noise.join(timeout=10)

    def test_metrics_report_lag_and_applied_lsn(self, cluster):
        server, db, replica = cluster
        primary_client = ServiceClient(server.url)
        replica_client = ServiceClient(replica.url)
        token = primary_client.query("INSERT INTO r VALUES (42, 0, 0, 0)").commit_lsn
        replica_client.query("SELECT A1 FROM r", min_lsn=token, lsn_wait=10.0)
        replication = replica_client.metrics()["replication"]
        assert replication["role"] == "replica"
        assert replication["applied_lsn"] >= token
        assert replication["lag_records"] >= 0
        assert replication["broken"] is None
        primary_side = primary_client.metrics()["replication"]
        assert primary_side["role"] == "primary"
        assert primary_side["snapshots_served"] >= 1
        assert primary_side["tails_served"] >= 1


class TestRouting:
    def test_writes_go_primary_reads_prefer_replica(self, cluster):
        server, db, replica = cluster
        client = ReplicaSetClient(server.url, [replica.url], lsn_wait=10.0)
        client.execute("INSERT INTO r VALUES (43, 0, 0, 0)")
        assert client.last_commit_lsn == db.wal_lsn
        result = client.query("SELECT A1 FROM r WHERE A1 = 43")
        assert result.rows == [(43,)]
        info = client.info()
        assert info["writes"] == 1
        assert info["replica_reads"] == 1
        assert info["primary_reads"] == 0

    def test_failover_to_primary_when_replica_is_down(self, cluster):
        server, db, replica = cluster
        client = ReplicaSetClient(server.url, ["http://127.0.0.1:9"], lsn_wait=0.2)
        client.execute("INSERT INTO r VALUES (44, 0, 0, 0)")
        result = client.query("SELECT A1 FROM r WHERE A1 = 44")
        assert result.rows == [(44,)]
        info = client.info()
        assert info["failovers"] >= 1
        assert info["primary_reads"] == 1

    def test_rotates_across_replicas(self, cluster, tmp_path):
        server, db, replica = cluster
        second = ReplicaServer(
            ReplicaConfig(
                primary_url=server.url,
                data_dir=str(tmp_path / "replica2"),
                poll_wait=0.2,
            ),
            ServerConfig(port=0),
        ).start()
        try:
            client = ReplicaSetClient(server.url, [replica.url, second.url], lsn_wait=10.0)
            for _ in range(4):
                client.query("SELECT COUNT(*) FROM r")
            info = client.info()
            assert info["replica_reads"] == 4
            assert info["primary_reads"] == 0
        finally:
            second.stop()


def checksum_of(client: ServiceClient, **kw) -> list:
    return client.query(CHECKSUM_SQL, **kw).rows


class TestSubprocessCluster:
    """The full acceptance path: real processes, SIGKILL, convergence."""

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

    def test_sigkilled_replica_rejoins_and_converges(self, tmp_path):
        procs = []
        try:
            primary, purl = self.start_process(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "serve",
                    "--port",
                    "0",
                    "--data-dir",
                    str(tmp_path / "pdata"),
                    "--dataset",
                    "rst:0.2",
                ],
                cwd=os.getcwd(),
            )
            procs.append(primary)
            primary_client = self.wait_ready(purl)

            replica_cmd = [
                sys.executable,
                "-m",
                "repro",
                "replica",
                "--primary",
                purl,
                "--data-dir",
                str(tmp_path / "rdata"),
                "--port",
                "0",
                "--poll-wait",
                "0.5",
            ]
            replica, rurl = self.start_process(replica_cmd, cwd=os.getcwd())
            procs.append(replica)
            token = primary_client.query("INSERT INTO r VALUES (1, 1, 1, 1)").commit_lsn
            replica_client = self.wait_ready(rurl)
            assert checksum_of(
                replica_client, min_lsn=token, lsn_wait=20.0
            ) == checksum_of(primary_client)

            # SIGKILL — no drain, no flush — then write while it is down.
            replica.send_signal(signal.SIGKILL)
            replica.wait(timeout=10)
            for i in range(5):
                token = primary_client.query(f"INSERT INTO r VALUES ({10 + i}, 1, 1, 1)").commit_lsn

            rejoined, rurl2 = self.start_process(replica_cmd, cwd=os.getcwd())
            procs.append(rejoined)
            rejoined_client = self.wait_ready(rurl2)
            assert checksum_of(
                rejoined_client, min_lsn=token, lsn_wait=20.0
            ) == checksum_of(primary_client)
            replication = rejoined_client.metrics()["replication"]
            assert replication["applied_lsn"] >= token
            assert replication["broken"] is None
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait(timeout=10)
