"""Snapshot isolation under concurrency.

Three layers, matching how MVCC is consumed:

* **library races** — threads pinned at an LSN read through
  ``Database.execute(..., at_lsn=...)`` while other threads commit;
* **server burst** — an HTTP server at ``max_in_flight=4`` keeps serving
  pinned-session reads while a long write burst commits;
* **crash-recovery differential** — a SIGKILLed workload recovers into a
  database whose rebuilt version chain serves the same snapshot the
  in-memory oracle holds, and keeps isolating readers afterwards.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import Database, EvalOptions
from repro.service import QueryServer, ServerConfig
from repro.service.client import ServiceClient
from repro.storage.wal import DurabilityConfig
from tests import crash_workload

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD = os.path.join(REPO_ROOT, "tests", "crash_workload.py")


def seeded_db(rows: int = 200) -> Database:
    db = Database()
    db.create_table("t", ["a", "b"], [(i % 10, i) for i in range(rows)])
    return db


def count_and_sum(db: Database, at_lsn=None, vectorized=False) -> tuple:
    result = db.execute(
        "SELECT COUNT(*), SUM(b) FROM t",
        options=EvalOptions(vectorized=vectorized),
        at_lsn=at_lsn,
    )
    return result.rows[0]


class TestSnapshotBasics:
    def test_pinned_read_is_repeatable_across_commits(self):
        db = seeded_db()
        handle = db.pin_snapshot()
        before = count_and_sum(db, at_lsn=handle.lsn)
        db.execute("INSERT INTO t VALUES (99, 100000)")
        db.execute("DELETE FROM t WHERE a = 0")
        assert count_and_sum(db, at_lsn=handle.lsn) == before
        assert count_and_sum(db) != before
        db.release_snapshot(handle)

    def test_release_and_repin_sees_new_commits(self):
        db = seeded_db()
        handle = db.pin_snapshot()
        db.execute("INSERT INTO t VALUES (99, 100000)")
        db.release_snapshot(handle)
        moved = db.pin_snapshot()
        assert moved.lsn > handle.lsn
        assert count_and_sum(db, at_lsn=moved.lsn) == count_and_sum(db)
        db.release_snapshot(moved)

    def test_versions_are_collected_once_unpinned(self):
        db = seeded_db()
        handle = db.pin_snapshot()
        for i in range(5):
            db.execute(f"INSERT INTO t VALUES ({i}, {i})")
        assert db.mvcc_info()["versions"] > 1
        db.release_snapshot(handle)
        db.execute("INSERT INTO t VALUES (0, 0)")  # commit triggers GC
        info = db.mvcc_info()
        assert info["chains"]["t"] == 1
        assert info["versions_collected"] >= 5
        assert info["active_pins"] == 0

    def test_release_is_idempotent(self):
        db = seeded_db()
        handle = db.pin_snapshot()
        db.release_snapshot(handle)
        db.release_snapshot(handle)
        assert db.mvcc_info()["active_pins"] == 0


class TestSnapshotRaces:
    """Threaded readers pinned at an LSN vs. a concurrent writer."""

    READERS = 4
    READS_PER_THREAD = 25
    WRITES = 120

    def test_pinned_readers_stable_under_concurrent_commits(self):
        db = seeded_db()
        handle = db.pin_snapshot()
        expected = count_and_sum(db, at_lsn=handle.lsn)
        start = threading.Barrier(self.READERS + 1)
        errors: list[str] = []

        def reader(index: int) -> None:
            vectorized = index % 2 == 1  # alternate engines across threads
            start.wait()
            for _ in range(self.READS_PER_THREAD):
                got = count_and_sum(db, at_lsn=handle.lsn, vectorized=vectorized)
                if got != expected:
                    errors.append(f"reader {index} saw {got}, expected {expected}")
                    return

        def writer() -> None:
            start.wait()
            for i in range(self.WRITES):
                if i % 3 == 2:
                    db.execute(f"UPDATE t SET b = b + 1 WHERE a = {i % 10}")
                else:
                    db.execute(f"INSERT INTO t VALUES ({i % 10}, {i})")

        threads = [
            threading.Thread(target=reader, args=(index,)) for index in range(self.READERS)
        ]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        # The pin held history back; the live head has moved past it.
        assert count_and_sum(db) != expected
        assert db.commit_lsn > handle.lsn
        db.release_snapshot(handle)

    def test_unpinned_readers_see_committed_states_only(self):
        """Readers without a pin may see *different* LSNs run to run, but
        each read must be internally consistent: COUNT and SUM must come
        from the same committed version, never a half-applied insert."""
        db = Database()
        db.create_table("t", ["a", "b"], [(i, 10) for i in range(50)])
        stop = threading.Event()
        errors: list[str] = []

        def reader() -> None:
            while not stop.is_set():
                count, total = count_and_sum(db)
                if total != count * 10:
                    errors.append(f"torn read: COUNT={count} SUM={total}")
                    return

        def writer() -> None:
            for i in range(150):
                db.execute(f"INSERT INTO t VALUES ({i}, 10)")
            stop.set()

        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        stop.set()
        assert errors == []
        assert count_and_sum(db) == (200, 2000)

    def test_readers_at_the_newest_lsn_never_see_a_statement_in_flight(self):
        """A reader pinned at the newest LSN resolves its table while the
        writer may be inside its next statement: it reads that LSN's rows,
        never the live table the statement is changing."""
        db = Database()
        db.create_table("t", ["a", "b"], [(i, 10) for i in range(50)])
        first, stop, errors = db.commit_lsn, threading.Event(), []

        def reader(vectorized: bool) -> None:
            while not stop.is_set():
                handle = db.pin_snapshot()
                try:
                    count, _ = count_and_sum(db, at_lsn=handle.lsn, vectorized=vectorized)
                finally:
                    db.release_snapshot(handle)
                if count != 50 + handle.lsn - first:  # one INSERT per LSN
                    errors.append(f"LSN {handle.lsn} read {count} rows")

        threads = [threading.Thread(target=reader, args=(k % 2 == 1,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for i in range(300):
                db.execute(f"INSERT INTO t VALUES ({i}, 10)")
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


class TestServerWriteBurst:
    """Reads keep completing while a long write burst holds the server."""

    def test_pinned_session_reads_during_write_burst(self):
        config = ServerConfig(port=0, max_in_flight=4, max_queue=16, default_timeout=30.0)
        server = QueryServer(seeded_db(), config).start()
        client = ServiceClient(server.url)
        try:
            with client.session(pin_snapshot=True) as session:
                assert session.snapshot_lsn is not None
                baseline = session.query("SELECT COUNT(*), SUM(b) FROM t").rows[0]
                stop = threading.Event()
                burst_errors: list[str] = []

                def write_burst() -> None:
                    i = 0
                    while not stop.is_set():
                        try:
                            client.query(f"INSERT INTO t VALUES ({i % 10}, {i})")
                        except Exception as error:  # noqa: BLE001 - recorded for assert
                            burst_errors.append(repr(error))
                            return
                        i += 1

                writers = [threading.Thread(target=write_burst) for _ in range(2)]
                for thread in writers:
                    thread.start()
                try:
                    pinned = [
                        session.query("SELECT COUNT(*), SUM(b) FROM t").rows[0]
                        for _ in range(15)
                    ]
                    live = client.query("SELECT COUNT(*) FROM t").rows[0][0]
                finally:
                    stop.set()
                    for thread in writers:
                        thread.join(timeout=30)
                assert burst_errors == []
                assert all(row == baseline for row in pinned)
                assert live > baseline[0]
                # A re-pin after the burst observes the written rows.
                session.pin()
                repinned = session.query("SELECT COUNT(*) FROM t").rows[0][0]
                assert repinned > baseline[0]
        finally:
            server.stop()


class TestRecoveryDifferential:
    """SIGKILL mid-workload; the rebuilt chain must match the oracle."""

    NUM_OPS = 60
    SEED = 20260809

    def _oracle_states(self) -> list[list[tuple]]:
        db = Database()
        db.create_table("t", ["a", "b"])
        states = [sorted(tuple(row) for row in db.table("t").rows)]
        for sql in crash_workload.statements(self.NUM_OPS, self.SEED):
            db.execute(sql)
            states.append(sorted(tuple(row) for row in db.table("t").rows))
        return states

    def test_recovered_chain_serves_oracle_state_and_isolates(self, tmp_path):
        data_dir = tmp_path / "data"
        progress = tmp_path / "progress"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        env["REPRO_WORKLOAD_SLOWDOWN"] = "0.01"
        child = subprocess.Popen(
            [
                sys.executable,
                WORKLOAD,
                str(data_dir),
                str(progress),
                str(self.NUM_OPS),
                str(self.SEED),
                "1000",  # no mid-workload checkpoint: recovery replays the WAL
            ],
            env=env,
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        deadline = time.time() + 30
        while time.time() < deadline:
            if progress.exists() and sum(1 for _ in open(progress)) >= 10:
                break
            time.sleep(0.02)
        child.send_signal(signal.SIGKILL)
        child.communicate(timeout=30)
        acked = sum(1 for line in open(progress) if line.strip())
        assert 0 < acked < self.NUM_OPS, "SIGKILL landed outside the workload"

        db = Database.open(
            str(data_dir),
            durability=DurabilityConfig(data_dir=str(data_dir), sync="none"),
        )
        try:
            recovered = sorted(tuple(row) for row in db.table("t").rows)
            oracle = self._oracle_states()
            # The statement in flight at the kill may or may not have
            # committed; both prefixes are consistent states.
            assert recovered in (oracle[acked], oracle[acked + 1])

            # The rebuilt chain starts at the recovery commit and keeps
            # isolating: a pin taken now survives further DML untouched.
            assert db.commit_lsn >= 1
            handle = db.pin_snapshot()
            pinned_before = count_and_sum(db, at_lsn=handle.lsn)
            db.execute("INSERT INTO t VALUES (999, 999)")
            assert count_and_sum(db, at_lsn=handle.lsn) == pinned_before
            live_rows = sorted(tuple(row) for row in db.table("t").rows)
            assert live_rows != recovered
            db.release_snapshot(handle)
        finally:
            db.close()


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
