"""Database-level durability: recovery roundtrips, epochs, exemptions.

The WAL unit tests (test_wal.py) cover the on-disk format; these cover
the Database facade on top of it: DDL and DML surviving reopen,
checkpoint + tail replay, index/view epoch maintenance after recovery
(the plan cache must not serve stale plans), and the self-healing
quarantine exemption for durability-path faults.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.errors import InjectedFault
from repro.faults import FaultConfig, FaultInjector
from repro.optimizer.planner import PlannedQuery
from repro.storage.catalog import TableStats
from repro.storage.wal import DurabilityConfig, scrub

from .crash_workload import Q1_DELETE, Q1_INSERT, Q2_UPDATE


@pytest.fixture
def data_dir(tmp_path):
    return str(tmp_path / "data")


def open_db(data_dir, **config) -> Database:
    return Database.open(
        data_dir, durability=DurabilityConfig(data_dir=data_dir, sync="none", **config)
    )


def seeded(data_dir) -> Database:
    db = open_db(data_dir)
    db.create_table("r", ["a", "b"])
    db.execute("INSERT INTO r VALUES (1, 10), (2, 20), (3, 30)")
    return db


def rows(db, sql):
    return sorted(tuple(r) for r in db.execute(sql).rows)


# ---------------------------------------------------------------------------
# Roundtrips
# ---------------------------------------------------------------------------


def test_dml_survives_reopen(data_dir):
    db = seeded(data_dir)
    db.execute("UPDATE r SET b = b + 1 WHERE a >= 2")
    db.execute("DELETE FROM r WHERE a = 1")
    expected = rows(db, "SELECT * FROM r")
    db.close()

    recovered = open_db(data_dir)
    assert rows(recovered, "SELECT * FROM r") == expected == [(2, 21), (3, 31)]
    info = recovered.durability_info()
    assert info["enabled"] is True
    assert info["recovery"]["records_replayed"] > 0
    assert info["recovery"]["torn_bytes_dropped"] == 0
    recovered.close()


def test_views_and_indexes_survive_reopen(data_dir):
    db = seeded(data_dir)
    db.create_view("big", "SELECT a FROM r WHERE b > 15")
    db.create_index("idx_a", "r", "a", "hash")
    expected = rows(db, "SELECT * FROM big")
    db.close()

    recovered = open_db(data_dir)
    assert recovered.view_names() == ["big"]
    assert [i["name"] for i in recovered.indexes()] == ["idx_a"]
    assert rows(recovered, "SELECT * FROM big") == expected
    recovered.close()


def test_drop_table_view_index_survive_reopen(data_dir):
    db = seeded(data_dir)
    db.create_view("v", "SELECT a FROM r")
    db.create_index("idx", "r", "b", "sorted")
    db.create_table("gone", ["x"])
    db.drop_view("v")
    db.drop_index("idx")
    db.drop_table("gone")
    db.close()

    recovered = open_db(data_dir)
    assert recovered.catalog.table_names() == ["r"]
    assert recovered.view_names() == []
    assert recovered.indexes() == []
    recovered.close()


def test_checkpoint_plus_tail_replay(data_dir):
    db = seeded(data_dir)
    lsn = db.checkpoint()
    assert lsn is not None and lsn > 0
    db.execute("INSERT INTO r VALUES (4, 40)")  # the post-checkpoint tail
    expected = rows(db, "SELECT * FROM r")
    db.close()

    recovered = open_db(data_dir)
    info = recovered.durability_info()
    assert info["recovery"]["snapshot_lsn"] == lsn
    assert info["recovery"]["records_replayed"] == 1
    assert rows(recovered, "SELECT * FROM r") == expected
    recovered.close()


def test_automatic_checkpoint_fires_on_record_threshold(data_dir):
    db = open_db(data_dir, checkpoint_every_records=5)
    db.create_table("t", ["x"])
    for i in range(8):
        db.execute(f"INSERT INTO t VALUES ({i})")
    info = db.durability_info()
    assert info["checkpoints"] >= 1
    assert info["last_checkpoint_lsn"] > 0
    db.close()

    recovered = open_db(data_dir, checkpoint_every_records=5)
    assert len(recovered.table("t")) == 8
    recovered.close()


def test_in_memory_database_reports_disabled(data_dir):
    db = Database()
    assert db.durability_info() == {"enabled": False}
    assert db.checkpoint() is None
    db.close()  # must be a safe no-op


def test_checkpoint_after_recovery_compacts(data_dir):
    db = seeded(data_dir)
    db.close()
    recovered = open_db(data_dir)
    recovered.checkpoint()
    recovered.close()
    again = open_db(data_dir)
    assert again.durability_info()["recovery"]["records_replayed"] == 0
    assert rows(again, "SELECT * FROM r") == [(1, 10), (2, 20), (3, 30)]
    again.close()


def test_unreadable_log_fails_the_open_and_is_left_alone(data_dir, monkeypatch):
    """Only a *missing* wal.log may be replaced by a fresh one: an open
    that fails for any other reason (EACCES, EMFILE, EIO) must surface,
    not read as "no log" and have an empty log renamed over the real one."""
    import builtins
    import os

    seeded(data_dir).close()
    wal_path = os.path.join(data_dir, "wal.log")
    with open(wal_path, "rb") as handle:
        before = handle.read()

    def denied(path, mode="r", *args, **kwargs):
        if path == wal_path and mode == "rb":
            raise PermissionError(13, "Permission denied", path)
        return builtins.open(path, mode, *args, **kwargs)

    monkeypatch.setattr("repro.storage.wal.open", denied, raising=False)
    with pytest.raises(PermissionError):
        open_db(data_dir)
    with pytest.raises(PermissionError):  # nor does scrub call it "missing"
        scrub(data_dir)
    monkeypatch.undo()
    with open(wal_path, "rb") as handle:
        assert handle.read() == before
    recovered = open_db(data_dir)
    assert rows(recovered, "SELECT * FROM r") == [(1, 10), (2, 20), (3, 30)]
    recovered.close()


# ---------------------------------------------------------------------------
# Satellite 1: epochs after recovery behave exactly like the live path
# ---------------------------------------------------------------------------


def test_plan_cache_epochs_after_recovery(data_dir):
    """Cache a plan, crash-reopen, re-query, then change DDL: the
    recovered database must hit its own fresh cache and invalidate on
    view/index changes exactly as a live one would."""
    db = seeded(data_dir)
    db.create_view("v", "SELECT a, b FROM r WHERE b >= 20")
    db.execute("SELECT * FROM v")
    db.execute("SELECT * FROM v")
    assert db.cache_info().hits >= 1
    db.close()  # an orderly close still leaves the WAL to replay

    recovered = open_db(data_dir)
    baseline = recovered.cache_info().misses
    assert rows(recovered, "SELECT * FROM v") == [(2, 20), (3, 30)]
    assert recovered.cache_info().misses == baseline + 1  # fresh cache, new entry
    assert rows(recovered, "SELECT * FROM v") == [(2, 20), (3, 30)]
    assert recovered.cache_info().hits >= 1

    # A view redefinition after recovery must orphan the cached plan.
    recovered.drop_view("v")
    recovered.create_view("v", "SELECT a, b FROM r WHERE b < 20")
    assert rows(recovered, "SELECT * FROM v") == [(1, 10)]

    # An index change after recovery must also bump the cache epoch.
    before = recovered.cache_info().misses
    recovered.execute("SELECT * FROM r WHERE a = 2")
    recovered.create_index("idx_a", "r", "a", "hash")
    recovered.execute("SELECT * FROM r WHERE a = 2")
    assert recovered.cache_info().misses >= before + 2
    recovered.close()


def test_recovered_dml_updates_statistics_and_versions(data_dir):
    """Statistics are a function of the table's contents and versions of
    the statements applied, whichever way the store got there: kept by
    deltas on the live primary, replayed from the log alone, or loaded
    from a mid-stream checkpoint (one full computation) and replayed on."""
    db = seeded(data_dir)
    db.execute("INSERT INTO r VALUES (4, NULL), (NULL, 50), (4, 40)")
    db.execute("UPDATE r SET b = b + 1 WHERE a >= 2")
    db.execute("DELETE FROM r WHERE a = 1")
    live_version = db.table("r").version
    live_stats = db.catalog.stats("r")
    assert live_stats == TableStats.compute(db.table("r"))
    db.close()

    recovered = open_db(data_dir)
    assert recovered.durability_info()["recovery"]["snapshot_lsn"] == 0
    assert recovered.catalog.stats("r") == live_stats
    assert recovered.catalog.stats("r").row_count == 5
    # Replay advances the table version the same way the live path did.
    assert recovered.table("r").version == live_version

    recovered.checkpoint()
    recovered.execute("UPDATE r SET a = b, b = a WHERE a = 4")
    recovered.execute("INSERT INTO r SELECT b, a FROM r WHERE a IS NULL")
    recovered.execute("DELETE FROM r WHERE b = (SELECT MAX(b) FROM r)")
    recovered.execute("UPDATE r SET b = 2.5 WHERE a = 2")
    since_checkpoint = recovered.table("r").version - live_version
    live_stats = recovered.catalog.stats("r")
    assert live_stats == TableStats.compute(recovered.table("r"))
    recovered.close()

    again = open_db(data_dir)
    recovery = again.durability_info()["recovery"]
    assert recovery["snapshot_lsn"] > 0 and recovery["records_replayed"] == 4
    stats = again.catalog.stats("r")
    assert stats == live_stats
    for name, column in stats.columns.items():
        assert column == live_stats.columns[name], name  # histograms included
    # The snapshot loads the table at version 0; the tail moves it as it
    # moved the live table.
    assert again.table("r").version == since_checkpoint
    again.execute("INSERT INTO r VALUES (9, 90)")
    assert again.catalog.stats("r").row_count == stats.row_count
    assert again.catalog.stats("r") == TableStats.compute(again.table("r"))
    again.close()


# ---------------------------------------------------------------------------
# Satellite 2: durability faults are exempt from plan quarantine
# ---------------------------------------------------------------------------


def _raise_once(error):
    """Patch PlannedQuery.execute to raise ``error`` on its first call."""
    original = PlannedQuery.execute
    state = {"fired": False}

    def patched(self, catalog, options=None, **kwargs):
        if not state["fired"]:
            state["fired"] = True
            raise error
        return original(self, catalog, options, **kwargs)

    return patched


def test_durability_fault_skips_quarantine(data_dir, monkeypatch):
    from repro.engine import EvalOptions

    db = seeded(data_dir)
    monkeypatch.setattr(
        PlannedQuery, "execute", _raise_once(InjectedFault("storage.wal.fsync"))
    )
    # The vectorized engine has a fallback (canonical row), so the
    # retryable fault enters the healing path instead of propagating.
    result = db.execute(
        "SELECT COUNT(*) FROM r WHERE b > 5", options=EvalOptions(vectorized=True)
    )
    assert result.rows == [(3,)]
    info = db.resilience_info()
    assert info["degradations"] == 1
    assert info["durability_exemptions"] == 1
    # The decisive assertion: no plan-cache key was poisoned.
    assert db.cache_info().quarantined_keys == 0
    db.close()


def test_engine_fault_still_quarantines(data_dir, monkeypatch):
    from repro.engine import EvalOptions

    db = seeded(data_dir)
    monkeypatch.setattr(
        PlannedQuery, "execute", _raise_once(InjectedFault("engine.vector.VSelect"))
    )
    result = db.execute(
        "SELECT COUNT(*) FROM r WHERE b > 5", options=EvalOptions(vectorized=True)
    )
    assert result.rows == [(3,)]
    info = db.resilience_info()
    assert info["degradations"] == 1
    assert info["durability_exemptions"] == 0
    assert db.cache_info().quarantined_keys == 1
    db.close()


def test_wal_commit_fault_surfaces_and_counts(data_dir):
    """An injected WAL fault on the DML commit path propagates (the
    statement is unacknowledged) and is counted, but the in-memory
    mutation stands and the next statement commits normally."""
    from repro.engine import EvalOptions

    db = seeded(data_dir)
    injector = FaultInjector(FaultConfig(sites=("storage.wal.append",)))
    with pytest.raises(InjectedFault):
        db.execute("INSERT INTO r VALUES (7, 70)", options=EvalOptions(faults=injector))
    assert db.resilience_info()["wal_commit_failures"] == 1
    assert len(db.table("r")) == 4  # applied in memory, never acknowledged
    db.execute("INSERT INTO r VALUES (8, 80)")
    expected_after_crash = rows(db, "SELECT * FROM r")
    db.close()

    # Recovery serves only the acknowledged statements: the faulted
    # insert wrote nothing, so (7, 70) is gone and (8, 80) survives.
    recovered = open_db(data_dir)
    recovered_rows = rows(recovered, "SELECT * FROM r")
    assert (8, 80) in recovered_rows
    assert (7, 70) not in recovered_rows
    assert [r for r in expected_after_crash if r != (7, 70)] == recovered_rows
    recovered.close()


def test_env_armed_wal_fault_counts_once(data_dir, monkeypatch):
    db = seeded(data_dir)
    monkeypatch.setenv("REPRO_FAULT_SITES", "storage.wal.fsync")
    with pytest.raises(InjectedFault):
        db.execute("INSERT INTO r VALUES (5, 50)")
    monkeypatch.delenv("REPRO_FAULT_SITES")
    assert db.resilience_info()["wal_commit_failures"] == 1
    # The record was written but never synced: the WAL rolls it back, so
    # the unacknowledged statement does not survive a reopen (while the
    # in-memory mutation stands until then).
    assert (5, 50) in rows(db, "SELECT * FROM r")
    db.close()
    recovered = open_db(data_dir)
    assert (5, 50) not in rows(recovered, "SELECT * FROM r")
    recovered.close()


def test_concurrent_dml_commits_in_apply_order(data_dir):
    """Four writer threads (the server's max_in_flight) hammer DML; the
    commit lock must keep WAL order consistent with apply order, so a
    reopen reproduces the exact same table."""
    import threading

    db = seeded(data_dir)
    errors: list[Exception] = []

    def worker(i: int) -> None:
        try:
            for j in range(10):
                key = 100 + i * 10 + j
                db.execute(f"INSERT INTO r VALUES ({key}, {key * 10})")
                if j % 3 == 0:
                    db.execute(f"UPDATE r SET b = b + 1 WHERE a = {key}")
        except Exception as error:  # pragma: no cover - failure detail
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    expected = rows(db, "SELECT * FROM r")
    assert len(expected) == 3 + 40
    db.close()

    recovered = open_db(data_dir)
    assert rows(recovered, "SELECT * FROM r") == expected
    recovered.close()


# ---------------------------------------------------------------------------
# Replay reads like a reader: the batch engine when numpy imports
# ---------------------------------------------------------------------------

PAPER_SHAPED = (
    "INSERT INTO r VALUES (2, 30), (50, 30)",
    Q2_UPDATE.format(t="r", pivot=25),
    Q1_DELETE.format(t="r", pivot=45),
    # Eqv. 2's plan delivers (4, 8) (σ⁺) before (1, 7); the canonical
    # plan's scan delivers them the other way round.
    "INSERT INTO r VALUES (1, 7), (4, 8)",
    Q1_INSERT.format(t="r", pivot=2),
)


def _logged_paper_shaped_writes(data_dir):
    """Run on the canonical plan and the row engine, so that a replay
    (``auto``, the batch engine) redoes every statement on another plan."""
    db = seeded(data_dir)
    for sql in PAPER_SHAPED:
        assert db.execute(sql, strategy="canonical").rows[0][0] > 0, sql
    expected = list(db.table("r").rows)
    assert expected == [(2, 21), (3, 31), (1, 7), (4, 8), (1, 7), (3, 31), (4, 8)]
    db.close()
    return expected


def test_replay_on_another_plan_and_engine_rebuilds_the_same_row_list(data_dir):
    expected = _logged_paper_shaped_writes(data_dir)
    recovered = open_db(data_dir)  # unnested; the batch engine where numpy imports
    assert recovered.table("r").rows == expected
    assert recovered.resilience_info()["degradations"] == 0
    assert recovered.catalog.stats("r") == TableStats.compute(recovered.table("r"))
    recovered.close()


def test_replay_runs_on_the_batch_engine_and_a_failing_kernel_heals(data_dir, monkeypatch):
    pytest.importorskip("numpy")
    expected = _logged_paper_shaped_writes(data_dir)
    # Only the batch engine has these sites: a degradation per statement
    # with an embedded read says which engine replayed it, and the state
    # says the heal (canonical plan, row engine) redid it right.
    monkeypatch.setenv("REPRO_FAULT_SITES", "engine.vector")
    recovered = open_db(data_dir)
    monkeypatch.delenv("REPRO_FAULT_SITES")
    assert recovered.table("r").rows == expected
    info = recovered.resilience_info()
    assert (info["degradations"], info["fallback_successes"]) == (3, 3)
    assert info["last_degradation"]["engine"] == "vectorized"
    recovered.close()


def test_replay_falls_back_to_the_row_engine_without_numpy(data_dir, monkeypatch):
    import sys

    import repro

    expected = _logged_paper_shaped_writes(data_dir)
    monkeypatch.setitem(sys.modules, "numpy", None)  # ``import numpy`` now raises
    repro._replay_options.cache_clear()
    try:
        assert repro._replay_options().vectorized is False
        monkeypatch.setenv("REPRO_FAULT_SITES", "engine.vector")
        recovered = open_db(data_dir)
    finally:
        monkeypatch.undo()
        repro._replay_options.cache_clear()
    assert recovered.table("r").rows == expected
    assert recovered.resilience_info()["degradations"] == 0
    recovered.close()
