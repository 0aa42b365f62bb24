"""Unit tests for the WAL layer itself (repro.storage.wal).

These exercise the on-disk machinery below the Database facade: record
framing, torn-tail detection and truncation, snapshot verification and
fallback, checkpoint compaction, and the crash-point hook (with
``wal._exit`` monkeypatched so nothing actually dies).
"""

from __future__ import annotations

import os
import zlib

import pytest

from repro.errors import DurabilityError
from repro.faults import FaultConfig, FaultInjector
from repro.storage import wal
from repro.storage.wal import (
    CRASH_POINTS,
    DurabilityConfig,
    DurabilityManager,
    list_snapshots,
    load_snapshot,
    snapshot_path,
    write_snapshot,
)


def manager(tmp_path, **overrides) -> DurabilityManager:
    overrides.setdefault("sync", "none")
    config = DurabilityConfig(data_dir=str(tmp_path), **overrides)
    m = DurabilityManager(config)
    m.start()
    return m


# ---------------------------------------------------------------------------
# Framing and the append/scan roundtrip
# ---------------------------------------------------------------------------


def test_log_and_recover_roundtrip(tmp_path):
    m = manager(tmp_path)
    lsns = [m.log("dml", {"sql": f"INSERT {i}"}) for i in range(5)]
    assert lsns == [1, 2, 3, 4, 5]
    m.close()

    fresh = DurabilityManager(DurabilityConfig(data_dir=str(tmp_path), sync="none"))
    result = fresh.start()
    assert [r.lsn for r in result.records] == [1, 2, 3, 4, 5]
    assert [r.data["sql"] for r in result.records] == [f"INSERT {i}" for i in range(5)]
    assert result.torn_bytes_dropped == 0
    assert fresh.last_lsn == 5
    fresh.close()


def test_lsns_continue_across_reopen(tmp_path):
    m = manager(tmp_path)
    m.log("dml", {"sql": "a"})
    m.close()
    m2 = manager(tmp_path)
    assert m2.log("dml", {"sql": "b"}) == 2
    m2.close()
    fresh = DurabilityManager(DurabilityConfig(data_dir=str(tmp_path), sync="none"))
    assert [r.lsn for r in fresh.start().records] == [1, 2]
    fresh.close()


def test_unserializable_payload_is_rejected_before_write(tmp_path):
    m = manager(tmp_path)
    with pytest.raises(DurabilityError):
        m.log("dml", {"bad": object()})
    # The failed append consumed nothing: next record is still LSN 1.
    assert m.log("dml", {"sql": "ok"}) == 1
    m.close()


# ---------------------------------------------------------------------------
# Torn and corrupt tails
# ---------------------------------------------------------------------------


def test_torn_tail_is_dropped_and_truncated(tmp_path):
    m = manager(tmp_path)
    for i in range(3):
        m.log("dml", {"sql": f"stmt {i}"})
    m.close()
    path = os.path.join(str(tmp_path), wal.WAL_NAME)
    raw = open(path, "rb").read()
    # Tear the last record: drop its final 4 bytes.
    open(path, "wb").write(raw[:-4])

    fresh = DurabilityManager(DurabilityConfig(data_dir=str(tmp_path), sync="none"))
    result = fresh.start()
    assert [r.lsn for r in result.records] == [1, 2]
    assert result.torn_bytes_dropped > 0
    # The file was truncated back to the good prefix and appending resumes
    # at the LSN after the last *surviving* record.
    assert fresh.log("dml", {"sql": "new"}) == 3
    fresh.close()
    again = DurabilityManager(DurabilityConfig(data_dir=str(tmp_path), sync="none"))
    assert [r.data["sql"] for r in again.start().records] == ["stmt 0", "stmt 1", "new"]
    again.close()


def test_crc_corruption_stops_the_scan(tmp_path):
    m = manager(tmp_path)
    for i in range(3):
        m.log("dml", {"sql": f"stmt {i}"})
    m.close()
    path = os.path.join(str(tmp_path), wal.WAL_NAME)
    raw = bytearray(open(path, "rb").read())
    # Flip one bit in the middle record's payload; records 2 and 3 must
    # both be dropped (a corrupt record ends the trusted prefix).
    frame = len(raw) // 3
    raw[wal.WAL_HEADER_SIZE + frame + wal._FRAME.size + 2] ^= 0x40
    open(path, "wb").write(bytes(raw))

    fresh = DurabilityManager(DurabilityConfig(data_dir=str(tmp_path), sync="none"))
    result = fresh.start()
    assert [r.lsn for r in result.records] == [1]
    assert result.torn_bytes_dropped > 0
    fresh.close()


def test_mangled_header_starts_a_fresh_log(tmp_path):
    m = manager(tmp_path)
    m.log("dml", {"sql": "lost"})
    m.close()
    path = os.path.join(str(tmp_path), wal.WAL_NAME)
    open(path, "wb").write(b"garbage")

    fresh = DurabilityManager(DurabilityConfig(data_dir=str(tmp_path), sync="none"))
    result = fresh.start()
    assert result.records == []
    # Appending works on the rewritten file.
    assert fresh.log("dml", {"sql": "ok"}) == 1
    fresh.close()


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


def test_snapshot_roundtrip_and_checksum(tmp_path):
    path = snapshot_path(str(tmp_path), 7)
    write_snapshot(path, 7, {"tables": {"t": {"rows": [[1, 2]]}}})
    lsn, state = load_snapshot(path)
    assert lsn == 7
    assert state["tables"]["t"]["rows"] == [[1, 2]]

    raw = bytearray(open(path, "rb").read())
    raw[-1] ^= 0xFF
    open(path, "wb").write(bytes(raw))
    with pytest.raises(DurabilityError):
        load_snapshot(path)


def test_corrupt_newest_snapshot_falls_back_to_older(tmp_path):
    write_snapshot(snapshot_path(str(tmp_path), 3), 3, {"marker": "old"})
    write_snapshot(snapshot_path(str(tmp_path), 9), 9, {"marker": "new"})
    # Corrupt the newest.
    newest = snapshot_path(str(tmp_path), 9)
    open(newest, "wb").write(b"RPSNAP1\n\x00broken")

    fresh = DurabilityManager(DurabilityConfig(data_dir=str(tmp_path), sync="none"))
    result = fresh.start()
    assert result.snapshot_fallback is True
    assert result.snapshot_lsn == 3
    assert result.snapshot_state == {"marker": "old"}
    fresh.close()


def test_snapshot_fallback_past_wal_base_fails_loudly(tmp_path):
    """The WAL is truncated at every checkpoint, so a fallback to an
    older snapshot has no log records covering the interval in between;
    replaying the tail onto that state would silently lose a whole
    checkpoint interval — recovery must refuse instead."""
    m = manager(tmp_path, snapshots_kept=2)
    m.log("dml", {"sql": "gen 1"})
    m.checkpoint({"gen": 1})
    m.log("dml", {"sql": "gen 2"})
    m.checkpoint({"gen": 2})  # WAL now based at LSN 2
    m.log("dml", {"sql": "tail"})
    m.close()
    newest = snapshot_path(str(tmp_path), 2)
    raw = bytearray(open(newest, "rb").read())
    raw[-1] ^= 0xFF
    open(newest, "wb").write(bytes(raw))

    fresh = DurabilityManager(DurabilityConfig(data_dir=str(tmp_path), sync="none"))
    with pytest.raises(DurabilityError, match="recovery gap"):
        fresh.start()


def test_every_snapshot_corrupt_past_wal_base_fails_loudly(tmp_path):
    m = manager(tmp_path)
    m.log("dml", {"sql": "x"})
    m.checkpoint({"gen": 1})
    m.close()
    for _, path in list_snapshots(str(tmp_path)):
        open(path, "wb").write(b"broken")
    fresh = DurabilityManager(DurabilityConfig(data_dir=str(tmp_path), sync="none"))
    with pytest.raises(DurabilityError, match="recovery gap"):
        fresh.start()


def test_config_rejects_nonpositive_snapshots_kept(tmp_path):
    # snapshots_kept=0 would make the post-checkpoint prune delete the
    # snapshot just written — after the WAL was already truncated.
    with pytest.raises(DurabilityError, match="snapshots_kept"):
        DurabilityConfig(data_dir=str(tmp_path), snapshots_kept=0)
    with pytest.raises(DurabilityError, match="threshold"):
        DurabilityConfig(data_dir=str(tmp_path), checkpoint_every_records=0)


def test_snapshot_lsn_filters_already_covered_records(tmp_path):
    """A crash after the snapshot rename but before WAL truncation leaves
    covered records in the log; recovery must not replay them."""
    m = manager(tmp_path)
    for i in range(4):
        m.log("dml", {"sql": f"stmt {i}"})
    # Simulate the crash window: snapshot exists at LSN 4, log untouched.
    write_snapshot(snapshot_path(str(tmp_path), 4), 4, {"covered": True})
    m.close()

    fresh = DurabilityManager(DurabilityConfig(data_dir=str(tmp_path), sync="none"))
    result = fresh.start()
    assert result.snapshot_lsn == 4
    assert result.records == []  # all four are covered by the snapshot
    assert fresh.last_lsn == 4
    fresh.close()


def test_checkpoint_truncates_log_and_prunes_snapshots(tmp_path):
    m = manager(tmp_path, snapshots_kept=2)
    for i in range(3):
        m.log("dml", {"sql": f"stmt {i}"})
    empty_bytes = wal.WAL_HEADER_SIZE
    assert m.wal_bytes > empty_bytes
    assert m.checkpoint({"gen": 1}) == 3
    assert m.wal_bytes == empty_bytes
    m.log("dml", {"sql": "after"})
    assert m.checkpoint({"gen": 2}) == 4
    m.checkpoint({"gen": 3})
    assert len(list_snapshots(str(tmp_path))) == 2  # pruned to snapshots_kept
    m.close()

    fresh = DurabilityManager(DurabilityConfig(data_dir=str(tmp_path), sync="none"))
    result = fresh.start()
    assert result.snapshot_state == {"gen": 3}
    assert result.records == []
    fresh.close()


def test_concurrent_appends_keep_lsns_dense(tmp_path):
    """The query server admits concurrent execute() calls; interleaved
    appends must still produce a dense, fully recoverable LSN sequence."""
    import threading

    m = manager(tmp_path)
    lsns: list[int] = []
    errors: list[Exception] = []

    def worker(i: int) -> None:
        try:
            for j in range(25):
                lsns.append(m.log("dml", {"sql": f"writer {i} stmt {j}"}))
        except Exception as error:  # pragma: no cover - failure detail
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert sorted(lsns) == list(range(1, 101))
    m.close()

    fresh = DurabilityManager(DurabilityConfig(data_dir=str(tmp_path), sync="none"))
    assert [r.lsn for r in fresh.start().records] == list(range(1, 101))
    fresh.close()


def test_concurrent_appends_survive_auto_checkpoints(tmp_path):
    """A checkpoint closes and replaces the WAL file; appenders racing it
    must never write into a dead handle or skip an LSN."""
    import threading

    m = manager(tmp_path)
    errors: list[Exception] = []
    done = threading.Event()

    def appender(i: int) -> None:
        try:
            for j in range(30):
                m.log("dml", {"sql": f"writer {i} stmt {j}"})
        except Exception as error:  # pragma: no cover - failure detail
            errors.append(error)

    def checkpointer() -> None:
        try:
            while not done.is_set():
                m.checkpoint({"concurrent": True})
        except Exception as error:  # pragma: no cover - failure detail
            errors.append(error)

    threads = [threading.Thread(target=appender, args=(i,)) for i in range(3)]
    chk = threading.Thread(target=checkpointer)
    for t in threads:
        t.start()
    chk.start()
    for t in threads:
        t.join()
    done.set()
    chk.join()
    assert errors == []
    assert m.last_lsn == 90
    m.close()

    fresh = DurabilityManager(DurabilityConfig(data_dir=str(tmp_path), sync="none"))
    result = fresh.start()
    assert result.snapshot_lsn + len(result.records) == 90
    assert [r.lsn for r in result.records] == list(
        range(result.snapshot_lsn + 1, 91)
    )
    fresh.close()


def test_checkpoint_due_thresholds(tmp_path):
    m = manager(tmp_path, checkpoint_every_records=2, checkpoint_every_bytes=1 << 20)
    m.log("dml", {"sql": "a"})
    assert not m.checkpoint_due()
    m.log("dml", {"sql": "b"})
    assert m.checkpoint_due()
    m.checkpoint({})
    assert not m.checkpoint_due()
    m.close()


# ---------------------------------------------------------------------------
# Fault sites and the crash hook
# ---------------------------------------------------------------------------


def injector_for(*sites: str) -> FaultInjector:
    return FaultInjector(FaultConfig(sites=sites))


def test_append_fault_consumes_no_lsn(tmp_path):
    from repro.errors import InjectedFault

    m = manager(tmp_path)
    with pytest.raises(InjectedFault):
        m.log("dml", {"sql": "x"}, injector=injector_for("storage.wal.append"))
    assert m.last_lsn == 0
    assert m.log("dml", {"sql": "x"}) == 1
    m.close()


def test_fsync_fault_rolls_the_record_back(tmp_path):
    from repro.errors import InjectedFault

    m = manager(tmp_path)
    with pytest.raises(InjectedFault):
        m.log("dml", {"sql": "maybe"}, injector=injector_for("storage.wal.fsync"))
    # The bytes were written but never synced: the append is truncated
    # off the file and its LSN stays free, so later records never build
    # on a frame whose on-disk fate is unknown.
    assert m.last_lsn == 0
    assert m.log("dml", {"sql": "next"}) == 1
    m.close()
    fresh = DurabilityManager(DurabilityConfig(data_dir=str(tmp_path), sync="none"))
    records = fresh.start().records
    assert [(r.lsn, r.data["sql"]) for r in records] == [(1, "next")]
    fresh.close()


def test_sync_failure_truncates_back_to_good_prefix(tmp_path, monkeypatch):
    """A real OSError from fsync (ENOSPC/EIO) must not leave the manager
    appending past possibly-unflushed bytes."""
    m = manager(tmp_path, sync="fsync")
    m.log("dml", {"sql": "committed"})
    real_fsync = wal._fsync_file
    calls = {"n": 0}

    def flaky_fsync(handle):
        calls["n"] += 1
        if calls["n"] == 1:  # fail the append's sync, let the rollback's pass
            raise OSError(28, "No space left on device")
        real_fsync(handle)

    monkeypatch.setattr(wal, "_fsync_file", flaky_fsync)
    with pytest.raises(OSError):
        m.log("dml", {"sql": "lost"})
    monkeypatch.setattr(wal, "_fsync_file", real_fsync)
    assert m.last_lsn == 1
    assert m.log("dml", {"sql": "after"}) == 2
    m.close()
    fresh = DurabilityManager(DurabilityConfig(data_dir=str(tmp_path), sync="none"))
    assert [r.data["sql"] for r in fresh.start().records] == ["committed", "after"]
    fresh.close()


def test_unrollbackable_sync_failure_latches_the_manager(tmp_path, monkeypatch):
    m = manager(tmp_path, sync="fsync")
    m.log("dml", {"sql": "committed"})

    def broken_fsync(handle):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(wal, "_fsync_file", broken_fsync)
    with pytest.raises(OSError):
        m.log("dml", {"sql": "lost"})
    monkeypatch.undo()
    # The rollback's own sync failed too: the log state is unknown, so
    # the manager refuses everything until the directory is reopened.
    with pytest.raises(DurabilityError, match="latched"):
        m.log("dml", {"sql": "refused"})
    with pytest.raises(DurabilityError, match="latched"):
        m.checkpoint({})
    assert m.info()["failed"] is not None
    m.close()
    fresh = DurabilityManager(DurabilityConfig(data_dir=str(tmp_path), sync="none"))
    assert [r.data["sql"] for r in fresh.start().records] == ["committed"]
    fresh.close()


def test_losing_the_append_handle_after_the_log_rename_latches(tmp_path, monkeypatch):
    m = manager(tmp_path)
    m.log("dml", {"sql": "covered"})

    def broken_reopen(path, mode="r", *args, **kwargs):
        if mode == "r+b":
            raise OSError(5, "Input/output error")
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(wal, "open", broken_reopen, raising=False)
    with pytest.raises(OSError):
        m.checkpoint({})
    monkeypatch.undo()
    # The old handle now names an unlinked file: appending there would
    # acknowledge records no recovery reads, so the manager refuses.
    with pytest.raises(DurabilityError, match="latched"):
        m.log("dml", {"sql": "refused"})
    m.close()
    fresh = DurabilityManager(DurabilityConfig(data_dir=str(tmp_path), sync="none"))
    result = fresh.start()
    assert result.snapshot_lsn == 1 and result.records == []
    fresh.close()


def test_checkpoint_fault_keeps_log_intact(tmp_path):
    from repro.errors import InjectedFault

    m = manager(tmp_path)
    m.log("dml", {"sql": "keep"})
    with pytest.raises(InjectedFault):
        m.checkpoint({}, injector=injector_for("storage.checkpoint.write"))
    m.close()
    fresh = DurabilityManager(DurabilityConfig(data_dir=str(tmp_path), sync="none"))
    assert [r.data["sql"] for r in fresh.start().records] == ["keep"]
    fresh.close()


class _Exit(Exception):
    pass


@pytest.fixture
def crash_capture(monkeypatch):
    """Arm the crash hook to raise instead of killing the test process."""
    calls = []

    def fake_exit(status):
        calls.append(status)
        raise _Exit()

    monkeypatch.setattr(wal, "_exit", fake_exit)
    wal.reset_crash_hits()
    yield calls
    wal.reset_crash_hits()


def test_crash_hook_prefix_match_and_after_count(crash_capture, monkeypatch):
    monkeypatch.setenv(wal.ENV_CRASH_SITE, "storage.wal.append")
    monkeypatch.setenv(wal.ENV_CRASH_AFTER, "2")
    wal.crash_point("storage.wal.append.before")  # hit 1: survives
    assert crash_capture == []
    wal.crash_point("storage.checkpoint.after")  # no match: not counted
    with pytest.raises(_Exit):
        wal.crash_point("storage.wal.append.after")  # hit 2: dies
    assert crash_capture == [wal.CRASH_EXIT_STATUS]


def test_crash_hook_disarmed_without_env(crash_capture, monkeypatch):
    monkeypatch.delenv(wal.ENV_CRASH_SITE, raising=False)
    for site in CRASH_POINTS:
        wal.crash_point(site)
    assert crash_capture == []


def test_torn_crash_point_writes_half_a_frame(crash_capture, tmp_path, monkeypatch):
    m = manager(tmp_path)
    m.log("dml", {"sql": "committed"})
    monkeypatch.setenv(wal.ENV_CRASH_SITE, "storage.wal.append.torn")
    with pytest.raises(_Exit):
        m.log("dml", {"sql": "torn away"})
    m._file.close()  # the "dead" process's handle
    monkeypatch.delenv(wal.ENV_CRASH_SITE)

    fresh = DurabilityManager(DurabilityConfig(data_dir=str(tmp_path), sync="none"))
    result = fresh.start()
    assert [r.data["sql"] for r in result.records] == ["committed"]
    assert result.torn_bytes_dropped > 0
    fresh.close()


def test_frame_crc_definition():
    """The checksum covers (lsn, length, payload) — a record moved to a
    different LSN slot fails verification even with an intact payload."""
    payload = b'{"kind":"dml","data":{}}'
    frame = wal._frame(5, payload)
    lsn, length, crc = wal._FRAME.unpack_from(frame, 0)
    assert (lsn, length) == (5, len(payload))
    assert crc == zlib.crc32(wal._CRC_HEADER.pack(5, len(payload)) + payload)
    relocated = wal._frame(6, payload)
    assert relocated[wal._FRAME.size :] == frame[wal._FRAME.size :]
    assert relocated[: wal._FRAME.size] != frame[: wal._FRAME.size]
