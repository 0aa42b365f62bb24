"""Crash-recovery differential tests: kill a real process, recover, diff.

A child process (``tests/crash_workload.py``) runs a seeded DML
workload against a durable database and fsyncs a progress line after
every *acknowledged* statement.  The parent:

1. arms one of the registered crash points (``REPRO_CRASH_SITE``) so the
   child dies with ``os._exit`` at that exact boundary — or sends a real
   SIGKILL at a randomized moment;
2. recovers the data directory with ``Database.open``;
3. replays the same seeded workload on a pure in-memory database (the
   oracle) and asserts the recovered state equals the oracle's state
   after exactly K or K+1 statements, where K is the acknowledged count
   — the precise offset is dictated by which side of the WAL append the
   crash point sits on.

This is the log-ordering contract stated in docs/durability.md: an
acknowledged statement always survives; the one in flight survives iff
its record was fully written; nothing else changes.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time

import pytest

from repro import Database
from repro.engine import EvalOptions
from repro.storage.wal import CRASH_EXIT_STATUS, CRASH_POINTS, DurabilityConfig

from tests import crash_workload

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD = os.path.join(REPO_ROOT, "tests", "crash_workload.py")

NUM_OPS = 20
SEED = 1234
CHECKPOINT_EVERY = 4

#: Which oracle prefixes the recovered state may equal, relative to the
#: acknowledged count K.  Crash points *before* the WAL write lose the
#: in-flight statement (offset 0); points after the record is synced
#: keep the written, unacknowledged record (offset 1).  Between write
#: and sync (``append.after``) the record sits in a userspace buffer
#: that ``os._exit`` discards — its survival depends on buffer fill, so
#: either prefix is legal there.  The checkpoint points all sit after
#: the triggering record's append *and* sync, hence offset 1.
EXPECTED_OFFSETS = {
    "storage.dml.apply": (0,),
    "storage.wal.append.before": (0,),
    "storage.wal.append.torn": (0,),
    "storage.wal.append.after": (0, 1),
    "storage.wal.fsync.after": (1,),
    "storage.checkpoint.write.before": (1,),
    "storage.checkpoint.rename.before": (1,),
    "storage.checkpoint.truncate.before": (1,),
    "storage.checkpoint.after": (1,),
}

#: How many matching hits before the child dies: mid-workload for the
#: per-statement sites, the first checkpoint for the checkpoint sites.
CRASH_AFTER = {point: 1 if "checkpoint" in point else 6 for point in CRASH_POINTS}


def oracle_states() -> list[list[tuple]]:
    """Sorted table contents after each statement prefix (0..NUM_OPS)."""
    db = Database()
    db.create_table("t", ["a", "b"])
    states = [sorted(db.table("t").rows)]
    for sql in crash_workload.statements(NUM_OPS, SEED):
        db.execute(sql, options=EvalOptions(vectorized=False))
        states.append(sorted(tuple(r) for r in db.table("t").rows))
    return states


@pytest.fixture(scope="module")
def oracle():
    return oracle_states()


def run_child(data_dir, progress, extra_env=None) -> subprocess.Popen:
    env = dict(os.environ)
    env.pop("REPRO_CRASH_SITE", None)
    env.pop("REPRO_CRASH_AFTER", None)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    if extra_env:
        env.update(extra_env)
    return subprocess.Popen(
        [
            sys.executable,
            WORKLOAD,
            str(data_dir),
            str(progress),
            str(NUM_OPS),
            str(SEED),
            str(CHECKPOINT_EVERY),
        ],
        env=env,
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


def acked_count(progress) -> int:
    if not os.path.exists(progress):
        return 0
    with open(progress) as handle:
        return sum(1 for line in handle if line.strip())


def recover(data_dir) -> Database:
    return Database.open(
        str(data_dir),
        durability=DurabilityConfig(data_dir=str(data_dir), sync="none"),
    )


def recovered_rows_both_engines(db) -> list[tuple]:
    """The table contents via both engines; asserts they agree."""
    row_engine = EvalOptions(vectorized=False)
    row = sorted(tuple(r) for r in db.execute("SELECT a, b FROM t", options=row_engine).rows)
    vec = sorted(
        tuple(r)
        for r in db.execute(
            "SELECT a, b FROM t", options=EvalOptions(vectorized=True)
        ).rows
    )
    assert row == vec, "engines disagree on the recovered table"
    return row


@pytest.mark.parametrize("crash_point", CRASH_POINTS)
def test_crash_at_every_registered_point(tmp_path, oracle, crash_point):
    data_dir = tmp_path / "data"
    progress = tmp_path / "progress"
    child = run_child(
        data_dir,
        progress,
        {"REPRO_CRASH_SITE": crash_point, "REPRO_CRASH_AFTER": str(CRASH_AFTER[crash_point])},
    )
    _, stderr = child.communicate(timeout=60)
    assert child.returncode == CRASH_EXIT_STATUS, (
        f"child should have died at {crash_point}, "
        f"got rc={child.returncode}: {stderr.decode()[-500:]}"
    )

    acked = acked_count(progress)
    assert 0 < acked < NUM_OPS, f"crash at {crash_point} outside the workload"

    db = recover(data_dir)
    recovered = recovered_rows_both_engines(db)
    offsets = EXPECTED_OFFSETS[crash_point]
    assert any(recovered == oracle[acked + off] for off in offsets), (
        f"{crash_point}: recovered state diverged from oracle prefixes "
        f"{acked}+{offsets}"
    )
    info = db.durability_info()
    if crash_point == "storage.wal.append.torn":
        assert info["recovery"]["torn_bytes_dropped"] > 0, "torn tail went undetected"
    db.close()


@pytest.mark.parametrize("crash_point", CRASH_POINTS)
def test_workload_completes_after_crash_recovery(tmp_path, oracle, crash_point):
    """Recovery is not a dead end: a crashed directory accepts the rest
    of the workload and a checkpoint, and reopens clean afterwards."""
    data_dir = tmp_path / "data"
    progress = tmp_path / "progress"
    child = run_child(
        data_dir,
        progress,
        {"REPRO_CRASH_SITE": crash_point, "REPRO_CRASH_AFTER": str(CRASH_AFTER[crash_point])},
    )
    child.communicate(timeout=60)
    assert child.returncode == CRASH_EXIT_STATUS

    db = recover(data_dir)
    db.execute("INSERT INTO t VALUES (999, 9990)")
    lsn = db.checkpoint()
    assert lsn is not None and lsn > 0
    expected = sorted(tuple(r) for r in db.table("t").rows)
    db.close()

    reopened = recover(data_dir)
    assert sorted(tuple(r) for r in reopened.table("t").rows) == expected
    assert reopened.durability_info()["recovery"]["records_replayed"] == 0
    reopened.close()


def test_sigkill_at_random_moment(tmp_path, oracle):
    """The CI smoke scenario: a real SIGKILL from outside at a random
    (seed-logged) moment.  At most one statement is in flight, so the
    recovered state must be the oracle prefix K or K+1."""
    kill_seed = int(os.environ.get("REPRO_KILL_SEED", "20260805"))
    delay = random.Random(kill_seed).uniform(0.15, 0.6)
    print(f"REPRO_KILL_SEED={kill_seed} delay={delay:.3f}s")  # reproduction recipe

    data_dir = tmp_path / "data"
    progress = tmp_path / "progress"
    child = run_child(data_dir, progress, {"REPRO_WORKLOAD_SLOWDOWN": "0.01"})
    time.sleep(delay)
    if child.poll() is None:
        child.send_signal(signal.SIGKILL)
    child.communicate(timeout=60)

    acked = acked_count(progress)
    db = recover(data_dir)
    if child.returncode == 0:
        candidates = [oracle[NUM_OPS]]
    else:
        assert child.returncode == -signal.SIGKILL
        candidates = [oracle[acked]]
        if acked + 1 <= NUM_OPS:
            candidates.append(oracle[acked + 1])
    recovered = recovered_rows_both_engines(db) if "t" in db.catalog else []
    ok = any(recovered == c for c in candidates) or (recovered == [] and acked == 0)
    assert ok, (
        f"kill_seed={kill_seed}: recovered state matches no oracle prefix "
        f"near ack count {acked}"
    )
    db.close()
