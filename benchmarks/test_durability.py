"""Durability benchmarks: what does the WAL cost, and how fast is recovery?

Two kinds of assertion:

* the same seeded DML workload against a pure in-memory database and
  against durable databases in each sync mode (``none`` / ``flush`` /
  ``fsync``) must end in the same state, and recovery (reopen + replay)
  must replay exactly the records the workload logged;
* ``timing``-marked assertions (excluded from CI smoke, like the rest
  of the suite): the WAL in ``flush`` mode stays under 3x the in-memory
  run at the default scale, and replaying a 10k-record log finishes
  inside a fixed budget.

The overhead bound deliberately uses ``flush`` (records survive a
process crash): ``fsync`` durability is priced by the storage hardware,
not by this code, so asserting on it would make CI a disk benchmark.
(What a served write costs end to end is ``mixed_rw`` in
``python3 -m benchmarks.e2e``; replay speed is its
``storage.replay_records_s``.)
"""

from __future__ import annotations

import os
import shutil
import time

import pytest

from repro import Database
from repro.storage.wal import DurabilityConfig
from tests.crash_workload import statements

#: One DML statement per "row" of benchmark scale (REPRO_BENCH_ROWS=40
#: in CI smoke).
DML_OPS = int(os.environ.get("REPRO_BENCH_ROWS", "250"))
SEED = 42
ROUNDS = 3  # best-of-N to shed scheduler noise


def run_workload(db: Database) -> None:
    db.create_table("t", ["a", "b"])
    for sql in statements(DML_OPS, SEED):
        db.execute(sql)


def best_of(fn, rounds=ROUNDS) -> float:
    return min(fn() for _ in range(rounds))


def timed_memory_run() -> float:
    start = time.perf_counter()
    run_workload(Database())
    return time.perf_counter() - start


def timed_durable_run(tmp_path, sync: str) -> float:
    data_dir = str(tmp_path / f"bench-{sync}-{time.monotonic_ns()}")
    config = DurabilityConfig(data_dir=data_dir, sync=sync)
    start = time.perf_counter()
    db = Database.open(data_dir, durability=config)
    run_workload(db)
    elapsed = time.perf_counter() - start
    db.close()
    shutil.rmtree(data_dir, ignore_errors=True)
    return elapsed


def final_rows(db: Database):
    return sorted(tuple(r) for r in db.table("t").rows)


@pytest.mark.parametrize("sync", ["none", "flush", "fsync"])
def test_durable_workload_matches_memory(tmp_path, sync):
    """Same workload, same final state, WAL or not — and a recovery of
    the WAL run replays every logged record and reproduces it a third
    time."""
    mem = Database()
    run_workload(mem)

    data_dir = str(tmp_path / "data")
    durable = Database.open(
        data_dir, durability=DurabilityConfig(data_dir=data_dir, sync=sync)
    )
    run_workload(durable)
    assert final_rows(durable) == final_rows(mem)
    durable.close()

    recovered = Database.open(
        data_dir, durability=DurabilityConfig(data_dir=data_dir, sync="none")
    )
    info = recovered.durability_info()
    # Full replay, no snapshot: create_table + every DML statement.
    assert info["recovery"]["records_replayed"] == DML_OPS + 1
    assert info["wal_bytes"] > 0
    assert final_rows(recovered) == final_rows(mem)
    recovered.close()


@pytest.mark.timing
def test_wal_flush_overhead_below_three_x(tmp_path):
    """WAL in flush mode must stay under 3x the in-memory workload."""
    memory_seconds = best_of(timed_memory_run)
    wal_seconds = best_of(lambda: timed_durable_run(tmp_path, "flush"))
    ratio = wal_seconds / max(memory_seconds, 1e-9)
    assert ratio < 3.0, (
        f"WAL(flush) {wal_seconds:.4f}s vs memory {memory_seconds:.4f}s "
        f"= {ratio:.2f}x (budget 3.0x)"
    )


def compact_statements(num_ops: int) -> list[str]:
    """A DML stream whose table stays small (replay cost must scale with
    the log, not with a table the workload let grow quadratically)."""
    out = []
    for i in range(num_ops):
        if i % 3 == 2:
            out.append(f"DELETE FROM t WHERE a = {(i * 7) % 97}")
        else:
            out.append(f"INSERT INTO t VALUES ({i % 97}, {i})")
    return out


@pytest.mark.timing
def test_recovery_of_ten_thousand_records_within_budget(tmp_path):
    """Replaying a 10k-record log must finish inside a fixed budget."""
    num_ops = 10_000
    budget_seconds = 60.0
    data_dir = str(tmp_path / "big")
    # Auto-checkpointing would compact the log mid-build (its job); park
    # the thresholds out of reach so recovery replays every record.
    config = DurabilityConfig(
        data_dir=data_dir,
        sync="none",
        checkpoint_every_records=1 << 30,
        checkpoint_every_bytes=1 << 50,
    )
    db = Database.open(data_dir, durability=config)
    db.create_table("t", ["a", "b"])
    for sql in compact_statements(num_ops):
        db.execute(sql)
    expected = final_rows(db)
    db.close()

    start = time.perf_counter()
    recovered = Database.open(
        data_dir, durability=DurabilityConfig(data_dir=data_dir, sync="none")
    )
    elapsed = time.perf_counter() - start
    assert recovered.durability_info()["recovery"]["records_replayed"] == num_ops + 1
    assert final_rows(recovered) == expected
    recovered.close()
    assert elapsed < budget_seconds, (
        f"recovering {num_ops} records took {elapsed:.1f}s "
        f"(budget {budget_seconds:.0f}s)"
    )
