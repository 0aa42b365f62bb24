"""Snapshot-reader latency under a concurrent writer (MVCC probe).

Reader p50 for a scalar aggregate, measured solo and again while a
throttled writer commits continuously.  MVCC readers pin an LSN and
never take the commit lock, so the ratio stays near 1.

Row values derive from :func:`benchmarks.bench_util.seeded_rng`.  The
one assertion is wall-clock, so it lives under the ``timing`` marker
(excluded from CI smoke, like every other timing test in this suite).
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import pytest

from benchmarks.bench_util import seeded_rng
from repro import Database, EvalOptions

pytest.importorskip("numpy")

#: Base rows scale with REPRO_BENCH_ROWS like the RST grids: the default
#: 250 gives 20_000 rows, the CI smoke setting of 40 gives 3_200.
ROWS = 80 * int(os.environ.get("REPRO_BENCH_ROWS", "250"))
GROUPS = 50


def _build_db() -> Database:
    rng = seeded_rng("mvcc_readers")
    db = Database()
    db.create_table("t", ["k", "v"])
    table = db.table("t")
    for _ in range(ROWS):
        table.append((rng.randrange(GROUPS), rng.randrange(1000)))
    db.analyze()
    return db


def _reader_latencies(db: Database, sql: str, samples: int) -> list[float]:
    options = EvalOptions(vectorized=True)
    latencies = []
    for _ in range(samples):
        start = time.perf_counter()
        db.execute(sql, options=options)
        latencies.append(time.perf_counter() - start)
    return latencies


def _measure_reader_p50(db: Database, with_writer: bool, samples: int = 40) -> float:
    sql = "select sum(v), count(*) from t"
    stop = threading.Event()
    writer = None
    if with_writer:
        def write_burst():
            i = 0
            while not stop.is_set():
                db.execute(f"insert into t values ({i % GROUPS}, {i % 1000})")
                i += 1
                # Throttled: a steady commit stream, not a saturating burst.
                # The criterion is reader *isolation* from writer commits
                # (no shared commit lock), not CPU contention — on a
                # single-core runner an unthrottled writer would inflate
                # reader latency through GIL scheduling alone.
                time.sleep(0.008)

        writer = threading.Thread(target=write_burst, daemon=True)
        writer.start()
        time.sleep(0.01)  # let the writer reach steady state
    try:
        _reader_latencies(db, sql, 5)  # warm
        latencies = _reader_latencies(db, sql, samples)
    finally:
        stop.set()
        if writer is not None:
            writer.join(timeout=5)
    return statistics.median(latencies)


@pytest.mark.timing
def test_reader_p50_stable_under_concurrent_writer():
    """Snapshot readers never take the commit lock: p50 under a
    throttled writer stays below 1.2x the solo p50."""
    db = _build_db()
    solo = _measure_reader_p50(db, with_writer=False)
    concurrent = _measure_reader_p50(db, with_writer=True)
    ratio = concurrent / max(solo, 1e-9)
    assert ratio < 1.2, (
        f"reader p50 {solo:.6f}s solo vs {concurrent:.6f}s with writer "
        f"= {ratio:.2f}x (acceptance bar 1.2x)"
    )
