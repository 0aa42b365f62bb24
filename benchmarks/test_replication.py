"""Replication benchmarks: read scaling, staleness, and catch-up.

* **reads under a write burst** — the same read workload at a fixed
  offered load (``CLIENT_THREADS`` aggressive clients) while the
  primary sustains a saturating write burst, against the primary alone
  and against the replica set.  Every server runs admission-limited
  (``max_in_flight=1``, no queue): on the primary the write stream
  occupies that slot, so co-located reads are rejected into the
  client's backoff — the production overload behaviour — while replicas
  serve the same reads from their own slots, isolated from the write
  path.  The smoke run asserts only that reads get through, and that
  every replica ends on the primary's answer; the ``timing``-marked
  test asserts the scaling ratio at the default scale.
* **replica staleness under a write burst** — every marker write
  committed while a background writer streams becomes visible on the
  replica.
* **catch-up after rejoin** — a replica stops while the primary commits
  ``CATCH_UP_RECORDS`` more records, then rejoins: it must apply exactly
  the backlog from the log, without a resync.

Row values derive from :func:`benchmarks.bench_util.seeded_rng`, so
every count asserted here is the same on every run.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from benchmarks.bench_util import seeded_rng
from repro import Database
from repro.errors import ReproError
from repro.replication.replica import ReplicaConfig, ReplicaServer, ReplicationFollower
from repro.replication.routing import ReplicaSetClient
from repro.service.client import ServiceClient
from repro.service.server import QueryServer, ServerConfig

#: Base rows scale with REPRO_BENCH_ROWS like the RST grids: the default
#: 250 gives 2_000 rows, the CI smoke setting of 40 gives 320.
ROWS = 8 * int(os.environ.get("REPRO_BENCH_ROWS", "250"))

READ_SQL = "SELECT COUNT(*), SUM(A4) FROM r WHERE A2 = 1"
CLIENT_THREADS = 4
WRITER_THREADS = 2
MEASURE_SECONDS = 1.2
RETRY_BACKOFF = 0.02
REPLICAS = 3
STALENESS_SAMPLES = 20
CATCH_UP_RECORDS = 40

#: One query slot per server and no wait queue: the scaling story is
#: about multiplying admission capacity, so each endpoint's capacity is
#: pinned to the minimum.
SERVER_LIMITS = dict(max_in_flight=1, max_queue=0, queue_timeout=0.01)


class Cluster:
    """One primary plus three replica servers, all in-process."""

    def __init__(self, root):
        rng = seeded_rng("replication")
        rows = [
            (i, rng.randrange(5), rng.randrange(3), rng.randrange(10_000))
            for i in range(ROWS)
        ]
        # READ_SQL's answer, from the data: no write below touches A2 = 1.
        matching = [row[3] for row in rows if row[1] == 1]
        self.read_answer = [(len(matching), sum(matching))]
        self.db = Database.open(str(root / "primary"))
        self.db.create_table("r", ["A1", "A2", "A3", "A4"], rows)
        self.primary = QueryServer(self.db, ServerConfig(port=0, **SERVER_LIMITS)).start()
        self.replicas = []
        self.replica_dirs = []
        for i in range(REPLICAS):
            data_dir = root / f"replica{i}"
            self.replica_dirs.append(data_dir)
            self.replicas.append(
                ReplicaServer(
                    ReplicaConfig(
                        primary_url=self.primary.url,
                        data_dir=str(data_dir),
                        poll_wait=0.5,
                    ),
                    ServerConfig(port=0, **SERVER_LIMITS),
                ).start()
            )
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if all(r.follower.applied_lsn == self.db.wal_lsn for r in self.replicas):
                break
            time.sleep(0.02)

    def wait_applied(self, lsn: int, deadline: float = 30.0) -> None:
        for replica in self.replicas:
            replica.follower.wait_for_lsn(lsn, timeout=deadline)

    def close(self) -> None:
        for replica in self.replicas:
            replica.stop()
        self.primary.stop()
        self.db.close()


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    built = Cluster(tmp_path_factory.mktemp("replication-bench"))
    yield built
    built.close()


def _measure_reads_per_sec(primary_url: str, replica_urls: list[str]) -> float:
    """Read goodput of ``CLIENT_THREADS`` clients for ``MEASURE_SECONDS``
    while ``WRITER_THREADS`` keep the primary's write path saturated.

    A rejected read costs the client a backoff sleep — the same shape
    as the production retry policy — so goodput reflects how much read
    capacity the endpoint set actually offers under write load.
    """
    stop = threading.Event()
    counts = [0] * CLIENT_THREADS

    def writer(index: int) -> None:
        client = ServiceClient(primary_url)
        i = 0
        while not stop.is_set():
            try:
                # A2=0 keeps these rows out of READ_SQL's filter, so the
                # read result stays stable while the burst runs.
                client.query(f"INSERT INTO r VALUES ({50_000 + index}, 0, 0, {i})")
            except ReproError as error:
                if not error.retryable:
                    raise
                time.sleep(0.001)
            i += 1

    def worker(index: int) -> None:
        client = ReplicaSetClient(primary_url, replica_urls, lsn_wait=5.0, read_your_writes=False)
        while not stop.is_set():
            try:
                client.query(READ_SQL)
            except ReproError as error:
                if not error.retryable:
                    raise
                time.sleep(RETRY_BACKOFF)
                continue
            counts[index] += 1

    threads = [
        threading.Thread(target=writer, args=(i,), daemon=True) for i in range(WRITER_THREADS)
    ]
    threads += [
        threading.Thread(target=worker, args=(i,), daemon=True) for i in range(CLIENT_THREADS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(MEASURE_SECONDS)
    stop.set()
    for thread in threads:
        thread.join(timeout=10)
    elapsed = time.perf_counter() - start
    return sum(counts) / elapsed


def test_reads_get_through_a_write_burst(cluster):
    assert cluster.db.execute(READ_SQL).rows == cluster.read_answer
    replica_urls = [replica.url for replica in cluster.replicas]
    assert _measure_reads_per_sec(cluster.primary.url, []) > 0
    assert _measure_reads_per_sec(cluster.primary.url, replica_urls) > 0
    # The burst's rows all replicate, and none of them moved the answer.
    cluster.wait_applied(cluster.db.wal_lsn)
    for replica in cluster.replicas:
        assert replica.follower.applied_lsn == cluster.db.wal_lsn
        assert replica.follower.db.execute(READ_SQL).rows == cluster.read_answer


def test_every_marker_write_becomes_visible_on_the_replica(cluster):
    """Marker commits reach one replica while a background writer streams."""
    follower = cluster.replicas[0].follower
    client = ServiceClient(cluster.primary.url)
    stop = threading.Event()

    def burst() -> None:
        i = 0
        while not stop.is_set():
            try:
                client.query(f"INSERT INTO r VALUES ({10_000 + i}, 0, 0, 1)")
            except ReproError as error:
                if not error.retryable:
                    raise
            i += 1
            time.sleep(0.002)

    noise = threading.Thread(target=burst, daemon=True)
    noise.start()
    marker_client = ServiceClient(cluster.primary.url)
    try:
        for i in range(STALENESS_SAMPLES):
            while True:
                try:
                    token = marker_client.query(
                        f"INSERT INTO r VALUES ({20_000 + i}, 0, 0, 1)"
                    ).commit_lsn
                    break
                except ReproError as error:
                    if not error.retryable:
                        raise
                    time.sleep(RETRY_BACKOFF)
            assert follower.wait_for_lsn(token, timeout=30.0) >= token
    finally:
        stop.set()
        noise.join(timeout=10)


def test_rejoin_applies_exactly_the_backlog_without_resync(cluster):
    """Stop the last replica, build a backlog, rejoin it from the log."""
    victim = cluster.replicas.pop()
    data_dir = cluster.replica_dirs[-1]
    victim.follower.wait_for_lsn(cluster.db.wal_lsn, timeout=30.0)
    stopped_at = victim.follower.applied_lsn
    assert stopped_at == cluster.db.wal_lsn
    victim.stop()
    for i in range(CATCH_UP_RECORDS):
        cluster.db.execute(f"INSERT INTO r VALUES ({30_000 + i}, 0, 0, 1)")
    assert cluster.db.wal_lsn - stopped_at == CATCH_UP_RECORDS

    rejoined = ReplicationFollower(
        ReplicaConfig(primary_url=cluster.primary.url, data_dir=str(data_dir), poll_wait=0.2)
    )
    try:
        rejoined.bootstrap()
        while rejoined.applied_lsn < cluster.db.wal_lsn:
            rejoined.step(wait=0.0)
        assert rejoined.applied_lsn == cluster.db.wal_lsn
        assert rejoined.counters["records_applied"] == CATCH_UP_RECORDS
        assert rejoined.counters["resyncs"] == 0
        assert rejoined.db.execute(READ_SQL).rows == cluster.read_answer
    finally:
        rejoined.close()
        rejoined.db.close()


@pytest.mark.timing
class TestShape:
    """The ISSUE acceptance criterion, asserted at the default scale."""

    def test_three_replicas_scale_reads_2_5x(self, cluster):
        primary_only = _measure_reads_per_sec(cluster.primary.url, [])
        three = _measure_reads_per_sec(
            cluster.primary.url, [replica.url for replica in cluster.replicas]
        )
        assert three >= 2.5 * primary_only, (
            f"3-replica cluster served {three:.0f} reads/s vs "
            f"{primary_only:.0f} primary-only"
        )
