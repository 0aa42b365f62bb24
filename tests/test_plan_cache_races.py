"""Plan-cache correctness under concurrency: queries raced against DDL.

Regression coverage for the freshness rule of
:mod:`repro.service.plancache` when a cached plan's world changes while
other threads are executing through the cache: table replacement and
``analyze`` renew catalog stamps the query threads read, and quarantine
reports mutate shared cache state.  Every execution must
either see the old table or the new one — never a crash, a poisoned
entry, or a stale answer after the writer finishes.
"""

import threading

import pytest

from repro import Database, EvalOptions, FaultConfig, FaultInjector
from repro.errors import ReproError
from repro.storage import Schema, Table

SQL = "SELECT A1 FROM r WHERE A4 > 100"
NESTED_SQL = """SELECT DISTINCT * FROM r
    WHERE A1 = (SELECT COUNT(DISTINCT *) FROM s WHERE A2 = B2)
       OR A4 > 1500"""


def make_db(rows: int = 30) -> Database:
    db = Database()
    db.create_table(
        "r", ["A1", "A2", "A3", "A4"],
        [(i, i % 5, i % 3, i * 100) for i in range(rows)],
    )
    db.create_table(
        "s", ["B1", "B2", "B3", "B4"],
        [(i, i % 5, i % 3, i * 90) for i in range(rows)],
    )
    return db


def run_racers(worker, writer, reader_count: int = 4):
    """Start readers + one writer behind a barrier; re-raise any failure."""
    threads = [
        threading.Thread(target=worker, name=f"reader-{i}")
        for i in range(reader_count)
    ]
    threads.append(threading.Thread(target=writer, name="writer"))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive(), f"{thread.name} deadlocked"


class TestDdlRaces:
    def test_queries_raced_against_table_replacement(self):
        db = make_db()
        db.execute(SQL)  # warm the entry
        barrier = threading.Barrier(5)
        errors: list[BaseException] = []
        valid_counts = {28, 49}  # rows with A4 > 100 in the old/new table

        def reader():
            barrier.wait()
            try:
                for _ in range(200):
                    result = db.execute(SQL)
                    assert len(result.rows) in valid_counts, len(result.rows)
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        def writer():
            barrier.wait()
            try:
                for _ in range(20):
                    replacement = Table(
                        Schema(["A1", "A2", "A3", "A4"]),
                        [(i, i % 5, i % 3, i * 100) for i in range(51)],
                        name="r",
                    )
                    db.catalog.replace(replacement)  # DDL: a new stamp
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        run_racers(reader, writer)
        assert not errors, errors
        # After the dust settles the cache must serve the *new* table.
        assert len(db.execute(SQL).rows) == 49

    def test_queries_raced_against_analyze(self):
        db = make_db()
        barrier = threading.Barrier(4)
        errors: list[BaseException] = []

        def reader():
            barrier.wait()
            try:
                for _ in range(150):
                    assert len(db.execute(SQL).rows) == 28
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        def writer():
            barrier.wait()
            try:
                for _ in range(50):
                    db.analyze()
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        run_racers(reader, writer, reader_count=3)
        assert not errors, errors
        info = db.cache_info()
        assert info.hits + info.misses >= 450

    def test_quarantine_raced_against_hits(self):
        """A key being quarantined mid-race never serves wrong answers."""
        db = make_db()
        baseline = sorted(db.execute(NESTED_SQL, strategy="canonical").rows)
        barrier = threading.Barrier(5)
        errors: list[BaseException] = []

        def reader():
            barrier.wait()
            try:
                for _ in range(40):
                    result = db.execute(NESTED_SQL, strategy="unnested")
                    assert sorted(result.rows) == baseline
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        def chaos_writer():
            barrier.wait()
            try:
                for seed in range(10):
                    injector = FaultInjector(
                        FaultConfig(sites=("engine.row.PBypass",), seed=seed)
                    )
                    result = db.execute(
                        NESTED_SQL,
                        strategy="unnested",
                        options=EvalOptions(faults=injector),
                    )
                    assert sorted(result.rows) == baseline
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        run_racers(reader, chaos_writer)
        assert not errors, errors
        info = db.cache_info()
        assert info.quarantined >= 1

    def test_view_ddl_raced_against_view_queries(self):
        db = make_db()
        db.create_view("big", "SELECT A1, A4 FROM r WHERE A4 > 100")
        barrier = threading.Barrier(3)
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader():
            barrier.wait()
            try:
                while not stop.is_set():
                    try:
                        result = db.execute("SELECT A1 FROM big")
                        assert len(result.rows) == 28
                    except ReproError:
                        pass  # the view may be mid-replacement: fine
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        def writer():
            barrier.wait()
            try:
                for _ in range(25):
                    db.drop_view("big")
                    db.create_view("big", "SELECT A1, A4 FROM r WHERE A4 > 100")
            except BaseException as error:  # noqa: BLE001
                errors.append(error)
            finally:
                stop.set()

        run_racers(reader, writer, reader_count=2)
        assert not errors, errors
        assert len(db.execute("SELECT A1 FROM big").rows) == 28


class TestQuarantineApi:
    def test_quarantine_counts_even_without_a_cached_entry(self):
        db = make_db()
        evicted = db._plan_cache.quarantine(SQL)
        assert evicted is False
        assert db.cache_info().quarantined == 1
        assert db.cache_info().quarantined_keys == 1

    def test_quarantine_evicts_the_live_entry(self):
        db = make_db()
        db.execute(SQL)
        assert len(db._plan_cache) == 1
        evicted = db._plan_cache.quarantine(SQL, "auto", "row")
        assert evicted is True
        assert len(db._plan_cache) == 0

    def test_index_ddl_readmits(self):
        db = make_db()
        db._plan_cache.quarantine(SQL)
        db.create_index("r_a4", "r", "A4", "sorted")
        assert db.cache_info().quarantined_keys == 0


@pytest.mark.parametrize("concurrent", [2, 8])
def test_cold_cache_thundering_herd(concurrent):
    """N threads missing the same key at once all get correct plans."""
    db = make_db()
    barrier = threading.Barrier(concurrent)
    errors: list[BaseException] = []

    def worker():
        barrier.wait()
        try:
            assert len(db.execute(SQL).rows) == 28
        except BaseException as error:  # noqa: BLE001
            errors.append(error)

    threads = [threading.Thread(target=worker) for _ in range(concurrent)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not errors, errors
    assert len(db._plan_cache) == 1  # concurrent misses collapse to one entry
