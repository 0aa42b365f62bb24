"""The resource governor: row, memory, and recursion budgets."""

import pytest

from repro import Database, EvalOptions, ResourceLimits
from repro.engine.governor import (
    ENV_MAX_DEPTH,
    ENV_MAX_MEMORY,
    ENV_MAX_ROWS,
    estimate_row_bytes,
)
from repro.errors import ResourceExhausted

from .conftest import make_rst_catalog

NESTED_SQL = """SELECT DISTINCT * FROM r
    WHERE A1 = (SELECT COUNT(DISTINCT *) FROM s WHERE A2 = B2)
       OR A4 > 1500"""


def make_db() -> Database:
    db = Database()
    catalog = make_rst_catalog()
    for name in catalog.table_names():
        db.register(catalog.table(name))
    return db


class TestResourceLimits:
    def test_truthiness(self):
        assert not ResourceLimits()
        assert ResourceLimits(max_rows=1)
        assert ResourceLimits(max_memory_bytes=1)
        assert ResourceLimits(max_subquery_depth=0)

    def test_from_env(self):
        assert ResourceLimits.from_env({}) is None
        limits = ResourceLimits.from_env(
            {ENV_MAX_ROWS: "100", ENV_MAX_MEMORY: "4096", ENV_MAX_DEPTH: "2"}
        )
        assert limits == ResourceLimits(
            max_rows=100, max_memory_bytes=4096, max_subquery_depth=2
        )

    def test_estimate_row_bytes_positive(self):
        assert estimate_row_bytes((1, "abc", None, 2.5)) > 0
        assert estimate_row_bytes(()) > 0


class TestRowBudget:
    @pytest.mark.parametrize("strategy", ["canonical", "unnested", "s2"])
    def test_row_budget_trips_across_strategies(self, strategy):
        db = make_db()
        with pytest.raises(ResourceExhausted) as excinfo:
            db.execute(
                NESTED_SQL,
                strategy=strategy,
                options=EvalOptions(resources=ResourceLimits(max_rows=20)),
            )
        error = excinfo.value
        assert error.code == "RESOURCE_EXHAUSTED"
        assert error.resource == "rows"
        assert error.limit == 20
        assert error.used > 20
        assert not error.retryable  # governor verdicts are final

    def test_row_budget_trips_vectorized(self):
        db = make_db()
        with pytest.raises(ResourceExhausted):
            db.execute(
                NESTED_SQL,
                options=EvalOptions(
                    vectorized=True, resources=ResourceLimits(max_rows=20)
                ),
            )

    def test_generous_budget_changes_nothing(self):
        db = make_db()
        unlimited = db.execute(NESTED_SQL, strategy="canonical")
        governed = db.execute(
            NESTED_SQL,
            strategy="canonical",
            options=EvalOptions(resources=ResourceLimits(max_rows=10**9)),
        )
        assert sorted(governed.rows) == sorted(unlimited.rows)


class TestMemoryBudget:
    def test_memory_budget_trips(self):
        db = make_db()
        with pytest.raises(ResourceExhausted) as excinfo:
            db.execute(
                "SELECT * FROM r, s, t",
                strategy="canonical",
                options=EvalOptions(
                    resources=ResourceLimits(max_memory_bytes=8192)
                ),
            )
        assert excinfo.value.resource == "memory"

    def test_memory_budget_generous_passes(self):
        db = make_db()
        result = db.execute(
            "SELECT A1 FROM r",
            options=EvalOptions(resources=ResourceLimits(max_memory_bytes=1 << 30)),
        )
        assert len(result.rows) == 30


class TestDepthBudget:
    def test_depth_zero_rejects_any_correlated_subquery(self):
        db = make_db()
        with pytest.raises(ResourceExhausted) as excinfo:
            db.execute(
                NESTED_SQL,
                strategy="canonical",
                options=EvalOptions(
                    resources=ResourceLimits(max_subquery_depth=0)
                ),
            )
        assert excinfo.value.resource == "depth"

    def test_depth_one_admits_single_level_nesting(self):
        db = make_db()
        result = db.execute(
            NESTED_SQL,
            strategy="canonical",
            options=EvalOptions(resources=ResourceLimits(max_subquery_depth=1)),
        )
        baseline = db.execute(NESTED_SQL, strategy="canonical")
        assert sorted(result.rows) == sorted(baseline.rows)


class TestSkippedRowDiscount:
    """Index pruning must not dodge the row budget entirely.

    Rows an index never reads are charged at 1/SKIPPED_ROW_DISCOUNT of a
    scanned row: cheap enough that pruning still pays, expensive enough
    that a pruned scan over a huge table cannot slip under ``max_rows``.
    """

    ROWS = 4096  # a selective probe examines 10 of them

    def make_indexed_db(self) -> Database:
        db = Database()
        db.create_table(
            "big", ["K", "V"], [(i, i % 7) for i in range(self.ROWS)]
        )
        db.analyze()
        db.execute("CREATE INDEX idx_k ON big (K) USING sorted")
        return db

    SQL = "SELECT * FROM big WHERE K >= 10 AND K < 20"

    def test_pruned_scan_still_charges_the_governor(self):
        db = self.make_indexed_db()
        # The 10 matching rows are examined; the other 4086 are skipped
        # and charged at the discount (ceil(4086/16) = 256 ticks).  A
        # budget below examined+discount must still trip, even though
        # only 10 rows are returned.
        with pytest.raises(ResourceExhausted) as excinfo:
            db.execute(
                self.SQL,
                options=EvalOptions(resources=ResourceLimits(max_rows=260)),
            )
        assert excinfo.value.resource == "rows"
        assert excinfo.value.used == 10 + 256

    def test_discount_keeps_pruning_cheaper_than_scanning(self):
        db = self.make_indexed_db()
        # The same query passes once the budget covers the discounted
        # charge — far below the full table size a seed scan would tick.
        result = db.execute(
            self.SQL,
            options=EvalOptions(resources=ResourceLimits(max_rows=300)),
        )
        assert len(result.rows) == 10
        assert db.access_info()["rows_skipped"] == self.ROWS - 10

    def test_vectorized_path_charges_identically(self):
        db = self.make_indexed_db()
        with pytest.raises(ResourceExhausted):
            db.execute(
                self.SQL,
                options=EvalOptions(
                    vectorized=True, resources=ResourceLimits(max_rows=260)
                ),
            )


class TestEnvDefaults:
    def test_env_budget_applies_when_options_silent(self, monkeypatch):
        db = make_db()
        monkeypatch.setenv(ENV_MAX_ROWS, "20")
        with pytest.raises(ResourceExhausted):
            db.execute(NESTED_SQL, strategy="canonical")

    def test_explicit_limits_beat_env(self, monkeypatch):
        db = make_db()
        monkeypatch.setenv(ENV_MAX_ROWS, "1")
        result = db.execute(
            NESTED_SQL,
            strategy="canonical",
            options=EvalOptions(resources=ResourceLimits(max_rows=10**9)),
        )
        assert len(result.rows) > 0


class TestWritesAreGoverned:
    """A DML statement's embedded read is charged like any other read,
    and a refused one changes nothing."""

    DELETE = "DELETE FROM r" + NESTED_SQL.partition("FROM r")[2]  # Q1's predicate
    UPDATE = "UPDATE r SET A3 = (SELECT COUNT(*) FROM t WHERE C2 = A2) WHERE A4 > 1500"
    INSERT = "INSERT INTO t SELECT A1, A2, A3, A4 FROM r, s WHERE A2 = B2"

    @pytest.mark.parametrize("sql", [DELETE, UPDATE, INSERT])
    @pytest.mark.parametrize("strategy", ["canonical", "unnested"])
    @pytest.mark.parametrize("vectorized", [False, True])
    def test_row_budget_bounds_every_kind_of_write(self, sql, strategy, vectorized):
        db = make_db()
        before = {name: list(db.table(name).rows) for name in "rst"}
        versions = {name: db.table(name).version for name in "rst"}
        lsn = db.commit_lsn
        options = EvalOptions(vectorized=vectorized, resources=ResourceLimits(max_rows=20))
        with pytest.raises(ResourceExhausted) as excinfo:
            db.execute(sql, strategy=strategy, options=options)
        assert excinfo.value.resource == "rows" and excinfo.value.limit == 20
        assert {name: db.table(name).rows for name in "rst"} == before
        assert {name: db.table(name).version for name in "rst"} == versions
        assert db.commit_lsn == lsn
        generous = EvalOptions(vectorized=vectorized, resources=ResourceLimits(max_rows=10**9))
        assert db.execute(sql, strategy=strategy, options=generous).rows[0][0] > 0
        assert db.commit_lsn == lsn + 1

    def test_env_budget_reaches_writes(self, monkeypatch):
        db = make_db()
        monkeypatch.setenv(ENV_MAX_ROWS, "20")
        with pytest.raises(ResourceExhausted):
            db.execute(self.DELETE)
        assert len(db.table("r")) == 30


class TestBlockedPairKernel:
    """Joins without an equality key on the batch engine — a θ semi-join
    and Eqv. 5's ⋈± with its fused σp — over 2 000 × 2 000 rows: the
    pairs are built in blocks of at most ``_BLOCK_PAIRS``, and each block
    is charged to the governor (rows, cancel, wall clock) before it is."""

    PAIRS = 2000 * 2000

    @pytest.fixture(scope="class")
    def catalog(self):
        return make_rst_catalog(n_r=2000, n_s=2000, seed=5)

    @staticmethod
    def plan(catalog, shape):
        from repro.algebra import expr as E
        from repro.algebra import ops as L

        r = L.Scan("r", catalog.table("r").schema)
        s = L.Scan("s", catalog.table("s").schema)
        theta = E.Comparison("<", E.col("A4"), E.col("B4"))
        if shape == "theta":
            return L.SemiJoin(r, s, theta)
        bypass = L.BypassJoin(r, s, E.And((theta, E.eq("A1", "B1"), E.eq("A2", "B2"))))
        checked = L.Select(bypass.negative, E.And((E.eq("A3", "B3"), E.eq("A1", "B2"))))
        return L.UnionAll(bypass.positive, checked)

    @pytest.fixture
    def blocks(self, monkeypatch):
        """Sizes of the pair blocks the kernel builds."""
        from repro.engine import vector_ops

        sizes = []
        original = vector_ops._pair_blocks

        def recording(ctx, n_left, n_right):
            for left_idx, right_idx in original(ctx, n_left, n_right):
                assert len(left_idx) == len(right_idx)
                sizes.append(len(left_idx))
                yield left_idx, right_idx

        monkeypatch.setattr(vector_ops, "_pair_blocks", recording)
        return sizes

    def run(self, catalog, shape, **options):
        from repro.engine import execute_plan

        options = EvalOptions(vectorized=True, **options)
        return execute_plan(self.plan(catalog, shape), catalog, options)

    @pytest.mark.parametrize("shape", ["theta", "bypass"])
    def test_no_pair_buffer_exceeds_one_block(self, catalog, shape, blocks):
        from repro.engine.vector_ops import _BLOCK_PAIRS

        self.run(catalog, shape)
        assert sum(blocks) == self.PAIRS and max(blocks) <= _BLOCK_PAIRS
        assert len(blocks) == -(-self.PAIRS // _BLOCK_PAIRS)

    @pytest.mark.parametrize("shape", ["theta", "bypass"])
    def test_row_budget_trips_within_one_block(self, catalog, shape, blocks):
        from repro.engine.vector_ops import _BLOCK_PAIRS

        limit = self.PAIRS // 4
        with pytest.raises(ResourceExhausted) as excinfo:
            self.run(catalog, shape, resources=ResourceLimits(max_rows=limit))
        assert excinfo.value.resource == "rows"
        assert limit < excinfo.value.used <= limit + _BLOCK_PAIRS
        assert sum(blocks) <= limit  # the block that tripped was never built

    @pytest.mark.parametrize("shape", ["theta", "bypass"])
    def test_cancel_is_seen_between_blocks(self, catalog, shape, blocks):
        from repro.errors import QueryCancelled

        class SetAfterThreePolls:
            polls = 0

            def is_set(self):
                self.polls += 1
                return self.polls > 3

        with pytest.raises(QueryCancelled):
            self.run(catalog, shape, cancel_event=SetAfterThreePolls())
        assert 0 < len(blocks) < 4

    @pytest.mark.parametrize("shape", ["theta", "bypass"])
    def test_wall_clock_budget_is_seen_between_blocks(self, catalog, shape, blocks, monkeypatch):
        """A clock that advances 10 ms per reading: a 45-ms budget lapses
        at the fifth check, a few blocks in."""
        from types import SimpleNamespace

        from repro.engine import context
        from repro.errors import BudgetExceeded

        readings = iter(range(10**6))
        clock = SimpleNamespace(perf_counter=lambda: next(readings) / 100)
        monkeypatch.setattr(context, "time", clock)
        with pytest.raises(BudgetExceeded):
            self.run(catalog, shape, budget_seconds=0.045)
        assert 0 < len(blocks) < 8
