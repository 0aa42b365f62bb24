"""EXPLAIN ANALYZE: physical plans annotated with actual row counts."""

import re

import pytest

from repro import Database
from repro.engine import EvalOptions
from repro.engine.executor import explain_analyze
from repro.sql import parse, translate
from tests.conftest import make_rst_catalog


@pytest.fixture(scope="module")
def db():
    database = Database()
    source = make_rst_catalog(n_r=40, n_s=35, seed=8)
    for name in source.table_names():
        database.register(source.table(name))
    return database


SQL = """SELECT DISTINCT * FROM r
         WHERE A1 = (SELECT COUNT(*) FROM s WHERE A2 = B2) OR A4 > 1500"""
ROW = EvalOptions(vectorized=False)


class TestExplainAnalyze:
    def test_unnested_report(self, db):
        report = db.explain_analyze(SQL, "unnested", ROW)
        assert "PBypassFilter" in report
        assert "rows=" in report
        assert "[shared]" in report  # both taps read one bypass node
        assert "0 nested-subquery evaluations" in report

    def test_canonical_report_counts_subqueries(self, db):
        report = db.explain_analyze(SQL, "canonical")
        assert f"{len(db.table('r'))} nested-subquery evaluations" in report

    def test_s2_report_shows_cache_hits(self, db):
        report = db.explain_analyze(SQL, "s2")
        hits = int(re.search(r"(\d+) cache hits", report).group(1))
        assert hits > 0

    def test_result_matches_execute(self, db):
        report, = [db.explain_analyze(SQL, "unnested")]
        total = int(report.split("-- strategy")[1].split("result rows")[0].rsplit("-- ", 1)[1])
        assert total == len(db.execute(SQL, "unnested"))

    def test_row_counts_consistent(self, db):
        catalog = db.catalog
        plan = translate(parse("SELECT * FROM r WHERE A4 > 1500"), catalog).plan
        report, table = explain_analyze(plan, catalog)
        assert f"rows={len(table)}" in report
        assert f"rows={len(catalog.table('r'))}" in report  # the scan

    def test_options_forwarded(self, db):
        catalog = db.catalog
        plan = translate(parse(SQL), catalog).plan
        report, _ = explain_analyze(plan, catalog, EvalOptions(subquery_memo=True))
        assert "cache hits" in report


class TestRowInterpreterBoundary:
    """A vectorized report ends by saying how much of the plan stayed on
    the row interpreter — the first answer to "why is this statement slow
    on the batch engine"."""

    VECTORIZED = EvalOptions(vectorized=True)

    def test_q2_auto_runs_wholly_on_the_batch_engine(self, db):
        from repro.bench.queries import Q2

        report = db.explain_analyze(Q2, "auto", self.VECTORIZED)
        last = report.rstrip("\n").splitlines()[-1]
        assert re.fullmatch(
            r"-- engine: vectorized; 0 of \d+ operators on the row interpreter", last
        ), last
        assert "VMap" in report and "PMap" not in report
        # Eqv. 4's g2 is one evaluation broadcast over the batch, not one
        # evaluation and a cache hit for every further row.
        assert "1 nested-subquery evaluations, 0 cache hits" in report

    def test_q4_auto_names_what_stays_on_the_row_interpreter(self, db):
        """Eqv. 5's ⋈± and binary Γ have batch forms: nothing of Q4 stays."""
        from repro.bench.queries import Q4

        report = db.explain_analyze(Q4, "auto", self.VECTORIZED)
        last = report.rstrip("\n").splitlines()[-1]
        match = re.fullmatch(
            r"-- engine: vectorized; 0 of (\d+) operators on the row interpreter", last
        )
        assert match and int(match.group(1)) > 0, last
        assert "VBypassJoin" in report and "PBypassNLJoin" not in report
        assert "VFromRows" not in report

    def test_row_engine_reports_carry_no_engine_line(self, db):
        assert "-- engine:" not in db.explain_analyze(SQL, "unnested", ROW)


class _WriterAtFirstScan:
    """A concurrent writer, made deterministic: it commits one INSERT the
    moment the reader reaches its first table scan (it sits where a fault
    injector would, and the engines ask it before every scan)."""

    def __init__(self, database):
        self.database = database
        self.committed = False

    def maybe_fail(self, site):
        if site == "storage.scan" and not self.committed:
            self.committed = True
            self.database.execute("INSERT INTO r VALUES (9999, 0, 0, 9999)")


def test_concurrent_writer_does_not_move_the_reported_counts():
    """EXPLAIN ANALYZE reads the snapshot it pinned, like any other query."""
    database = Database()
    source = make_rst_catalog(n_r=40, n_s=35, seed=8)
    for name in source.table_names():
        database.register(source.table(name))
    sql = "SELECT * FROM r WHERE A4 > 1500"
    before = len(database.execute(sql))
    writer = _WriterAtFirstScan(database)
    report = database.explain_analyze(sql, "canonical", EvalOptions(faults=writer))
    assert writer.committed and len(database.table("r")) == 41
    assert "rows=40" in report  # the scan saw the pinned 40 rows, not 41
    assert f"-- {before} result rows" in report
    assert len(database.execute(sql)) == before + 1


def test_group_join_line_says_whether_it_built():
    """A ``VGroupJoin`` line says whether this execution built S's group
    table or reused the last one: new, then reused, then new once s has
    changed."""
    from repro.bench.queries import Q1

    database = Database()
    source = make_rst_catalog(n_r=40, n_s=35, seed=8)
    for name in source.table_names():
        database.register(source.table(name))

    def builds():
        report = database.explain_analyze(Q1, "auto", EvalOptions(vectorized=True))
        return re.findall(r"VGroupJoin .*self=\S+ (build=\w+)", report)

    assert builds() == ["build=new"]
    assert builds() == ["build=reused"]
    database.execute("INSERT INTO s VALUES (1, 1, 1, 1)")
    assert builds() == ["build=new"]
