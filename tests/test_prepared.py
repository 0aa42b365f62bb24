"""Prepared statements: placeholders, binding, 3VL NULL arguments."""

import pytest

from repro import Database
from repro.engine import EvalOptions
from repro.errors import ExecutionError, LexError, ParameterError
from repro.sql import parse
from repro.sql import ast
from repro.sql.parameters import ParamSpec
from tests.conftest import assert_bag_equal


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        "r", ["A1", "A2", "A3", "A4"],
        [(i, i % 5, i % 3, i * 100) for i in range(30)],
    )
    database.create_table(
        "s", ["B1", "B2", "B3", "B4"],
        [(i, i % 5, i % 3, i * 90) for i in range(25)],
    )
    return database


class TestLexerAndParser:
    def test_positional_parameters_are_numbered_in_order(self):
        statement = parse("SELECT A1 FROM r WHERE A1 = ? OR A4 > ?")
        spec = ParamSpec.of(statement)
        assert spec.positional == 2
        assert spec.names == ()

    def test_named_parameters_are_case_folded(self):
        statement = parse("SELECT A1 FROM r WHERE A1 = :Lo AND A4 < :HI")
        spec = ParamSpec.of(statement)
        assert spec.positional == 0
        assert set(spec.names) == {"lo", "hi"}

    def test_parameter_inside_subquery_is_collected(self):
        statement = parse(
            "SELECT A1 FROM r WHERE A1 = (SELECT COUNT(*) FROM s WHERE B4 > ?)"
        )
        assert ParamSpec.of(statement).positional == 1

    def test_colon_without_name_is_a_lex_error(self):
        with pytest.raises(LexError):
            parse("SELECT A1 FROM r WHERE A1 = :")

    def test_parameter_ast_node_renders_back_to_sql(self):
        from repro.sql.render import render

        statement = parse("SELECT A1 FROM r WHERE A1 = ? AND A4 > ?")
        assert render(statement).count("?") == 2
        named = parse("SELECT A1 FROM r WHERE A1 = :x")
        assert ":x" in render(named)

    def test_question_mark_inside_string_literal_is_not_a_parameter(self):
        statement = parse("SELECT A1 FROM r WHERE A2 = 'what?'")
        assert not ParamSpec.of(statement)

    def test_parameter_node_is_hashable(self):
        assert hash(ast.Parameter(0)) != hash(ast.Parameter("x"))


class TestBinding:
    def test_mixed_styles_rejected(self, db):
        with pytest.raises(ParameterError, match="mix"):
            db.execute("SELECT A1 FROM r WHERE A1 = ? AND A4 > :t", params=[1])

    def test_positional_arity_mismatch(self, db):
        with pytest.raises(ParameterError, match="positional"):
            db.execute("SELECT A1 FROM r WHERE A4 > ?", params=[1, 2])

    def test_missing_params_for_parameterized_query(self, db):
        with pytest.raises(ParameterError, match="requires parameters"):
            db.execute("SELECT A1 FROM r WHERE A4 > ?")

    def test_unknown_named_parameter(self, db):
        with pytest.raises(ParameterError, match="unknown parameter"):
            db.execute("SELECT A1 FROM r WHERE A4 > :lo", params={"hi": 1})

    def test_missing_named_parameter(self, db):
        with pytest.raises(ParameterError, match="missing"):
            db.execute(
                "SELECT A1 FROM r WHERE A4 > :lo AND A4 < :hi", params={"lo": 1}
            )

    def test_mapping_for_positional_rejected(self, db):
        with pytest.raises(ParameterError, match="sequence"):
            db.execute("SELECT A1 FROM r WHERE A4 > ?", params={"0": 1})

    def test_params_for_parameterless_query_rejected(self, db):
        with pytest.raises(ParameterError, match="takes no parameters"):
            db.execute("SELECT A1 FROM r WHERE A4 > 100", params=[100])

    def test_dml_with_params_rejected(self, db):
        with pytest.raises(ParameterError, match="DML"):
            db.execute("INSERT INTO r VALUES (99, 0, 0, 0)", params=[99])

    def test_unbound_execution_raises_execution_error(self, db):
        planned = db.plan("SELECT A1 FROM r WHERE A4 > ?")
        with pytest.raises((ExecutionError, ParameterError)):
            planned.execute(db.catalog)


class TestExecution:
    def test_positional_binding_matches_literal_query(self, db):
        bound = db.execute("SELECT A1 FROM r WHERE A4 > ?", params=[1500])
        literal = db.execute("SELECT A1 FROM r WHERE A4 > 1500")
        assert_bag_equal(bound, literal)

    def test_named_binding_matches_literal_query(self, db):
        bound = db.execute(
            "SELECT A1 FROM r WHERE A4 > :lo AND A4 < :hi",
            params={"lo": 500, "hi": 2000},
        )
        literal = db.execute("SELECT A1 FROM r WHERE A4 > 500 AND A4 < 2000")
        assert_bag_equal(bound, literal)

    def test_rebinding_changes_the_result_not_the_plan(self, db):
        sql = "SELECT A1 FROM r WHERE A4 > ?"
        wide = db.execute(sql, params=[0])
        narrow = db.execute(sql, params=[2500])
        assert len(wide) > len(narrow)

    def test_null_argument_is_unknown_under_3vl(self, db):
        # A4 > NULL is UNKNOWN for every row: the filter keeps nothing,
        # exactly as the literal spelling behaves.
        bound = db.execute("SELECT A1 FROM r WHERE A4 > ?", params=[None])
        literal = db.execute("SELECT A1 FROM r WHERE A4 > NULL")
        assert len(bound) == 0
        assert_bag_equal(bound, literal)

    def test_null_argument_in_negation(self, db):
        bound = db.execute("SELECT A1 FROM r WHERE NOT (A4 > ?)", params=[None])
        assert len(bound) == 0

    def test_parameter_in_correlated_disjunctive_subquery(self, db):
        sql = """SELECT DISTINCT * FROM r
                 WHERE A1 = (SELECT COUNT(*) FROM s WHERE A2 = B2 OR B4 > ?)
                    OR A4 > ?"""
        bound = db.execute(sql, params=[1500, 2000])
        literal = db.execute(sql.replace("> ?", "> 1500", 1).replace("> ?", "> 2000"))
        assert_bag_equal(bound, literal)

    def test_vectorized_engine_binds_the_same_values(self, db):
        sql = """SELECT DISTINCT * FROM r
                 WHERE A1 = (SELECT COUNT(*) FROM s WHERE A2 = B2 OR B4 > :t)"""
        pytest.importorskip("numpy")
        row = db.execute(sql, params={"t": 1200})
        vec = db.execute(sql, params={"t": 1200}, options=EvalOptions(vectorized=True))
        assert_bag_equal(row, vec)

    def test_every_strategy_accepts_parameters(self, db):
        sql = """SELECT DISTINCT * FROM r
                 WHERE A1 = (SELECT COUNT(*) FROM s WHERE A2 = B2) OR A4 > ?"""
        reference = None
        for strategy in ("canonical", "unnested", "auto", "s1", "s2", "s3"):
            result = db.execute(sql, strategy=strategy, params=[1800])
            if reference is None:
                reference = result
            else:
                assert_bag_equal(result, reference, f"strategy {strategy}")


class TestPreparedStatements:
    def test_prepare_describe_execute(self, db):
        statement = db.prepare("SELECT A1 FROM r WHERE A4 > :lo")
        assert statement.describe() == {"positional": 0, "named": ["lo"]}
        first = statement.execute({"lo": 1500})
        literal = db.execute("SELECT A1 FROM r WHERE A4 > 1500")
        assert_bag_equal(first, literal)

    def test_prepare_validates_eagerly(self, db):
        with pytest.raises(Exception):
            db.prepare("SELECT nope FROM missing_table")

    def test_prepared_statement_survives_bulk_dml(self, db):
        statement = db.prepare("SELECT COUNT(*) FROM r WHERE A4 > ?")
        before = statement.execute([0]).rows[0][0]
        for i in range(50):
            db.execute(f"INSERT INTO r VALUES ({100 + i}, 0, 0, 5000)")
        after = statement.execute([0]).rows[0][0]
        assert after == before + 50

    def test_repeated_execution_hits_the_plan_cache(self, db):
        statement = db.prepare("SELECT A1 FROM r WHERE A4 > ?")
        baseline = db.cache_info().hits
        for value in (100, 200, 300):
            statement.execute([value])
        assert db.cache_info().hits >= baseline + 3


class TestPreparedRunsTheOnePipeline:
    """A prepared execution is ``Database.execute`` minus the parse: it
    heals, is governed, is counted, and shares ``execute``'s cache
    entries (each of these diverged before the read paths were merged)."""

    SQL = "SELECT A1 FROM r WHERE A2 = ?"

    def test_heals_onto_the_canonical_row_plan(self, db):
        pytest.importorskip("numpy")
        from repro import FaultConfig, FaultInjector

        expected = db.execute("SELECT A1 FROM r WHERE A2 = 3", strategy="canonical")
        chaos = FaultInjector(FaultConfig(sites=("engine.vector",)))
        healed = db.prepare(self.SQL).execute(
            [3], options=EvalOptions(vectorized=True, faults=chaos)
        )
        assert_bag_equal(healed, expected)
        info = db.resilience_info()
        assert (info["degradations"], info["fallback_successes"]) == (1, 1)
        assert info["last_degradation"]["engine"] == "vectorized"

    def test_env_governor_stops_it(self, db, monkeypatch):
        from repro.errors import ResourceExhausted

        statement = db.prepare(self.SQL)
        monkeypatch.setenv("REPRO_GOVERNOR_MAX_ROWS", "10")
        with pytest.raises(ResourceExhausted):
            statement.execute([3])

    def test_access_paths_are_counted(self, db):
        db.create_index("r_a2", "r", "A2")
        assert len(db.prepare(self.SQL).execute([3])) == 6
        info = db.access_info()
        assert (info["index_scans"], info["rows_read"], info["rows_skipped"]) == (1, 6, 24)

    @pytest.mark.parametrize("executions", [1, 4])
    def test_prepare_and_row_executions_share_one_entry(self, db, executions):
        statement = db.prepare(self.SQL)
        for value in range(executions):
            statement.execute([value])
        info = db.cache_info()
        assert (info.misses, info.hits, info.size) == (1, executions, 1)

    @pytest.mark.parametrize("executions", [1, 4])
    def test_vectorized_executions_use_the_vectorized_entry(self, db, executions):
        """The order the e2e benchmark runs: prepare, then N vectorized
        executions.  The engine is part of the cache key and a prepare
        cannot know it, so it files under ``row`` and the executions
        share the entry ``execute(vectorized)`` uses: one more miss and
        one more entry than the row order, once per statement."""
        pytest.importorskip("numpy")
        vectorized = EvalOptions(vectorized=True)
        statement = db.prepare(self.SQL)
        for value in range(executions):
            statement.execute([value], options=vectorized)
        db.execute(self.SQL, options=vectorized, params=[3])
        info = db.cache_info()
        assert (info.misses, info.hits, info.size) == (2, executions, 2)
