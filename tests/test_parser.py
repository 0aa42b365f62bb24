"""Unit tests for the SQL parser."""

import pytest

from repro.errors import ParseError
from repro.sql import ast, parse


class TestSelectList:
    def test_star(self):
        stmt = parse("SELECT * FROM t")
        assert isinstance(stmt.items[0].expr, ast.Star)

    def test_qualified_star(self):
        stmt = parse("SELECT t.* FROM t")
        assert stmt.items[0].expr == ast.Star(qualifier="t")

    def test_distinct(self):
        assert parse("SELECT DISTINCT * FROM t").distinct
        assert not parse("SELECT * FROM t").distinct

    def test_aliases(self):
        stmt = parse("SELECT a AS x, b y, c FROM t")
        assert [item.alias for item in stmt.items] == ["x", "y", None]

    def test_multiple_items(self):
        stmt = parse("SELECT a, b + 1, count(*) FROM t")
        assert len(stmt.items) == 3
        assert isinstance(stmt.items[1].expr, ast.BinaryOp)
        assert isinstance(stmt.items[2].expr, ast.FuncCall)


class TestFromWhere:
    def test_table_list(self):
        stmt = parse("SELECT * FROM a, b c, d AS e")
        assert [(t.table, t.alias) for t in stmt.tables] == [
            ("a", None), ("b", "c"), ("d", "e"),
        ]

    def test_where_precedence(self):
        stmt = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
        assert isinstance(stmt.where, ast.BoolOp)
        assert stmt.where.op == "or"
        assert isinstance(stmt.where.items[1], ast.BoolOp)
        assert stmt.where.items[1].op == "and"

    def test_not_binds_tighter_than_and(self):
        stmt = parse("SELECT * FROM t WHERE NOT a = 1 AND b = 2")
        assert stmt.where.op == "and"
        assert isinstance(stmt.where.items[0], ast.UnaryOp)

    def test_parenthesised_or(self):
        stmt = parse("SELECT * FROM t WHERE a = 1 AND (b = 2 OR c = 3)")
        assert stmt.where.op == "and"

    def test_comparisons(self):
        for op in ("=", "<>", "<", "<=", ">", ">="):
            stmt = parse(f"SELECT * FROM t WHERE a {op} 1")
            assert stmt.where.op == op

    def test_arithmetic_precedence(self):
        stmt = parse("SELECT * FROM t WHERE a + b * c = 1")
        addition = stmt.where.left
        assert addition.op == "+"
        assert addition.right.op == "*"

    def test_unary_minus(self):
        stmt = parse("SELECT * FROM t WHERE a = -1")
        assert isinstance(stmt.where.right, ast.UnaryOp)

    def test_like(self):
        stmt = parse("SELECT * FROM t WHERE a LIKE '%BRASS'")
        assert stmt.where == ast.LikeOp(ast.Name("a"), "%BRASS")

    def test_not_like(self):
        stmt = parse("SELECT * FROM t WHERE a NOT LIKE 'x%'")
        assert stmt.where.negated

    def test_between(self):
        stmt = parse("SELECT * FROM t WHERE a BETWEEN 1 AND 5")
        assert isinstance(stmt.where, ast.BetweenOp)

    def test_in_list(self):
        stmt = parse("SELECT * FROM t WHERE a IN (1, 2, 3)")
        assert isinstance(stmt.where, ast.InListOp)
        assert len(stmt.where.items) == 3

    def test_not_in_list(self):
        assert parse("SELECT * FROM t WHERE a NOT IN (1)").where.negated

    def test_is_null(self):
        stmt = parse("SELECT * FROM t WHERE a IS NULL")
        assert stmt.where == ast.IsNullOp(ast.Name("a"))

    def test_is_not_null(self):
        assert parse("SELECT * FROM t WHERE a IS NOT NULL").where.negated

    def test_case(self):
        stmt = parse("SELECT * FROM t WHERE (CASE WHEN a = 1 THEN 2 ELSE 3 END) = 2")
        assert isinstance(stmt.where.left, ast.CaseExpr)


class TestSubqueries:
    def test_scalar_subquery(self):
        stmt = parse("SELECT * FROM t WHERE a = (SELECT MIN(b) FROM s)")
        assert isinstance(stmt.where.right, ast.Subquery)

    def test_scalar_subquery_left_side(self):
        stmt = parse("SELECT * FROM t WHERE (SELECT MIN(b) FROM s) = a")
        assert isinstance(stmt.where.left, ast.Subquery)

    def test_exists(self):
        stmt = parse("SELECT * FROM t WHERE EXISTS (SELECT * FROM s)")
        assert isinstance(stmt.where, ast.ExistsOp)

    def test_not_exists(self):
        stmt = parse("SELECT * FROM t WHERE NOT EXISTS (SELECT * FROM s)")
        assert isinstance(stmt.where, ast.UnaryOp)
        assert isinstance(stmt.where.operand, ast.ExistsOp)

    def test_in_subquery(self):
        stmt = parse("SELECT * FROM t WHERE a IN (SELECT b FROM s)")
        assert isinstance(stmt.where, ast.InSubqueryOp)

    def test_quantified_any(self):
        stmt = parse("SELECT * FROM t WHERE a < ANY (SELECT b FROM s)")
        assert stmt.where == ast.QuantifiedOp(ast.Name("a"), "<", "any", stmt.where.query)

    def test_quantified_some_is_any(self):
        stmt = parse("SELECT * FROM t WHERE a = SOME (SELECT b FROM s)")
        assert stmt.where.quantifier == "any"

    def test_quantified_all(self):
        stmt = parse("SELECT * FROM t WHERE a >= ALL (SELECT b FROM s)")
        assert stmt.where.quantifier == "all"

    def test_nested_subquery_in_subquery(self):
        stmt = parse(
            "SELECT * FROM r WHERE a = (SELECT COUNT(*) FROM s "
            "WHERE b = (SELECT MAX(c) FROM t))"
        )
        inner = stmt.where.right.query
        assert isinstance(inner.where.right, ast.Subquery)

    def test_two_subqueries_under_a_disjunction(self):
        stmt = parse(
            "SELECT * FROM r WHERE a = (SELECT COUNT(*) FROM s) "
            "OR EXISTS (SELECT * FROM t)"
        )
        linking, exists = stmt.where.items
        assert stmt.where.op == "or"
        assert [table.table for table in linking.right.query.tables] == ["s"]
        assert isinstance(exists, ast.ExistsOp) and not exists.negated
        assert [table.table for table in exists.query.tables] == ["t"]


class TestAggregateCalls:
    def test_count_star(self):
        stmt = parse("SELECT COUNT(*) FROM t")
        call = stmt.items[0].expr
        assert call.name == "count"
        assert isinstance(call.args[0], ast.Star)

    def test_count_distinct_star(self):
        call = parse("SELECT COUNT(DISTINCT *) FROM t").items[0].expr
        assert call.distinct

    def test_min_column(self):
        call = parse("SELECT MIN(x) FROM t").items[0].expr
        assert call.name == "min"
        assert call.args == (ast.Name("x"),)

    def test_sum_expression(self):
        call = parse("SELECT SUM(a * b) FROM t").items[0].expr
        assert isinstance(call.args[0], ast.BinaryOp)


class TestClauses:
    def test_order_by(self):
        stmt = parse("SELECT * FROM t ORDER BY a DESC, b ASC, c")
        assert [(o.expr.name, o.ascending) for o in stmt.order_by] == [
            ("a", False), ("b", True), ("c", True),
        ]

    def test_limit(self):
        assert parse("SELECT * FROM t LIMIT 7").limit == 7

    def test_group_by_having(self):
        stmt = parse("SELECT a, COUNT(*) FROM t GROUP BY a HAVING a > 1")
        assert stmt.group_by == (ast.Name("a"),)
        assert stmt.having is not None


class TestErrors:
    def test_missing_from(self):
        with pytest.raises(ParseError):
            parse("SELECT *")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="end of input"):
            parse("SELECT * FROM t xx yy")

    def test_bad_limit(self):
        with pytest.raises(ParseError):
            parse("SELECT * FROM t LIMIT x")

    def test_dangling_not(self):
        with pytest.raises(ParseError):
            parse("SELECT * FROM t WHERE a NOT 5")

    def test_like_requires_string(self):
        with pytest.raises(ParseError):
            parse("SELECT * FROM t WHERE a LIKE b")

    def test_case_requires_when(self):
        with pytest.raises(ParseError):
            parse("SELECT * FROM t WHERE CASE END = 1")

    def test_error_reports_location(self):
        with pytest.raises(ParseError) as info:
            parse("SELECT * FROM t WHERE")
        assert "line" in str(info.value)
