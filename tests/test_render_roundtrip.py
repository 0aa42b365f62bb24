"""SQL rendering and the parse→render→parse round-trip property."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.queries import Q1, Q2, Q3, Q4, QUERY_2D
from repro.sql import parse
from repro.sql.render import render


PAPER_QUERIES = [Q1, Q2, Q3, Q4, QUERY_2D]

HAND_QUERIES = [
    "SELECT * FROM t",
    "SELECT DISTINCT a, b AS x FROM t, u WHERE a = b ORDER BY a DESC LIMIT 3",
    "SELECT a FROM t WHERE a BETWEEN 1 AND 5 AND b NOT LIKE 'x%'",
    "SELECT a FROM t WHERE a IN (1, 2) OR b IS NOT NULL",
    "SELECT a FROM t WHERE NOT (a = 1 OR b = 2)",
    "SELECT a FROM t WHERE a < ANY (SELECT b FROM u) AND c >= ALL (SELECT d FROM v)",
    "SELECT a FROM t WHERE a NOT IN (SELECT b FROM u WHERE c = 'o''brien')",
    "SELECT COUNT(DISTINCT *) FROM t",
    "SELECT x.a FROM (SELECT a FROM t WHERE a > 1) x",
    "SELECT b, COUNT(*) AS n FROM t GROUP BY b HAVING b > 0",
    "SELECT CASE WHEN a = 1 THEN 'one' ELSE 'other' END AS label FROM t",
    "SELECT a + b * c - 2 FROM t WHERE -a < 3",
    "SELECT t.* FROM t",
    "SELECT a FROM t WHERE NOT EXISTS (SELECT b FROM u WHERE b = a) OR EXISTS (SELECT c FROM v)",
]


class TestRoundTrip:
    @pytest.mark.parametrize("sql", PAPER_QUERIES, ids=["Q1", "Q2", "Q3", "Q4", "2D"])
    def test_paper_queries(self, sql):
        tree = parse(sql)
        assert parse(render(tree)) == tree

    @pytest.mark.parametrize("sql", HAND_QUERIES)
    def test_hand_queries(self, sql):
        tree = parse(sql)
        assert parse(render(tree)) == tree

    def test_render_is_deterministic(self):
        tree = parse(QUERY_2D)
        assert render(tree) == render(tree)

    def test_rendering_single_line(self):
        assert "\n" not in render(parse(Q4))


# -- randomised round-trip ----------------------------------------------------

names = st.sampled_from(["a", "b", "c", "d"])
tables = st.sampled_from(["t", "u"])
numbers = st.integers(min_value=0, max_value=99)
strings = st.sampled_from(["x", "o'brien", ""])


@st.composite
def expressions(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        kind = draw(st.sampled_from(["name", "num", "str", "null"]))
        if kind == "name":
            return draw(names)
        if kind == "num":
            return str(draw(numbers))
        if kind == "str":
            return "'" + draw(strings).replace("'", "''") + "'"
        return "NULL"
    op = draw(st.sampled_from(["+", "-", "*"]))
    return f"({draw(expressions(depth + 1))} {op} {draw(expressions(depth + 1))})"


@st.composite
def predicates(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        kind = draw(st.sampled_from(["cmp", "like", "null", "in", "between"]))
        if kind == "cmp":
            op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
            return f"{draw(expressions())} {op} {draw(expressions())}"
        if kind == "like":
            neg = "NOT " if draw(st.booleans()) else ""
            return f"{draw(names)} {neg}LIKE 'x%'"
        if kind == "null":
            neg = "NOT " if draw(st.booleans()) else ""
            return f"{draw(names)} IS {neg}NULL"
        if kind == "in":
            return f"{draw(names)} IN (1, 2, 3)"
        return f"{draw(names)} BETWEEN 1 AND 9"
    connective = draw(st.sampled_from(["AND", "OR"]))
    negate = draw(st.booleans())
    combined = f"({draw(predicates(depth + 1))} {connective} {draw(predicates(depth + 1))})"
    return f"NOT {combined}" if negate else combined


@st.composite
def statements(draw):
    distinct = "DISTINCT " if draw(st.booleans()) else ""
    item_count = draw(st.integers(min_value=1, max_value=3))
    items = ", ".join(draw(expressions()) for _ in range(item_count))
    table = draw(tables)
    where = f" WHERE {draw(predicates())}" if draw(st.booleans()) else ""
    order = f" ORDER BY {draw(names)}" if draw(st.booleans()) else ""
    limit = f" LIMIT {draw(numbers)}" if draw(st.booleans()) else ""
    return f"SELECT {distinct}{items} FROM {table}{where}{order}{limit}"


@settings(max_examples=200, deadline=None)
@given(sql=statements())
def test_random_roundtrip(sql):
    tree = parse(sql)
    assert parse(render(tree)) == tree
