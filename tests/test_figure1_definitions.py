"""Operator fidelity to the paper's Figure 1 definitions.

Each extended/bypass operator is compared, on hypothesis-generated
relations, against a direct transcription of its definition:

    e1 Γ[g; A1 θ A2; f] e2 := {x ∘ [g: G] | x ∈ e1 ∧
                               G = f({y | y ∈ e2 ∧ x.A1 θ y.A2})}
    Γ[g; =A; f](e1)       := Π(... self binary grouping ...)
    e1 ⟕[g:f(∅)] e2       := e1 ⋈ e2 ∪ {x ∘ z | no partner; z defaults}
    ν[A](e)               := {t_i ∘ [A: i]}
    χ[a:e2](e1)           := {x ∘ [a: e2(x)]}
    σ+[p](e) = {x | p(x)};  σ−[p](e) = e \\ σ+
    ⋈+[p] = {x∘y | p};      ⋈−[p] = (e1 × e2) \\ ⋈+

Binary grouping, the bypass join and the semi / anti joins are checked on
both engines: the batch forms (Γ + ⟕ + π, the blocked pair kernel) must
meet the same definitions as the row forms.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import expr as E
from repro.algebra import ops as L
from repro.algebra.aggregates import STAR, AggSpec, get_aggregate
from repro.engine import EvalOptions, execute_plan
from repro.storage import Catalog, Schema, Table

value = st.integers(min_value=0, max_value=4)
nullable = st.one_of(st.none(), value)
left_rows = st.lists(st.tuples(nullable, value), max_size=10)
right_rows = st.lists(st.tuples(nullable, value), max_size=10)

SETTINGS = settings(max_examples=80, deadline=None)
VECTORIZED = (False, True)


def run(plan, left, right, vectorized=False):
    catalog = Catalog()
    catalog.register(Table(Schema(["A1", "A2"]), left, name="e1"))
    catalog.register(Table(Schema(["B1", "B2"]), right, name="e2"))
    scan1 = L.Scan("e1", Schema(["A1", "A2"]))
    scan2 = L.Scan("e2", Schema(["B1", "B2"]))
    options = EvalOptions(vectorized=vectorized)
    return execute_plan(plan(scan1, scan2), catalog, options).rows


@SETTINGS
@given(left=left_rows, right=right_rows)
def test_binary_grouping_definition(left, right):
    """e1 Γ[g; A1 = B1; count(*)] e2 per Fig. 1."""
    agg = get_aggregate("count_star")
    expected = [
        x + (agg.over([y for y in right if x[0] is not None and y[0] == x[0]]),)
        for x in left
    ]
    for vectorized in VECTORIZED:
        result = run(
            lambda s1, s2: L.BinaryGroupBy(s1, s2, "g", "A1", "B1", AggSpec("count", STAR)),
            left, right, vectorized,
        )
        assert Counter(result) == Counter(expected)


@SETTINGS
@given(left=left_rows, right=right_rows)
def test_binary_grouping_theta_definition(left, right):
    result = run(
        lambda s1, s2: L.BinaryGroupBy(
            s1, s2, "g", "A2", "B2", AggSpec("sum", E.col("B2")), op="<"
        ),
        left, right,
    )
    agg = get_aggregate("sum")
    expected = [
        x + (agg.over([y[1] for y in right if x[1] < y[1]]),)
        for x in left
    ]
    assert Counter(result) == Counter(expected)


@SETTINGS
@given(rows=left_rows)
def test_unary_grouping_definition(rows):
    """Γ[g; =A1; count] — one output tuple per distinct key value."""
    plan = lambda s1, s2: L.GroupBy(s1, ["A1"], [("g", AggSpec("count", STAR))])
    result = run(plan, rows, [])
    groups = Counter(row[0] for row in rows)
    expected = [(key, count) for key, count in groups.items()]
    assert Counter(result) == Counter(expected)


@SETTINGS
@given(left=left_rows, right=right_rows)
def test_leftouterjoin_definition(left, right):
    """⟕[g:0] after grouping — matched rows joined, others defaulted."""

    def plan(s1, s2):
        grouped = L.GroupBy(s2, ["B1"], [("g", AggSpec("count", STAR))])
        return L.LeftOuterJoin(s1, grouped, E.eq("A1", "B1"), defaults={"g": 0})

    result = run(plan, left, right)
    groups = Counter(y[0] for y in right if y[0] is not None)
    expected = []
    for x in left:
        if x[0] is not None and x[0] in groups:
            expected.append(x + (x[0], groups[x[0]]))
        else:
            expected.append(x + (None, 0))
    assert Counter(result) == Counter(expected)


@SETTINGS
@given(rows=left_rows)
def test_numbering_definition(rows):
    result = run(lambda s1, s2: L.Numbering(s1, "t"), rows, [])
    assert result == [row + (index,) for index, row in enumerate(rows, start=1)]


@SETTINGS
@given(rows=left_rows)
def test_map_definition(rows):
    expression = E.Arithmetic("+", E.col("A2"), E.lit(1))
    result = run(lambda s1, s2: L.Map(s1, "a", expression), rows, [])
    assert result == [row + (row[1] + 1,) for row in rows]


@SETTINGS
@given(rows=left_rows, threshold=value)
def test_bypass_selection_definition(rows, threshold):
    predicate = E.Comparison(">", E.col("A1"), E.lit(threshold))

    def plan_positive(s1, s2):
        return L.BypassSelect(s1, predicate).positive

    def plan_negative(s1, s2):
        return L.BypassSelect(s1, predicate).negative

    positive = run(plan_positive, rows, [])
    negative = run(plan_negative, rows, [])
    expected_positive = [r for r in rows if r[0] is not None and r[0] > threshold]
    assert Counter(positive) == Counter(expected_positive)
    # σ−(e) = e \ σ+(e), as bags.
    assert Counter(negative) == Counter(rows) - Counter(expected_positive)


@SETTINGS
@given(left=left_rows, right=right_rows)
def test_bypass_join_definition(left, right):
    for op, holds in (("=", lambda a, b: a == b), ("<", lambda a, b: a < b)):
        predicate = E.Comparison(op, E.col("A1"), E.col("B1"))

        def plan_positive(s1, s2):
            return L.BypassJoin(s1, s2, predicate).positive

        def plan_negative(s1, s2):
            return L.BypassJoin(s1, s2, predicate).negative

        cross = [x + y for x in left for y in right]
        expected_positive = [
            x + y for x in left for y in right
            if x[0] is not None and y[0] is not None and holds(x[0], y[0])
        ]
        for vectorized in VECTORIZED:
            positive = run(plan_positive, left, right, vectorized)
            negative = run(plan_negative, left, right, vectorized)
            assert Counter(positive) == Counter(expected_positive)
            assert Counter(negative) == Counter(cross) - Counter(expected_positive)


@SETTINGS
@given(left=left_rows, right=right_rows)
def test_semijoin_antijoin_partition_left(left, right):
    """⋉ and ▷ partition e1 by partner existence (an equality key, and a
    θ-predicate with none)."""
    keys = [y[0] for y in right if y[0] is not None]
    for op, partnered in (("=", lambda a: a in keys), ("<", lambda a: any(a < b for b in keys))):
        predicate = E.Comparison(op, E.col("A1"), E.col("B1"))
        for vectorized in VECTORIZED:
            semi = run(lambda s1, s2: L.SemiJoin(s1, s2, predicate), left, right, vectorized)
            anti = run(lambda s1, s2: L.AntiJoin(s1, s2, predicate), left, right, vectorized)
            assert Counter(semi) + Counter(anti) == Counter(left)
            assert Counter(semi) == Counter(
                [x for x in left if x[0] is not None and partnered(x[0])]
            )
