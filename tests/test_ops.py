"""Unit tests for the logical operators (schema inference, free attrs)."""

import pytest

from repro.algebra import expr as E
from repro.algebra import ops as L
from repro.algebra.aggregates import STAR, AggSpec
from repro.algebra.explain import explain
from repro.baselines import reorder_disjuncts_cheap_first
from repro.engine import execute_plan
from repro.errors import SchemaError
from repro.optimizer.access import choose_access_paths
from repro.optimizer.joins import optimize_joins
from repro.optimizer.simplify import simplify_plan
from repro.rewrite import unnest
from repro.storage.schema import Schema
from tests.conftest import assert_bag_equal, make_rst_catalog


def scan_r():
    return L.Scan("r", Schema(["A1", "A2"]))


def scan_s():
    return L.Scan("s", Schema(["B1", "B2"]))


class TestSchemaInference:
    def test_select_keeps_schema(self):
        node = L.Select(scan_r(), E.eq("A1", "A2"))
        assert node.schema.names == ("A1", "A2")

    def test_join_concatenates(self):
        node = L.Join(scan_r(), scan_s(), E.eq("A1", "B1"))
        assert node.schema.names == ("A1", "A2", "B1", "B2")

    def test_project_subset(self):
        node = L.Project(scan_r(), ["A2"])
        assert node.schema.names == ("A2",)

    def test_map_extends(self):
        node = L.Map(scan_r(), "g", E.lit(1))
        assert node.schema.names == ("A1", "A2", "g")

    def test_rename(self):
        node = L.Rename(scan_r(), {"A1": "X"})
        assert node.schema.names == ("X", "A2")

    def test_numbering_extends(self):
        node = L.Numbering(scan_r(), "t")
        assert node.schema.names == ("A1", "A2", "t")

    def test_groupby_schema(self):
        node = L.GroupBy(scan_s(), ["B2"], [("g", AggSpec("count", STAR))])
        assert node.schema.names == ("B2", "g")

    def test_groupby_validates_keys(self):
        with pytest.raises(SchemaError):
            L.GroupBy(scan_s(), ["nope"], [("g", AggSpec("count", STAR))])

    def test_scalar_aggregate_schema(self):
        node = L.ScalarAggregate(scan_s(), [("g", AggSpec("count", STAR))])
        assert node.schema.names == ("g",)

    def test_binary_groupby_schema(self):
        numbered = L.Numbering(scan_r(), "t")
        renamed = L.Rename(L.Numbering(scan_s(), "t0"), {"t0": "t2"})
        node = L.BinaryGroupBy(
            numbered, renamed, "g", "t", "t2", AggSpec("count", STAR)
        )
        assert node.schema.names == ("A1", "A2", "t", "g")

    def test_semijoin_keeps_left_schema(self):
        node = L.SemiJoin(scan_r(), scan_s(), E.eq("A1", "B1"))
        assert node.schema.names == ("A1", "A2")

    def test_union_requires_same_arity(self):
        with pytest.raises(SchemaError):
            L.UnionAll(scan_r(), L.Project(scan_s(), ["B1"]))

    def test_left_outer_join_defaults_must_be_right_side(self):
        with pytest.raises(SchemaError):
            L.LeftOuterJoin(scan_r(), scan_s(), E.eq("A1", "B1"), defaults={"A1": 0})

    def test_sort_validates_keys(self):
        with pytest.raises(SchemaError):
            L.Sort(scan_r(), [("zz", True)])


class TestBypassStreams:
    def test_taps_are_cached(self):
        bypass = L.BypassSelect(scan_r(), E.eq("A1", "A2"))
        assert bypass.positive is bypass.positive
        assert bypass.negative is bypass.negative
        assert bypass.positive is not bypass.negative

    def test_tap_schema(self):
        bypass = L.BypassJoin(scan_r(), scan_s(), E.eq("A1", "B1"))
        assert bypass.positive.schema.names == ("A1", "A2", "B1", "B2")

    def test_tap_requires_bypass(self):
        with pytest.raises(SchemaError):
            L.StreamTap(scan_r(), positive=True)

    def test_tap_labels(self):
        bypass = L.BypassSelect(scan_r(), E.TRUE)
        assert bypass.positive.label() == "+stream"
        assert bypass.negative.label() == "−stream"


class TestFreeAttrs:
    def test_scan_has_none(self):
        assert scan_r().free_attrs() == frozenset()

    def test_correlated_select(self):
        node = L.Select(scan_s(), E.eq("A1", "B2"))
        assert node.free_attrs() == {"A1"}

    def test_free_propagates_up(self):
        inner = L.Select(scan_s(), E.eq("A1", "B2"))
        node = L.ScalarAggregate(inner, [("g", AggSpec("count", STAR))])
        assert node.free_attrs() == {"A1"}

    def test_bound_by_local_schema(self):
        node = L.Select(scan_s(), E.eq("B1", "B2"))
        assert node.free_attrs() == frozenset()

    def test_subquery_free_attrs_flow_through_exprs(self):
        sub_plan = L.ScalarAggregate(
            L.Select(scan_s(), E.eq("A1", "B2")), [("g", AggSpec("count", STAR))]
        )
        outer = L.Select(scan_r(), E.Comparison("=", E.col("A2"), E.ScalarSubquery(sub_plan)))
        assert outer.free_attrs() == frozenset()  # A1 is bound by the scan of r

    def test_agg_arg_free_attrs(self):
        node = L.ScalarAggregate(scan_s(), [("g", AggSpec("sum", E.col("X9")))])
        assert node.free_attrs() == {"X9"}


def _count_star(source):
    return L.ScalarAggregate(source, [("g", AggSpec("count", STAR))])


def _one_of_each():
    """One instance of every concrete operator, subscripts filled in."""
    r, s = scan_r(), scan_s()
    p = E.eq("A1", "B1")
    aggregates = [("n", AggSpec("count", STAR)), ("m", AggSpec("sum", E.col("B1")))]
    index_scan = L.IndexScan(
        "s", s.schema, "", "s_b1", "sorted", "B1",
        ((">", E.lit(1)), ("<", E.col("A1"))), E.eq("B2", "A2"), None, ("B1", "B2"),
    )
    numbered = L.Numbering(r, "t")
    renamed = L.Rename(L.Numbering(s, "t0"), {"t0": "t2"})
    bypass = L.BypassSelect(r, E.eq("A1", "A2"))
    return [
        r, index_scan, L.Select(r, E.eq("A1", "A2")), bypass, bypass.positive,
        L.Project(r, ["A1"]), L.Distinct(r), L.Rename(r, {"A1": "X"}), L.Map(r, "g", E.col("A1")),
        numbered, L.GroupBy(s, ["B2"], aggregates), L.ScalarAggregate(s, aggregates),
        L.Sort(r, [("A1", True)]), L.Limit(r, 3), L.CrossProduct(r, s), L.Join(r, s, p),
        L.LeftOuterJoin(r, s, p, {"B2": 0}), L.SemiJoin(r, s, p), L.AntiJoin(r, s, p),
        L.BypassJoin(r, s, p),
        L.BinaryGroupBy(numbered, renamed, "g", "t", "t2", AggSpec("sum", E.col("B1"))),
        L.BinaryGroupBy(numbered, renamed, "g", "t", "t2", AggSpec("count", STAR)),
        L.UnionAll(r, r), L.Union(r, r), L.Intersect(r, r), L.Difference(r, r),
    ]


def _concrete_operators(base=L.Operator):
    for cls in base.__subclasses__():
        if cls not in (L.UnaryOperator, L.BinaryOperator, L._Aggregation, L._SetOperator):
            yield cls
        yield from _concrete_operators(cls)


def _same_schema(child, number):
    """A new input with ``child``'s schema (a bypass node for a tap)."""
    fresh = L.Scan(f"fresh{number}", child.schema)
    if isinstance(child, (L.BypassSelect, L.BypassJoin)):
        return L.BypassSelect(fresh, E.TRUE)
    return fresh


class TestPlanPrimitives:
    def test_every_operator_with_a_subscript_can_rebuild_it(self):
        """A future operator cannot silently fall out of every pass."""
        samples = _one_of_each()
        assert {type(node) for node in samples} == set(_concrete_operators())
        for node in samples:
            swapped = tuple(E.ColumnRef(expression.sql()) for expression in node.exprs())
            rebuilt = node.with_exprs(swapped)
            assert type(rebuilt) is type(node)
            assert rebuilt.exprs() == swapped
            assert explain(rebuilt, show_schema=True) == explain(node, show_schema=True)

    def test_every_operator_rebuilds_over_new_children_of_the_same_schema(self):
        for node in _one_of_each():
            fresh = [_same_schema(child, number) for number, child in enumerate(node.children())]
            rebuilt = node.replace_children(fresh)
            assert type(rebuilt) is type(node)
            assert rebuilt.label() == node.label() and rebuilt.schema == node.schema
            assert rebuilt.exprs() == node.exprs()
            if isinstance(node, L.StreamTap):
                (bypass,) = fresh
                assert rebuilt is (bypass.positive if node.positive_stream else bypass.negative)
            else:
                assert rebuilt.children() == tuple(fresh)

    def test_with_exprs_rejects_a_subscript_on_an_operator_without_one(self):
        with pytest.raises(ValueError):
            scan_r().with_exprs([E.TRUE])

    def test_replace_children_rejects_the_wrong_number_of_inputs(self):
        with pytest.raises(ValueError):
            L.Join(scan_r(), scan_s(), E.TRUE).replace_children([scan_r()])

    def test_identity_maps_return_self(self):
        for node in _one_of_each():
            assert node.map_children(lambda child: child) is node
            assert node.map_exprs(lambda expression: expression) is node
            assert node.map_subplans(lambda plan: plan) is node

    def test_maps_rebuild_only_what_changed(self):
        sub = E.ScalarSubquery(_count_star(scan_s()))
        aggregates = [("m", AggSpec("sum", sub)), ("n", AggSpec("count", STAR))]
        node = L.ScalarAggregate(scan_r(), aggregates)
        limited = node.map_subplans(lambda plan: L.Limit(plan, 1))
        assert limited.child is node.child
        assert limited.aggregates[1] == node.aggregates[1]
        assert limited.aggregates[0][1].arg.plan.child is sub.plan
        swapped = node.map_children(lambda child: scan_s())
        assert swapped.aggregates == node.aggregates and swapped.child.table_name == "s"

    def test_nested_iteration_reaches_nested_blocks_and_shared_nodes_once(self):
        inner_scan = L.Scan("t", Schema(["C1"]))
        inner_bypass = L.BypassSelect(inner_scan, E.eq("C1", "A1"))
        inner = _count_star(L.UnionAll(inner_bypass.positive, inner_bypass.negative))
        bypass = L.BypassSelect(scan_r(), E.Comparison("=", E.col("A2"), E.ScalarSubquery(inner)))
        plan = L.UnionAll(bypass.positive, bypass.negative)
        nodes = list(plan.iter_dag(nested=True))
        assert len(nodes) == len({id(node) for node in nodes})
        assert sum(node is inner_bypass for node in nodes) == 1
        assert sum(node is bypass for node in nodes) == 1
        assert inner_scan in nodes
        assert inner_scan not in list(plan.iter_dag())


def _bypass_plan(nested):
    """σ± with both taps consumed, over a block every pass has a rule for.

    ``1 = 1`` folds (simplify), ``σ(r' × s)`` is a join block (joins), r
    carries an index on A2 (access paths), the σ± disjunction is written
    expensive-first (S3), and every σ is rebuilt by ``unnest``.
    """
    r = L.Scan("r", Schema(["A1", "A2", "A3", "A4"]))
    s = L.Scan("s", Schema(["B1", "B2", "B3", "B4"]))
    t = L.Scan("t", Schema(["C1", "C2", "C3", "C4"]))
    block = L.Select(
        L.CrossProduct(L.Select(r, E.Comparison("=", E.col("A2"), E.lit(3))), s),
        E.And((E.eq("A1", "B1"), E.Comparison("=", E.lit(1), E.lit(1)))),
    )
    count_t = E.ScalarSubquery(_count_star(L.Select(t, E.eq("C1", "A1"))))
    expensive_first = E.Or(
        (E.Comparison("=", E.col("A3"), count_t), E.Comparison(">", E.col("B3"), E.lit(4)))
    )
    bypass = L.BypassSelect(block, expensive_first)
    plan = L.UnionAll(bypass.positive, L.Select(bypass.negative, E.eq("A4", "B4")))
    if nested:
        outer = L.Scan("t", Schema(["D1", "D2", "D3", "D4"]), "d")
        plan = L.Select(outer, E.Comparison("=", E.col("D1"), E.ScalarSubquery(_count_star(plan))))
    return plan, bypass


_PASSES = {
    "simplify_plan": lambda plan, catalog: simplify_plan(plan),
    "optimize_joins": optimize_joins,
    "choose_access_paths": choose_access_paths,
    "reorder_disjuncts_cheap_first": lambda plan, catalog: reorder_disjuncts_cheap_first(plan),
    "unnest": lambda plan, catalog: unnest(plan),
}


@pytest.mark.parametrize("nested", [False, True], ids=["top_level", "in_a_subquery"])
@pytest.mark.parametrize("name", list(_PASSES))
def test_passes_keep_both_taps_on_one_bypass_node(name, nested):
    catalog = make_rst_catalog()
    catalog.create_index("r_a2", "r", "A2")
    plan, bypass = _bypass_plan(nested)
    rewritten = _PASSES[name](plan, catalog)
    taps = [node for node in rewritten.iter_dag(nested=True) if isinstance(node, L.StreamTap)]
    positive, negative = sorted(taps, key=lambda tap: not tap.positive_stream)
    assert positive.positive_stream and not negative.positive_stream
    assert positive.child is negative.child
    assert positive.child is not bypass  # the pass did rebuild below the taps
    assert_bag_equal(execute_plan(plan, catalog), execute_plan(rewritten, catalog))


class TestDagUtilities:
    def test_iter_dag_visits_shared_once(self):
        bypass = L.BypassSelect(scan_r(), E.TRUE)
        union = L.UnionAll(bypass.positive, bypass.negative)
        nodes = list(union.iter_dag())
        bypass_nodes = [n for n in nodes if isinstance(n, L.BypassSelect)]
        assert len(bypass_nodes) == 1

    def test_subquery_plans(self):
        sub_plan = L.ScalarAggregate(scan_s(), [("g", AggSpec("count", STAR))])
        node = L.Select(scan_r(), E.Comparison("=", E.col("A1"), E.ScalarSubquery(sub_plan)))
        assert list(node.subquery_plans()) == [sub_plan]

    def test_union_all_helper_folds(self):
        streams = [L.Project(scan_r(), ["A1"]) for _ in range(3)]
        node = L.union_all(streams)
        assert isinstance(node, L.UnionAll)
        assert isinstance(node.left, L.UnionAll)

    def test_union_all_helper_rejects_empty(self):
        with pytest.raises(SchemaError):
            L.union_all([])

    def test_replace_children_identity(self):
        join = L.Join(scan_r(), scan_s(), E.eq("A1", "B1"))
        rebuilt = join.replace_children(list(join.children()))
        assert rebuilt.schema == join.schema
        assert rebuilt.predicate == join.predicate
