"""Logical → physical lowering.

Responsibilities:

* pick implementations — hash join/grouping when an equality key exists,
  nested loops otherwise;
* extract equi-join keys and residual predicates from join subscripts;
* detect DAG sharing (a node consumed by several parents — bypass taps,
  or subtrees shared between the main plan and an embedded subquery plan,
  e.g. Equivalence 4's ``σp±(S)``) and flag those nodes for memoisation;
* fuse a selection sitting directly on the negative stream of a bypass
  join into the join (Equivalence 5's ``σp(R' ⋈− S)``), so the complement
  of the match set is filtered while it is produced;
* compile subscript expressions via :mod:`repro.engine.evaluate`,
  recursing into subquery plans with the *same* compiler instance so that
  shared subtrees stay shared across the expression boundary.
"""

from __future__ import annotations

from typing import Callable

from repro.algebra import expr as E
from repro.algebra import ops as L
from repro.algebra.aggregates import STAR, AggSpec
from repro.engine import operators as P
from repro.engine.evaluate import compile_expr
from repro.errors import PlanningError
from repro.storage.catalog import Catalog
from repro.storage.schema import Schema


def compile_plan(
    plan: L.Operator, catalog: Catalog, vectorized: bool = False
) -> P.PhysicalOperator:
    """Compile a logical plan DAG into a physical plan DAG.

    With ``vectorized=True`` the batch compiler is used: operators the
    columnar runtime covers become batch operators, everything else
    falls back per-node to the row interpreter.  Requires numpy.
    """
    if vectorized:
        try:
            from repro.engine.vector_compile import VectorCompiler
        except ImportError as exc:  # numpy missing: the row engine still works
            raise PlanningError(
                f"the vectorized engine requires numpy ({exc}); "
                "re-run without vectorized mode"
            ) from exc
        compiler: _Compiler = VectorCompiler(catalog)
    else:
        compiler = _Compiler(catalog)
    compiler.count_references(plan)
    return compiler.compile(plan)


class _Compiler:
    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self.memo: dict[int, P.PhysicalOperator] = {}
        self.refcount: dict[int, int] = {}
        #: id(BypassJoin) -> fused negative-stream filter (logical Select)
        self.fused_negative: dict[int, E.Expr] = {}
        #: id(Select) whose filtering was fused into a bypass join
        self.fused_selects: set[int] = set()

    # -- analysis passes --------------------------------------------------

    def count_references(self, root: L.Operator) -> None:
        """Count parents per node, crossing subquery-plan boundaries."""
        seen: set[int] = set()

        def visit(node: L.Operator) -> None:
            if id(node) in seen:
                return
            seen.add(id(node))
            for child in node.children():
                self.refcount[id(child)] = self.refcount.get(id(child), 0) + 1
                visit(child)
            for subplan in node.subquery_plans():
                self.refcount[id(subplan)] = self.refcount.get(id(subplan), 0) + 1
                visit(subplan)

        self.refcount[id(root)] = self.refcount.get(id(root), 0) + 1
        visit(root)
        self._find_fusions(root, seen)

    def _find_fusions(self, root: L.Operator, all_ids: set[int]) -> None:
        """Locate ``Select → (−)tap → BypassJoin`` chains safe to fuse."""
        seen: set[int] = set()

        def visit(node: L.Operator) -> None:
            if id(node) in seen:
                return
            seen.add(id(node))
            if isinstance(node, L.Select):
                child = node.child
                if (
                    isinstance(child, L.StreamTap)
                    and not child.positive_stream
                    and isinstance(child.child, L.BypassJoin)
                    and self.refcount.get(id(child), 0) == 1
                    and id(child.child) not in self.fused_negative
                    and not node.predicate.contains_subquery()
                ):
                    self.fused_negative[id(child.child)] = node.predicate
                    self.fused_selects.add(id(node))
            for child in node.children():
                visit(child)
            for subplan in node.subquery_plans():
                visit(subplan)

        visit(root)

    # -- compilation --------------------------------------------------------

    def compile(self, node: L.Operator) -> P.PhysicalOperator:
        cached = self.memo.get(id(node))
        if cached is not None:
            return cached
        method = getattr(self, "_compile_" + type(node).__name__, None)
        if method is None:
            raise PlanningError(f"no physical implementation for {type(node).__name__}")
        physical = method(node)
        physical.free_names = tuple(sorted(node.free_attrs()))
        if self.refcount.get(id(node), 0) > 1:
            physical.memoize = True
        self.memo[id(node)] = physical
        return physical

    def _expr(self, expression: E.Expr, schema: Schema) -> Callable:
        return compile_expr(expression, schema, self.compile_subplan)

    def compile_subplan(self, plan: L.Operator) -> P.PhysicalOperator:
        # Limit wrappers added by the expression compiler (EXISTS) are new
        # nodes; make sure their children get refcounted if unseen.
        if id(plan) not in self.refcount:
            self.refcount[id(plan)] = 1
            for child in plan.children():
                self.refcount.setdefault(id(child), 0)
                self.refcount[id(child)] += 1
        return self.compile(plan)

    # -- leaves -------------------------------------------------------------

    def _compile_Scan(self, node: L.Scan) -> P.PhysicalOperator:
        table = self.catalog.table(node.table_name)
        if len(table.schema) != len(node.schema):
            raise PlanningError(
                f"scan of {node.table_name!r}: catalog arity {len(table.schema)} "
                f"!= plan arity {len(node.schema)}"
            )
        return P.PScan(node.schema, table.rows)

    def _indexed_table(self, table_name: str, index_name: str):
        """``(table, index)``, raising when the index no longer belongs to
        the table.  An MVCC snapshot view reports the live table it froze;
        the check runs against that base (the operators swap in a
        per-snapshot transient index at probe time)."""
        table = self.catalog.table(table_name)
        index = self.catalog.index(index_name)
        if index.table is not getattr(table, "base_table", table):
            raise PlanningError(
                f"index {index_name!r} no longer belongs to table "
                f"{table_name!r}; re-plan the query"
            )
        return table, index

    def _compile_IndexScan(self, node: L.IndexScan) -> P.PhysicalOperator:
        table, index = self._indexed_table(node.table_name, node.index_name)
        # Bound expressions reference no scan column (the access pass
        # guarantees it), so the schema only matters for arity.
        bounds = tuple((op, self._expr(expr, node.schema)) for op, expr in node.bounds)
        residual = (
            self._expr(node.residual, node.schema) if node.residual is not None else None
        )
        return P.PIndexScan(node.schema, table, index, bounds, residual, node.projection)

    def _compile_IndexNLJoin(self, node: L.IndexNLJoin) -> P.PhysicalOperator:
        table, index = self._indexed_table(node.right.table_name, node.index_name)
        if len(table.schema) != len(node.right.schema):
            raise PlanningError(
                f"index scan of {node.right.table_name!r}: catalog arity "
                f"{len(table.schema)} != plan arity {len(node.right.schema)}"
            )
        left = self.compile(node.left)
        combined = node.left.schema.concat(node.right.schema)
        residual = (
            self._expr(node.residual, combined) if node.residual is not None else None
        )
        left_position = node.left.schema.position(node.left_key)
        return P.PIndexNLJoin(node.schema, left, table, index, left_position, residual)

    # -- unary ----------------------------------------------------------------

    def _compile_Select(self, node: L.Select) -> P.PhysicalOperator:
        if id(node) in self.fused_selects:
            # The filter lives inside the bypass join's negative stream.
            return self.compile(node.child)
        child = self.compile(node.child)
        predicate = self._expr(node.predicate, node.child.schema)
        return P.PFilter(child, predicate, ())

    def _compile_BypassSelect(self, node: L.BypassSelect) -> P.PhysicalOperator:
        child = self.compile(node.child)
        predicate = self._expr(node.predicate, node.child.schema)
        return P.PBypassFilter(child, predicate, ())

    def _compile_StreamTap(self, node: L.StreamTap) -> P.PhysicalOperator:
        source = self.compile(node.child)
        if not isinstance(source, P.PBypassBase):
            raise PlanningError("stream tap over a non-bypass operator")
        return P.PStreamTap(source, node.positive_stream)

    def _compile_Project(self, node: L.Project) -> P.PhysicalOperator:
        child = self.compile(node.child)
        positions = node.child.schema.positions(node.names)
        return P.PProject(child, node.schema, positions)

    def _compile_Distinct(self, node: L.Distinct) -> P.PhysicalOperator:
        return P.PDistinct(self.compile(node.child))

    def _compile_Rename(self, node: L.Rename) -> P.PhysicalOperator:
        return P.PRename(self.compile(node.child), node.schema)

    def _compile_Map(self, node: L.Map) -> P.PhysicalOperator:
        child = self.compile(node.child)
        expression = self._expr(node.expression, node.child.schema)
        return P.PMap(child, node.schema, expression, ())

    def _compile_Numbering(self, node: L.Numbering) -> P.PhysicalOperator:
        return P.PNumber(self.compile(node.child), node.schema)

    def _compile_Sort(self, node: L.Sort) -> P.PhysicalOperator:
        child = self.compile(node.child)
        keys = [(node.child.schema.position(name), asc) for name, asc in node.keys]
        return P.PSort(child, keys)

    def _compile_Limit(self, node: L.Limit) -> P.PhysicalOperator:
        return P.PLimit(self.compile(node.child), node.count)

    # -- aggregation --------------------------------------------------------------

    def _agg_column(self, spec: AggSpec, input_schema: Schema, star_names=None) -> P._AggColumn:
        if spec.arg is STAR:
            positions = input_schema.positions(star_names) if star_names else None
            return P._AggColumn(spec, None, positions)
        extractor = self._expr(spec.arg, input_schema)
        return P._AggColumn(spec, extractor)

    def _compile_GroupBy(self, node: L.GroupBy) -> P.PhysicalOperator:
        child = self.compile(node.child)
        key_positions = node.child.schema.positions(node.keys)
        columns = [self._agg_column(spec, node.child.schema) for _, spec in node.aggregates]
        return P.PHashGroupBy(child, node.schema, key_positions, columns, ())

    def _compile_ScalarAggregate(self, node: L.ScalarAggregate) -> P.PhysicalOperator:
        child = self.compile(node.child)
        columns = [self._agg_column(spec, node.child.schema) for _, spec in node.aggregates]
        return P.PScalarAgg(child, node.schema, columns, ())

    def _compile_BinaryGroupBy(self, node: L.BinaryGroupBy) -> P.PhysicalOperator:
        left = self.compile(node.left)
        right = self.compile(node.right)
        column = self._agg_column(node.spec, node.right.schema, node.star_names)
        return P.PBinaryGroup(
            left,
            right,
            node.schema,
            node.left.schema.position(node.left_key),
            node.right.schema.position(node.right_key),
            node.op,
            column,
            (),
        )

    # -- joins --------------------------------------------------------------------

    def _split_equi_keys(self, predicate: E.Expr, left_schema: Schema, right_schema: Schema):
        """Split a join predicate into hash keys and a residual.

        Returns ``(left_positions, right_positions, residual_expr_or_None)``;
        empty positions mean no equality key was found.
        """
        left_positions: list[int] = []
        right_positions: list[int] = []
        residual: list[E.Expr] = []
        for conjunct in E.conjuncts(predicate):
            if (
                isinstance(conjunct, E.Comparison)
                and conjunct.op == "="
                and isinstance(conjunct.left, E.ColumnRef)
                and isinstance(conjunct.right, E.ColumnRef)
            ):
                lname, rname = conjunct.left.name, conjunct.right.name
                if lname in left_schema and rname in right_schema:
                    left_positions.append(left_schema.position(lname))
                    right_positions.append(right_schema.position(rname))
                    continue
                if rname in left_schema and lname in right_schema:
                    left_positions.append(left_schema.position(rname))
                    right_positions.append(right_schema.position(lname))
                    continue
            residual.append(conjunct)
        residual_expr = E.conjunction(residual) if residual else None
        if residual_expr == E.TRUE:
            residual_expr = None
        return left_positions, right_positions, residual_expr

    def _compile_join_family(
        self, node, kind: str, defaults: dict | None = None
    ) -> P.PhysicalOperator:
        left = self.compile(node.left)
        right = self.compile(node.right)
        combined = node.left.schema.concat(node.right.schema)
        default_row = None
        if kind == "left_outer":
            default_row = tuple(
                (defaults or {}).get(col.name) for col in node.right.schema
            )
        lkeys, rkeys, residual = self._split_equi_keys(
            node.predicate, node.left.schema, node.right.schema
        )
        if lkeys:
            residual_fn = self._expr(residual, combined) if residual is not None else None
            return P.PHashJoin(
                left, right, node.schema, lkeys, rkeys, residual_fn, kind, (), default_row
            )
        predicate_fn = self._expr(node.predicate, combined)
        return P.PNLJoin(left, right, node.schema, predicate_fn, kind, (), default_row)

    def _compile_Join(self, node: L.Join) -> P.PhysicalOperator:
        return self._compile_join_family(node, "inner")

    def _compile_LeftOuterJoin(self, node: L.LeftOuterJoin) -> P.PhysicalOperator:
        return self._compile_join_family(node, "left_outer", node.defaults)

    def _compile_SemiJoin(self, node: L.SemiJoin) -> P.PhysicalOperator:
        return self._compile_join_family(node, "semi")

    def _compile_AntiJoin(self, node: L.AntiJoin) -> P.PhysicalOperator:
        return self._compile_join_family(node, "anti")

    def _compile_CrossProduct(self, node: L.CrossProduct) -> P.PhysicalOperator:
        left = self.compile(node.left)
        right = self.compile(node.right)
        return P.PNLJoin(left, right, node.schema, None, "inner", ())

    def _compile_BypassJoin(self, node: L.BypassJoin) -> P.PhysicalOperator:
        left = self.compile(node.left)
        right = self.compile(node.right)
        combined = node.left.schema.concat(node.right.schema)
        predicate = self._expr(node.predicate, combined)
        fused = self.fused_negative.get(id(node))
        negative_filter = self._expr(fused, combined) if fused is not None else None
        return P.PBypassNLJoin(left, right, node.schema, predicate, (), negative_filter)

    # -- set operations --------------------------------------------------------

    def _compile_UnionAll(self, node: L.UnionAll) -> P.PhysicalOperator:
        return P.PUnionAll(self.compile(node.left), self.compile(node.right))

    def _compile_Union(self, node: L.Union) -> P.PhysicalOperator:
        return P.PUnion(self.compile(node.left), self.compile(node.right))

    def _compile_Intersect(self, node: L.Intersect) -> P.PhysicalOperator:
        return P.PIntersect(self.compile(node.left), self.compile(node.right))

    def _compile_Difference(self, node: L.Difference) -> P.PhysicalOperator:
        return P.PDifference(self.compile(node.left), self.compile(node.right))
