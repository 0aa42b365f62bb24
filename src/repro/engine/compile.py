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
  of the match set is filtered while it is produced — sharing and fusions
  are found in one walk (:meth:`_Compiler.analyse`), which also marks the
  ⟕s onto a Γ the batch compiler lowers as one group-join;
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
from repro.storage.schema import Schema


def compile_plan(plan: L.Operator, vectorized: bool) -> P.PhysicalOperator:
    """Compile a logical plan DAG into a physical plan DAG.

    With ``vectorized=True`` the batch compiler is used: operators the
    columnar runtime covers become batch operators, everything else
    falls back per-node to the row interpreter.

    The result reads no catalog: scans carry table and index names, which
    each execution resolves through its own, so one root serves them all.
    """
    if vectorized:
        from repro.engine.vector_compile import VectorCompiler  # it imports this module

        compiler: _Compiler = VectorCompiler()
    else:
        compiler = _Compiler()
    compiler.analyse(plan)
    return compiler.compile(plan)


class _Compiler:
    def __init__(self):
        self.memo: dict[int, P.PhysicalOperator] = {}
        self.refcount: dict[int, int] = {}
        #: id(BypassJoin) -> fused negative-stream filter (logical Select)
        self.fused_negative: dict[int, E.Expr] = {}
        #: id(Select) whose filtering was fused into a bypass join
        self.fused_selects: set[int] = set()
        #: id(LeftOuterJoin) whose right input is a Γ nothing else reads
        self.group_joins: set[int] = set()

    # -- analysis -----------------------------------------------------------

    def analyse(self, root: L.Operator) -> None:
        """One walk, crossing subquery-plan boundaries: count each node's
        parents, then keep the fusion candidates whose fused node has no
        other — ``Select → (−)tap → BypassJoin`` chains and ⟕s onto a Γ."""
        seen: set[int] = set()
        selects: list[L.Select] = []
        joins: list[L.LeftOuterJoin] = []

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
                    and not node.predicate.contains_subquery()
                ):
                    selects.append(node)
            elif isinstance(node, L.LeftOuterJoin) and isinstance(node.right, L.GroupBy):
                joins.append(node)
            for child in (*node.children(), *node.subquery_plans()):
                self.refcount[id(child)] = self.refcount.get(id(child), 0) + 1
                visit(child)

        self.refcount[id(root)] = self.refcount.get(id(root), 0) + 1
        visit(root)
        for node in selects:
            tap = node.child
            if self.refcount[id(tap)] == 1 and id(tap.child) not in self.fused_negative:
                self.fused_negative[id(tap.child)] = node.predicate
                self.fused_selects.add(id(node))
        self.group_joins = {id(join) for join in joins if self.refcount[id(join.right)] == 1}

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
        return P.PScan(node.schema, node.table_name)

    def _compile_IndexScan(self, node: L.IndexScan) -> P.PhysicalOperator:
        # Bound expressions reference no scan column (the access pass
        # guarantees it), so the schema only matters for arity.
        bounds = tuple((op, self._expr(expr, node.schema)) for op, expr in node.bounds)
        residual = (
            self._expr(node.residual, node.schema) if node.residual is not None else None
        )
        return P.PIndexScan(
            node.schema, node.table_name, node.index_name, bounds, residual, node.projection
        )

    # -- unary ----------------------------------------------------------------

    def _compile_Select(self, node: L.Select) -> P.PhysicalOperator:
        if id(node) in self.fused_selects:
            # The filter lives inside the bypass join's negative stream.
            return self.compile(node.child)
        child = self.compile(node.child)
        predicate = self._expr(node.predicate, node.child.schema)
        return P.PFilter(child, predicate)

    def _compile_BypassSelect(self, node: L.BypassSelect) -> P.PhysicalOperator:
        child = self.compile(node.child)
        predicate = self._expr(node.predicate, node.child.schema)
        return P.PBypassFilter(child, predicate)

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
        return P.PMap(child, node.schema, expression)

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
        return P.PHashGroupBy(child, node.schema, key_positions, columns)

    def _compile_ScalarAggregate(self, node: L.ScalarAggregate) -> P.PhysicalOperator:
        child = self.compile(node.child)
        columns = [self._agg_column(spec, node.child.schema) for _, spec in node.aggregates]
        return P.PScalarAgg(child, node.schema, columns)

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
        )

    # -- joins --------------------------------------------------------------------

    def _split_equi_keys(self, predicate: E.Expr, left_schema: Schema, right_schema: Schema):
        """Split a join predicate into hash-key positions and a residual.

        Returns ``(left_positions, right_positions, residual_expr_or_None)``;
        empty positions mean no equality key was found.
        """
        keys, rest = E.equi_keys(predicate, left_schema, right_schema)
        residual = E.conjunction(rest)
        return (
            [left_schema.position(name) for name, _ in keys],
            [right_schema.position(name) for _, name in keys],
            None if residual == E.TRUE else residual,
        )

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
                left, right, node.schema, lkeys, rkeys, residual_fn, kind, default_row
            )
        predicate_fn = self._expr(node.predicate, combined)
        return P.PNLJoin(left, right, node.schema, predicate_fn, kind, default_row)

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
        return P.PNLJoin(left, right, node.schema, None, "inner")

    def _compile_BypassJoin(self, node: L.BypassJoin) -> P.PhysicalOperator:
        left = self.compile(node.left)
        right = self.compile(node.right)
        combined = node.left.schema.concat(node.right.schema)
        predicate = self._expr(node.predicate, combined)
        fused = self.fused_negative.get(id(node))
        negative_filter = self._expr(fused, combined) if fused is not None else None
        return P.PBypassNLJoin(left, right, node.schema, predicate, negative_filter)

    # -- set operations --------------------------------------------------------

    def _compile_UnionAll(self, node: L.UnionAll) -> P.PhysicalOperator:
        return P.PUnionAll(self.compile(node.left), self.compile(node.right))

    def _compile_Union(self, node: L.Union) -> P.PhysicalOperator:
        return P.PUnion(self.compile(node.left), self.compile(node.right))

    def _compile_Intersect(self, node: L.Intersect) -> P.PhysicalOperator:
        return P.PIntersect(self.compile(node.left), self.compile(node.right))

    def _compile_Difference(self, node: L.Difference) -> P.PhysicalOperator:
        return P.PDifference(self.compile(node.left), self.compile(node.right))
