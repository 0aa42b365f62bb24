"""Logical → vectorized-physical lowering with per-operator fallback.

:class:`VectorCompiler` subclasses the row compiler and overrides each
``_compile_<Node>`` hook to *try* the vectorized implementation first.
Anything the batch runtime cannot express — subqueries correlated with
the operator's input rows, subqueries in predicates, function calls,
θ-binary grouping — raises
:class:`~repro.engine.vector_kernels.VectorizeError` at compile time (or
is routed straight to ``super()``), and the row interpreter picks up that
one operator.  Mixed plans work in both directions:

* a row parent over a vectorized child: :class:`VecOperator.execute`
  materialises the batch into row tuples;
* a vectorized parent over a row child: :class:`VFromRows` pivots the
  row output into a batch at the boundary.

The row compiler's one analysis walk (reference counts for DAG-sharing
memoisation, the Eqv. 5 negative-stream filter fusion) is inherited, so
vectorized plans keep the row plans' sharing; it also marks each ⟕ onto
a Γ no other node reads, which lowers, as every ``=`` binary Γ does
(under a π), onto one group-join, ``VGroupJoin``, told once (:func:`_pure`)
whether its aggregates read S alone, so that its build may be kept.  ⋈±
and joins without an equality key run the blocked pair kernel of
:mod:`~repro.engine.vector_ops`.
"""

from __future__ import annotations

from repro.algebra import expr as E
from repro.algebra import ops as L
from repro.algebra.aggregates import STAR, AggSpec
from repro.engine import operators as P
from repro.engine import vector_ops as V
from repro.engine.compile import _Compiler
from repro.engine.vector_kernels import (
    VectorizeError,
    compile_predicate,
    compile_value,
)
from repro.storage.schema import Schema


def _pure(specs, schema: Schema) -> bool:
    """Whether the aggregates read ``schema``'s columns and nothing else —
    no parameter, no outer attribute — so a group-join's build depends on
    its right input alone and may be kept across executions."""
    args = [spec.arg for spec in specs if spec.arg is not STAR]
    return all(name in schema for arg in args for name in arg.free_attrs()) and not any(
        isinstance(node, E.Parameter) for arg in args for node in arg.walk()
    )


class VectorCompiler(_Compiler):
    """Compiler that prefers batch operators and falls back per node."""

    def _vec(self, child: P.PhysicalOperator) -> V.VecOperator:
        """Adapt any compiled child into a batch source."""
        if isinstance(child, V.VecOperator):
            return child
        return V.VFromRows(child)

    # -- leaves -------------------------------------------------------------

    def _compile_Scan(self, node: L.Scan) -> P.PhysicalOperator:
        return V.VScan(node.schema, node.table_name)

    def _compile_IndexScan(self, node: L.IndexScan) -> P.PhysicalOperator:
        kernel = None
        if node.residual is not None:
            try:
                kernel = compile_predicate(node.residual, node.schema)
            except VectorizeError:
                # Subquery (or otherwise non-vectorizable) residual: the
                # whole scan falls back to the row implementation, which
                # still probes the index.
                return super()._compile_IndexScan(node)
        bounds = tuple((op, self._expr(expr, node.schema)) for op, expr in node.bounds)
        return V.VIndexScan(
            node.schema, node.table_name, node.index_name, bounds, kernel, node.projection
        )

    # -- unary --------------------------------------------------------------

    def _compile_Select(self, node: L.Select) -> P.PhysicalOperator:
        if id(node) in self.fused_selects:
            return self.compile(node.child)
        child = self.compile(node.child)
        try:
            kernel = compile_predicate(node.predicate, node.child.schema)
        except VectorizeError:
            return super()._compile_Select(node)
        return V.VFilter(self._vec(child), kernel)

    def _compile_BypassSelect(self, node: L.BypassSelect) -> P.PhysicalOperator:
        child = self.compile(node.child)
        try:
            kernel = compile_predicate(node.predicate, node.child.schema)
        except VectorizeError:
            return super()._compile_BypassSelect(node)
        return V.VBypassFilter(self._vec(child), kernel)

    def _compile_StreamTap(self, node: L.StreamTap) -> P.PhysicalOperator:
        source = self.compile(node.child)
        if isinstance(source, V.VBypassBase):
            return V.VStreamTap(source, node.positive_stream)
        return super()._compile_StreamTap(node)

    def _compile_Project(self, node: L.Project) -> P.PhysicalOperator:
        child = self.compile(node.child)
        positions = node.child.schema.positions(node.names)
        return V.VProject(self._vec(child), node.schema, positions)

    def _compile_Distinct(self, node: L.Distinct) -> P.PhysicalOperator:
        return V.VDistinct(self._vec(self.compile(node.child)))

    def _compile_Rename(self, node: L.Rename) -> P.PhysicalOperator:
        return V.VRename(self._vec(self.compile(node.child)), node.schema)

    def _compile_Map(self, node: L.Map) -> P.PhysicalOperator:
        child = self.compile(node.child)
        try:
            # χ evaluates its expression for every input row, so a scalar
            # subquery that does not depend on the row (Eqv. 4's g2) can
            # be one evaluation; a predicate may short-circuit past its
            # subquery, so the filters do not pass the subplan compiler.
            kernel = compile_value(node.expression, node.child.schema, self.compile_subplan)
        except VectorizeError:
            return super()._compile_Map(node)
        return V.VMap(self._vec(child), node.schema, kernel)

    def _compile_Numbering(self, node: L.Numbering) -> P.PhysicalOperator:
        return V.VNumber(self._vec(self.compile(node.child)), node.schema)

    def _compile_Sort(self, node: L.Sort) -> P.PhysicalOperator:
        child = self.compile(node.child)
        keys = [(node.child.schema.position(name), asc) for name, asc in node.keys]
        return V.VSort(self._vec(child), keys)

    def _compile_Limit(self, node: L.Limit) -> P.PhysicalOperator:
        return V.VLimit(self._vec(self.compile(node.child)), node.count)

    # -- aggregation --------------------------------------------------------

    def _vec_agg_column(
        self, spec: AggSpec, input_schema: Schema, star_names=None
    ) -> V.VAggColumn:
        if spec.arg is STAR:
            positions = input_schema.positions(star_names) if star_names else None
            return V.VAggColumn(spec, None, positions)
        kernel = compile_value(spec.arg, input_schema)
        return V.VAggColumn(spec, kernel)

    def _compile_GroupBy(self, node: L.GroupBy) -> P.PhysicalOperator:
        child = self.compile(node.child)
        try:
            columns = [
                self._vec_agg_column(spec, node.child.schema)
                for _, spec in node.aggregates
            ]
        except VectorizeError:
            return super()._compile_GroupBy(node)
        key_positions = node.child.schema.positions(node.keys)
        return V.VHashGroupBy(self._vec(child), node.schema, key_positions, columns)

    def _compile_ScalarAggregate(self, node: L.ScalarAggregate) -> P.PhysicalOperator:
        child = self.compile(node.child)
        try:
            columns = [
                self._vec_agg_column(spec, node.child.schema)
                for _, spec in node.aggregates
            ]
        except VectorizeError:
            return super()._compile_ScalarAggregate(node)
        return V.VScalarAgg(self._vec(child), node.schema, columns)

    def _compile_BinaryGroupBy(self, node: L.BinaryGroupBy) -> P.PhysicalOperator:
        """``left Γ g; t = t'; f right`` (the only form the rewriter emits)
        is the group-join of ``left`` onto Γ t'; f over ``right``, default
        row ``(NULL, f(∅))``, with the key projected away.  θ-Γ stays on
        the row implementation."""
        if node.op != "=" or node.right_key in node.left.schema:
            return super()._compile_BinaryGroupBy(node)
        try:
            column = self._vec_agg_column(node.spec, node.right.schema, node.star_names)
        except VectorizeError:
            return super()._compile_BinaryGroupBy(node)
        key = node.right.schema.position(node.right_key)
        joined = V.VGroupJoin(
            self._vec(self.compile(node.left)),
            self._vec(self.compile(node.right)),
            node.left.schema.concat(Schema([node.right.schema[key], node.schema[-1]])),
            [node.left.schema.position(node.left_key)], [key], [column],
            (None, node.spec.empty_result()), _pure([node.spec], node.right.schema),
        )
        arity = len(node.left.schema)
        return V.VProject(joined, node.schema, [*range(arity), arity + 1])

    # -- joins --------------------------------------------------------------

    def _compile_LeftOuterJoin(self, node: L.LeftOuterJoin) -> P.PhysicalOperator:
        """A ⟕ onto a Γ nothing else reads, keyed on exactly its right keys
        and with no residual, is one group-join: Γ's input is grouped, and
        looked up, in one operator.  Any other ⟕ runs the pair path."""
        grouped = node.right
        if id(node) not in self.group_joins:
            return super()._compile_LeftOuterJoin(node)
        lkeys, rkeys, residual = self._split_equi_keys(
            node.predicate, node.left.schema, grouped.schema
        )
        source = grouped.child.schema
        try:
            columns = [self._vec_agg_column(spec, source) for _, spec in grouped.aggregates]
        except VectorizeError:
            columns = None
        if residual is not None or sorted(rkeys) != [*range(len(grouped.keys))] or columns is None:
            return super()._compile_LeftOuterJoin(node)
        by_key = dict(zip(rkeys, lkeys))  # Γ's key order: the output's
        return V.VGroupJoin(
            self._vec(self.compile(node.left)),
            self._vec(self.compile(grouped.child)),
            node.schema,
            [by_key[i] for i in range(len(rkeys))],
            source.positions(grouped.keys),
            columns,
            tuple(node.defaults.get(col.name) for col in grouped.schema),
            _pure([spec for _, spec in grouped.aggregates], source),
        )

    def _compile_join_family(
        self, node, kind: str, defaults: dict | None = None
    ) -> P.PhysicalOperator:
        lkeys, rkeys, residual = self._split_equi_keys(
            node.predicate, node.left.schema, node.right.schema
        )
        combined = node.left.schema.concat(node.right.schema)
        residual_kernel = None
        if residual is not None:
            try:
                residual_kernel = compile_predicate(residual, combined)
            except VectorizeError:
                return super()._compile_join_family(node, kind, defaults)
        left = self.compile(node.left)
        right = self.compile(node.right)
        default_row = None
        if kind == "left_outer":
            default_row = tuple(
                (defaults or {}).get(col.name) for col in node.right.schema
            )
        if not lkeys:
            return V.VNLJoin(
                self._vec(left), self._vec(right), node.schema, residual_kernel, kind, default_row
            )
        return V.VHashJoin(
            self._vec(left),
            self._vec(right),
            node.schema,
            lkeys,
            rkeys,
            residual_kernel,
            kind,
            default_row,
        )

    def _compile_CrossProduct(self, node: L.CrossProduct) -> P.PhysicalOperator:
        left = self.compile(node.left)
        right = self.compile(node.right)
        return V.VNLJoin(self._vec(left), self._vec(right), node.schema, None, "inner")

    def _compile_BypassJoin(self, node: L.BypassJoin) -> P.PhysicalOperator:
        combined = node.left.schema.concat(node.right.schema)
        fused = self.fused_negative.get(id(node))
        try:
            kernel = compile_predicate(node.predicate, combined)
            negative = compile_predicate(fused, combined) if fused is not None else None
        except VectorizeError:
            return super()._compile_BypassJoin(node)
        left = self.compile(node.left)
        right = self.compile(node.right)
        return V.VBypassJoin(self._vec(left), self._vec(right), node.schema, kernel, negative)

    # -- set operations -----------------------------------------------------

    def _compile_UnionAll(self, node: L.UnionAll) -> P.PhysicalOperator:
        left = self.compile(node.left)
        right = self.compile(node.right)
        return V.VUnionAll(self._vec(left), self._vec(right))

    def _compile_Union(self, node: L.Union) -> P.PhysicalOperator:
        left = self.compile(node.left)
        right = self.compile(node.right)
        return V.VUnion(self._vec(left), self._vec(right))

    # Intersect / Difference stay row-based (inherited hooks).
