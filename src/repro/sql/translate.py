"""Canonical translation: bound SQL → algebra.

This implements the paper's starting point (§3): each query block becomes
one algebraic expression; a nested block in the WHERE clause becomes a
nested algebraic expression inside the selection subscript
(:class:`~repro.algebra.expr.ScalarSubquery` & friends).  The translation
is deliberately *naïve* — cross products for the FROM list, one selection
carrying the whole WHERE — because join ordering, pushdown and unnesting
are optimizer passes.

Name resolution
---------------
Each table instance receives a fresh qualifier ``q0, q1, …``; its columns
are renamed ``q{n}.column``, making attribute names globally unique
across all blocks (the property every later pass relies on).  A name is
resolved in the innermost block first and then outward — an outward hit
is a *correlation*, visible to the algebra as a free attribute of the
inner plan.  Per the paper's stated limitation, correlation may only
reach the directly enclosing block; we verify this and reject deeper
references.

Each block additionally receives a block qualifier ``b{n}`` used to name
aggregate outputs (``b1.agg0``), keeping those unique too.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra import expr as E
from repro.algebra import ops as L
from repro.algebra.aggregates import STAR, AggSpec
from repro.errors import BindError, TranslationError
from repro.sql import ast
from repro.storage.catalog import Catalog

AGGREGATE_NAMES = frozenset(["count", "sum", "avg", "min", "max"])


@dataclass
class TranslationResult:
    """The translated plan plus presentation metadata.

    ``plan`` produces qualified attribute names; ``output_names`` are the
    user-visible column labels, positionally matching the plan schema.
    """

    plan: L.Operator
    output_names: tuple[str, ...]


def translate(
    stmt: ast.SelectStmt,
    catalog: Catalog,
    views: dict[str, ast.SelectStmt] | None = None,
) -> TranslationResult:
    """Translate a parsed statement into its canonical algebraic form.

    ``views`` maps view names to parsed definitions; a FROM-list
    reference to a view inlines it like a derived table.
    """
    translator = _Translator(catalog, views)
    plan, output_names = translator.translate_block(stmt, parent=None, top_level=True)
    return TranslationResult(plan, tuple(output_names))


class _Counter:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def next(self, prefix: str) -> str:
        self.value += 1
        return f"{prefix}{self.value}"


class _Scope:
    """Name resolution for one query block, chained to its parent."""

    def __init__(self, parent: "_Scope | None"):
        self.parent = parent
        #: binding name (alias or table) -> (qualifier, tuple of base names)
        self.tables: dict[str, tuple[str, tuple[str, ...]]] = {}
        #: base column name -> list of qualified names (ambiguity check)
        self.columns: dict[str, list[str]] = {}
        self.order: list[str] = []  # binding names in FROM order

    def add_table(self, binding: str, qualifier: str, base_names: tuple[str, ...]):
        binding = binding.lower()
        if binding in self.tables:
            raise BindError(f"duplicate table binding {binding!r} in FROM list")
        self.tables[binding] = (qualifier, base_names)
        self.order.append(binding)
        for base in base_names:
            self.columns.setdefault(base.lower(), []).append(f"{qualifier}.{base}")

    def resolve(self, name: ast.Name) -> tuple[str, int]:
        """Resolve to a qualified attribute name.

        Returns ``(qualified_name, depth)`` where depth 0 is the current
        block and 1 the direct parent (a correlation).
        """
        scope: _Scope | None = self
        depth = 0
        while scope is not None:
            qualified = scope._resolve_local(name)
            if qualified is not None:
                return qualified, depth
            scope = scope.parent
            depth += 1
        raise BindError(f"unknown column {name.sql()!r}")

    def _resolve_local(self, name: ast.Name) -> str | None:
        if name.qualifier is not None:
            entry = self.tables.get(name.qualifier.lower())
            if entry is None:
                return None
            qualifier, base_names = entry
            for base in base_names:
                if base.lower() == name.name.lower():
                    return f"{qualifier}.{base}"
            raise BindError(
                f"table {name.qualifier!r} has no column {name.name!r}"
            )
        candidates = self.columns.get(name.name.lower(), [])
        if len(candidates) > 1:
            raise BindError(f"ambiguous column reference {name.name!r}")
        if candidates:
            return candidates[0]
        return None

    def all_columns(self, table_filter: str | None = None) -> list[tuple[str, str]]:
        """(qualified, base) pairs in FROM order, optionally one table."""
        out: list[tuple[str, str]] = []
        for binding in self.order:
            if table_filter is not None and binding != table_filter:
                continue
            qualifier, base_names = self.tables[binding]
            for base in base_names:
                out.append((f"{qualifier}.{base}", base))
        if table_filter is not None and table_filter not in self.tables:
            raise BindError(f"unknown table {table_filter!r} in star expansion")
        return out


class _Translator:
    def __init__(self, catalog: Catalog, views: dict[str, ast.SelectStmt] | None = None):
        self.catalog = catalog
        self.views = {name.lower(): stmt for name, stmt in (views or {}).items()}
        self.table_counter = _Counter()
        self.block_counter = _Counter()
        self._view_stack: list[str] = []
        #: stack of CTE layers (WITH clauses), innermost last
        self._cte_scopes: list[dict[str, ast.SelectStmt]] = []

    # -- block translation -------------------------------------------------

    def translate_block(
        self, stmt, parent: _Scope | None, top_level: bool
    ) -> tuple[L.Operator, list[str]]:
        if isinstance(stmt, ast.SetOpStmt):
            return self._translate_set_operation(stmt, parent, top_level)
        if stmt.ctes:
            layer: dict[str, ast.SelectStmt] = {}
            for cte_name, definition in stmt.ctes:
                key = cte_name.lower()
                if key in layer:
                    raise TranslationError(f"duplicate CTE name {cte_name!r}")
                layer[key] = definition
            self._cte_scopes.append(layer)
            try:
                return self._translate_block_body(stmt, parent, top_level)
            finally:
                self._cte_scopes.pop()
        return self._translate_block_body(stmt, parent, top_level)

    def _translate_set_operation(
        self, stmt: ast.SetOpStmt, parent: _Scope | None, top_level: bool
    ) -> tuple[L.Operator, list[str]]:
        """UNION [ALL] / INTERSECT / EXCEPT of two blocks.

        Columns align positionally (SQL); output labels come from the
        left operand.  Correlation into set-operation operands is not
        supported (``parent`` is not forwarded), matching standard SQL
        derived-table scoping.
        """
        left_plan, left_names = self.translate_block(stmt.left, None, False)
        right_plan, right_names = self.translate_block(stmt.right, None, False)
        if len(left_plan.schema) != len(right_plan.schema):
            raise TranslationError(
                f"set operation arity mismatch: {len(left_plan.schema)} vs "
                f"{len(right_plan.schema)} columns"
            )
        # Align the right side's attribute names with the left's so the
        # combined plan has one consistent schema.
        mapping = {
            old: new
            for old, new in zip(right_plan.schema.names, left_plan.schema.names)
            if old != new
        }
        if mapping:
            right_plan = L.Rename(right_plan, mapping)
        if stmt.op == "union":
            node = L.UnionAll(left_plan, right_plan) if stmt.all else L.Union(left_plan, right_plan)
        elif stmt.op == "intersect":
            node = L.Intersect(left_plan, right_plan)
        else:
            node = L.Difference(left_plan, right_plan)
        return node, list(left_names)

    def _lookup_named_query(self, name: str):
        """Resolve a FROM name against CTEs (innermost first), then views."""
        key = name.lower()
        for layer in reversed(self._cte_scopes):
            if key in layer:
                return layer[key], f"cte:{key}"
        if key in self.views:
            return self.views[key], key
        return None

    def _translate_block_body(
        self, stmt: ast.SelectStmt, parent: _Scope | None, top_level: bool
    ) -> tuple[L.Operator, list[str]]:
        scope = _Scope(parent)
        block_id = self.block_counter.next("b")

        # FROM: scans (or derived tables) with fresh qualifiers, combined
        # by cross products.
        plan: L.Operator | None = None
        for ref in stmt.tables:
            qualifier = self.table_counter.next("q")
            view_name = None
            block = ref.subquery
            if block is None:
                named = self._lookup_named_query(ref.table)
                if named is not None:
                    # Inline the CTE/view like a derived table aliased to
                    # the binding name; cyclic definitions are rejected.
                    block, view_name = named
                    if view_name in self._view_stack:
                        raise TranslationError(
                            f"cyclic view reference through {view_name!r}"
                        )
            if block is not None:
                # Derived table / view: translate the block (no
                # correlation into the enclosing FROM list — standard
                # SQL, no LATERAL) and re-qualify its output columns
                # under the alias.
                if view_name is not None:
                    self._view_stack.append(view_name)
                try:
                    sub_plan, sub_names = self.translate_block(
                        block, parent=None, top_level=False
                    )
                finally:
                    if view_name is not None:
                        self._view_stack.pop()
                mapping = {
                    old: f"{qualifier}.{new}"
                    for old, new in zip(sub_plan.schema.names, sub_names)
                }
                source: L.Operator = L.Rename(sub_plan, mapping)
                base_names = tuple(sub_names)
            else:
                table = self.catalog.table(ref.table)
                source = L.Scan(ref.table, table.schema.qualify(qualifier), qualifier)
                base_names = table.schema.names
            scope.add_table(ref.binding_name, qualifier, base_names)
            plan = source if plan is None else L.CrossProduct(plan, source)
        if plan is None:
            raise TranslationError("FROM list must not be empty")

        # WHERE: a single selection with (possibly nested) predicate.
        if stmt.where is not None:
            predicate = self.translate_expr(stmt.where, scope)
            plan = L.Select(plan, predicate)

        if self._is_aggregate_block(stmt):
            return self._translate_aggregate_block(stmt, scope, plan, block_id)

        if stmt.group_by or stmt.having is not None:
            raise TranslationError("GROUP BY/HAVING require aggregates in the select list")

        return self._translate_plain_block(stmt, scope, plan, block_id, top_level)

    def _is_aggregate_block(self, stmt: ast.SelectStmt) -> bool:
        if stmt.group_by:
            return True
        for item in stmt.items:
            if isinstance(item.expr, ast.FuncCall) and item.expr.name in AGGREGATE_NAMES:
                return True
        return False

    # -- plain (non-aggregate) blocks ----------------------------------------------

    def _translate_plain_block(
        self,
        stmt: ast.SelectStmt,
        scope: _Scope,
        plan: L.Operator,
        block_id: str,
        top_level: bool,
    ) -> tuple[L.Operator, list[str]]:
        # Expand the select list into (qualified source attr, output name).
        source_names: list[str] = []
        output_names: list[str] = []
        expr_index = 0
        for item in stmt.items:
            if isinstance(item.expr, ast.Star):
                for qualified, base in scope.all_columns(item.expr.qualifier):
                    source_names.append(qualified)
                    output_names.append(base)
                continue
            if isinstance(item.expr, ast.Name):
                qualified, depth = scope.resolve(item.expr)
                if depth > 0:
                    raise TranslationError(
                        "correlated column in select list is not supported"
                    )
                source_names.append(qualified)
                # Use the catalog's original casing, not the lexer's fold.
                output_names.append(item.alias or qualified.rsplit(".", 1)[-1])
                continue
            # Computed item: materialise via a map operator.
            expr_index += 1
            computed_name = f"{block_id}.expr{expr_index}"
            expression = self.translate_expr(item.expr, scope)
            plan = L.Map(plan, computed_name, expression)
            source_names.append(computed_name)
            output_names.append(item.alias or f"expr{expr_index}")

        # ORDER BY runs on qualified names before the final projection.
        if stmt.order_by:
            keys = []
            for order_item in stmt.order_by:
                keys.append((self._resolve_order_key(order_item.expr, stmt, scope, source_names, output_names), order_item.ascending))
            plan = L.Sort(plan, keys)

        plan = L.Project(plan, source_names)
        if stmt.distinct:
            plan = L.Distinct(plan)
        if stmt.limit is not None:
            plan = L.Limit(plan, stmt.limit)
        return plan, _dedupe(output_names)

    def _resolve_order_key(
        self,
        expr: ast.Node,
        stmt: ast.SelectStmt,
        scope: _Scope,
        source_names: list[str],
        output_names: list[str],
    ) -> str:
        if not isinstance(expr, ast.Name):
            raise TranslationError("ORDER BY supports plain column references only")
        if expr.qualifier is None:
            # Select-list aliases take precedence (SQL output-name scope).
            for source, output in zip(source_names, output_names):
                if output == expr.name:
                    return source
        qualified, depth = scope.resolve(expr)
        if depth > 0:
            raise TranslationError("ORDER BY cannot reference outer blocks")
        return qualified

    # -- aggregate blocks -------------------------------------------------------

    def _translate_aggregate_block(
        self,
        stmt: ast.SelectStmt,
        scope: _Scope,
        plan: L.Operator,
        block_id: str,
    ) -> tuple[L.Operator, list[str]]:
        if stmt.distinct:
            raise TranslationError("DISTINCT on an aggregate block is not supported")

        group_keys: list[str] = []
        for key_expr in stmt.group_by:
            if not isinstance(key_expr, ast.Name):
                raise TranslationError("GROUP BY supports plain column references only")
            qualified, depth = scope.resolve(key_expr)
            if depth > 0:
                raise TranslationError("GROUP BY cannot reference outer blocks")
            group_keys.append(qualified)

        aggregates: list[tuple[str, AggSpec]] = []
        source_names: list[str] = []
        output_names: list[str] = []
        agg_index = 0
        for item in stmt.items:
            expr = item.expr
            if isinstance(expr, ast.FuncCall) and expr.name in AGGREGATE_NAMES:
                agg_index += 1
                agg_name = f"{block_id}.agg{agg_index}"
                spec = self._translate_agg_call(expr, scope)
                aggregates.append((agg_name, spec))
                source_names.append(agg_name)
                output_names.append(item.alias or expr.name)
                continue
            if isinstance(expr, ast.Name):
                qualified, depth = scope.resolve(expr)
                if depth > 0:
                    raise TranslationError("correlated column in select list is not supported")
                if qualified not in group_keys:
                    raise TranslationError(
                        f"non-aggregated column {expr.sql()!r} must appear in GROUP BY"
                    )
                source_names.append(qualified)
                output_names.append(item.alias or qualified.rsplit(".", 1)[-1])
                continue
            raise TranslationError(
                "aggregate blocks support aggregate calls and grouped columns only"
            )

        if group_keys:
            plan = L.GroupBy(plan, group_keys, aggregates)
            if stmt.having is not None:
                having = self.translate_expr(stmt.having, scope)
                # HAVING may reference aggregate outputs by position name;
                # only plain predicates over group keys are supported here.
                plan = L.Select(plan, having)
        else:
            if stmt.having is not None:
                raise TranslationError("HAVING without GROUP BY is not supported")
            plan = L.ScalarAggregate(plan, aggregates)

        plan = L.Project(plan, source_names)
        if stmt.order_by:
            keys = []
            for order_item in stmt.order_by:
                keys.append(
                    (
                        self._resolve_aggregate_order_key(
                            order_item.expr, scope, source_names, output_names
                        ),
                        order_item.ascending,
                    )
                )
            plan = L.Sort(plan, keys)
        if stmt.limit is not None:
            plan = L.Limit(plan, stmt.limit)
        return plan, _dedupe(output_names)

    def _resolve_aggregate_order_key(
        self,
        expr: ast.Node,
        scope: _Scope,
        source_names: list[str],
        output_names: list[str],
    ) -> str:
        """ORDER BY on an aggregate block: aliases or grouped columns only."""
        if not isinstance(expr, ast.Name):
            raise TranslationError("ORDER BY supports plain column references only")
        if expr.qualifier is None:
            for source, output in zip(source_names, output_names):
                if output.lower() == expr.name.lower():
                    return source
        qualified, depth = scope.resolve(expr)
        if depth > 0 or qualified not in source_names:
            raise TranslationError(
                f"ORDER BY column {expr.sql()!r} must be a grouped column or "
                "an aggregate alias"
            )
        return qualified

    def _translate_agg_call(self, call: ast.FuncCall, scope: _Scope) -> AggSpec:
        if len(call.args) == 1 and isinstance(call.args[0], ast.Star):
            if call.name != "count":
                raise TranslationError(
                    f"{call.name.upper()}(*) is not valid SQL; only COUNT takes '*'"
                )
            return AggSpec(call.name, STAR, call.distinct)
        if len(call.args) != 1:
            raise TranslationError(f"{call.name.upper()} takes exactly one argument")
        if isinstance(call.args[0], ast.FuncCall) and call.args[0].name in AGGREGATE_NAMES:
            raise TranslationError("nested aggregate calls are not allowed")
        arg = self.translate_expr(call.args[0], scope)
        return AggSpec(call.name, arg, call.distinct)

    # -- expressions --------------------------------------------------------------

    def translate_expr(self, node: ast.Node, scope: _Scope) -> E.Expr:
        method = getattr(self, "_expr_" + type(node).__name__, None)
        if method is None:
            raise TranslationError(f"unsupported expression {type(node).__name__}")
        return method(node, scope)

    def _expr_Constant(self, node: ast.Constant, scope: _Scope) -> E.Expr:
        return E.Literal(node.value)

    def _expr_Parameter(self, node: ast.Parameter, scope: _Scope) -> E.Expr:
        return E.Parameter(node.key)

    def _expr_Name(self, node: ast.Name, scope: _Scope) -> E.Expr:
        # depth 0: local; depth 1: direct correlation; depth > 1: indirect
        # correlation.  The paper's unnesting equivalences are limited to
        # direct correlation (§1, Limitations) — the rewriter leaves
        # indirectly correlated blocks nested, and the engine evaluates
        # them through its chained environments.
        qualified, _depth = scope.resolve(node)
        return E.ColumnRef(qualified)

    def _expr_BinaryOp(self, node: ast.BinaryOp, scope: _Scope) -> E.Expr:
        left = self.translate_expr(node.left, scope)
        right = self.translate_expr(node.right, scope)
        if node.op in E.COMPARISON_OPS:
            return E.Comparison(node.op, left, right)
        return E.Arithmetic(node.op, left, right)

    def _expr_UnaryOp(self, node: ast.UnaryOp, scope: _Scope) -> E.Expr:
        operand = self.translate_expr(node.operand, scope)
        if node.op == "not":
            return E.Not(operand)
        return E.Negate(operand)

    def _expr_BoolOp(self, node: ast.BoolOp, scope: _Scope) -> E.Expr:
        items = [self.translate_expr(item, scope) for item in node.items]
        if node.op == "and":
            return E.conjunction(items)
        return E.disjunction(items)

    def _expr_LikeOp(self, node: ast.LikeOp, scope: _Scope) -> E.Expr:
        operand = self.translate_expr(node.operand, scope)
        return E.Like(operand, node.pattern, node.negated)

    def _expr_IsNullOp(self, node: ast.IsNullOp, scope: _Scope) -> E.Expr:
        return E.IsNull(self.translate_expr(node.operand, scope), node.negated)

    def _expr_InListOp(self, node: ast.InListOp, scope: _Scope) -> E.Expr:
        operand = self.translate_expr(node.operand, scope)
        items = tuple(self.translate_expr(item, scope) for item in node.items)
        return E.InList(operand, items, node.negated)

    def _expr_BetweenOp(self, node: ast.BetweenOp, scope: _Scope) -> E.Expr:
        operand = self.translate_expr(node.operand, scope)
        low = self.translate_expr(node.low, scope)
        high = self.translate_expr(node.high, scope)
        between = E.conjunction(
            [E.Comparison(">=", operand, low), E.Comparison("<=", operand, high)]
        )
        if node.negated:
            return E.Not(between)
        return between

    def _expr_CaseExpr(self, node: ast.CaseExpr, scope: _Scope) -> E.Expr:
        branches = tuple(
            (self.translate_expr(cond, scope), self.translate_expr(value, scope))
            for cond, value in node.branches
        )
        default = (
            self.translate_expr(node.default, scope)
            if node.default is not None
            else E.Literal(None)
        )
        return E.Case(branches, default)

    def _expr_FuncCall(self, node: ast.FuncCall, scope: _Scope) -> E.Expr:
        if node.name in AGGREGATE_NAMES:
            raise TranslationError(
                f"aggregate {node.name.upper()} outside an aggregate select list"
            )
        args = tuple(self.translate_expr(arg, scope) for arg in node.args)
        return E.FunctionCall(node.name, args)

    # -- subqueries -------------------------------------------------------------------

    def _scalar_subplan(self, stmt: ast.SelectStmt, scope: _Scope) -> L.Operator:
        """Translate a block that must yield a single column."""
        plan, output_names = self.translate_block(stmt, parent=scope, top_level=False)
        if len(plan.schema) != 1:
            raise TranslationError(
                f"subquery must return exactly one column, got {len(plan.schema)}"
            )
        return plan

    def _expr_Subquery(self, node: ast.Subquery, scope: _Scope) -> E.Expr:
        return E.ScalarSubquery(self._scalar_subplan(node.query, scope))

    def _expr_ExistsOp(self, node: ast.ExistsOp, scope: _Scope) -> E.Expr:
        plan, _ = self.translate_block(node.query, parent=scope, top_level=False)
        return E.Exists(plan, node.negated)

    def _expr_InSubqueryOp(self, node: ast.InSubqueryOp, scope: _Scope) -> E.Expr:
        operand = self.translate_expr(node.operand, scope)
        plan = self._scalar_subplan(node.query, scope)
        return E.InSubquery(operand, plan, node.negated)

    def _expr_QuantifiedOp(self, node: ast.QuantifiedOp, scope: _Scope) -> E.Expr:
        operand = self.translate_expr(node.operand, scope)
        plan = self._scalar_subplan(node.query, scope)
        return E.QuantifiedComparison(operand, node.op, node.quantifier, plan)


def _dedupe(names: list[str]) -> list[str]:
    """Make output labels unique by suffixing duplicates (``name_2``)."""
    seen: dict[str, int] = {}
    out: list[str] = []
    for name in names:
        count = seen.get(name, 0) + 1
        seen[name] = count
        out.append(name if count == 1 else f"{name}_{count}")
    return out
