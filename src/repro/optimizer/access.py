"""Access-path selection: predicate/projection pushdown into scans.

This pass runs after join reordering on every planned alternative
(canonical and unnested alike).  It walks the plan DAG — including the
plans nested inside subquery expressions — and rewrites

* ``Select(Scan)`` into :class:`~repro.algebra.ops.IndexScan` when one
  conjunct is an indexable comparison ``col op expr`` with ``col`` a
  column of the scanned table and ``expr`` free of that table's
  attributes (a literal, a parameter, or a *correlation* attribute — the
  equality-correlation hot path of Eqv. 1 and Eqv. 4).  Every remaining
  conjunct is pushed along as the scan's residual predicate, and the
  column requirements collected from enclosing Project/GroupBy nodes
  narrow the scan's output schema;
* ``Join(left, Scan)`` into :class:`~repro.algebra.ops.IndexNLJoin`
  when the right table has a hash index on an equi-join key and probing
  per left row is estimated cheaper than building a fresh hash table.

The pass is **identity-preserving by construction**: when no referenced
table carries an index the input plan object is returned unchanged, so
plans (and their golden explain signatures) are byte-identical to the
seed planner's output unless the user actually created indexes.
"""

from __future__ import annotations

from dataclasses import replace as dataclass_replace

from repro.algebra import expr as E
from repro.algebra import ops as L
from repro.algebra.aggregates import STAR
from repro.optimizer.cardinality import CardinalityModel
from repro.optimizer.cost import C_HASH_BUILD, C_HASH_PROBE, C_PRED
from repro.storage.catalog import Catalog

#: Comparison operators an index can serve, by index kind.
_HASH_OPS = ("=",)
_SORTED_OPS = ("=", "<", "<=", ">", ">=")

#: Preference order for candidate key predicates: selective equality on a
#: hash index beats equality on a sorted index beats a range probe.
_SCORE_HASH_EQ = 0
_SCORE_SORTED_EQ = 1
_SCORE_SORTED_RANGE = 2

_RANGE_MIRROR = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def choose_access_paths(plan: L.Operator, catalog: Catalog) -> L.Operator:
    """Rewrite ``plan`` to use index access paths where profitable.

    Returns the *same object* when nothing applies (in particular when no
    table referenced by the plan has any index).
    """
    if not _plan_touches_indexes(plan, catalog):
        return plan
    cards = CardinalityModel(catalog)
    cards._harvest_stats(plan)
    return _Rewriter(catalog, cards).rewrite(plan, None)


def _plan_touches_indexes(plan: L.Operator, catalog: Catalog) -> bool:
    stack = [plan]
    seen: set[int] = set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, L.Scan) and catalog.indexes_on(node.table_name):
            return True
        stack.extend(node.children())
        stack.extend(node.subquery_plans())
    return False


class _Rewriter:
    """One rewrite walk; memoised so DAG sharing (bypass taps) survives."""

    def __init__(self, catalog: Catalog, cards: CardinalityModel):
        self.catalog = catalog
        self.cards = cards
        self._memo: dict[tuple[int, frozenset[str] | None], L.Operator] = {}

    # -- driver ------------------------------------------------------------

    def rewrite(self, node: L.Operator, required: frozenset[str] | None) -> L.Operator:
        key = (id(node), required)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        result = self._rewrite(node, required)
        self._memo[key] = result
        return result

    def _rewrite(self, node: L.Operator, required: frozenset[str] | None) -> L.Operator:
        if isinstance(node, L.StreamTap):
            bypass = self.rewrite(node.child, None)
            if bypass is node.child:
                return node
            return bypass.positive if node.positive_stream else bypass.negative
        if isinstance(node, L.Select):
            return self._rewrite_select(node, required)
        if type(node) is L.Join:
            return self._rewrite_join(node)
        if isinstance(node, L.Project):
            child = self.rewrite(node.child, frozenset(node.names))
            if child is node.child:
                return node
            return L.Project(child, node.names)
        if isinstance(node, (L.GroupBy, L.ScalarAggregate)):
            return self._rewrite_aggregate(node)
        return self._rewrite_generic(node)

    # -- generic rebuilds --------------------------------------------------

    def _rewrite_generic(self, node: L.Operator) -> L.Operator:
        children = node.children()
        new_children = [self.rewrite(child, None) for child in children]
        if any(new is not old for new, old in zip(new_children, children)):
            node = node.replace_children(new_children)
        return self._rewrite_node_exprs(node)

    def _rewrite_aggregate(self, node: L.Operator) -> L.Operator:
        required = self._aggregate_required(node)
        child = self.rewrite(node.children()[0], required)
        if child is node.children()[0]:
            return node
        return node.replace_children([child])

    @staticmethod
    def _aggregate_required(node: L.Operator) -> frozenset[str] | None:
        needed: set[str] = set(getattr(node, "keys", ()))
        for spec in node.agg_specs():
            if spec.arg is STAR:
                # COUNT(*) / COUNT(DISTINCT *) consume whole tuples — the
                # child may not be narrowed.
                return None
            needed.update(spec.free_attrs())
        return frozenset(needed)

    # -- subquery plans ----------------------------------------------------

    def _rewrite_node_exprs(self, node: L.Operator) -> L.Operator:
        """Rewrite plans nested in subquery expressions of the subscript."""
        if isinstance(node, (L.Select, L.BypassSelect)):
            predicate = self._rewrite_expr(node.predicate)
            if predicate is not node.predicate:
                return type(node)(node.child, predicate)
        elif isinstance(node, L.Map):
            expression = self._rewrite_expr(node.expression)
            if expression is not node.expression:
                return L.Map(node.child, node.name, expression)
        elif type(node) in (L.Join, L.LeftOuterJoin, L.SemiJoin, L.AntiJoin, L.BypassJoin):
            predicate = self._rewrite_expr(node.predicate)
            if predicate is not node.predicate:
                if type(node) is L.LeftOuterJoin:
                    return L.LeftOuterJoin(node.left, node.right, predicate, node.defaults)
                return type(node)(node.left, node.right, predicate)
        return node

    def _rewrite_expr(self, expression: E.Expr) -> E.Expr:
        rewritten = expression
        if isinstance(expression, E.SubqueryExpr):
            plan = self.rewrite(expression.plan, None)
            if plan is not expression.plan:
                rewritten = dataclass_replace(rewritten, plan=plan)
        children = rewritten.children()
        if children:
            new_children = [self._rewrite_expr(child) for child in children]
            if any(new is not old for new, old in zip(new_children, children)):
                rewritten = rewritten.replace_children(tuple(new_children))
        return rewritten

    # -- Select(Scan) → IndexScan -----------------------------------------

    def _rewrite_select(self, node: L.Select, required: frozenset[str] | None) -> L.Operator:
        predicate = self._rewrite_expr(node.predicate)
        child = node.child
        if type(child) is L.Scan and child.table_name in self.catalog:
            index_scan = self._try_index_scan(child, predicate, required)
            if index_scan is not None:
                return index_scan
        new_child = self.rewrite(child, None)
        if new_child is child and predicate is node.predicate:
            return node
        return L.Select(new_child, predicate)

    def _try_index_scan(
        self,
        scan: L.Scan,
        predicate: E.Expr,
        required: frozenset[str] | None,
    ) -> L.IndexScan | None:
        indexes = self.catalog.indexes_on(scan.table_name)
        if not indexes:
            return None
        scan_attrs = frozenset(scan.schema.names)
        base_names = self.catalog.table(scan.table_name).schema.names
        by_base = {base: position for position, base in enumerate(base_names)}
        conjunct_list = E.conjuncts(predicate)

        best = None
        for position, conjunct in enumerate(conjunct_list):
            candidate = self._key_candidate(conjunct, scan_attrs)
            if candidate is None:
                continue
            op, key_attr, bound_expr = candidate
            base_column = base_names[scan.schema.position(key_attr)]
            for index in indexes:
                allowed = _HASH_OPS if index.kind == "hash" else _SORTED_OPS
                if index.column != base_column or op not in allowed:
                    continue
                if op == "=":
                    score = _SCORE_HASH_EQ if index.kind == "hash" else _SCORE_SORTED_EQ
                else:
                    score = _SCORE_SORTED_RANGE
                if best is None or score < best[0]:
                    best = (score, position, index, op, key_attr, bound_expr)
        if best is None:
            return None
        _, chosen, index, op, key_attr, bound_expr = best

        bounds = [(op, bound_expr)]
        residual_list = [c for i, c in enumerate(conjunct_list) if i != chosen]
        if op in _RANGE_MIRROR:
            # Merge a complementary bound on the same key (the shape a SQL
            # BETWEEN lowers to) so the probe bisects both ends of the range.
            wanted_direction = "<" if op.startswith(">") else ">"
            for position, conjunct in enumerate(residual_list):
                candidate = self._key_candidate(conjunct, scan_attrs)
                if candidate is None or candidate[1] != key_attr:
                    continue
                if candidate[0].startswith(wanted_direction):
                    bounds.append((candidate[0], candidate[2]))
                    del residual_list[position]
                    break

        residual = E.conjunction(residual_list) if residual_list else None
        if residual == E.TRUE:
            residual = None

        projection = None
        schema = scan.schema
        if required is not None:
            needed = set(required) & scan_attrs
            needed.add(key_attr)  # keep key stats and explain output honest
            if residual is not None:
                needed.update(residual.free_attrs() & scan_attrs)
            positions = [
                position
                for position, name in enumerate(scan.schema.names)
                if name in needed
            ]
            if positions and len(positions) < len(scan.schema.names):
                projection = tuple(positions)
                schema = scan.schema.project(
                    [scan.schema.names[position] for position in positions]
                )

        return L.IndexScan(
            scan.table_name,
            schema,
            scan.qualifier,
            index.name,
            index.kind,
            key_attr,
            tuple(bounds),
            residual,
            projection,
            tuple(scan.schema.names),
        )

    @staticmethod
    def _key_candidate(
        conjunct: E.Expr, scan_attrs: frozenset[str]
    ) -> tuple[str, str, E.Expr] | None:
        """Normalise ``conjunct`` to ``(op, key_attr, bound_expr)``.

        The key must be a bare column of this scan; the bound side must
        reference none of the scan's attributes (so it is evaluable from
        the environment before touching any row) and carry no subquery.
        """
        if not isinstance(conjunct, E.Comparison) or conjunct.op == "<>":
            return None
        for oriented in (conjunct, conjunct.mirrored()):
            left, right = oriented.left, oriented.right
            if not isinstance(left, E.ColumnRef) or left.name not in scan_attrs:
                continue
            if right.contains_subquery() or (right.free_attrs() & scan_attrs):
                continue
            return oriented.op, left.name, right
        return None

    # -- Join(left, Scan) → IndexNLJoin ------------------------------------

    def _rewrite_join(self, node: L.Join) -> L.Operator:
        predicate = self._rewrite_expr(node.predicate)
        left = self.rewrite(node.left, None)
        right = node.right
        if type(right) is L.Scan and right.table_name in self.catalog:
            probe = self._try_index_nl_join(node, left, right, predicate)
            if probe is not None:
                return probe
        new_right = self.rewrite(right, None)
        if left is node.left and new_right is right and predicate is node.predicate:
            return node
        return L.Join(left, new_right, predicate)

    def _try_index_nl_join(
        self,
        original: L.Join,
        left: L.Operator,
        right: L.Scan,
        predicate: E.Expr,
    ) -> L.IndexNLJoin | None:
        left_attrs = frozenset(original.left.schema.names)
        right_attrs = frozenset(right.schema.names)
        base_names = self.catalog.table(right.table_name).schema.names
        hash_columns = {
            index.column: index
            for index in self.catalog.indexes_on(right.table_name)
            if index.kind == "hash"
        }
        if not hash_columns:
            return None

        conjunct_list = E.conjuncts(predicate)
        for position, conjunct in enumerate(conjunct_list):
            if not (isinstance(conjunct, E.Comparison) and conjunct.op == "="):
                continue
            for oriented in (conjunct, conjunct.mirrored()):
                lexpr, rexpr = oriented.left, oriented.right
                if not (isinstance(lexpr, E.ColumnRef) and isinstance(rexpr, E.ColumnRef)):
                    continue
                if lexpr.name not in left_attrs or rexpr.name not in right_attrs:
                    continue
                base_column = base_names[right.schema.position(rexpr.name)]
                index = hash_columns.get(base_column)
                if index is None:
                    continue
                if not self._probe_beats_hash_join(original, right, rexpr.name):
                    return None
                residual_list = [c for i, c in enumerate(conjunct_list) if i != position]
                residual = E.conjunction(residual_list) if residual_list else None
                if residual == E.TRUE:
                    residual = None
                return L.IndexNLJoin(
                    left,
                    right,
                    predicate,
                    index.name,
                    index.kind,
                    lexpr.name,
                    rexpr.name,
                    residual,
                )
        return None

    def _probe_beats_hash_join(
        self, original: L.Join, right: L.Scan, right_key: str
    ) -> bool:
        left_rows = max(self.cards._card(original.left), 1.0)
        right_rows = max(self.cards._card(right), 1.0)
        distinct = self.cards.distinct_of(right_key) or 10.0
        matches_per_probe = max(right_rows / distinct, 1.0)
        hash_join = right_rows * C_PRED + C_HASH_BUILD * right_rows + C_HASH_PROBE * left_rows
        index_probe = left_rows * (C_HASH_PROBE + C_PRED * matches_per_probe)
        return index_probe < hash_join
