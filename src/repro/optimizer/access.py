"""Access-path selection: predicate/projection pushdown into scans.

This pass runs after join reordering on every planned alternative
(canonical and unnested alike).  It walks the plan DAG — including the
plans nested inside subquery expressions — and rewrites ``Select(Scan)``
into :class:`~repro.algebra.ops.IndexScan` when one conjunct is an
indexable comparison ``col op expr`` with ``col`` a column of the
scanned table and ``expr`` free of that table's attributes (a literal, a
parameter, or a *correlation* attribute — the equality-correlation hot
path of Eqv. 1 and Eqv. 4).  Every remaining conjunct is pushed along as
the scan's residual predicate, and the column requirements collected
from enclosing Project/GroupBy nodes narrow the scan's output schema.
An equi-join onto an indexed table stays a hash join.

The pass is **identity-preserving by construction**: when no referenced
table carries an index the input plan object is returned unchanged, so
plans (and their golden explain signatures) are byte-identical to the
seed planner's output unless the user actually created indexes.
"""

from __future__ import annotations

from repro.algebra import expr as E
from repro.algebra import ops as L
from repro.algebra.aggregates import STAR
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
    if not catalog.index_names() or not _plan_touches_indexes(plan, catalog):
        return plan
    return _Rewriter(catalog).rewrite(plan)


def _plan_touches_indexes(plan: L.Operator, catalog: Catalog) -> bool:
    return any(
        isinstance(node, L.Scan) and catalog.indexes_on(node.table_name)
        for node in plan.iter_dag(nested=True)
    )


class _Rewriter:
    """One rewrite walk; memoised so DAG sharing (bypass taps) survives."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._memo: dict[tuple[int, frozenset[str] | None], L.Operator] = {}

    # -- driver ------------------------------------------------------------

    def rewrite(self, node: L.Operator, required: frozenset[str] | None = None) -> L.Operator:
        """``required`` names the columns the parent consumes (None: all)."""
        key = (id(node), required)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if isinstance(node, L.Select):
            result = self._rewrite_select(node, required)
        elif isinstance(node, L.Project):
            result = self._rewrite_generic(node, frozenset(node.names))
        elif isinstance(node, (L.GroupBy, L.ScalarAggregate)):
            result = self._rewrite_generic(node, self._aggregate_required(node))
        else:
            result = self._rewrite_generic(node)
        self._memo[key] = result
        return result

    def _rewrite_generic(self, node: L.Operator, consumed: frozenset[str] | None = None):
        """Rewrite below a node that consumes only ``consumed`` of its input."""
        rebuilt = node.map_children(lambda child: self.rewrite(child, consumed))
        return rebuilt.map_subplans(self.rewrite)

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

    # -- Select(Scan) → IndexScan -----------------------------------------

    def _rewrite_select(self, node: L.Select, required: frozenset[str] | None) -> L.Operator:
        child = node.child
        if type(child) is L.Scan and child.table_name in self.catalog:
            predicate = node.predicate.map_subplans(self.rewrite)
            index_scan = self._try_index_scan(child, predicate, required)
            if index_scan is not None:
                return index_scan
        return self._rewrite_generic(node)

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
