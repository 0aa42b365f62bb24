"""A cost model over logical plans.

Costs are abstract "tuple-touch" units.  The model knows four things the
paper's argument rests on:

1. a selection whose predicate embeds a *correlated* subquery pays the
   subquery's full cost **once per input row** (nested-loop evaluation);
   an uncorrelated subquery is paid once;
2. hash-based operators (join, grouping) are linear in their inputs;
3. bypass streams are produced once even though two consumers read them
   (the DAG is evaluated with memoisation);
4. every operator evaluation pays a fixed start-up, ``C_OP`` (binding,
   ``PhysicalOperator.invoke``, per-batch setup), so a correlated
   subquery's inner plan pays its operator count × ``C_OP`` per outer row.

``auto`` strategy = translate both alternatives, cost them, keep the
cheaper; this is exactly the cost-based application of the equivalences
that the paper advocates.
"""

from __future__ import annotations

from repro.algebra import expr as E
from repro.algebra import ops as L
from repro.optimizer.cardinality import CardinalityModel
from repro.storage.catalog import Catalog

# Per-tuple cost constants (abstract units).
C_SCAN = 1.0
C_PRED = 0.2
C_HASH_BUILD = 1.5
C_HASH_PROBE = 1.0
C_NL_PAIR = 0.6
C_GROUP = 2.0
C_SORT_FACTOR = 2.0
C_MATERIALISE = 0.5
# Per operator evaluation, in the same units: a least-squares fit of the
# batch engine's times of both alternatives of every adhoc_cold text
# (tools/plan_regret.py; five runs read 70-100, EXPERIMENTS.md "Operator
# start-up").
C_OP = 80.0


class CostModel:
    """Estimates the total evaluation cost of a logical plan DAG."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self.cards = CardinalityModel(catalog)
        self._memo: dict[int, float] = {}

    def cost(self, plan: L.Operator) -> float:
        self.cards._harvest_stats(plan)
        return self._cost(plan)

    # -- helpers ---------------------------------------------------------------

    def _card(self, node: L.Operator) -> float:
        return max(self.cards._card(node), 1.0)

    def _cost(self, node: L.Operator) -> float:
        cached = self._memo.get(id(node))
        if cached is not None:
            return 0.0  # shared DAG node: already paid for
        value = C_OP + self._cost_uncached(node)
        self._memo[id(node)] = value
        return value

    def _predicate_cost(self, predicate: E.Expr, rows: float) -> float:
        """Per-row predicate cost × rows, charging nested subqueries."""
        base = C_PRED * rows
        for sub in _subquery_exprs(predicate):
            inner = CostModel(self.catalog)
            inner_cost = inner.cost(sub.plan)
            if sub.plan.free_attrs():
                base += inner_cost * rows  # correlated: once per row
            else:
                base += inner_cost  # uncorrelated: evaluated once, cached
        return base

    def _index_scan_cost(self, node: L.IndexScan) -> float:
        """One probe plus per-match work; residual subqueries are charged
        only on the rows that survive the key predicate — this is exactly
        why pushing a selective equality into the scan pays off."""
        matched = self._card(node)
        cost = C_HASH_PROBE + C_PRED * matched
        if node.residual is not None:
            cost += self._predicate_cost(node.residual, matched)
        return cost

    # -- operator costs ------------------------------------------------------------

    def _cost_uncached(self, node: L.Operator) -> float:
        if isinstance(node, L.IndexScan):
            return self._index_scan_cost(node)

        if isinstance(node, L.Scan):
            return C_SCAN * self._card(node)

        if isinstance(node, L.Select):
            rows = self._card(node.child)
            return self._cost(node.child) + self._predicate_cost(node.predicate, rows)

        if isinstance(node, L.BypassSelect):
            rows = self._card(node.child)
            return self._cost(node.child) + self._predicate_cost(node.predicate, rows)

        if isinstance(node, L.StreamTap):
            return self._cost(node.child)

        if isinstance(node, (L.Project, L.Rename, L.Map, L.Numbering, L.Limit)):
            child_cost = self._cost(node.child)
            own = C_MATERIALISE * self._card(node.child)
            if isinstance(node, L.Map):
                own += self._predicate_cost(node.expression, self._card(node.child))
            return child_cost + own

        if isinstance(node, L.Distinct):
            return self._cost(node.child) + C_HASH_BUILD * self._card(node.child)

        if isinstance(node, L.Sort):
            rows = self._card(node.child)
            return self._cost(node.child) + C_SORT_FACTOR * rows * _log2(rows)

        if isinstance(node, L.IndexNLJoin):
            left = self._card(node.left)
            output = self._card(node)
            # The right scan is never evaluated in full — each left row
            # probes the index — so the right child's scan cost is not
            # charged, only the probes and the residual on matched pairs.
            base = self._cost(node.left) + C_HASH_BUILD
            residual = node.residual if node.residual is not None else E.TRUE
            return base + C_HASH_PROBE * left + self._predicate_cost(residual, output)

        if isinstance(node, (L.Join, L.LeftOuterJoin, L.SemiJoin, L.AntiJoin)):
            left = self._card(node.left)
            right = self._card(node.right)
            base = self._cost(node.left) + self._cost(node.right)
            keys, _ = E.equi_keys(node.predicate, node.left.schema, node.right.schema)
            if keys:
                return base + C_HASH_BUILD * right + C_HASH_PROBE * left
            return base + C_NL_PAIR * left * right

        if isinstance(node, L.CrossProduct):
            return (
                self._cost(node.left)
                + self._cost(node.right)
                + C_NL_PAIR * self._card(node.left) * self._card(node.right)
            )

        if isinstance(node, L.BypassJoin):
            left = self._card(node.left)
            right = self._card(node.right)
            return self._cost(node.left) + self._cost(node.right) + C_NL_PAIR * left * right

        if isinstance(node, L.GroupBy):
            return self._cost(node.child) + C_GROUP * self._card(node.child)

        if isinstance(node, L.ScalarAggregate):
            return self._cost(node.child) + C_PRED * self._card(node.child)

        if isinstance(node, L.BinaryGroupBy):
            left = self._card(node.left)
            right = self._card(node.right)
            base = self._cost(node.left) + self._cost(node.right)
            if node.op == "=":
                return base + C_HASH_BUILD * right + C_HASH_PROBE * left
            return base + C_NL_PAIR * left * right

        if isinstance(node, (L.UnionAll, L.Union, L.Intersect, L.Difference)):
            return (
                self._cost(node.left)
                + self._cost(node.right)
                + C_MATERIALISE * (self._card(node.left) + self._card(node.right))
            )

        total = 0.0
        for child in node.children():
            total += self._cost(child)
        return total + C_MATERIALISE * self._card(node)


def _subquery_exprs(expression: E.Expr):
    return [n for n in expression.walk() if isinstance(n, E.SubqueryExpr)]


def _log2(value: float) -> float:
    import math

    return math.log2(max(value, 2.0))
