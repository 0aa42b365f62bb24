"""Cardinality and selectivity estimation.

Classic System-R-style formulas over the catalog's per-column statistics:
equality selects ``1/distinct``, ranges interpolate between min and max,
conjunctions multiply, disjunctions use inclusion–exclusion.  Estimates
are deliberately simple — they only need to order plan alternatives, and
the paper's plans differ by orders of magnitude.
"""

from __future__ import annotations

from repro.algebra import expr as E
from repro.algebra import ops as L
from repro.storage.catalog import Catalog, ColumnStats, TableStats

DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_SELECTIVITY = 0.5


class CardinalityModel:
    """Estimates row counts for logical plans against one catalog."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        #: qualified attribute name -> (table statistics, base column),
        #: filled during walks, and -> the ColumnStats derived the first
        #: time a formula asked: one model (one plan) sees one figure.
        self._sources: dict[str, tuple[TableStats, str]] = {}
        self._column_stats: dict[str, ColumnStats | None] = {}

    # -- public API ------------------------------------------------------------

    def cardinality(self, plan: L.Operator) -> float:
        self._harvest_stats(plan)
        return self._card(plan)

    def selectivity(self, predicate: E.Expr) -> float:
        return self._sel(predicate)

    def distinct_of(self, attribute: str) -> float | None:
        stats = self._stats_of(attribute)
        if stats is None or stats.distinct == 0:
            return None
        return float(stats.distinct)

    def _stats_of(self, attribute: str) -> ColumnStats | None:
        """The statistics of a harvested attribute, derived on first ask."""
        if attribute not in self._column_stats and attribute in self._sources:
            table_stats, base = self._sources[attribute]
            self._column_stats[attribute] = table_stats.columns.get(base)
        return self._column_stats.get(attribute)

    # -- statistics harvest ---------------------------------------------------

    def _harvest_stats(self, plan: L.Operator) -> None:
        """Map qualified scan attributes to base-column statistics."""
        for node in plan.iter_dag(nested=True):
            if isinstance(node, L.Scan) and node.table_name in self.catalog:
                table_stats = self.catalog.stats(node.table_name)
                base_names = self.catalog.table(node.table_name).schema.names
                projection = getattr(node, "projection", None)
                if projection is not None:
                    # Projection-narrowed IndexScan: its schema holds a
                    # subset of the base columns, at these positions.
                    base_names = [base_names[position] for position in projection]
                for qualified, base in zip(node.schema.names, base_names):
                    self._sources[qualified] = (table_stats, base)

    # -- cardinalities ---------------------------------------------------------

    def _card(self, node: L.Operator) -> float:
        if isinstance(node, L.IndexScan):
            return self._index_scan_card(node)
        if isinstance(node, L.Scan):
            if node.table_name in self.catalog:
                return float(self.catalog.stats(node.table_name).row_count)
            return 1000.0
        if isinstance(node, (L.Select,)):
            return self._card(node.child) * self._sel(node.predicate)
        if isinstance(node, L.StreamTap):
            bypass = node.child
            fraction = self._sel(bypass.predicate)
            if not node.positive_stream:
                fraction = 1.0 - fraction
            if isinstance(bypass, L.BypassSelect):
                return self._card(bypass.child) * fraction
            return self._card(bypass.left) * self._card(bypass.right) * fraction
        if isinstance(node, (L.Join,)):
            return (
                self._card(node.left)
                * self._card(node.right)
                * self._sel(node.predicate)
            )
        if isinstance(node, L.LeftOuterJoin):
            # One output row per left row after grouping on the join key
            # (the unnesting invariant, §3.7); otherwise join-like.
            return max(
                self._card(node.left),
                self._card(node.left) * self._card(node.right) * self._sel(node.predicate),
            )
        if isinstance(node, (L.SemiJoin,)):
            return self._card(node.left) * 0.5
        if isinstance(node, (L.AntiJoin,)):
            return self._card(node.left) * 0.5
        if isinstance(node, L.CrossProduct):
            return self._card(node.left) * self._card(node.right)
        if isinstance(node, L.GroupBy):
            distinct = 1.0
            for key in node.keys:
                distinct *= self.distinct_of(key) or 10.0
            return min(self._card(node.child), distinct)
        if isinstance(node, L.ScalarAggregate):
            return 1.0
        if isinstance(node, L.BinaryGroupBy):
            return self._card(node.left)
        if isinstance(node, (L.UnionAll, L.Union)):
            return self._card(node.left) + self._card(node.right)
        if isinstance(node, (L.Intersect,)):
            return min(self._card(node.left), self._card(node.right))
        if isinstance(node, (L.Difference,)):
            return self._card(node.left)
        if isinstance(node, L.Distinct):
            return self._card(node.child) * 0.9
        if isinstance(node, L.Limit):
            return min(self._card(node.child), float(node.count))
        children = node.children()
        if children:
            return self._card(children[0])
        return 1.0

    def _index_scan_card(self, node: L.IndexScan) -> float:
        """Base rows × key-bound selectivities × residual selectivity.

        The pushed-down key predicate is reconstructed as comparisons so
        the ordinary selectivity machinery (distinct counts, histograms,
        correlated column pairs) applies unchanged.
        """
        if node.table_name in self.catalog:
            base_rows = float(self.catalog.stats(node.table_name).row_count)
        else:
            base_rows = 1000.0
        selectivity = 1.0
        for op, expr in node.bounds:
            comparison = E.Comparison(op, E.ColumnRef(node.key_attr), expr)
            selectivity *= self._comparison_sel(comparison)
        if node.residual is not None:
            selectivity *= self._sel(node.residual)
        return base_rows * selectivity

    # -- selectivities -----------------------------------------------------------

    def _sel(self, predicate: E.Expr) -> float:
        if isinstance(predicate, E.Literal):
            if predicate.value is True:
                return 1.0
            return 0.0
        if isinstance(predicate, E.And):
            result = 1.0
            for item in predicate.items:
                result *= self._sel(item)
            return result
        if isinstance(predicate, E.Or):
            result = 1.0
            for item in predicate.items:
                result *= 1.0 - self._sel(item)
            return 1.0 - result
        if isinstance(predicate, E.Not):
            return 1.0 - self._sel(predicate.operand)
        if isinstance(predicate, E.Comparison):
            return self._comparison_sel(predicate)
        if isinstance(predicate, E.Like):
            return 0.25 if not predicate.negated else 0.75
        if isinstance(predicate, E.IsNull):
            return 0.05 if not predicate.negated else 0.95
        if isinstance(predicate, E.InList):
            base = min(1.0, DEFAULT_EQ_SELECTIVITY * max(len(predicate.items), 1))
            return base if not predicate.negated else 1.0 - base
        if isinstance(predicate, (E.Exists, E.InSubquery, E.QuantifiedComparison)):
            return 0.5
        return DEFAULT_SELECTIVITY

    def _comparison_sel(self, comparison: E.Comparison) -> float:
        left, right, op = comparison.left, comparison.right, comparison.op
        if isinstance(right, E.ColumnRef) and not isinstance(left, E.ColumnRef):
            comparison = comparison.mirrored()
            left, right, op = comparison.left, comparison.right, comparison.op
        if op == "=":
            if isinstance(left, E.ColumnRef) and isinstance(right, E.ColumnRef):
                d1 = self.distinct_of(left.name)
                d2 = self.distinct_of(right.name)
                candidates = [d for d in (d1, d2) if d]
                if candidates:
                    return 1.0 / max(candidates)
                return DEFAULT_EQ_SELECTIVITY
            if isinstance(left, E.ColumnRef):
                distinct = self.distinct_of(left.name)
                if distinct:
                    return 1.0 / distinct
            return DEFAULT_EQ_SELECTIVITY
        if op == "<>":
            return 1.0 - self._comparison_sel(E.Comparison("=", left, right))
        if isinstance(left, E.ColumnRef) and isinstance(right, E.Literal):
            interpolated = self._range_fraction(left.name, right.value, op)
            if interpolated is not None:
                return interpolated
        return DEFAULT_RANGE_SELECTIVITY

    def _range_fraction(self, attribute: str, value, op: str) -> float | None:
        stats = self._stats_of(attribute)
        if stats is None or stats.min_value is None or stats.max_value is None:
            return None
        try:
            point = float(value)
        except (TypeError, ValueError):
            return None
        if stats.histogram is not None:
            # Histogram estimate handles skewed distributions; min/max
            # interpolation is the fallback for tiny columns.
            fraction = stats.histogram.fraction_below(point)
        else:
            try:
                low = float(stats.min_value)
                high = float(stats.max_value)
            except (TypeError, ValueError):
                return None
            if high <= low:
                return DEFAULT_RANGE_SELECTIVITY
            fraction = min(max((point - low) / (high - low), 0.0), 1.0)
        if op in ("<", "<="):
            return fraction
        return 1.0 - fraction
