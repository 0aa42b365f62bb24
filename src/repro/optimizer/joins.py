"""Selection pushdown and greedy join ordering.

The canonical translation produces ``σ[everything](R1 × R2 × …)`` per
block.  This pass — applied to *every* strategy, canonical included, so
that the benchmark comparison isolates the unnesting effect exactly as
the paper's Natix plans do — rewrites each such block into a join tree:

* single-source conjuncts (no subquery, no outer reference) are pushed
  onto their source;
* equality conjuncts connecting two sources become hash-join edges,
  ordered greedily by estimated intermediate size;
* everything else — subquery-bearing conjuncts, correlation predicates,
  non-binary predicates — stays in a residual selection on top, which is
  precisely the shape the unnesting rewriter consumes.

The pass recurses into nested subquery plans so inner blocks (e.g. the
four-way join inside Query 2d's subquery) get join trees too.
"""

from __future__ import annotations

from repro.algebra import expr as E
from repro.algebra import ops as L
from repro.optimizer.cardinality import CardinalityModel
from repro.storage.catalog import Catalog


def optimize_joins(plan: L.Operator, catalog: Catalog) -> L.Operator:
    """Rewrite cross-product blocks into join trees (recursively)."""
    optimizer = _JoinOptimizer(catalog)
    return optimizer.rewrite(plan)


class _JoinOptimizer:
    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self.cards = CardinalityModel(catalog)
        self._memo: dict[int, L.Operator] = {}

    def rewrite(self, node: L.Operator) -> L.Operator:
        cached = self._memo.get(id(node))
        if cached is not None:
            return cached
        if isinstance(node, L.Select) and self._leaves_of(node.child):
            result = self._rewrite_block(node)
        else:
            result = node.map_children(self.rewrite).map_subplans(self.rewrite)
        self._memo[id(node)] = result
        return result

    # -- block detection -------------------------------------------------------

    def _leaves_of(self, node: L.Operator) -> list[L.Operator] | None:
        """Flatten a cross-product tree; None if not a product of ≥2 leaves."""
        leaves: list[L.Operator] = []

        def collect(current: L.Operator) -> None:
            if isinstance(current, L.CrossProduct):
                collect(current.left)
                collect(current.right)
            else:
                leaves.append(current)

        collect(node)
        if len(leaves) < 2:
            return None
        return leaves

    # -- block rewrite -------------------------------------------------------------

    def _rewrite_block(self, select: L.Select) -> L.Operator:
        leaves = self._leaves_of(select.child) or [select.child]
        leaves = [self.rewrite(leaf) for leaf in leaves]
        self.cards._harvest_stats(select)

        leaf_names = [frozenset(leaf.schema.names) for leaf in leaves]
        all_names = frozenset().union(*leaf_names)

        pushed: list[list[E.Expr]] = [[] for _ in leaves]
        edges: list[tuple[int, int, E.Expr]] = []
        residual: list[E.Expr] = []

        for conjunct in E.conjuncts(select.predicate):
            if conjunct == E.TRUE:
                continue
            refs = conjunct.free_attrs()
            if conjunct.contains_subquery() or (refs - all_names):
                residual.append(conjunct)
                continue
            touching = [index for index, names in enumerate(leaf_names) if refs & names]
            if len(touching) <= 1:
                index = touching[0] if touching else 0
                pushed[index].append(conjunct)
                continue
            if len(touching) == 2 and _is_equi(conjunct):
                edges.append((touching[0], touching[1], conjunct))
                continue
            residual.append(conjunct)

        filtered = [
            L.Select(leaf, E.conjunction(preds)) if preds else leaf
            for leaf, preds in zip(leaves, pushed)
        ]
        joined = self._greedy_join(filtered, edges, residual)
        if residual:
            result = L.Select(joined, E.conjunction(residual).map_subplans(self.rewrite))
        else:
            result = joined
        if result.schema != select.schema:
            result = L.Project(result, select.schema.names)
        return result

    def _greedy_join(self, relations, edges, residual) -> L.Operator:
        """Greedy smallest-intermediate-first join ordering."""
        remaining = dict(enumerate(relations))
        sizes = {index: max(self.cards._card(rel), 1.0) for index, rel in remaining.items()}
        pending = list(edges)

        # Start from the smallest relation.
        current_index = min(remaining, key=lambda i: sizes[i])
        current = remaining.pop(current_index)
        joined_set = {current_index}
        current_size = sizes[current_index]

        while remaining:
            # Candidate edges connecting the joined set to a new relation.
            best = None
            for edge_index, (a, b, pred) in enumerate(pending):
                if (a in joined_set) == (b in joined_set):
                    continue
                new = b if a in joined_set else a
                sel = self.cards.selectivity(pred)
                size = current_size * sizes[new] * sel
                if best is None or size < best[0]:
                    best = (size, new, edge_index)
            if best is None:
                # No connecting edge: fall back to a cross product with
                # the smallest remaining relation.
                new = min(remaining, key=lambda i: sizes[i])
                current = L.CrossProduct(current, remaining.pop(new))
                current_size *= sizes[new]
                joined_set.add(new)
                continue
            size, new, _ = best
            predicates = []
            kept = []
            for a, b, pred in pending:
                joins_new = (a in joined_set and b == new) or (b in joined_set and a == new)
                if joins_new:
                    predicates.append(pred)
                else:
                    kept.append((a, b, pred))
            pending = kept
            current = L.Join(current, remaining.pop(new), E.conjunction(predicates))
            current_size = size
            joined_set.add(new)

        # Edges both of whose sides were already joined (cycles) become
        # residual filters.
        for _, _, pred in pending:
            residual.append(pred)
        return current


def _is_equi(conjunct: E.Expr) -> bool:
    return (
        isinstance(conjunct, E.Comparison)
        and conjunct.op == "="
        and isinstance(conjunct.left, E.ColumnRef)
        and isinstance(conjunct.right, E.ColumnRef)
    )
