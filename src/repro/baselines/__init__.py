"""Baseline evaluation strategies emulating the commercial systems.

The paper benchmarks three anonymised commercial DBMSs (S 1, S 2, S 3)
and infers from the runtimes that all of them evaluate the nested query
"in a nested-loop like fashion" (§4.3).  We emulate the behaviours those
numbers imply (see DESIGN.md §4 for the full argument):

* **S1** — the canonical nested-loop plan, no caching whatsoever
  (tracks Natix-canonical in Fig. 7(a), as S 1 does);
* **S2** — canonical with *subquery memoisation*: the inner block's
  result is cached per distinct correlation-value combination.  On the
  RST data (few distinct correlation values) this nearly matches the
  unnested plan — exactly S 2's Fig. 7(a) behaviour — while on TPC-H
  (correlation on ``p_partkey``, nearly all distinct) the cache hit rate
  collapses, matching S 2's order-of-magnitude loss in Fig. 7(b);
* **S3** — canonical with disjuncts reordered cheapest-first, so the
  short-circuiting OR skips the subquery for rows that already satisfy
  the simple predicate (S 3 sits at roughly half of canonical in
  Fig. 7(a); for disjunctive *correlation* the trick does not apply and
  S 3 degenerates to canonical, matching Fig. 7(c)).
"""

from __future__ import annotations

from repro.algebra import expr as E
from repro.algebra import ops as L
from repro.rewrite.rank import Estimator, rank_of


def reorder_disjuncts_cheap_first(plan: L.Operator, estimator: Estimator | None = None) -> L.Operator:
    """Reorder OR operands by ascending rank, recursively (strategy S3).

    The engine's OR evaluation short-circuits on TRUE, so putting the
    cheap simple predicate first avoids the nested subquery for rows it
    already accepts — a poor man's bypass evaluation that needs no plan
    surgery, which is plausibly what the commercial system does.
    """
    estimator = estimator or Estimator()
    memo: dict[int, L.Operator] = {}

    def reorder_or(expression: E.Expr) -> E.Expr:
        if isinstance(expression, E.Or):
            ordered = tuple(sorted(expression.items, key=lambda d: rank_of(d, estimator)))
            if ordered != expression.items:
                return E.Or(ordered)
        return expression

    def rewrite(node: L.Operator) -> L.Operator:
        cached = memo.get(id(node))
        if cached is not None:
            return cached
        result = node.map_children(rewrite).map_subplans(rewrite)
        result = result.map_exprs(lambda expression: expression.transform(reorder_or))
        memo[id(node)] = result
        return result

    return rewrite(plan)
