"""Bypass-operator elimination (paper §6.1).

    "Although most runtime systems and optimizers do not incorporate
     bypass plans, it is possible to transfer bypass plans into plans
     without bypass operators.  This can, for example, be done by
     tagging every tuple whether it belongs to the positive or negative
     stream."

:func:`remove_bypass` implements exactly that: each bypass selection
becomes a map computing a two-valued tag (``CASE WHEN p THEN TRUE ELSE
FALSE END`` — folding UNKNOWN into the negative stream, like σ± does),
and each stream tap becomes a selection on the tag plus a projection
back to the original schema.  A bypass join is tagged over the cross
product.  The tagged node is shared by both stream replacements, so the
result is still a DAG — but one made only of standard operators, which
is what an engine without native bypass support needs.  The rewrite
reaches every subscript that can nest a plan — selection, map and bypass
predicates, the whole join family, aggregate arguments — so no σ±/⋈±
survives inside a nested block either.

The ablation benchmark ``benchmarks/test_ablations.py`` measures what
the tag-based encoding costs compared to native bypass operators.
"""

from __future__ import annotations

from repro.algebra import expr as E
from repro.algebra import ops as L


def remove_bypass(plan: L.Operator) -> L.Operator:
    """Rewrite a bypass DAG into an equivalent plan without σ±/⋈±."""
    return _Debypasser().rewrite(plan)


class _Debypasser:
    def __init__(self):
        self._memo: dict[int, L.Operator] = {}
        self._counter = 0

    def rewrite(self, node: L.Operator) -> L.Operator:
        cached = self._memo.get(id(node))
        if cached is not None:
            return cached
        if isinstance(node, L.StreamTap):
            result = self._rewrite_tap(node)
        elif isinstance(node, (L.BypassSelect, L.BypassJoin)):
            result = self._tagged_plan(node)
        else:
            result = node.map_children(self.rewrite).map_subplans(self.rewrite)
        self._memo[id(node)] = result
        return result

    def _tagged_plan(self, bypass: L.Operator) -> L.Map:
        """The tagged replacement for a bypass operator (memoised: built once)."""
        self._counter += 1
        tag = f"bp{self._counter}.tag"
        predicate = bypass.predicate.map_subplans(self.rewrite)
        two_valued = E.Case(((predicate, E.Literal(True)),), E.Literal(False))
        if isinstance(bypass, L.BypassSelect):
            source = self.rewrite(bypass.child)
        else:  # BypassJoin: tag the cross product
            source = L.CrossProduct(
                self.rewrite(bypass.left), self.rewrite(bypass.right)
            )
        return L.Map(source, tag, two_valued)

    def _rewrite_tap(self, tap: L.StreamTap) -> L.Operator:
        tagged = self.rewrite(tap.child)
        wanted = E.Literal(True) if tap.positive_stream else E.Literal(False)
        selected = L.Select(tagged, E.Comparison("=", E.ColumnRef(tagged.name), wanted))
        return L.Project(selected, tap.schema.names)


def contains_bypass(plan: L.Operator) -> bool:
    """True if any bypass operator remains anywhere in the plan DAG."""
    return any(
        isinstance(node, (L.BypassSelect, L.BypassJoin)) for node in plan.iter_dag(nested=True)
    )
