"""Plan rendering: ASCII trees for DAG-structured bypass plans.

The renderer mirrors the paper's figures: bypass streams are annotated
``(+)`` / ``(−)``, shared bypass operators are printed once and referenced
afterwards, and nested algebraic expressions inside selection subscripts
are rendered as indented sub-plans — making the canonical plans of
Figures 2(a), 3(a), 5(a), 6(a) and the unnested DAGs of 2(c), 3(b), 5(b),
6(c) directly comparable to the paper.
"""

from __future__ import annotations

import io
from collections import Counter

from repro.algebra.ops import BypassJoin, BypassSelect, Operator, StreamTap


def explain(plan: Operator, show_schema: bool = False) -> str:
    """Render ``plan`` as an indented ASCII tree.

    Shared nodes (bypass operators consumed by two taps, or any other DAG
    sharing) are expanded on first encounter and referenced as
    ``[shared #n]`` afterwards.
    """
    renderer = _Renderer(show_schema)
    renderer.render(plan, prefix="", is_last=True, connector="")
    return renderer.output.getvalue()


class _Renderer:
    def __init__(self, show_schema: bool):
        self.output = io.StringIO()
        self.show_schema = show_schema
        self.shared_ids: dict[int, int] = {}
        self.next_shared = 1

    def render(self, node: Operator, prefix: str, is_last: bool, connector: str) -> None:
        line = prefix + connector + self._label(node)
        if id(node) in self.shared_ids:
            self.output.write(f"{line} [shared #{self.shared_ids[id(node)]}]\n")
            return
        if self._is_shared(node):
            self.shared_ids[id(node)] = self.next_shared
            line += f" [#{self.next_shared}]"
            self.next_shared += 1
        if self.show_schema:
            line += f"  :: ({', '.join(node.schema.names)})"
        self.output.write(line + "\n")

        child_prefix = prefix + ("" if connector == "" else ("   " if is_last else "|  "))
        children = node.children()
        subplans = list(node.subquery_plans())

        for index, subplan in enumerate(subplans):
            last = not children and index == len(subplans) - 1
            self.output.write(child_prefix + ("`~ " if last else "|~ ") + "<nested plan>\n")
            nested_prefix = child_prefix + ("   " if last else "|  ")
            self.render(subplan, nested_prefix, is_last=True, connector="`- ")

        for index, child in enumerate(children):
            last = index == len(children) - 1
            self.render(child, child_prefix, last, "`- " if last else "|- ")

    def _label(self, node: Operator) -> str:
        if isinstance(node, StreamTap):
            sign = "(+)" if node.positive_stream else "(−)"
            return f"{sign} of"
        return node.label()

    def _is_shared(self, node: Operator) -> bool:
        return isinstance(node, (BypassSelect, BypassJoin))


def plan_signature(plan: Operator) -> list[str]:
    """A flat, order-deterministic list of operator labels (tests).

    Each entry is ``depth*'.' + label``; shared nodes appear once.  This is
    what the figure golden tests compare — robust to cosmetic renderer
    changes while still pinning the plan shape.
    """
    lines: list[str] = []
    seen: set[int] = set()

    def visit(node: Operator, depth: int) -> None:
        if id(node) in seen:
            lines.append("." * depth + "@" + _short_label(node))
            return
        seen.add(id(node))
        lines.append("." * depth + _short_label(node))
        for subplan in node.subquery_plans():
            visit(subplan, depth + 2)
        for child in node.children():
            visit(child, depth + 1)

    visit(plan, 0)
    return lines


def _short_label(node: Operator) -> str:
    if isinstance(node, StreamTap):
        return "+" if node.positive_stream else "-"
    return type(node).__name__


def count_operators(plan: Operator) -> dict[str, int]:
    """Histogram of operator class names over the DAG (each node once).

    Includes operators inside nested subquery plans.
    """
    return dict(Counter(type(node).__name__ for node in plan.iter_dag(nested=True)))
