"""Expression simplification: constant folding and boolean identities.

A classic optimizer pass run before join ordering:

* comparisons / arithmetic / LIKE / IS NULL over literals fold to
  literals, with exact three-valued semantics (``1 < NULL`` folds to
  UNKNOWN, i.e. ``Literal(None)``);
* boolean identities: TRUE/FALSE absorption in AND/OR, double negation,
  single-item unwrapping;
* ``σ[TRUE]`` disappears; ``σ[FALSE/UNKNOWN-constant]`` becomes
  ``Limit 0`` (the empty relation with the same schema);
* CASE with a constant TRUE first branch folds to that branch.

Folding never reorders anything, so it composes with the rank-based
disjunct ordering downstream.
"""

from __future__ import annotations

from repro.algebra import expr as E
from repro.algebra import ops as L

_CMP = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


def simplify_expr(expression: E.Expr) -> E.Expr:
    """Fold constants and apply boolean identities (3VL-exact)."""
    return expression.map_subplans(simplify_plan).transform(_fold)


def _fold(expression: E.Expr) -> E.Expr:
    """One node's folding rule; its children are already folded."""
    if isinstance(expression, E.Comparison):
        left, right = expression.left, expression.right
        if isinstance(left, E.Literal) and isinstance(right, E.Literal):
            if left.value is None or right.value is None:
                return E.NULL
            try:
                return E.Literal(_CMP[expression.op](left.value, right.value))
            except TypeError:
                return expression
        return expression

    if isinstance(expression, E.Arithmetic):
        left, right = expression.left, expression.right
        if isinstance(left, E.Literal) and isinstance(right, E.Literal):
            if left.value is None or right.value is None:
                return E.NULL
            try:
                return E.Literal(_ARITH[expression.op](left.value, right.value))
            except (TypeError, ZeroDivisionError):
                return expression
        return expression

    if isinstance(expression, E.Negate):
        operand = expression.operand
        if isinstance(operand, E.Literal):
            if operand.value is None:
                return E.NULL
            try:
                return E.Literal(-operand.value)
            except TypeError:
                return expression
        return expression

    if isinstance(expression, E.Not):
        operand = expression.operand
        if isinstance(operand, E.Literal):
            if operand.value is None:
                return E.NULL
            return E.Literal(not operand.value)
        if isinstance(operand, E.Not):
            # NOT NOT x ≡ x only when x is boolean-valued; all our NOT
            # operands are predicates, so this is safe.
            return operand.operand
        return expression

    if isinstance(expression, E.And):
        items = []
        saw_unknown = False
        for item in expression.items:
            if isinstance(item, E.Literal):
                if item.value is False:
                    return E.FALSE
                if item.value is None:
                    saw_unknown = True
                continue  # TRUE (and UNKNOWN, handled below) drop out
            items.append(item)
        if not items:
            return E.NULL if saw_unknown else E.TRUE
        if saw_unknown:
            # x AND UNKNOWN is not x (it can turn TRUE into UNKNOWN) but
            # under a selection both behave the same; we keep exactness
            # by retaining the UNKNOWN literal.
            items.append(E.NULL)
        return E.conjunction(items)

    if isinstance(expression, E.Or):
        items = []
        saw_unknown = False
        for item in expression.items:
            if isinstance(item, E.Literal):
                if item.value is True:
                    return E.TRUE
                if item.value is None:
                    saw_unknown = True
                continue
            items.append(item)
        if not items:
            return E.NULL if saw_unknown else E.FALSE
        if saw_unknown:
            items.append(E.NULL)
        return E.disjunction(items)

    if isinstance(expression, E.IsNull):
        operand = expression.operand
        if isinstance(operand, E.Literal):
            result = operand.value is None
            return E.Literal(result != expression.negated)
        return expression

    if isinstance(expression, E.Like):
        operand = expression.operand
        if isinstance(operand, E.Literal):
            if operand.value is None:
                return E.NULL
            from repro.engine.evaluate import _like_to_regex
            import re

            matched = re.match(_like_to_regex(expression.pattern), operand.value) is not None
            return E.Literal(matched != expression.negated)
        return expression

    if isinstance(expression, E.Case):
        branches = []
        for condition, value in expression.branches:
            if isinstance(condition, E.Literal):
                if condition.value is True and not branches:
                    return value
                if condition.value is not True:
                    continue  # FALSE/UNKNOWN branch can never fire
            branches.append((condition, value))
        if not branches:
            return expression.default
        if branches != list(expression.branches):
            return E.Case(tuple(branches), expression.default)
        return expression

    return expression


def simplify_plan(plan: L.Operator) -> L.Operator:
    """Apply :func:`simplify_expr` throughout a plan DAG."""
    memo: dict[int, L.Operator] = {}

    def visit(node: L.Operator) -> L.Operator:
        cached = memo.get(id(node))
        if cached is not None:
            return cached
        # simplify_expr, but nested plans share this walk's memo.
        result = node.map_children(visit).map_exprs(
            lambda expression: expression.map_subplans(visit).transform(_fold)
        )
        result = _simplify_node(result)
        memo[id(node)] = result
        return result

    def _simplify_node(node: L.Operator) -> L.Operator:
        if isinstance(node, L.Select):
            if node.predicate == E.TRUE:
                return node.child
            if isinstance(node.predicate, E.Literal):
                return L.Limit(node.child, 0)  # FALSE/UNKNOWN: empty
        if type(node) is L.Join and node.predicate == E.TRUE:
            return L.CrossProduct(node.left, node.right)
        return node

    return visit(plan)
