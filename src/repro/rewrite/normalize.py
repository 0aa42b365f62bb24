"""Structural analysis of canonical subquery plans.

The unnesting equivalences match a specific canonical shape:

    Π[g] ( ScalarAgg[g: f(arg)] ( σ[pred] ( source ) ) )

These helpers peel that shape apart and classify the inner predicate's
conjuncts and disjuncts relative to the block boundary:

* a conjunct is **local** if it references only attributes produced by
  ``source`` — it can be pushed into the source;
* a conjunct is **correlating** if it references attributes of the outer
  block (free attributes of the plan);
* an *equality correlation* ``outer_expr = inner_column`` is the shape
  unary grouping can exploit (Equivalences 1–4); anything else forces the
  general route (Equivalence 5).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra import expr as E
from repro.algebra import ops as L
from repro.algebra.aggregates import AggSpec


@dataclass
class ScalarShape:
    """The peeled canonical form of a scalar-aggregate block."""

    spec: AggSpec
    predicate: E.Expr  # TRUE when the block has no WHERE
    source: L.Operator  # the block's FROM (with local filters kept inside)


def peel_scalar_aggregate(plan: L.Operator) -> ScalarShape | None:
    """Match ``[Project] → ScalarAggregate[single agg] → [Select] → source``.

    Returns ``None`` when the plan is not a single-aggregate block (e.g.
    a non-aggregate scalar subquery) — callers then fall back to nested
    evaluation.
    """
    node = plan
    while isinstance(node, L.Project) and len(node.names) == 1:
        node = node.child
    if not isinstance(node, L.ScalarAggregate) or len(node.aggregates) != 1:
        return None
    (_, spec) = node.aggregates[0]
    child = node.child
    # The join optimizer may interpose a pure column permutation between
    # the aggregate and the block's selection; aggregation is insensitive
    # to column order, so peel it.
    while isinstance(child, L.Project) and set(child.names) == set(
        child.child.schema.names
    ):
        child = child.child
    if isinstance(child, L.Select):
        return ScalarShape(spec, child.predicate, child.child)
    return ScalarShape(spec, E.TRUE, child)


@dataclass
class PredicateSplit:
    """Inner-predicate conjuncts classified against the block boundary."""

    local: list[E.Expr]  # no outer references → push into the source
    correlating: list[E.Expr]  # reference outer attributes


def split_conjuncts(predicate: E.Expr, source_schema_names: frozenset[str]) -> PredicateSplit:
    """Classify top-level conjuncts by whether they reach outside the block."""
    local: list[E.Expr] = []
    correlating: list[E.Expr] = []
    for conjunct in E.conjuncts(predicate):
        if conjunct == E.TRUE:
            continue
        if outer_refs(conjunct, source_schema_names):
            correlating.append(conjunct)
        else:
            local.append(conjunct)
    return PredicateSplit(local, correlating)


def outer_refs(expression: E.Expr, source_schema_names: frozenset[str]) -> frozenset[str]:
    """Attribute references that escape the block (correlation)."""
    return expression.free_attrs() - source_schema_names


@dataclass
class EqualityCorrelation:
    """One ``outer_expr = inner_column`` correlation pair."""

    outer: E.Expr  # references only outer attributes
    inner_column: str  # attribute of the block's source


def match_equality_correlation(
    conjunct: E.Expr, source_schema_names: frozenset[str]
) -> EqualityCorrelation | None:
    """Match a conjunct of the form ``outer = inner_col`` (either order).

    The inner side must be a plain column (it becomes the grouping key);
    the outer side may be any expression over outer attributes only.
    """
    if not isinstance(conjunct, E.Comparison) or conjunct.op != "=":
        return None
    for candidate in (conjunct, conjunct.mirrored()):
        right = candidate.right
        if not isinstance(right, E.ColumnRef) or right.name not in source_schema_names:
            continue
        left = candidate.left
        if left.contains_subquery():
            continue
        if not left.free_attrs():
            continue  # constant = column is a local predicate, not correlation
        if left.free_attrs() & source_schema_names:
            continue  # the outer side must not touch inner attributes
        return EqualityCorrelation(outer=left, inner_column=right.name)
    return None


@dataclass
class CorrelationAnalysis:
    """Decomposition of the correlating conjuncts of a block.

    ``eq_pairs``/``eq_locals`` describe a purely conjunctive equality
    correlation (Eqv. 1 territory); ``or_conjunct`` is set when exactly
    one conjunct is a disjunction containing correlation (Eqv. 4/5
    territory); ``general`` collects anything else.
    """

    eq_pairs: list[EqualityCorrelation]
    or_conjunct: E.Expr | None
    general: list[E.Expr]


def analyse_correlation(
    correlating: list[E.Expr], source_schema_names: frozenset[str]
) -> CorrelationAnalysis:
    eq_pairs: list[EqualityCorrelation] = []
    or_conjunct: E.Expr | None = None
    general: list[E.Expr] = []
    for conjunct in correlating:
        pair = match_equality_correlation(conjunct, source_schema_names)
        if pair is not None:
            eq_pairs.append(pair)
            continue
        if isinstance(conjunct, E.Or) and or_conjunct is None:
            or_conjunct = conjunct
            continue
        general.append(conjunct)
    return CorrelationAnalysis(eq_pairs, or_conjunct, general)


def apply_local_filter(source: L.Operator, local: list[E.Expr]) -> L.Operator:
    """Push block-local conjuncts into the source."""
    if not local:
        return source
    return L.Select(source, E.conjunction(local))


def replace_expr_node(root: E.Expr, target: E.Expr, replacement: E.Expr) -> E.Expr:
    """Replace one node (by identity) in an expression tree."""
    return root.transform(lambda node: replacement if node is target else node)


def find_subquery_exprs(expression: E.Expr) -> list[E.SubqueryExpr]:
    """All subquery expressions in ``expression``, outermost first."""
    return [node for node in expression.walk() if isinstance(node, E.SubqueryExpr)]


def to_nnf(expression: E.Expr) -> E.Expr:
    """Push NOT inward (negation normal form), 3VL-preserving.

    De Morgan over AND/OR, comparison-operator flips, and negation-flag
    flips on LIKE / IS NULL / IN / EXISTS / quantified comparisons are all
    exact under SQL's three-valued logic (UNKNOWN maps to UNKNOWN on both
    sides).  NOT survives only around constructs with no 3VL-exact dual
    (e.g. CASE).

    NNF matters to the rewriter: inside an NNF predicate, conflating
    FALSE with UNKNOWN can never turn a non-qualifying row into a
    qualifying one, which is what licenses the count-based reduction of
    quantified subqueries.
    """
    if isinstance(expression, E.Not):
        return negate(expression.operand)
    kids = expression.children()
    if not kids:
        return expression
    new_kids = [to_nnf(kid) for kid in kids]
    if all(new is old for new, old in zip(new_kids, kids)):
        return expression
    return expression.replace_children(new_kids)


def negate(expression: E.Expr) -> E.Expr:
    """Return the NNF of ``NOT expression`` (3VL-exact)."""
    if isinstance(expression, E.Not):
        return to_nnf(expression.operand)
    if isinstance(expression, E.And):
        return E.disjunction([negate(item) for item in expression.items])
    if isinstance(expression, E.Or):
        return E.conjunction([negate(item) for item in expression.items])
    if isinstance(expression, E.Comparison):
        return E.Comparison(E.NEGATED_OP[expression.op], expression.left, expression.right)
    if isinstance(expression, E.Literal):
        if expression.value is None:
            return expression
        return E.Literal(not expression.value)
    if isinstance(expression, E.Like):
        return E.Like(expression.operand, expression.pattern, not expression.negated)
    if isinstance(expression, E.IsNull):
        return E.IsNull(expression.operand, not expression.negated)
    if isinstance(expression, E.InList):
        return E.InList(expression.operand, expression.items, not expression.negated)
    if isinstance(expression, E.Exists):
        return E.Exists(expression.plan, not expression.negated)
    if isinstance(expression, E.InSubquery):
        return E.InSubquery(expression.operand, expression.plan, not expression.negated)
    if isinstance(expression, E.QuantifiedComparison):
        flipped = "all" if expression.quantifier == "any" else "any"
        return E.QuantifiedComparison(
            expression.operand, E.NEGATED_OP[expression.op], flipped, expression.plan
        )
    return E.Not(to_nnf(expression))
