"""Scalar expressions, including nested algebraic expressions.

Expressions appear in operator subscripts (selection and join predicates,
map definitions, aggregate arguments).  Following the paper, subscripts may
contain full algebraic expressions: a :class:`ScalarSubquery` holds the
canonical translation of a nested query block, an :class:`Exists` /
:class:`InSubquery` / :class:`QuantifiedComparison` holds a table
subquery (the technical-report extension).

Expression trees are immutable; structural transformation goes through
:meth:`Expr.transform` (bottom-up, unchanged subtrees shared) and
:meth:`Expr.map_subplans` (the one place a nested plan is swapped).
Attribute identity is purely name-based: the SQL binder guarantees globally
unique attribute names via qualifiers, so ``free_attrs`` needs no scoping
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.algebra.ops import Operator


COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")

# Mirror image of each comparison operator: ``a op b  ==  b mirror(op) a``.
MIRRORED_OP = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

# Logical negation of each comparison operator (two-valued logic).
NEGATED_OP = {"=": "<>", "<>": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


@dataclass(frozen=True)
class Expr:
    """Base class for scalar expressions."""

    def children(self) -> tuple["Expr", ...]:
        return ()

    def replace_children(self, children: Sequence["Expr"]) -> "Expr":
        if children:
            raise ValueError(f"{type(self).__name__} takes no children")
        return self

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal of the expression tree.

        Does *not* descend into subquery plans — those are separate
        algebraic expressions with their own traversals.
        """
        yield self
        for child in self.children():
            yield from child.walk()

    # -- analysis ---------------------------------------------------------

    def free_attrs(self) -> frozenset[str]:
        """All attribute names referenced by this expression.

        For subquery expressions this includes the *free* attributes of the
        nested plan (its correlation attributes) but not attributes the
        plan produces itself.
        """
        names: set[str] = set()
        for node in self.walk():
            if isinstance(node, ColumnRef):
                names.add(node.name)
            elif isinstance(node, SubqueryExpr):
                names.update(node.plan_free_attrs())
        return frozenset(names)

    def contains_subquery(self) -> bool:
        return any(isinstance(node, SubqueryExpr) for node in self.walk())

    def is_comparison(self) -> bool:
        return isinstance(self, Comparison)

    # -- transformation ----------------------------------------------------

    def transform(self, fn: Callable[["Expr"], "Expr"]) -> "Expr":
        """Rebuild bottom-up: ``fn`` maps each node after its children.

        Unchanged subtrees are shared, so an identity ``fn`` returns
        ``self``.  Subquery plans are not entered — that is
        :meth:`map_subplans`.
        """
        kids = self.children()
        new_kids = [kid.transform(fn) for kid in kids]
        if all(new is old for new, old in zip(new_kids, kids)):
            return fn(self)
        return fn(self.replace_children(new_kids))

    def map_subplans(self, fn: Callable[["Operator"], "Operator"]) -> "Expr":
        """Apply ``fn`` to the plan of every subquery expression in this tree."""

        def enter(node: "Expr") -> "Expr":
            if isinstance(node, SubqueryExpr):
                plan = fn(node.plan)
                if plan is not node.plan:
                    return replace(node, plan=plan)
            return node

        return self.transform(enter)

    # -- misc ----------------------------------------------------------------

    def sql(self) -> str:
        """Best-effort SQL-ish rendering (used by explain output)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Literal(Expr):
    """A constant value (``None`` is the SQL NULL)."""

    value: object

    def sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return str(self.value)


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A reference to an attribute by (globally unique) name."""

    name: str

    def sql(self) -> str:
        return self.name


@dataclass(frozen=True)
class Parameter(Expr):
    """A prepared-statement placeholder bound at execution time.

    ``key`` is the positional index (int) or name (str) assigned by the
    SQL front-end.  A parameter is a *runtime constant*: it has no free
    attributes (so correlation analysis and the unnesting equivalences
    treat it like a literal) but an unknown value, so constant folding
    leaves it alone and selectivity estimation falls back to defaults.
    One optimized plan therefore serves every binding of the template.
    """

    key: object  # int | str

    def sql(self) -> str:
        if isinstance(self.key, int):
            return f"?{self.key + 1}"
        return f":{self.key}"


@dataclass(frozen=True)
class Comparison(Expr):
    """``left op right`` with op ∈ {=, <>, <, <=, >, >=} (3-valued)."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def children(self):
        return (self.left, self.right)

    def replace_children(self, children):
        left, right = children
        return Comparison(self.op, left, right)

    def mirrored(self) -> "Comparison":
        """``b mirror(op) a`` — used to normalise subqueries to the right."""
        return Comparison(MIRRORED_OP[self.op], self.right, self.left)

    def sql(self) -> str:
        return f"{self.left.sql()} {self.op} {self.right.sql()}"


@dataclass(frozen=True)
class And(Expr):
    """N-ary conjunction (3-valued)."""

    items: tuple[Expr, ...]

    def children(self):
        return self.items

    def replace_children(self, children):
        return And(tuple(children))

    def sql(self) -> str:
        return "(" + " AND ".join(item.sql() for item in self.items) + ")"


@dataclass(frozen=True)
class Or(Expr):
    """N-ary disjunction (3-valued)."""

    items: tuple[Expr, ...]

    def children(self):
        return self.items

    def replace_children(self, children):
        return Or(tuple(children))

    def sql(self) -> str:
        return "(" + " OR ".join(item.sql() for item in self.items) + ")"


@dataclass(frozen=True)
class Not(Expr):
    """Logical negation (3-valued: NOT UNKNOWN = UNKNOWN)."""

    operand: Expr

    def children(self):
        return (self.operand,)

    def replace_children(self, children):
        (operand,) = children
        return Not(operand)

    def sql(self) -> str:
        return f"NOT ({self.operand.sql()})"


@dataclass(frozen=True)
class Arithmetic(Expr):
    """``left op right`` with op ∈ {+, -, *, /}; NULL-propagating."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in ("+", "-", "*", "/"):
            raise ValueError(f"unknown arithmetic operator {self.op!r}")

    def children(self):
        return (self.left, self.right)

    def replace_children(self, children):
        left, right = children
        return Arithmetic(self.op, left, right)

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op} {self.right.sql()})"


@dataclass(frozen=True)
class Negate(Expr):
    """Unary minus; NULL-propagating."""

    operand: Expr

    def children(self):
        return (self.operand,)

    def replace_children(self, children):
        (operand,) = children
        return Negate(operand)

    def sql(self) -> str:
        return f"-({self.operand.sql()})"


@dataclass(frozen=True)
class Like(Expr):
    """SQL ``LIKE`` with ``%``/``_`` wildcards."""

    operand: Expr
    pattern: str
    negated: bool = False

    def children(self):
        return (self.operand,)

    def replace_children(self, children):
        (operand,) = children
        return Like(operand, self.pattern, self.negated)

    def sql(self) -> str:
        keyword = "NOT LIKE" if self.negated else "LIKE"
        return f"{self.operand.sql()} {keyword} '{self.pattern}'"


@dataclass(frozen=True)
class IsNull(Expr):
    """``expr IS [NOT] NULL`` — always two-valued."""

    operand: Expr
    negated: bool = False

    def children(self):
        return (self.operand,)

    def replace_children(self, children):
        (operand,) = children
        return IsNull(operand, self.negated)

    def sql(self) -> str:
        keyword = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self.operand.sql()} {keyword}"


@dataclass(frozen=True)
class InList(Expr):
    """``expr [NOT] IN (v1, v2, …)`` over literal values."""

    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False

    def children(self):
        return (self.operand,) + self.items

    def replace_children(self, children):
        operand, *items = children
        return InList(operand, tuple(items), self.negated)

    def sql(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        inner = ", ".join(item.sql() for item in self.items)
        return f"{self.operand.sql()} {keyword} ({inner})"


@dataclass(frozen=True)
class Case(Expr):
    """Searched ``CASE WHEN c THEN v … [ELSE d] END``."""

    branches: tuple[tuple[Expr, Expr], ...]
    default: Expr = field(default_factory=lambda: Literal(None))

    def children(self):
        flat: list[Expr] = []
        for cond, value in self.branches:
            flat.extend((cond, value))
        flat.append(self.default)
        return tuple(flat)

    def replace_children(self, children):
        *pairs, default = children
        branches = tuple(
            (pairs[i], pairs[i + 1]) for i in range(0, len(pairs), 2)
        )
        return Case(branches, default)

    def sql(self) -> str:
        parts = [f"WHEN {c.sql()} THEN {v.sql()}" for c, v in self.branches]
        return "CASE " + " ".join(parts) + f" ELSE {self.default.sql()} END"


#: Registry of scalar functions available to queries and map operators.
SCALAR_FUNCTIONS: dict[str, Callable] = {
    "abs": lambda v: None if v is None else abs(v),
    "lower": lambda v: None if v is None else v.lower(),
    "upper": lambda v: None if v is None else v.upper(),
    "length": lambda v: None if v is None else len(v),
    "coalesce": lambda *vs: next((v for v in vs if v is not None), None),
    "mod": lambda a, b: None if a is None or b is None else a % b,
}


@dataclass(frozen=True)
class FunctionCall(Expr):
    """A call to a registered scalar function."""

    name: str
    args: tuple[Expr, ...]

    def __post_init__(self):
        if self.name not in SCALAR_FUNCTIONS:
            raise ValueError(f"unknown scalar function {self.name!r}")

    def children(self):
        return self.args

    def replace_children(self, children):
        return FunctionCall(self.name, tuple(children))

    def sql(self) -> str:
        return f"{self.name}(" + ", ".join(a.sql() for a in self.args) + ")"


# ---------------------------------------------------------------------------
# Subquery expressions — nested algebraic expressions in subscripts
# ---------------------------------------------------------------------------


class SubqueryExpr(Expr):
    """Common base for expressions that embed an algebraic plan."""

    plan: "Operator"

    def plan_free_attrs(self) -> frozenset[str]:
        """Free (correlation) attributes of the embedded plan."""
        return self.plan.free_attrs()


@dataclass(frozen=True)
class ScalarSubquery(SubqueryExpr):
    """A nested query block producing a single scalar value.

    The canonical translation of a type A/JA block: the embedded plan ends
    in a :class:`~repro.algebra.ops.ScalarAggregate` (single row, single
    column).  An empty result evaluates to NULL.
    """

    plan: "Operator"

    def children(self):
        return ()

    def sql(self) -> str:
        return "(<scalar subquery>)"


@dataclass(frozen=True)
class Exists(SubqueryExpr):
    """``[NOT] EXISTS (subquery)`` — a type N/J table subquery."""

    plan: "Operator"
    negated: bool = False

    def children(self):
        return ()

    def sql(self) -> str:
        keyword = "NOT EXISTS" if self.negated else "EXISTS"
        return f"{keyword} (<subquery>)"


@dataclass(frozen=True)
class InSubquery(SubqueryExpr):
    """``operand [NOT] IN (subquery)`` with SQL 3-valued NULL semantics."""

    operand: Expr
    plan: "Operator"
    negated: bool = False

    def children(self):
        return (self.operand,)

    def replace_children(self, children):
        (operand,) = children
        return InSubquery(operand, self.plan, self.negated)

    def sql(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        return f"{self.operand.sql()} {keyword} (<subquery>)"


@dataclass(frozen=True)
class QuantifiedComparison(SubqueryExpr):
    """``operand op ANY|ALL (subquery)`` (technical-report extension)."""

    operand: Expr
    op: str
    quantifier: str  # "any" | "all"
    plan: "Operator"

    def __post_init__(self):
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")
        if self.quantifier not in ("any", "all"):
            raise ValueError(f"quantifier must be any/all, got {self.quantifier!r}")

    def children(self):
        return (self.operand,)

    def replace_children(self, children):
        (operand,) = children
        return QuantifiedComparison(operand, self.op, self.quantifier, self.plan)

    def sql(self) -> str:
        return f"{self.operand.sql()} {self.op} {self.quantifier.upper()} (<subquery>)"


@dataclass(frozen=True)
class AggCombine(Expr):
    """Combine decomposed aggregate partials: ``fO(item1, item2, …)``.

    Introduced by Equivalence 4's map operator ``χ g:fO(g1, g2)``.  Each
    item evaluates to an *inner partial* (the result of ``fI``); the node
    merges them and finalises to the aggregate's output value.
    """

    agg_name: str
    items: tuple[Expr, ...]

    def children(self):
        return self.items

    def replace_children(self, children):
        return AggCombine(self.agg_name, tuple(children))

    def sql(self) -> str:
        inner = ", ".join(item.sql() for item in self.items)
        return f"{self.agg_name}O({inner})"


# ---------------------------------------------------------------------------
# Construction and normalisation helpers
# ---------------------------------------------------------------------------


TRUE = Literal(True)
FALSE = Literal(False)
NULL = Literal(None)


def conjunction(items: Sequence[Expr]) -> Expr:
    """Build a flattened conjunction; empty input yields TRUE."""
    flat: list[Expr] = []
    for item in items:
        if isinstance(item, And):
            flat.extend(item.items)
        elif item == TRUE:
            continue
        else:
            flat.append(item)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disjunction(items: Sequence[Expr]) -> Expr:
    """Build a flattened disjunction; empty input yields FALSE."""
    flat: list[Expr] = []
    for item in items:
        if isinstance(item, Or):
            flat.extend(item.items)
        elif item == FALSE:
            continue
        else:
            flat.append(item)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def conjuncts(expr: Expr) -> list[Expr]:
    """Top-level conjuncts of ``expr`` (flattening nested ANDs)."""
    if isinstance(expr, And):
        out: list[Expr] = []
        for item in expr.items:
            out.extend(conjuncts(item))
        return out
    return [expr]


def disjuncts(expr: Expr) -> list[Expr]:
    """Top-level disjuncts of ``expr`` (flattening nested ORs)."""
    if isinstance(expr, Or):
        out: list[Expr] = []
        for item in expr.items:
            out.extend(disjuncts(item))
        return out
    return [expr]


def eq(left: Expr | str, right: Expr | str) -> Comparison:
    """Shorthand: equality between columns (strings) or expressions."""
    if isinstance(left, str):
        left = ColumnRef(left)
    if isinstance(right, str):
        right = ColumnRef(right)
    return Comparison("=", left, right)


def col(name: str) -> ColumnRef:
    return ColumnRef(name)


def lit(value: object) -> Literal:
    return Literal(value)
