"""Abstract syntax tree for the supported SQL subset.

AST nodes are plain frozen dataclasses produced by the parser and
consumed by the binder/translator and the classifier.  They carry no name
resolution; ``Name("a", qualifier="t")`` is resolved only during
translation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


class Node:
    """Base class for AST nodes.

    Generic traversal goes through the dataclass fields
    (:func:`repro.sql.parameters.walk_statement`).
    """


# ---------------------------------------------------------------------------
# Scalar expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Name(Node):
    """A possibly qualified column reference: ``col`` or ``t.col``."""

    name: str
    qualifier: Optional[str] = None

    def sql(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name


@dataclass(frozen=True)
class Constant(Node):
    """A literal value; ``None`` encodes NULL."""

    value: object


@dataclass(frozen=True)
class Parameter(Node):
    """A prepared-statement placeholder: ``?`` or ``:name``.

    ``key`` is the 0-based occurrence index for positional parameters or
    the case-folded name for named ones.  One statement may use either
    style but not both (enforced by :mod:`repro.sql.parameters`).
    """

    key: object  # int (positional) | str (named)

    def sql(self) -> str:
        if isinstance(self.key, int):
            return "?"
        return f":{self.key}"


@dataclass(frozen=True)
class Star(Node):
    """``*`` (or ``t.*``) in a select list or inside COUNT."""

    qualifier: Optional[str] = None


@dataclass(frozen=True)
class BinaryOp(Node):
    """Comparison or arithmetic: op ∈ {=, <>, <, <=, >, >=, +, -, *, /}."""

    op: str
    left: Node
    right: Node


@dataclass(frozen=True)
class UnaryOp(Node):
    """``-expr`` or ``NOT expr``."""

    op: str  # "-" | "not"
    operand: Node


@dataclass(frozen=True)
class BoolOp(Node):
    """N-ary AND / OR."""

    op: str  # "and" | "or"
    items: tuple[Node, ...]


@dataclass(frozen=True)
class LikeOp(Node):
    """``operand [NOT] LIKE 'pattern'``."""

    operand: Node
    pattern: str
    negated: bool = False


@dataclass(frozen=True)
class IsNullOp(Node):
    """``operand IS [NOT] NULL``."""

    operand: Node
    negated: bool = False


@dataclass(frozen=True)
class InListOp(Node):
    """``operand [NOT] IN (value, ...)``."""

    operand: Node
    items: tuple[Node, ...]
    negated: bool = False


@dataclass(frozen=True)
class BetweenOp(Node):
    """``operand [NOT] BETWEEN low AND high``."""

    operand: Node
    low: Node
    high: Node
    negated: bool = False


@dataclass(frozen=True)
class CaseExpr(Node):
    """Searched CASE."""

    branches: tuple[tuple[Node, Node], ...]
    default: Optional[Node] = None


@dataclass(frozen=True)
class FuncCall(Node):
    """A scalar or aggregate function call.

    The parser does not distinguish scalar from aggregate functions; the
    translator does, because only it knows the aggregate registry and the
    query position.  ``distinct`` and the :class:`Star` argument are only
    legal for aggregates.
    """

    name: str
    args: tuple[Node, ...]
    distinct: bool = False


# ---------------------------------------------------------------------------
# Subquery expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subquery(Node):
    """A parenthesised query block used as a scalar expression."""

    query: "SelectStmt"


@dataclass(frozen=True)
class ExistsOp(Node):
    """``[NOT] EXISTS (subquery)``."""

    query: "SelectStmt"
    negated: bool = False


@dataclass(frozen=True)
class InSubqueryOp(Node):
    """``operand [NOT] IN (subquery)``."""

    operand: Node
    query: "SelectStmt"
    negated: bool = False


@dataclass(frozen=True)
class QuantifiedOp(Node):
    """``operand op ANY|SOME|ALL (subquery)``."""

    operand: Node
    op: str
    quantifier: str  # "any" | "all"
    query: "SelectStmt"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableRef(Node):
    """One FROM-list entry: ``table [AS] alias`` or ``(subquery) alias``.

    A derived table (``subquery`` set, ``table`` empty) must carry an
    alias — SQL requires one, and the binder uses it as the binding name.
    """

    table: str
    alias: Optional[str] = None
    subquery: Optional["SelectStmt"] = None

    @property
    def binding_name(self) -> str:
        return self.alias or self.table


@dataclass(frozen=True)
class SelectItem(Node):
    """One select-list entry: expression with optional alias, or ``*``."""

    expr: Node
    alias: Optional[str] = None


@dataclass(frozen=True)
class OrderItem(Node):
    """One ORDER BY entry."""

    expr: Node
    ascending: bool = True


@dataclass(frozen=True)
class SelectStmt(Node):
    """A query block: [WITH ...] SELECT [DISTINCT] ... FROM ... [WHERE ...]

    ``group_by``/``having`` are accepted by the parser for completeness
    (the paper's queries never use them on the outer block; the translator
    supports grouping without nested subqueries in HAVING).  ``ctes``
    holds ``WITH name AS (...)`` definitions, visible to this block and
    everything nested inside it (non-recursive).
    """

    items: tuple[SelectItem, ...]
    tables: tuple[TableRef, ...]
    where: Optional[Node] = None
    group_by: tuple[Node, ...] = ()
    having: Optional[Node] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    distinct: bool = False
    ctes: tuple[tuple[str, "SelectStmt"], ...] = ()


@dataclass(frozen=True)
class SetOpStmt(Node):
    """``left UNION [ALL] | INTERSECT | EXCEPT right``.

    ``op`` ∈ {"union", "intersect", "except"}; ``all`` is only legal for
    UNION.  Operands may themselves be set operations (left-associative).
    """

    op: str
    left: "Statement"
    right: "Statement"
    all: bool = False


#: Anything the query parser may return at statement level.
Statement = "SelectStmt | SetOpStmt"


@dataclass(frozen=True)
class InsertStmt(Node):
    """``INSERT INTO table [(cols)] VALUES (...), ... | SELECT ...``."""

    table: str
    columns: tuple[str, ...] = ()  # empty = table order
    values: tuple[tuple[Node, ...], ...] = ()
    query: Optional["SelectStmt"] = None  # or a SetOpStmt


@dataclass(frozen=True)
class DeleteStmt(Node):
    """``DELETE FROM table [WHERE pred]``."""

    table: str
    where: Optional[Node] = None


@dataclass(frozen=True)
class UpdateStmt(Node):
    """``UPDATE table SET col = expr [, ...] [WHERE pred]``."""

    table: str
    assignments: tuple[tuple[str, Node], ...] = ()
    where: Optional[Node] = None


@dataclass(frozen=True)
class CreateIndexStmt(Node):
    """``CREATE INDEX name ON table (column) [USING hash|sorted]``."""

    name: str
    table: str
    column: str
    method: str = "hash"


@dataclass(frozen=True)
class DropIndexStmt(Node):
    """``DROP INDEX name``."""

    name: str
