"""Prepared-statement parameters: collection, validation, binding.

The lexer assigns every ``?`` its 0-based occurrence index and folds
``:name`` to lower case; the parser wraps both as :class:`ast.Parameter`
leaves.  This module walks a parsed statement (including every nested
query block and DML value list), derives its :class:`ParamSpec`, and
binds user-supplied arguments into the ``{key: value}`` mapping the
engines read from the execution context.

Binding is strict: positional statements require exactly as many values
as placeholders, named statements require exactly the referenced names —
a missing or unknown name raises :class:`~repro.errors.ParameterError`
rather than silently evaluating to NULL.  A bound NULL (Python ``None``)
is a first-class value with ordinary 3VL semantics: ``A1 = :x`` with
``x = NULL`` is UNKNOWN for every row, never an error (two-valued
reinterpretations of NULL comparisons are the caller's job, per Libkin's
"Handling SQL Nulls with Two-Valued Logic" discussion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro.errors import ParameterError
from repro.sql import ast


def format_key(key: object) -> str:
    """Human-readable spelling of a parameter key."""
    if isinstance(key, int):
        return f"?{key + 1}"
    return f":{key}"


def walk_statement(node: object) -> Iterator[ast.Node]:
    """Deep pre-order walk over *every* AST node of a statement.

    It descends into nested query blocks (subqueries, EXISTS/IN/quantified
    operands, derived tables, CTEs, set operations) and DML value lists,
    so no placeholder is missed.
    """
    if isinstance(node, ast.Node):
        yield node
        for name in node.__dataclass_fields__:  # all AST nodes are dataclasses
            yield from walk_statement(getattr(node, name))
    elif isinstance(node, (tuple, list)):
        for item in node:
            yield from walk_statement(item)


@dataclass(frozen=True)
class ParamSpec:
    """The parameter shape of one statement.

    Exactly one of ``positional`` / ``names`` is populated (a statement
    may use one placeholder style, not both).  ``keys`` preserves first
    occurrence order for display.
    """

    positional: int = 0
    names: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.positional or self.names)

    def describe(self) -> dict:
        """JSON-friendly description (used by the server's /prepare)."""
        return {"positional": self.positional, "named": list(self.names)}

    @classmethod
    def of(cls, statement: object) -> "ParamSpec":
        """Derive the spec of a parsed statement; rejects mixed styles."""
        indices: set[int] = set()
        names: list[str] = []
        seen_names: set[str] = set()
        for node in walk_statement(statement):
            if not isinstance(node, ast.Parameter):
                continue
            if isinstance(node.key, int):
                indices.add(node.key)
            elif node.key not in seen_names:
                seen_names.add(node.key)
                names.append(node.key)
        if indices and names:
            raise ParameterError(
                "cannot mix positional (?) and named (:name) parameters "
                "in one statement"
            )
        return cls(positional=len(indices), names=tuple(names))

    # -- binding -----------------------------------------------------------

    def bind(self, params: Sequence | Mapping | None) -> dict | None:
        """Validate ``params`` against the spec; return the key→value map.

        Positional specs accept a sequence (exact arity); named specs
        accept a mapping over exactly the referenced names.  Statements
        without placeholders accept only ``None`` / empty collections.
        """
        if not self:
            if params:
                raise ParameterError(
                    "statement takes no parameters but values were supplied"
                )
            return None
        if params is None:
            raise ParameterError(
                f"statement requires parameters ({self._shape()}) but none "
                "were supplied"
            )
        if self.positional:
            if isinstance(params, Mapping):
                raise ParameterError(
                    "statement uses positional '?' parameters; pass a "
                    "sequence of values, not a mapping"
                )
            values = list(params)
            if len(values) != self.positional:
                raise ParameterError(
                    f"statement takes {self.positional} positional "
                    f"parameter(s), got {len(values)}"
                )
            return {index: value for index, value in enumerate(values)}
        if not isinstance(params, Mapping):
            raise ParameterError(
                "statement uses named ':name' parameters; pass a mapping "
                "of name to value"
            )
        bound = {str(key).lower(): value for key, value in params.items()}
        unknown = sorted(set(bound) - set(self.names))
        if unknown:
            raise ParameterError(
                f"unknown parameter name(s): {', '.join(unknown)}; "
                f"statement declares {self._shape()}"
            )
        missing = [name for name in self.names if name not in bound]
        if missing:
            raise ParameterError(
                "missing value(s) for parameter(s): "
                + ", ".join(format_key(name) for name in missing)
            )
        return bound

    def _shape(self) -> str:
        if self.positional:
            plural = "s" if self.positional != 1 else ""
            return f"{self.positional} positional placeholder{plural}"
        if self.names:
            return ", ".join(format_key(name) for name in self.names)
        return "no parameters"
