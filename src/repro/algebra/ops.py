"""Logical operators: the core algebra plus the paper's extensions.

Core operators (§2.3): selection, projection, renaming, cross product /
join, union / intersection / difference, disjoint union.

Extended operators (Fig. 1): unary grouping ``Γ``, binary grouping ``Γ``
(two inputs), leftouterjoin with a default function ``g:f(∅)`` (fixing
the *count bug*), numbering ``ν``, and map ``χ``.

Bypass operators (Kemper et al. [17]): :class:`BypassSelect` and
:class:`BypassJoin` split their input into a *positive* and a *negative*
stream.  Streams are consumed through :class:`StreamTap` nodes, so plans
containing bypass operators are DAGs — both taps share the single bypass
node, which the executor evaluates exactly once.

Operators are immutable after construction and compare by identity (DAG
sharing is significant).  Attribute identity is name-based; the SQL binder
guarantees global uniqueness of names, which is what lets ``free_attrs``
— the correlation attributes of a nested plan — be a simple set
difference.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterator, Sequence

from repro.algebra.aggregates import AggSpec
from repro.algebra.expr import Expr, SubqueryExpr
from repro.errors import SchemaError
from repro.storage.schema import Column, Schema


class Operator:
    """Base class for logical operators."""

    __slots__ = ("schema", "_free_cache")

    schema: Schema

    def __init__(self, schema: Schema):
        self.schema = schema
        self._free_cache: frozenset[str] | None = None

    # -- tree structure ------------------------------------------------------

    def children(self) -> tuple["Operator", ...]:
        return ()

    def replace_children(self, children: Sequence["Operator"]) -> "Operator":
        if children:
            raise ValueError(f"{type(self).__name__} takes no children")
        return self

    def exprs(self) -> tuple[Expr, ...]:
        """Scalar expressions in this operator's subscript."""
        return ()

    def agg_specs(self) -> tuple[AggSpec, ...]:
        """Aggregate specifications in this operator's subscript."""
        return ()

    def iter_dag(self, nested: bool = False) -> Iterator["Operator"]:
        """All nodes of the plan DAG, each visited once (pre-order).

        With ``nested`` the walk continues into the plans embedded in
        subscripts, so it covers the whole query, not one block's DAG.
        """
        seen: set[int] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            yield node
            if nested:
                stack.extend(node.subquery_plans())
            stack.extend(reversed(node.children()))

    def subquery_plans(self) -> Iterator["Operator"]:
        """Plans embedded in subquery expressions of this node's subscript."""
        for expression in self.exprs():
            for node in expression.walk():
                if isinstance(node, SubqueryExpr):
                    yield node.plan

    # -- free attributes -----------------------------------------------------

    def _input_names(self) -> frozenset[str]:
        names: set[str] = set()
        for child in self.children():
            names.update(child.schema.names)
        return frozenset(names)

    def free_attrs(self) -> frozenset[str]:
        """Attributes referenced but not produced below — correlation.

        A plan with an empty ``free_attrs`` set is self-contained; a
        nested plan embedded in a :class:`~repro.algebra.expr.ScalarSubquery`
        with non-empty free attributes is *correlated* on those names.
        """
        if self._free_cache is not None:
            return self._free_cache
        referenced: set[str] = set()
        for expression in self.exprs():
            referenced.update(expression.free_attrs())
        for spec in self.agg_specs():
            referenced.update(spec.free_attrs())
        free = referenced - self._input_names()
        for child in self.children():
            free |= child.free_attrs()
        result = frozenset(free)
        self._free_cache = result
        return result

    # -- transformation -------------------------------------------------------
    # Every plan pass is these four plus its own rules: each node once (the
    # pass's memo), sharing kept, nested plans entered.

    def with_exprs(self, exprs: Sequence[Expr]) -> "Operator":
        """This node with its subscript replaced — the inverse of :meth:`exprs`."""
        if exprs:
            raise ValueError(f"{type(self).__name__} has no subscript expressions")
        return self

    def map_children(self, fn: Callable[["Operator"], "Operator"]) -> "Operator":
        """Rebuild over ``fn(child)``; ``self`` when no child changed.

        A pass whose ``fn`` is memoised by node identity keeps DAG sharing
        by construction: both taps of a bypass operator get the one
        rewritten bypass node back (:meth:`StreamTap.replace_children`).
        """
        children = self.children()
        new_children = [fn(child) for child in children]
        if all(new is old for new, old in zip(new_children, children)):
            return self
        return self.replace_children(new_children)

    def map_exprs(self, fn: Callable[[Expr], Expr]) -> "Operator":
        """Rebuild over ``fn(expr)`` per subscript expression; ``self`` if unchanged."""
        exprs = self.exprs()
        new_exprs = [fn(expression) for expression in exprs]
        if all(new is old for new, old in zip(new_exprs, exprs)):
            return self
        return self.with_exprs(new_exprs)

    def map_subplans(self, fn: Callable[["Operator"], "Operator"]) -> "Operator":
        """Apply ``fn`` to every plan nested in this node's subscript."""
        return self.map_exprs(lambda expression: expression.map_subplans(fn))

    # -- misc -------------------------------------------------------------------

    def label(self) -> str:
        """Short human-readable label used by the explain renderer."""
        return type(self).__name__

    def __repr__(self) -> str:
        return f"<{self.label()} schema={list(self.schema.names)}>"


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


class Scan(Operator):
    """A base-table scan.

    ``table_name`` names a catalog table; ``schema`` carries the (usually
    qualifier-prefixed) output attribute names in catalog column order.
    """

    __slots__ = ("table_name", "qualifier")

    def __init__(self, table_name: str, schema: Schema, qualifier: str = ""):
        super().__init__(schema)
        self.table_name = table_name
        self.qualifier = qualifier

    def label(self) -> str:
        if self.qualifier:
            return f"Scan({self.table_name} as {self.qualifier})"
        return f"Scan({self.table_name})"


class IndexScan(Scan):
    """An index-backed scan with pushed-down key predicate and projection.

    Produced only by the access-path pass (:mod:`repro.optimizer.access`)
    — the SQL translator always emits plain :class:`Scan` leaves.

    ``bounds`` is the key predicate as ``(op, expr)`` pairs over
    ``key_attr`` (one pair for ``=``/single-sided ranges, two for a
    two-sided range); the bound expressions are free of this scan's own
    attributes, so any attribute they mention is correlation resolved
    from the environment (the Eqv. 1/4 hot path).  ``residual`` is the
    remainder of the original selection, evaluated on matching rows.
    ``projection`` (base-column positions) narrows the output schema;
    ``None`` keeps every column.  ``source_names`` always holds the full
    qualified column list so :meth:`free_attrs` knows the residual's own
    columns are bound here even when projected away.
    """

    __slots__ = ("index_name", "index_kind", "key_attr", "bounds", "residual", "projection", "source_names")

    def __init__(
        self,
        table_name: str,
        schema: Schema,
        qualifier: str,
        index_name: str,
        index_kind: str,
        key_attr: str,
        bounds: tuple,
        residual: Expr | None,
        projection: tuple[int, ...] | None,
        source_names: tuple[str, ...],
    ):
        super().__init__(table_name, schema, qualifier)
        self.index_name = index_name
        self.index_kind = index_kind
        self.key_attr = key_attr
        self.bounds = tuple(bounds)
        self.residual = residual
        self.projection = tuple(projection) if projection is not None else None
        self.source_names = tuple(source_names)

    def _input_names(self):
        # A leaf binds its own columns: without this override the residual
        # predicate's references to this table would count as free
        # (correlation) attributes of the whole plan.
        return frozenset(self.source_names)

    def exprs(self):
        expressions = [expr for _, expr in self.bounds]
        if self.residual is not None:
            expressions.append(self.residual)
        return tuple(expressions)

    def with_exprs(self, exprs):
        bounds = tuple((op, expr) for (op, _), expr in zip(self.bounds, exprs))
        residual = exprs[len(bounds)] if self.residual is not None else None
        return IndexScan(
            self.table_name,
            self.schema,
            self.qualifier,
            self.index_name,
            self.index_kind,
            self.key_attr,
            bounds,
            residual,
            self.projection,
            self.source_names,
        )

    def key_sql(self) -> str:
        return " and ".join(f"{self.key_attr} {op} {expr.sql()}" for op, expr in self.bounds)

    def label(self):
        target = self.table_name
        if self.qualifier:
            target = f"{self.table_name} as {self.qualifier}"
        parts = [f"{target} via {self.index_name}:{self.index_kind}", self.key_sql()]
        if self.residual is not None:
            parts.append(f"residual {self.residual.sql()}")
        if self.projection is not None:
            parts.append(f"cols {len(self.projection)}/{len(self.source_names)}")
        return f"IndexScan({' | '.join(parts)})"


# ---------------------------------------------------------------------------
# Unary operators
# ---------------------------------------------------------------------------


class UnaryOperator(Operator):
    """Base for operators with a single input."""

    __slots__ = ("child",)

    def __init__(self, child: Operator, schema: Schema):
        super().__init__(schema)
        self.child = child

    def children(self):
        return (self.child,)


class Select(UnaryOperator):
    """Selection σ — keeps rows whose predicate evaluates to TRUE.

    The predicate may contain nested algebraic expressions (subqueries);
    this is exactly the shape the canonical SQL translation produces and
    the unnesting rewriter consumes.
    """

    __slots__ = ("predicate",)

    def __init__(self, child: Operator, predicate: Expr):
        super().__init__(child, child.schema)
        self.predicate = predicate

    def replace_children(self, children):
        (child,) = children
        return Select(child, self.predicate)

    def exprs(self):
        return (self.predicate,)

    def with_exprs(self, exprs):
        (predicate,) = exprs
        return Select(self.child, predicate)

    def label(self):
        return f"Select[{self.predicate.sql()}]"


class BypassSelect(UnaryOperator):
    """Bypass selection σ± — partitions the input into two streams.

    ``positive`` receives rows whose predicate is TRUE; ``negative``
    receives the complement (FALSE or UNKNOWN), so the two streams always
    form a disjoint partition of the input bag.  Consume via
    :attr:`positive` / :attr:`negative`.
    """

    __slots__ = ("predicate", "_positive", "_negative")

    def __init__(self, child: Operator, predicate: Expr):
        super().__init__(child, child.schema)
        self.predicate = predicate
        self._positive: StreamTap | None = None
        self._negative: StreamTap | None = None

    @property
    def positive(self) -> "StreamTap":
        if self._positive is None:
            self._positive = StreamTap(self, positive=True)
        return self._positive

    @property
    def negative(self) -> "StreamTap":
        if self._negative is None:
            self._negative = StreamTap(self, positive=False)
        return self._negative

    def replace_children(self, children):
        (child,) = children
        return BypassSelect(child, self.predicate)

    def exprs(self):
        return (self.predicate,)

    def with_exprs(self, exprs):
        (predicate,) = exprs
        return BypassSelect(self.child, predicate)

    def label(self):
        return f"BypassSelect±[{self.predicate.sql()}]"


class StreamTap(UnaryOperator):
    """One output stream (positive or negative) of a bypass operator."""

    __slots__ = ("positive_stream",)

    def __init__(self, bypass: Operator, positive: bool):
        if not isinstance(bypass, (BypassSelect, BypassJoin)):
            raise SchemaError("StreamTap requires a bypass operator input")
        super().__init__(bypass, bypass.schema)
        self.positive_stream = positive

    def replace_children(self, children):
        (bypass,) = children
        if isinstance(bypass, (BypassSelect, BypassJoin)):
            return bypass.positive if self.positive_stream else bypass.negative
        raise SchemaError("StreamTap child must remain a bypass operator")

    def label(self):
        return "+stream" if self.positive_stream else "−stream"


class Project(UnaryOperator):
    """Bag projection Π onto a list of attribute names (no dedup)."""

    __slots__ = ("names",)

    def __init__(self, child: Operator, names: Sequence[str]):
        super().__init__(child, child.schema.project(names))
        self.names = tuple(names)

    def replace_children(self, children):
        (child,) = children
        return Project(child, self.names)

    def label(self):
        return f"Project[{', '.join(self.names)}]"


class Distinct(UnaryOperator):
    """Duplicate elimination Π^D (bag → set)."""

    def __init__(self, child: Operator):
        super().__init__(child, child.schema)

    def replace_children(self, children):
        (child,) = children
        return Distinct(child)

    def label(self):
        return "Distinct"


class Rename(UnaryOperator):
    """Renaming ρ — e.g. ``ρ t1'←t1`` in Equivalence 5."""

    __slots__ = ("mapping",)

    def __init__(self, child: Operator, mapping: dict[str, str]):
        super().__init__(child, child.schema.rename(mapping))
        self.mapping = dict(mapping)

    def replace_children(self, children):
        (child,) = children
        return Rename(child, self.mapping)

    def label(self):
        pairs = ", ".join(f"{new}←{old}" for old, new in self.mapping.items())
        return f"Rename[{pairs}]"


class Map(UnaryOperator):
    """Map χ — extends each tuple with one computed attribute.

    ``χ g:fO(g1,g2)`` in Equivalence 4 recombines decomposed aggregate
    partials; the front-end also uses maps for computed select items.
    """

    __slots__ = ("name", "expression")

    def __init__(self, child: Operator, name: str, expression: Expr):
        super().__init__(child, child.schema.extend(Column(name)))
        self.name = name
        self.expression = expression

    def replace_children(self, children):
        (child,) = children
        return Map(child, self.name, self.expression)

    def exprs(self):
        return (self.expression,)

    def with_exprs(self, exprs):
        (expression,) = exprs
        return Map(self.child, self.name, expression)

    def label(self):
        return f"Map[{self.name} := {self.expression.sql()}]"


class Numbering(UnaryOperator):
    """Numbering ν — tags each tuple with a unique sequence number.

    Turns any bag into a set, which is what makes Equivalence 5 correct
    over multisets (§3.7): the number is the grouping key that reassembles
    aggregation results per original outer tuple.
    """

    __slots__ = ("name",)

    def __init__(self, child: Operator, name: str):
        super().__init__(child, child.schema.extend(Column(name)))
        self.name = name

    def replace_children(self, children):
        (child,) = children
        return Numbering(child, self.name)

    def label(self):
        return f"Numbering[{self.name}]"


def _with_agg_args(aggregates, exprs: Sequence[Expr]) -> list[tuple[str, AggSpec]]:
    """Put ``exprs`` back into the non-``*`` argument slots of ``aggregates``."""
    args = iter(exprs)
    return [
        (name, replace(spec, arg=next(args)) if isinstance(spec.arg, Expr) else spec)
        for name, spec in aggregates
    ]


class GroupBy(UnaryOperator):
    """Unary grouping Γ — group on key attributes, evaluate aggregates.

    Output schema: the grouping keys followed by one column per aggregate.
    Defined via the binary grouping operator in the paper (Fig. 1); the
    runtime uses a hash implementation.
    """

    __slots__ = ("keys", "aggregates")

    def __init__(self, child: Operator, keys: Sequence[str], aggregates: Sequence[tuple[str, AggSpec]]):
        for key in keys:
            child.schema.position(key)  # validate
        schema = Schema(
            [child.schema[key] for key in keys] + [Column(name) for name, _ in aggregates]
        )
        super().__init__(child, schema)
        self.keys = tuple(keys)
        self.aggregates = tuple(aggregates)

    def replace_children(self, children):
        (child,) = children
        return GroupBy(child, self.keys, self.aggregates)

    def agg_specs(self):
        return tuple(spec for _, spec in self.aggregates)

    def exprs(self):
        return tuple(
            spec.arg for _, spec in self.aggregates if isinstance(spec.arg, Expr)
        )

    def with_exprs(self, exprs):
        return GroupBy(self.child, self.keys, _with_agg_args(self.aggregates, exprs))

    def label(self):
        aggs = ", ".join(f"{name}:{spec.sql()}" for name, spec in self.aggregates)
        return f"GroupBy[{', '.join(self.keys)}; {aggs}]"


class ScalarAggregate(UnaryOperator):
    """Aggregation without grouping — always produces exactly one row.

    This is the top of every translated scalar subquery (type A/JA): a
    single row holding ``f(...)`` per aggregate, with ``f(∅)`` over an
    empty input.
    """

    __slots__ = ("aggregates",)

    def __init__(self, child: Operator, aggregates: Sequence[tuple[str, AggSpec]]):
        schema = Schema([Column(name) for name, _ in aggregates])
        super().__init__(child, schema)
        self.aggregates = tuple(aggregates)

    def replace_children(self, children):
        (child,) = children
        return ScalarAggregate(child, self.aggregates)

    def agg_specs(self):
        return tuple(spec for _, spec in self.aggregates)

    def exprs(self):
        return tuple(
            spec.arg for _, spec in self.aggregates if isinstance(spec.arg, Expr)
        )

    def with_exprs(self, exprs):
        return ScalarAggregate(self.child, _with_agg_args(self.aggregates, exprs))

    def label(self):
        aggs = ", ".join(f"{name}:{spec.sql()}" for name, spec in self.aggregates)
        return f"ScalarAgg[{aggs}]"


class Sort(UnaryOperator):
    """Sort by a list of ``(attribute, ascending)`` pairs (stable)."""

    __slots__ = ("keys",)

    def __init__(self, child: Operator, keys: Sequence[tuple[str, bool]]):
        for name, _ in keys:
            child.schema.position(name)
        super().__init__(child, child.schema)
        self.keys = tuple(keys)

    def replace_children(self, children):
        (child,) = children
        return Sort(child, self.keys)

    def label(self):
        parts = ", ".join(f"{n} {'ASC' if asc else 'DESC'}" for n, asc in self.keys)
        return f"Sort[{parts}]"


class Limit(UnaryOperator):
    """Keep the first ``count`` rows of the input."""

    __slots__ = ("count",)

    def __init__(self, child: Operator, count: int):
        super().__init__(child, child.schema)
        self.count = count

    def replace_children(self, children):
        (child,) = children
        return Limit(child, self.count)

    def label(self):
        return f"Limit[{self.count}]"


# ---------------------------------------------------------------------------
# Binary operators
# ---------------------------------------------------------------------------


class BinaryOperator(Operator):
    """Base for operators with two inputs."""

    __slots__ = ("left", "right")

    def __init__(self, left: Operator, right: Operator, schema: Schema):
        super().__init__(schema)
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)


class CrossProduct(BinaryOperator):
    """Cartesian product ×."""

    def __init__(self, left: Operator, right: Operator):
        super().__init__(left, right, left.schema.concat(right.schema))

    def replace_children(self, children):
        left, right = children
        return CrossProduct(left, right)

    def label(self):
        return "CrossProduct"


class Join(BinaryOperator):
    """Inner θ-join ⋈p."""

    __slots__ = ("predicate",)

    def __init__(self, left: Operator, right: Operator, predicate: Expr):
        super().__init__(left, right, left.schema.concat(right.schema))
        self.predicate = predicate

    def replace_children(self, children):
        left, right = children
        return Join(left, right, self.predicate)

    def exprs(self):
        return (self.predicate,)

    def with_exprs(self, exprs):
        (predicate,) = exprs
        return Join(self.left, self.right, predicate)

    def label(self):
        return f"Join[{self.predicate.sql()}]"


class IndexNLJoin(Join):
    """Index nested-loop join: probe the right table's index per left row.

    Chosen by the access-path pass when the right input is a plain
    :class:`Scan` whose table has a hash index on one side of an
    equi-join key.  ``predicate`` keeps the *full* original join
    predicate (so semantics and cardinality estimation are unchanged);
    ``residual`` is the part left over after removing the indexed
    equi-conjunct, evaluated on each probed pair.
    """

    __slots__ = ("index_name", "index_kind", "left_key", "right_key", "residual")

    def __init__(
        self,
        left: Operator,
        right: Operator,
        predicate: Expr,
        index_name: str,
        index_kind: str,
        left_key: str,
        right_key: str,
        residual: Expr | None,
    ):
        super().__init__(left, right, predicate)
        self.index_name = index_name
        self.index_kind = index_kind
        self.left_key = left_key
        self.right_key = right_key
        self.residual = residual

    def replace_children(self, children):
        left, right = children
        if type(right) is not Scan:
            # The probe side must stay a plain base-table scan; degrade to
            # an ordinary join if a transformation changed it.
            return Join(left, right, self.predicate)
        return IndexNLJoin(
            left,
            right,
            self.predicate,
            self.index_name,
            self.index_kind,
            self.left_key,
            self.right_key,
            self.residual,
        )

    def exprs(self):
        if self.residual is not None:
            return (self.predicate, self.residual)
        return (self.predicate,)

    def with_exprs(self, exprs):
        predicate, *residual = exprs
        return IndexNLJoin(
            self.left,
            self.right,
            predicate,
            self.index_name,
            self.index_kind,
            self.left_key,
            self.right_key,
            residual[0] if residual else None,
        )

    def label(self):
        parts = [
            f"{self.left_key} = {self.right_key} via {self.index_name}:{self.index_kind}"
        ]
        if self.residual is not None:
            parts.append(f"residual {self.residual.sql()}")
        return f"IndexNLJoin[{' | '.join(parts)}]"


class LeftOuterJoin(BinaryOperator):
    """Leftouterjoin with default values for unmatched left tuples.

    ``defaults`` maps right-side attribute names to constant values used
    when a left tuple finds no partner; all other right attributes become
    NULL.  Setting the aggregate column's default to ``f(∅)`` is exactly
    the paper's ``⟕^{g:f(∅)}`` — the fix for the *count bug*.
    """

    __slots__ = ("predicate", "defaults")

    def __init__(self, left: Operator, right: Operator, predicate: Expr, defaults: dict[str, object] | None = None):
        super().__init__(left, right, left.schema.concat(right.schema))
        self.predicate = predicate
        self.defaults = dict(defaults or {})
        for name in self.defaults:
            right.schema.position(name)  # defaults apply to the right side

    def replace_children(self, children):
        left, right = children
        return LeftOuterJoin(left, right, self.predicate, self.defaults)

    def exprs(self):
        return (self.predicate,)

    def with_exprs(self, exprs):
        (predicate,) = exprs
        return LeftOuterJoin(self.left, self.right, predicate, self.defaults)

    def label(self):
        if self.defaults:
            pairs = ", ".join(f"{k}:{v!r}" for k, v in self.defaults.items())
            return f"LeftOuterJoin[{self.predicate.sql()} | defaults {pairs}]"
        return f"LeftOuterJoin[{self.predicate.sql()}]"


class SemiJoin(BinaryOperator):
    """Left semijoin ⋉ — left tuples with at least one partner."""

    __slots__ = ("predicate",)

    def __init__(self, left: Operator, right: Operator, predicate: Expr):
        super().__init__(left, right, left.schema)
        self.predicate = predicate

    def replace_children(self, children):
        left, right = children
        return SemiJoin(left, right, self.predicate)

    def exprs(self):
        return (self.predicate,)

    def with_exprs(self, exprs):
        (predicate,) = exprs
        return SemiJoin(self.left, self.right, predicate)

    def label(self):
        return f"SemiJoin[{self.predicate.sql()}]"


class AntiJoin(BinaryOperator):
    """Left antijoin ▷ — left tuples with no partner."""

    __slots__ = ("predicate",)

    def __init__(self, left: Operator, right: Operator, predicate: Expr):
        super().__init__(left, right, left.schema)
        self.predicate = predicate

    def replace_children(self, children):
        left, right = children
        return AntiJoin(left, right, self.predicate)

    def exprs(self):
        return (self.predicate,)

    def with_exprs(self, exprs):
        (predicate,) = exprs
        return AntiJoin(self.left, self.right, predicate)

    def label(self):
        return f"AntiJoin[{self.predicate.sql()}]"


class BypassJoin(BinaryOperator):
    """Bypass join ⋈± (two-valued logic, cf. [17]).

    The positive stream holds concatenated pairs satisfying the predicate;
    the negative stream holds the remaining pairs of the cross product.
    Consume via :attr:`positive` / :attr:`negative`.
    """

    __slots__ = ("predicate", "_positive", "_negative")

    def __init__(self, left: Operator, right: Operator, predicate: Expr):
        super().__init__(left, right, left.schema.concat(right.schema))
        self.predicate = predicate
        self._positive: StreamTap | None = None
        self._negative: StreamTap | None = None

    @property
    def positive(self) -> StreamTap:
        if self._positive is None:
            self._positive = StreamTap(self, positive=True)
        return self._positive

    @property
    def negative(self) -> StreamTap:
        if self._negative is None:
            self._negative = StreamTap(self, positive=False)
        return self._negative

    def replace_children(self, children):
        left, right = children
        return BypassJoin(left, right, self.predicate)

    def exprs(self):
        return (self.predicate,)

    def with_exprs(self, exprs):
        (predicate,) = exprs
        return BypassJoin(self.left, self.right, predicate)

    def label(self):
        return f"BypassJoin±[{self.predicate.sql()}]"


class BinaryGroupBy(BinaryOperator):
    """Binary grouping Γ — ``left Γ g; lkey θ rkey; f right``.

    For every left tuple ``x``, evaluates ``f`` over the bag of right
    tuples ``y`` with ``x.lkey θ y.rkey`` and emits ``x ∘ [g: f(...)]``.
    An empty match bag yields ``f(∅)`` — no count bug by construction.

    ``spec.arg`` is evaluated over the *right* schema; a STAR argument
    consumes the projection of the right tuple onto ``star_names`` (the
    rewriter passes the original inner block's attributes so that e.g.
    ``COUNT(DISTINCT *)`` keeps its meaning after the bypass join widened
    the tuples).
    """

    __slots__ = ("name", "left_key", "right_key", "op", "spec", "star_names")

    def __init__(
        self,
        left: Operator,
        right: Operator,
        name: str,
        left_key: str,
        right_key: str,
        spec: AggSpec,
        op: str = "=",
        star_names: Sequence[str] | None = None,
    ):
        left.schema.position(left_key)
        right.schema.position(right_key)
        super().__init__(left, right, left.schema.extend(Column(name)))
        self.name = name
        self.left_key = left_key
        self.right_key = right_key
        self.op = op
        self.spec = spec
        self.star_names = tuple(star_names) if star_names else None

    def replace_children(self, children):
        left, right = children
        return BinaryGroupBy(
            left, right, self.name, self.left_key, self.right_key,
            self.spec, self.op, self.star_names,
        )

    def agg_specs(self):
        return (self.spec,)

    def exprs(self):
        if isinstance(self.spec.arg, Expr):
            return (self.spec.arg,)
        return ()

    def with_exprs(self, exprs):
        ((_, spec),) = _with_agg_args([(self.name, self.spec)], exprs)
        return BinaryGroupBy(
            self.left, self.right, self.name, self.left_key, self.right_key,
            spec, self.op, self.star_names,
        )

    def label(self):
        return (
            f"BinaryGroupBy[{self.name}; {self.left_key} {self.op} "
            f"{self.right_key}; {self.spec.sql()}]"
        )


class _SetOperator(BinaryOperator):
    """Base for union-family operators; validates arity compatibility."""

    def __init__(self, left: Operator, right: Operator):
        if len(left.schema) != len(right.schema):
            raise SchemaError(
                f"{type(self).__name__} inputs have different arity: "
                f"{len(left.schema)} vs {len(right.schema)}"
            )
        super().__init__(left, right, left.schema)


class UnionAll(_SetOperator):
    """Disjoint/bag union ∪̇ — concatenates the inputs.

    The final operator of every unnested bypass plan: the positive and
    negative streams are disjoint by construction, so bag concatenation
    preserves duplicates exactly (§3.7).
    """

    def replace_children(self, children):
        left, right = children
        return UnionAll(left, right)

    def label(self):
        return "UnionAll(∪̇)"


class Union(_SetOperator):
    """Set union with duplicate elimination (SQL UNION)."""

    def replace_children(self, children):
        left, right = children
        return Union(left, right)

    def label(self):
        return "Union"


class Intersect(_SetOperator):
    """Set intersection (SQL INTERSECT)."""

    def replace_children(self, children):
        left, right = children
        return Intersect(left, right)

    def label(self):
        return "Intersect"


class Difference(_SetOperator):
    """Set difference (SQL EXCEPT)."""

    def replace_children(self, children):
        left, right = children
        return Difference(left, right)

    def label(self):
        return "Difference"


def union_all(streams: Sequence[Operator]) -> Operator:
    """Fold a list of streams into a left-deep chain of ∪̇ nodes."""
    if not streams:
        raise SchemaError("union_all requires at least one stream")
    result = streams[0]
    for stream in streams[1:]:
        result = UnionAll(result, stream)
    return result
