"""Physical operators: the materialising runtime algebra.

Every operator of both engines runs through one method,
:meth:`PhysicalOperator.invoke` — the per-invocation contract, in this
order: the fault site ``FAULT_DOMAIN + class name``, the memo lookup, the
operator's own ``_run``, the memo store, the governor's memory charge and
the EXPLAIN ANALYZE statistics.  ``_run`` returns the operator's one
result kind: a row list here, a :class:`~repro.storage.batch.Batch` for a
batch operator, a ``(positive, negative)`` split for a bypass operator of
either engine.  ``execute(ctx, env) -> list[row]`` is what a row parent
calls (``invoke`` itself for a row operator); ``env`` maps correlation
attribute names to values (nested plans are re-executed per outer
binding).

Memoisation: operators flagged ``memoize`` (shared DAG nodes and every
bypass operator) cache their result in ``ctx.memo`` keyed by
``(id(self), correlation values)`` — the node fixes the result kind — so
a bypass operator consumed through both taps is evaluated exactly once
per environment.

Implementation choices mirror a textbook main-memory engine: hash joins
and hash grouping wherever an equality key exists, nested loops as the
general fallback — plus the paper's specials: the leftouterjoin with
``f(∅)`` defaults, the numbering operator, and the binary grouping
operator (hash implementation per May & Moerkotte, XSym 2005).  The batch
engine has its own forms of ⋈±, ``=``-keyed binary Γ and the nested-loop
join (:mod:`repro.engine.vector_ops`); the ones here are their reference
semantics and what a healed request falls back to.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.algebra.aggregates import AggSpec, evaluate_spec
from repro.errors import ExecutionError, PlanningError
from repro.storage.index import index_for, probe_bounds
from repro.storage.schema import Schema


class PhysicalOperator:
    """Base class: the invocation contract, environment signatures."""

    __slots__ = ("schema", "free_names", "memoize")

    #: Fault-injection site prefix; the vectorized subclasses override it
    #: so chaos configs can target one engine without naming every class.
    FAULT_DOMAIN = "engine.row."

    #: Whether ``_run`` returns a bypass split, ``(positive, negative)``.
    SPLIT = False

    def __init__(self, schema: Schema):
        self.schema = schema
        #: Correlation attributes the result depends on; the compiler
        #: sets them from the logical node (the memo key).
        self.free_names = ()
        self.memoize = False

    def env_signature(self, env: dict) -> tuple:
        return tuple(env.get(name) for name in self.free_names)

    def invoke(self, ctx, env: dict):
        """This operator's result for ``env``: the one contract of both
        engines.  The fault site fires on every invocation, memo hits
        included; a memo hit is neither charged nor counted again.  With
        ``collect_stats`` on, an invocation's rows and time are recorded
        (:meth:`~repro.engine.context.ExecStats.record`)."""
        if ctx.faults is not None:
            ctx.faults.maybe_fail(self.FAULT_DOMAIN + type(self).__name__)
        if self.memoize:
            key = (id(self), self.env_signature(env))
            result = ctx.memo.get(key)
            if result is not None:
                return result
        clock = ctx.stats.start() if ctx.options.collect_stats else None
        result = self._run(ctx, env)
        if self.memoize:
            ctx.memo[key] = result
        if self.SPLIT:
            positive, negative = result
            produced = len(positive) + len(negative)
            ctx.account_memory(produced, positive or negative)
        else:
            produced = len(result)
            ctx.account_memory(produced, result)
        if clock is not None:
            ctx.stats.record(self, produced, clock)
        return result

    #: A row parent's read: the rows themselves for a row operator.
    execute = invoke

    def children(self) -> tuple["PhysicalOperator", ...]:
        """Physical inputs (for EXPLAIN ANALYZE rendering)."""
        out = []
        for attr in ("child", "source", "left", "right"):
            value = getattr(self, attr, None)
            if isinstance(value, PhysicalOperator):
                out.append(value)
        return tuple(out)

    def describe(self) -> str:
        """Short label for EXPLAIN ANALYZE output."""
        name = type(self).__name__
        extras = []
        if self.memoize and not self.SPLIT:  # a split is always memoised
            extras.append("memo")
        if isinstance(self, PStreamTap):
            extras.append("+" if self.positive else "−")
        return name + (f" [{', '.join(extras)}]" if extras else "")

    def _run(self, ctx, env: dict):
        raise NotImplementedError


class PBypassBase(PhysicalOperator):
    """Base for bypass operators: ``_run`` returns the (positive,
    negative) split, memoised so both taps read one evaluation."""

    __slots__ = ()

    SPLIT = True

    def __init__(self, schema: Schema):
        super().__init__(schema)
        self.memoize = True

    def execute(self, ctx, env: dict) -> list:
        raise ExecutionError("bypass operators must be consumed through a stream tap")


class PStreamTap(PhysicalOperator):
    """One stream of a bypass operator (of either engine)."""

    __slots__ = ("source", "positive")

    def __init__(self, source: PBypassBase, positive: bool):
        super().__init__(source.schema)
        self.source = source
        self.positive = positive

    def _run(self, ctx, env):
        positive, negative = self.source.invoke(ctx, env)
        return positive if self.positive else negative


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


class PScan(PhysicalOperator):
    """Base-table scan: the row list (never mutated) of ``table_name``
    in the execution's catalog, resolved once per execution."""

    __slots__ = ("table_name",)

    def __init__(self, schema: Schema, table_name: str):
        super().__init__(schema)
        self.table_name = table_name

    def resolve(self, catalog):  # through ExecContext.resolved
        return _table(catalog, self.table_name, len(self.schema)).rows

    def _run(self, ctx, env):
        if ctx.faults is not None:
            ctx.faults.maybe_fail("storage.scan")
        rows = ctx.resolved(self)
        ctx.tick(len(rows))
        return rows


def _table(catalog, name: str, arity: int, what: str = "scan"):
    """Table ``name`` of an execution's catalog; refused at another arity than the plan's."""
    table = catalog.table(name)
    if len(table.schema) != arity:
        raise PlanningError(
            f"{what} of {name!r}: catalog arity {len(table.schema)} != plan arity {arity}"
        )
    return table


def _indexed_table(catalog, table_name: str, index_name: str):
    """``(table, index)``, refused when the index no longer belongs to the
    table (a snapshot is checked against the live table it froze)."""
    table = catalog.table(table_name)
    index = catalog.index(index_name)
    if index.table is not getattr(table, "base_table", table):
        raise PlanningError(
            f"index {index_name!r} no longer belongs to table "
            f"{table_name!r}; re-plan the query"
        )
    return table, index


class PIndexScan(PhysicalOperator):
    """Index-backed scan: probe, materialise matches, filter residual.

    ``bounds`` holds ``(op, compiled_expr)`` pairs for the key predicate;
    the compiled expressions reference no scan column, so they are
    evaluated once per environment (against the empty row) before any
    table row is touched.  The governor is charged full price for rows
    the probe examined and a discounted rate for rows it skipped.
    """

    __slots__ = ("table_name", "index_name", "bounds", "residual", "projection")

    def __init__(self, schema, table_name, index_name, bounds, residual, projection):
        super().__init__(schema)
        self.table_name = table_name
        self.index_name = index_name
        self.bounds = tuple(bounds)
        self.residual = residual
        self.projection = tuple(projection) if projection is not None else None

    def resolve(self, catalog):
        return _indexed_table(catalog, self.table_name, self.index_name)

    def _probe(self, ctx, env):
        """The probe of both engines' index scans: the ``storage.scan``
        site, the bounds bound for ``env``, the lookup, its access
        counters and governor ticks.  Returns ``(lookup, table)``."""
        if ctx.faults is not None:
            ctx.faults.maybe_fail("storage.scan")
        table, index = ctx.resolved(self)
        index = index_for(index, table)
        evaluated = tuple((op, fn(ctx, env)(())) for op, fn in self.bounds)
        lookup = probe_bounds(index, evaluated)
        ctx.access["index_scans"] += 1
        ctx.tick(max(lookup.rows_examined, 1))
        ctx.tick_skipped(lookup.rows_skipped)
        return lookup, table

    def _run(self, ctx, env):
        lookup, table = self._probe(ctx, env)
        rows = table.rows
        if self.projection is None:
            out = [rows[position] for position in lookup.positions]
        else:
            projection = self.projection
            out = [
                tuple(rows[position][i] for i in projection)
                for position in lookup.positions
            ]
        if self.residual is not None:
            fn = self.residual(ctx, env)
            out = [row for row in out if fn(row) is True]
        ctx.access["rows_read"] += len(out)
        return out


# ---------------------------------------------------------------------------
# Tuple-at-a-time unary operators
# ---------------------------------------------------------------------------


class PFilter(PhysicalOperator):
    """Selection: keeps rows whose compiled predicate binds to TRUE."""

    __slots__ = ("child", "predicate")

    def __init__(self, child: PhysicalOperator, predicate: Callable):
        super().__init__(child.schema)
        self.child = child
        self.predicate = predicate

    def _run(self, ctx, env):
        rows = self.child.execute(ctx, env)
        ctx.tick(len(rows))
        fn = self.predicate(ctx, env)
        return [row for row in rows if fn(row) is True]


class PBypassFilter(PBypassBase):
    """Bypass selection: TRUE → positive, FALSE/UNKNOWN → negative."""

    __slots__ = ("child", "predicate")

    def __init__(self, child: PhysicalOperator, predicate: Callable):
        super().__init__(child.schema)
        self.child = child
        self.predicate = predicate

    def _run(self, ctx, env):
        rows = self.child.execute(ctx, env)
        ctx.tick(len(rows))
        fn = self.predicate(ctx, env)
        positive: list = []
        negative: list = []
        for row in rows:
            if fn(row) is True:
                positive.append(row)
            else:
                negative.append(row)
        return positive, negative


class PProject(PhysicalOperator):
    """Projection onto fixed positions (bag semantics)."""

    __slots__ = ("child", "positions")

    def __init__(self, child: PhysicalOperator, schema: Schema, positions: Sequence[int]):
        super().__init__(schema)
        self.child = child
        self.positions = tuple(positions)

    def _run(self, ctx, env):
        rows = self.child.execute(ctx, env)
        ctx.tick(len(rows))
        positions = self.positions
        return [tuple(row[p] for p in positions) for row in rows]


class PMap(PhysicalOperator):
    """Map χ: extend each row with one computed value."""

    __slots__ = ("child", "expression")

    def __init__(self, child: PhysicalOperator, schema: Schema, expression: Callable):
        super().__init__(schema)
        self.child = child
        self.expression = expression

    def _run(self, ctx, env):
        rows = self.child.execute(ctx, env)
        ctx.tick(len(rows))
        fn = self.expression(ctx, env)
        return [row + (fn(row),) for row in rows]


class PDistinct(PhysicalOperator):
    """Stable duplicate elimination."""

    __slots__ = ("child",)

    def __init__(self, child: PhysicalOperator):
        super().__init__(child.schema)
        self.child = child

    def _run(self, ctx, env):
        rows = self.child.execute(ctx, env)
        ctx.tick(len(rows))
        seen: set = set()
        out: list = []
        for row in rows:
            if row not in seen:
                seen.add(row)
                out.append(row)
        return out


class PRename(PhysicalOperator):
    """Renaming is schema-only; rows pass through unchanged."""

    __slots__ = ("child",)

    def __init__(self, child: PhysicalOperator, schema: Schema):
        super().__init__(schema)
        self.child = child

    def _run(self, ctx, env):
        return self.child.execute(ctx, env)


class PNumber(PhysicalOperator):
    """Numbering ν: append 1-based sequence numbers."""

    __slots__ = ("child",)

    def __init__(self, child: PhysicalOperator, schema: Schema):
        super().__init__(schema)
        self.child = child

    def _run(self, ctx, env):
        rows = self.child.execute(ctx, env)
        ctx.tick(len(rows))
        return [row + (index,) for index, row in enumerate(rows, start=1)]


class PSort(PhysicalOperator):
    """Stable multi-key sort; NULLs last ascending, first descending
    (the PostgreSQL convention)."""

    __slots__ = ("child", "keys")

    def __init__(self, child: PhysicalOperator, keys: Sequence[tuple[int, bool]]):
        super().__init__(child.schema)
        self.child = child
        self.keys = tuple(keys)

    def _run(self, ctx, env):
        rows = list(self.child.execute(ctx, env))
        ctx.tick(len(rows))
        # Stable sorts applied from the least to the most significant key.
        for position, ascending in reversed(self.keys):
            rows.sort(
                key=lambda row, p=position: ((row[p] is None), row[p] if row[p] is not None else 0),
                reverse=not ascending,
            )
        return rows


class PLimit(PhysicalOperator):
    """Keep the first N rows."""

    __slots__ = ("child", "count")

    def __init__(self, child: PhysicalOperator, count: int):
        super().__init__(child.schema)
        self.child = child
        self.count = count

    def _run(self, ctx, env):
        rows = self.child.execute(ctx, env)
        return rows[: self.count]


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


class _AggColumn:
    """One aggregate column: its spec plus a value extractor.

    ``extractor`` is a compiled expression (bind → fn(row)) or ``None``
    for STAR arguments, in which case the whole row (optionally projected
    onto ``star_positions``) is the aggregated value.
    """

    __slots__ = ("spec", "extractor", "star_positions")

    def __init__(self, spec: AggSpec, extractor: Callable | None, star_positions: Sequence[int] | None = None):
        self.spec = spec
        self.extractor = extractor
        self.star_positions = tuple(star_positions) if star_positions is not None else None

    def bind(self, ctx, env) -> Callable:
        if self.extractor is not None:
            return self.extractor(ctx, env)
        if self.star_positions is not None:
            positions = self.star_positions
            return lambda row: tuple(row[p] for p in positions)
        return lambda row: row

    def result(self, values) -> object:
        return evaluate_spec(self.spec, values)

    def empty_result(self) -> object:
        return self.spec.empty_result()


class PHashGroupBy(PhysicalOperator):
    """Unary grouping Γ: hash on key positions, aggregate per group.

    NULL grouping keys form their own group (SQL GROUP BY semantics).
    """

    __slots__ = ("child", "key_positions", "agg_columns")

    def __init__(self, child: PhysicalOperator, schema: Schema, key_positions: Sequence[int], agg_columns: Sequence[_AggColumn]):
        super().__init__(schema)
        self.child = child
        self.key_positions = tuple(key_positions)
        self.agg_columns = tuple(agg_columns)

    def _run(self, ctx, env):
        rows = self.child.execute(ctx, env)
        ctx.tick(len(rows))
        extractors = [column.bind(ctx, env) for column in self.agg_columns]
        groups: dict[tuple, list[list]] = {}
        key_positions = self.key_positions
        for row in rows:
            key = tuple(row[p] for p in key_positions)
            bucket = groups.get(key)
            if bucket is None:
                bucket = [[] for _ in extractors]
                groups[key] = bucket
            for values, extract in zip(bucket, extractors):
                values.append(extract(row))
        out = []
        for key, bucket in groups.items():
            aggregates = tuple(
                column.result(values)
                for column, values in zip(self.agg_columns, bucket)
            )
            out.append(key + aggregates)
        return out


class PScalarAgg(PhysicalOperator):
    """Aggregation without grouping — exactly one output row, always."""

    __slots__ = ("child", "agg_columns")

    def __init__(self, child: PhysicalOperator, schema: Schema, agg_columns: Sequence[_AggColumn]):
        super().__init__(schema)
        self.child = child
        self.agg_columns = tuple(agg_columns)

    def _run(self, ctx, env):
        rows = self.child.execute(ctx, env)
        ctx.tick(len(rows))
        extractors = [column.bind(ctx, env) for column in self.agg_columns]
        values_per_column = [[] for _ in extractors]
        for row in rows:
            for values, extract in zip(values_per_column, extractors):
                values.append(extract(row))
        return [
            tuple(
                column.result(values)
                for column, values in zip(self.agg_columns, values_per_column)
            )
        ]


class PBinaryGroup(PhysicalOperator):
    """Binary grouping Γ — hash implementation for equality keys.

    For each left row ``x``: evaluate the aggregate over all right rows
    ``y`` with ``x[lkey] θ y[rkey]``; emit ``x + (g,)``.  Empty match bags
    produce ``f(∅)`` — by construction, no count bug and exactly one
    output row per left row (§3.7).
    """

    __slots__ = ("left", "right", "left_key", "right_key", "op", "agg_column")

    def __init__(self, left, right, schema: Schema, left_key: int, right_key: int, op: str, agg_column: _AggColumn):
        super().__init__(schema)
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key
        self.op = op
        self.agg_column = agg_column

    def _run(self, ctx, env):
        left_rows = self.left.execute(ctx, env)
        right_rows = self.right.execute(ctx, env)
        ctx.tick(len(left_rows) + len(right_rows))
        extract = self.agg_column.bind(ctx, env)
        out = []
        if self.op == "=":
            buckets: dict[object, list] = {}
            right_key = self.right_key
            for row in right_rows:
                key = row[right_key]
                if key is None:
                    continue  # NULL never matches under '='
                buckets.setdefault(key, []).append(extract(row))
            left_key = self.left_key
            empty = self.agg_column.empty_result()
            for row in left_rows:
                key = row[left_key]
                values = buckets.get(key) if key is not None else None
                if values is None:
                    out.append(row + (empty,))
                else:
                    out.append(row + (self.agg_column.result(values),))
            return out
        compare = _CMP_FUNCS[self.op]
        left_key = self.left_key
        right_key = self.right_key
        for row in left_rows:
            ctx.tick(len(right_rows))
            lv = row[left_key]
            values = [
                extract(y)
                for y in right_rows
                if lv is not None and y[right_key] is not None and compare(lv, y[right_key])
            ]
            if values:
                out.append(row + (self.agg_column.result(values),))
            else:
                out.append(row + (self.agg_column.empty_result(),))
        return out


_CMP_FUNCS = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------


class PHashJoin(PhysicalOperator):
    """Hash join on equality keys with optional residual predicate.

    ``kind`` ∈ inner/semi/anti/left_outer.  NULL keys never match; for
    ``left_outer`` an unmatched left row is padded with ``default_row``.
    """

    __slots__ = ("left", "right", "left_keys", "right_keys", "residual", "kind", "default_row")

    def __init__(self, left, right, schema: Schema, left_keys, right_keys, residual: Callable | None, kind: str, default_row: tuple | None = None):
        super().__init__(schema)
        self.left = left
        self.right = right
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)
        self.residual = residual
        self.kind = kind
        self.default_row = default_row

    def _run(self, ctx, env):
        left_rows = self.left.execute(ctx, env)
        right_rows = self.right.execute(ctx, env)
        ctx.tick(len(left_rows) + len(right_rows))
        right_keys = self.right_keys
        buckets: dict[tuple, list] = {}
        for y in right_rows:
            key = tuple(y[p] for p in right_keys)
            if any(v is None for v in key):
                continue
            buckets.setdefault(key, []).append(y)
        left_keys = self.left_keys

        def candidates(x):
            key = tuple(x[p] for p in left_keys)
            return () if any(v is None for v in key) else buckets.get(key, ())

        return self._emit(ctx, env, left_rows, candidates)

    def _emit(self, ctx, env, left_rows, candidates) -> list:
        """The join of ``kind``: each left row ``x`` matches the rows
        ``y`` of ``candidates(x)`` whose ``x + y`` passes the residual."""
        residual = self.residual(ctx, env) if self.residual is not None else None
        kind = self.kind
        out = []
        for x in left_rows:
            matched = False
            for y in candidates(x):
                row = x + y
                if residual is None or residual(row) is True:
                    matched = True
                    if kind in ("inner", "left_outer"):
                        out.append(row)
                    else:
                        break
            if kind == "semi" and matched:
                out.append(x)
            elif kind == "anti" and not matched:
                out.append(x)
            elif kind == "left_outer" and not matched:
                out.append(x + self.default_row)
        return out


class PNLJoin(PHashJoin):
    """Join without an equality key (a cross product when ``residual`` is
    ``None``): every right row is a candidate for every left row."""

    __slots__ = ()

    def __init__(self, left, right, schema: Schema, predicate: Callable | None, kind: str, default_row: tuple | None = None):
        super().__init__(left, right, schema, (), (), predicate, kind, default_row)

    def _run(self, ctx, env):
        left_rows = self.left.execute(ctx, env)
        right_rows = self.right.execute(ctx, env)
        # Ticked per left row; a predicate join at least one per row.
        per_left = len(right_rows) if self.residual is None else len(right_rows) or 1

        def candidates(x):
            ctx.tick(per_left)
            return right_rows

        return self._emit(ctx, env, left_rows, candidates)


class PBypassNLJoin(PBypassBase):
    """Bypass join ⋈± (two-valued logic over the cross product).

    ``negative_filter`` — when the rewriter knows the negative stream is
    immediately filtered (Eqv. 5's ``σp``), the filter is fused here so
    the complement of the match set never materialises unfiltered.
    """

    __slots__ = ("left", "right", "predicate", "negative_filter")

    def __init__(self, left, right, schema: Schema, predicate: Callable, negative_filter: Callable | None = None):
        super().__init__(schema)
        self.left = left
        self.right = right
        self.predicate = predicate
        self.negative_filter = negative_filter

    def _run(self, ctx, env):
        left_rows = self.left.execute(ctx, env)
        right_rows = self.right.execute(ctx, env)
        fn = self.predicate(ctx, env)
        neg_fn = self.negative_filter(ctx, env) if self.negative_filter is not None else None
        positive: list = []
        negative: list = []
        for x in left_rows:
            ctx.tick(len(right_rows) or 1)
            for y in right_rows:
                row = x + y
                if fn(row) is True:
                    positive.append(row)
                elif neg_fn is None or neg_fn(row) is True:
                    negative.append(row)
        return positive, negative


# ---------------------------------------------------------------------------
# Set operations
# ---------------------------------------------------------------------------


class PUnionAll(PhysicalOperator):
    """Bag concatenation (disjoint union ∪̇)."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        super().__init__(left.schema)
        self.left = left
        self.right = right

    def _run(self, ctx, env):
        return self.left.execute(ctx, env) + self.right.execute(ctx, env)


class PUnion(PhysicalOperator):
    """Set union (dedup, SQL UNION)."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        super().__init__(left.schema)
        self.left = left
        self.right = right

    def _run(self, ctx, env):
        rows = self.left.execute(ctx, env) + self.right.execute(ctx, env)
        ctx.tick(len(rows))
        seen: set = set()
        out = []
        for row in rows:
            if row not in seen:
                seen.add(row)
                out.append(row)
        return out


class PIntersect(PhysicalOperator):
    """Set intersection (SQL INTERSECT)."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        super().__init__(left.schema)
        self.left = left
        self.right = right

    def _run(self, ctx, env):
        right_set = set(self.right.execute(ctx, env))
        out = []
        seen: set = set()
        for row in self.left.execute(ctx, env):
            if row in right_set and row not in seen:
                seen.add(row)
                out.append(row)
        return out


class PDifference(PhysicalOperator):
    """Set difference (SQL EXCEPT)."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        super().__init__(left.schema)
        self.left = left
        self.right = right

    def _run(self, ctx, env):
        right_set = set(self.right.execute(ctx, env))
        out = []
        seen: set = set()
        for row in self.left.execute(ctx, env):
            if row not in right_set and row not in seen:
                seen.add(row)
                out.append(row)
        return out
