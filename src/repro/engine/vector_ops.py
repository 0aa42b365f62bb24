"""Vectorized physical operators: batch-at-a-time runtime algebra.

Every operator here is a :class:`~repro.engine.operators.PhysicalOperator`
whose native unit of work is a :class:`~repro.storage.batch.Batch`
(column arrays + validity masks + selection vector) instead of a Python
row list: its ``_run`` returns a batch, and a batch parent reads it
through the operator contract, ``invoke(ctx, env)``; ``execute``
materialises the same result, so a row operator can consume a
vectorized child transparently.  The reverse boundary is
:class:`VFromRows`, which pivots a row child's output into a batch —
together the two directions give the per-operator fallback the compiler
relies on.

Bypass semantics are selection vectors: :class:`VBypassFilter` evaluates
its 3VL predicate kernel once and *splits* the input batch into the TRUE
stream and its complement (FALSE ∪ UNKNOWN) — two selection vectors over
one set of shared column arrays, no row copying.

Joins and grouping are hash-style but expressed with numpy: one side's
keys are coded into dense group ids by a
:class:`~repro.engine.keys.KeyCoder`, and a join looks the other side up
in them (a NULL key finds no group); the Eqv. 1–5 pre-aggregations
(COUNT/SUM/MIN/MAX/AVG) have closed-form ``bincount``/``ufunc.at`` fast
paths — run, with the ⟕ that joins them back, in one group-join
(:class:`VGroupJoin`), whose build over S, coder included, is kept while
S's view is unchanged.  A join with no equality key — a
θ-correlation, the bypass join ⋈±, a cross product — runs its predicate
kernel over ``left × right`` in blocks of at most :data:`_BLOCK_PAIRS`
pairs, the governor ticked before each block is built.  DISTINCT is a
kernel too — the batch is reduced to the first row of every (group,
value) code pair and the same closed forms run on the survivors — and so
is duplicate elimination (:func:`_dedupe`).  The per-group fallback to
:func:`~repro.algebra.aggregates.evaluate_spec` remains for what has no
closed form: AVG's ``(sum, count)`` partials and non-count aggregates
over object-layout columns.
"""

from __future__ import annotations

import weakref
from typing import Callable, Sequence

import numpy as np

from repro.algebra.aggregates import AggSpec, evaluate_spec
from repro.engine import operators as P
from repro.engine.keys import KeyCoder
from repro.engine.vector_kernels import _INT64_MAX, _const_column, _int_magnitude
from repro.storage.batch import Batch, build_column, column_to_pylist
from repro.storage.schema import Schema


class VecOperator(P.PhysicalOperator):
    """Base class: ``_run`` returns a batch; a row parent reads its rows."""

    __slots__ = ()

    FAULT_DOMAIN = "engine.vector."

    def execute(self, ctx, env: dict) -> list:
        return self.invoke(ctx, env).to_rows()


# ---------------------------------------------------------------------------
# Leaves and adapters
# ---------------------------------------------------------------------------


def table_batch(table) -> Batch:
    """The table's rows as a batch, cached on the table per version.

    Double-checked locking: the unlocked read sees an immutable
    (version, Batch) tuple (or None) — safe to race — while the pivot
    itself runs under the table's lock so concurrent server queries
    build the column arrays at most once per version.  Shared by
    :class:`VScan` and :class:`VIndexScan`.

    An MVCC :class:`~repro.storage.mvcc.TableSnapshot` whose version
    matches its live base table holds rows identical to the base's, so
    the pivot is shared both ways: reused from the base when warm there,
    published back when built here.  Older pinned snapshots pivot (once)
    on their own.
    """
    cached = table.batch_cache
    if cached is not None and cached[0] == table.version:
        return cached[1]
    with table.batch_lock:
        cached = table.batch_cache
        if cached is not None and cached[0] == table.version:
            return cached[1]
        base_table = getattr(table, "base_table", None)
        if base_table is not None:
            live_cached = base_table.batch_cache
            if live_cached is not None and live_cached[0] == table.version:
                table.batch_cache = (table.version, live_cached[1])
                return live_cached[1]
        base = Batch.from_rows(table.schema, table.rows)
        table.batch_cache = (table.version, base)
        if base_table is not None and base_table.version == table.version:
            # A racing writer may bump the base version concurrently; the
            # worst case is publishing a pair whose version no longer
            # matches, which every consumer detects and rebuilds.
            with base_table.batch_lock:
                live_cached = base_table.batch_cache
                if live_cached is None or live_cached[0] != table.version:
                    base_table.batch_cache = (table.version, base)
        return base


class VScan(VecOperator, P.PScan):
    """Base-table scan: the table's column arrays under this scan's
    (possibly qualified) schema.

    The pivot is the single most expensive step of a cold vectorized
    query, so the arrays are cached on the table, keyed on its version
    (:func:`table_batch`).  A kept root names the table: each execution
    resolves it in its own catalog (snapshot) once, and its context, not
    the scan, holds the batch — concurrent executions share one scan.
    """

    __slots__ = ()

    def resolve(self, catalog):
        base = table_batch(P._table(catalog, self.table_name, len(self.schema)))
        return Batch(self.schema, base.data, base.valid, base.base_length, base.sel)


class VIndexScan(VecOperator, P.PIndexScan):
    """Index-backed scan: build the batch from index-selected positions.

    The probe is the row scan's (indexes address physical row positions);
    the surviving positions become a selection vector over the table's
    cached column arrays, so no row is ever pivoted twice.  The residual
    is a predicate kernel over the already-narrowed batch.
    """

    __slots__ = ()

    def _run(self, ctx, env):
        lookup, table = self._probe(ctx, env)
        base = table_batch(table)
        taken = base.take(np.asarray(lookup.positions, dtype=np.int64))
        if self.projection is not None:
            batch = taken.project(self.projection, self.schema)
        else:
            batch = Batch(self.schema, taken.data, taken.valid, taken.base_length, taken.sel)
        if self.residual is not None:
            is_true, _ = self.residual(ctx, env)(batch)
            batch = batch.filter(is_true)
        ctx.access["rows_read"] += len(batch)
        return batch


class VFromRows(VecOperator):
    """Row → batch boundary: wraps any row operator as a batch source."""

    __slots__ = ("child",)

    def __init__(self, child: P.PhysicalOperator):
        super().__init__(child.schema)
        self.child = child

    def _run(self, ctx, env):
        return Batch.from_rows(self.schema, self.child.execute(ctx, env))


# ---------------------------------------------------------------------------
# Selection and bypass selection
# ---------------------------------------------------------------------------


class VFilter(VecOperator):
    """Selection: keep the rows whose predicate kernel is TRUE."""

    __slots__ = ("child", "kernel")

    def __init__(self, child: VecOperator, kernel: Callable):
        super().__init__(child.schema)
        self.child = child
        self.kernel = kernel

    def _run(self, ctx, env):
        batch = self.child.invoke(ctx, env)
        ctx.tick(len(batch))
        is_true, _ = self.kernel(ctx, env)(batch)
        return batch.filter(is_true)


class VBypassBase(P.PBypassBase):
    """Base for batch bypass operators: ``_run`` splits into a (positive,
    negative) pair of batches, memoised and charged like the row split."""

    __slots__ = ()

    FAULT_DOMAIN = "engine.vector."


class VBypassFilter(VBypassBase):
    """Bypass selection σ±: one predicate evaluation, two selection vectors.

    The positive stream is the TRUE mask, the negative stream is its
    complement (FALSE ∪ UNKNOWN); both alias the input batch's column
    arrays — the split copies no rows.
    """

    __slots__ = ("child", "kernel")

    def __init__(self, child: VecOperator, kernel: Callable):
        super().__init__(child.schema)
        self.child = child
        self.kernel = kernel

    def _run(self, ctx, env):
        batch = self.child.invoke(ctx, env)
        ctx.tick(len(batch))
        is_true, _ = self.kernel(ctx, env)(batch)
        return batch.split(is_true)


class VStreamTap(VecOperator, P.PStreamTap):
    """One stream of a vectorized bypass operator."""

    __slots__ = ()

    def describe(self) -> str:
        return type(self).__name__ + (" [+]" if self.positive else " [−]")


# ---------------------------------------------------------------------------
# Stateless unary operators
# ---------------------------------------------------------------------------


class VProject(VecOperator):
    """Projection: column subset; shares arrays and selection (zero copy)."""

    __slots__ = ("child", "positions")

    def __init__(self, child: VecOperator, schema: Schema, positions: Sequence[int]):
        super().__init__(schema)
        self.child = child
        self.positions = tuple(positions)

    def _run(self, ctx, env):
        batch = self.child.invoke(ctx, env)
        ctx.tick(len(batch))
        return batch.project(self.positions, self.schema)


class VRename(VecOperator):
    """Renaming is schema-only."""

    __slots__ = ("child",)

    def __init__(self, child: VecOperator, schema: Schema):
        super().__init__(schema)
        self.child = child

    def _run(self, ctx, env):
        return self.child.invoke(ctx, env).rename(self.schema)


class VMap(VecOperator):
    """Map χ: append one kernel-computed column."""

    __slots__ = ("child", "kernel")

    def __init__(self, child: VecOperator, schema: Schema, kernel: Callable):
        super().__init__(schema)
        self.child = child
        self.kernel = kernel

    def _run(self, ctx, env):
        batch = self.child.invoke(ctx, env)
        ctx.tick(len(batch))
        data, valid = self.kernel(ctx, env)(batch)
        return batch.with_column(self.schema, data, valid)


class VNumber(VecOperator):
    """Numbering ν: append 1-based sequence numbers."""

    __slots__ = ("child",)

    def __init__(self, child: VecOperator, schema: Schema):
        super().__init__(schema)
        self.child = child

    def _run(self, ctx, env):
        batch = self.child.invoke(ctx, env)
        ctx.tick(len(batch))
        numbers = np.arange(1, len(batch) + 1, dtype=np.int64)
        return batch.with_column(self.schema, numbers, None)


class VDistinct(VecOperator):
    """Stable duplicate elimination: first-occurrence selection vector."""

    __slots__ = ("child",)

    def __init__(self, child: VecOperator):
        super().__init__(child.schema)
        self.child = child

    def _run(self, ctx, env):
        batch = self.child.invoke(ctx, env)
        ctx.tick(len(batch))
        return _dedupe(batch)


class VLimit(VecOperator):
    """Keep the first N rows (selection-vector slice)."""

    __slots__ = ("child", "count")

    def __init__(self, child: VecOperator, count: int):
        super().__init__(child.schema)
        self.child = child
        self.count = count

    def _run(self, ctx, env):
        return self.child.invoke(ctx, env).head(self.count)


class VSort(VecOperator):
    """Stable multi-key sort via an index permutation (PSort semantics:
    NULLs last ascending, first descending)."""

    __slots__ = ("child", "keys")

    def __init__(self, child: VecOperator, keys: Sequence[tuple[int, bool]]):
        super().__init__(child.schema)
        self.child = child
        self.keys = tuple(keys)

    def _run(self, ctx, env):
        batch = self.child.invoke(ctx, env)
        ctx.tick(len(batch))
        indices = list(range(len(batch)))
        for position, ascending in reversed(self.keys):
            values = column_to_pylist(*batch.column(position))
            indices.sort(
                key=lambda i, vs=values: ((vs[i] is None), vs[i] if vs[i] is not None else 0),
                reverse=not ascending,
            )
        return batch.take(np.asarray(indices, dtype=np.int64))


# ---------------------------------------------------------------------------
# Set operations
# ---------------------------------------------------------------------------


class VUnionAll(VecOperator):
    """Bag concatenation (disjoint union ∪̇)."""

    __slots__ = ("left", "right")

    def __init__(self, left: VecOperator, right: VecOperator):
        super().__init__(left.schema)
        self.left = left
        self.right = right

    def _run(self, ctx, env):
        left = self.left.invoke(ctx, env)
        right = self.right.invoke(ctx, env)
        ctx.tick(len(left) + len(right))
        return Batch.concat(self.schema, [left, right])


class VUnion(VecOperator):
    """Set union (dedup, SQL UNION)."""

    __slots__ = ("left", "right")

    def __init__(self, left: VecOperator, right: VecOperator):
        super().__init__(left.schema)
        self.left = left
        self.right = right

    def _run(self, ctx, env):
        left = self.left.invoke(ctx, env)
        right = self.right.invoke(ctx, env)
        ctx.tick(len(left) + len(right))
        return _dedupe(Batch.concat(self.schema, [left, right]))


def _dedupe(batch: Batch) -> Batch:
    """First occurrence of every distinct row, in input order.

    Rows are equal when their codes are: NULL is a value of its own
    here (two NULLs are duplicates, NULL and 0 are not).
    """
    n = len(batch)
    coder = KeyCoder([batch.column(p) for p in range(len(batch.schema))], n)
    if coder.n_groups == n:
        return batch
    return batch.take(_ascending(coder.firsts, n))


def _ascending(rows: np.ndarray, n: int) -> np.ndarray:
    """Distinct row numbers below ``n`` in ascending order, by a mask."""
    keep = np.zeros(n, dtype=bool)
    keep[rows] = True
    return np.flatnonzero(keep)


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------


class VHashJoin(VecOperator):
    """Equi-join on key codes; ``kind`` ∈ inner/semi/anti/left_outer.

    The right side's keys are coded into group ids (:class:`KeyCoder`),
    the left side's looked up in them (a NULL key in no group), and the
    match pairs materialise as two index vectors.  The ⟕ onto Γ(S) that
    ends every unnesting equivalence runs as :class:`VGroupJoin` instead.
    """

    __slots__ = ("left", "right", "left_keys", "right_keys", "residual", "kind", "default_row")

    def __init__(
        self,
        left: VecOperator,
        right: VecOperator,
        schema: Schema,
        left_keys,
        right_keys,
        residual: Callable | None,
        kind: str,
        default_row: tuple | None = None,
    ):
        super().__init__(schema)
        self.left = left
        self.right = right
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)
        self.residual = residual
        self.kind = kind
        self.default_row = default_row

    def _run(self, ctx, env):
        left = self.left.invoke(ctx, env).compact()
        right = self.right.invoke(ctx, env).compact()
        n_left, n_right = len(left), len(right)
        ctx.tick(n_left + n_right)
        coder = KeyCoder([right.column(p) for p in self.right_keys], n_right)
        left_ids = coder.lookup([left.column(p) for p in self.left_keys], n_left)
        left_idx, right_idx = _match_pairs(left_ids, coder.ids(), coder.n_groups)
        ctx.tick(len(left_idx))

        joined = None
        if self.residual is not None and len(left_idx):
            joined = _paired_batch(self.schema, left, right, left_idx, right_idx)
            is_true, _ = self.residual(ctx, env)(joined)
            keep = np.nonzero(is_true)[0]
            left_idx, right_idx = left_idx[keep], right_idx[keep]
            joined = joined.take(keep)
        return self._result(left, right, left_idx, right_idx, joined)

    def _result(self, left: Batch, right: Batch, left_idx, right_idx, joined=None) -> Batch:
        """The join of ``kind`` from its matching (left, right) pairs."""
        kind = self.kind
        if kind == "inner":
            if joined is not None:
                return joined
            return _paired_batch(self.schema, left, right, left_idx, right_idx)
        unmatched = np.ones(len(left), dtype=bool)
        unmatched[left_idx] = False
        if kind == "semi":
            return left.filter(~unmatched).rename(self.schema)
        if kind == "anti":
            return left.filter(unmatched).rename(self.schema)
        # left_outer: matched pairs plus unmatched left rows padded with
        # the f(∅) defaults (the count-bug fix).
        inner = joined
        if inner is None:
            inner = _paired_batch(self.schema, left, right, left_idx, right_idx)
        padded = _pad_with_defaults(self.schema, left.filter(unmatched).compact(), self.default_row)
        return Batch.concat(self.schema, [inner, padded])


class VNLJoin(VHashJoin):
    """Join without an equality key (a θ-correlation; a cross product when
    ``residual`` is ``None``): the predicate runs over the blocked pair
    kernel, and the kinds come out of the matches as for :class:`VHashJoin`."""

    __slots__ = ()

    def __init__(self, left, right, schema, predicate, kind, default_row=None):
        super().__init__(left, right, schema, (), (), predicate, kind, default_row)

    def _run(self, ctx, env):
        left = self.left.invoke(ctx, env).compact()
        right = self.right.invoke(ctx, env).compact()
        ctx.tick(len(left) + len(right))
        if self.residual is None:
            split = None
        else:
            predicate = self.residual(ctx, env)

            def split(pairs):
                return predicate(pairs)[:1]  # the TRUE mask

        ((left_idx, right_idx),) = _blocked_pairs(ctx, self.schema, left, right, split, 1)
        return self._result(left, right, left_idx, right_idx)


class VBypassJoin(VBypassBase):
    """Bypass join ⋈± over the blocked pair kernel: the TRUE pairs are the
    positive stream, the rest the negative — through Eqv. 5's σp when
    the compiler fused it here (``negative_kernel``), so the complement
    of the match set is filtered block by block, never held whole."""

    __slots__ = ("left", "right", "kernel", "negative_kernel")

    def __init__(self, left, right, schema: Schema, kernel: Callable, negative_kernel):
        super().__init__(schema)
        self.left = left
        self.right = right
        self.kernel = kernel
        self.negative_kernel = negative_kernel

    def _run(self, ctx, env):
        left = self.left.invoke(ctx, env).compact()
        right = self.right.invoke(ctx, env).compact()
        ctx.tick(len(left) + len(right))
        predicate = self.kernel(ctx, env)
        fused = self.negative_kernel(ctx, env) if self.negative_kernel is not None else None

        def split(pairs):
            is_true, _ = predicate(pairs)
            rest = ~is_true
            if fused is not None:
                rest[rest] = fused(pairs.filter(rest))[0]
            return is_true, rest

        streams = _blocked_pairs(ctx, self.schema, left, right, split, 2)
        return tuple(_paired_batch(self.schema, left, right, *s) for s in streams)


#: The most (left, right) pairs a join without an equality key holds at
#: once: its predicate kernel runs over ``left × right`` in blocks of this
#: many pairs (⌊B / |right|⌋ left rows' worth), each charged to the
#: governor before it is built.
_BLOCK_PAIRS = 1 << 16


def _pair_blocks(ctx, n_left: int, n_right: int):
    """``left × right`` as (left, right) index arrays, left-major, at most
    :data:`_BLOCK_PAIRS` pairs per block, ticked before each is built."""
    total = n_left * n_right
    for start in range(0, total, _BLOCK_PAIRS):
        stop = min(start + _BLOCK_PAIRS, total)
        ctx.tick(stop - start)
        yield np.divmod(np.arange(start, stop, dtype=np.int64), n_right)


def _blocked_pairs(ctx, schema: Schema, left: Batch, right: Batch, split, streams: int):
    """The pairs of ``left × right`` each stream keeps, as (left, right)
    index arrays per stream: ``split`` maps a block's paired batch to one
    keep-mask per stream (``None``: one stream that keeps every pair)."""
    kept: list[list] = [[] for _ in range(streams)]
    for left_idx, right_idx in _pair_blocks(ctx, len(left), len(right)):
        if split is None:
            kept[0].append((left_idx, right_idx))
            continue
        masks = split(_paired_batch(schema, left, right, left_idx, right_idx))
        for parts, mask in zip(kept, masks):
            parts.append((left_idx[mask], right_idx[mask]))
    empty = np.empty(0, dtype=np.int64)
    return [
        tuple(np.concatenate(side) for side in zip(*parts)) if parts else (empty, empty)
        for parts in kept
    ]


def _match_pairs(left_ids, right_ids, n_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """All (left, right) index pairs in one group, left-major, right rows
    in input order: ``right_ids`` are the right coder's, ``left_ids`` its
    lookup's (``n_groups``, a slot no right row counts, for none)."""
    counts = np.bincount(right_ids, minlength=n_groups + 1)
    match_counts = counts[left_ids]
    total = int(match_counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    order = np.argsort(right_ids, kind="stable")
    left_idx = np.repeat(np.arange(len(left_ids), dtype=np.int64), match_counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(match_counts) - match_counts, match_counts
    )
    starts = np.cumsum(counts) - counts
    right_idx = order[np.repeat(starts[left_ids], match_counts) + within]
    return left_idx, right_idx


def _with_default(data, valid, default):
    """A column of per-group slots whose last, empty slot becomes
    ``default`` (f(∅); ``None`` is NULL): in the column's own layout, or
    ``object`` when the default does not belong in it, as in a concat.
    ``data`` and ``valid`` are the caller's to overwrite."""
    if default is not None:
        if data.dtype != object and _const_column(default, 0)[0].dtype != data.dtype:
            data = data.astype(object)
        data[-1:] = _const_column(default, 1)[0]  # a tuple stays whole
    elif valid is None:
        valid = np.ones(len(data), dtype=bool)
    if valid is not None:
        valid[-1] = default is not None
    return data, valid


def _paired_batch(schema: Schema, left: Batch, right: Batch, left_idx, right_idx) -> Batch:
    """Materialise the concatenated (x ∘ y) batch for matched index pairs."""
    data, valid = [], []
    for source, indices in ((left, left_idx), (right, right_idx)):
        for position in range(len(source.schema)):
            d, v = source.column(position)
            data.append(d[indices])
            valid.append(None if v is None else v[indices])
    return Batch(schema, data, valid, len(left_idx))


def _pad_with_defaults(schema: Schema, left: Batch, default_row: tuple) -> Batch:
    """Left rows extended with constant default values for the right side."""
    n = len(left)
    data = list(left.data)
    valid = list(left.valid)
    for value in default_row:
        column, mask = _const_column(value, n)
        data.append(column)
        valid.append(mask)
    return Batch(schema, data, valid, n)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


class VAggColumn:
    """One aggregate column: spec + vectorized argument extraction.

    ``kernel`` is a compiled value kernel (``bind → fn(batch)``) or
    ``None`` for STAR arguments, in which case the aggregated values are
    whole rows (optionally projected onto ``star_positions``).
    """

    __slots__ = ("spec", "kernel", "star_positions")

    def __init__(self, spec: AggSpec, kernel: Callable | None, star_positions=None):
        self.spec = spec
        self.kernel = kernel
        self.star_positions = tuple(star_positions) if star_positions is not None else None

    def columns(self, ctx, env, batch: Batch) -> list[tuple[np.ndarray, np.ndarray | None]]:
        """The argument as ``(data, valid)`` columns: one for an
        expression, the row's own columns for STAR."""
        if self.kernel is not None:
            return [self.kernel(ctx, env)(batch)]
        positions = self.star_positions
        if positions is None:
            positions = range(len(batch.schema))
        return [batch.column(p) for p in positions]

    def pylist(self, columns) -> list:
        """``columns`` as the Python values :func:`evaluate_spec` takes:
        scalars (NULL → ``None``), or row tuples for STAR."""
        if self.kernel is not None:
            return column_to_pylist(*columns[0])
        return list(zip(*(column_to_pylist(data, valid) for data, valid in columns)))


def _group_fast_path(spec: AggSpec, data, valid, inverse, n_groups: int):
    """Closed-form per-group aggregates; ``None`` → use the generic path.

    Blind to ``spec.distinct``: the caller passes the deduplicated rows.
    """
    name = spec.resolved_name()
    if name == "count":
        counts = np.bincount(inverse if valid is None else inverse[valid], minlength=n_groups)
        return counts.astype(np.int64), None
    # Partial mode: sum/min/max have identity finalize, so the partial
    # state *is* the value below.  AVG's partial is a (sum, count) pair —
    # only the generic path builds that.
    if (
        data.dtype == object
        or name not in ("sum", "avg", "min", "max")
        or (spec.as_partial and name == "avg")
    ):
        return None
    if valid is None:
        counts = np.bincount(inverse, minlength=n_groups)
    else:
        counts = np.bincount(inverse[valid], minlength=n_groups)
    non_empty = counts > 0
    group_valid = None if non_empty.all() else non_empty
    if name in ("sum", "avg"):
        weights = data if valid is None else np.where(valid, data, 0)
        if data.dtype != np.int64:
            sums = np.bincount(inverse, weights=weights, minlength=n_groups)
        elif _int_magnitude(weights) * int(counts.max()) <= _INT64_MAX:
            # Ints sum exactly, as the row engine's do (``bincount``
            # accumulates in float64: rounded past 2**53).
            sums = np.zeros(n_groups, dtype=np.int64)
            np.add.at(sums, inverse, weights)
        else:
            return None  # a total may leave int64: Python ints, per group
        if name == "avg":
            return np.true_divide(sums, np.maximum(counts, 1)), group_valid
        return sums, group_valid
    if data.dtype == np.int64:
        info = np.iinfo(np.int64)
        sentinel = info.max if name == "min" else info.min
        out = np.full(n_groups, sentinel, dtype=np.int64)
    else:
        out = np.full(n_groups, np.inf if name == "min" else -np.inf, dtype=np.float64)
    reducer = np.minimum if name == "min" else np.maximum
    if valid is None:
        reducer.at(out, inverse, data)
    else:
        reducer.at(out, inverse[valid], data[valid])
    return out, group_valid


def _group_slices(groups: np.ndarray, n_groups: int) -> list[tuple[int, np.ndarray]]:
    """``(group, row indices)`` for every group some row falls in."""
    counts = np.bincount(groups, minlength=n_groups)
    slices = np.split(np.argsort(groups, kind="stable"), np.cumsum(counts)[:-1])
    return [(group, slices[group]) for group in np.flatnonzero(counts).tolist()]


def _aggregate(ctx, env, batch: Batch, agg_columns, groups: np.ndarray, n_groups: int):
    """Each aggregate over a non-empty ``batch`` whose row ``i`` is in group
    ``groups[i]`` of ``range(n_groups)``, as one ``(data, valid)`` column
    of ``n_groups`` slots (a slot no row falls in holds nothing defined)."""
    n = len(batch)
    out = []
    slices: list | None = None
    for column in agg_columns:
        spec = column.spec
        name = spec.resolved_name()
        # COUNT(*) (partial or final — both are the plain count) never
        # needs the argument values, only the group sizes.
        if name == "count_star":
            out.append((np.bincount(groups, minlength=n_groups).astype(np.int64), None))
            continue
        columns = column.columns(ctx, env, batch)
        star = column.kernel is None
        arg_data, arg_valid = (None, None) if star else columns[0]
        kept = groups
        if spec.distinct:
            # Keep the first row of every (group, value) pair.  A NULL
            # argument is no value; in a STAR row NULL is a value of
            # its own.
            coder = KeyCoder([(groups, None), *columns], n)
            rows = coder.firsts
            if not star:
                rows = rows[coder.ok[rows]]
            rows = _ascending(rows, n)
            kept = groups[rows]
            if not star:
                arg_data, arg_valid = arg_data[rows], None
        result = None
        if not star or name == "count":
            result = _group_fast_path(spec, arg_data, arg_valid, kept, n_groups)
        if result is None:
            # No closed form (AVG pair partials, non-count aggregates
            # over an object layout): one evaluate_spec per group.
            extracted = column.pylist(columns)
            if slices is None:
                slices = _group_slices(groups, n_groups)
            per_group = [None] * n_groups
            for group, rows in slices:
                per_group[group] = evaluate_spec(spec, [extracted[i] for i in rows.tolist()])
            result = build_column(per_group)
        out.append(result)
    return out


class VHashGroupBy(VecOperator):
    """Unary grouping Γ: coded keys, vectorized aggregate fast paths.

    NULL grouping keys form their own group (SQL GROUP BY semantics),
    via the reserved NULL code of the key coder.
    """

    __slots__ = ("child", "key_positions", "agg_columns")

    def __init__(
        self,
        child: VecOperator,
        schema: Schema,
        key_positions: Sequence[int],
        agg_columns: Sequence[VAggColumn],
    ):
        super().__init__(schema)
        self.child = child
        self.key_positions = tuple(key_positions)
        self.agg_columns = tuple(agg_columns)

    def _run(self, ctx, env):
        batch = self.child.invoke(ctx, env)
        n = len(batch)
        ctx.tick(n)
        if n == 0:
            return Batch.empty(self.schema)
        key_cols = [batch.column(p) for p in self.key_positions]
        coder = KeyCoder(key_cols, n)
        firsts = coder.firsts
        columns = [(d[firsts], None if v is None else v[firsts]) for d, v in key_cols]
        columns += _aggregate(ctx, env, batch, self.agg_columns, coder.ids(), coder.n_groups)
        return Batch(self.schema, *zip(*columns), coder.n_groups)


def _view(batch: Batch) -> tuple:
    """What a build read of ``batch``: every column's ``data`` / ``valid``
    array, held weakly (a kept build keeps no dead table version alive),
    the base length and the selection."""
    refs = tuple(None if a is None else weakref.ref(a) for a in batch.data + batch.valid)
    return refs, batch.base_length, batch.sel


def _same_view(view: tuple, batch: Batch) -> bool:
    """Whether ``batch`` is ``view`` again: the same arrays and base
    length, and a selection equal by value (``None`` only to ``None``)."""
    refs, base_length, sel = view
    arrays = batch.data + batch.valid
    return (
        base_length == batch.base_length
        and all(a is None if r is None else r() is a for r, a in zip(refs, arrays))
        and np.array_equal(sel, batch.sel)
    )


class VGroupJoin(VecOperator):
    """The ⟕ onto Γ(S) as one group-join, ``L ⟕^{f(∅)}_{l = k} Γ_{k; f}(S)``
    (Eqv. 1–4's last step; Eqv. 5's ``=`` binary Γ under a π): L's rows in
    L's order, each with its group's key and aggregates or the defaults.

    A build over S alone (:meth:`_build`), kept while the right input is
    the same view (:func:`_same_view`) unless an aggregate reads a
    parameter or an outer attribute (``pure`` is false), then a probe by L
    (:meth:`_probe`).  The right child runs either way; the ticks are Γ's
    and then the ⟕'s, Γ's NULL-keyed groups included, on both paths.
    """

    __slots__ = (
        "left", "right", "left_keys", "right_keys", "agg_columns", "default_row", "pure", "built"
    )

    def __init__(self, left, right, schema, left_keys, right_keys, agg_columns, default_row, pure):
        super().__init__(schema)
        self.left = left
        self.right = right
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)
        self.agg_columns = tuple(agg_columns)
        self.default_row = default_row
        self.pure = pure
        self.built = None  # (view, group table), one store: a race costs a build

    def _run(self, ctx, env):
        left = self.left.invoke(ctx, env).compact()
        right = self.right.invoke(ctx, env)
        ctx.tick(len(right))
        last = self.built
        reused = last is not None and _same_view(last[0], right)
        table = last[1] if reused else self._build(ctx, env, right)
        if self.pure and not reused:
            self.built = (_view(right), table)
        ctx.stats.notes[id(self)] = "build=reused" if reused else "build=new"
        return self._probe(ctx, left, table)

    def _build(self, ctx, env, right: Batch) -> tuple:
        """S's group table ``(coder, columns)``: every column after L's over
        ``n_groups + 1`` slots, each group's key and aggregates, then an empty
        slot holding the default.  A NULL-keyed group is one no probe reaches."""
        keys = [right.column(p) for p in self.right_keys]
        coder = KeyCoder(keys, len(right))
        if not coder.n_groups:
            return coder.kept(), ()
        at = np.append(coder.firsts, 0)  # + the empty slot
        columns = [(data[at], None if valid is None else valid[at]) for data, valid in keys]
        columns += _aggregate(ctx, env, right, self.agg_columns, coder.ids(), coder.n_groups + 1)
        columns = [_with_default(*column, d) for column, d in zip(columns, self.default_row)]
        return coder.kept(), columns

    def _probe(self, ctx, left: Batch, table: tuple) -> Batch:
        """Each left row's slot by ``coder.lookup`` of L's keys — the empty
        slot when no group has its key — and every column gathered."""
        coder, columns = table
        n_left = len(left)
        ctx.tick(n_left + coder.n_groups)
        if not columns:
            return _pad_with_defaults(self.schema, left, self.default_row)
        left_cols = [left.column(p) for p in self.left_keys]
        slot_of = coder.lookup(left_cols, n_left)
        found = slot_of != coder.n_groups
        ctx.tick(int(np.count_nonzero(found)))
        out = list(zip(left.data, left.valid))
        for i, ((data, valid), default) in enumerate(zip(columns, self.default_row)):
            own = left_cols[i][0] if i < len(left_cols) and default is None else None
            if own is not None and own.dtype == data.dtype == np.int64:
                out.append((own, found))  # equal codes, equal ints: L's own key
            else:
                out.append((data[slot_of], None if valid is None else valid[slot_of]))
        return Batch(self.schema, *zip(*out), n_left)


class VScalarAgg(VecOperator):
    """Aggregation without grouping — exactly one output row, always."""

    __slots__ = ("child", "agg_columns")

    def __init__(
        self,
        child: VecOperator,
        schema: Schema,
        agg_columns: Sequence[VAggColumn],
    ):
        super().__init__(schema)
        self.child = child
        self.agg_columns = tuple(agg_columns)

    def _run(self, ctx, env):
        batch = self.child.invoke(ctx, env)
        ctx.tick(len(batch))
        row = []
        for column in self.agg_columns:
            if column.spec.resolved_name() == "count_star":
                row.append(len(batch))
                continue
            extracted = column.pylist(column.columns(ctx, env, batch))
            row.append(evaluate_spec(column.spec, extracted))
        return Batch.from_rows(self.schema, [tuple(row)])
