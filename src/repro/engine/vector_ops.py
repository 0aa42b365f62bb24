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

Joins and grouping are hash-style but expressed with numpy: keys are
factorised into integer codes (NULL keys get a reserved code and never
match); groups, first occurrences and join matches are found by counting
into a table over the code range while that range is O(batch length),
by sorting it otherwise (:func:`_small_range` is the one rule), and
the Eqv. 1–5 pre-aggregations (COUNT/SUM/MIN/MAX/AVG) have closed-form
``bincount``/``ufunc.at`` fast paths.  A join with no equality key — a
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

from typing import Callable, Sequence

import numpy as np

from repro.algebra.aggregates import AggSpec, evaluate_spec
from repro.engine import operators as P
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


class VScan(VecOperator):
    """Base-table scan: pivot the row store into a batch once per *table*.

    The pivot is the single most expensive step of a cold vectorized
    query, and plans are recompiled per execution, so the column arrays
    are cached on the table itself, keyed on ``Table.version`` (bumped
    by every mutation).  Each scan instance only rewraps the shared
    arrays with its own (possibly qualified) schema.
    """

    __slots__ = ("table", "_batch", "_version")

    def __init__(self, schema: Schema, table):
        super().__init__(schema)
        self.table = table
        self._batch: Batch | None = None
        self._version: int = -1

    def _run(self, ctx, env):
        table = self.table
        if ctx.faults is not None:
            ctx.faults.maybe_fail("storage.scan")
        ctx.tick(len(table.rows))
        if self._batch is not None and self._version == table.version:
            return self._batch
        base = table_batch(table)
        self._batch = Batch(self.schema, base.data, base.valid, base.base_length, base.sel)
        self._version = table.version
        return self._batch


class VIndexScan(VecOperator, P.PIndexScan):
    """Index-backed scan: build the batch from index-selected positions.

    The probe is the row scan's (indexes address physical row positions);
    the surviving positions become a selection vector over the table's
    cached column arrays, so no row is ever pivoted twice.  The residual
    is a predicate kernel over the already-narrowed batch.
    """

    __slots__ = ()

    def _run(self, ctx, env):
        lookup = self._probe(ctx, env)
        base = table_batch(self.table)
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
        super().__init__(child.schema, child.free_names)
        self.child = child

    def _run(self, ctx, env):
        return Batch.from_rows(self.schema, self.child.execute(ctx, env))


# ---------------------------------------------------------------------------
# Selection and bypass selection
# ---------------------------------------------------------------------------


class VFilter(VecOperator):
    """Selection: keep the rows whose predicate kernel is TRUE."""

    __slots__ = ("child", "kernel")

    def __init__(self, child: VecOperator, kernel: Callable, free_names):
        super().__init__(child.schema, free_names)
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

    def __init__(self, child: VecOperator, kernel: Callable, free_names):
        super().__init__(child.schema, free_names)
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
        super().__init__(schema, ())
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
        super().__init__(schema, ())
        self.child = child

    def _run(self, ctx, env):
        return self.child.invoke(ctx, env).rename(self.schema)


class VMap(VecOperator):
    """Map χ: append one kernel-computed column."""

    __slots__ = ("child", "kernel")

    def __init__(self, child: VecOperator, schema: Schema, kernel: Callable, free_names):
        super().__init__(schema, free_names)
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
        super().__init__(schema, ())
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
        super().__init__(child.schema, ())
        self.child = child

    def _run(self, ctx, env):
        batch = self.child.invoke(ctx, env)
        ctx.tick(len(batch))
        return _dedupe(batch)


class VLimit(VecOperator):
    """Keep the first N rows (selection-vector slice)."""

    __slots__ = ("child", "count")

    def __init__(self, child: VecOperator, count: int):
        super().__init__(child.schema, ())
        self.child = child
        self.count = count

    def _run(self, ctx, env):
        return self.child.invoke(ctx, env).head(self.count)


class VSort(VecOperator):
    """Stable multi-key sort via an index permutation (PSort semantics:
    NULLs last ascending, first descending)."""

    __slots__ = ("child", "keys")

    def __init__(self, child: VecOperator, keys: Sequence[tuple[int, bool]]):
        super().__init__(child.schema, ())
        self.child = child
        self.keys = tuple(keys)

    def _run(self, ctx, env):
        batch = self.child.invoke(ctx, env)
        ctx.tick(len(batch))
        indices = list(range(len(batch)))
        for position, ascending in reversed(self.keys):
            values = batch.column_values(position)
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
        super().__init__(left.schema, ())
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
        super().__init__(left.schema, ())
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
    codes, _ = _factorize([batch.column(p) for p in range(len(batch.schema))], n)
    keep = _first_occurrences(codes)
    if len(keep) == n:
        return batch
    return batch.take(keep)


def _first_occurrences(codes: np.ndarray) -> np.ndarray:
    """Ascending index of the first row carrying each distinct code."""
    keep = np.zeros(len(codes), dtype=bool)
    keep[_densify(codes, want_inverse=False)[0]] = True
    return np.flatnonzero(keep)


# ---------------------------------------------------------------------------
# Key factorisation (shared by joins and grouping)
# ---------------------------------------------------------------------------


#: Counting beats sorting while its table stays O(n): a code range of at
#: most this many slots per row (of the batch plus 64, so a tiny batch
#: still counts) is coded, grouped and probed through a table that size.
_SLOTS_PER_ROW = 4


def _small_range(values: np.ndarray, n: int) -> tuple[int, int] | None:
    """``(min, max - min + 1)`` of an int array when a table with a slot
    per value in that range is O(``n``) — ``(0, 0)`` for no values — and
    ``None`` when it is not.  Python ints: ``max - min`` can pass 2**63."""
    if not len(values):
        return 0, 0
    lo = int(values.min())
    span = int(values.max()) - lo + 1
    return (lo, span) if span <= _SLOTS_PER_ROW * (n + 64) else None


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Where each run of equal values begins in a sorted, non-empty array."""
    return np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))


def _densify(codes: np.ndarray, want_inverse: bool = True):
    """``(first_index, group_ids)`` of ``codes``, groups in ascending code
    order: the row each distinct code first occurs in, and every row's
    group number (``None`` unless wanted).

    A small code range is counted — first occurrences by one reversed
    scatter into a range-sized table (the last write to a slot wins),
    group ids by a running count of the occupied slots.  A wide one is
    sorted: an unstable ``argsort`` (several times faster than the stable
    one behind ``np.unique(return_index=True)``), then the first row of
    a run of equal codes is the least row number in it.
    """
    n = len(codes)
    small = _small_range(codes, n)
    if small is None:
        order = np.argsort(codes)
        starts = _run_starts(codes[order])
        group_ids = None
        if want_inverse:
            group_ids = np.empty(n, dtype=np.int64)
            group_ids[order] = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, n)))
        return np.minimum.reduceat(order, starts), group_ids
    lo, span = small
    offsets = codes - lo
    first = np.full(span, -1, dtype=np.int64)
    first[offsets[::-1]] = np.arange(n - 1, -1, -1, dtype=np.int64)
    present = first >= 0
    group_ids = (np.cumsum(present) - 1)[offsets] if want_inverse else None
    return first[present], group_ids


def _factorize(
    columns: Sequence[tuple[np.ndarray, np.ndarray | None]],
    n: int,
    seed: tuple[np.ndarray, int] | None = None,
):
    """Combine key columns into int codes; NULL keys get ``ok=False``.

    Returns ``(codes, ok)``: ``codes`` is an int64 array where equal rows
    have equal codes, and ``ok`` marks the rows with no NULL key field.
    ``seed`` is ``(codes, bound)`` of a factorisation to extend, every
    code below ``bound`` (grouping passes its group ids to code
    (group, value) pairs).
    """
    codes, bound = (np.zeros(n, dtype=np.int64), 1) if seed is None else seed
    ok = np.ones(n, dtype=bool)
    for data, valid in columns:
        col_codes, cardinality = _factorize_one(data, valid, n)
        ok &= col_codes > 0
        if bound * (cardinality + 1) > _CODE_LIMIT:
            # int64 arithmetic wraps silently: renumber the running codes
            # 0..k-1 (k <= n) before the next multiply can pass 2**63.
            first_index, codes = _densify(codes)
            bound = len(first_index)
        codes = codes * np.int64(cardinality + 1) + col_codes
        bound *= cardinality + 1
    return codes, ok


_CODE_LIMIT = 1 << 62


def _factorize_one(data: np.ndarray, valid: np.ndarray | None, n: int):
    """Codes for one column: 0 = NULL, 1..k for the non-NULL values —
    dense, or ``value - min + 1`` for ints in a small range (``k`` is
    then the range: order-preserving, not dense)."""
    live = data if valid is None else data[valid]
    if data.dtype == object:
        # Hashing, as the row engine's sets and dicts do: sorting Python
        # objects costs several times as much and cannot order mixed types.
        mapping: dict = {}
        live_codes = np.fromiter(
            (mapping.setdefault(value, len(mapping) + 1) for value in live.tolist()),
            dtype=np.int64,
            count=len(live),
        )
        cardinality = len(mapping)
    else:
        small = _small_range(live, n) if data.dtype == np.int64 else None
        if small is not None:
            live_codes, cardinality = live - small[0] + 1, small[1]
        else:
            _, inverse = np.unique(live, return_inverse=True)
            live_codes = inverse.astype(np.int64) + 1
            cardinality = int(inverse.max(initial=-1)) + 1
    if valid is None:
        return live_codes, cardinality
    codes = np.zeros(n, dtype=np.int64)
    codes[valid] = live_codes
    return codes, cardinality


def _shared_codes(
    left_cols, right_cols, n_left: int, n_right: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Factorise equi-join keys into one shared code space."""
    merged = []
    for (ld, lv), (rd, rv) in zip(left_cols, right_cols):
        if ld.dtype != rd.dtype:
            ld, rd = ld.astype(object), rd.astype(object)
        data = np.concatenate([ld, rd])
        if lv is None and rv is None:
            valid = None
        else:
            valid = np.concatenate(
                [
                    np.ones(n_left, dtype=bool) if lv is None else lv,
                    np.ones(n_right, dtype=bool) if rv is None else rv,
                ]
            )
        merged.append((data, valid))
    codes, ok = _factorize(merged, n_left + n_right)
    return codes[:n_left], codes[n_left:], ok[:n_left], ok[n_left:]


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------


class VHashJoin(VecOperator):
    """Equi-join on factorised key codes; ``kind`` ∈ inner/semi/anti/left_outer.

    Right codes are sorted once into runs of equal code; left codes
    find their run through a code → run table when the code range is
    small (``searchsorted`` when it is wide), and the match pairs
    materialise as two index vectors (``np.repeat`` over per-probe match
    counts).  NULL keys never match.
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
        free_names,
        default_row: tuple | None = None,
    ):
        super().__init__(schema, free_names)
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
        lcodes, rcodes, l_ok, r_ok = _shared_codes(
            [left.column(p) for p in self.left_keys],
            [right.column(p) for p in self.right_keys],
            n_left,
            n_right,
        )
        left_idx, right_idx = _match_pairs(lcodes, rcodes, l_ok, r_ok)
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
        padded = _pad_with_defaults(
            self.schema, left.filter(unmatched).compact(), self.default_row, len(right.schema)
        )
        return Batch.concat(self.schema, [inner, padded])


class VNLJoin(VHashJoin):
    """Join without an equality key (a θ-correlation; a cross product when
    ``residual`` is ``None``): the predicate runs over the blocked pair
    kernel, and the kinds come out of the matches as for :class:`VHashJoin`."""

    __slots__ = ()

    def __init__(self, left, right, schema, predicate, kind, free_names, default_row=None):
        super().__init__(left, right, schema, (), (), predicate, kind, free_names, default_row)

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
        super().__init__(schema, ())
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


def _match_pairs(lcodes, rcodes, l_ok, r_ok) -> tuple[np.ndarray, np.ndarray]:
    """All (left, right) index pairs with equal codes, both sides non-NULL."""
    r_indices = np.nonzero(r_ok)[0]
    empty = np.empty(0, dtype=np.int64)
    if not len(r_indices) or not l_ok.any():
        return empty, empty
    r_subset = rcodes[r_indices]
    order = np.argsort(r_subset, kind="stable")
    r_sorted = r_subset[order]
    starts = _run_starts(r_sorted)
    unique_codes = r_sorted[starts]
    counts = np.diff(np.append(starts, len(r_sorted)))
    small = _small_range(unique_codes, len(lcodes) + len(rcodes))
    if small is None:
        pos = np.minimum(np.searchsorted(unique_codes, lcodes), len(unique_codes) - 1)
    else:
        # A code -> run table; a left code outside it is clipped onto it
        # and, like one that lands on an empty slot, fails the equality.
        lo, span = small
        run_of = np.zeros(span, dtype=np.int64)
        run_of[unique_codes - lo] = np.arange(len(unique_codes), dtype=np.int64)
        pos = run_of[np.clip(lcodes, lo, lo + span - 1) - lo]
    found = l_ok & (unique_codes[pos] == lcodes)
    match_counts = np.where(found, counts[pos], 0)
    total = int(match_counts.sum())
    if total == 0:
        return empty, empty
    left_idx = np.repeat(np.arange(len(lcodes), dtype=np.int64), match_counts)
    cumulative = np.cumsum(match_counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        cumulative - match_counts, match_counts
    )
    start_per_pair = np.repeat(starts[pos], match_counts)
    right_idx = r_indices[order[start_per_pair + within]]
    return left_idx, right_idx


def _paired_batch(schema: Schema, left: Batch, right: Batch, left_idx, right_idx) -> Batch:
    """Materialise the concatenated (x ∘ y) batch for matched index pairs."""
    data, valid = [], []
    for source, indices in ((left, left_idx), (right, right_idx)):
        for position in range(len(source.schema)):
            d, v = source.column(position)
            data.append(d[indices])
            valid.append(None if v is None else v[indices])
    return Batch(schema, data, valid, len(left_idx))


def _pad_with_defaults(
    schema: Schema, left: Batch, default_row: tuple | None, right_arity: int
) -> Batch:
    """Left rows extended with constant default values for the right side."""
    n = len(left)
    defaults = default_row if default_row is not None else (None,) * right_arity
    data = list(left.data)
    valid = list(left.valid)
    for value in defaults:
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


def _group_slices(inverse: np.ndarray, n_groups: int) -> list[np.ndarray]:
    """Row-index arrays per group id (0..n_groups-1)."""
    order = np.argsort(inverse, kind="stable")
    boundaries = np.flatnonzero(np.diff(inverse[order])) + 1
    return np.split(order, boundaries)


class VHashGroupBy(VecOperator):
    """Unary grouping Γ: factorised keys, vectorized aggregate fast paths.

    NULL grouping keys form their own group (SQL GROUP BY semantics),
    via the reserved NULL code of the factorisation.
    """

    __slots__ = ("child", "key_positions", "agg_columns")

    def __init__(
        self,
        child: VecOperator,
        schema: Schema,
        key_positions: Sequence[int],
        agg_columns: Sequence[VAggColumn],
        free_names,
    ):
        super().__init__(schema, free_names)
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
        codes, _ = _factorize(key_cols, n)
        first_index, inverse = _densify(codes)
        n_groups = len(first_index)

        data = []
        valid = []
        for key_data, key_valid in key_cols:
            data.append(key_data[first_index])
            valid.append(None if key_valid is None else key_valid[first_index])

        slices: list[np.ndarray] | None = None
        for column in self.agg_columns:
            spec = column.spec
            name = spec.resolved_name()
            # COUNT(*) (partial or final — both are the plain count) never
            # needs the argument values, only the group sizes.
            if name == "count_star":
                counts = np.bincount(inverse, minlength=n_groups)
                data.append(counts.astype(np.int64))
                valid.append(None)
                continue
            columns = column.columns(ctx, env, batch)
            star = column.kernel is None
            arg_data, arg_valid = (None, None) if star else columns[0]
            groups = inverse
            if spec.distinct:
                # Keep the first row of every (group, value) pair.  A NULL
                # argument is no value; in a STAR row NULL is a value of
                # its own.
                codes, ok = _factorize(columns, n, (inverse, n_groups))
                if star or ok.all():
                    rows = _first_occurrences(codes)
                else:
                    live = np.flatnonzero(ok)
                    rows = live[_first_occurrences(codes[live])]
                groups = inverse[rows]
                if not star:
                    arg_data, arg_valid = arg_data[rows], None
            result = None
            if not star or name == "count":
                result = _group_fast_path(spec, arg_data, arg_valid, groups, n_groups)
            if result is None:
                # No closed form (AVG pair partials, non-count aggregates
                # over an object layout): one evaluate_spec per group.
                extracted = column.pylist(columns)
                if slices is None:
                    slices = _group_slices(inverse, n_groups)
                per_group = [
                    evaluate_spec(spec, [extracted[i] for i in group.tolist()])
                    for group in slices
                ]
                result = build_column(per_group)
            data.append(result[0])
            valid.append(result[1])
        return Batch(self.schema, data, valid, n_groups)


class VScalarAgg(VecOperator):
    """Aggregation without grouping — exactly one output row, always."""

    __slots__ = ("child", "agg_columns")

    def __init__(
        self,
        child: VecOperator,
        schema: Schema,
        agg_columns: Sequence[VAggColumn],
        free_names,
    ):
        super().__init__(schema, free_names)
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
