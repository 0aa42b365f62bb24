"""Columnar batches: the unit of work of the vectorized engine.

A :class:`Batch` stores one column array per schema column plus a
per-column *validity mask* (``None`` meaning "no NULLs"), and an optional
*selection vector* — an index array into the base column arrays.  Row
subsets (selections, bypass streams, LIMIT, DISTINCT survivors) are
expressed by replacing the selection vector only, so the two streams of a
bypass operator share one set of column arrays with zero row copying.

Column arrays use the narrowest of three physical layouts:

* ``int64``   — all non-NULL values are Python ints (bools excluded);
* ``float64`` — all non-NULL values are ints or floats;
* ``object``  — anything else (strings, mixed types, bools).

NULLs are represented *only* by the validity mask; the data array holds a
zero fill at invalid positions (numeric layouts) or ``None`` (object
layout).  Kernels must therefore never interpret the data array at
positions the mask declares invalid.

The module degrades gracefully without numpy: importing it raises
``ImportError``, and the engine's compiler reports a clear error when the
vectorized mode is requested (the row engine never imports this module).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.storage.schema import Schema

Row = tuple


#: The layouts, narrowest first: a value of a narrower layout also fits
#: every wider one.
_LAYOUT_WIDTH = {"i": 0, "f": 1, "O": 2}


def build_column(
    values: Sequence, like: np.dtype | None = None
) -> tuple[np.ndarray, np.ndarray | None] | None:
    """Build ``(data, valid)`` for one column of Python values.

    ``valid`` is ``None`` when every value is non-NULL.  With ``like``
    the column is built in exactly that layout — it is a delta to an
    existing column — and the result is ``None`` when some value does
    not belong in it (a float or a string for ``int64``, an int beyond
    64 bits).
    """
    n = len(values)
    valid: np.ndarray | None = None
    has_null = False
    is_int = True
    is_float = True
    for v in values:
        if v is None:
            has_null = True
        elif isinstance(v, bool) or not isinstance(v, (int, float)):
            is_int = is_float = False
        elif not isinstance(v, int):
            is_int = False
    if has_null:
        valid = np.fromiter((v is not None for v in values), dtype=bool, count=n)
    dtype = np.dtype(np.int64 if is_int else np.float64 if is_float else object)
    if like is not None:
        if _LAYOUT_WIDTH[dtype.kind] > _LAYOUT_WIDTH[like.kind]:
            return None
        dtype = like
    if dtype.kind != "O":
        try:
            data = np.fromiter(
                (v if v is not None else 0 for v in values), dtype=dtype, count=n
            )
            return data, valid
        except (OverflowError, ValueError):
            # e.g. ints beyond 64 bits: only the object layout holds them
            if like is not None:
                return None
    data = np.empty(n, dtype=object)
    for i, v in enumerate(values):
        data[i] = v
    return data, valid


def _unless_all(mask: np.ndarray) -> np.ndarray | None:
    """``mask``, or ``None`` (the "no NULLs" form) when it is all true."""
    return None if mask.all() else mask


def column_to_pylist(data: np.ndarray, valid: np.ndarray | None) -> list:
    """Convert one column back to a list of Python values (``None`` = NULL)."""
    out = data.tolist()
    if valid is not None:
        for index in np.nonzero(~valid)[0].tolist():
            out[index] = None
    return out


class Batch:
    """A columnar bag of rows: column arrays + validity masks + selection.

    The base arrays are immutable by convention; every transformation
    returns a new ``Batch`` that either shares the base arrays (changed
    selection vector, projected column subset) or owns freshly computed
    arrays (joins, grouping, union).
    """

    __slots__ = ("schema", "data", "valid", "base_length", "sel", "_gather_cache")

    def __init__(
        self,
        schema: Schema,
        data: Sequence[np.ndarray],
        valid: Sequence[np.ndarray | None],
        base_length: int,
        sel: np.ndarray | None = None,
    ):
        self.schema = schema
        self.data = tuple(data)
        self.valid = tuple(valid)
        self.base_length = base_length
        self.sel = sel
        self._gather_cache: dict[int, tuple] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(cls, schema: Schema, rows: Sequence[Row]) -> "Batch":
        """Pivot a list of row tuples into column arrays."""
        n = len(rows)
        if len(schema) == 0:
            return cls(schema, (), (), n)
        if n == 0:
            empty = [np.empty(0, dtype=object) for _ in schema]
            return cls(schema, empty, [None] * len(schema), 0)
        columns = list(zip(*rows))
        data, valid = [], []
        for values in columns:
            d, v = build_column(values)
            data.append(d)
            valid.append(v)
        return cls(schema, data, valid, n)

    @classmethod
    def empty(cls, schema: Schema) -> "Batch":
        return cls.from_rows(schema, [])

    # -- size ---------------------------------------------------------------

    def __len__(self) -> int:
        return self.base_length if self.sel is None else len(self.sel)

    # -- column access ------------------------------------------------------

    def column(self, position: int) -> tuple[np.ndarray, np.ndarray | None]:
        """``(data, valid)`` for one column, gathered through the selection.

        Gathered columns are cached per batch so that several kernels
        touching the same column pay the gather once.
        """
        if self.sel is None:
            return self.data[position], self.valid[position]
        cached = self._gather_cache.get(position)
        if cached is not None:
            return cached
        data = self.data[position][self.sel]
        base_valid = self.valid[position]
        valid = None if base_valid is None else base_valid[self.sel]
        self._gather_cache[position] = (data, valid)
        return data, valid

    def column_values(self, position: int) -> list:
        """One column as Python values (NULL → ``None``), selection applied."""
        data, valid = self.column(position)
        return column_to_pylist(data, valid)

    # -- row-subset transforms (share the base arrays) ----------------------

    def take(self, indices: np.ndarray) -> "Batch":
        """Batch restricted to ``indices`` (positions within the current view)."""
        indices = np.asarray(indices, dtype=np.int64)
        sel = indices if self.sel is None else self.sel[indices]
        return Batch(self.schema, self.data, self.valid, self.base_length, sel)

    def filter(self, mask: np.ndarray) -> "Batch":
        """Keep the rows where ``mask`` (aligned with the current view) holds."""
        return self.take(np.nonzero(mask)[0])

    def split(self, mask: np.ndarray) -> tuple["Batch", "Batch"]:
        """Partition into (mask-true, mask-false) batches without copying.

        This is the selection-vector form of a bypass operator: both
        returned batches alias the same column arrays.
        """
        indices = np.arange(len(self), dtype=np.int64)
        return self.take(indices[mask]), self.take(indices[~mask])

    def head(self, count: int) -> "Batch":
        if count >= len(self):
            return self
        return self.take(np.arange(count, dtype=np.int64))

    # -- column-subset transforms -------------------------------------------

    def project(self, positions: Sequence[int], schema: Schema) -> "Batch":
        """Column subset/reorder; shares arrays and the selection vector."""
        data = [self.data[p] for p in positions]
        valid = [self.valid[p] for p in positions]
        return Batch(schema, data, valid, self.base_length, self.sel)

    def rename(self, schema: Schema) -> "Batch":
        return Batch(schema, self.data, self.valid, self.base_length, self.sel)

    def compact(self) -> "Batch":
        """Materialise the selection: a batch whose arrays are dense."""
        if self.sel is None:
            return self
        data, valid = [], []
        for position in range(len(self.data)):
            d, v = self.column(position)
            data.append(d)
            valid.append(v)
        return Batch(self.schema, data, valid, len(self.sel))

    def with_column(
        self, schema: Schema, data: np.ndarray, valid: np.ndarray | None
    ) -> "Batch":
        """Append one computed column (aligned with the current view)."""
        base = self.compact()
        return Batch(
            schema, base.data + (data,), base.valid + (valid,), len(base)
        )

    # -- combination --------------------------------------------------------

    @classmethod
    def concat(cls, schema: Schema, parts: Iterable["Batch"]) -> "Batch":
        """Bag concatenation (UNION ALL)."""
        parts = [part.compact() for part in parts]
        parts = [part for part in parts if len(part)]
        if not parts:
            return cls.empty(schema)
        if len(parts) == 1:
            return parts[0].rename(schema)
        length = sum(len(part) for part in parts)
        data, valid = [], []
        for position in range(len(schema)):
            pieces = [part.data[position] for part in parts]
            if len({piece.dtype for piece in pieces}) > 1:
                pieces = [piece.astype(object) for piece in pieces]
            data.append(np.concatenate(pieces))
            masks = [part.valid[position] for part in parts]
            if all(mask is None for mask in masks):
                valid.append(None)
            else:
                valid.append(
                    np.concatenate(
                        [
                            np.ones(len(part), dtype=bool) if mask is None else mask
                            for part, mask in zip(parts, masks)
                        ]
                    )
                )
        return cls(schema, data, valid, length)

    # -- writer-side deltas -------------------------------------------------
    #
    # How DML carries a table's cached pivot to the next table version
    # (``Table.carry_batch``).  Each returns a new batch over new arrays
    # for what changed — readers pinned at the old version keep theirs —
    # or ``None`` when a value does not fit its column's layout, which
    # sends the table back to the one full pivot, :meth:`from_rows`.  A
    # layout never narrows: a ``float64`` column stays ``float64`` after
    # its last float has left, as it would have had the float stayed.

    def appended(self, rows: Sequence[Row]) -> "Batch | None":
        """This batch with ``rows`` added at the end."""
        if not rows:
            return self
        if self.base_length == 0:
            return None  # an empty pivot has no layout yet
        base = self.compact()
        tail = [build_column(values, data.dtype) for values, data in zip(zip(*rows), base.data)]
        if any(column is None for column in tail):
            return None
        data, valid = zip(*tail) if tail else ((), ())
        return Batch.concat(self.schema, [base, Batch(self.schema, data, valid, len(rows))])

    def without(self, positions: Sequence[int]) -> "Batch":
        """This batch minus the rows at ``positions`` (distinct)."""
        base = self.compact()
        gone = np.fromiter(positions, dtype=np.int64, count=len(positions))
        data = [np.delete(column, gone) for column in base.data]
        valid = [
            None if mask is None else _unless_all(np.delete(mask, gone)) for mask in base.valid
        ]
        return Batch(self.schema, data, valid, len(base) - len(gone))

    def overwritten(
        self, positions: Sequence[int], columns: Sequence[int], rows: Sequence[Row]
    ) -> "Batch | None":
        """This batch with ``rows`` in place of those at ``positions``;
        only the columns at ``columns`` differ from what they replace."""
        base = self.compact()
        where = np.fromiter(positions, dtype=np.int64, count=len(positions))
        data, valid = list(base.data), list(base.valid)
        for column in columns:
            built = build_column([row[column] for row in rows], data[column].dtype)
            if built is None:
                return None
            new_data, new_valid = built
            data[column] = data[column].copy()
            data[column][where] = new_data
            mask = valid[column]
            if mask is not None or new_valid is not None:
                mask = np.ones(len(base), dtype=bool) if mask is None else mask.copy()
                mask[where] = True if new_valid is None else new_valid
                valid[column] = _unless_all(mask)
        return Batch(self.schema, data, valid, len(base))

    # -- materialisation ----------------------------------------------------

    def to_rows(self) -> list[Row]:
        """Materialise as a list of Python row tuples (the row engine's format)."""
        n = len(self)
        if len(self.schema) == 0:
            return [()] * n
        columns = [self.column_values(position) for position in range(len(self.data))]
        return list(zip(*columns))

    def __repr__(self) -> str:
        layout = ",".join(d.dtype.kind for d in self.data)
        return f"Batch({len(self)} rows, {list(self.schema.names)}, dtypes={layout})"
