"""Key codes: grouping, duplicate elimination, DISTINCT aggregates and
equi-joins work on dense group ids, equal keys for equal ids.  A
:class:`KeyCoder` codes one side's key columns once, and its lookup codes
any other batch straight into those ids: a join never codes the union of
its sides (docs/vectorized-engine.md "Key codes")."""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Counting beats sorting while its table stays O(n): a code range of at most
#: this many slots per row (plus 64 rows, so a tiny batch still counts) counts.
_SLOTS_PER_ROW = 4

#: A composite code is renumbered before its bound passes this (int64 wraps).
_CODE_LIMIT = 1 << 62


def _countable(span: int, n: int) -> bool:
    """Whether a table of ``span`` slots is O(``n``)."""
    return span <= _SLOTS_PER_ROW * (n + 64)


class Dense:
    """``codes`` renumbered ``0..n_groups-1`` in ascending code order, with
    each id's first row (``firsts``).  A countable range is counted: first
    rows by one reversed scatter of the row numbers into a range-sized
    table (the last write wins), ids through a code → id table with a
    trailing "no group" slot.  A wide one is sorted: ``np.sort`` of packed
    ``(code - lo) << b | row`` keys, a stable ``argsort`` past 63 bits."""

    __slots__ = ("n_groups", "firsts", "lo", "table", "distinct", "_rows")

    def __init__(self, codes: np.ndarray):
        n = len(codes)
        lo = self.lo = int(codes.min()) if n else 0
        span = int(codes.max()) - lo + 1 if n else 0  # Python ints: may pass 2**63
        if _countable(span, n):
            offsets = codes - lo
            first = np.full(span, -1, dtype=np.int64)
            first[offsets[::-1]] = np.arange(n - 1, -1, -1, dtype=np.int64)
            present = first >= 0
            self.firsts = first[present]
            self.table = np.full(span + 1, len(self.firsts), dtype=np.int64)
            self.table[:-1][present] = np.arange(len(self.firsts), dtype=np.int64)
            self.distinct, self._rows = None, offsets
        else:
            shift = n.bit_length()
            if (span - 1) >> (63 - shift) == 0:
                packed = np.sort(((codes - lo) << shift) | np.arange(n, dtype=np.int64))
                order, ordered = packed & ((1 << shift) - 1), packed >> shift
            else:
                order = np.argsort(codes, kind="stable")
                ordered = codes[order]
            new = np.empty(n, dtype=bool)
            new[0] = True
            np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
            self.firsts, self.table, self.distinct = order[new], None, None
            self._rows = order, new, codes
        self.n_groups = len(self.firsts)

    def ids(self) -> np.ndarray:
        """Each coded row's id."""
        if self.table is not None:
            return self.table[self._rows]
        order, new, _ = self._rows
        ids = np.empty(len(order), dtype=np.int64)
        ids[order] = np.cumsum(new) - 1
        return ids

    def find(self, codes: np.ndarray) -> np.ndarray:
        """Each code's id, ``n_groups`` for one no row had.  An offset is
        unsigned, capped onto the "no group" slot: below ``lo`` wraps past."""
        if self.table is not None:
            offsets = np.minimum((codes - self.lo).view(np.uint64), len(self.table) - 1)
            return self.table[offsets.view(np.int64)]
        distinct = self._rows[2][self.firsts] if self.distinct is None else self.distinct
        at = np.minimum(np.searchsorted(distinct, codes), self.n_groups - 1)
        return np.where(distinct[at] == codes, at, self.n_groups)

    def drop_rows(self) -> None:
        """Keep lookup state alone: a sorted renumbering's distinct codes."""
        if self.table is None:
            self.distinct = self._rows[2][self.firsts]
        self.firsts = self._rows = None


class _Column:
    """One key column's digits: 0 for NULL, ``1..cardinality`` for values,
    ``cardinality + 1`` (no build row's) for a looked-up NULL or unseen one.
    Kept for lookups: ``lo`` of an ``int64`` column coded by offset while its
    range counts, else the sorted ``values``, or an ``object`` one's dict."""

    __slots__ = ("dtype", "lo", "cardinality", "values", "mapping")

    def __init__(self, dtype, cardinality: int, lo: int = 0, values=None, mapping=None):
        self.dtype, self.cardinality, self.lo, self.values = dtype, cardinality, lo, values
        self.mapping = mapping

    @classmethod
    def code(cls, data: np.ndarray, valid: np.ndarray | None, n: int):
        """``(column, digits)`` of the build side's ``data``."""
        live = data if valid is None else data[valid]
        lo = span = 0
        if data.dtype == np.int64 and len(live):
            lo = int(live.min())
            span = int(live.max()) - lo + 1
        if data.dtype == object:
            # Hashing, as the row engine's sets and dicts do: sorting Python
            # objects costs several times as much and cannot order mixed types.
            mapping: dict = {}
            live_digits = np.fromiter(
                (mapping.setdefault(value, len(mapping) + 1) for value in live.tolist()), np.int64
            )
            column = cls(data.dtype, len(mapping), mapping=mapping)
        elif data.dtype == np.int64 and _countable(span, n):
            live_digits, column = live - lo, cls(data.dtype, span, lo)
            live_digits += 1
        else:
            values, inverse = np.unique(live, return_inverse=True)
            live_digits = inverse.astype(np.int64) + 1
            column = cls(data.dtype, len(values), values=values)
        if valid is None:
            return column, live_digits
        digits = np.zeros(n, dtype=np.int64)
        digits[valid] = live_digits
        return column, digits

    def lookup(self, data: np.ndarray, valid: np.ndarray | None) -> np.ndarray:
        """Digits of another batch's column, by offset or search in the same
        layout; across layouts as Python values, through a dict of the
        build's values: ``1 = 1.0 = TRUE``, ``2**53 + 1 ≠ 2.0**53``."""
        miss = self.cardinality + 1
        if data.dtype != self.dtype or data.dtype == object:
            mapping = self.mapping
            if mapping is None:  # built once; a race builds it twice, equal
                lo, values = self.lo, self.values
                values = range(lo, lo + self.cardinality) if values is None else values.tolist()
                mapping = self.mapping = {value: digit for digit, value in enumerate(values, 1)}
            digits = np.fromiter((mapping.get(value, miss) for value in data.tolist()), np.int64)
        elif self.values is None:
            digits = np.minimum((data - self.lo).view(np.uint64), self.cardinality).view(np.int64)
            digits += 1
        elif self.cardinality:
            at = np.minimum(np.searchsorted(self.values, data), self.cardinality - 1)
            digits = np.where(self.values[at] == data, at + 1, miss)
        else:
            digits = np.full(len(data), miss, dtype=np.int64)
        if valid is not None:
            digits[~valid] = miss
        return digits


class KeyCoder(Dense):
    """One side's key columns coded once into group ids, the :class:`Dense`
    renumbering of their mixed-radix code, and ``ok``: no NULL key field.
    NULL is a value of its own in the ids (grouping and ``DISTINCT *`` keep
    NULL-keyed groups) that no :meth:`lookup` of another batch reaches."""

    __slots__ = ("ok", "_columns", "_steps")

    def __init__(self, columns: Sequence[tuple[np.ndarray, np.ndarray | None]], n: int):
        codes, ok, bound = None, None, 1
        self._columns, self._steps = [], {}
        for i, (data, valid) in enumerate(columns):
            column, digits = _Column.code(data, valid, n)
            self._columns.append(column)
            if valid is not None:  # only a NULL codes 0
                ok = digits > 0 if ok is None else ok & (digits > 0)
            radix = column.cardinality + 2
            if codes is not None:
                if bound * radix > _CODE_LIMIT:
                    # Renumber the running codes 0..k-1 (k <= n, and k is a
                    # lookup's "no group") before the multiply can wrap.
                    step = self._steps[i] = Dense(codes)
                    codes, bound = step.ids(), step.n_groups + 1
                    step.drop_rows()
                digits += codes * np.int64(radix)
            codes, bound = digits, bound * radix
        super().__init__(np.zeros(n, dtype=np.int64) if codes is None else codes)
        self.ok = np.ones(n, dtype=bool) if ok is None else ok

    def lookup(self, columns: Sequence[tuple[np.ndarray, np.ndarray | None]], n: int) -> np.ndarray:
        """Each of ``n`` rows' group id, ``n_groups`` when no build row has
        its key: the build's digits and renumberings, then :meth:`find`."""
        codes = None
        for i, (column, (data, valid)) in enumerate(zip(self._columns, columns)):
            digits = column.lookup(data, valid)
            if codes is not None:
                if i in self._steps:
                    codes = self._steps[i].find(codes)
                digits += codes * np.int64(column.cardinality + 2)
            codes = digits
        return self.find(np.zeros(n, dtype=np.int64) if codes is None else codes)

    def kept(self) -> KeyCoder:
        """This coder with lookup state alone, as a kept build holds it."""
        self.ok = None
        self.drop_rows()
        return self
