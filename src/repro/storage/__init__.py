"""In-memory storage substrate: schemas, tables, and the catalog.

Rows are plain Python tuples; a :class:`~repro.storage.schema.Schema`
gives positional meaning to the fields.  A :class:`~repro.storage.table.Table`
is an ordered bag (multiset) of rows, and a
:class:`~repro.storage.catalog.Catalog` names a collection of tables and
keeps lightweight statistics used by the cost-based optimizer.

:mod:`repro.storage.batch` adds the columnar
:class:`~repro.storage.batch.Batch` the default (vectorized) engine runs
on — column arrays, validity masks, selection vectors.

:mod:`repro.storage.wal` adds the durability layer: a checksummed
write-ahead log, checkpoint snapshots, and the crash-recovery scan used
by ``Database.open`` (see ``docs/durability.md``).
"""

from repro.storage.schema import Column, Schema, ColumnType
from repro.storage.table import Table
from repro.storage.catalog import Catalog, TableStats
from repro.storage.index import HashIndex, Index, IndexLookup, SortedIndex
from repro.storage.wal import (
    DurabilityConfig,
    DurabilityManager,
    LogRecord,
    RecoveryResult,
)

__all__ = [
    "Column",
    "ColumnType",
    "Schema",
    "Table",
    "Catalog",
    "TableStats",
    "Index",
    "IndexLookup",
    "HashIndex",
    "SortedIndex",
    "DurabilityConfig",
    "DurabilityManager",
    "LogRecord",
    "RecoveryResult",
]
