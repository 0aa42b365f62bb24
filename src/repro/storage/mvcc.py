"""Multi-version tables: snapshot reads that never wait on writers.

Every committed mutation advances a database-wide *commit LSN* and
appends one :class:`TableVersion` per touched table.  A version is a
``(rows list reference, length)`` pair rather than a row copy:

* **INSERT** appends to the live list in place, so every older version's
  stable prefix ``rows_ref[:length]`` is untouched (list appends never
  move existing elements under CPython);
* **DELETE / UPDATE** swap in a *new* list (see :mod:`repro.dml`), so
  older versions keep the old list alive by reference.

Readers :meth:`~SnapshotManager.pin` the current LSN at query start and
resolve tables through a :class:`SnapshotCatalog`, which serves lazily
materialised :class:`TableSnapshot` views — frozen tables whose rows are
the pinned prefix.  Readers therefore never take the database commit
lock; a long write burst cannot stall them, and a query never observes a
half-applied statement.  Versions are garbage-collected as soon as no
pin can reach them (the newest version per table always survives).

Secondary indexes need no versioning of their own: a build is immutable
and made over one table object at one version, so a snapshot reader
probes the build over exactly its frozen rows, made once per snapshot
and index definition — see :func:`repro.storage.index.index_for`.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Iterator

from repro.errors import CatalogError
from repro.storage.catalog import Catalog, TableStats
from repro.storage.index import Index
from repro.storage.table import Table


class TableVersion:
    """One committed state of one table: a stable prefix of a rows list."""

    __slots__ = (
        "lsn",
        "rows_ref",
        "length",
        "table_version",
        "table_ref",
        "snapshot",
        "dropped",
    )

    def __init__(
        self,
        lsn: int,
        rows_ref: list | None,
        length: int,
        table_version: int,
        table_ref: Table | None = None,
        dropped: bool = False,
    ):
        self.lsn = lsn
        self.rows_ref = rows_ref
        self.length = length
        self.table_version = table_version
        #: The live :class:`Table` object this version was committed
        #: from; used to detect out-of-protocol mutations (a direct
        #: ``catalog.replace`` or ``table.append`` that bypassed the
        #: database facade), which keep their legacy read-live semantics.
        self.table_ref = table_ref
        #: Lazily built frozen :class:`TableSnapshot`, shared by every
        #: reader pinned at an LSN that resolves to this version.
        self.snapshot: TableSnapshot | None = None
        self.dropped = dropped

    def build_snapshot(self, live: Table) -> "TableSnapshot":
        snapshot = self.snapshot
        if snapshot is None:
            # Build outside any lock: the slice is atomic under the GIL
            # and the prefix is immutable, so two racing builders produce
            # identical snapshots and the last store wins harmlessly.
            snapshot = TableSnapshot(
                live, self.rows_ref[: self.length], self.lsn, self.table_version
            )
            self.snapshot = snapshot
        return snapshot


class TableSnapshot(Table):
    """A frozen, read-only view of one committed table version.

    Structurally a :class:`Table` (so the engines, the vectorized batch
    pivot cache, the index builds and the statistics helpers all work
    unchanged), plus a pointer back to the live base table for the
    index ownership checks.
    """

    __slots__ = ("base_table", "snapshot_lsn")

    def __init__(self, base: Table, rows: list, lsn: int, table_version: int):
        super().__init__(base.schema, (), name=base.name)
        # Bypass the per-row arity validation of Table.__init__: these
        # rows were validated when they entered the base table.
        self.rows = rows
        self.version = table_version
        self.base_table = base
        self.snapshot_lsn = lsn

    def append(self, row) -> None:  # pragma: no cover - defensive
        raise CatalogError(
            f"table snapshot of {self.name!r} (LSN {self.snapshot_lsn}) is read-only"
        )


class SnapshotHandle:
    """An active pin: keeps every version at ``lsn`` readable until released."""

    __slots__ = ("lsn", "released")

    def __init__(self, lsn: int):
        self.lsn = lsn
        self.released = False

    def __repr__(self) -> str:
        state = "released" if self.released else "active"
        return f"SnapshotHandle(lsn={self.lsn}, {state})"


class SnapshotManager:
    """Commit log of table versions plus the pin/GC machinery.

    All mutating entry points (:meth:`commit`, :meth:`note_drop`) are
    called by the :class:`~repro.Database` facade under its commit lock;
    :meth:`pin`/:meth:`unpin` and :meth:`snapshot_table` take only the
    manager's own small lock, so readers never contend with a writer's
    apply+log critical section.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._lsn = 0
        #: table key -> ascending-LSN version chain.
        self._chains: dict[str, list[TableVersion]] = {}
        #: pinned LSN -> refcount.
        self._pins: dict[int, int] = {}
        #: table key -> pre-statement version captured by :meth:`begin`;
        #: active exactly while a writer's apply+log section runs, so a
        #: reader arriving mid-statement still sees the committed state.
        self._in_progress: dict[str, TableVersion] = {}
        self._versions_created = 0
        self._versions_collected = 0
        self._pins_taken = 0
        self._pins_force_released = 0

    # -- write side (called under the database commit lock) ----------------

    def begin(self, name: str, table: Table) -> None:
        """Capture ``table``'s pre-statement state before a mutation runs.

        Readers that resolve the newest LSN while the statement is being
        applied are served this capture instead of the half-mutated live
        table.  :meth:`commit` (or :meth:`abort`) retires it.
        """
        with self._lock:
            self._in_progress[name.lower()] = TableVersion(
                self._lsn, table.rows, len(table.rows), table.version, table
            )

    def abort(self, name: str) -> None:
        """Retire a :meth:`begin` capture whose statement failed."""
        with self._lock:
            self._in_progress.pop(name.lower(), None)

    def commit(self, tables: dict[str, Table]) -> int:
        """Record new versions for ``tables`` at the next commit LSN."""
        with self._lock:
            self._lsn += 1
            lsn = self._lsn
            for key, table in tables.items():
                key = key.lower()
                self._in_progress.pop(key, None)
                chain = self._chains.setdefault(key, [])
                chain.append(
                    TableVersion(lsn, table.rows, len(table.rows), table.version, table)
                )
                self._versions_created += 1
            self._collect_locked()
            return lsn

    def note_drop(self, name: str) -> int:
        """Record a drop tombstone: pins at later LSNs no longer see it."""
        with self._lock:
            self._lsn += 1
            chain = self._chains.setdefault(name.lower(), [])
            chain.append(TableVersion(self._lsn, None, 0, -1, dropped=True))
            self._versions_created += 1
            self._collect_locked()
            return self._lsn

    # -- read side ----------------------------------------------------------

    @property
    def lsn(self) -> int:
        return self._lsn

    def pin(self, lsn: int | None = None) -> SnapshotHandle:
        """Pin ``lsn`` (default: the current commit LSN) for reading."""
        with self._lock:
            target = self._lsn if lsn is None else min(lsn, self._lsn)
            self._pins[target] = self._pins.get(target, 0) + 1
            self._pins_taken += 1
            return SnapshotHandle(target)

    def unpin(self, handle: SnapshotHandle) -> None:
        if handle.released:
            return
        with self._lock:
            handle.released = True
            count = self._pins.get(handle.lsn, 0) - 1
            if count > 0:
                self._pins[handle.lsn] = count
            else:
                self._pins.pop(handle.lsn, None)
                self._collect_locked()

    def force_unpin(self, handle: SnapshotHandle) -> bool:
        """Release a pin its holder leaked (``Database.close`` cleanup).

        Identical to :meth:`unpin` except the release is *counted*: a
        leaked pin blocks version GC forever, so the caller wants the
        evidence in :meth:`info` (``pins_force_released``) rather than a
        silent fix.  Returns True when the handle was still active.
        """
        if handle.released:
            return False
        self.unpin(handle)
        with self._lock:
            self._pins_force_released += 1
        return True

    def version_at(self, name: str, lsn: int) -> TableVersion | None:
        """The newest version of ``name`` with ``version.lsn <= lsn``."""
        chain = self._chains.get(name.lower())
        if not chain:
            return None
        index = bisect_right([entry.lsn for entry in chain], lsn)
        if index == 0:
            return None
        return chain[index - 1]

    def snapshot_table(self, name: str, lsn: int, live: Table) -> Table:
        """The view of ``name`` as of ``lsn``.

        Resolution order:

        1. no version chain — the table predates the manager (driven
           through :class:`Catalog` directly, e.g. in unit tests): serve
           the live table;
        2. the resolved version is *not* the newest — a genuinely pinned
           historical read: serve its frozen snapshot;
        3. newest version, but a writer's apply+log section is running
           for this table: serve the pre-statement capture;
        4. newest version that has drifted from the live table (an
           out-of-protocol mutation — direct ``catalog.replace`` /
           ``table.append``): serve the live table, preserving the
           pre-MVCC semantics of those escape hatches;
        5. otherwise: the frozen snapshot of the newest version.

        The choice is made under the manager's lock: a writer mutates the
        live table only between :meth:`begin` and :meth:`commit`, so
        without a capture in progress, drift of the newest version is an
        out-of-protocol mutation, never a statement not yet committed.
        """
        key = name.lower()
        with self._lock:
            entry = self.version_at(key, lsn)
            if entry is None:
                return live
            if entry.dropped:
                raise CatalogError(
                    f"table {name!r} does not exist at snapshot LSN {lsn}"
                )
            if entry is self._chains[key][-1]:
                overlay = self._in_progress.get(key)
                if overlay is not None:
                    entry = overlay
                elif entry.table_ref is not live or entry.table_version != live.version:
                    return live
        return entry.build_snapshot(live)

    # -- garbage collection --------------------------------------------------

    def _collect_locked(self) -> None:
        """Drop versions no pin can reach (always keep the newest)."""
        if not self._chains:
            return
        pinned = sorted(self._pins)
        for key, chain in list(self._chains.items()):
            if len(chain) <= 1:
                if chain and chain[-1].dropped and not pinned:
                    del self._chains[key]
                    self._versions_collected += 1
                continue
            keep = {len(chain) - 1}  # the newest version always survives
            lsns = [entry.lsn for entry in chain]
            for pin in pinned:
                index = bisect_right(lsns, pin)
                if index > 0:
                    keep.add(index - 1)
            if len(keep) == len(chain):
                continue
            survivors = [entry for i, entry in enumerate(chain) if i in keep]
            self._versions_collected += len(chain) - len(survivors)
            if len(survivors) == 1 and survivors[0].dropped:
                del self._chains[key]
            else:
                self._chains[key] = survivors

    # -- introspection -------------------------------------------------------

    def info(self) -> dict:
        with self._lock:
            chain_sizes = {key: len(chain) for key, chain in self._chains.items()}
            return {
                "lsn": self._lsn,
                "versions": sum(chain_sizes.values()),
                "chains": chain_sizes,
                "active_pins": sum(self._pins.values()),
                "pinned_lsns": sorted(self._pins),
                "pins_taken": self._pins_taken,
                "pins_force_released": self._pins_force_released,
                "versions_created": self._versions_created,
                "versions_collected": self._versions_collected,
            }


class SnapshotCatalog:
    """A read-only catalog view pinned at one commit LSN.

    ``table()`` serves frozen :class:`TableSnapshot` views; everything
    else (statistics, index metadata, view definitions) delegates to the
    live catalog — statistics inform cost estimates only, so serving the
    live numbers to a pinned reader affects plan choice, never results.
    """

    def __init__(self, base: Catalog, manager: SnapshotManager, lsn: int):
        self._base = base
        self._manager = manager
        self.lsn = lsn

    def table(self, name: str) -> Table:
        live = self._base.table(name)
        return self._manager.snapshot_table(name, self.lsn, live)

    def stats(self, name: str) -> TableStats:
        return self._base.stats(name)

    def index(self, name: str) -> Index:
        return self._base.index(name)

    # Dunders are looked up on the type, so each delegation is explicit.

    def __contains__(self, name: str) -> bool:
        return name in self._base

    def __iter__(self) -> Iterator[str]:
        return iter(self._base)

    def __len__(self) -> int:
        return len(self._base)

    def __getattr__(self, attr):
        return getattr(self._base, attr)
