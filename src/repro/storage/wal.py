"""Durable storage: write-ahead log, checkpoints, and crash recovery.

The in-memory catalog gains durability the classical way (redo-only
command logging with fuzzy checkpoints, in the spirit of ARIES and the
command-log recovery literature):

* every committed mutation — a DML statement, table/view/index DDL —
  appends one **log record** to ``wal.log``: a length-prefixed,
  CRC32-checksummed binary frame carrying a monotonic LSN and a JSON
  payload.  The record is fsynced before the statement is acknowledged,
  so an acknowledged statement survives any crash;
* periodically the whole catalog state is written to a
  ``snapshot.<lsn>`` file (**checkpoint**) and the log is truncated, so
  recovery replays a bounded tail instead of the full history;
* **recovery** (:meth:`DurabilityManager.start`) loads the newest valid
  snapshot, scans the log, *detects and discards* torn or corrupt
  trailing records via the per-record checksum, truncates the file back
  to its good prefix, and hands the surviving records to the caller for
  replay.

File formats (all integers little-endian)::

    wal.log        = b"RPWAL1\\x00\\n" + u64 base_lsn + record*
    record         = u64 lsn + u32 payload_len + u32 crc + payload
    crc            = crc32(pack("<QI", lsn, payload_len) + payload)
    snapshot.<lsn> = b"RPSNAP1\\n" + one record framing the state JSON

Record LSNs are dense: record ``i`` of a log with base LSN ``b`` has
LSN ``b + i + 1``.  A record whose LSN breaks the sequence, whose
length runs past the end of the file, or whose checksum mismatches ends
the scan — everything before it is the recovered prefix, everything
after is dropped (a torn tail is never replayed).

Fault sites (see :mod:`repro.faults`) cover the durability path:

=============================  ==========================================
``storage.wal.append``         before a log record is written
``storage.wal.fsync``          before the record is fsynced
``storage.checkpoint.write``   before a checkpoint snapshot is written
=============================  ==========================================

Crash points are a harder hammer than injected faults: when
``REPRO_CRASH_SITE`` names one of :data:`CRASH_POINTS` (prefix match,
like fault sites) the process dies with ``os._exit`` — no ``finally``
blocks, no flushes — at the matching boundary, optionally on the Nth
hit (``REPRO_CRASH_AFTER``).  ``storage.wal.append.torn`` additionally
writes *half* a record before dying, producing a genuinely torn tail.
The crash-recovery test suite drives a subprocess through every one of
these points and asserts the recovered database equals the committed
prefix.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import DurabilityError
from repro.faults import site_matches

WAL_MAGIC = b"RPWAL1\x00\n"
SNAPSHOT_MAGIC = b"RPSNAP1\n"
WAL_NAME = "wal.log"
SNAPSHOT_PREFIX = "snapshot."

_BASE = struct.Struct("<Q")  # wal header: base LSN after the magic
_FRAME = struct.Struct("<QII")  # record header: lsn, payload_len, crc
_CRC_HEADER = struct.Struct("<QI")  # the slice of the header the crc covers
WAL_HEADER_SIZE = len(WAL_MAGIC) + _BASE.size

#: Sanity bound on a single record payload; anything larger is treated
#: as header corruption (the scan stops there).
MAX_PAYLOAD_BYTES = 1 << 30

# -- fault sites (recoverable InjectedFault, via repro.faults) -------------

SITE_WAL_APPEND = "storage.wal.append"
SITE_WAL_FSYNC = "storage.wal.fsync"
SITE_CHECKPOINT_WRITE = "storage.checkpoint.write"

# -- process crash points (os._exit, via REPRO_CRASH_SITE) -----------------

ENV_CRASH_SITE = "REPRO_CRASH_SITE"
ENV_CRASH_AFTER = "REPRO_CRASH_AFTER"

#: Every boundary at which the crash hook can kill the process.  The
#: crash-recovery differential test iterates this tuple.
CRASH_POINTS = (
    "storage.dml.apply",
    "storage.wal.append.before",
    "storage.wal.append.torn",
    "storage.wal.append.after",
    "storage.wal.fsync.after",
    "storage.checkpoint.write.before",
    "storage.checkpoint.rename.before",
    "storage.checkpoint.truncate.before",
    "storage.checkpoint.after",
)

#: Exit status used by the crash hook; chosen to match a SIGKILLed
#: process (128 + 9) so harnesses treat both deaths identically.
CRASH_EXIT_STATUS = 137

# Indirection so tests can observe crash decisions without dying.
_exit = os._exit

_crash_hits = 0


def _crash_due(site: str) -> bool:
    """True when the env-armed crash hook should fire at ``site``.

    Counts matching hits process-wide so ``REPRO_CRASH_AFTER=N`` dies on
    the Nth matching boundary (default: the first).
    """
    global _crash_hits
    target = os.environ.get(ENV_CRASH_SITE, "")
    if not target:
        return False
    if not site_matches(site, target):
        return False
    _crash_hits += 1
    return _crash_hits >= int(os.environ.get(ENV_CRASH_AFTER, "1"))


def crash_point(site: str) -> None:
    """Die instantly (no cleanup) when the crash hook is armed for ``site``."""
    if _crash_due(site):
        _exit(CRASH_EXIT_STATUS)


def reset_crash_hits() -> None:
    """Reset the process-wide crash-hit counter (test isolation)."""
    global _crash_hits
    _crash_hits = 0


# ---------------------------------------------------------------------------
# Record framing
# ---------------------------------------------------------------------------


class LogRecord(NamedTuple):
    """One decoded WAL record."""

    lsn: int
    kind: str
    data: dict


def _encode_payload(kind: str, data: dict) -> bytes:
    try:
        return json.dumps(
            {"kind": kind, "data": data}, separators=(",", ":"), allow_nan=True
        ).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise DurabilityError(f"log payload for {kind!r} is not serializable: {error}")


def _frame(lsn: int, payload: bytes) -> bytes:
    crc = zlib.crc32(_CRC_HEADER.pack(lsn, len(payload)) + payload)
    return _FRAME.pack(lsn, len(payload), crc) + payload


def scan_frames(raw: bytes, offset: int, expected_lsn: int):
    """Decode consecutive records until the data stops making sense.

    Returns ``(records, offsets)`` — ``records[i]`` occupies
    ``raw[offsets[i]:offsets[i + 1]]``, so the clean data stops at
    ``offsets[-1]`` and whatever follows is torn or corrupt.  Recovery,
    the replication tail, the follower's batch decoder and the scrubber
    all validate bytes with this scan.
    """
    records: list[LogRecord] = []
    offsets = [offset]
    while True:
        if offset + _FRAME.size > len(raw):
            break  # torn header (or clean EOF)
        lsn, length, crc = _FRAME.unpack_from(raw, offset)
        if lsn != expected_lsn or length > MAX_PAYLOAD_BYTES:
            break  # header corruption / stale bytes past a truncation
        start = offset + _FRAME.size
        end = start + length
        if end > len(raw):
            break  # torn payload
        payload = raw[start:end]
        if zlib.crc32(_CRC_HEADER.pack(lsn, length) + payload) != crc:
            break  # bit rot or a torn overwrite
        try:
            decoded = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            break
        if not isinstance(decoded, dict):
            break
        records.append(
            LogRecord(lsn, str(decoded.get("kind", "")), decoded.get("data") or {})
        )
        offsets.append(end)
        offset = end
        expected_lsn += 1
    return records, offsets


class WalScan(NamedTuple):
    """One validating pass over a ``wal.log`` file (:func:`scan_wal`)."""

    #: The file's bytes; None when the directory has no ``wal.log``.
    raw: bytes | None
    #: False when the magic/base header is short or mangled: no offset
    #: in the file can be trusted and every byte counts as torn.
    header_ok: bool
    base_lsn: int
    records: list[LogRecord]
    #: See :func:`scan_frames`; ``offsets[-1]`` is where the clean prefix
    #: stops and recovery truncates.
    offsets: list[int]

    @property
    def torn_bytes(self) -> int:
        return len(self.raw or b"") - self.offsets[-1]

    @property
    def last_lsn(self) -> int:
        return self.base_lsn + len(self.records)


def scan_wal(data_dir: str) -> WalScan:
    """Read and validate ``data_dir``'s log, once.

    The single reader of ``wal.log``: crash recovery replays its
    records, :func:`read_wal_tail` slices its bytes for followers, and
    :func:`scrub` reports on it — none of them parses the file itself.
    Only a missing file reads as "no log"; any other ``OSError``
    propagates, so an unreadable log is never mistaken for an absent one
    (recovery would start a fresh log over it).
    """
    try:
        with open(os.path.join(data_dir, WAL_NAME), "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        return WalScan(None, False, 0, [], [0])
    if len(raw) < WAL_HEADER_SIZE or not raw.startswith(WAL_MAGIC):
        return WalScan(raw, False, 0, [], [0])
    (base_lsn,) = _BASE.unpack_from(raw, len(WAL_MAGIC))
    return WalScan(raw, True, base_lsn, *scan_frames(raw, WAL_HEADER_SIZE, base_lsn + 1))


def _recovery_gap(scan: WalScan, snapshot_lsn: int) -> bool:
    """True when the log bases past the newest loadable snapshot: a tail
    based at LSN ``b`` presumes state through ``b``, and if the snapshot
    that had it is missing or corrupt those records exist nowhere."""
    return scan.header_ok and scan.base_lsn > snapshot_lsn


def _fsync_file(handle) -> None:
    handle.flush()
    os.fsync(handle.fileno())


def _fsync_dir(path: str) -> None:
    """Persist a directory entry (rename/create durability); best-effort."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


def write_snapshot(path: str, lsn: int, state: dict) -> None:
    """Atomically write ``state`` to ``path`` (tmp + fsync + rename)."""
    payload = _encode_payload("snapshot", state)
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(SNAPSHOT_MAGIC)
        handle.write(_frame(lsn, payload))
        _fsync_file(handle)
    crash_point("storage.checkpoint.rename.before")
    os.replace(tmp, path)
    _fsync_dir(os.path.dirname(path) or ".")


def load_snapshot(path: str) -> tuple[int, dict]:
    """Read and verify one snapshot file; raises :class:`DurabilityError`."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as error:
        raise DurabilityError(f"cannot read snapshot {path!r}: {error}")
    if not raw.startswith(SNAPSHOT_MAGIC):
        raise DurabilityError(f"snapshot {path!r} has a bad magic header")
    offset = len(SNAPSHOT_MAGIC)
    if offset + _FRAME.size > len(raw):
        raise DurabilityError(f"snapshot {path!r} is truncated")
    lsn, length, crc = _FRAME.unpack_from(raw, offset)
    payload = raw[offset + _FRAME.size : offset + _FRAME.size + length]
    if len(payload) != length:
        raise DurabilityError(f"snapshot {path!r} is truncated")
    if zlib.crc32(_CRC_HEADER.pack(lsn, length) + payload) != crc:
        raise DurabilityError(f"snapshot {path!r} failed its checksum")
    try:
        decoded = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise DurabilityError(f"snapshot {path!r} payload is not valid JSON: {error}")
    state = decoded.get("data")
    if not isinstance(state, dict):
        raise DurabilityError(f"snapshot {path!r} payload has no state object")
    return lsn, state


def read_wal_tail(
    data_dir: str,
    from_lsn: int,
    max_records: int = 512,
    max_bytes: int = 1 << 20,
) -> "WalTail":
    """Read the clean WAL frames with LSN > ``from_lsn`` (replication).

    Returns the raw, still-framed bytes so a follower can re-validate
    every CRC itself — the wire format *is* the log format.  The bytes
    come from the recovery validation (:func:`scan_wal`), so a torn or
    corrupt tail simply ends the readable range; it is never served.

    ``snapshot_required`` is set when ``from_lsn`` predates the log's
    base LSN: a checkpoint truncated the records the caller still needs,
    so it must re-bootstrap from a state snapshot instead.  At least one
    record is returned even when it alone exceeds ``max_bytes``.
    """
    try:
        scan = scan_wal(data_dir)
    except OSError:
        return WalTail(0, 0, b"", 0, False)  # unreadable: serve nothing
    if not scan.header_ok:
        return WalTail(0, 0, b"", 0, False)
    base_lsn, offsets = scan.base_lsn, scan.offsets
    if from_lsn < base_lsn:
        return WalTail(base_lsn, scan.last_lsn, b"", 0, True)
    # LSNs are dense, so record ``first`` is the one carrying from_lsn + 1.
    first = min(from_lsn - base_lsn, len(scan.records))
    count = 0
    for end in offsets[first + 1 : first + 1 + max_records]:
        if count and end - offsets[first] > max_bytes:
            break
        count += 1
    frames = scan.raw[offsets[first] : offsets[first + count]]
    return WalTail(base_lsn, scan.last_lsn, frames, count, False)


class WalTail(NamedTuple):
    """One bounded :func:`read_wal_tail` result (the streaming unit)."""

    base_lsn: int
    last_lsn: int
    frames: bytes
    records: int
    snapshot_required: bool


def snapshot_path(data_dir: str, lsn: int) -> str:
    return os.path.join(data_dir, f"{SNAPSHOT_PREFIX}{lsn:016d}")


def list_snapshots(data_dir: str) -> list[tuple[int, str]]:
    """``(lsn, path)`` for every snapshot file, oldest first."""
    found = []
    try:
        entries = os.listdir(data_dir)
    except OSError:
        return []
    for entry in entries:
        if not entry.startswith(SNAPSHOT_PREFIX) or entry.endswith(".tmp"):
            continue
        suffix = entry[len(SNAPSHOT_PREFIX) :]
        if not suffix.isdigit():
            continue
        found.append((int(suffix), os.path.join(data_dir, entry)))
    return sorted(found)


class ScrubReport(NamedTuple):
    """What :func:`scrub` found in one data directory."""

    wal: WalScan
    #: ``(path, lsn, tables, error)`` per snapshot file, oldest first;
    #: ``error`` is None when it verified, else why not (``lsn`` is None).
    snapshots: list[tuple[str, int | None, int, str | None]]
    #: LSN of the newest snapshot that verified; None when none did.
    newest_lsn: int | None
    #: See :func:`_recovery_gap` — the rule recovery itself refuses on.
    recovery_gap: bool
    anomalies: int

    def render(self) -> str:
        """The report as text — what ``repro scrub`` prints."""
        wal = self.wal
        if wal.raw is None:
            lines = ["wal: missing"]
        elif not wal.header_ok:
            lines = [f"wal {WAL_NAME}: ANOMALY — bad magic header ({len(wal.raw)} bytes)"]
        else:
            lines = [
                f"wal {WAL_NAME}: base lsn {wal.base_lsn}, {len(wal.records)} clean "
                f"records through lsn {wal.last_lsn}"
            ]
            if wal.torn_bytes:
                lines.append(
                    f"  ANOMALY: {wal.torn_bytes} torn/corrupt trailing bytes past byte "
                    f"{wal.offsets[-1]} (recovery would truncate them)"
                )
        for path, lsn, tables, error in self.snapshots:
            verdict = f"ok (lsn {lsn}, {tables} tables)"
            if error is not None:
                verdict = f"ANOMALY — {error}"
            lines.append(f"snapshot {os.path.basename(path)}: {verdict}")
        if self.recovery_gap:
            where = "missing" if self.newest_lsn is None else f"at lsn {self.newest_lsn}"
            lines.append(
                f"  ANOMALY: recovery gap — the WAL bases at lsn {wal.base_lsn} but "
                f"the newest loadable snapshot is {where}; records up to the "
                f"base are unrecoverable"
            )
        if wal.raw is None and not self.snapshots:
            lines.append("no durable state found")
        verdict = f"FAILED ({self.anomalies} anomalies)" if self.anomalies else "clean"
        lines.append(f"scrub: {verdict}")
        return "\n".join(lines) + "\n"


def scrub(data_dir: str) -> ScrubReport:
    """Offline integrity walk: CRC-check the WAL and every snapshot.

    Runs the recovery validators (:func:`scan_wal`, :func:`load_snapshot`)
    without opening a database — no replay, no table rebuild, no lock on
    the directory, nothing modified.
    """
    wal = scan_wal(data_dir)
    snapshots = []
    for _, path in list_snapshots(data_dir):
        try:
            lsn, state = load_snapshot(path)
            snapshots.append((path, lsn, len(state.get("tables", {})), None))
        except DurabilityError as error:
            snapshots.append((path, None, 0, str(error)))
    newest = max((lsn for _, lsn, _, error in snapshots if error is None), default=None)
    gap = _recovery_gap(wal, newest or 0)
    wal_damaged = wal.raw is not None and (not wal.header_ok or wal.torn_bytes > 0)
    damaged = sum(error is not None for *_, error in snapshots)
    return ScrubReport(wal, snapshots, newest, gap, wal_damaged + damaged + gap)


# ---------------------------------------------------------------------------
# Configuration and recovery result
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DurabilityConfig:
    """Tunables for the durability subsystem.

    ``sync`` trades durability for speed: ``"fsync"`` (default) makes an
    acknowledged statement survive power loss, ``"flush"`` survives a
    process crash but not the OS, ``"none"`` leaves buffering to Python
    (tests and bulk loads).
    """

    data_dir: str
    sync: str = "fsync"
    #: Auto-checkpoint once this many records accumulate since the last
    #: checkpoint...
    checkpoint_every_records: int = 1024
    #: ...or once the log grows past this many bytes, whichever is first.
    checkpoint_every_bytes: int = 4 << 20
    #: Older snapshots beyond this count are pruned after a checkpoint.
    snapshots_kept: int = 2

    def __post_init__(self):
        if self.sync not in ("fsync", "flush", "none"):
            raise DurabilityError(
                f"unknown sync mode {self.sync!r} (fsync | flush | none)"
            )
        if self.snapshots_kept < 1:
            # With 0 the post-checkpoint prune would delete the snapshot
            # the checkpoint just wrote — after the WAL was truncated.
            raise DurabilityError(
                f"snapshots_kept must be >= 1, got {self.snapshots_kept}"
            )
        if self.checkpoint_every_records < 1 or self.checkpoint_every_bytes < 1:
            raise DurabilityError("checkpoint thresholds must be >= 1")


@dataclass
class RecoveryResult:
    """What :meth:`DurabilityManager.start` found on disk."""

    snapshot_lsn: int = 0
    snapshot_state: dict | None = None
    records: list[LogRecord] = field(default_factory=list)
    #: Bytes of torn/corrupt trailing log discarded (never replayed).
    torn_bytes_dropped: int = 0
    #: True when the newest snapshot failed verification and an older
    #: one (or the empty state) was used instead.
    snapshot_fallback: bool = False


# ---------------------------------------------------------------------------
# The manager
# ---------------------------------------------------------------------------


class DurabilityManager:
    """Owns one data directory: the WAL file handle, LSNs, checkpoints.

    Lifecycle: construct, :meth:`start` (recovery scan — returns the
    state to rebuild), then :meth:`log` per committed statement and
    :meth:`checkpoint` to compact.  The manager is deliberately ignorant
    of the catalog: callers pass opaque JSON payloads down and state
    dicts in, so the module has no import cycle with the Database.

    All mutating entry points serialize on an internal lock: the query
    service admits several ``execute`` calls at once, and an interleaved
    append would corrupt the LSN sequence and the frame stream.  Note
    the lock alone cannot order the *apply-in-memory* step against the
    append — the Database holds its own commit lock across both (see
    ``Database._commit_lock``).
    """

    def __init__(self, config: DurabilityConfig):
        self.config = config
        path = config.data_dir
        if os.path.exists(path) and not os.path.isdir(path):
            raise DurabilityError(f"data_dir {path!r} exists and is not a directory")
        os.makedirs(path, exist_ok=True)
        self.wal_path = os.path.join(path, WAL_NAME)
        self._lock = threading.RLock()
        #: Signalled after every durable append; long-poll readers (the
        #: replication tail endpoint) block on it instead of spinning.
        self._append_cond = threading.Condition(self._lock)
        self._file = None
        #: Set when the log can no longer be trusted (a failed append
        #: could not be rolled back); every later operation refuses.
        self._failed: str | None = None
        self._last_lsn = 0
        self._last_checkpoint_lsn = 0
        self._wal_bytes = 0
        self._records_since_checkpoint = 0
        self._appends = 0
        self._checkpoints = 0
        self._checkpoint_failures = 0

    def _ensure_usable(self) -> None:
        if self._failed is not None:
            raise DurabilityError(
                f"durability manager is latched after an unrecoverable write"
                f" failure ({self._failed}); reopen the data directory to"
                f" recover"
            )
        if self._file is None:
            raise DurabilityError("durability manager is not started (or closed)")

    def _latch(self, reason: str) -> None:
        """Refuse all further work; the on-disk log state is unknown."""
        self._failed = reason
        handle, self._file = self._file, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass
        self._append_cond.notify_all()  # wake long-poll waiters

    # -- recovery -----------------------------------------------------------

    def start(self) -> RecoveryResult:
        """Scan the directory; open the WAL for appending; return state.

        The newest snapshot that passes verification wins; a corrupt one
        falls back to its predecessor (``snapshot_fallback``) — but only
        when the WAL still covers the distance: the log is truncated at
        every checkpoint, so if its base LSN is beyond the snapshot we
        chose, the records in between exist nowhere and recovery fails
        loudly rather than replaying the tail onto mismatched state.
        The WAL tail past the last clean record is truncated in place so
        the next append lands on a well-formed prefix.
        """
        with self._lock:
            return self._start_locked()

    def _start_locked(self) -> RecoveryResult:
        result = RecoveryResult()
        for lsn, path in reversed(list_snapshots(self.config.data_dir)):
            try:
                snap_lsn, state = load_snapshot(path)
            except DurabilityError:
                result.snapshot_fallback = True
                continue
            result.snapshot_lsn = snap_lsn
            result.snapshot_state = state
            break

        scan = scan_wal(self.config.data_dir)
        if _recovery_gap(scan, result.snapshot_lsn):
            raise DurabilityError(
                f"recovery gap: the log starts at LSN {scan.base_lsn} but the newest"
                f" loadable snapshot covers only LSN {result.snapshot_lsn}"
                + (
                    " (a newer snapshot failed verification)"
                    if result.snapshot_fallback
                    else ""
                )
                + "; the records in between are unrecoverable"
            )
        self._last_lsn = max(scan.last_lsn, result.snapshot_lsn)
        self._last_checkpoint_lsn = result.snapshot_lsn
        result.records = [r for r in scan.records if r.lsn > result.snapshot_lsn]
        result.torn_bytes_dropped = scan.torn_bytes
        self._records_since_checkpoint = len(result.records)

        if scan.header_ok:
            self._open_for_append(scan.offsets[-1], scan.torn_bytes)
        else:
            # Missing file, or a mangled header that makes every offset
            # unreliable: start a fresh log (the snapshot carries state).
            self._write_fresh_wal(self._last_lsn)
        return result

    def _open_for_append(self, good_end: int, dropped: int) -> None:
        self._file = open(self.wal_path, "r+b")
        if dropped:
            self._file.truncate(good_end)
            _fsync_file(self._file)
        self._file.seek(0, os.SEEK_END)
        self._wal_bytes = self._file.tell()

    def _write_fresh_wal(self, base_lsn: int) -> None:
        """Replace the log with an empty one whose records start past
        ``base_lsn`` (checkpoint truncation, first open)."""
        tmp = self.wal_path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(WAL_MAGIC)
            handle.write(_BASE.pack(base_lsn))
            _fsync_file(handle)
        os.replace(tmp, self.wal_path)
        _fsync_dir(self.config.data_dir)
        self._file = open(self.wal_path, "r+b")
        self._file.seek(0, os.SEEK_END)
        self._wal_bytes = self._file.tell()

    # -- appending ----------------------------------------------------------

    def log(self, kind: str, data: dict, injector=None) -> int:
        """Append one record, sync it, and return its LSN.

        A failed append consumes nothing: whether the write or the sync
        raised, the file is truncated back to the pre-append offset and
        the LSN stays free, so later records never build on bytes whose
        on-disk fate is unknown (a torn frame mid-log would make
        recovery drop every record after it, including acknowledged
        ones).  If that rollback itself fails the manager latches — all
        further operations raise until the directory is reopened.
        """
        with self._lock:
            self._ensure_usable()
            if injector is not None:
                injector.maybe_fail(SITE_WAL_APPEND)
            lsn = self._last_lsn + 1
            frame = _frame(lsn, _encode_payload(kind, data))
            crash_point("storage.wal.append.before")
            if _crash_due("storage.wal.append.torn"):
                # A genuinely torn write: half the frame reaches the file,
                # then the process dies without flushing anything else.
                self._file.write(frame[: max(1, len(frame) // 2)])
                self._file.flush()
                _exit(CRASH_EXIT_STATUS)
            good_end = self._wal_bytes
            try:
                self._file.write(frame)
            except Exception:
                self._rollback_append(good_end, lsn)
                raise
            crash_point("storage.wal.append.after")
            self._last_lsn = lsn
            self._wal_bytes += len(frame)
            self._appends += 1
            self._records_since_checkpoint += 1
            try:
                if injector is not None:
                    injector.maybe_fail(SITE_WAL_FSYNC)
                self._sync()
            except Exception:
                self._last_lsn = lsn - 1
                self._wal_bytes = good_end
                self._appends -= 1
                self._records_since_checkpoint -= 1
                self._rollback_append(good_end, lsn)
                raise
            crash_point("storage.wal.fsync.after")
            self._append_cond.notify_all()
            return lsn

    def wait_for_lsn(self, lsn: int, timeout: float) -> int:
        """Block until ``last_lsn >= lsn`` or ``timeout`` elapses.

        Returns the last LSN either way — the long-poll contract of the
        replication tail endpoint: "answer when there is news, or after
        the wait budget, whichever is first".  A closed/latched manager
        returns immediately.
        """
        with self._append_cond:
            self._append_cond.wait_for(
                lambda: self._last_lsn >= lsn or self._file is None,
                timeout=timeout,
            )
            return self._last_lsn

    def _rollback_append(self, good_end: int, lsn: int) -> None:
        """Truncate a failed append off the file; latch if that fails."""
        try:
            self._file.truncate(good_end)
            self._file.seek(0, os.SEEK_END)
            _fsync_file(self._file)
        except OSError as error:
            self._latch(f"could not roll back failed record {lsn}: {error}")

    def _sync(self) -> None:
        mode = self.config.sync
        if mode == "fsync":
            _fsync_file(self._file)
        elif mode == "flush":
            self._file.flush()

    def flush(self) -> None:
        """Force the log to disk regardless of the sync mode."""
        with self._lock:
            if self._file is not None:
                _fsync_file(self._file)

    # -- checkpoints --------------------------------------------------------

    def checkpoint_due(self) -> bool:
        with self._lock:
            return (
                self._records_since_checkpoint >= self.config.checkpoint_every_records
                or self._wal_bytes >= self.config.checkpoint_every_bytes
            )

    def checkpoint(self, state: dict, injector=None) -> int:
        """Snapshot ``state`` at the current LSN and truncate the log.

        Crash-safe ordering: the snapshot is written to a temp file and
        fsynced, renamed into place, and only then is the log replaced
        by a fresh one based at the snapshot LSN.  A crash between any
        two steps recovers cleanly — the LSN filter skips log records a
        snapshot already covers.
        """
        with self._lock:
            self._ensure_usable()
            if injector is not None:
                injector.maybe_fail(SITE_CHECKPOINT_WRITE)
            lsn = self._last_lsn
            crash_point("storage.checkpoint.write.before")
            self.flush()  # every logged record must be on disk before dropped
            write_snapshot(snapshot_path(self.config.data_dir, lsn), lsn, state)
            crash_point("storage.checkpoint.truncate.before")
            self._file.close()
            self._write_fresh_wal(lsn)
            self._last_checkpoint_lsn = lsn
            self._records_since_checkpoint = 0
            self._checkpoints += 1
            self._prune_snapshots()
            crash_point("storage.checkpoint.after")
            return lsn

    def note_checkpoint_failure(self) -> None:
        self._checkpoint_failures += 1

    def _prune_snapshots(self) -> None:
        snapshots = list_snapshots(self.config.data_dir)
        # snapshots_kept is validated >= 1, so the slice keeps at least
        # the snapshot the current checkpoint just wrote.
        for _, path in snapshots[: -self.config.snapshots_kept]:
            try:
                os.remove(path)
            except OSError:
                pass

    # -- introspection ------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        return self._last_lsn

    @property
    def last_checkpoint_lsn(self) -> int:
        return self._last_checkpoint_lsn

    @property
    def wal_bytes(self) -> int:
        return self._wal_bytes

    def info(self) -> dict:
        with self._lock:
            return {
                "data_dir": self.config.data_dir,
                "sync": self.config.sync,
                "wal_bytes": self._wal_bytes,
                "last_lsn": self._last_lsn,
                "last_checkpoint_lsn": self._last_checkpoint_lsn,
                "wal_appends": self._appends,
                "checkpoints": self._checkpoints,
                "checkpoint_failures": self._checkpoint_failures,
                "failed": self._failed,
                "snapshots": len(list_snapshots(self.config.data_dir)),
            }

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                try:
                    self.flush()
                finally:
                    self._file.close()
                    self._file = None
            self._append_cond.notify_all()  # wake long-poll waiters

