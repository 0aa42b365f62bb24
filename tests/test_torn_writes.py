"""Property-style torn-write tests (satellite of the durability PR).

A crash mid-write can leave *any* prefix of the final WAL record on
disk, and bit rot can flip any byte of it.  These tests enumerate every
such damage point on a real log and assert the recovery invariant:

* recovery never raises — damage to the tail is data loss, not an error;
* every record before the damaged one survives, byte-exact;
* the damaged record (and anything after it) is never replayed.

``sync="none"`` keeps the enumeration fast (hundreds of opens); the
sync mode only affects *when* bytes reach disk, not the scan logic
under test.
"""

from __future__ import annotations

import os

import pytest

from repro import Database
from repro.storage import wal
from repro.storage.wal import DurabilityConfig, DurabilityManager

from .crash_workload import Q1_DELETE, Q2_UPDATE


def build_log(tmp_path, statements):
    """A Database WAL containing ``create_table`` + one record per stmt."""
    data_dir = str(tmp_path / "data")
    config = DurabilityConfig(data_dir=data_dir, sync="none")
    db = Database.open(data_dir, durability=config)
    db.create_table("t", ["a", "b"])
    for sql in statements:
        db.execute(sql)
    db.close()
    return data_dir


def recovered_state(data_dir):
    """(rows of t, records_replayed, torn_bytes_dropped) after one open."""
    config = DurabilityConfig(data_dir=data_dir, sync="none")
    db = Database.open(data_dir, durability=config)
    rows = sorted(tuple(r) for r in db.table("t").rows)
    info = db.durability_info()["recovery"]
    db.close()
    return rows, info["records_replayed"], info["torn_bytes_dropped"]


def last_record_offset(raw: bytes) -> int:
    """Byte offset where the final record of a clean WAL begins."""
    offset = wal.WAL_HEADER_SIZE
    last = offset
    while offset + wal._FRAME.size <= len(raw):
        _, length, _ = wal._FRAME.unpack_from(raw, offset)
        last = offset
        offset += wal._FRAME.size + length
    assert offset == len(raw), "log under test must be clean"
    return last


STATEMENTS = [
    "INSERT INTO t VALUES (1, 10), (2, 20)",
    "INSERT INTO t VALUES (3, 30)",
    "UPDATE t SET b = b + 1 WHERE a = 1",
    "INSERT INTO t VALUES (4, 40)",
]

#: Table contents after replaying the first N statements (N = 0..4)
#: on top of the create_table record.
STATES = [
    [],
    [(1, 10), (2, 20)],
    [(1, 10), (2, 20), (3, 30)],
    [(1, 11), (2, 20), (3, 30)],
    [(1, 11), (2, 20), (3, 30), (4, 40)],
]

#: The same log with the paper's predicates in it — Q2's disjunctive
#: correlation in an UPDATE that survives every tear, Q1's disjunctive
#: linking in the DELETE that is torn — so that recovery replays and
#: drops statements whose embedded read is unnested (on the batch engine
#: where numpy imports).  Both of the DELETE's streams contribute a row.
PAPER_STATEMENTS = STATEMENTS[:3] + [
    Q2_UPDATE.format(t="t", pivot=25),
    Q1_DELETE.format(t="t", pivot=2),
]
PAPER_STATES = STATES[:4] + [
    [(1, 12), (2, 21), (3, 30)],
    [(2, 21)],
]

def test_truncation_at_every_byte_of_the_final_record(
    tmp_path, statements=STATEMENTS, states=STATES
):
    data_dir = build_log(tmp_path, statements)
    path = os.path.join(data_dir, wal.WAL_NAME)
    pristine = open(path, "rb").read()
    start = last_record_offset(pristine)

    # Cutting anywhere inside the final record keeps exactly the prefix.
    for cut in range(start, len(pristine)):
        open(path, "wb").write(pristine[:cut])
        rows, replayed, dropped = recovered_state(data_dir)
        assert rows == states[-2], f"cut at byte {cut} changed the prefix"
        # create_table + the surviving DML records.
        assert replayed == len(statements), f"cut at byte {cut} replayed {replayed} records"
        assert dropped == cut - start, f"cut at byte {cut} reported {dropped} dropped"
        # Recovery truncated the tail: the file is clean again.
        assert len(open(path, "rb").read()) == start

    # Control: the untouched log replays everything.
    open(path, "wb").write(pristine)
    rows, replayed, dropped = recovered_state(data_dir)
    assert rows == states[-1] and replayed == len(statements) + 1 and dropped == 0


def test_corruption_at_every_byte_of_the_final_record(
    tmp_path, statements=STATEMENTS, states=STATES
):
    data_dir = build_log(tmp_path, statements)
    path = os.path.join(data_dir, wal.WAL_NAME)
    pristine = open(path, "rb").read()
    start = last_record_offset(pristine)

    for position in range(start, len(pristine)):
        damaged = bytearray(pristine)
        damaged[position] ^= 0xA5
        open(path, "wb").write(bytes(damaged))
        rows, replayed, _ = recovered_state(data_dir)
        # A flipped byte in the final record must drop (exactly) that
        # record; the committed prefix always survives.  (A flip in the
        # length field can make the frame claim to end early or late —
        # either way the CRC or the LSN chain catches it.)
        assert rows == states[-2], f"flip at byte {position} changed the prefix"
        assert replayed == len(statements), f"flip at byte {position} replayed {replayed}"

    open(path, "wb").write(pristine)
    rows, replayed, _ = recovered_state(data_dir)
    assert rows == states[-1] and replayed == len(statements) + 1


def test_truncation_inside_earlier_records_keeps_shorter_prefixes(
    tmp_path, statements=STATEMENTS, states=STATES
):
    """Coarser sweep over the whole file: a cut anywhere yields some
    clean statement prefix, never an exception or a mixed state."""
    data_dir = build_log(tmp_path, statements)
    path = os.path.join(data_dir, wal.WAL_NAME)
    pristine = open(path, "rb").read()

    valid_states = [sorted(rows) for rows in states]
    # Sample every 3rd byte for speed; the final record already has
    # byte-exact coverage above.
    for cut in range(wal.WAL_HEADER_SIZE, len(pristine), 3):
        open(path, "wb").write(pristine[:cut])
        config = DurabilityConfig(data_dir=str(data_dir), sync="none")
        db = Database.open(str(data_dir), durability=config)
        tables = db.catalog.table_names()
        if tables:  # a cut inside the create_table record loses the table
            rows = sorted(tuple(r) for r in db.table("t").rows)
            assert rows in valid_states, f"cut at {cut} produced torn state {rows}"
        db.close()


@pytest.mark.parametrize(
    "check",
    [
        test_truncation_at_every_byte_of_the_final_record,
        test_corruption_at_every_byte_of_the_final_record,
        test_truncation_inside_earlier_records_keeps_shorter_prefixes,
    ],
    ids=lambda check: check.__name__,
)
def test_the_paper_shaped_log_tears_like_the_plain_one(tmp_path, check):
    check(tmp_path, PAPER_STATEMENTS, PAPER_STATES)


def test_manager_scan_is_idempotent_after_truncation(tmp_path):
    """Opening a damaged log twice gives identical results — the first
    open's truncation must itself be clean."""
    data_dir = build_log(tmp_path, STATEMENTS)
    path = os.path.join(data_dir, wal.WAL_NAME)
    pristine = open(path, "rb").read()
    start = last_record_offset(pristine)
    open(path, "wb").write(pristine[: start + 5])

    first = recovered_state(data_dir)
    second = recovered_state(data_dir)
    assert first[0] == second[0] == STATES[3]
    assert second[2] == 0  # the torn bytes were physically removed


def test_raw_manager_survives_empty_and_tiny_files(tmp_path):
    """Degenerate files (empty, shorter than the header, magic-only)
    must recover to an empty log, not crash."""
    data_dir = str(tmp_path / "d")
    os.makedirs(data_dir)
    path = os.path.join(data_dir, wal.WAL_NAME)
    for content in (b"", b"RP", wal.WAL_MAGIC, wal.WAL_MAGIC + b"\x01"):
        open(path, "wb").write(content)
        manager = DurabilityManager(DurabilityConfig(data_dir=data_dir, sync="none"))
        result = manager.start()
        assert result.records == []
        assert manager.log("dml", {"sql": "x"}) == 1
        manager.close()
        os.remove(path)
