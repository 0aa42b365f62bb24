"""Child process for the crash-recovery differential tests.

Runs a seeded DML workload against a durable database, appending one
line to a progress file (fsynced) after each statement is
*acknowledged* — i.e. after ``execute`` returns, which on the durable
path means the WAL record was written and synced.  The parent arms
``REPRO_CRASH_SITE`` / ``REPRO_CRASH_AFTER`` (or sends SIGKILL) and
afterwards compares the recovered database against the oracle prefix
implied by the progress count.

The statement sequence is a pure function of the seed (``statements``),
so the parent can replay the same workload in memory as its oracle.

Usage::

    python tests/crash_workload.py DATA_DIR PROGRESS_FILE NUM_OPS SEED \
        CHECKPOINT_EVERY
"""

from __future__ import annotations

import os
import random
import sys
import time


#: The paper's predicates as writes over a table ``{t}(a, b)`` itself: Q1's
#: disjunctive linking in a DELETE and an INSERT … SELECT, Q2's disjunctive
#: correlation in an UPDATE.  Their embedded reads are unnested, so the
#: recovered side of every differential replays Eqv. 2 / 4 plans — on the
#: batch engine where numpy imports — against an oracle that ran them live
#: on the row engine.  (The recovery and torn-write suites format the same
#: templates.)  Every seventh statement of the workload plants rows for
#: them to hit: ``(2, b), (50, b)`` (two distinct rows share ``b``, so the
#: DELETE's count is 2 = ``a``) and ``n`` copies of ``(n, b')`` (the
#: UPDATE's count reaches ``a`` there).
Q1_WHERE = "a = (SELECT COUNT(DISTINCT *) FROM {t} t2 WHERE t2.b = {t}.b) OR a > {pivot}"
Q1_DELETE = "DELETE FROM {t} WHERE " + Q1_WHERE
Q1_INSERT = "INSERT INTO {t} SELECT a, b FROM {t} WHERE " + Q1_WHERE
Q2_UPDATE = (
    "UPDATE {t} SET b = b + 1"
    " WHERE a <= (SELECT COUNT(*) FROM {t} t2 WHERE t2.a = {t}.a OR t2.b > {pivot})"
)


def statements(num_ops: int, seed: int) -> list[str]:
    """The deterministic DML workload (shared with the parent's oracle)."""
    rng = random.Random(seed)
    out = []
    for i in range(num_ops):
        roll = rng.random()
        if i % 7 == 2:
            b, n = rng.randrange(1000), i // 7 + 2
            copies = ", ".join([f"({n}, {rng.randrange(1000)})"] * n)
            out.append(f"INSERT INTO t VALUES (2, {b}), (50, {b}), {copies}")
        elif i % 7 == 3:
            out.append(Q1_DELETE.format(t="t", pivot=rng.randrange(90, 100)))
        elif i % 7 == 6:
            out.append(Q2_UPDATE.format(t="t", pivot=rng.randrange(990, 1000)))
        elif roll < 0.55:
            a, b = rng.randrange(100), rng.randrange(1000)
            out.append(f"INSERT INTO t VALUES ({a}, {b}), ({a + 1}, {b + 1})")
        elif roll < 0.8:
            pivot = rng.randrange(100)
            delta = rng.randrange(1, 9)
            out.append(f"UPDATE t SET b = b + {delta} WHERE a >= {pivot}")
        else:
            pivot = rng.randrange(100)
            out.append(f"DELETE FROM t WHERE a = {pivot}")
    return out


def main(argv: list[str]) -> int:
    data_dir, progress_path, num_ops, seed, checkpoint_every = (
        argv[0],
        argv[1],
        int(argv[2]),
        int(argv[3]),
        int(argv[4]),
    )
    from repro import Database
    from repro.storage.wal import DurabilityConfig

    # "flush" puts every record in the OS page cache before the ack, so
    # records survive the process being killed (the tests kill the
    # process, not the machine) without paying fsync per statement.
    config = DurabilityConfig(
        data_dir=data_dir,
        sync="flush",
        checkpoint_every_records=checkpoint_every,
    )
    db = Database.open(data_dir, durability=config)
    if "t" not in db.catalog:
        db.create_table("t", ["a", "b"])

    # Optional per-statement delay so an external SIGKILL lands
    # mid-workload instead of after a sub-millisecond sprint.
    slowdown = float(os.environ.get("REPRO_WORKLOAD_SLOWDOWN", "0"))

    progress = open(progress_path, "a")
    for index, sql in enumerate(statements(num_ops, seed)):
        if slowdown:
            time.sleep(slowdown)
        db.execute(sql)
        # The ack: statement is durable (modulo OS), tell the parent.
        progress.write(f"{index}\n")
        progress.flush()
        os.fsync(progress.fileno())
    progress.close()
    db.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
