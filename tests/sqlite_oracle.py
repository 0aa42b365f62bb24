"""The SQLite side of the oracles outside the codebase.

``tests/test_dml_oracle.py`` (writes) and ``tests/test_read_oracle.py``
(reads) load one instance into an in-memory stdlib ``sqlite3`` and into
:class:`repro.Database` and compare as bags.  Both of our engines share
one front end and one rewriter; SQLite shares neither.

The dialect shim lives here, not in ``src/``, and spells two things SQLite
lacks in what it has, exactly under SQL's 3VL:

* ``COUNT(DISTINCT *) FROM x WHERE p`` → a count over a ``SELECT DISTINCT
  *`` derived table (SQLite resolves the correlation through it);
* ``x θ ALL (SELECT b FROM s WHERE p)`` → ``CASE WHEN EXISTS(S ∧ NOT(x θ
  b)) THEN 0 WHEN EXISTS(S ∧ (x θ b) IS NULL) THEN NULL ELSE 1 END`` —
  FALSE if some member decides it, UNKNOWN if none does but one compares
  to NULL, TRUE otherwise (an empty ``S`` included) — and the dual for
  ``ANY``.
"""

from __future__ import annotations

import random
import re
import sqlite3

from repro import Database

SCHEMAS = {
    "r": ["A1", "A2", "A3", "A4"],
    "s": ["B1", "B2", "B3", "B4"],
    "t": ["C1", "C2", "C3", "C4"],
}


def instance() -> dict[str, list[tuple]]:
    """Small domains in columns 1–3 (the counts of the groups collide
    with the linking attributes), a wide one in column 4, one value in
    eight NULL, and every fifth row stored twice."""
    rng = random.Random(2007)
    tables = {}
    for name, count in (("r", 26), ("s", 20), ("t", 16)):
        rows = []
        for index in range(count):
            values = [rng.randrange(7), rng.randrange(5), rng.randrange(3), rng.randrange(3000)]
            row = tuple(None if rng.random() < 0.125 else value for value in values)
            rows += [row, row] if index % 5 == 0 else [row]
        tables[name] = rows
    return tables


def load(tables: dict[str, list[tuple]]) -> tuple[sqlite3.Connection, Database]:
    """The same R/S/T rows in an in-memory SQLite and in our database."""
    connection = sqlite3.connect(":memory:")
    database = Database()
    for name, rows in tables.items():
        connection.execute(f"CREATE TABLE {name} ({', '.join(SCHEMAS[name])})")
        connection.executemany(f"INSERT INTO {name} VALUES (?, ?, ?, ?)", rows)
        database.create_table(name, SCHEMAS[name], rows)
    return connection, database


def _block_end(sql: str, position: int) -> int:
    """Index of the ``)`` that closes the parenthesised block ``position``
    sits in (at depth 0)."""
    depth = 0
    while depth or sql[position] != ")":
        depth += {"(": 1, ")": -1}.get(sql[position], 0)
        position += 1
    return position


_QUANTIFIED = re.compile(r"(\w+) (<=|>=|<>|<|>|=) (ANY|ALL) \(SELECT (\w+) FROM (\w+) WHERE ")


def _spell_quantified(match: re.Match, where: str) -> str:
    x, op, quantifier, b, source = match.groups()
    test = f"({x} {op} {b})"
    decides, value, otherwise = ("NOT ", 0, 1) if quantifier == "ALL" else ("", 1, 0)

    def exists(condition: str) -> str:
        return f"EXISTS (SELECT 1 FROM {source} WHERE ({where}) AND {condition})"

    return (
        f"(CASE WHEN {exists(decides + test)} THEN {value}"
        f" WHEN {exists(test + ' IS NULL')} THEN NULL ELSE {otherwise} END)"
    )


def to_sqlite(sql: str) -> str:
    """Our dialect → SQLite's: whitespace collapsed, ``θ ANY`` / ``θ ALL``
    and ``COUNT(DISTINCT *)`` spelled as the module docstring says."""
    sql = " ".join(sql.split())
    while (match := _QUANTIFIED.search(sql)) is not None:
        end = _block_end(sql, match.end())
        sql = sql[: match.start()] + _spell_quantified(match, sql[match.end() : end]) + sql[end + 1 :]
    ours, theirs = "COUNT(DISTINCT *) FROM ", "COUNT(*) FROM (SELECT DISTINCT * FROM "
    while ours in sql:
        start = sql.index(ours)
        sql = sql[:start] + theirs + sql[start + len(ours) :]
        position = _block_end(sql, start + len(theirs))
        sql = sql[:position] + ")" + sql[position:]
    return sql
