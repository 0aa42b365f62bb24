"""The four workloads: what is sent, and what must come back.

A workload is data — DDL, prepared statements, a warm-up list and
rounds of :class:`Op` — plus the expectations its answers are checked
against.  Everything is built here from ``--seed``; the server receives
only the generated SQL.  ``loop.py`` sends the ops over HTTP and
``layers.py`` steps the same lists through the layers in-process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.bench.queries import Q1, Q2, Q3
from repro.datagen.queries import QueryGenConfig, QueryGenerator

#: ``--seconds`` the op counts below were sized for on a 2-core box: a
#: run of all four workloads then times about 4 x 20 s of requests.  The
#: three fast workloads get about 12 s each (over 400 samples) and
#: ``fig7_canonical``, at two ops a second, about 39 s (72 samples).
REFERENCE_SECONDS = 20.0
#: Rounds per run; throughput is the median round's.
ROUNDS = 3
#: Rows per RST table for the Fig. 7 and write workloads (the paper's SF 1).
FULL_ROWS = 10_000
#: Result sizes at FULL_ROWS with the repo's ``RstConfig`` seed.  Q2 is
#: empty on this data, so only Q1 and Q3 really check anything.
PAPER_COUNTS = {"Q1": 5081, "Q2": 0, "Q3": 711}
FIG7_QUERIES = {"Q1": Q1, "Q2": Q2, "Q3": Q3}


@dataclass(frozen=True)
class Op:
    """One HTTP request of a workload."""

    #: Latency class: ``q1``/``q2``/``q3`` (reads, by statement),
    #: ``adhoc`` or ``write``.
    label: str
    #: ``execute`` runs prepared statement ``target``; ``query`` posts
    #: the SQL text ``target`` to ``/query``.
    kind: str
    target: str
    #: Reads: rows expected beyond the learned base count of ``target``.
    delta: int = 0


def bag_checksum(rows) -> int:
    """Order-independent checksum of a bag of rows."""
    return sum(map(hash, rows)) & 0xFFFFFFFFFFFFFFFF


class Workload:
    """Base: a read-only workload over in-memory RST."""

    name = ""
    why = ""
    durable = False
    #: Statements sent once, before anything is prepared.
    ddl: tuple = ()
    #: Strategy the prepared statements are planned with.
    strategy = "auto"
    #: Ops per cycle: a run of this many ops has the round's own mix.
    cycle = 1
    #: Seconds one round takes at REFERENCE_SECONDS on a calm 2-core box.
    reference_round_seconds = 4.0

    def __init__(self, seed: int, seconds: float, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.rows = 300 if smoke else FULL_ROWS
        self._scale = seconds / REFERENCE_SECONDS
        #: name -> SQL of the session's prepared statements.
        self.statements: dict = {}
        #: target -> (base row count, bag checksum or None), from learn().
        self.expected: dict = {}

    def _units(self, full: int, smoke: int) -> int:
        """Work units per round: ``full`` at REFERENCE_SECONDS."""
        return smoke if self.smoke else max(1, round(full * self._scale))

    @property
    def round_seconds(self) -> float:
        """Nominal seconds of one round at this run's ``--seconds``."""
        return self.reference_round_seconds * self._scale

    def warmup(self) -> list:
        raise NotImplementedError

    def next_round(self) -> list:
        raise NotImplementedError

    def rewind(self, ops: int) -> None:
        """The last ``ops`` ops of the round handed out were never sent."""

    def learn(self, client) -> list:
        """Fill :attr:`expected`; returns a list of problems found."""
        raise NotImplementedError

    def _learn_statements(self, client, strategy: str, inserted: int = 0) -> list:
        """Expect of each prepared statement what ``strategy`` answers now.

        ``inserted`` live rows the workload added to r are all in Q1 and
        in no other answer; with any present only counts are comparable.
        """
        problems = []
        with client.session() as session:
            for name, sql in self.statements.items():
                result = session.prepare(sql, strategy).execute(engine="vectorized")
                base = result.row_count - (inserted if name == "Q1" else 0)
                checksum = None if inserted else bag_checksum(result.rows)
                self.expected[name] = (base, checksum)
                if not self.smoke and base != PAPER_COUNTS[name]:
                    problems.append(
                        f"{name} ({strategy}) has {base} base rows, expected {PAPER_COUNTS[name]}"
                    )
        return problems

    def check(self, op: Op, result) -> bool:
        if op.label == "write":
            return result.rows == [(1,)]
        count, checksum = self.expected[op.target]
        return (
            not result.truncated
            and result.row_count == count + op.delta
            and (checksum is None or bag_checksum(result.rows) == checksum)
        )

    def finish(self, client) -> list:
        """End-of-run checks; returns a list of problems found."""
        return []


class _Fig7(Workload):
    """Q1, Q2, Q3 round-robin as session prepared statements."""

    other_strategy = ""
    warmup_passes = 1
    cycle = 3
    cycles = (0, 0)  # (full, smoke) Q1-Q2-Q3 cycles per round

    def __init__(self, seed, seconds, smoke):
        super().__init__(seed, seconds, smoke)
        self.statements = dict(FIG7_QUERIES)
        self._cycle = [Op(name.lower(), "execute", name) for name in FIG7_QUERIES]

    def warmup(self):
        return self._cycle * self.warmup_passes

    def next_round(self):
        return self._cycle * self._units(*self.cycles)

    def learn(self, client):
        """The other strategy's bag per statement is the reference: the
        paper's claim is that canonical and unnested plans agree."""
        return self._learn_statements(client, self.other_strategy)


class Fig7Warm(_Fig7):
    name = "fig7_warm"
    why = (
        "Fig. 7 queries Q1-Q3 as prepared statements on the optimizer's plan, plan cache warm:"
        " engine execution and result encoding share the time, planning is absent"
    )
    strategy, other_strategy = "auto", "canonical"
    warmup_passes = 3  # numpy import, batch pivot, then steady
    cycles = (48, 4)


class Fig7Canonical(_Fig7):
    name = "fig7_canonical"
    why = (
        "the paper's baseline: the same statements on the canonical nested-loop plan, >95% engine"
        " time, so service and planning changes must not move it and engine changes must"
    )
    strategy, other_strategy = "canonical", "auto"
    cycles = (8, 1)
    reference_round_seconds = 13.0


class AdhocCold(Workload):
    """More distinct ad-hoc texts than the plan cache holds."""

    name = "adhoc_cold"
    why = (
        "256 distinct generated queries round-robin over 100-row tables miss the 128-entry plan"
        " cache every time: lex/parse/rewrite/optimize and the HTTP edge dominate execution"
    )

    TEXT_SEED = 2007

    def __init__(self, seed, seconds, smoke):
        super().__init__(seed, seconds, smoke)
        self.rows = 100
        # The generator's cost mix moves several percent from seed to
        # seed, which would drown a 10% regression: the texts are a
        # fixed pool and ``--seed`` decides the order they are sent in.
        generator = QueryGenerator(QueryGenConfig(seed=self.TEXT_SEED, p_linear=0.0))
        texts: dict = {}
        while len(texts) < (24 if smoke else 256):
            texts.setdefault(generator.query())
        self._pass = [Op("adhoc", "query", sql) for sql in texts]
        random.Random(seed).shuffle(self._pass)

    def warmup(self):
        return self._pass

    def next_round(self):
        return self._pass * self._units(3, 1)

    def learn(self, client):
        """Row counts from the canonical plan on the row engine, over the
        benchmark's own copy of the data."""
        from repro.datagen import RstConfig, rst_catalog
        from repro.optimizer import plan_query

        catalog = rst_catalog(1, 1, 1, RstConfig(rows_per_sf=self.rows))
        for op in self._pass:
            result = plan_query(op.target, catalog, "canonical").execute(catalog)
            self.expected[op.target] = (len(result), None)
        return []


class MixedRw(Workload):
    """Five writes, then one prepared read, per cycle, on a durable primary."""

    name = "mixed_rw"
    why = (
        "writes beside reads on a durable primary (flush, checkpoint every 256 records):"
        " DML, statistics, MVCC, WAL and index upkeep, and the read that follows five writes"
    )
    durable = True
    cycle = 6
    ddl = ("CREATE INDEX s_b2 ON s (B2) USING hash",)
    #: Cycle i updates the s row of cycle i-8 and deletes the rows of
    #: cycle i-16, so after 16 cycles the table sizes are stationary.
    UPDATE_LAG = 8
    DELETE_LAG = 16
    #: Keys of inserted rows sit outside RST's correlation domain
    #: [0, 500) and apart from each other, so no base row ever
    #: correlates with an inserted one: Q2 and Q3 keep their base
    #: answers and Q1 grows by exactly the live inserted r rows.
    R_KEY0 = 10_000
    S_KEY0 = 20_000

    def __init__(self, seed, seconds, smoke):
        super().__init__(seed, seconds, smoke)
        self.statements = dict(FIG7_QUERIES)
        self._next_cycle = 0

    def _values(self, cycle: int) -> dict:
        rng = random.Random(f"{self.seed}:{cycle}")
        return {
            # A1, A3 >= 1 and A4 > 1500: in Q1 by the simple disjunct,
            # never in Q3 (both subquery counts are 0 for these keys).
            "r": (rng.randrange(1, 20), self.R_KEY0 + cycle, rng.randrange(1, 20),
                  rng.randrange(1501, 3000)),
            # B4 <= 1500 keeps Q2's inner count unchanged for every r row.
            "s": (rng.randrange(20), self.S_KEY0 + cycle, rng.randrange(20),
                  rng.randrange(1501)),
            "b3": 100 + rng.randrange(20),
        }

    def live(self, cycle: int) -> int:
        """Inserted rows alive in r (and in s) once ``cycle`` has run."""
        return min(cycle + 1, self.DELETE_LAG)

    def _cycle_ops(self, cycle: int) -> list:
        values = self._values(cycle)
        ops = [
            Op("write", "query", "INSERT INTO r VALUES ({}, {}, {}, {})".format(*values["r"])),
            Op("write", "query", "INSERT INTO s VALUES ({}, {}, {}, {})".format(*values["s"])),
        ]
        if cycle >= self.UPDATE_LAG:
            key = self.S_KEY0 + cycle - self.UPDATE_LAG
            b3 = self._values(cycle - self.UPDATE_LAG)["b3"]
            ops.append(Op("write", "query", f"UPDATE s SET B3 = {b3} WHERE B2 = {key}"))
        if cycle >= self.DELETE_LAG:
            old = cycle - self.DELETE_LAG
            ops.append(Op("write", "query", f"DELETE FROM r WHERE A2 = {self.R_KEY0 + old}"))
            ops.append(Op("write", "query", f"DELETE FROM s WHERE B2 = {self.S_KEY0 + old}"))
        name = ("Q1", "Q2", "Q3")[cycle % 3]
        delta = self.live(cycle) if name == "Q1" else 0
        ops.append(Op(name.lower(), "execute", name, delta))
        return ops

    def _take(self, cycles: int) -> list:
        first, self._next_cycle = self._next_cycle, self._next_cycle + cycles
        return [op for cycle in range(first, self._next_cycle) for op in self._cycle_ops(cycle)]

    def warmup(self):
        return self._take(self.DELETE_LAG)

    def next_round(self):
        return self._take(self._units(24, 3))

    def rewind(self, ops):
        self._next_cycle -= ops // self.cycle

    def writes_only(self, cycles: int) -> list:
        """The write ops of the next ``cycles`` cycles (replication feed)."""
        return [op for op in self._take(cycles) if op.label == "write"]

    def learn(self, client):
        """Base answers from the canonical plans over the written-to tables."""
        return self._learn_statements(client, "canonical", self.live(self._next_cycle - 1))

    def checksums(self) -> dict:
        """Per table, the SQL whose answer must survive a crash, and the
        answer arithmetic predicts from the cycles run so far."""
        last = self._next_cycle - 1
        alive = range(max(0, last - self.DELETE_LAG + 1), last + 1)
        r_rows = [self._values(c)["r"] for c in alive]
        s_rows = []
        for c in alive:
            b1, b2, b3, b4 = self._values(c)["s"]
            if c <= last - self.UPDATE_LAG:
                b3 = self._values(c)["b3"]
            s_rows.append((b1, b2, b3, b4))
        return {
            "r": (
                f"SELECT COUNT(*), SUM(A1), SUM(A4) FROM r WHERE A2 >= {self.R_KEY0}",
                (len(r_rows), sum(r[0] for r in r_rows), sum(r[3] for r in r_rows)),
            ),
            "s": (
                f"SELECT COUNT(*), SUM(B3), SUM(B4) FROM s WHERE B2 >= {self.S_KEY0}",
                (len(s_rows), sum(s[2] for s in s_rows), sum(s[3] for s in s_rows)),
            ),
        }

    def finish(self, client):
        problems = []
        live = self.live(self._next_cycle - 1)
        for table, (sql, predicted) in self.checksums().items():
            got = client.query(sql, engine="vectorized").rows[0]
            if got != predicted:
                problems.append(f"{table}: inserted rows are {got}, arithmetic says {predicted}")
            total = client.query(f"SELECT COUNT(*) FROM {table}", engine="vectorized").rows[0][0]
            if total != self.rows + live:
                problems.append(f"{table}: {total} rows, arithmetic says {self.rows + live}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Fig7Warm, Fig7Canonical, AdhocCold, MixedRw)}
