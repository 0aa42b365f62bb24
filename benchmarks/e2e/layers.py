"""Pass B of the traced run: one op list, stepped through the layers.

The same data is built in this process and every op of the workload's
first round is taken apart by timing calls into the layers' public
functions — ``repro.sql``, ``repro.optimizer``, ``repro.rewrite``, the
engine, ``repro.dml`` and ``repro.storage`` — one span per call.  No
code under ``src/`` is instrumented.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import tempfile
import time
from collections import defaultdict

from benchmarks.e2e.server import build_database, durability_config
from benchmarks.e2e.stats import median_ms
from repro.dml import execute_dml
from repro.engine import EvalOptions
from repro.errors import ReproError
from repro.optimizer import plan_query
from repro.optimizer.access import choose_access_paths
from repro.optimizer.cost import CostModel
from repro.optimizer.joins import optimize_joins
from repro.optimizer.rank_estimator import CatalogEstimator
from repro.optimizer.simplify import simplify_plan
from repro.rewrite import UnnestOptions, unnest
from repro.sql import parse, translate
from repro.sql.parser import parse_any
from repro.storage.wal import DurabilityManager, list_snapshots

VECTORIZED = EvalOptions(vectorized=True)
ROW = EvalOptions(vectorized=False)


class Stopwatch:
    """Seconds per named stage, one sample — and one span — per timed call."""

    def __init__(self, log=None):
        self.samples = defaultdict(list)
        self.log = log

    def time(self, stage: str, function, *args):
        begin = time.perf_counter()
        result = function(*args)
        end = time.perf_counter()
        self.samples[stage].append(end - begin)
        if self.log is not None:
            self.log.add(stage, begin, end)
        return result

    def total(self, stage: str) -> float:
        return sum(self.samples[stage])

    def median_ms(self, stage: str) -> float:
        return median_ms(self.samples[stage])


@contextlib.contextmanager
def counted_fsyncs():
    """Count ``os.fsync`` calls made by this process while active."""
    real, calls = os.fsync, [0]

    def counting(fd):
        calls[0] += 1
        return real(fd)

    os.fsync = counting
    try:
        yield calls
    finally:
        os.fsync = real


def plan_stages(watch: Stopwatch, sql: str, catalog) -> None:
    """What ``plan_query(sql, catalog, "auto")`` does, one stage at a time."""
    statement = watch.time("sql.parse", parse, sql)
    translation = watch.time("sql.translate", translate, statement, catalog, None)
    canonical = watch.time(
        "optimizer.joins", lambda: optimize_joins(simplify_plan(translation.plan), catalog)
    )
    plans = [watch.time("optimizer.access", choose_access_paths, canonical, catalog)]
    options = UnnestOptions(estimator=CatalogEstimator(catalog))
    try:
        rewritten = watch.time("rewrite.unnest", unnest, canonical, options)
    except ReproError:
        pass  # not unnestable: the planner keeps the canonical plan
    else:
        begin = time.perf_counter()
        plans.append(choose_access_paths(rewritten, catalog))
        watch.samples["optimizer.access"][-1] += time.perf_counter() - begin
    # The planner costs both alternatives, then the winner once more.
    watch.time("optimizer.cost", lambda: [CostModel(catalog).cost(p) for p in plans + plans[:1]])


def response_body(table) -> str:
    """The JSON the server sends for ``table`` (see ``QueryService._run``)."""
    return json.dumps(
        {
            "columns": list(table.schema.names),
            "rows": [list(row) for row in table.rows],
            "row_count": len(table),
            "truncated": False,
            "elapsed": 0.0,
        }
    )


class _Stepper:
    """The in-process copy of a workload's server state, and the code
    that takes one op apart on it."""

    def __init__(self, workload, directory: str, watch: Stopwatch):
        self.workload = workload
        self.watch = watch
        self.data_dir = (
            tempfile.mkdtemp(prefix="layers-", dir=directory) if workload.durable else None
        )
        self.db = build_database(workload.rows, self.data_dir)
        # Writes are applied twice: through the durable façade (whole-write
        # time, checkpoints, fsyncs) and, layer by layer, to a shadow copy
        # and a scratch log that stay in lockstep with it.
        self.shadow = build_database(workload.rows)
        self.scratch = None
        if workload.durable:
            self.scratch = DurabilityManager(
                durability_config(tempfile.mkdtemp(prefix="scratch-", dir=directory))
            )
            self.scratch.start()
        for sql in workload.ddl:
            self.db.execute(sql)
            self.shadow.execute(sql)
        self.plans = {
            name: plan_query(sql, self.db.catalog, workload.strategy)
            for name, sql in workload.statements.items()
        }
        #: Seconds of planning the timed ops paid for (none when prepared).
        self.planned_seconds = 0.0
        self.rows_out: list = []
        self.penalties: list = []
        self.wal_bytes: list = []

    def close(self) -> None:
        self.db.close()
        if self.scratch is not None:
            self.scratch.close()

    def step(self, op, timed: bool) -> None:
        sink = self.watch if timed else Stopwatch()
        catalog = self.db.catalog
        if op.label == "write":
            statement = sink.time("sql.parse", parse_any, op.target)
            sink.time("dml.apply", execute_dml, statement, self.shadow.catalog, {})
            before = self.scratch.wal_bytes
            sink.time("storage.wal_append", self.scratch.log, "dml", {"sql": op.target})
            if timed:
                self.wal_bytes.append(self.scratch.wal_bytes - before)
            sink.time("write", self.db.execute, op.target)
            return
        if op.kind == "execute":
            planned = self.plans[op.target]
        else:
            plan_stages(sink, op.target, catalog)
            planned = sink.time("plan.total", plan_query, op.target, catalog, "auto")
            if timed:
                self.planned_seconds += sink.samples["plan.total"][-1]
                self.plans[op.target] = planned
        table = sink.time("engine.execute", planned.execute, catalog, VECTORIZED)
        sink.time("service.encode", response_body, table)
        if timed:
            self.rows_out.append(len(table))
            if self.workload.durable:
                begin = time.perf_counter()
                planned.execute(catalog, VECTORIZED)
                again = time.perf_counter() - begin
                self.penalties.append(sink.samples["engine.execute"][-1] - again)

    def row_over_vectorized(self) -> float:
        """Median over the statements of row-engine / vectorized time."""

        def seconds(planned, options) -> float:
            spare = Stopwatch()
            for _ in range(3):
                spare.time("execute", planned.execute, self.db.catalog, options)
            return statistics.median(spare.samples["execute"])

        return statistics.median(
            seconds(planned, ROW) / seconds(planned, VECTORIZED) for planned in self.plans.values()
        )


def run_layers(workload, directory: str, log):
    """Returns ``(metrics, seconds)`` for one round; its spans (root
    ``layers.op``, one child per call) go to ``log``.

    ``seconds`` has what the server's own ``elapsed`` should add up to:
    ``plan`` (planning the ops paid for), ``execute`` (the engine) and
    ``write`` (whole writes through the façade).
    """
    watch = Stopwatch(log)
    stepper = _Stepper(workload, directory, watch)
    try:
        for sql in workload.statements.values():
            for _ in range(5):
                plan_stages(watch, sql, stepper.db.catalog)
                watch.time("plan.total", plan_query, sql, stepper.db.catalog, workload.strategy)
        for op in workload.warmup():
            stepper.step(op, timed=False)
        with counted_fsyncs() as fsyncs:
            for op in workload.next_round():
                log.begin()
                begin = time.perf_counter()
                stepper.step(op, timed=True)
                log.end("layers.op", op.label, begin, time.perf_counter())
        row_over_vectorized = (
            stepper.row_over_vectorized() if workload.name == "fig7_warm" else 0.0
        )
        snapshot_bytes = 0
        if workload.durable:
            for table in ("r", "s"):
                for _ in range(5):
                    watch.time("storage.analyze", stepper.shadow.catalog.analyze, table)
            watch.time("storage.checkpoint", stepper.db.checkpoint)
            snapshot_bytes = os.path.getsize(list_snapshots(stepper.data_dir)[-1][1])
    finally:
        stepper.close()

    chosen = [planned.chosen_alternative == "unnested" for planned in stepper.plans.values()]
    wal_bytes = stepper.wal_bytes
    metrics = {
        "sql.parse_ms": watch.median_ms("sql.parse"),
        "sql.translate_ms": watch.median_ms("sql.translate"),
        "optimizer.joins_ms": watch.median_ms("optimizer.joins"),
        "optimizer.access_ms": watch.median_ms("optimizer.access"),
        "optimizer.cost_ms": watch.median_ms("optimizer.cost"),
        "rewrite.unnest_ms": watch.median_ms("rewrite.unnest"),
        "rewrite.unnested_share": sum(chosen) / len(chosen),
        "plan.total_ms": watch.median_ms("plan.total"),
        "engine.execute_ms": watch.median_ms("engine.execute"),
        "engine.rows_out_per_op": statistics.fmean(stepper.rows_out),
        "engine.row_over_vectorized": row_over_vectorized,
        "service.encode_ms": watch.median_ms("service.encode"),
        "dml.apply_ms": watch.median_ms("dml.apply"),
        "storage.analyze_ms": watch.median_ms("storage.analyze"),
        "storage.wal_append_ms": watch.median_ms("storage.wal_append"),
        "storage.wal_bytes_per_write": statistics.fmean(wal_bytes) if wal_bytes else 0.0,
        "storage.fsyncs": fsyncs[0],
        "storage.checkpoint_ms": watch.median_ms("storage.checkpoint"),
        "storage.snapshot_bytes": snapshot_bytes,
        "storage.read_after_write_penalty_ms": median_ms(stepper.penalties),
    }
    seconds = {
        "plan": stepper.planned_seconds,
        "execute": watch.total("engine.execute"),
        "write": watch.total("write"),
    }
    return metrics, seconds
