"""The closed loop: one client, one request in flight, every answer checked.

The client is the shipped ``ServiceClient`` on its shipped transport
(one TCP connection per request), with retries off so every failure is
seen.  The server is a separate process; with one request in flight the
two never want the same core at once on a 2-core box.
"""

from __future__ import annotations

import contextlib
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field

from benchmarks.e2e import OUT
from benchmarks.e2e.server import ServerProcess
from benchmarks.e2e.stats import (
    calibrate,
    machine_slowness,
    median_ms,
    percentile,
    round_spread,
    smoothed_percentile,
)
from benchmarks.e2e.workloads import ROUNDS, WORKLOADS
from repro.errors import ReproError
from repro.service.client import ServiceClient
from repro.service.resilience import RetryPolicy

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Least seconds of requests between two calibration probes (~3.2 ms
#: each: at most a tenth of a round).  Never two probes back to back: a
#: probe that follows a request finds the caches as the next request
#: will, and slows with it when a neighbour on the host fights for them;
#: a probe that follows a probe runs warm and reads a quarter faster.
CALIBRATE_EVERY_S = 0.03
#: A round is cut off, at a cycle boundary, once it has taken this many
#: times its nominal seconds: fixed work must not turn a slow spell of
#: the host into a run that overruns the driver's time limit.
ROUND_CAP = 1.2


@contextlib.contextmanager
def work_dir():
    """A scratch directory under ``out/``, gone again on every exit path."""
    OUT.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


class Connection:
    """One workload set up on one running server.

    Construction *is* the client half of set-up: DDL, a session, the
    prepared statements and the warm-up requests, in that order.
    """

    def __init__(self, workload, url: str):
        self.client = ServiceClient(url, retry_policy=RetryPolicy(max_attempts=1))
        for sql in workload.ddl:
            self.client.query(sql)
        session = self.client.session()
        self.handles = {
            name: session.prepare(sql, workload.strategy)
            for name, sql in workload.statements.items()
        }
        for op in workload.warmup():
            self.send(op)

    def send(self, op):
        if op.kind == "execute":
            return self.handles[op.target].execute(engine="vectorized")
        return self.client.query(op.target, engine="vectorized")


@contextlib.contextmanager
def serving(workload, directory: str):
    """Spawn the server, set the workload up on it, stop it on the way out.

    Yields ``(server, connection, seconds)``: seconds from spawning the
    child to the last warm-up response — data generation, load,
    ``analyze``, index DDL, ``prepare`` and the first executions.  An
    error inside the block prints the server's stderr before it goes on.
    """
    begin = time.perf_counter()
    data_dir = tempfile.mkdtemp(prefix="data-", dir=directory) if workload.durable else None
    server = ServerProcess(workload.rows, directory, data_dir)
    try:
        connection = Connection(workload, server.url)
        yield server, connection, time.perf_counter() - begin
    except BaseException:
        sys.stderr.write(server.stderr_text())
        raise
    finally:
        server.stop()


@dataclass
class Round:
    """What one pass over a list of ops observed."""

    attempted: int = 0
    #: Seconds spent on the ops (calibration loops taken out).
    wall: float = 0.0
    #: ``stats.calibrate()`` of each probe run between the ops.
    calibrations: list = field(default_factory=list)
    #: label -> client-observed seconds of each correct op.
    latencies: dict = field(default_factory=lambda: defaultdict(list))
    failures: list = field(default_factory=list)

    @property
    def slowness(self) -> float:
        return machine_slowness(self.calibrations)

    @property
    def raw_throughput(self) -> float:
        return self.attempted / self.wall

    @property
    def throughput(self) -> float:
        """Ops per second at the reference machine speed."""
        return self.raw_throughput * self.slowness

    def absorb(self, other: "Round") -> None:
        """Add ``other``'s ops, time and outcomes to this round."""
        self.attempted += other.attempted
        self.wall += other.wall
        self.calibrations += other.calibrations
        self.failures += other.failures
        for label, samples in other.latencies.items():
            self.latencies[label] += samples

    def pooled(self, *labels) -> list:
        """Latencies of the given classes (all when none given), in
        seconds at the reference machine speed."""
        slowness = self.slowness
        return [
            sample / slowness
            for label, samples in self.latencies.items()
            if not labels or label in labels
            for sample in samples
        ]


def run_round(connection, workload, ops, log=None, cap: float | None = None) -> Round:
    """Send ``ops`` one after the other.  A request that raises or whose
    answer is wrong counts as attempted and failed and has no latency.
    ``log`` (a ``trace.SpanLog``) gets a ``request`` span per answer.
    After a request, once CALIBRATE_EVERY_S have gone by, one calibration
    probe samples how fast the machine is running.  After ``cap`` seconds
    the round ends at the next cycle boundary and the workload takes the
    unsent ops back."""
    outcome = Round(attempted=len(ops), calibrations=[calibrate()])
    calibrated = begin = time.perf_counter()
    for index, op in enumerate(ops):
        if cap and index % workload.cycle == 0 and time.perf_counter() - begin > cap:
            outcome.attempted = index
            workload.rewind(len(ops) - index)
            break
        if log is not None:
            log.begin()
        sent = time.perf_counter()
        try:
            result = connection.send(op)
        except ReproError as error:
            outcome.failures.append(f"{op.target[:70]!r} raised {error!r}")
            continue
        seconds = time.perf_counter() - sent
        if log is not None:
            log.end("request", op.label, sent, sent + seconds)
        if workload.check(op, result):
            outcome.latencies[op.label].append(seconds)
        else:
            outcome.failures.append(f"{op.target[:70]!r} answered {result.row_count} rows")
        if time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
            outcome.calibrations.append(calibrate())
            calibrated = time.perf_counter()
    outcome.wall = time.perf_counter() - begin - sum(map(sum, outcome.calibrations[1:]))
    return outcome


@dataclass
class RunResult:
    workload: str
    metrics: dict
    attempted: int
    failures: list
    #: Numbers printed beside the metrics but not part of the contract.
    notes: dict = field(default_factory=dict)
    #: The server's stderr, printed when anything failed.
    server_log: str = ""

    @property
    def correct(self) -> bool:
        return not self.failures


def class_p50s(rounds) -> dict:
    """Per-statement and per-class median latency over ``rounds``."""

    def p50(*labels):
        return median_ms([s for r in rounds for s in r.pooled(*labels)])

    return {
        "service.q1_p50_ms": p50("q1"),
        "service.q2_p50_ms": p50("q2"),
        "service.q3_p50_ms": p50("q3"),
        "service.write_p50_ms": p50("write"),
        "service.read_p50_ms": p50("q1", "q2", "q3", "adhoc"),
    }


def run_untraced(name: str, seed: int, seconds: float, smoke: bool = False) -> RunResult:
    """The end-to-end numbers of one workload, tracing off."""
    setups = []
    with work_dir() as directory:
        for repeat in range(SETUP_REPEATS):
            workload = WORKLOADS[name](seed, seconds, smoke)
            calibrations = [calibrate() for _ in range(8)]
            with serving(workload, directory) as (server, connection, setup_seconds):
                calibrations += [calibrate() for _ in range(8)]
                setups.append(setup_seconds / machine_slowness(calibrations))
                if repeat < SETUP_REPEATS - 1:
                    continue
                failures = workload.learn(connection.client)
                cap = None if smoke else ROUND_CAP * workload.round_seconds
                rounds = [
                    run_round(connection, workload, workload.next_round(), cap=cap)
                    for _ in range(ROUNDS)
                ]
                failures += workload.finish(connection.client)
                peak_rss_mb = server.peak_rss_mb()
        server_log = server.stderr_text()
    timed = [r.pooled() for r in rounds if r.latencies]
    throughputs = [r.throughput for r in rounds]
    for r in rounds:
        failures += r.failures

    def middle_round(value) -> float:
        """The middle round's ``value``: a slow spell of the host that
        falls on one round of three moves a pooled figure, not this."""
        return statistics.median(map(value, timed)) * 1000.0 if timed else 0.0

    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": statistics.median(throughputs),
        "op_p50_ms": middle_round(lambda samples: percentile(samples, 0.50)),
        "op_p90_ms": middle_round(lambda samples: smoothed_percentile(samples, 0.90)),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "samples": sum(map(len, timed)),
        "timed_s": sum(r.wall for r in rounds),
        "raw_throughput_ops_s": statistics.median(r.raw_throughput for r in rounds),
        "bench.calib_ms": statistics.median(sum(c) for r in rounds for c in r.calibrations) * 1e3,
        "bench.round_spread": round_spread(throughputs),
        **class_p50s(rounds),
    }
    attempted = sum(r.attempted for r in rounds)
    return RunResult(name, metrics, attempted, failures, notes, server_log)
