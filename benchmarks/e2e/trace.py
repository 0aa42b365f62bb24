"""The traced run: where one workload's time goes, measured from outside.

One round per pass.  An untraced round gives the reference throughput;
*pass A* repeats it with client-side spans around every request
(``request`` > ``client.encode``, ``http.roundtrip`` > ``server.run``,
``client.decode``); *pass B* (``layers.py``) steps the same op list
through the layers' public functions in this process.  ``mixed_rw``
also feeds a replication follower and then crashes its primary.
Spans live in memory and are written to ``out/trace-<workload>.json``
when the run ends.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import tempfile
import time
import urllib.error
import urllib.request

from benchmarks.e2e import OUT
from benchmarks.e2e.layers import run_layers
from benchmarks.e2e.loop import Round, RunResult, class_p50s, run_round, serving, work_dir
from benchmarks.e2e.server import CHECKPOINT_EVERY_RECORDS, durability_config
from benchmarks.e2e.stats import median_ms, round_spread, self_times
from benchmarks.e2e.workloads import WORKLOADS
from repro.errors import ServiceUnavailable
from repro.sim.transport import HTTP_TRANSPORT, Transport

#: Cycles of writes the follower applies after its bootstrap (5 each).
REPLICATION_CYCLES = 13
#: Pieces the traced run's two rounds are cut into, alternately untraced
#: and traced.
PIECES = 8


class SpanLog:
    """Spans in memory: name, start, end, the span that caused it."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self.trace = 0
        self.root: int | None = None

    def begin(self) -> None:
        """Open a trace: spans added until ``end`` are its root's children."""
        self.trace += 1
        self.root = next(self._ids)

    def end(self, name: str, label: str, start: float, end: float) -> None:
        """Close the trace with its root span (one op of a workload)."""
        self.spans.append(
            {"trace": self.trace, "id": self.root, "parent": None, "name": name,
             "label": label, "start": start, "end": end}
        )
        self.root = None

    def add(self, name: str, start: float, end: float, parent=None, **attrs) -> int:
        span_id = next(self._ids)
        self.spans.append(
            {"trace": self.trace, "id": span_id,
             "parent": self.root if parent is None else parent,
             "name": name, "start": start, "end": end, **attrs}
        )
        return span_id

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


class TracedTransport(Transport):
    """The steps of the shipped ``HttpTransport``, a span around each."""

    def __init__(self, log: SpanLog):
        self.log = log

    def request(self, base_url, method, path, payload, timeout):
        encode_start = time.perf_counter()
        data, headers = None, {"Accept": "application/json"}
        if method == "POST":
            data = json.dumps(payload or {}).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(base_url + path, data=data, headers=headers, method=method)
        sent = time.perf_counter()
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                raw = response.read()
        except urllib.error.HTTPError as http_error:
            raw = http_error.read()  # a structured error body is still an answer
        except OSError as error:
            raise ServiceUnavailable(f"server unreachable: {error!r}") from error
        received = time.perf_counter()
        body = json.loads(raw)
        decoded = time.perf_counter()
        self.log.add("client.encode", encode_start, sent)
        roundtrip = self.log.add("http.roundtrip", sent, received, path=path, bytes=len(raw))
        elapsed = body.get("elapsed") if isinstance(body, dict) else None
        if elapsed is not None:
            # The server's own clock for the statement; where inside the
            # round trip it sat is unknown, so it is centred.
            slack = max(received - sent - elapsed, 0.0) / 2
            self.log.add("server.run", sent + slack, sent + slack + elapsed, parent=roundtrip)
        self.log.add("client.decode", received, decoded)
        return body


def _metrics_delta(before: dict, after: dict, section: str, key: str):
    return after[section][key] - before[section][key]


def _pass_a_metrics(log: SpanLog, before: dict, after: dict) -> dict:
    """Edge and cache numbers of pass A, from its spans and ``/metrics``."""
    by_trace: dict = {}
    for span in log.spans:
        by_trace.setdefault(span["trace"], {})[span["name"]] = span
    walls, edges, decodes, sizes = [], [], [], []
    for spans in by_trace.values():
        if "server.run" not in spans:
            continue  # a failed request: counted by the loop, not timed here
        wall = spans["request"]["end"] - spans["request"]["start"]
        walls.append(wall)
        edges.append(wall - (spans["server.run"]["end"] - spans["server.run"]["start"]))
        decodes.append(spans["client.decode"]["end"] - spans["client.decode"]["start"])
        sizes.append(spans["http.roundtrip"]["bytes"])
    lookups = sum(_metrics_delta(before, after, "plan_cache", k) for k in ("hits", "misses"))
    durability = "durability" if after.get("durability", {}).get("enabled") else None
    return {
        "service.edge_ms": median_ms(edges),
        "service.edge_share": sum(edges) / sum(walls),
        "service.client_decode_ms": median_ms(decodes),
        "service.response_bytes_per_op": statistics.fmean(sizes),
        "service.plan_cache_hit_rate": (
            _metrics_delta(before, after, "plan_cache", "hits") / lookups if lookups else 0.0
        ),
        "service.plan_cache_invalidations": _metrics_delta(
            before, after, "plan_cache", "invalidations"
        ),
        "service.plan_cache_evictions": _metrics_delta(before, after, "plan_cache", "evictions"),
        "service.rejected": _metrics_delta(before, after, "server", "rejected_overload"),
        "storage.wal_appends": (
            _metrics_delta(before, after, durability, "wal_appends") if durability else 0
        ),
        "storage.checkpoints": (
            _metrics_delta(before, after, durability, "checkpoints") if durability else 0
        ),
        "storage.mvcc_versions": after["mvcc"]["versions"],
    }, sum(walls), sum(w - e for w, e in zip(walls, edges))


def _speedups(workload, connection, own: Round) -> dict:
    """Canonical / unnested per-statement latency: the paper's effect.

    The workload's own statements were timed in the untraced pieces
    (``own``); the other strategy's are prepared here and run a few times
    each.  Both sides are times as measured, minutes apart at most.
    """
    if not workload.name.startswith("fig7_"):
        return {f"rewrite.speedup_q{i}": 0.0 for i in (1, 2, 3)}
    other = workload.other_strategy
    repeats = 3 if other == "canonical" else 9
    result = {}
    with connection.client.session() as session:
        for name, sql in workload.statements.items():
            handle = session.prepare(sql, other)
            samples = []
            for _ in range(repeats):
                begin = time.perf_counter()
                handle.execute(engine="vectorized")
                samples.append(time.perf_counter() - begin)
            pair = {workload.strategy: median_ms(own.latencies[name.lower()]),
                    other: median_ms(samples)}
            result[f"rewrite.speedup_{name.lower()}"] = pair["canonical"] / pair["auto"]
    return result


def _replication(workload, connection, server, directory: str, failures: list) -> dict:
    """Bootstrap a follower from the running primary, write, catch up."""
    from repro.replication.replica import ReplicaConfig, ReplicationFollower
    from repro.storage.wal import list_snapshots

    # An auto-checkpoint inside the feed would truncate the WAL under
    # the follower and turn its catch-up into a second bootstrap: when
    # one is near, write past it first.
    durability = connection.client.metrics()["durability"]
    room = CHECKPOINT_EVERY_RECORDS - (durability["last_lsn"] - durability["last_checkpoint_lsn"])
    if room <= 5 * REPLICATION_CYCLES:
        failures += run_round(connection, workload, workload.writes_only(room // 5 + 1)).failures
    log = SpanLog()
    replica_dir = tempfile.mkdtemp(prefix="replica-", dir=directory)
    follower = ReplicationFollower(
        ReplicaConfig(primary_url=server.url, data_dir=replica_dir),
        transport=TracedTransport(log),
    )
    begin = time.perf_counter()
    follower.bootstrap()
    bootstrap_s = time.perf_counter() - begin
    try:
        snapshot_bytes = os.path.getsize(list_snapshots(replica_dir)[-1][1])
        feed = run_round(connection, workload, workload.writes_only(REPLICATION_CYCLES))
        failures += feed.failures
        primary_lsn = connection.client.metrics()["replication"]["commit_lsn"]
        first_lsn = follower.applied_lsn
        begin = time.perf_counter()
        while follower.applied_lsn < primary_lsn:
            follower.step(wait=0)
        apply_s = time.perf_counter() - begin
        records = follower.applied_lsn - first_lsn
        if records != feed.attempted:
            failures.append(f"follower applied {records} records of {feed.attempted} writes")
        for table, (sql, predicted) in workload.checksums().items():
            got = follower.db.execute(sql).rows[0]
            if got != predicted:
                failures.append(f"follower {table}: {got}, arithmetic says {predicted}")
    finally:
        follower.db.close()
    wire = sum(s.get("bytes", 0) for s in log.spans if s.get("path") == "/replication/wal")
    return {
        "replication.bootstrap_s": bootstrap_s,
        "replication.snapshot_bytes": snapshot_bytes,
        "replication.apply_records_s": records / apply_s,
        "replication.wire_bytes_per_record": wire / records,
    }


def _crash_and_recover(workload, server, failures: list) -> dict:
    """SIGKILL the primary after its last ack, reopen its directory:
    every acknowledged write must be readable again."""
    from repro import Database

    server.kill()
    begin = time.perf_counter()
    db = Database.open(server.data_dir, durability=durability_config(server.data_dir))
    recovery_s = time.perf_counter() - begin
    try:
        for table, (sql, predicted) in workload.checksums().items():
            got = db.execute(sql).rows[0]
            if got != predicted:
                failures.append(f"recovered {table}: {got}, acknowledged {predicted}")
        replayed = db.durability_info()["recovery"]["records_replayed"]
    finally:
        db.close()
    return {"storage.recovery_s": recovery_s, "storage.replay_records_s": replayed / recovery_s}


def run_traced(name: str, seed: int, seconds: float, smoke: bool = False) -> RunResult:
    """The per-layer numbers of one workload."""
    workload = WORKLOADS[name](seed, seconds, smoke)
    log = SpanLog()
    metrics = {
        "replication.bootstrap_s": 0.0, "replication.snapshot_bytes": 0,
        "replication.apply_records_s": 0.0, "replication.wire_bytes_per_record": 0.0,
        "storage.recovery_s": 0.0, "storage.replay_records_s": 0.0,
    }
    with work_dir() as directory:
        with serving(workload, directory) as (server, connection, _):
            failures = workload.learn(connection.client)
            # Two rounds' ops in alternating untraced and traced pieces, so
            # a slow spell of the machine falls on both sides alike.
            before = connection.client.metrics()
            untraced, traced, pieces = Round(), Round(), []
            ops = workload.next_round() + workload.next_round()
            size = max(1, len(ops) // workload.cycle // PIECES) * workload.cycle
            for index, start in enumerate(range(0, len(ops), size)):
                tracing = index % 2 == 1
                connection.client.transport = TracedTransport(log) if tracing else HTTP_TRANSPORT
                piece = run_round(
                    connection, workload, ops[start : start + size], log if tracing else None
                )
                (traced if tracing else untraced).absorb(piece)
                if not tracing:
                    pieces.append(piece.throughput)
            connection.client.transport = HTTP_TRANSPORT
            after = connection.client.metrics()
            metrics.update(class_p50s([untraced]))
            pass_a, wall_sum, server_sum = _pass_a_metrics(log, before, after)
            metrics.update(pass_a)
            metrics.update(_speedups(workload, connection, untraced))
            failures += untraced.failures + traced.failures
            failures += workload.finish(connection.client)
            if workload.durable:
                metrics.update(_replication(workload, connection, server, directory, failures))
                failures += workload.finish(connection.client)
                metrics.update(_crash_and_recover(workload, server, failures))
        server_log = server.stderr_text()
        layer_metrics, stages = run_layers(WORKLOADS[name](seed, seconds, smoke), directory, log)
    metrics.update(layer_metrics)
    metrics["plan.share"] = stages["plan"] / server_sum
    metrics["engine.execute_share"] = stages["execute"] / wall_sum
    metrics["bench.calib_ms"] = (
        statistics.median(map(sum, untraced.calibrations + traced.calibrations)) * 1000.0
    )
    metrics["bench.round_spread"] = round_spread(pieces)
    metrics["bench.trace_overhead"] = untraced.throughput / traced.throughput
    metrics["bench.trace_coverage"] = sum(stages.values()) / server_sum
    log.write(OUT / f"trace-{name}.json")
    by_id = {span["id"]: span["name"] for span in log.spans}
    notes: dict = {}
    for span_id, seconds_self in self_times(log.spans).items():
        key = f"self_ms_per_op.{by_id[span_id]}"
        notes[key] = notes.get(key, 0.0) + seconds_self * 1000.0 / traced.attempted
    attempted = untraced.attempted + traced.attempted
    return RunResult(name, metrics, attempted, failures, notes, server_log)
