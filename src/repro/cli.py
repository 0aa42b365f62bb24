"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``          execute a SQL query against CSV files or a generated dataset
``explain``      print the chosen plan as an ASCII DAG
``classify``     print the Kim/Muralikrishna classification
``compare``      time every strategy on one query (a one-query Figure 7 row)
``generate``     write an RST or TPC-H dataset as CSV files
``shell``        a minimal interactive loop
``recover``      open a durable --data-dir, report recovery, optionally checkpoint
``serve``        run the JSON-over-HTTP SQL server (the primary)
``replica``      run a read-only replica streaming a primary's WAL
``coordinator``  health-check a replica set and drive automatic failover
``promote``      manually promote a replica to primary (fenced, new era)
``scrub``        offline CRC walk of a data directory's WAL + snapshots

``run``/``explain``/``shell`` accept repeated ``--index
name:table:column[:kind]`` options to build secondary indexes before
planning, and ``run``/``explain`` take ``--explain-access`` to report
the chosen access paths (index scans, index nested-loop joins, skipped-row
counters).  The shell's ``\\indexes`` command lists live indexes.

Datasets are specified either with ``--csv DIR`` (every ``*.csv`` file
becomes a table named after the file, types inferred from the first data
row) or with ``--dataset rst[:SF]`` / ``--dataset tpch[:SF]`` for
generated data.  ``--data-dir DIR`` opens durable storage (WAL +
checkpoints, see ``docs/durability.md``): existing state is recovered
and the ``--csv``/``--dataset`` seed applies only to an empty directory.
The shell's ``\\checkpoint`` forces a snapshot, and ``serve`` keeps
``/health`` at 503 ready=false until recovery finishes.

Examples::

    python -m repro generate --dataset tpch:0.01 --out /tmp/tpch
    python -m repro run --csv /tmp/tpch "SELECT COUNT(*) FROM partsupp"
    python -m repro compare --dataset rst:5 --paper-query Q1
    python -m repro explain --dataset rst:1 --strategy unnested --paper-query Q4
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro import Database
from repro.bench.queries import QUERY_2D, RST_QUERIES
from repro.datagen import RstConfig, TpchConfig, generate_rst, generate_tpch
from repro.errors import ReproError
from repro.storage.table import Table

PAPER_QUERIES = dict(RST_QUERIES, **{"2D": QUERY_2D})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Disjunctive-unnesting query processor (ICDE 2007 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dataset_args(p):
        p.add_argument("--csv", metavar="DIR", help="load every *.csv in DIR")
        p.add_argument(
            "--dataset", metavar="NAME[:SF]",
            help="generated dataset: rst[:SF] or tpch[:SF]",
        )
        p.add_argument(
            "--data-dir", metavar="DIR",
            help="durable storage directory (WAL + checkpoints); recovers "
                 "existing state on open, seeds --csv/--dataset only when empty",
        )

    def add_engine_arg(p):
        p.add_argument(
            "--engine", choices=("row", "vectorized"), default="row",
            help="execution backend: tuple-at-a-time (row) or columnar batches",
        )

    def add_index_args(p, explain_access=True):
        p.add_argument(
            "--index", action="append", default=[], metavar="NAME:TABLE:COL[:KIND]",
            help="create a secondary index before planning (kind: hash or sorted)",
        )
        if explain_access:
            p.add_argument(
                "--explain-access", action="store_true",
                help="report chosen access paths and skipped-row counters",
            )

    run = sub.add_parser("run", help="execute a query")
    add_dataset_args(run)
    run.add_argument("sql", nargs="?", help="SQL text (or use --paper-query)")
    run.add_argument("--paper-query", choices=sorted(PAPER_QUERIES), help="a built-in paper query")
    run.add_argument("--strategy", default="auto")
    run.add_argument("--limit", type=int, default=20, help="rows to display")
    add_engine_arg(run)
    add_index_args(run)

    explain = sub.add_parser("explain", help="show the plan")
    add_dataset_args(explain)
    explain.add_argument("sql", nargs="?")
    explain.add_argument("--paper-query", choices=sorted(PAPER_QUERIES))
    explain.add_argument("--strategy", default="auto")
    add_index_args(explain)

    classify = sub.add_parser("classify", help="classify a query")
    add_dataset_args(classify)
    classify.add_argument("sql", nargs="?")
    classify.add_argument("--paper-query", choices=sorted(PAPER_QUERIES))

    compare = sub.add_parser("compare", help="time all strategies")
    add_dataset_args(compare)
    compare.add_argument("sql", nargs="?")
    compare.add_argument("--paper-query", choices=sorted(PAPER_QUERIES))
    compare.add_argument(
        "--strategies", default="canonical,s1,s2,s3,unnested,auto",
        help="comma-separated strategy list",
    )
    compare.add_argument("--budget", type=float, default=60.0)
    add_engine_arg(compare)

    generate = sub.add_parser("generate", help="write a dataset as CSV")
    generate.add_argument("--dataset", required=True, metavar="NAME[:SF]")
    generate.add_argument("--out", required=True, metavar="DIR")

    shell = sub.add_parser("shell", help="interactive query loop")
    add_dataset_args(shell)
    shell.add_argument("--strategy", default="auto")
    add_engine_arg(shell)
    add_index_args(shell, explain_access=False)

    recover = sub.add_parser(
        "recover", help="recover a durable data directory and report what it held"
    )
    recover.add_argument(
        "--data-dir", required=True, metavar="DIR",
        help="durable storage directory to open (snapshot + WAL replay)",
    )
    recover.add_argument(
        "--checkpoint", action="store_true",
        help="write a fresh checkpoint after recovery (truncates the WAL)",
    )

    serve = sub.add_parser("serve", help="run the JSON-over-HTTP SQL server")
    add_dataset_args(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080,
        help="listening port (0 picks a free ephemeral port)",
    )
    serve.add_argument(
        "--max-in-flight", type=int, default=4,
        help="queries executing concurrently before admission control queues",
    )
    serve.add_argument(
        "--max-queue", type=int, default=8,
        help="admitted-but-waiting requests before fast 429-style rejection",
    )
    serve.add_argument(
        "--timeout", type=float, default=30.0,
        help="default per-query timeout in seconds (requests may override)",
    )
    serve.add_argument(
        "--drain-grace", type=float, default=10.0,
        help="seconds a SIGTERM drain waits for in-flight queries "
             "before cancelling them",
    )
    serve.add_argument(
        "--advertise-url", metavar="URL",
        help="the URL other nodes should use to reach this server "
             "(reported as leader_url in /replication/topology)",
    )
    serve.add_argument(
        "--fenced", action="store_true",
        help="start fenced: refuse writes with NOT_PRIMARY until a "
             "/replication/promote confirms this node's reign — the safe "
             "way to restart an ex-primary after a failover",
    )

    replica = sub.add_parser(
        "replica", help="run a read-only replica streaming a primary's WAL"
    )
    replica.add_argument(
        "--primary", required=True, metavar="URL",
        help="base URL of the primary server to replicate from",
    )
    replica.add_argument(
        "--data-dir", required=True, metavar="DIR",
        help="local durable directory for the replica's copy; existing "
             "state is recovered and streaming resumes from its last "
             "applied LSN (the kill-and-rejoin path)",
    )
    replica.add_argument("--host", default="127.0.0.1")
    replica.add_argument(
        "--port", type=int, default=8081,
        help="listening port (0 picks a free ephemeral port)",
    )
    replica.add_argument(
        "--poll-wait", type=float, default=5.0,
        help="long-poll budget per WAL tail request, in seconds",
    )
    replica.add_argument(
        "--max-in-flight", type=int, default=4,
        help="queries executing concurrently before admission control queues",
    )
    replica.add_argument(
        "--advertise-url", metavar="URL",
        help="the URL other nodes should use to reach this replica "
             "(becomes leader_url if it is ever promoted)",
    )

    coordinator = sub.add_parser(
        "coordinator",
        help="health-check a replica set and drive automatic failover",
    )
    coordinator.add_argument(
        "--node", action="append", required=True, metavar="URL", dest="nodes",
        help="a cluster node's base URL (repeat for every node; at least two)",
    )
    coordinator.add_argument(
        "--interval", type=float, default=0.5,
        help="seconds between health-check rounds",
    )
    coordinator.add_argument(
        "--threshold", type=int, default=3,
        help="consecutive missed rounds before a failover fires",
    )
    coordinator.add_argument(
        "--http-timeout", type=float, default=5.0,
        help="timeout of each probe/promote/demote RPC, in seconds",
    )

    promote = sub.add_parser(
        "promote", help="manually promote a replica to primary (fenced, new era)"
    )
    promote.add_argument("url", metavar="URL", help="base URL of the replica to promote")
    promote.add_argument(
        "--era", type=int,
        help="the fencing era to install (default: the node's current era + 1)",
    )

    scrub = sub.add_parser(
        "scrub",
        help="offline integrity walk of a data directory (CRC-check WAL "
             "frames and snapshots without opening the database)",
    )
    scrub.add_argument(
        "--data-dir", required=True, metavar="DIR",
        help="durable storage directory to scrub (read-only; safe on a "
             "directory another process is writing, modulo a torn tail)",
    )

    sim = sub.add_parser(
        "sim",
        help="deterministic cluster simulation: virtual time, injected "
             "network faults, and a history checker over the replica set",
    )
    sim.add_argument(
        "--seeds", type=int, default=1, metavar="N",
        help="sweep seeds [--start, --start + N) (default: 1)",
    )
    sim.add_argument(
        "--start", type=int, default=0, metavar="S",
        help="first seed of the sweep (default: 0)",
    )
    sim.add_argument(
        "--seed", type=int, metavar="S",
        help="replay exactly one seed (overrides --seeds/--start)",
    )
    sim.add_argument(
        "--nodes", type=int, default=3, help="cluster size (default: 3)",
    )
    sim.add_argument(
        "--clients", type=int, default=3, help="workload clients (default: 3)",
    )
    sim.add_argument(
        "--duration", type=float, default=8.0,
        help="virtual seconds of faulted workload per seed (default: 8)",
    )
    sim.add_argument(
        "--break-rule", choices=("ignore-fencing",),
        help="deliberately disable a protocol rule (checker self-test: "
             "the run must FAIL, proving the checker can see the bug)",
    )
    sim.add_argument(
        "--check-determinism", action="store_true",
        help="run every seed twice and fail on any trace/history drift",
    )
    sim.add_argument(
        "--no-shrink", action="store_true",
        help="skip shrinking a failing seed's fault schedule",
    )
    sim.add_argument(
        "--trace", action="store_true",
        help="print the full network/coordinator trace of failing seeds",
    )

    return parser


# ---------------------------------------------------------------------------
# Dataset loading
# ---------------------------------------------------------------------------


def parse_dataset_spec(spec: str) -> tuple[str, float]:
    name, _, factor = spec.partition(":")
    return name.lower(), float(factor) if factor else 1.0


def load_database(args) -> Database:
    data_dir = getattr(args, "data_dir", None)
    if data_dir:
        db = Database.open(data_dir)
        if db.catalog.table_names():
            # Recovered state wins: seeding again would double-log the
            # dataset into the WAL on every start.
            return db
    else:
        db = Database()
    if getattr(args, "csv", None):
        _load_csv_dir(db, args.csv)
        return db
    if getattr(args, "dataset", None):
        name, factor = parse_dataset_spec(args.dataset)
        if name == "rst":
            tables = generate_rst(factor, factor, factor, RstConfig())
        elif name == "tpch":
            tables = generate_tpch(TpchConfig(scale_factor=factor))
        else:
            raise ReproError(f"unknown dataset {name!r} (use rst or tpch)")
        for table in tables.values():
            db.register(table)
        return db
    if data_dir:
        return db  # an empty durable directory is a valid starting point
    raise ReproError(
        "no data source: pass --csv DIR, --dataset NAME[:SF], or --data-dir DIR"
    )


def _load_csv_dir(db: Database, directory: str) -> None:
    found = False
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".csv"):
            continue
        found = True
        path = os.path.join(directory, entry)
        name = entry[: -len(".csv")]
        db.register(Table.from_csv(path, name=name))
    if not found:
        raise ReproError(f"no *.csv files in {directory!r}")


def resolve_sql(args) -> str:
    if getattr(args, "paper_query", None):
        return PAPER_QUERIES[args.paper_query]
    if getattr(args, "sql", None):
        return args.sql
    raise ReproError("no query: pass SQL text or --paper-query")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def eval_options(args) -> "EvalOptions":
    from repro.engine import EvalOptions

    return EvalOptions(vectorized=getattr(args, "engine", "row") == "vectorized")


def apply_indexes(db: Database, args) -> None:
    """Build the indexes requested with ``--index NAME:TABLE:COL[:KIND]``."""
    for spec in getattr(args, "index", None) or []:
        parts = spec.split(":")
        if len(parts) not in (3, 4):
            raise ReproError(
                f"bad --index spec {spec!r}; expected NAME:TABLE:COL[:KIND]"
            )
        kind = parts[3] if len(parts) == 4 else "hash"
        db.create_index(parts[0], parts[1], parts[2], kind)


def access_report(planned) -> str:
    """List the index access paths chosen anywhere in a logical plan."""
    from repro.algebra import ops as L

    lines = [
        f"  {node.label()}"
        for node in planned.logical.iter_dag(nested=True)
        if isinstance(node, (L.IndexScan, L.IndexNLJoin))
    ]
    if not lines:
        lines.append("  (no index access paths; full scans only)")
    return "-- access paths:\n" + "\n".join(sorted(set(lines))) + "\n"


def access_counters(db: Database) -> str:
    info = db.access_info()
    return (
        "-- access counters: "
        f"index_scans={info['index_scans']} "
        f"index_nl_probes={info['index_nl_probes']} "
        f"rows_read={info['rows_read']} "
        f"rows_skipped={info['rows_skipped']}\n"
    )


def cmd_run(args, out) -> int:
    db = load_database(args)
    apply_indexes(db, args)
    sql = resolve_sql(args)
    start = time.perf_counter()
    result = db.execute(sql, args.strategy, options=eval_options(args))
    elapsed = time.perf_counter() - start
    out.write(result.pretty(limit=args.limit))
    out.write(
        f"({len(result)} rows in {elapsed:.4f}s, "
        f"strategy {args.strategy}, engine {args.engine})\n"
    )
    if args.explain_access:
        out.write(access_report(db.plan(sql, args.strategy)))
        out.write(access_counters(db))
    return 0


def cmd_explain(args, out) -> int:
    db = load_database(args)
    apply_indexes(db, args)
    sql = resolve_sql(args)
    out.write(db.explain(sql, args.strategy))
    if args.explain_access:
        out.write(access_report(db.plan(sql, args.strategy)))
    return 0


def cmd_classify(args, out) -> int:
    db = load_database(args)
    qc = db.classify(resolve_sql(args))
    out.write(qc.describe() + "\n")
    for block in qc.blocks:
        flags = []
        if block.disjunctive_linking:
            flags.append("disjunctive linking")
        if block.disjunctive_correlation:
            flags.append("disjunctive correlation")
        suffix = f" ({', '.join(flags)})" if flags else ""
        out.write(f"  depth {block.depth}: type {block.kim_type.value}{suffix}\n")
    return 0


def cmd_compare(args, out) -> int:
    from repro.bench.harness import run_cell

    db = load_database(args)
    sql = resolve_sql(args)
    out.write(f"{'strategy':<12} {'seconds':>10} {'rows':>8}\n")
    for strategy in args.strategies.split(","):
        strategy = strategy.strip()
        cell = run_cell(
            sql, db.catalog, strategy, args.budget,
            vectorized=args.engine == "vectorized",
            planner=lambda sql, _catalog, strategy: db.plan(sql, strategy),
        )
        rows = "-" if cell.rows is None else cell.rows
        out.write(f"{strategy:<12} {cell.display:>10} {rows:>8}\n")
    return 0


def cmd_generate(args, out) -> int:
    name, factor = parse_dataset_spec(args.dataset)
    if name == "rst":
        tables = generate_rst(factor, factor, factor, RstConfig())
    elif name == "tpch":
        tables = generate_tpch(TpchConfig(scale_factor=factor))
    else:
        raise ReproError(f"unknown dataset {name!r} (use rst or tpch)")
    os.makedirs(args.out, exist_ok=True)
    for table in tables.values():
        path = os.path.join(args.out, f"{table.name}.csv")
        table.to_csv(path)
        out.write(f"wrote {path} ({len(table)} rows)\n")
    return 0


def cmd_shell(args, out) -> int:
    db = load_database(args)
    apply_indexes(db, args)
    out.write(
        "repro shell - end statements with a blank line; "
        "commands: \\strategy NAME, \\explain SQL, \\tables, \\indexes, "
        "\\checkpoint, \\quit\n"
    )
    strategy = args.strategy
    buffer: list[str] = []
    while True:
        try:
            prompt = "repro> " if not buffer else "  ...> "
            line = input(prompt)
        except EOFError:
            break
        stripped = line.strip()
        if not buffer and stripped.startswith("\\"):
            command, _, rest = stripped.partition(" ")
            if command in ("\\quit", "\\q"):
                break
            if command == "\\tables":
                for name in db.catalog.table_names():
                    out.write(f"  {name} ({len(db.table(name))} rows)\n")
                continue
            if command == "\\indexes":
                infos = db.indexes()
                if not infos:
                    out.write("  (no indexes)\n")
                for info in infos:
                    out.write(
                        f"  {info['name']}: {info['kind']} on "
                        f"{info['table']}.{info['column']} "
                        f"({info['entries']} entries, {info['rows']} rows)\n"
                    )
                continue
            if command == "\\checkpoint":
                try:
                    lsn = db.checkpoint()
                except ReproError as error:
                    out.write(f"error: [{error.code}] {error}\n")
                    continue
                if lsn is None:
                    out.write("no durable storage (start the shell with --data-dir)\n")
                else:
                    out.write(f"checkpoint written at lsn {lsn}\n")
                continue
            if command == "\\strategy":
                strategy = rest.strip() or strategy
                out.write(f"strategy = {strategy}\n")
                continue
            if command == "\\explain":
                try:
                    out.write(db.explain(rest, strategy))
                except ReproError as error:
                    out.write(f"error: [{error.code}] {error}\n")
                continue
            out.write(f"unknown command {command}\n")
            continue
        if stripped:
            buffer.append(line)
            continue
        if not buffer:
            continue
        sql = "\n".join(buffer)
        buffer = []
        try:
            start = time.perf_counter()
            result = db.execute(sql, strategy, options=eval_options(args))
            elapsed = time.perf_counter() - start
            out.write(result.pretty())
            out.write(f"({len(result)} rows in {elapsed:.4f}s)\n")
        except ReproError as error:
            out.write(f"error: [{error.code}] {error}\n")
    return 0


def _serve_until_signal(out, message: str, on_signal, run) -> None:
    """Run ``run()`` on this thread; on SIGTERM/SIGINT print ``message``
    and call ``on_signal`` — on a helper thread, because the handler
    interrupts the very thread ``run()`` serves on and a graceful
    ``on_signal`` (``QueryServer.drain``) waits for that loop to exit."""
    import signal
    import threading

    def handler(signum, frame):
        out.write(f"{message}\n")
        if hasattr(out, "flush"):
            out.flush()
        threading.Thread(target=on_signal, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, handler)
        signal.signal(signal.SIGINT, handler)
    except ValueError:
        pass  # not on the main thread (embedded use); signals stay default
    run()


def cmd_serve(args, out) -> int:
    from repro.service.server import QueryServer, ServerConfig

    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_in_flight=args.max_in_flight,
        max_queue=args.max_queue,
        default_timeout=args.timeout,
        drain_grace=args.drain_grace,
        advertise_url=getattr(args, "advertise_url", None),
        fenced=bool(getattr(args, "fenced", False)),
    )
    if getattr(args, "data_dir", None):
        # Defer the open: the socket binds immediately and /health reports
        # ready=false while the snapshot loads and the WAL replays.
        server = QueryServer(lambda: load_database(args), config)
        tables_line = "(recovering; GET /health until ready)"
    else:
        db = load_database(args)
        server = QueryServer(db, config)
        tables_line = ", ".join(db.catalog.table_names()) or "(none)"
    host, port = server.address
    out.write(f"serving on http://{host}:{port}\n")
    out.write(f"tables: {tables_line}\n")
    if hasattr(out, "flush"):
        out.flush()  # scripts parse the port line before the first request

    _serve_until_signal(out, "draining (signal received)...", server.drain, server.serve_forever)
    out.write("server stopped\n")
    return 0


def cmd_replica(args, out) -> int:
    """Run a read-only replica: bootstrap from the primary, tail its WAL."""
    from repro.replication.replica import ReplicaConfig, ReplicaServer
    from repro.service.server import ServerConfig

    replica = ReplicaServer(
        ReplicaConfig(
            primary_url=args.primary,
            data_dir=args.data_dir,
            poll_wait=args.poll_wait,
        ),
        ServerConfig(
            host=args.host,
            port=args.port,
            max_in_flight=args.max_in_flight,
            advertise_url=getattr(args, "advertise_url", None),
        ),
    )
    host, port = replica.address
    out.write(f"replica serving on http://{host}:{port}\n")
    out.write(f"replicating from {args.primary} into {args.data_dir}\n")
    if hasattr(out, "flush"):
        out.flush()  # scripts parse the port line before the first request

    _serve_until_signal(
        out, "replica draining (signal received)...", replica.drain, replica.serve_forever
    )
    out.write("replica stopped\n")
    return 0


def cmd_coordinator(args, out) -> int:
    """Health-check a replica set; elect and promote on primary failure."""
    import threading

    from repro.replication.failover import ClusterCoordinator, CoordinatorConfig

    if len(args.nodes) < 2:
        raise ReproError("coordinator needs at least two --node URLs to fail over between")
    config = CoordinatorConfig(
        nodes=tuple(args.nodes),
        health_interval=args.interval,
        failure_threshold=args.threshold,
        http_timeout=args.http_timeout,
    )

    def emit(message: str) -> None:
        out.write(f"{message}\n")
        if hasattr(out, "flush"):
            out.flush()

    coordinator = ClusterCoordinator(config, on_event=emit)
    emit(f"coordinating {len(config.nodes)} nodes: {', '.join(config.nodes)}")
    stop = threading.Event()

    _serve_until_signal(
        out, "coordinator stopping (signal received)...", stop.set, lambda: coordinator.run(stop)
    )
    info = coordinator.info()
    out.write(
        f"coordinator stopped after {info['rounds']} rounds "
        f"(leader {info['leader_url']}, era {info['era']}, "
        f"{info['promotions']} promotions)\n"
    )
    return 0


def cmd_promote(args, out) -> int:
    """Manually promote one replica: the operator's failover lever."""
    from repro.service.client import ServiceClient
    from repro.service.resilience import RetryPolicy

    client = ServiceClient(args.url, retry_policy=RetryPolicy(max_attempts=1))
    era = args.era
    if era is None:
        topology = client.replication_topology()
        era = max(int(topology.get("era", 0)), int(topology.get("fenced_era", 0))) + 1
    body = client.replication_promote(era)
    out.write(
        f"promoted {args.url} to primary of era {body.get('era', era)} "
        f"(era_lsn {body.get('era_lsn', 0)}, applied_lsn {body.get('applied_lsn', 0)})\n"
    )
    return 0


def cmd_scrub(args, out) -> int:
    """Print :func:`repro.storage.wal.scrub`'s report on a data directory.

    Reports torn WAL tails, corrupt frames, damaged snapshots, and
    recovery gaps (a WAL that bases past the newest loadable snapshot);
    exits 1 when any anomaly is found.
    """
    from repro.storage.wal import scrub

    if not os.path.isdir(args.data_dir):
        raise ReproError(f"scrub: {args.data_dir!r} is not a directory")
    report = scrub(args.data_dir)
    out.write(report.render())
    return 1 if report.anomalies else 0


def cmd_sim(args, out) -> int:
    """Deterministic cluster simulation over a seed (or a seed sweep).

    Each seed runs the whole replica set — primary, replicas, the
    failover coordinator, and workload clients — in one process on a
    virtual clock, with a seeded nemesis injecting partitions, crashes,
    pauses, and clock skew.  The history checker then asserts the
    protocol's contract (no lost acked writes, era monotonicity,
    read-your-writes, monotonic reads, convergence) and a storage scrub
    walks every surviving data directory.  A failing seed prints its
    violations, the exact replay command, and (unless ``--no-shrink``)
    a minimized fault schedule that still reproduces the failure.
    """
    from repro.sim.runner import check_determinism, run_sim, shrink_schedule

    seeds = [args.seed] if args.seed is not None else range(args.start, args.start + args.seeds)
    kwargs = {
        "nodes": args.nodes,
        "clients": args.clients,
        "duration": args.duration,
        "break_rule": args.break_rule,
    }
    failed = 0
    for seed in seeds:
        problems: list[str] = []
        if args.check_determinism:
            result, problems = check_determinism(seed, **kwargs)
        else:
            result = run_sim(seed, **kwargs)
        ok = result.ok and not problems
        if ok:
            out.write(
                f"seed {seed}: ok ({result.ops} ops, {result.acked_writes} acked writes,"
                f" {len(result.schedule)} faults)\n"
            )
            continue
        failed += 1
        out.write(f"seed {seed}: FAIL ({len(result.violations)} violations)\n")
        for violation in result.violations:
            out.write(f"  {violation}\n")
        for problem in problems:
            out.write(f"  determinism: {problem}\n")
        out.write(f"  schedule ({len(result.schedule)} events):\n")
        for event in result.schedule:
            out.write(f"    {event.describe()}\n")
        replay = f"repro sim --seed {seed}"
        if args.nodes != 3:
            replay += f" --nodes {args.nodes}"
        if args.clients != 3:
            replay += f" --clients {args.clients}"
        if args.duration != 8.0:
            replay += f" --duration {args.duration}"
        if args.break_rule:
            replay += f" --break-rule {args.break_rule}"
        out.write(f"  replay: {replay}\n")
        if result.violations and not args.no_shrink:
            shrunk = shrink_schedule(result, **kwargs)
            out.write(f"  shrunk schedule ({len(shrunk)} events):\n")
            for event in shrunk:
                out.write(f"    {event.describe()}\n")
        if args.trace:
            out.write("  trace:\n")
            for line in result.trace:
                out.write(f"    {line}\n")
    if failed:
        out.write(f"sim: FAILED ({failed}/{len(list(seeds))} seeds)\n")
        return 1
    out.write(f"sim: ok ({len(list(seeds))} seeds clean)\n")
    return 0


def cmd_recover(args, out) -> int:
    """Open a durable directory, report the recovery, optionally checkpoint.

    This is the offline repair path: after a crash (or suspected torn
    write) it replays the WAL, prints what survived, and with
    ``--checkpoint`` compacts the log so the next server start is fast.
    """
    start = time.perf_counter()
    db = Database.open(args.data_dir)
    elapsed = time.perf_counter() - start
    info = db.durability_info()
    recovery = info.get("recovery", {})
    out.write(f"recovered {args.data_dir} in {elapsed:.4f}s\n")
    out.write(
        f"  snapshot lsn {recovery.get('snapshot_lsn', 0)}, "
        f"{recovery.get('records_replayed', 0)} WAL records replayed, "
        f"{recovery.get('torn_bytes_dropped', 0)} torn bytes dropped\n"
    )
    if recovery.get("snapshot_fallback"):
        out.write("  warning: newest snapshot was corrupt; fell back to an older one\n")
    for name in db.catalog.table_names():
        out.write(f"  table {name}: {len(db.table(name))} rows\n")
    for view in db.view_names():
        out.write(f"  view {view}\n")
    for index in db.indexes():
        out.write(
            f"  index {index['name']}: {index['kind']} on "
            f"{index['table']}.{index['column']}\n"
        )
    if args.checkpoint:
        lsn = db.checkpoint()
        out.write(f"checkpoint written at lsn {lsn}\n")
    db.close()
    return 0


COMMANDS = {
    "run": cmd_run,
    "explain": cmd_explain,
    "classify": cmd_classify,
    "compare": cmd_compare,
    "generate": cmd_generate,
    "shell": cmd_shell,
    "serve": cmd_serve,
    "replica": cmd_replica,
    "coordinator": cmd_coordinator,
    "promote": cmd_promote,
    "scrub": cmd_scrub,
    "sim": cmd_sim,
    "recover": cmd_recover,
}


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args, out)
    except ReproError as error:
        print(f"error: [{error.code}] {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
