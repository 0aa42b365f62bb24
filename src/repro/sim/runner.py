"""Entry points: run one seed, sweep many, shrink a failing schedule.

:func:`run_sim` is the whole experiment for one seed: build a cluster in
a fresh scratch directory, generate the nemesis schedule from the seed,
run the workload on virtual time, heal everything, wait for convergence,
check the history, scrub every node's durable directory, and return a
:class:`SimResult`.  The same seed always produces the identical event
trace and history — :func:`check_determinism` asserts exactly that by
running a seed twice and comparing both — so a sweep only needs to
report ``seed N failed`` for the failure to be debuggable offline.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
from dataclasses import dataclass, field

from repro.sim.clock import VirtualClock
from repro.sim.cluster import SimCluster
from repro.sim.history import HistoryChecker, HistoryRecorder
from repro.sim.nemesis import NemesisEvent, generate_schedule, install_schedule, shrink
from repro.sim.transport import SimNet


@dataclass
class SimResult:
    seed: int
    schedule: list
    violations: list
    settled: bool
    trace: list = field(repr=False)
    recorder: HistoryRecorder = field(repr=False)
    net_counters: dict = field(default_factory=dict)
    ops: int = 0
    acked_writes: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def history_digest(self) -> str:
        """A stable serialization of the client-visible history — two
        runs of the same seed must produce byte-identical digests."""
        return json.dumps(
            {"ops": self.recorder.ops, "statuses": self.recorder.statuses},
            sort_keys=True,
        )


def run_sim(
    seed: int,
    data_dir: str | None = None,
    nodes: int = 3,
    clients: int = 3,
    duration: float = 8.0,
    settle_timeout: float = 30.0,
    break_rule: str | None = None,
    events_override: list | None = None,
) -> SimResult:
    """One full simulated run; see the module docstring.

    ``events_override`` replaces the seed-derived schedule (the shrink
    loop and directed regression tests use it); everything else still
    derives from ``seed``, so overridden runs stay deterministic too.
    """
    scratch = data_dir or tempfile.mkdtemp(prefix="repro-sim-")
    owns_scratch = data_dir is None
    try:
        master = random.Random(seed)
        clock = VirtualClock()
        trace: list[str] = []
        net = SimNet(clock, random.Random(master.randrange(2**63)), trace=trace)
        recorder = HistoryRecorder()
        cluster = SimCluster(
            clock,
            net,
            random.Random(master.randrange(2**63)),
            recorder,
            scratch,
            trace,
            node_count=nodes,
            client_count=clients,
            break_rule=break_rule,
        )
        cluster.build()
        # Background packet chaos arms only after the fault-free build
        # (the initial bootstrap is deployment, not a fault we inject).
        net.drop_request_prob = 0.02
        net.drop_response_prob = 0.02
        net.duplicate_prob = 0.02
        schedule = (
            list(events_override)
            if events_override is not None
            else generate_schedule(
                random.Random(master.randrange(2**63)),
                list(cluster.nodes),
                duration,
            )
        )
        install_schedule(cluster, schedule)
        cluster.start_coordinator()
        cluster.start_workload(duration)
        clock.run_until(duration)
        # Settle: no new faults, everything healed, workload stopped.
        net.heal_all()
        cluster.pause_coordinator(False)
        settled = False
        while clock.now() < duration + settle_timeout:
            clock.run_until(clock.now() + 0.25)
            if cluster.settled():
                settled = True
                break
        cluster.sample()  # the checker's final convergence sample
        final_state, final_history = cluster.final_state()
        checker = HistoryChecker(recorder, final_state, final_history, clock.now())
        violations = checker.check()
        directories = cluster.close()
        violations.extend(_scrub_all(directories, scratch))
        acked = sum(
            1
            for op in recorder.ops
            if op["kind"] == "write" and op.get("status") == "ok"
        )
        return SimResult(
            seed=seed,
            schedule=schedule,
            violations=violations,
            settled=settled,
            trace=trace,
            recorder=recorder,
            net_counters=dict(net.counters),
            ops=len(recorder.ops),
            acked_writes=acked,
        )
    finally:
        if owns_scratch:
            shutil.rmtree(scratch, ignore_errors=True)


def _scrub_all(directories: list, scratch: str) -> list:
    """Post-run invariant: every node's durable directory passes the
    offline integrity walk (what ``repro scrub`` prints)."""
    from repro.storage.wal import scrub

    violations = []
    for directory in directories:
        report = scrub(directory)
        if report.anomalies:
            name = directory[len(scratch) :].strip("/")
            text = report.render().strip().replace("\n", "; ")
            violations.append(f"scrub anomalies on {name}: {text}")
    return violations


def check_determinism(seed: int, **kwargs) -> tuple[SimResult, list]:
    """Run ``seed`` twice; returns the first result plus a list of
    divergences (empty = deterministic)."""
    first = run_sim(seed, **kwargs)
    second = run_sim(seed, **kwargs)
    problems = []
    if first.trace != second.trace:
        for index, (a, b) in enumerate(zip(first.trace, second.trace)):
            if a != b:
                problems.append(f"trace diverges at line {index}: {a!r} != {b!r}")
                break
        if len(first.trace) != len(second.trace):
            problems.append(
                f"trace length {len(first.trace)} != {len(second.trace)}"
            )
    if first.history_digest() != second.history_digest():
        problems.append("history digests differ")
    return first, problems


def sweep(
    seeds: int, start: int = 0, on_result=None, **kwargs
) -> tuple[int, list[SimResult]]:
    """Run ``seeds`` consecutive seeds; returns (passed, failures)."""
    passed = 0
    failures = []
    for seed in range(start, start + seeds):
        result = run_sim(seed, **kwargs)
        if result.ok:
            passed += 1
        else:
            failures.append(result)
        if on_result is not None:
            on_result(result)
    return passed, failures


def shrink_schedule(result: SimResult, **kwargs) -> list[NemesisEvent]:
    """Minimize a failing run's nemesis schedule by re-running with
    event subsets; returns the smallest schedule that still fails."""

    def still_fails(events: list) -> bool:
        probe = run_sim(result.seed, events_override=events, **kwargs)
        return bool(probe.violations)

    return shrink(result.schedule, still_fails)
