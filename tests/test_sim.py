"""Deterministic cluster simulation: the sim harness and what it found.

Layers:

* **determinism** — the acceptance bar: one seed, two runs, identical
  network trace and client-visible history; different seeds diverge;
* **nemesis** — seeded schedule generation and the ddmin-style shrink;
* **sweep** — a handful of seeds end-to-end with zero checker
  violations (CI runs the wide sweep via ``repro sim --seeds 50``);
* **checker self-test** — disabling the fencing rule via ``break_rule``
  must make the checker report violations, on both a directed schedule
  and a seed-generated one (which must then shrink and still fail);
* **sim-found regressions** — each bug the simulator surfaced, pinned
  as a directed deterministic test: the era-stamped read gate (a stale
  replica's old-timeline LSNs must not satisfy a causal read), the
  lost-promotion-ack era burn (an era is spent once the promote RPC
  may have been delivered), and the no-rest circuit breakers on the
  replication and coordinator paths;
* **concurrent promotion** — two rival coordinators racing a failover
  converge on a single leader with the loser fenced, in-sim and (the
  backstop) against real server processes.
"""

from __future__ import annotations

import os
import random
import re
import signal
import subprocess
import sys
import threading
import time

from repro.errors import ReproError, ServiceUnavailable
from repro.replication.failover import ClusterCoordinator, CoordinatorConfig
from repro.service.client import ServiceClient
from repro.sim.cluster import COORDINATOR_ORIGIN, SimCluster
from repro.sim.clock import VirtualClock
from repro.sim.history import HistoryRecorder
from repro.sim.nemesis import NemesisEvent, generate_schedule, shrink
from repro.sim.runner import check_determinism, run_sim, shrink_schedule, sweep
from repro.sim.transport import SimNet

#: One primary isolation, long enough for the coordinator to fail over
#: and for the workload to keep running on both sides of the cut.
DIRECTED = [NemesisEvent("isolate_primary", "n1", 1.0, 3.0)]


def topology(service):
    return service.handle("GET", "/replication/topology", {})[1]


def make_cluster(tmp_path, seed=0, **kwargs):
    """A built (but not yet started) SimCluster on a fresh virtual clock."""
    master = random.Random(seed)
    clock = VirtualClock()
    trace: list[str] = []
    net = SimNet(clock, random.Random(master.randrange(2**63)), trace=trace)
    cluster = SimCluster(
        clock,
        net,
        random.Random(master.randrange(2**63)),
        HistoryRecorder(),
        str(tmp_path),
        trace,
        **kwargs,
    )
    cluster.build()
    return clock, net, cluster


class TestDeterminism:
    def test_same_seed_identical_trace_and_history(self):
        result, problems = check_determinism(3)
        assert problems == []
        assert result.ok, result.violations

    def test_different_seeds_diverge(self):
        first = run_sim(5, duration=4.0)
        second = run_sim(6, duration=4.0)
        assert first.history_digest() != second.history_digest()


class TestNemesis:
    def test_schedule_is_seeded_and_sorted(self):
        names = ["n1", "n2", "n3"]
        first = generate_schedule(random.Random(9), names, 8.0)
        second = generate_schedule(random.Random(9), names, 8.0)
        assert first == second
        assert first == sorted(first, key=lambda e: (e.start, e.end, e.kind, e.target))
        assert 3 <= len(first) <= 6
        for event in first:
            assert 0.0 < event.start < event.end

    def test_shrink_finds_the_single_culprit(self):
        events = [
            NemesisEvent("isolate_node", f"n{i}", float(i), float(i) + 1.0)
            for i in range(1, 7)
        ]
        culprit = events[3]
        shrunk = shrink(events, lambda subset: culprit in subset)
        assert shrunk == [culprit]

    def test_shrink_keeps_a_conjunction(self):
        events = [
            NemesisEvent("isolate_node", f"n{i}", float(i), float(i) + 1.0)
            for i in range(1, 7)
        ]
        pair = {events[0], events[4]}
        shrunk = shrink(events, lambda subset: pair <= set(subset))
        assert set(shrunk) == pair


class TestSweepInvariants:
    def test_seed_sweep_is_clean(self):
        passed, failures = sweep(6)
        assert passed == 6, [(r.seed, r.violations[:2]) for r in failures]

    def test_runs_settle_and_scrub_clean(self):
        result = run_sim(0)
        assert result.settled
        assert result.acked_writes > 0
        assert not any("scrub" in v for v in result.violations)


class TestCheckerSelfTest:
    """`break_rule` plants a real protocol bug; the checker must see it."""

    def test_control_run_is_clean(self):
        control = run_sim(42, events_override=DIRECTED)
        assert control.ok, control.violations

    def test_disabled_fencing_is_detected(self):
        broken = run_sim(42, events_override=DIRECTED, break_rule="ignore-fencing")
        assert not broken.ok
        assert any(
            "unsafe ack" in v or "lost acked" in v for v in broken.violations
        ), broken.violations

    def test_generated_schedule_catches_it_and_shrinks(self):
        broken = run_sim(1, break_rule="ignore-fencing")
        assert not broken.ok
        shrunk = shrink_schedule(broken, break_rule="ignore-fencing")
        assert 1 <= len(shrunk) <= len(broken.schedule)
        replay = run_sim(1, events_override=shrunk, break_rule="ignore-fencing")
        assert not replay.ok


class TestEraStampedReads:
    """Sim-found (seed 13 pre-fix): a replica still tailing a deposed
    primary can satisfy an LSN-only causal gate with old-timeline LSNs.
    Reads are therefore stamped with the client's era, and a node that
    cannot prove that era refuses (retryably) instead of answering."""

    def test_stale_replica_refuses_newer_era_read(self, tmp_path):
        _, _, cluster = make_cluster(tmp_path)
        replica = cluster.nodes["n2"].service
        status, body = replica.handle(
            "POST", "/query", {"sql": "SELECT S FROM kv WHERE C = 0", "era": 1}
        )
        assert status != 200
        assert body["error"]["code"] == "REPLICA_LAGGING"

    def test_armed_but_unproven_follower_refuses_causal_read(self, tmp_path):
        # A repoint arms follower.era before the boundary record is
        # applied; until the stream truncates or confirms the local
        # log, its LSNs are unproven and era-stamped reads must bounce
        # even when the stamp is at or below the armed era.
        _, _, cluster = make_cluster(tmp_path)
        node = cluster.nodes["n2"]
        node.service.role.follower.repoint(cluster.nodes["n3"].url, era=2)
        status, body = node.service.handle(
            "POST",
            "/query",
            {"sql": "SELECT S FROM kv WHERE C = 0", "era": 1, "min_lsn": 1},
        )
        assert status != 200
        assert body["error"]["code"] == "REPLICA_LAGGING"

    def test_deposed_primary_fences_on_newer_era_read(self, tmp_path):
        _, _, cluster = make_cluster(tmp_path)
        primary = cluster.nodes["n1"].service
        status, body = primary.handle(
            "POST", "/query", {"sql": "SELECT S FROM kv WHERE C = 0", "era": 3}
        )
        assert status != 200
        assert body["error"]["code"] == "REPLICA_LAGGING"
        assert topology(primary)["fenced"] is True
        # Once fenced, even un-stamped causal reads bounce: the local
        # log may diverge from the surviving timeline.
        status, body = primary.handle(
            "POST", "/query", {"sql": "SELECT S FROM kv WHERE C = 0", "min_lsn": 1}
        )
        assert status != 200
        assert body["error"]["code"] == "REPLICA_LAGGING"


class TestLostPromotionAck:
    """Sim-found (seed 46 pre-fix): a promote RPC landed, the response
    was lost, and the target crashed before the next probe round — the
    coordinator then reused the era on a different node and split the
    timeline in two.  An era must be *spent* by an indeterminate
    promotion attempt."""

    def test_indeterminate_promotion_burns_the_era(self, tmp_path):
        clock, _, cluster = make_cluster(tmp_path)
        coordinator = cluster.coordinator
        n2_client = coordinator._clients["http://n2"]
        real_promote = n2_client.replication_promote

        def promote_lands_node_dies(era):
            real_promote(era)  # the era record is durable on n2 ...
            cluster.crash("n2")  # ... but n2 dies ...
            raise ServiceUnavailable("sim: response lost")  # ... unacked

        n2_client.replication_promote = promote_lands_node_dies
        cluster.start_coordinator()
        clock.run_until(0.5)
        assert coordinator.leader_url == "http://n1"
        cluster.crash("n1")
        clock.run_until(2.5)
        # The failed promotion burned era 1 even though no node answered.
        assert coordinator.counters["failed_promotions"] == 1
        assert coordinator.era >= 1
        clock.run_until(8.0)
        # The retry elected n3 at a *fresh* era — never a second era-1
        # primary — and n2's unacked era-1 reign stays behind the new
        # boundary instead of sharing its number.
        n3 = cluster.nodes["n3"]
        assert topology(n3.service)["role"] == "primary"
        assert n3.service.db.era == 2
        assert coordinator.leader_url == "http://n3"


class TestBreakersNeverRest:
    """Sim-found (seeds 31/42 pre-fix): default circuit breakers on the
    replication and coordinator paths kept failing fast for their whole
    reset timeout after a partition healed — followers stayed dark while
    the primary acked writes a failover then lost, and a revived stale
    primary stayed undemoted for multiples of the reset timeout."""

    def test_follower_catches_up_immediately_after_heal(self, tmp_path):
        clock, net, cluster = make_cluster(tmp_path)
        primary = cluster.nodes["n1"]
        net.partition("http://n2", "http://n1")
        for i in range(8):
            primary.service.db.execute(f"INSERT INTO kv VALUES (9, {i}, {i})")
        clock.run_until(2.0)  # plenty of failed polls to trip a breaker
        follower = cluster.nodes["n2"].service.role.follower
        assert follower.applied_lsn < primary.service.db.wal_lsn
        net.heal("http://n2", "http://n1")
        clock.run_until(2.5)  # one poll interval, not a breaker timeout
        assert follower.applied_lsn == primary.service.db.wal_lsn

    def test_coordinator_polices_promptly_after_heal(self, tmp_path):
        clock, net, cluster = make_cluster(tmp_path)
        cluster.start_coordinator()
        clock.run_until(0.5)
        _, links = cluster.leader_links()
        for a, b in links:
            net.partition(a, b)
        clock.run_until(4.0)
        assert cluster.coordinator.era == 1  # failed over behind the cut
        assert topology(cluster.nodes["n1"].service)["fenced"] is False
        net.heal_all()
        clock.run_until(5.5)  # a few rounds, not a breaker reset timeout
        assert topology(cluster.nodes["n1"].service)["fenced"] is True


class TestConcurrentPromotion:
    """Two rival coordinators race the same failover.  However the race
    interleaves, the cluster must converge on a single unfenced leader
    at the newest era, with every other contender fenced."""

    def test_rival_coordinators_converge_in_sim(self, tmp_path):
        clock, net, cluster = make_cluster(tmp_path)
        rival = ClusterCoordinator(
            CoordinatorConfig(
                nodes=tuple(node.url for node in cluster.nodes.values()),
                health_interval=0.25,
                failure_threshold=3,
                http_timeout=0.5,
            ),
            clock=clock,
            transport=net.transport("coordinator-b"),
        )

        def rival_tick():
            rival.step()
            clock.call_later(0.25, rival_tick, "coord-b.step")

        # Split the electorate: each coordinator can see only one
        # replica, so they elect different winners at the same era.
        net.partition(COORDINATOR_ORIGIN, "http://n3")
        net.partition("coordinator-b", "http://n2")
        cluster.crash("n1")
        cluster.start_coordinator()
        clock.call_later(0.12, rival_tick, "coord-b.step")
        clock.run_until(3.0)
        primaries = {
            name: topology(node.service)
            for name, node in cluster.nodes.items()
            if node.service is not None and topology(node.service)["role"] == "primary"
        }
        assert set(primaries) == {"n2", "n3"}  # the race really happened
        assert all(t["era"] == 1 for t in primaries.values())
        net.heal_all()
        clock.run_until(6.0)
        topo2 = topology(cluster.nodes["n2"].service)
        topo3 = topology(cluster.nodes["n3"].service)
        # Same-era tie-break: the lowest URL keeps the reign, the loser
        # is fenced, and both coordinators agree.
        assert topo2["role"] == "primary" and topo2["fenced"] is False
        assert topo3["fenced"] is True and topo3["fenced_era"] >= 1
        assert cluster.coordinator.leader_url == "http://n2"
        assert rival.leader_url == "http://n2"

    def test_rival_coordinators_converge_subprocess(self, tmp_path):
        """The backstop: the same race against real server processes."""
        procs = []

        def start(cmd):
            env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
            proc = subprocess.Popen(
                cmd,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                cwd=os.getcwd(),
                env=env,
            )
            procs.append(proc)
            line = proc.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", line)
            assert match, f"no address line from {cmd}: {line!r}"
            return f"http://{match.group(1)}:{match.group(2)}"

        def wait_ready(url, deadline=30.0):
            client = ServiceClient(url, timeout=5.0)
            end = time.monotonic() + deadline
            while time.monotonic() < end:
                try:
                    client.healthz()
                    return client
                except Exception:
                    time.sleep(0.1)
            raise AssertionError(f"server at {url} never became ready")

        try:
            purl = start(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--port", "0",
                    "--data-dir", str(tmp_path / "pdata"),
                    "--dataset", "rst:0.2",
                ]
            )
            wait_ready(purl)
            replica_urls = []
            for name in ("r1", "r2"):
                rurl = start(
                    [
                        sys.executable, "-m", "repro", "replica",
                        "--primary", purl,
                        "--data-dir", str(tmp_path / name),
                        "--port", "0",
                        "--poll-wait", "0.2",
                    ]
                )
                replica_urls.append(rurl)
                wait_ready(rurl)
            nodes = (purl, *replica_urls)
            coordinators = [
                ClusterCoordinator(
                    CoordinatorConfig(
                        nodes=nodes,
                        health_interval=0.1,
                        failure_threshold=2,
                        http_timeout=2.0,
                    )
                )
                for _ in range(2)
            ]
            for coordinator in coordinators:
                coordinator.step()  # both adopt the healthy primary
            procs[0].send_signal(signal.SIGKILL)
            procs[0].wait(timeout=10)

            stop = threading.Event()

            def drive(coordinator):
                while not stop.is_set():
                    try:
                        coordinator.step()
                    except ReproError:
                        pass
                    time.sleep(0.05)

            threads = [
                threading.Thread(target=drive, args=(c,)) for c in coordinators
            ]
            for thread in threads:
                thread.start()
            try:
                deadline = time.monotonic() + 30
                leaders = set()
                while time.monotonic() < deadline:
                    leaders = {c.leader_url for c in coordinators}
                    if (
                        len(leaders) == 1
                        and None not in leaders
                        and all(c.era >= 1 for c in coordinators)
                    ):
                        break
                    time.sleep(0.1)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10)
            assert len(leaders) == 1 and None not in leaders, leaders
            (leader_url,) = leaders
            topologies = {
                url: ServiceClient(url, timeout=5.0).replication_topology()
                for url in replica_urls
            }
            unfenced = [
                url
                for url, topology in topologies.items()
                if topology["role"] == "primary" and not topology["fenced"]
            ]
            assert unfenced == [leader_url]
            # Any rival that briefly reigned must have been fenced.
            for url, topology in topologies.items():
                if url != leader_url:
                    assert topology["role"] != "primary" or topology["fenced"]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
