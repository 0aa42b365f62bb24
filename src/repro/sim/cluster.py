"""A whole replica set in one process, on virtual time.

:class:`SimCluster` builds the same objects the CLI deploys as separate
processes — N :class:`~repro.service.server.QueryService` nodes (one
primary, the rest mounting a
:class:`~repro.replication.replica.ReplicationFollower`), one
:class:`~repro.replication.failover.ClusterCoordinator`, and a handful
of :class:`~repro.replication.routing.ReplicaSetClient` workload clients
— and wires them together through the two seams: every component gets
the shared :class:`~repro.sim.clock.VirtualClock` (per node wrapped in a
:class:`~repro.sim.clock.SkewedClock` so the nemesis can skew it) and a
per-origin :class:`~repro.sim.transport.SimTransport`, so partitions are
per-link and a request's origin matters.

Execution is single-threaded by construction: each *actor turn* — one
client operation, one follower poll, one coordinator health round, one
status sample — is a synchronous callback on the clock's event heap, and
``max_wait_seconds=0.0`` keeps every server-side gate non-blocking.  The
heap's ``(time, seq)`` order therefore fully determines the
interleaving, which is what makes a seed replayable.

A *crash* closes the node's database (the durable directory keeps
whatever the WAL held — exactly a SIGKILL) and marks it down on the net;
a *restart* reopens the directory, as a follower of the current leader
when one exists elsewhere (exercising rejoin-with-truncation in-sim) or
as the unfenced primary when the cluster never moved on.
"""

from __future__ import annotations

import random

from repro import Database
from repro.errors import NotPrimary, ReproError, ServiceUnavailable
from repro.replication.failover import ClusterCoordinator, CoordinatorConfig
from repro.replication.replica import ReplicaConfig, ReplicationFollower
from repro.replication.routing import ReplicaSetClient
from repro.service.server import QueryService, ServerConfig
from repro.sim.clock import SkewedClock, VirtualClock
from repro.sim.history import HistoryRecorder, converged
from repro.sim.transport import SimNet

#: The workload table: client id, per-client sequence number, payload.
WORKLOAD_TABLE = ("kv", ["C", "S", "V"], [(-1, 0, 0)])

COORDINATOR_ORIGIN = "coordinator"


class SimNode:
    """One simulated node's mutable state.  What the node *is* — its
    store, its follower, its role — hangs off ``service``."""

    def __init__(self, name: str, url: str, data_dir: str, clock: SkewedClock):
        self.name = name
        self.url = url
        self.data_dir = data_dir
        self.clock = clock
        self.service: QueryService | None = None
        self.step_handle = None
        self.crashed = False
        self.just_restarted = False


class SimCluster:
    """Builds, runs, faults, and tears down one simulated replica set."""

    def __init__(
        self,
        clock: VirtualClock,
        net: SimNet,
        rng: random.Random,
        recorder: HistoryRecorder,
        base_dir: str,
        trace: list,
        node_count: int = 3,
        client_count: int = 3,
        break_rule: str | None = None,
    ):
        if node_count < 2:
            raise ValueError("a cluster needs at least two nodes")
        self.clock = clock
        self.net = net
        self.rng = rng
        self.recorder = recorder
        self.trace = trace
        self.break_rule = break_rule
        self.nodes: dict[str, SimNode] = {}
        for index in range(node_count):
            name = f"n{index + 1}"
            url = f"http://{name}"
            node = SimNode(name, url, f"{base_dir}/{name}", SkewedClock(clock))
            self.nodes[name] = node
            self.net.register(url, self._handler(node))
        self.primary_name = "n1"
        self.coordinator_paused = False
        self.coordinator = ClusterCoordinator(
            CoordinatorConfig(
                nodes=tuple(node.url for node in self.nodes.values()),
                health_interval=0.25,
                failure_threshold=3,
                http_timeout=0.5,
            ),
            on_event=lambda message: self._note(f"coord {message}"),
            clock=clock,
            transport=net.transport(COORDINATOR_ORIGIN),
        )
        self.clients: list[ReplicaSetClient] = []
        self.client_rng = random.Random(rng.randrange(2**63))
        self._workload_end = 0.0
        for index in range(client_count):
            origin = f"client-{index}"
            self.clients.append(
                ReplicaSetClient(
                    self.nodes[self.primary_name].url,
                    tuple(
                        node.url
                        for node in self.nodes.values()
                        if node.name != self.primary_name
                    ),
                    timeout=1.0,
                    lsn_wait=0.05,
                    clock=clock,
                    transport=net.transport(origin),
                    budget=1.5,
                )
            )

    # -- build ---------------------------------------------------------------

    def build(self) -> None:
        """Create the primary with the workload table, bootstrap followers."""
        primary = self.nodes[self.primary_name]
        name, columns, rows = WORKLOAD_TABLE
        db = Database.open(primary.data_dir)
        db.create_table(name, columns, rows)
        self._start(primary, db)
        for node in self.nodes.values():
            if node.name == self.primary_name:
                continue
            self._start_replica(node, primary.url)

    def _server_config(self, node: SimNode) -> ServerConfig:
        # max_wait_seconds=0.0: no server-side gate may park — there are
        # no threads to wake it, and a non-blocking REPLICA_LAGGING is
        # what the routing layer is built to absorb.
        return ServerConfig(
            port=0,
            advertise_url=node.url,
            default_timeout=5.0,
            max_wait_seconds=0.0,
            session_ttl=None,
            clock=node.clock,
        )

    def _start(self, node: SimNode, db: Database, follower=None) -> None:
        node.service = QueryService(db, self._server_config(node), follower)
        self._maybe_break(node.service)

    def _start_replica(self, node: SimNode, primary_url: str) -> None:
        follower = ReplicationFollower(
            ReplicaConfig(
                primary_url=primary_url,
                data_dir=node.data_dir,
                poll_wait=0.0,
                http_timeout=1.0,
            ),
            rng=random.Random(self.rng.randrange(2**63)),
            clock=node.clock,
            transport=self.net.transport(node.url),
        )
        self._start(node, follower.bootstrap(), follower)
        self._schedule_step(node, 0.0)

    def _handler(self, node: SimNode):
        def handle(method: str, path: str, payload: dict):
            service = node.service
            if service is None:
                raise ServiceUnavailable(f"sim: {node.name} has no service")
            return service.handle(method, path, payload)

        return handle

    def _maybe_break(self, service: QueryService) -> None:
        """Disable one protocol rule (the checker self-test's seeded bug).

        ``ignore-fencing`` makes the node's write gate swallow
        ``NOT_PRIMARY``: a fenced or stale-era ex-primary keeps
        acknowledging writes the cluster has already disowned — exactly
        the split-brain the fencing era exists to prevent, so the
        history checker must report it.
        """
        if self.break_rule != "ignore-fencing":
            return
        original = service.role.check_write

        def leaky_gate(era) -> None:
            try:
                original(era)
            except NotPrimary:
                pass

        service.role.check_write = leaky_gate

    # -- scheduled actors ----------------------------------------------------

    def _schedule_step(self, node: SimNode, delay: float) -> None:
        node.step_handle = self.clock.call_later(
            delay, lambda: self._follower_tick(node), f"{node.name}.step"
        )

    def _follower_tick(self, node: SimNode) -> None:
        # A promoted node has dropped its follower: the tick dies here.
        follower = None if node.service is None else node.service.role.follower
        if node.crashed or follower is None or follower.broken is not None:
            return
        try:
            follower.step(wait=0.0)
        except ReproError:
            pass  # unreachable primary / stale stream: next tick retries
        self._schedule_step(node, 0.03 + self.rng.random() * 0.04)

    def start_coordinator(self) -> None:
        self._coordinator_tick()

    def _coordinator_tick(self) -> None:
        if not self.coordinator_paused:
            self.coordinator.step()
        self.clock.call_later(
            self.coordinator.config.health_interval, self._coordinator_tick, "coord.step"
        )

    def start_workload(self, duration: float) -> None:
        self._workload_end = self.clock.now() + duration
        for index in range(len(self.clients)):
            self.clock.call_later(
                0.05 + self.client_rng.random() * 0.1,
                lambda index=index: self._client_tick(index),
                f"client-{index}.op",
            )
        self._sampler_tick()

    def _client_tick(self, index: int) -> None:
        if self.clock.now() >= self._workload_end:
            return
        self._client_op(index)
        self.clock.call_later(
            0.05 + self.client_rng.random() * 0.1,
            lambda: self._client_tick(index),
            f"client-{index}.op",
        )

    def _client_op(self, index: int) -> None:
        client = self.clients[index]
        name = f"client-{index}"
        recorder = self.recorder
        if self.client_rng.random() < 0.6:
            seq = sum(
                1
                for op in recorder.ops
                if op["client"] == name and op["kind"] == "write"
            )
            op = recorder.invoke(name, "write", self.clock.now(), cid=index, seq=seq)
            try:
                result = client.execute(f"INSERT INTO kv VALUES ({index}, {seq}, {seq})")
            except ReproError as error:
                recorder.fail(op, self.clock.now(), error.code)
            else:
                recorder.ok(
                    op,
                    self.clock.now(),
                    era=result.era,
                    commit_lsn=result.commit_lsn,
                )
        else:
            op = recorder.invoke(name, "read", self.clock.now(), cid=index)
            try:
                result = client.query(f"SELECT S FROM kv WHERE C = {index}")
            except ReproError as error:
                recorder.fail(op, self.clock.now(), error.code)
            else:
                recorder.ok(
                    op,
                    self.clock.now(),
                    era=result.era,
                    applied_lsn=result.applied_lsn,
                    values=sorted(row[0] for row in result.rows),
                )

    def _sampler_tick(self) -> None:
        self.sample()
        self.clock.call_later(0.1, self._sampler_tick, "sample")

    def _status(self, node: SimNode) -> dict:
        """One node's status as the history checker reads it."""
        if node.crashed or node.service is None:
            return {"alive": False}
        topology = node.service.role.topology()
        return {
            "alive": True,
            "role": topology.get("role"),
            "era": topology.get("era", 0),
            "fenced": bool(topology.get("fenced")),
            "fenced_era": topology.get("fenced_era", 0),
            "applied_lsn": topology.get("applied_lsn", 0),
            "broken": topology.get("broken"),
        }

    def sample(self) -> dict:
        """One status observation of every node, appended to the history."""
        nodes = {}
        for node in self.nodes.values():
            nodes[node.name] = status = self._status(node)
            if status["alive"]:
                status["restarted"] = node.just_restarted
                node.just_restarted = False
        self.recorder.status(self.clock.now(), nodes)
        return nodes

    # -- faults --------------------------------------------------------------

    def crash(self, name: str) -> None:
        node = self.nodes[name]
        if node.crashed:
            return
        self._note(f"cluster crash {name}")
        node.crashed = True
        self.net.set_down(node.url, True)
        if node.step_handle is not None:
            node.step_handle.cancel()
            node.step_handle = None
        self._close_node(node)

    def restart(self, name: str) -> None:
        node = self.nodes[name]
        if not node.crashed:
            return
        leader = self.coordinator.leader_url
        self._note(f"cluster restart {name} (leader {leader})")
        node.crashed = False
        node.just_restarted = True
        self.net.set_down(node.url, False)
        if leader is not None and leader != node.url:
            # The cluster (possibly) moved on: rejoin as a follower of
            # the current leader — local recovery first, then the stream
            # protocol truncates any divergent suffix.
            self._start_replica(node, leader)
        else:
            # Nothing moved on (or this node *is* the leader): resume
            # the reign from the durable directory.
            self._start(node, Database.open(node.data_dir))

    def pause_coordinator(self, paused: bool) -> None:
        self._note(f"cluster coordinator {'paused' if paused else 'resumed'}")
        self.coordinator_paused = paused

    def skew(self, name: str, offset: float) -> None:
        self._note(f"cluster skew {name} {offset:+.3f}")
        self.nodes[name].clock.offset = offset

    def leader_links(self) -> tuple[str, list[tuple[str, str]]]:
        """The current leader URL and its links to coordinator + peers
        (the split-brain cut: clients deliberately keep their links)."""
        leader = self.coordinator.leader_url or self.nodes[self.primary_name].url
        pairs = [(leader, COORDINATOR_ORIGIN)]
        pairs.extend(
            (leader, node.url) for node in self.nodes.values() if node.url != leader
        )
        return leader, pairs

    def _note(self, message: str) -> None:
        self.trace.append(f"{self.clock.now():.4f} {message}")

    # -- settling and teardown ----------------------------------------------

    def settled(self) -> bool:
        """Converged per the checker's rule, with every follower caught up."""
        nodes = {node.name: self._status(node) for node in self.nodes.values()}
        if not all(status["alive"] for status in nodes.values()) or not converged(nodes):
            return False
        leader = self._leader_node()
        if leader is None:
            return False
        target = leader.service.db.wal_lsn
        return all(
            node.service.role.follower is None
            or node.service.role.follower.applied_lsn >= target
            for node in self.nodes.values()
        )

    def _leader_node(self) -> SimNode | None:
        """The unfenced primary at the newest era (lowest URL on a tie —
        the same deterministic rule the coordinator converges on)."""
        best = None
        best_key = None
        for node in self.nodes.values():
            status = self._status(node)
            if not status["alive"] or status["role"] != "primary" or status["fenced"]:
                continue
            key = (-status["era"], node.url)
            if best_key is None or key < best_key:
                best, best_key = node, key
        return best

    def final_state(self) -> tuple[set, tuple]:
        """``(surviving (cid, seq) pairs, era_history)`` from the leader.

        Falls back to the most-advanced node when the cluster never
        converged — the convergence violation is reported separately;
        this still gives the write checks a best-effort timeline.
        """
        leader = self._leader_node()
        if leader is None:
            alive = [n for n in self.nodes.values() if n.service is not None]
            if not alive:
                return set(), ()
            leader = max(alive, key=lambda n: (n.service.db.era, n.service.db.wal_lsn))
        db = leader.service.db
        rows = db.execute("SELECT C, S FROM kv").rows
        state = {(int(c), int(s)) for c, s in rows if int(c) >= 0}
        return state, db.era_history

    def _close_node(self, node: SimNode) -> None:
        """Drop the node's service: follower closed, store closed (the
        durable directory keeps whatever the WAL held)."""
        service, node.service = node.service, None
        if service is not None:
            if service.role.follower is not None:
                service.role.follower.close()
            service.db.close()

    def close(self) -> list[str]:
        """Close every database; returns the data dirs for scrubbing."""
        for node in self.nodes.values():
            self._close_node(node)
        return [node.data_dir for node in self.nodes.values()]
