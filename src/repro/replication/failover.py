"""Automatic primary failover: health checks, election, fenced promotion.

The :class:`ClusterCoordinator` closes the loop the rest of the
replication stack leaves open: the WAL-shipping primary/replica pair
(``repro.replication.replica``) keeps followers current and the routing
client (``repro.replication.routing``) splits reads from writes, but
when the primary dies someone must *decide* — pick a successor, fence
the corpse, and repoint the survivors.  That someone is this module.

One coordinator watches a fixed node set.  Each round it probes every
node's ``/replication/topology`` and:

1. **adopts** the highest fencing era it sees anywhere (eras are the
   cluster's logical clock; a coordinator restarted mid-failover, or one
   whose promote response was lost, re-learns the truth from the nodes);
2. counts consecutive **leader misses**; at ``failure_threshold`` it
   runs a **failover**: among reachable, unbroken, unfenced replicas it
   elects the most-caught-up (highest ``applied_lsn``, ties broken by
   lowest URL — deterministic) and promotes it with ``era + 1``;
3. **polices** the rest of the topology: an unfenced node still claiming
   the primary role at an older era is demoted (fenced in place), and a
   replica following the wrong leader or armed with an older era is
   repointed at the current one.

Split-brain prevention does not rest on the coordinator being alive or
unique — it rests on the **fencing era**:

* promotion writes the new era as a WAL control record on the winner
  *before* any client write is acknowledged under it;
* every node that learns of era N (from the coordinator, from a request
  payload, or from the stream) refuses writes and streams from era < N;
* a deposed primary that never heard anything still self-fences on the
  first era-carrying write it sees (``NOT_PRIMARY``), so at most the
  writes it acknowledged while truly isolated — writes era N's quorum
  never saw — are lost, and its rejoin truncates exactly that suffix.

Fault sites (see ``repro.faults``): ``replication.failover.health``
makes a probe fail (the node looks down), ``replication.failover.promote``
fails the promotion RPC, ``replication.failover.demote`` fails the
demote/repoint policing RPCs.  All three are used by the chaos tests to
prove detection, election, and policing each tolerate transient loss.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import InjectedFault, ReproError
from repro.faults import injector_from_env
from repro.service.client import ServiceClient
from repro.service.resilience import CircuitBreaker, RetryPolicy
from repro.sim.clock import SYSTEM_CLOCK, Clock
from repro.sim.transport import Transport

#: Fault site: a topology probe fails (the node appears down this round).
SITE_FAILOVER_HEALTH = "replication.failover.health"
#: Fault site: the promotion RPC to the elected replica fails.
SITE_FAILOVER_PROMOTE = "replication.failover.promote"
#: Fault site: a policing RPC (demote a stale primary / repoint a
#: replica) fails; policing retries next round.
SITE_FAILOVER_DEMOTE = "replication.failover.demote"


@dataclass(frozen=True)
class CoordinatorConfig:
    """Tunables for one cluster coordinator."""

    #: Base URLs of every node in the replica set (primary + replicas).
    nodes: tuple[str, ...]
    #: Seconds between health-check rounds in :meth:`ClusterCoordinator.run`.
    health_interval: float = 0.5
    #: Consecutive rounds the leader must miss before a failover fires.
    #: Probes are cheap and the threshold is what separates "one dropped
    #: packet" from "the primary is gone" — 3 at the default interval
    #: means ~1.5s of sustained silence.
    failure_threshold: int = 3
    #: HTTP timeout of each probe/promote/demote RPC.
    http_timeout: float = 5.0

    def __post_init__(self):
        if len(self.nodes) < 2:
            raise ValueError("a coordinator needs at least two nodes to fail over between")
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")


@dataclass
class NodeView:
    """One probe's worth of what a node said about itself."""

    url: str
    role: str
    era: int
    fenced: bool
    fenced_era: int
    applied_lsn: int
    leader_url: str | None
    broken: str | None = None
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_topology(cls, url: str, body: dict) -> "NodeView":
        return cls(
            url=url,
            role=str(body.get("role", "")),
            era=int(body.get("era", 0)),
            fenced=bool(body.get("fenced", False)),
            fenced_era=int(body.get("fenced_era", 0)),
            applied_lsn=int(body.get("applied_lsn", 0)),
            leader_url=body.get("leader_url"),
            broken=body.get("broken"),
            raw=body,
        )


def reigning_leader(
    views: Iterable[NodeView | None], known_era: int = 0
) -> tuple[int, NodeView | None]:
    """The newest fencing era known anywhere, and the leader reigning at it.

    The one election rule, for the coordinator and the routing client
    alike.  Eras never move backwards — ``known_era`` is the caller's own
    belief — and a *fenced* era counts too: a node fenced at era N proves
    era N exists even if its primary is not reachable.  The leader is the
    lowest-URL unfenced primary at exactly that era (deterministic, so
    every coordinator demotes the same loser of a same-era promotion
    race), or None when no unfenced primary reigns at it.
    """
    seen = [view for view in views if view is not None]
    era = max([known_era, *(max(view.era, view.fenced_era) for view in seen)])
    reigning = [
        view for view in seen if view.role == "primary" and not view.fenced and view.era == era
    ]
    return era, min(reigning, key=lambda view: view.url, default=None)


class ClusterCoordinator:
    """Health-checks a replica set and drives fenced failover.

    ``on_event`` (optional callable) receives one short string per
    noteworthy action (failover fired, node promoted/demoted/repointed)
    — the CLI prints these; tests assert on :attr:`events` directly.
    """

    def __init__(
        self,
        config: CoordinatorConfig,
        on_event=None,
        clock: Clock | None = None,
        transport: Transport | None = None,
    ):
        self.config = config
        self.on_event = on_event
        self._clock = clock or SYSTEM_CLOCK
        # max_attempts=1: the coordinator's own round cadence is the
        # retry loop; a probe that fails simply counts as a miss.  The
        # breaker must not rest either: the miss counter is already the
        # failure detector, and a resting breaker would keep reporting a
        # healed node as down for its whole reset timeout — delaying
        # both failover (probes of live candidates fail fast) and
        # policing (a revived stale primary stays undemoted, still
        # acking writes the new reign will disown).
        self._clients = {
            url.rstrip("/"): ServiceClient(
                url,
                timeout=config.http_timeout,
                retry_policy=RetryPolicy(max_attempts=1),
                breaker=CircuitBreaker(reset_timeout=0.0, clock=self._clock.monotonic),
                clock=self._clock,
                transport=transport,
            )
            for url in config.nodes
        }
        #: Best-known leader URL (starts unknown; the first round adopts
        #: whichever unfenced primary reigns at the newest era).
        self.leader_url: str | None = None
        #: Highest fencing era observed or installed anywhere.
        self.era = 0
        self._misses = 0
        self.events: list[str] = []
        self.counters = {
            "rounds": 0,
            "probe_failures": 0,
            "failovers": 0,
            "promotions": 0,
            "failed_promotions": 0,
            "demotions": 0,
            "repoints": 0,
        }

    # -- probing ------------------------------------------------------------

    def _probe(self, url: str, injector=None) -> NodeView | None:
        """One topology probe; None means the node looked down."""
        try:
            if injector is not None:
                injector.maybe_fail(SITE_FAILOVER_HEALTH)
            body = self._clients[url].replication_topology()
        except (InjectedFault, ReproError):
            self.counters["probe_failures"] += 1
            return None
        return NodeView.from_topology(url, body)

    def probe_all(self) -> dict[str, NodeView | None]:
        injector = injector_from_env()
        return {url: self._probe(url, injector) for url in self._clients}

    # -- one round ----------------------------------------------------------

    def step(self) -> dict[str, NodeView | None]:
        """One health-check round; returns the probe results.

        Adopt the newest era, count leader misses, fail over at the
        threshold, police stragglers.  Every sub-action is independent
        and idempotent, so a coordinator killed at any point between two
        rounds resumes correctly from what the nodes themselves report.
        """
        self.counters["rounds"] += 1
        views = self.probe_all()
        self._adopt(views)
        leader = self.leader_url
        leader_view = views.get(leader) if leader else None
        leader_alive = (
            leader_view is not None
            and not leader_view.fenced
            and leader_view.role == "primary"
        )
        if leader_alive:
            self._misses = 0
        else:
            self._misses += 1
            if self._misses >= self.config.failure_threshold:
                self._failover(views)
        self._police(views)
        return views

    def _adopt(self, views: dict[str, NodeView | None]) -> None:
        """Learn the cluster's newest era and its reigning leader
        (:func:`reigning_leader`).  This is what makes a restarted
        coordinator (or one whose promote RPC response was lost after
        the promote itself landed) converge instead of re-promoting at a
        stale era.
        """
        self.era, best = reigning_leader(views.values(), self.era)
        if best is not None and best.url != self.leader_url:
            self.leader_url = best.url
            self._misses = 0
            self._event(f"leader is {best.url} (era {best.era})")

    def _failover(self, views: dict[str, NodeView | None]) -> None:
        """Elect the most-caught-up healthy replica and promote it.

        Election is deterministic: highest ``applied_lsn`` wins, ties
        broken by lowest URL.  The promotion installs ``era + 1`` on the
        winner as a durable WAL record — the commit point after which
        every other node's stream and write path is fenced off.
        """
        candidates = [
            view
            for view in views.values()
            if view is not None
            and view.role == "replica"
            and not view.fenced
            and not view.broken
        ]
        if not candidates:
            return
        candidates.sort(key=lambda view: (-view.applied_lsn, view.url))
        winner = candidates[0]
        new_era = self.era + 1
        self.counters["failovers"] += 1
        self._event(
            f"failover: leader {self.leader_url or '<unknown>'} missed"
            f" {self._misses} rounds; promoting {winner.url}"
            f" (applied_lsn {winner.applied_lsn}) to era {new_era}"
        )
        injector = injector_from_env()
        try:
            if injector is not None:
                injector.maybe_fail(SITE_FAILOVER_PROMOTE)
            body = self._clients[winner.url].replication_promote(new_era)
        except (InjectedFault, ReproError) as error:
            # The outcome is indeterminate: the promote may have landed
            # just before the response was lost.  The era is spent
            # either way — if the winner took it and then died before
            # the next probe round, re-promoting a *different* node at
            # the same number would put two divergent timelines on one
            # era (both acking the same (era, lsn) positions, and the
            # boundary math that dooms a deposed suffix can no longer
            # tell them apart).  Burn it; era numbers are cheap.  The
            # next round re-probes: if the promote landed, _adopt sees
            # the new leader; if not, the miss count is still past the
            # threshold and we try again at era + 1.
            self.era = max(self.era, new_era)
            self.counters["failed_promotions"] += 1
            self._event(f"promotion of {winner.url} failed: {error}")
            return
        self.counters["promotions"] += 1
        self.era = max(self.era, int(body.get("era", new_era)))
        self.leader_url = winner.url
        self._misses = 0
        self._event(f"promoted {winner.url} to era {self.era}")

    def _police(self, views: dict[str, NodeView | None]) -> None:
        """Fence stale primaries, repoint stale replicas.

        Idempotent hygiene that runs every round: a deposed primary that
        came back unfenced is told the new era (it fences in place and
        starts answering ``NOT_PRIMARY``), and a replica still tailing
        the old leader — or unarmed with the current era — is repointed
        so its stale-stream rejection arms immediately.

        The primary check is ``era <= self.era``, not ``<``: two nodes
        promoted to the *same* era (a concurrent-promotion race between
        two coordinators, or an operator's ``repro promote`` racing this
        one) must converge too.  The leader rule (:func:`reigning_leader`)
        is deterministic — lowest URL among unfenced primaries at the
        newest era — so every coordinator demotes the same loser, and
        the server accepts a same-era demotion as the race's tie-break.
        """
        leader = self.leader_url
        if leader is None or self.era == 0:
            return
        injector = injector_from_env()
        for view in views.values():
            if view is None or view.url == leader:
                continue
            try:
                if view.role == "primary" and not view.fenced and view.era <= self.era:
                    if injector is not None:
                        injector.maybe_fail(SITE_FAILOVER_DEMOTE)
                    self._clients[view.url].replication_demote(self.era, leader_url=leader)
                    self.counters["demotions"] += 1
                    self._event(f"demoted stale primary {view.url} (era {view.era} <= {self.era})")
                elif view.role == "replica" and (
                    self._normalize(view.leader_url) != leader or view.era < self.era
                ):
                    if injector is not None:
                        injector.maybe_fail(SITE_FAILOVER_DEMOTE)
                    self._clients[view.url].replication_repoint(leader, self.era)
                    self.counters["repoints"] += 1
                    self._event(f"repointed {view.url} at {leader} (era {self.era})")
            except (InjectedFault, ReproError):
                # Unreachable or transiently failing: next round retries.
                self.counters["probe_failures"] += 1

    @staticmethod
    def _normalize(url: str | None) -> str | None:
        return url.rstrip("/") if isinstance(url, str) else url

    # -- lifecycle ----------------------------------------------------------

    def run(self, stop_event: threading.Event | None = None) -> None:
        """Round loop for the CLI: step, sleep, repeat until stopped."""
        stop = stop_event or threading.Event()
        while not stop.is_set():
            self.step()
            self._clock.wait(stop, self.config.health_interval)

    def info(self) -> dict:
        """Counters plus current belief, for tests and the CLI."""
        info = {
            "leader_url": self.leader_url,
            "era": self.era,
            "misses": self._misses,
            "nodes": list(self._clients),
        }
        info.update(self.counters)
        return info

    def _event(self, message: str) -> None:
        self.events.append(message)
        if len(self.events) > 100:
            del self.events[: len(self.events) - 100]
        if self.on_event is not None:
            self.on_event(message)
