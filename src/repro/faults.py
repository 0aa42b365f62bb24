"""Deterministic fault injection: seeded chaos for reproducible failure tests.

The paper's bypass plans (Eqv. 1-5) are structurally deeper than their
canonical counterparts, so the runtime surface that can fail grows with
every rewrite the optimizer accepts.  This module threads named
*injection points* through both engines' operator loops, the storage
scan path, and the server request path; a seeded
:class:`FaultInjector` decides — reproducibly — which of those points
raise :class:`~repro.errors.InjectedFault`.

Sites form a dotted hierarchy and configuration matches by prefix
(:func:`site_matches`, shared with the WAL's crash points)::

    engine.row.<OperatorClass>      every row-engine operator invocation
    engine.row.PBypass              ...prefix: only bypass operators
    engine.vector.<OperatorClass>   every vectorized operator invocation
                                    (VBypassJoin / VNLJoin: Eqv. 5's ⋈± and
                                    joins without an equality key)
    engine.vector.VBypass           ...prefix: only batch bypass operators
    storage.scan                    base-table scans (both engines)
    storage.wal.append              WAL record writes (durability commit)
    storage.wal.fsync               WAL fsync before acknowledgement
    storage.checkpoint.write        checkpoint snapshot writes
    service.request                 the SQL server's per-query path
    replication.stream.serve        primary answering snapshot/tail calls
    replication.stream.torn         tail batches cut mid-frame when served
    replication.stream.apply        follower stalls before applying a record
    replication.failover.health     coordinator topology probe fails
    replication.failover.promote    coordinator promotion RPC fails
    replication.failover.demote     coordinator demote/repoint RPC fails

An operator site fires on every invocation, memo hits included, on both
engines: one method, ``PhysicalOperator.invoke``, fires it for all of
them.  The ``storage.wal.*`` / ``storage.checkpoint.*`` sites model disk
faults, not plan bugs: the self-healing layer retries them without
quarantining the plan-cache entry (see ``docs/durability.md``), and the
harder process-kill crash points live in :mod:`repro.storage.wal`
(``REPRO_CRASH_SITE`` / ``REPRO_CRASH_AFTER``).

Configuration comes from :class:`FaultConfig` (explicitly, via
``EvalOptions(faults=...)``) or the ``REPRO_FAULT_*`` environment
variables (picked up per execution by ``Database.execute`` and per
request by the server):

=====================  ====================================================
``REPRO_FAULT_SITES``  comma-separated site prefixes (required to enable)
``REPRO_FAULT_SEED``   RNG seed (default 0) — same seed, same faults
``REPRO_FAULT_PROB``   per-matching-point probability (default 1.0)
``REPRO_FAULT_COUNT``  max faults per injector (default 1; -1 = unlimited)
=====================  ====================================================

Environment-driven injectors are built fresh per top-level execution, so
every query replays the same seeded fault sequence regardless of test
order — chaos runs are deterministic, not merely repeatable in bulk.
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass

from repro.errors import InjectedFault

#: Environment variable names (also documented in docs/robustness.md).
ENV_SITES = "REPRO_FAULT_SITES"
ENV_SEED = "REPRO_FAULT_SEED"
ENV_PROB = "REPRO_FAULT_PROB"
ENV_COUNT = "REPRO_FAULT_COUNT"


def site_matches(site: str, prefix: str) -> bool:
    """The one site rule, for fault sites and crash points alike: ``*``
    names every site, any other prefix the site it spells and every site
    below it."""
    return prefix == "*" or site.startswith(prefix)


@dataclass(frozen=True)
class FaultConfig:
    """Which sites fail, how often, and under which seed."""

    sites: tuple[str, ...] = ()
    seed: int = 0
    probability: float = 1.0
    max_faults: int | None = 1

    @classmethod
    def from_env(cls, environ=None) -> "FaultConfig | None":
        """Build a config from ``REPRO_FAULT_*``; None when disabled."""
        env = os.environ if environ is None else environ
        raw_sites = env.get(ENV_SITES, "")
        sites = tuple(s.strip() for s in raw_sites.split(",") if s.strip())
        if not sites:
            return None
        count = int(env.get(ENV_COUNT, "1"))
        return cls(
            sites=sites,
            seed=int(env.get(ENV_SEED, "0")),
            probability=float(env.get(ENV_PROB, "1.0")),
            max_faults=None if count < 0 else count,
        )


class FaultInjector:
    """A seeded source of :class:`~repro.errors.InjectedFault`.

    One injector accompanies one scope (an execution, a server request);
    its RNG and fault counter are private to that scope, which is what
    makes a chaos run deterministic.  The injector is thread-safe so the
    server can share one across the request path and the engine ticks of
    a single query.
    """

    def __init__(self, config: FaultConfig):
        self.config = config
        self._rng = random.Random(config.seed)
        self._lock = threading.Lock()
        self._fired: list[str] = []

    def matches(self, site: str) -> bool:
        """True when ``site`` falls under any configured prefix."""
        return any(site_matches(site, prefix) for prefix in self.config.sites)

    def maybe_fail(self, site: str) -> None:
        """Raise :class:`~repro.errors.InjectedFault` if ``site`` fires."""
        if not self.matches(site):
            return
        config = self.config
        with self._lock:
            if config.max_faults is not None and len(self._fired) >= config.max_faults:
                return
            if config.probability < 1.0 and self._rng.random() >= config.probability:
                return
            self._fired.append(site)
        raise InjectedFault(site)

    @property
    def fired(self) -> int:
        """How many faults this injector has raised."""
        with self._lock:
            return len(self._fired)

    def fired_sites(self) -> tuple[str, ...]:
        """The exact sites that raised, in order (chaos-test assertions)."""
        with self._lock:
            return tuple(self._fired)


def injector_from_env(environ=None) -> FaultInjector | None:
    """A fresh env-configured injector, or None when chaos is off."""
    config = FaultConfig.from_env(environ)
    return FaultInjector(config) if config is not None else None
