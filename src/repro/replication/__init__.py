"""repro.replication — WAL-shipping read replicas for the SQL server.

A primary server streams its write-ahead log (``POST
/replication/snapshot`` to bootstrap, ``POST /replication/wal`` to tail);
a :class:`~repro.replication.replica.ReplicaServer` replays that stream
through the same public mutation paths crash recovery uses and serves
read-only queries at its applied LSN.  Consistency is explicit: every
primary write response carries its commit LSN as a causality token, and
a replica read may demand ``min_lsn`` — wait briefly, then redirect —
so a client never reads staler than its own writes.

When the primary dies, a :class:`~repro.replication.failover.ClusterCoordinator`
detects the loss, elects the most-caught-up replica, and promotes it
under a **fencing era** (a monotonic term persisted as a WAL control
record) that fences the deposed primary out of the write path and lets
a rejoining one truncate its divergent WAL suffix.  See
``docs/replication.md`` for the design, the LSN-alignment argument, and
the failover protocol.

This package initializer stays import-light on purpose:
``repro.service.server`` imports :mod:`repro.replication.role` at
module level, while :mod:`repro.replication.replica` imports the server
back — eager re-exports here would close that cycle.
"""

from __future__ import annotations

_EXPORTS = {
    "SITE_STREAM_APPLY": "repro.replication.stream",
    "SITE_STREAM_SERVE": "repro.replication.stream",
    "SITE_STREAM_TORN": "repro.replication.stream",
    "SITE_FAILOVER_HEALTH": "repro.replication.failover",
    "SITE_FAILOVER_PROMOTE": "repro.replication.failover",
    "SITE_FAILOVER_DEMOTE": "repro.replication.failover",
    "decode_frames": "repro.replication.stream",
    "ClusterCoordinator": "repro.replication.failover",
    "CoordinatorConfig": "repro.replication.failover",
    "NodeView": "repro.replication.failover",
    "ReplicaConfig": "repro.replication.replica",
    "ReplicaServer": "repro.replication.replica",
    "ReplicationFollower": "repro.replication.replica",
    "ReplicaSetClient": "repro.replication.routing",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
