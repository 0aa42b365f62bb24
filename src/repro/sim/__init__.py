"""Deterministic in-process cluster simulation.

The package has two layers:

* **Seams** — :mod:`repro.sim.clock` and :mod:`repro.sim.transport`
  define the ``Clock`` and ``Transport`` abstractions the distributed
  stack (service client, replication follower, failover coordinator,
  server session GC) is written against.  Production code uses the
  system implementations (``SYSTEM_CLOCK``, ``HttpTransport``); they are
  re-exported here and import nothing outside the standard library,
  :mod:`repro.errors` and the stdlib-only :mod:`repro.service.frame`,
  so depending on them from the service layer does not create an
  import cycle.

* **Harness** — :mod:`repro.sim.cluster`, :mod:`repro.sim.nemesis`,
  :mod:`repro.sim.history` and :mod:`repro.sim.runner` build a whole
  replica set (primary + replicas + coordinator + workload clients) in
  one process on a :class:`~repro.sim.clock.VirtualClock` and a
  :class:`~repro.sim.transport.SimTransport`, drive it through a seeded
  fault schedule, and check the client-visible history.  Import these
  as submodules (``from repro.sim.runner import run_sim``); they pull in
  the service layer and must not be imported from this ``__init__``.
"""

from repro.sim.clock import SYSTEM_CLOCK, Clock, SkewedClock, SystemClock, VirtualClock
from repro.sim.transport import HttpTransport, SimNet, SimTransport, Transport

__all__ = [
    "SYSTEM_CLOCK",
    "Clock",
    "SkewedClock",
    "SystemClock",
    "VirtualClock",
    "HttpTransport",
    "SimNet",
    "SimTransport",
    "Transport",
]
