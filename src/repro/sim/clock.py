"""The Clock seam: virtual time for deterministic simulation.

Every component of the distributed stack that reads or spends time —
retry backoff in :mod:`repro.service.client`, the circuit breaker in
:mod:`repro.service.resilience`, follower backoff and apply stalls in
:mod:`repro.replication.replica`, the coordinator's health-check cadence
in :mod:`repro.replication.failover`, and session GC in
:mod:`repro.service.server` — takes a :class:`Clock` and defaults to
:data:`SYSTEM_CLOCK`.  Under simulation the same code runs against a
:class:`VirtualClock`: ``sleep`` advances a counter instead of blocking,
and a heap-ordered event scheduler replaces threads, so a multi-minute
fault schedule executes in milliseconds and every run with the same seed
replays the exact same interleaving.
"""

from __future__ import annotations

import heapq
import threading
import time


class Clock:
    """Time source + scheduler interface (see :class:`SystemClock`)."""

    def now(self) -> float:
        """Wall-clock seconds (``time.time`` semantics)."""
        raise NotImplementedError

    def monotonic(self) -> float:
        """Monotonic seconds (``time.monotonic`` semantics)."""
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        raise NotImplementedError

    def wait(self, event: threading.Event, timeout: float) -> bool:
        """``event.wait(timeout)`` through the clock; True if set."""
        raise NotImplementedError


class SystemClock(Clock):
    """Real time; the default everywhere outside the simulator."""

    def now(self) -> float:
        return time.time()

    def monotonic(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    def wait(self, event: threading.Event, timeout: float) -> bool:
        return event.wait(timeout)


#: Shared default instance — components do ``clock or SYSTEM_CLOCK``.
SYSTEM_CLOCK = SystemClock()


class _Scheduled:
    """Handle for a scheduled callback; ``cancel()`` is idempotent."""

    __slots__ = ("when", "seq", "callback", "label", "cancelled")

    def __init__(self, when: float, seq: int, callback, label: str):
        self.when = when
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __lt__(self, other: "_Scheduled") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)


class VirtualClock(Clock):
    """Discrete-event virtual time.

    The simulator models every actor (a client operation, one follower
    poll, one coordinator health round) as a *synchronous* callback
    scheduled at a virtual instant; there are no real threads, so the
    heap's ``(time, seq)`` order fully determines the interleaving.
    ``sleep`` inside a callback advances virtual time — it models the
    time that operation spends — and ``wait`` on an event consumes the
    timeout and returns the event's current state (with no concurrent
    threads, nothing can set it mid-wait).
    """

    def __init__(self, start: float = 0.0):
        self._now = start
        self._heap: list[_Scheduled] = []
        self._seq = 0

    # -- Clock interface ----------------------------------------------------

    def now(self) -> float:
        return self._now

    def monotonic(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            self._now += seconds

    def wait(self, event: threading.Event, timeout: float) -> bool:
        if event.is_set():
            return True
        self.sleep(timeout)
        return event.is_set()

    # -- scheduler ----------------------------------------------------------

    def call_at(self, when: float, callback, label: str = "") -> _Scheduled:
        """Schedule ``callback()`` at virtual time ``when``."""
        self._seq += 1
        handle = _Scheduled(max(when, self._now), self._seq, callback, label)
        heapq.heappush(self._heap, handle)
        return handle

    def call_later(self, delay: float, callback, label: str = "") -> _Scheduled:
        return self.call_at(self._now + max(delay, 0.0), callback, label)

    def run_until(self, deadline: float) -> None:
        """Run scheduled callbacks in ``(time, seq)`` order up to ``deadline``."""
        while self._heap and self._heap[0].when <= deadline:
            handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            # A callback may have slept past the event's nominal time;
            # never move backwards.
            self._now = max(self._now, handle.when)
            handle.callback()
        self._now = max(self._now, deadline)


class SkewedClock(Clock):
    """A per-node offset over a base clock — the clock-skew nemesis.

    Skew shifts what a node *reads* (session timestamps, breaker reset
    windows) without affecting scheduling, which stays on the base
    clock.  ``offset`` is mutable so the nemesis can introduce and heal
    skew mid-run.
    """

    def __init__(self, base: Clock, offset: float = 0.0):
        self._base = base
        self.offset = offset

    def now(self) -> float:
        return self._base.now() + self.offset

    def monotonic(self) -> float:
        return self._base.monotonic() + self.offset

    def sleep(self, seconds: float) -> None:
        self._base.sleep(seconds)

    def wait(self, event: threading.Event, timeout: float) -> bool:
        return self._base.wait(event, timeout)
