"""Server-side metrics: request counters and latency percentiles.

The server records one latency sample per completed query into a
bounded ring buffer (the window keeps the percentiles O(window) to
compute and naturally ages out warm-up noise).  Percentiles use the
nearest-rank method on the sorted window — exact for the window, no
interpolation surprises at the tail.

Everything is guarded by one lock; recording is a few appends and
increments, so contention is negligible next to query execution.
"""

from __future__ import annotations

import threading
import time
from collections import deque


class LatencyWindow:
    """A sliding window of the last ``size`` latency samples (seconds)."""

    def __init__(self, size: int = 1024):
        self._samples: deque[float] = deque(maxlen=size)

    def record(self, seconds: float) -> None:
        self._samples.append(seconds)

    def snapshot(self) -> dict:
        if not self._samples:
            return {"count": 0}
        ordered = sorted(self._samples)

        def at(fraction: float) -> float:
            rank = max(1, round(fraction * len(ordered)))
            return round(ordered[min(rank, len(ordered)) - 1], 6)

        return {
            "count": len(ordered),
            "min": round(ordered[0], 6),
            "p50": at(0.50),
            "p95": at(0.95),
            "p99": at(0.99),
            "max": round(ordered[-1], 6),
        }


class ServerMetrics:
    """Counters + latency window behind a single lock."""

    def __init__(self, window: int = 1024):
        self._lock = threading.Lock()
        self._latency = LatencyWindow(window)
        self._started = time.time()
        self.requests_total = 0
        self.queries_ok = 0
        self.queries_failed = 0
        self.queries_timeout = 0
        self.queries_cancelled = 0
        self.rejected_overload = 0
        self.in_flight = 0
        self.connections_accepted = 0
        self._connections: set = set()  # accepted and not yet closed

    def connection_opened(self, connection) -> None:
        with self._lock:
            self.connections_accepted += 1
            self._connections.add(connection)

    def connection_closed(self, connection) -> None:
        with self._lock:
            self._connections.discard(connection)

    def open_connections(self) -> list:
        with self._lock:
            return list(self._connections)

    def record_request(self) -> None:
        with self._lock:
            self.requests_total += 1

    def record_rejection(self) -> None:
        with self._lock:
            self.rejected_overload += 1

    def query_started(self) -> None:
        with self._lock:
            self.in_flight += 1

    def query_finished(self, seconds: float, outcome: str) -> None:
        """``outcome``: ok | error | timeout | cancelled."""
        with self._lock:
            self.in_flight -= 1
            self._latency.record(seconds)
            if outcome == "ok":
                self.queries_ok += 1
            elif outcome == "timeout":
                self.queries_timeout += 1
            elif outcome == "cancelled":
                self.queries_cancelled += 1
            else:
                self.queries_failed += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "uptime_seconds": round(time.time() - self._started, 3),
                "requests_total": self.requests_total,
                "queries_ok": self.queries_ok,
                "queries_failed": self.queries_failed,
                "queries_timeout": self.queries_timeout,
                "queries_cancelled": self.queries_cancelled,
                "rejected_overload": self.rejected_overload,
                "in_flight": self.in_flight,
                "connections_accepted": self.connections_accepted,
                "connections_open": len(self._connections),
                "latency": self._latency.snapshot(),
            }
