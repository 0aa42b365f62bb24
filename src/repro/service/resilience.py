"""Client-side resilience: retry with backoff, and a circuit breaker.

The server already degrades gracefully — admission control rejects with
``SERVER_OVERLOADED`` (HTTP 429) instead of queueing unboundedly, and a
draining server answers ``SERVICE_UNAVAILABLE`` (503) while it finishes
in-flight work.  Those signals only help if clients *react* to them;
this module supplies the two standard reactions:

* :class:`RetryPolicy` — capped exponential backoff with jitter.  Jitter
  matters even at this scale: a server drain releases every waiting
  client at once, and synchronized retries would re-create the thundering
  herd the admission queue exists to absorb.
* :class:`CircuitBreaker` — after ``failure_threshold`` consecutive
  transport failures the circuit *opens* and calls fail fast with
  :class:`~repro.errors.CircuitOpen` (no socket attempt at all); after
  ``reset_timeout`` seconds one trial request is allowed through
  (*half-open*), and its outcome closes or re-opens the circuit.

Both are deliberately deterministic under test: the policy takes an
injectable RNG, the breaker an injectable clock, and
:class:`~repro.service.client.ServiceClient` takes an injectable sleep.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CircuitOpen
from repro.sim.clock import SYSTEM_CLOCK

#: Circuit states (exposed via :attr:`CircuitBreaker.state`).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff: ``base * multiplier^k``, jittered.

    ``jitter`` is the fraction of each delay that is randomized away
    (0.5 means a delay lands uniformly in [50%, 100%] of nominal).
    ``max_attempts`` counts the *total* number of tries, including the
    first; ``max_attempts=1`` disables retries entirely.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5

    def delay(self, attempt: int, rng=None) -> float:
        """Seconds to sleep after failed attempt number ``attempt`` (1-based)."""
        nominal = min(
            self.max_delay, self.base_delay * self.multiplier ** (attempt - 1)
        )
        if self.jitter and rng is not None:
            nominal *= 1.0 - self.jitter * rng.random()
        return nominal

    def should_retry(self, attempt: int) -> bool:
        return attempt < self.max_attempts


class CircuitBreaker:
    """Consecutive-failure circuit breaker (closed → open → half-open).

    Not thread-safe by design — a breaker belongs to one client, and the
    client is a per-thread object.  Transport failures (the server is
    unreachable) trip it; structured server errors do not, because a
    server that answers — even with an error — is a server worth talking
    to.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 5.0,
        clock=SYSTEM_CLOCK.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._failures = 0
        self._opened_at: float | None = None
        self._half_open = False

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return CLOSED
        if self._half_open or self._due_for_trial():
            return HALF_OPEN
        return OPEN

    def _due_for_trial(self) -> bool:
        return (
            self._opened_at is not None
            and self._clock() - self._opened_at >= self.reset_timeout
        )

    def allow(self) -> None:
        """Gate one call; raises :class:`CircuitOpen` while the circuit rests."""
        if self._opened_at is None:
            return
        if self._half_open:
            # A trial is already in flight on this client; fail fast.
            raise CircuitOpen(
                "circuit breaker is half-open with a trial request in flight"
            )
        if not self._due_for_trial():
            remaining = self.reset_timeout - (self._clock() - self._opened_at)
            raise CircuitOpen(
                f"circuit breaker is open; retry in {max(remaining, 0.0):.2f}s"
            )
        self._half_open = True  # admit exactly one trial request

    def record_success(self) -> None:
        self._failures = 0
        self._opened_at = None
        self._half_open = False

    def record_failure(self) -> None:
        if self._half_open:
            # The trial failed: re-open and restart the rest timer.
            self._half_open = False
            self._opened_at = self._clock()
            return
        self._failures += 1
        if self._failures >= self.failure_threshold:
            self._opened_at = self._clock()
