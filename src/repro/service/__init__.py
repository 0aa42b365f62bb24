"""The query service layer: prepared statements, plan cache, SQL server.

Disjunctive-unnesting plans are expensive to derive (the rewrite search
over Equivalences 1–5 plus cost-based bypass placement) and cheap to
reuse, which is exactly the trade a plan cache rewards.  This package
adds the serving machinery on top of the single-shot
:class:`repro.Database` façade:

* :mod:`repro.service.plancache` — a normalized plan cache keyed on the
  canonicalized AST, with LRU bounds and statistics-drift invalidation;
* :mod:`repro.service.prepared` — prepared statements (``?`` and
  ``:name`` placeholders) bound per execution with 3VL NULL semantics;
* :mod:`repro.service.metrics` — latency percentiles and counters for
  the ``/metrics`` endpoint;
* :mod:`repro.service.server` — a concurrent JSON-over-HTTP SQL server
  (a thread per kept connection) with sessions, per-query timeouts,
  and admission control;
* :mod:`repro.service.http1` — the HTTP/1.1 subset both ends speak;
* :mod:`repro.service.frame` — the typed binary columns a result takes
  to a client that asks for them;
* :mod:`repro.service.client` — a tiny stdlib client for that server,
  with retry/backoff and a circuit breaker;
* :mod:`repro.service.resilience` — the retry policy and circuit
  breaker primitives themselves.

See ``docs/service.md`` for the wire protocol.
"""

from repro.service.plancache import CacheInfo, PlanCache
from repro.service.prepared import PreparedStatement
from repro.service.resilience import CircuitBreaker, RetryPolicy
from repro.service.server import QueryServer, QueryService, ServerConfig

__all__ = [
    "CacheInfo",
    "CircuitBreaker",
    "PlanCache",
    "PreparedStatement",
    "QueryServer",
    "QueryService",
    "RetryPolicy",
    "ServerConfig",
]
