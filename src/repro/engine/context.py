"""Execution context: options, memoisation, budget accounting.

A fresh :class:`ExecContext` accompanies every top-level plan execution.
It provides:

* **the execution's catalog** — a compiled root names its tables; each
  scan resolves them here once per execution (:meth:`ExecContext.resolved`);
* **stream memoisation** — bypass operators and shared DAG nodes are
  evaluated once per distinct correlation environment;
* **subquery memoisation** — the optional cache behind the S2 baseline
  emulation (see DESIGN.md §4): nested-loop evaluation that remembers the
  subquery result per distinct correlation-value combination;
* **budget accounting** — the paper aborts runs after six hours and
  reports ``n/a``; our harness passes a (much smaller) wall-clock budget
  and the engine raises :class:`~repro.errors.BudgetExceeded` when it is
  blown, checked every ``TICK_GRANULARITY`` processed rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

from repro.engine.governor import DEFAULT_ROW_BYTES, ResourceLimits, estimate_row_bytes
from repro.errors import BudgetExceeded, QueryCancelled, ResourceExhausted

#: How many processed rows between two wall-clock checks.
TICK_GRANULARITY = 65536

#: Tick cadence while a budget or cancellation event is armed: fine
#: enough that server timeouts fire promptly even on small inputs, still
#: cheap (one perf_counter / is_set per few thousand rows).
ARMED_TICK_GRANULARITY = 4096

#: Rows skipped via index pruning are charged against the governor's
#: row budget at 1/16th of a processed row.  Skipping is not free (the
#: query still addressed those rows), but charging full price would
#: erase the benefit of pruning; charging nothing would let an
#: index-assisted query dodge ``max_rows`` entirely.
SKIPPED_ROW_DISCOUNT = 16

#: The access-path counters one execution fills (:attr:`ExecContext.access`)
#: and ``Database.access_info()`` accumulates.
ACCESS_COUNTERS = ("index_scans", "rows_read", "rows_skipped")


@dataclass(frozen=True)
class EvalOptions:
    """Knobs controlling the runtime behaviour of a single execution.

    ``subquery_memo``
        Cache correlated-subquery results keyed on the correlation
        values (baseline S2).  Uncorrelated subqueries are always cached.
    ``budget_seconds``
        Wall-clock budget; ``None`` disables the check.
    ``collect_stats``
        Count rows produced per physical operator class and node, and
        time every invocation (EXPLAIN ANALYZE; off, no clock is read).
    ``vectorized``
        Compile to the columnar batch engine (numpy-backed selection
        vectors) with per-operator fallback to the row interpreter.  The
        default: every surface that is not told an engine defers to this
        field.  ``False`` runs the tuple-at-a-time row engine, the
        reference the batch engine is tested against; see
        ``docs/vectorized-engine.md``.
    ``params``
        Prepared-statement parameter values, keyed as the SQL front-end
        keyed the placeholders (0-based int for ``?``, lower-cased str
        for ``:name``).  Read by both engines' ``Parameter`` kernels;
        ``None`` means the plan has no placeholders.
    ``cancel_event``
        A ``threading.Event``-like object polled cooperatively on the
        same cadence as the wall-clock budget; when set, both engines
        abort with :class:`~repro.errors.QueryCancelled`.  The SQL
        server uses this to drain in-flight queries on shutdown.
    ``resources``
        Per-query row/memory/recursion budgets enforced by the resource
        governor at the same cooperative tick points (see
        :mod:`repro.engine.governor`); ``None`` disables the governor.
    ``faults``
        A :class:`~repro.faults.FaultInjector` consulted at the named
        injection points of both engines and the storage scan path;
        ``None`` (the default) makes every fault check a single
        attribute test.
    """

    subquery_memo: bool = False
    budget_seconds: float | None = None
    collect_stats: bool = False
    vectorized: bool = True
    params: Mapping | None = None
    cancel_event: object | None = None
    resources: ResourceLimits | None = None
    faults: object | None = None


@dataclass
class ExecStats:
    """Counters collected during one execution."""

    rows_produced: dict[str, int] = field(default_factory=dict)
    #: id(physical node) -> (rows produced, invocation count)
    node_rows: dict[int, tuple[int, int]] = field(default_factory=dict)
    #: id(physical node) -> (inclusive, self) seconds over its invocations
    node_seconds: dict[int, tuple[float, float]] = field(default_factory=dict)
    #: id(physical node) -> what it did beyond rows, e.g. ``build=reused``
    notes: dict[int, str] = field(default_factory=dict)
    subquery_evals: int = 0
    subquery_cache_hits: int = 0
    #: Seconds the invocation now running has spent in the ones it made.
    _inner: float = field(default=0.0, init=False, repr=False)

    def start(self) -> tuple[float, float]:
        """Open one invocation's clock: ``(caller's inner seconds, start)``."""
        outer, self._inner = self._inner, 0.0
        return outer, time.perf_counter()

    def record(self, node, count: int, clock: tuple[float, float]) -> None:
        """Close ``clock`` for ``node``, which produced ``count`` rows."""
        outer, start = clock
        inclusive = time.perf_counter() - start
        name, key = type(node).__name__, id(node)
        self.rows_produced[name] = self.rows_produced.get(name, 0) + count
        rows, calls = self.node_rows.get(key, (0, 0))
        self.node_rows[key] = (rows + count, calls + 1)
        total, own = self.node_seconds.get(key, (0.0, 0.0))
        self.node_seconds[key] = (total + inclusive, own + inclusive - self._inner)
        self._inner = outer + inclusive


class ExecContext:
    """State shared by all operators of one plan execution."""

    __slots__ = (
        "catalog",
        "options",
        "stats",
        "memo",
        "subquery_cache",
        "params",
        "faults",
        "rows_processed",
        "memory_bytes",
        "subquery_depth",
        "access",
        "root",
        "elapsed",
        "_resolved",
        "_cancel",
        "_deadline",
        "_max_rows",
        "_max_memory",
        "_max_depth",
        "_row_bytes",
        "_tick_budget",
        "_tick_granularity",
    )

    def __init__(self, catalog, options: EvalOptions | None = None):
        self.catalog = catalog
        #: id(scan operator) -> what it resolved through ``catalog``
        self._resolved: dict[int, object] = {}
        self.options = options or EvalOptions()
        self.stats = ExecStats()
        #: (node id, env signature) -> materialised rows or (pos, neg) pair
        self.memo: dict[tuple, object] = {}
        #: (plan id, correlation values) -> scalar / rows
        self.subquery_cache: dict[tuple, object] = {}
        #: Prepared-statement bindings; a fresh context per execution means
        #: memoised streams can never leak across parameter bindings.
        self.params = dict(self.options.params) if self.options.params else None
        #: Fault injector consulted at operator boundaries (chaos runs).
        self.faults = self.options.faults
        self._cancel = self.options.cancel_event
        budget = self.options.budget_seconds
        self._deadline = None if budget is None else time.perf_counter() + budget
        limits = self.options.resources
        self._max_rows = limits.max_rows if limits is not None else None
        self._max_memory = limits.max_memory_bytes if limits is not None else None
        self._max_depth = limits.max_subquery_depth if limits is not None else None
        #: Governor accounting (grows monotonically over one execution).
        self.rows_processed = 0
        self.memory_bytes = 0
        self.subquery_depth = 0
        #: Access-path counters, filled by the IndexScan operators.
        self.access = dict.fromkeys(ACCESS_COUNTERS, 0)
        #: Set by execute_plan: the compiled physical root and the seconds
        #: its run took — what EXPLAIN ANALYZE renders afterwards.
        self.root = None
        self.elapsed = 0.0
        self._row_bytes = 0  # lazily sampled from the first materialised row
        self._tick_granularity = (
            TICK_GRANULARITY
            if self._deadline is None and self._cancel is None
            else ARMED_TICK_GRANULARITY
        )
        self._tick_budget = self._tick_granularity

    def resolved(self, op):
        """``op.resolve(self.catalog)``, once per execution (not per outer row)."""
        found = self._resolved.get(id(op))
        if found is None:
            found = self._resolved[id(op)] = op.resolve(self.catalog)
        return found

    def tick(self, rows: int = 1) -> None:
        """Account for ``rows`` processed rows; enforce budgets and cancel."""
        if self._max_rows is not None:
            self.rows_processed += rows
            if self.rows_processed > self._max_rows:
                raise ResourceExhausted("rows", self._max_rows, self.rows_processed)
        if self._deadline is None and self._cancel is None:
            return
        self._tick_budget -= rows
        if self._tick_budget <= 0:
            self._tick_budget = self._tick_granularity
            if self._cancel is not None and self._cancel.is_set():
                raise QueryCancelled()
            if self._deadline is not None and time.perf_counter() > self._deadline:
                raise BudgetExceeded(self.options.budget_seconds)

    def tick_skipped(self, rows: int) -> None:
        """Account for rows an index pruned without reading.

        Charged against the row budget at ``1/SKIPPED_ROW_DISCOUNT`` (ceiling,
        so even a tiny skip is never free) — a pruned scan must not dodge
        ``max_rows`` enforcement entirely.
        """
        if rows <= 0:
            return
        self.access["rows_skipped"] += rows
        self.tick((rows + SKIPPED_ROW_DISCOUNT - 1) // SKIPPED_ROW_DISCOUNT)

    def account_memory(self, count: int, rows=None) -> None:
        """Charge ``count`` materialised rows against the memory budget.

        Called by the operator contract after every operator run, of
        both engines, with the result (``rows``).  The per-row footprint
        is sampled once from the first row of the first row list charged
        (:func:`~repro.engine.governor.estimate_row_bytes`); a batch gives
        no sample, and until one is taken the denser columnar default
        applies.  A no-op unless ``max_memory_bytes`` is armed, so the
        unarmed cost is one attribute test per operator invocation.
        """
        if self._max_memory is None or count == 0:
            return
        if self._row_bytes == 0 and type(rows) is list and rows:
            self._row_bytes = estimate_row_bytes(rows[0])
        per_row = self._row_bytes or DEFAULT_ROW_BYTES
        self.memory_bytes += count * per_row
        if self.memory_bytes > self._max_memory:
            raise ResourceExhausted("memory", self._max_memory, self.memory_bytes)

    def enter_subquery(self) -> None:
        """Track correlated-subquery nesting; enforce the depth budget."""
        self.subquery_depth += 1
        if self._max_depth is not None and self.subquery_depth > self._max_depth:
            raise ResourceExhausted("depth", self._max_depth, self.subquery_depth)

    def exit_subquery(self) -> None:
        self.subquery_depth -= 1
