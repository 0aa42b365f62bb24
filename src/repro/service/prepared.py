"""Prepared statements: plan once, bind and execute many times.

A :class:`PreparedStatement` pairs a cached
:class:`~repro.optimizer.planner.PlannedQuery` template with the
database it was prepared against.  The SQL may use positional ``?`` or
named ``:name`` placeholders (one style per statement); each
:meth:`execute` call supplies concrete values, validated against the
statement's :class:`~repro.sql.parameters.ParamSpec` before anything
runs.  ``NULL`` arguments flow through the ordinary 3VL machinery — a
predicate like ``A1 = ?`` bound to ``None`` evaluates to UNKNOWN, so the
row is filtered exactly as ``A1 = NULL`` would be.

The underlying plan lives in the database's plan cache, so re-preparing
the same text is cheap, and a statement prepared before a bulk load is
transparently re-planned once statistics drift past the re-cost
threshold (the statement holds the *text*, not a pinned plan).
"""

from __future__ import annotations

from repro.engine import EvalOptions
from repro.sql.parameters import ParamSpec
from repro.storage.table import Table


class PreparedStatement:
    """A parameterized query template bound to a :class:`repro.Database`."""

    def __init__(self, database, sql: str, strategy: str = "auto"):
        from repro.sql.parser import parse

        self._db = database
        self.sql = sql
        self.strategy = strategy
        # Parse once and keep the tree: every execution passes it to the
        # plan cache, making the hot path a pure hash lookup + bind.
        # Planning eagerly also surfaces bind/planning errors at prepare
        # time and warms the cache entry every execution then hits, on
        # either engine.
        self._statement = parse(sql)
        planned = database.plan(sql, strategy, statement=self._statement)
        # A function of the parsed tree alone, so it never goes stale.
        self._spec: ParamSpec = planned.param_spec

    def describe(self) -> dict:
        """Parameter shape: ``{"positional": n, "named": [...]}``."""
        return self._spec.describe()

    def execute(
        self,
        params=None,
        options: EvalOptions | None = None,
        at_lsn: int | None = None,
    ) -> Table:
        """Bind ``params`` (sequence or mapping) and run the template.

        This is :meth:`repro.Database.execute` minus the parse: the
        statement runs through the database's one read pipeline, so the
        plan is fetched from the cache on every call (executions after
        DDL or heavy DML on a dependency see a freshly costed plan), it
        reads an MVCC snapshot (pinned for the duration, or ``at_lsn`` —
        the caller must hold that pin, e.g. a pinned server session),
        and it is governed, healed and counted like any other query.
        """
        return self._db._run_read(
            self.sql, self.strategy, options, params, at_lsn, statement=self._statement
        )[0]

    def explain(self) -> str:
        """Render the current plan for this template."""
        return self._db.explain(self.sql, strategy=self.strategy)

    def __repr__(self) -> str:
        return (
            f"PreparedStatement({self.sql!r}, strategy={self.strategy!r}, "
            f"params={self._spec.describe()})"
        )
