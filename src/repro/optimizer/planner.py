"""Strategy layer: canonical / unnested / cost-based / S1–S3 baselines.

A *strategy* fixes how a SQL text becomes an executable plan:

===============  ==========================================================
``canonical``    translate → join optimisation; subqueries stay nested
                 (the Natix canonical plans of §4)
``unnested``     canonical + the bypass unnesting rewriter (Eqv. 1–5)
``auto``         cost both alternatives, keep the cheaper — the paper's
                 cost-based application of the equivalences
``s1``           canonical, cold subplan per outer row (commercial S 1)
``s2``           canonical + correlation-value subquery memoisation (S 2)
``s3``           canonical + cheap-first disjunct reordering (S 3)
===============  ==========================================================

All strategies share the same front-end and the same join optimisation,
so measured differences isolate the nested-query evaluation strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace as dc_replace

from repro.algebra import ops as L
from repro.baselines import reorder_disjuncts_cheap_first
from repro.engine import EvalOptions, execute_plan
from repro.errors import NotUnnestableError, PlanningError, ReproError
from repro.optimizer.access import choose_access_paths
from repro.optimizer.cost import CostModel
from repro.optimizer.joins import optimize_joins
from repro.optimizer.rank_estimator import CatalogEstimator
from repro.optimizer.simplify import simplify_plan
from repro.rewrite import UnnestOptions, unnest
from repro.sql import classify, parse, translate
from repro.sql.classify import QueryClass
from repro.sql.parameters import ParamSpec
from repro.sql.translate import TranslationResult
from repro.storage.catalog import Catalog
from repro.storage.table import Table


@dataclass(frozen=True)
class Strategy:
    """How to turn a canonical translation into an executable plan."""

    name: str
    description: str
    apply_unnesting: bool = False
    cost_based: bool = False
    subquery_memo: bool = False
    reorder_disjuncts: bool = False


STRATEGIES: dict[str, Strategy] = {
    "canonical": Strategy(
        "canonical", "nested-loop evaluation of nested blocks"
    ),
    "unnested": Strategy(
        "unnested", "bypass unnesting (Equivalences 1-5)", apply_unnesting=True
    ),
    "auto": Strategy(
        "auto", "cost-based choice between canonical and unnested", cost_based=True
    ),
    "s1": Strategy(
        "s1", "commercial baseline S1: plain nested loops"
    ),
    "s2": Strategy(
        "s2", "commercial baseline S2: nested loops + subquery memoisation",
        subquery_memo=True,
    ),
    "s3": Strategy(
        "s3", "commercial baseline S3: nested loops + cheap-first disjuncts",
        reorder_disjuncts=True,
    ),
}


@dataclass
class PlannedQuery:
    """A fully planned query, ready for (repeated) execution.

    A plan whose SQL used ``?`` / ``:name`` placeholders is a *template*:
    :attr:`param_spec` records its parameter shape, and every
    :meth:`execute` call binds a concrete set of values — the plan itself
    is shared across bindings (and across threads; execution state lives
    in the per-call :class:`~repro.engine.context.ExecContext`).
    """

    sql: str
    strategy: Strategy
    logical: L.Operator
    output_names: tuple[str, ...]
    classification: QueryClass
    estimated_cost: float
    chosen_alternative: str  # for "auto": which side won
    param_spec: "ParamSpec" = dataclass_field(default_factory=lambda: ParamSpec())
    #: True when the unnesting rewriter failed and the planner healed
    #: itself by falling back to the canonical plan (see plan_query).
    planner_fallback: bool = False

    def execute(
        self,
        catalog: Catalog,
        options: EvalOptions | None = None,
        with_context: bool = False,
        params=None,
    ):
        """Run the plan; returns a Table with user-visible column names.

        ``params`` is a sequence (positional ``?``) or mapping (named
        ``:name``); it is validated against :attr:`param_spec` — arity
        mismatches and unknown names raise
        :class:`~repro.errors.ParameterError` before execution starts.
        """
        base = options or EvalOptions()
        bound = self.param_spec.bind(params) if (params or self.param_spec) else None
        merged = dc_replace(
            base,
            subquery_memo=base.subquery_memo or self.strategy.subquery_memo,
            params=bound if bound is not None else base.params,
        )
        result = execute_plan(self.logical, catalog, merged, with_context=with_context)
        if with_context:
            table, ctx = result
            return _present(table, self.output_names), ctx
        return _present(result, self.output_names)


def plan_query(
    sql: str,
    catalog: Catalog,
    strategy: str | Strategy = "auto",
    unnest_options: UnnestOptions | None = None,
    views: dict | None = None,
    statement=None,
) -> PlannedQuery:
    """Parse, translate, optimise and (per strategy) unnest ``sql``.

    ``statement`` may carry an already-parsed AST (the plan cache parses
    once to normalise its key and reuses the tree here).
    """
    if statement is None:
        statement = parse(sql)
    translation = translate(statement, catalog, views)
    return plan_translation(
        translation, catalog, strategy, unnest_options, sql, ParamSpec.of(statement)
    )


def plan_translation(
    translation: TranslationResult,
    catalog: Catalog,
    strategy: str | Strategy = "auto",
    unnest_options: UnnestOptions | None = None,
    sql: str = "",
    param_spec: ParamSpec = ParamSpec(),
) -> PlannedQuery:
    """What follows translation: simplify → joins → access paths → healed
    unnest → cost choice.  :mod:`repro.dml` enters here with the ν + σ plan
    of an UPDATE / DELETE, so a write's embedded read is planned as a read.
    """
    if isinstance(strategy, str):
        try:
            strategy = STRATEGIES[strategy.lower()]
        except KeyError:
            raise PlanningError(
                f"unknown strategy {strategy!r}; have {sorted(STRATEGIES)}"
            ) from None

    classification = classify(translation.plan)
    canonical = optimize_joins(simplify_plan(translation.plan), catalog)
    # Access-path selection runs on every alternative, *after* the shape
    # of the plan is settled: the unnesting rewriter always consumes the
    # plain canonical plan (it matches on Select/Scan patterns), and each
    # resulting plan independently gets indexes pushed into its scans.
    # With no indexes in the catalog this is the identity, so seed plans
    # are byte-for-byte unchanged.
    indexed_canonical = choose_access_paths(canonical, catalog)

    if unnest_options is None:
        # Ground the Eqv.-2-vs-3 rank decision in catalog statistics.
        unnest_options = UnnestOptions(estimator=CatalogEstimator(catalog))

    chosen = "canonical"
    logical = indexed_canonical
    planner_fallback = False
    cost = None
    if strategy.reorder_disjuncts:
        logical = reorder_disjuncts_cheap_first(canonical)
        logical = choose_access_paths(logical, catalog)
    elif strategy.apply_unnesting:
        rewritten = _heal_unnest(canonical, unnest_options)
        if rewritten is not None:
            logical, chosen = choose_access_paths(rewritten, catalog), "unnested"
        else:
            planner_fallback = True
    elif strategy.cost_based and classification.blocks:
        # (A statement without a nested block has nothing to unnest: one
        # alternative, the canonical plan above, costed once below.)
        rewritten = _heal_unnest(canonical, unnest_options)
        if rewritten is None:
            planner_fallback = True
        else:
            rewritten = choose_access_paths(rewritten, catalog)
            cost = CostModel(catalog).cost(indexed_canonical)
            rewritten_cost = CostModel(catalog).cost(rewritten)
            if rewritten_cost < cost:
                logical, chosen, cost = rewritten, "unnested", rewritten_cost

    if cost is None:  # only the cost-based choice has costed its plan already
        cost = CostModel(catalog).cost(logical)
    return PlannedQuery(
        sql=sql,
        strategy=strategy,
        logical=logical,
        output_names=translation.output_names,
        classification=classification,
        estimated_cost=cost,
        chosen_alternative=chosen,
        param_spec=param_spec,
        planner_fallback=planner_fallback,
    )


def _heal_unnest(canonical, unnest_options):
    """Apply the unnesting rewriter, healing unexpected rewrite failures.

    Planner-level self-healing: a bug in the Eqv. 1-5 search must degrade
    one query to its canonical plan, not fail it.  The *deliberate*
    strict-mode verdict (:class:`~repro.errors.NotUnnestableError`) still
    propagates — the caller asked to be told — while any other library
    error from the rewrite search returns ``None``, which the planner
    records as ``planner_fallback``.
    """
    try:
        return unnest(canonical, unnest_options)
    except NotUnnestableError:
        raise
    except ReproError:
        return None


def execute_sql(
    sql: str,
    catalog: Catalog,
    strategy: str | Strategy = "auto",
    options: EvalOptions | None = None,
    params=None,
):
    """One-shot convenience for tests and benchmarks: plan and execute
    on a bare catalog — no cache, snapshot, healing or counters (that
    pipeline is :meth:`repro.Database.execute`, which never calls this)."""
    return plan_query(sql, catalog, strategy).execute(catalog, options, params=params)


def _present(table: Table, output_names: tuple[str, ...]) -> Table:
    """Relabel the result columns with user-visible names."""
    from repro.storage.schema import Schema

    if len(output_names) != len(table.schema):
        return table
    return Table.adopt(Schema(output_names), table.rows)
