"""Top-level plan execution.

``execute_plan`` compiles a logical plan (or takes its kept root) and runs
it over a catalog in a fresh :class:`~repro.engine.context.ExecContext`, returning a
:class:`~repro.storage.table.Table` whose schema is the plan's output
schema.  The context (with its statistics) can be returned as well for
tests and benchmarks that inspect evaluation behaviour.
"""

from __future__ import annotations

import time
from dataclasses import replace as dc_replace

from repro.algebra.ops import Operator
from repro.engine.compile import compile_plan
from repro.engine.context import EvalOptions, ExecContext
from repro.engine.operators import PhysicalOperator
from repro.errors import ExecutionError, ReproError
from repro.storage.catalog import Catalog
from repro.storage.table import Table


def execute_plan(
    plan: Operator,
    catalog: Catalog,
    options: EvalOptions | None = None,
    with_context: bool = False,
    physical: PhysicalOperator | None = None,
):
    """Execute a logical plan and materialise the result.

    Parameters
    ----------
    plan:
        The logical plan DAG (bypass streams allowed anywhere).
    catalog:
        Supplies base-table contents for :class:`~repro.algebra.ops.Scan`.
    options:
        Runtime knobs (subquery memoisation, wall-clock budget, stats).
    with_context:
        When true, return ``(table, context)`` so callers can inspect
        :class:`~repro.engine.context.ExecStats`.
    physical:
        ``plan`` compiled for the engine ``options`` names (a kept root).
    """
    opts = options or EvalOptions()
    if physical is None:
        physical = compile_plan(plan, vectorized=opts.vectorized)
    ctx = ExecContext(catalog, opts)
    ctx.root = physical
    start = time.perf_counter()
    try:
        result = physical.invoke(ctx, {})
    except ReproError:
        raise
    except Exception as error:
        # Unexpected runtime failures (a numpy dtype surprise in the
        # vectorized engine, a comparison between incompatible Python
        # values) become structured, *retryable* execution errors so the
        # self-healing layer can fall back to the canonical row plan.
        raise ExecutionError(
            f"plan execution failed: {type(error).__name__}: {error}"
        ) from error
    ctx.elapsed = time.perf_counter() - start
    # A row root's tuples are copied once (a bare scan hands out the
    # stored list); a batch root is kept, its rows built if someone reads them.
    if physical.FAULT_DOMAIN == PhysicalOperator.FAULT_DOMAIN:
        result = list(result)
    table = Table.adopt(plan.schema, result)
    if with_context:
        return table, ctx
    return table


def explain_analyze(
    plan: Operator,
    catalog: Catalog,
    options: EvalOptions | None = None,
) -> tuple[str, Table]:
    """Execute ``plan`` and render the physical tree with actual rows.

    Returns ``(report, result_table)`` — :func:`execute_plan` with
    per-node statistics on, then :func:`render_analyze`.
    """
    run_options = dc_replace(options or EvalOptions(), collect_stats=True)
    table, ctx = execute_plan(plan, catalog, run_options, with_context=True)
    return render_analyze(ctx, len(table)), table


def render_analyze(ctx: ExecContext, result_rows: int) -> str:
    """Render the physical tree ``ctx`` just ran, with actual row counts
    and each node's self time: its invocations' time less that of the
    operators they invoked (a nested-subquery plan's too, which the
    footer sums).

    ``ctx`` must come from an execution with ``collect_stats`` on.
    Shared (memoised) nodes appear once with a ``[shared]`` marker;
    correlated-subquery plans (compiled into expression closures) are
    summarised by the eval/cache counters in the footer rather than
    inlined.  A vectorized run ends with how many of the tree's operators
    stayed on the row interpreter, and which.
    """
    lines: list[str] = []
    seen: set[int] = set()
    on_rows: list[str] = []

    def visit(node, prefix: str, connector: str, is_last: bool) -> None:
        stats = ctx.stats.node_rows.get(id(node))
        if stats is None:
            detail = "(not executed)"
        else:
            produced, calls = stats
            detail = f"rows={produced}"
            if calls > 1:
                detail += f" calls={calls}"
            detail += f" self={ctx.stats.node_seconds[id(node)][1] * 1e3:.3f}ms"
            if id(node) in ctx.stats.notes:
                detail += " " + ctx.stats.notes[id(node)]
        marker = " [shared]" if id(node) in seen else ""
        lines.append(f"{prefix}{connector}{node.describe()}  {detail}{marker}")
        if id(node) in seen:
            return
        seen.add(id(node))
        if node.FAULT_DOMAIN == PhysicalOperator.FAULT_DOMAIN:
            on_rows.append(type(node).__name__)
        children = node.children()
        child_prefix = prefix + ("" if connector == "" else ("   " if is_last else "|  "))
        for index, child in enumerate(children):
            last = index == len(children) - 1
            visit(child, child_prefix, "`- " if last else "|- ", last)

    visit(ctx.root, "", "", True)
    footer = (
        f"-- {result_rows} result rows in {ctx.elapsed:.4f}s; "
        f"{ctx.stats.subquery_evals} nested-subquery evaluations, "
        f"{ctx.stats.subquery_cache_hits} cache hits"
    )
    if ctx.stats.subquery_evals:
        nested = sum(
            own for key, (_, own) in ctx.stats.node_seconds.items() if key not in seen
        )
        footer += f"; {nested * 1e3:.3f}ms in nested-subquery plans"
    if ctx.options.vectorized:
        names = f" ({', '.join(sorted(set(on_rows)))})" if on_rows else ""
        footer += (
            f"\n-- engine: vectorized; {len(on_rows)} of {len(seen)} operators "
            f"on the row interpreter{names}"
        )
    return "\n".join(lines) + "\n" + footer + "\n"
