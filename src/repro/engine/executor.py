"""Top-level plan execution.

``execute_plan`` compiles a logical plan against a catalog and runs it in
a fresh :class:`~repro.engine.context.ExecContext`, returning a
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
    """
    opts = options or EvalOptions()
    physical = compile_plan(plan, catalog, vectorized=opts.vectorized)
    ctx = ExecContext(opts)
    ctx.root = physical
    start = time.perf_counter()
    try:
        rows = physical.execute(ctx, {})
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
    # The engine's rows are tuples of the plan's arity already; the one
    # (shallow) copy is because a bare scan hands out the stored list.
    table = Table.adopt(plan.schema, list(rows))
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
    """Render the physical tree ``ctx`` just ran, with actual row counts.

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
    if ctx.options.vectorized:
        names = f" ({', '.join(sorted(set(on_rows)))})" if on_rows else ""
        footer += (
            f"\n-- engine: vectorized; {len(on_rows)} of {len(seen)} operators "
            f"on the row interpreter{names}"
        )
    return "\n".join(lines) + "\n" + footer + "\n"
