"""DML execution: INSERT / DELETE / UPDATE against the catalog.

The query processor proper is read-only; this module implements the
mutation statements on top of it:

* ``INSERT … VALUES`` evaluates constant expressions (via the constant
  folder, so arithmetic and CASE over literals work) and appends;
* ``INSERT … SELECT`` plans its query with ``plan_query`` and appends the
  result in value order, the same on every node whichever plan it ran;
* ``DELETE`` and ``UPDATE`` number the rows (ν) and select on the WHERE
  predicate — ``σ_p(ν(scan))``, plus one map operator per ``UPDATE``
  assignment, all evaluated against the *old* row — and hand that plan
  to ``plan_translation``, the planner after translation.  A disjunctive,
  correlated ``p`` is therefore unnested (Eqv. 1–5) as in a query; ν
  makes every scanned row distinct, so the rewrite's disjoint streams
  deliver each position exactly once.  σ keeps the rows ``p`` is TRUE
  for — under 3VL the same relation as σ±'s positive stream — so a row
  it is FALSE *or UNKNOWN* for stays as it is, which sidesteps the trap
  of deleting with ``NOT p``.  The sequence numbers, sorted, are the
  positions to drop or overwrite in a copy of the rows.

This module runs nothing: the caller's ``run`` executes the planned read
(:class:`repro.Database` passes its armed, governed, self-healing runner,
which is how strategy, engine, timeout, limits and faults reach writes).
The read finishes before the first row is touched, so a failed or
cancelled one leaves nothing to undo, and a subquery over the table
being modified sees the pre-statement state.

A statement costs what it changes, not what the table holds.  The row
list is copied and spliced (a *new* list, so MVCC versions pinned on the
old one stay readable; INSERT appends in place) and ``table.version``
moves once per statement, once per row for INSERT.  The catalog's
statistics are moved by the rows added and removed
(:meth:`Catalog.apply_delta`), a column batch cached at the pre-statement
version is carried to the new one by the same delta
(:meth:`Table.carry_batch`), and an INSERT folds its tail into the
secondary indexes that were current.  Nothing else is recomputed here:
stale indexes rebuild on their next probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from repro.algebra import expr as E
from repro.algebra import ops as L
from repro.errors import TranslationError
from repro.optimizer.planner import plan_query, plan_translation
from repro.optimizer.simplify import simplify_expr
from repro.sql import ast
from repro.sql.translate import TranslationResult, _Scope, _Translator
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.storage.wal import crash_point


@dataclass
class DmlResult:
    """Outcome of one DML statement."""

    operation: str
    table: str
    rows_affected: int

    def as_table(self) -> Table:
        from repro.storage.schema import Schema

        return Table(Schema(["rows_affected"]), [(self.rows_affected,)])


def execute_dml(stmt, catalog: Catalog, views=None, run=None) -> DmlResult:
    """Execute a parsed DML statement.

    ``run(plan_for)`` executes the statement's embedded read and returns
    its result table; ``plan_for(strategy, engine)`` plans it.  The
    default plans ``auto`` and runs bare on the row engine.
    """
    run = run or (lambda plan_for: plan_for("auto", "row").execute(catalog))
    if isinstance(stmt, ast.InsertStmt):
        result = _execute_insert(stmt, catalog, views, run)
    elif isinstance(stmt, ast.DeleteStmt):
        result = _execute_delete(stmt, catalog, views, run)
    elif isinstance(stmt, ast.UpdateStmt):
        result = _execute_update(stmt, catalog, views, run)
    else:
        raise TranslationError(f"not a DML statement: {type(stmt).__name__}")
    # Crash boundary for the recovery tests: the mutation is applied in
    # memory but its WAL record (written by the Database facade) is not,
    # so a process killed here must lose exactly this statement.
    crash_point("storage.dml.apply")
    return result


# ---------------------------------------------------------------------------
# INSERT
# ---------------------------------------------------------------------------


def _execute_insert(stmt: ast.InsertStmt, catalog: Catalog, views, run) -> DmlResult:
    table = catalog.table(stmt.table)
    positions = _column_positions(table, stmt.columns, "INSERT column list")

    if stmt.query is not None:
        result = run(
            lambda strategy, _engine: plan_query(
                "", catalog, strategy, views=views, statement=stmt.query
            )
        ).rows
        if result and len(result[0]) != len(positions):
            raise TranslationError(
                f"INSERT expects {len(positions)} columns, query returns {len(result[0])}"
            )
        # Which plan ran (the caller's strategy and engine, a heal, a replay)
        # decides the order the rows arrive in; the order they are appended
        # in must not, or primary, follower and recovered store drift apart.
        # A table is a bag, so any total order does.
        result = sorted(result, key=lambda row: [_order_key(value) for value in row])
        new_rows = [_scatter(row, positions, len(table.schema)) for row in result]
    else:
        new_rows = []
        for value_row in stmt.values:
            if len(value_row) != len(positions):
                raise TranslationError(
                    f"INSERT expects {len(positions)} values per row, got {len(value_row)}"
                )
            constants = tuple(_constant_value(expr) for expr in value_row)
            new_rows.append(_scatter(constants, positions, len(table.schema)))

    start, base_version = len(table.rows), table.version
    table.extend(new_rows)
    catalog.note_appends(stmt.table, start, base_version)
    catalog.apply_delta(stmt.table, new_rows, [])
    table.carry_batch(base_version, lambda batch: batch.appended(new_rows))
    return DmlResult("insert", stmt.table, len(new_rows))


def _column_positions(table: Table, columns, clause: str) -> list[int]:
    """Schema positions of the ``columns`` named in ``clause`` (none: all)."""
    if not columns:
        return list(range(len(table.schema)))
    positions = []
    lower_names = {name.lower(): index for index, name in enumerate(table.schema.names)}
    for column in columns:
        if column.lower() not in lower_names:
            raise TranslationError(f"table {table.name!r} has no column {column!r}")
        positions.append(lower_names[column.lower()])
    if len(set(positions)) != len(positions):
        raise TranslationError(f"duplicate column in {clause}")
    return positions


def _order_key(value) -> tuple:
    """A total order over the values of a (possibly mixed-type) column."""
    if value is None or isinstance(value, (int, float)):
        return (value is not None, "", value or 0)
    return (True, type(value).__name__, value)


def _scatter(values, positions, arity) -> tuple:
    row = [None] * arity
    for value, position in zip(values, positions):
        row[position] = value
    return tuple(row)


def _constant_value(expr_node: ast.Node):
    """Evaluate a constant AST expression (folding handles arithmetic)."""
    translator = _Translator(Catalog(), {})
    scope = _Scope(None)
    try:
        expression = translator.translate_expr(expr_node, scope)
    except Exception as error:
        raise TranslationError(f"VALUES expressions must be constant: {error}")
    folded = simplify_expr(expression)
    if not isinstance(folded, E.Literal):
        raise TranslationError(f"VALUES expression {folded.sql()} is not constant")
    return folded.value


# ---------------------------------------------------------------------------
# DELETE / UPDATE
# ---------------------------------------------------------------------------


def _positive_stream(stmt, assignments, catalog: Catalog, views, run):
    """``σ_where(ν(stmt.table))``, planned like a query and run once.

    Returns ``(positions, values)``: the positions (ascending) of the
    rows ``stmt.where`` is TRUE for and, per such row, the values of the
    ``assignments`` expressions (AST nodes) against the old row.
    """
    translator = _Translator(catalog, views)
    table = catalog.table(stmt.table)
    scope = _Scope(None)
    qualifier = translator.table_counter.next("q")
    scope.add_table(stmt.table, qualifier, table.schema.names)
    scan = L.Scan(stmt.table, table.schema.qualify(qualifier), qualifier)
    predicate = (
        translator.translate_expr(stmt.where, scope) if stmt.where is not None else E.TRUE
    )
    plan: L.Operator = L.Select(L.Numbering(scan, "dml.seq"), predicate)
    for index, value_node in enumerate(assignments):
        plan = L.Map(plan, f"dml.new{index}", translator.translate_expr(value_node, scope))
    translation = TranslationResult(plan, tuple(plan.schema.names))
    hit = run(lambda strategy, _engine: plan_translation(translation, catalog, strategy)).rows
    # ν numbers from 1, in scan order; an unnested plan returns its rows
    # stream by stream, and the splices below want ascending positions.
    arity = len(table.schema)
    hit.sort(key=itemgetter(arity))
    return [row[arity] - 1 for row in hit], [row[arity + 1 :] for row in hit]


def _swap_rows(catalog: Catalog, name: str, rows: list, added, removed, derive_batch):
    """Install ``rows`` as the table's new row list and move what hangs
    off the table by the delta."""
    table = catalog.table(name)
    base_version = table.version
    # A new list, not an in-place splice: MVCC versions pinned at older
    # LSNs keep the old list alive by reference (see repro.storage.mvcc).
    table.rows = rows
    table.invalidate()
    catalog.apply_delta(name, added, removed)
    table.carry_batch(base_version, derive_batch)


def _execute_delete(stmt: ast.DeleteStmt, catalog: Catalog, views, run) -> DmlResult:
    old = catalog.table(stmt.table).rows
    if stmt.where is None:  # nothing is read, so nothing to plan or govern
        positions = range(len(old))
    else:
        positions, _ = _positive_stream(stmt, (), catalog, views, run)
    kept: list = []
    begin = 0
    for position in positions:
        kept += old[begin:position]
        begin = position + 1
    kept += old[begin:]
    removed = [old[position] for position in positions]
    _swap_rows(catalog, stmt.table, kept, [], removed, lambda batch: batch.without(positions))
    return DmlResult("delete", stmt.table, len(removed))


def _execute_update(stmt: ast.UpdateStmt, catalog: Catalog, views, run) -> DmlResult:
    table = catalog.table(stmt.table)
    names, value_nodes = zip(*stmt.assignments)
    columns = _column_positions(table, names, "UPDATE SET list")
    # All assignment values come from the *old* row (SQL semantics:
    # SET a = b, b = a swaps).
    positions, values = _positive_stream(stmt, value_nodes, catalog, views, run)
    rows = list(table.rows)
    removed, added = [], []
    for position, new_values in zip(positions, values):
        row = list(rows[position])
        for column, value in zip(columns, new_values):
            row[column] = value
        removed.append(rows[position])
        added.append(tuple(row))
        rows[position] = added[-1]
    _swap_rows(
        catalog, stmt.table, rows, added, removed,
        lambda batch: batch.overwritten(positions, columns, added),
    )
    return DmlResult("update", stmt.table, len(added))
