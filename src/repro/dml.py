"""DML execution: INSERT / DELETE / UPDATE against the catalog.

The query processor proper is read-only; this module implements the
mutation statements on top of it:

* ``INSERT … VALUES`` evaluates constant expressions (via the constant
  folder, so arithmetic and CASE over literals work) and appends;
* ``INSERT … SELECT`` runs the query through the normal planner;
* ``DELETE`` and ``UPDATE`` number the rows (ν) and take the positive
  stream of a **bypass selection** σ± on the WHERE predicate: exactly the
  rows the predicate is TRUE for, so a row it is FALSE *or UNKNOWN* for
  stays as it is — which sidesteps the classic trap of deleting with
  ``NOT p`` under three-valued logic.  ``UPDATE`` extends that stream
  with one map operator per assignment, all evaluated against the *old*
  row.  The plan runs once; the sequence numbers are the positions to
  drop or overwrite in a copy of the row list.

Subqueries are allowed anywhere a predicate or value expression is —
name resolution and evaluation reuse the ordinary translator and engine.

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

from repro.algebra import expr as E
from repro.algebra import ops as L
from repro.engine import execute_plan
from repro.errors import TranslationError
from repro.optimizer.simplify import simplify_expr
from repro.sql import ast
from repro.sql.translate import _Scope, _Translator
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


def execute_dml(stmt, catalog: Catalog, views=None) -> DmlResult:
    """Execute a parsed DML statement."""
    if isinstance(stmt, ast.InsertStmt):
        result = _execute_insert(stmt, catalog, views)
    elif isinstance(stmt, ast.DeleteStmt):
        result = _execute_delete(stmt, catalog, views)
    elif isinstance(stmt, ast.UpdateStmt):
        result = _execute_update(stmt, catalog, views)
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


def _execute_insert(stmt: ast.InsertStmt, catalog: Catalog, views) -> DmlResult:
    table = catalog.table(stmt.table)
    positions = _column_positions(table, stmt.columns)

    if stmt.query is not None:
        result = execute_sql_rows(stmt.query, catalog, views)
        if result and len(result[0]) != len(positions):
            raise TranslationError(
                f"INSERT expects {len(positions)} columns, query returns "
                f"{len(result[0])}"
            )
        new_rows = [_scatter(row, positions, len(table.schema)) for row in result]
    else:
        new_rows = []
        for value_row in stmt.values:
            if len(value_row) != len(positions):
                raise TranslationError(
                    f"INSERT expects {len(positions)} values per row, got "
                    f"{len(value_row)}"
                )
            constants = tuple(_constant_value(expr) for expr in value_row)
            new_rows.append(_scatter(constants, positions, len(table.schema)))

    start, base_version = len(table.rows), table.version
    table.extend(new_rows)
    catalog.note_appends(stmt.table, start, base_version)
    catalog.apply_delta(stmt.table, new_rows, [])
    table.carry_batch(base_version, lambda batch: batch.appended(new_rows))
    return DmlResult("insert", stmt.table, len(new_rows))


def execute_sql_rows(query, catalog: Catalog, views) -> list:
    """Run a parsed query statement and return its raw rows."""
    from repro.optimizer.joins import optimize_joins
    from repro.sql.translate import translate

    translation = translate(query, catalog, views)
    plan = optimize_joins(translation.plan, catalog)
    return execute_plan(plan, catalog).rows


def _column_positions(table: Table, columns) -> list[int]:
    if not columns:
        return list(range(len(table.schema)))
    positions = []
    lower_names = {name.lower(): index for index, name in enumerate(table.schema.names)}
    for column in columns:
        if column.lower() not in lower_names:
            raise TranslationError(
                f"table {table.name!r} has no column {column!r}"
            )
        positions.append(lower_names[column.lower()])
    if len(set(positions)) != len(positions):
        raise TranslationError("duplicate column in INSERT column list")
    return positions


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
        raise TranslationError(
            f"VALUES expression {folded.sql()} is not constant"
        )
    return folded.value


# ---------------------------------------------------------------------------
# DELETE / UPDATE
# ---------------------------------------------------------------------------


def _positive_stream(stmt, assignments, catalog: Catalog, views):
    """ν + σ± over ``stmt.table``, evaluated once.

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
    plan: L.Operator = L.BypassSelect(L.Numbering(scan, "dml.seq"), predicate).positive
    for index, value_node in enumerate(assignments):
        plan = L.Map(plan, f"dml.new{index}", translator.translate_expr(value_node, scope))
    arity = len(table.schema)
    hit = execute_plan(plan, catalog).rows
    # ν numbers from 1, in scan order.
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


def _execute_delete(stmt: ast.DeleteStmt, catalog: Catalog, views) -> DmlResult:
    old = catalog.table(stmt.table).rows
    if stmt.where is None:
        positions = range(len(old))
    else:
        positions, _ = _positive_stream(stmt, (), catalog, views)
    kept: list = []
    begin = 0
    for position in positions:
        kept += old[begin:position]
        begin = position + 1
    kept += old[begin:]
    removed = [old[position] for position in positions]
    _swap_rows(
        catalog, stmt.table, kept, [], removed, lambda batch: batch.without(positions)
    )
    return DmlResult("delete", stmt.table, len(removed))


def _execute_update(stmt: ast.UpdateStmt, catalog: Catalog, views) -> DmlResult:
    table = catalog.table(stmt.table)
    lower_names = {name.lower(): index for index, name in enumerate(table.schema.names)}
    columns = []
    for column, _ in stmt.assignments:
        if column.lower() not in lower_names:
            raise TranslationError(f"table {stmt.table!r} has no column {column!r}")
        columns.append(lower_names[column.lower()])
    if len(set(columns)) != len(columns):
        raise TranslationError("duplicate column in UPDATE SET list")

    # All assignment values come from the *old* row (SQL semantics:
    # SET a = b, b = a swaps).
    positions, values = _positive_stream(
        stmt, [value_node for _, value_node in stmt.assignments], catalog, views
    )
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
        catalog,
        stmt.table,
        rows,
        added,
        removed,
        lambda batch: batch.overwritten(positions, columns, added),
    )
    return DmlResult("update", stmt.table, len(added))
