"""Two-stage expression compilation with SQL 3-valued logic.

``compile_expr(expr, schema, subplan_compiler)`` produces a *compiled
expression*: a function ``bind(ctx, env) -> fn(row)``.  Binding resolves
everything that is constant for one operator invocation — correlation
values from the environment, literal constants, subquery physical plans —
so the returned ``fn(row)`` is a tight closure suitable for per-row hot
loops.

Truth values are ``True`` / ``False`` / ``None`` (UNKNOWN); comparisons
and arithmetic propagate NULL, and the boolean connectives implement
Kleene logic.  A selection keeps a row iff its predicate binds to exactly
``True``, which also defines the negative stream of a bypass selection as
"FALSE or UNKNOWN".

Subquery expressions delegate plan lowering to a ``subplan_compiler``
callback (supplied by :mod:`repro.engine.compile`; a callback keeps the
module dependency acyclic).  A compiled subquery partitions its free
attributes into *row-bound* (present in the current input schema) and
*environment-bound* (owned by an enclosing block) — supporting arbitrarily
deep direct correlation.
"""

from __future__ import annotations

import re
from typing import Callable

from repro.algebra import expr as E
from repro.errors import ExecutionError
from repro.storage.schema import Schema

# A compiled expression: bind(ctx, env) -> fn(row) -> value.
Compiled = Callable


def compile_expr(expression: E.Expr, schema: Schema, subplan_compiler: Callable) -> Compiled:
    """Compile ``expression`` against ``schema``.

    ``subplan_compiler(plan)`` must return a physical operator exposing
    ``execute(ctx, env) -> list[row]`` for embedded subquery plans.
    """
    compiler = _ExprCompiler(schema, subplan_compiler)
    return compiler.compile(expression)


def scalar_of(node: E.Expr, schema) -> Callable | None:
    """``(ctx, env) -> value`` for a node that is one value per binding — a
    literal, a parameter, a correlation value (a column not in ``schema``)
    — on both engines; ``None`` for any other node."""
    if isinstance(node, E.Literal):
        return lambda ctx, env, value=node.value: value
    if isinstance(node, E.Parameter):

        def parameter(ctx, env, key=node.key):
            if ctx.params is None or key not in ctx.params:
                from repro.sql.parameters import format_key

                raise ExecutionError(
                    f"unbound parameter {format_key(key)}: execute the plan with parameter values"
                )
            return ctx.params[key]

        return parameter
    if isinstance(node, E.ColumnRef) and node.name not in schema:

        def correlated(ctx, env, name=node.name):
            if name not in env:
                raise ExecutionError(
                    f"unbound attribute {name!r}: not in schema and not in "
                    "the correlation environment"
                )
            return env[name]

        return correlated
    return None


class _ExprCompiler:
    def __init__(self, schema: Schema, subplan_compiler: Callable):
        self.schema = schema
        self.subplan_compiler = subplan_compiler

    def compile(self, node: E.Expr) -> Compiled:
        method = getattr(self, "_compile_" + type(node).__name__, None)
        if method is None:
            raise ExecutionError(f"cannot compile expression {type(node).__name__}")
        return method(node)

    # -- leaves ----------------------------------------------------------

    def _compile_scalar(self, node: E.Expr) -> Compiled:
        scalar = scalar_of(node, self.schema)

        def bind(ctx, env):
            value = scalar(ctx, env)
            return lambda row: value

        return bind

    _compile_Literal = _compile_Parameter = _compile_scalar

    def _compile_ColumnRef(self, node: E.ColumnRef) -> Compiled:
        if node.name not in self.schema:
            return self._compile_scalar(node)
        position = self.schema.position(node.name)

        def bind(ctx, env, position=position):
            return lambda row: row[position]

        return bind

    # -- comparisons and arithmetic -------------------------------------------

    _CMP_FUNCS = {
        "=": lambda a, b: a == b,
        "<>": lambda a, b: a != b,
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }

    def _compile_Comparison(self, node: E.Comparison) -> Compiled:
        left = self.compile(node.left)
        right = self.compile(node.right)
        func = self._CMP_FUNCS[node.op]

        def bind(ctx, env):
            lf = left(ctx, env)
            rf = right(ctx, env)

            def fn(row):
                lv = lf(row)
                if lv is None:
                    return None
                rv = rf(row)
                if rv is None:
                    return None
                return func(lv, rv)

            return fn

        return bind

    _ARITH_FUNCS = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a / b,
    }

    def _compile_Arithmetic(self, node: E.Arithmetic) -> Compiled:
        left = self.compile(node.left)
        right = self.compile(node.right)
        func = self._ARITH_FUNCS[node.op]

        def bind(ctx, env):
            lf = left(ctx, env)
            rf = right(ctx, env)

            def fn(row):
                lv = lf(row)
                if lv is None:
                    return None
                rv = rf(row)
                if rv is None:
                    return None
                return func(lv, rv)

            return fn

        return bind

    def _compile_Negate(self, node: E.Negate) -> Compiled:
        operand = self.compile(node.operand)

        def bind(ctx, env):
            of = operand(ctx, env)
            return lambda row: None if (v := of(row)) is None else -v

        return bind

    # -- boolean connectives (Kleene 3VL) -----------------------------------

    def _compile_And(self, node: E.And) -> Compiled:
        parts = [self.compile(item) for item in node.items]

        def bind(ctx, env):
            fns = [part(ctx, env) for part in parts]

            def fn(row):
                saw_unknown = False
                for item in fns:
                    value = item(row)
                    if value is False:
                        return False
                    if value is None:
                        saw_unknown = True
                return None if saw_unknown else True

            return fn

        return bind

    def _compile_Or(self, node: E.Or) -> Compiled:
        parts = [self.compile(item) for item in node.items]

        def bind(ctx, env):
            fns = [part(ctx, env) for part in parts]

            def fn(row):
                saw_unknown = False
                for item in fns:
                    value = item(row)
                    if value is True:
                        return True
                    if value is None:
                        saw_unknown = True
                return None if saw_unknown else False

            return fn

        return bind

    def _compile_Not(self, node: E.Not) -> Compiled:
        operand = self.compile(node.operand)

        def bind(ctx, env):
            of = operand(ctx, env)

            def fn(row):
                value = of(row)
                if value is None:
                    return None
                return not value

            return fn

        return bind

    # -- predicates ------------------------------------------------------------

    def _compile_Like(self, node: E.Like) -> Compiled:
        operand = self.compile(node.operand)
        regex = re.compile(_like_to_regex(node.pattern), re.DOTALL)
        negated = node.negated

        def bind(ctx, env):
            of = operand(ctx, env)

            def fn(row):
                value = of(row)
                if value is None:
                    return None
                matched = regex.match(value) is not None
                return (not matched) if negated else matched

            return fn

        return bind

    def _compile_IsNull(self, node: E.IsNull) -> Compiled:
        operand = self.compile(node.operand)
        negated = node.negated

        def bind(ctx, env):
            of = operand(ctx, env)
            if negated:
                return lambda row: of(row) is not None
            return lambda row: of(row) is None

        return bind

    def _compile_InList(self, node: E.InList) -> Compiled:
        operand = self.compile(node.operand)
        items = [self.compile(item) for item in node.items]
        negated = node.negated

        def bind(ctx, env):
            of = operand(ctx, env)
            values = [item(ctx, env)(None) for item in items]

            def fn(row):
                result = _in_membership(of(row), values)
                if negated and result is not None:
                    return not result
                return result

            return fn

        return bind

    def _compile_Case(self, node: E.Case) -> Compiled:
        branches = [(self.compile(c), self.compile(v)) for c, v in node.branches]
        default = self.compile(node.default)

        def bind(ctx, env):
            bound = [(c(ctx, env), v(ctx, env)) for c, v in branches]
            df = default(ctx, env)

            def fn(row):
                for cond, value in bound:
                    if cond(row) is True:
                        return value(row)
                return df(row)

            return fn

        return bind

    def _compile_FunctionCall(self, node: E.FunctionCall) -> Compiled:
        args = [self.compile(arg) for arg in node.args]
        func = E.SCALAR_FUNCTIONS[node.name]

        def bind(ctx, env):
            fns = [arg(ctx, env) for arg in args]
            return lambda row: func(*[fn(row) for fn in fns])

        return bind

    def _compile_AggCombine(self, node: E.AggCombine) -> Compiled:
        from repro.algebra.aggregates import get_aggregate

        aggregate = get_aggregate(node.agg_name)
        items = [self.compile(item) for item in node.items]

        def bind(ctx, env):
            fns = [item(ctx, env) for item in items]

            def fn(row):
                partial = aggregate.partial_empty()
                for item in fns:
                    partial = aggregate.combine(partial, item(row))
                return aggregate.finalize_partial(partial)

            return fn

        return bind

    # -- subqueries --------------------------------------------------------------

    def _subquery_binder(self, plan):
        """Common machinery: returns ``bind(ctx, env) -> fn(row) -> rows``.

        Evaluates the embedded plan per row, with free attributes bound
        from the current row where possible and from the enclosing
        environment otherwise.  Uncorrelated plans are always memoised;
        correlated plans are memoised iff ``ctx.options.subquery_memo``.
        """
        physical = self.subplan_compiler(plan)
        free = sorted(plan.free_attrs())
        row_bound = [(name, self.schema.position(name)) for name in free if name in self.schema]
        env_bound = [name for name in free if name not in self.schema]
        plan_key = id(physical)

        def bind(ctx, env):
            outer_values = {name: env[name] for name in env_bound}
            use_cache = ctx.options.subquery_memo or not free
            cache = ctx.subquery_cache

            def fn(row):
                env2 = dict(outer_values)
                for name, position in row_bound:
                    env2[name] = row[position]
                if use_cache:
                    key = (plan_key, tuple(env2[name] for name in free))
                    hit = cache.get(key, _MISSING)
                    if hit is not _MISSING:
                        ctx.stats.subquery_cache_hits += 1
                        return hit
                ctx.stats.subquery_evals += 1
                # The governor's recursion budget counts nesting depth of
                # correlated-subquery evaluation (deep linear nestings).
                ctx.enter_subquery()
                try:
                    rows = physical.execute(ctx, env2)
                finally:
                    ctx.exit_subquery()
                if use_cache:
                    cache[key] = rows
                return rows

            return fn

        return bind

    def _compile_ScalarSubquery(self, node: E.ScalarSubquery) -> Compiled:
        rows_binder = self._subquery_binder(node.plan)

        def bind(ctx, env):
            rows_fn = rows_binder(ctx, env)

            def fn(row):
                rows = rows_fn(row)
                if not rows:
                    return None
                if len(rows) > 1:
                    raise ExecutionError("scalar subquery returned more than one row")
                return rows[0][0]

            return fn

        return bind

    def _compile_Exists(self, node: E.Exists) -> Compiled:
        from repro.algebra.ops import Limit

        rows_binder = self._subquery_binder(Limit(node.plan, 1))
        negated = node.negated

        def bind(ctx, env):
            rows_fn = rows_binder(ctx, env)
            if negated:
                return lambda row: not rows_fn(row)
            return lambda row: bool(rows_fn(row))

        return bind

    def _compile_InSubquery(self, node: E.InSubquery) -> Compiled:
        operand = self.compile(node.operand)
        rows_binder = self._subquery_binder(node.plan)
        negated = node.negated

        def bind(ctx, env):
            of = operand(ctx, env)
            rows_fn = rows_binder(ctx, env)

            def fn(row):
                value = of(row)
                values = [r[0] for r in rows_fn(row)]
                result = _in_membership(value, values)
                if negated:
                    return None if result is None else not result
                return result

            return fn

        return bind

    def _compile_QuantifiedComparison(self, node: E.QuantifiedComparison) -> Compiled:
        operand = self.compile(node.operand)
        rows_binder = self._subquery_binder(node.plan)
        func = self._CMP_FUNCS[node.op]
        is_all = node.quantifier == "all"

        def bind(ctx, env):
            of = operand(ctx, env)
            rows_fn = rows_binder(ctx, env)

            def fn(row):
                value = of(row)
                saw_unknown = False
                for inner_row in rows_fn(row):
                    inner = inner_row[0]
                    if value is None or inner is None:
                        saw_unknown = True
                        continue
                    result = func(value, inner)
                    if is_all and not result:
                        return False
                    if not is_all and result:
                        return True
                if saw_unknown:
                    return None
                return is_all  # ALL over (rest) empty → TRUE; ANY → FALSE

            return fn

        return bind


_MISSING = object()


def _in_membership(value, candidates) -> bool | None:
    """SQL IN semantics: TRUE on a match, UNKNOWN if NULLs block a verdict."""
    if value is None:
        return None if candidates else False
    saw_null = False
    for candidate in candidates:
        if candidate is None:
            saw_null = True
        elif candidate == value:
            return True
    return None if saw_null else False


def _like_to_regex(pattern: str) -> str:
    """Translate a SQL LIKE pattern into an anchored regular expression."""
    out = []
    for char in pattern:
        if char == "%":
            out.append(".*")
        elif char == "_":
            out.append(".")
        else:
            out.append(re.escape(char))
    return "".join(out) + r"\Z"
