"""Batched 3VL expression kernels for the vectorized engine.

Mirrors :mod:`repro.engine.evaluate`'s two-stage design at batch
granularity: ``compile_value(expr, schema)`` / ``compile_predicate(expr,
schema)`` produce ``bind(ctx, env) -> fn(batch)``.  Binding resolves
correlation values and constants once per operator invocation; the bound
``fn`` evaluates the whole batch with numpy primitives.

Value kernels return ``(data, valid)`` — a data array plus a validity
mask (``None`` = no NULLs) aligned with the batch's current selection.
Predicate kernels return a *truth pair* ``(is_true, is_false)`` of
boolean arrays; UNKNOWN is "neither", so the Kleene connectives and the
bypass split come out as plain mask algebra (following the tagged /
selection-vector execution model of Kim & Madden, arXiv:2404.09109).
NULL masks propagate through comparisons and arithmetic exactly as the
row engine's 3VL does.

Kernels exist only for the expression forms that vectorise profitably;
:class:`VectorizeError` signals "compile this operator with the row
interpreter instead" and is raised at *compile* time, so runtime batches
never hit an unsupported expression.  A scalar subquery has a kernel
when no free attribute of its plan is a column of the operator's input
(Eqv. 4's ``g2``): it is one value per operator invocation, evaluated by
the row expression compiler's subquery machinery and broadcast.
Subqueries correlated with the input rows and EXISTS/IN/quantified
subqueries have none — the operator holding them falls back.  ``avgO``
combines its (sum, count) pair partials with the row engine's fold.
"""

from __future__ import annotations

import re
from functools import reduce
from typing import Callable

import numpy as np

from repro.algebra import expr as E
from repro.algebra.aggregates import get_aggregate
from repro.engine.evaluate import _like_to_regex, compile_expr, scalar_of
from repro.storage.batch import build_column, column_to_pylist

#: bind(ctx, env) -> fn(batch) -> (data, valid) or (is_true, is_false).
Compiled = Callable


class VectorizeError(Exception):
    """Internal signal: expression/operator has no vectorized form.

    Deliberately *not* a :class:`~repro.errors.ReproError`: it never
    escapes the compiler — it only routes compilation to the row engine.
    """


def compile_value(expression: E.Expr, schema, subplan_compiler: Callable | None = None) -> Compiled:
    """Value kernel for ``expression``; with a ``subplan_compiler`` (see
    :func:`repro.engine.evaluate.compile_expr`) scalar subqueries that do
    not depend on the input rows compile too."""
    return _KernelCompiler(schema, subplan_compiler).value(expression)


def compile_predicate(expression: E.Expr, schema) -> Compiled:
    return _KernelCompiler(schema).predicate(expression)


# ---------------------------------------------------------------------------
# mask helpers
# ---------------------------------------------------------------------------


def _valid_and(left: np.ndarray | None, right: np.ndarray | None) -> np.ndarray | None:
    if left is None:
        return right
    if right is None:
        return left
    return left & right


def _valid_array(valid: np.ndarray | None, n: int) -> np.ndarray:
    return np.ones(n, dtype=bool) if valid is None else valid


def _const_column(value, n: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Broadcast one Python constant to a column of length ``n``."""
    if value is None:
        return np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        data = np.empty(n, dtype=object)
        data.fill(value)  # not ``data[:] = value``: a tuple would be spread
        return data, None
    dtype = np.int64 if isinstance(value, int) else np.float64
    return np.full(n, value, dtype=dtype), None


_INT64_MAX = (1 << 63) - 1


def _int_magnitude(data: np.ndarray) -> int:
    """Largest ``|value|`` of an int64 array as a Python int (``abs`` of
    the array would wrap at the minimum)."""
    return max(-int(data.min(initial=0)), int(data.max(initial=0)))


def _may_wrap(op: str, ld: np.ndarray, rd: np.ndarray) -> bool:
    """Whether ``ld op rd`` can leave int64, where numpy wraps silently
    and the row engine's ints do not: judged by the operands' magnitudes,
    so the object layout is taken for the whole column or not at all."""
    if op == "/" or ld.dtype != np.int64 or rd.dtype != np.int64:
        return False
    lm, rm = _int_magnitude(ld), _int_magnitude(rd)
    return (lm * rm if op == "*" else lm + rm) > _INT64_MAX


_NUMPY_CMP = {
    "=": np.equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}

_PY_CMP = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_PY_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


def _elementwise_compare(op: str, ld, rd, valid: np.ndarray | None, n: int) -> np.ndarray:
    """Comparison result over the valid positions (False elsewhere)."""
    if ld.dtype != object and rd.dtype != object:
        result = _NUMPY_CMP[op](ld, rd)
        return result if valid is None else result & valid
    if op in ("=", "<>"):
        # Object __eq__ is total (no TypeError on mixed types), so the
        # elementwise form is safe even at masked positions.
        result = np.asarray(ld == rd, dtype=bool)
        if op == "<>":
            result = ~result
        return result if valid is None else result & valid
    # Ordering on the object layout: compare only the valid pairs.
    func = _PY_CMP[op]
    result = np.zeros(n, dtype=bool)
    indices = np.arange(n) if valid is None else np.nonzero(valid)[0]
    lv = ld[indices].tolist()
    rv = rd[indices].tolist()
    result[indices] = [func(a, b) for a, b in zip(lv, rv)]
    return result


# ---------------------------------------------------------------------------
# the compiler
# ---------------------------------------------------------------------------


class _KernelCompiler:
    def __init__(self, schema, subplan_compiler: Callable | None = None):
        self.schema = schema
        self.subplan_compiler = subplan_compiler

    # -- dispatch ---------------------------------------------------------

    def value(self, node: E.Expr) -> Compiled:
        method = getattr(self, "_value_" + type(node).__name__, None)
        if method is None:
            raise VectorizeError(f"no value kernel for {type(node).__name__}")
        return method(node)

    def predicate(self, node: E.Expr) -> Compiled:
        method = getattr(self, "_pred_" + type(node).__name__, None)
        if method is None:
            raise VectorizeError(f"no predicate kernel for {type(node).__name__}")
        return method(node)

    # -- value kernels ----------------------------------------------------

    def _value_scalar(self, node: E.Expr) -> Compiled:
        scalar = scalar_of(node, self.schema)

        def bind(ctx, env):
            value = scalar(ctx, env)
            return lambda batch: _const_column(value, len(batch))

        return bind

    _value_Literal = _value_Parameter = _value_scalar

    def _value_ColumnRef(self, node: E.ColumnRef) -> Compiled:
        if node.name not in self.schema:
            return self._value_scalar(node)
        position = self.schema.position(node.name)

        def bind(ctx, env, position=position):
            return lambda batch: batch.column(position)

        return bind

    def _value_Arithmetic(self, node: E.Arithmetic) -> Compiled:
        left = self.value(node.left)
        right = self.value(node.right)
        op = node.op

        def bind(ctx, env):
            lf = left(ctx, env)
            rf = right(ctx, env)

            def fn(batch):
                ld, lv = lf(batch)
                rd, rv = rf(batch)
                valid = _valid_and(lv, rv)
                n = len(batch)
                if ld.dtype == object or rd.dtype == object or _may_wrap(op, ld, rd):
                    func = _PY_ARITH[op]
                    out = np.empty(n, dtype=object)
                    indices = np.arange(n) if valid is None else np.nonzero(valid)[0]
                    la = ld[indices].tolist()
                    ra = rd[indices].tolist()
                    out[indices] = [func(a, b) for a, b in zip(la, ra)]
                    return out, valid
                if op == "/":
                    zero = rd == 0
                    if valid is not None:
                        zero = zero & valid
                    if zero.any():
                        raise ZeroDivisionError("division by zero")
                    # Avoid 0/0 noise at masked positions.
                    divisor = np.where(rd == 0, 1, rd)
                    return np.true_divide(ld, divisor), valid
                if op == "+":
                    return ld + rd, valid
                if op == "-":
                    return ld - rd, valid
                return ld * rd, valid

            return fn

        return bind

    def _value_Negate(self, node: E.Negate) -> Compiled:
        operand = self.value(node.operand)

        def bind(ctx, env):
            of = operand(ctx, env)

            def fn(batch):
                data, valid = of(batch)
                # -(-2**63) leaves int64, where numpy wraps it back.
                if data.dtype == object or (
                    data.dtype == np.int64 and _int_magnitude(data) > _INT64_MAX
                ):
                    n = len(batch)
                    out = np.empty(n, dtype=object)
                    indices = np.arange(n) if valid is None else np.nonzero(valid)[0]
                    out[indices] = [-v for v in data[indices].tolist()]
                    return out, valid
                return -data, valid

            return fn

        return bind

    def _value_Case(self, node: E.Case) -> Compiled:
        branches = [(self.predicate(c), self.value(v)) for c, v in node.branches]
        default = self.value(node.default)

        def bind(ctx, env):
            bound = [(c(ctx, env), v(ctx, env)) for c, v in branches]
            df = default(ctx, env)

            def fn(batch):
                n = len(batch)
                unset = np.ones(n, dtype=bool)
                pieces = []
                for cond, value in bound:
                    is_true, _ = cond(batch)
                    mask = unset & is_true
                    unset = unset & ~mask
                    if mask.any():
                        pieces.append((mask, value(batch)))
                if unset.any():
                    pieces.append((unset, df(batch)))
                if not pieces:
                    return np.empty(n, dtype=object), np.zeros(n, dtype=bool)
                dtypes = {data.dtype for _, (data, _) in pieces}
                dtype = dtypes.pop() if len(dtypes) == 1 else np.dtype(object)
                out = np.zeros(n, dtype=dtype)
                out_valid = np.zeros(n, dtype=bool)
                for mask, (data, valid) in pieces:
                    out[mask] = data[mask]
                    out_valid[mask] = True if valid is None else valid[mask]
                return out, out_valid

            return fn

        return bind

    def _value_ScalarSubquery(self, node: E.ScalarSubquery) -> Compiled:
        if self.subplan_compiler is None or any(
            name in self.schema for name in node.plan.free_attrs()
        ):
            raise VectorizeError("scalar subquery correlated with the input rows")
        # The row compiler's closure *is* the implementation (subquery
        # cache, depth budget, eval counter, the one-row check); with no
        # row-bound attribute it ignores the row it is handed.
        scalar = compile_expr(node, self.schema, self.subplan_compiler)

        def bind(ctx, env):
            of = scalar(ctx, env)

            def fn(batch):
                n = len(batch)
                # As in the row engine, no input row means no evaluation.
                return _const_column(of(()) if n else None, n)

            return fn

        return bind

    def _value_AggCombine(self, node: E.AggCombine) -> Compiled:
        name = node.agg_name.lower()
        pair_partials = name == "avg"  # (sum, count): only the fold combines them
        aggregate = get_aggregate(name)
        items = [self.value(item) for item in node.items]
        merge = {"min": np.minimum, "max": np.maximum}.get(name, np.add)
        is_count = name in ("count", "count_star")

        def bind(ctx, env):
            fns = [item(ctx, env) for item in items]

            def fn(batch):
                n = len(batch)
                columns = [item(batch) for item in fns]
                wraps = merge is np.add and (
                    sum(_int_magnitude(d) for d, _ in columns if d.dtype == np.int64) > _INT64_MAX
                )
                if pair_partials or wraps or any(data.dtype == object for data, _ in columns):
                    # AVG's pairs, strings, mixed types, an empty upstream
                    # batch (zero-length object columns) or int64 partials
                    # whose sum may leave int64: the row engine's fold.
                    empty = aggregate.partial_empty()
                    return build_column(
                        [
                            aggregate.finalize_partial(reduce(aggregate.combine, partials, empty))
                            for partials in zip(*(column_to_pylist(*c) for c in columns))
                        ]
                    )
                # Aggregate.combine's NULL rule: a NULL partial is the
                # identity, the result is NULL only when every partial is.
                data, valid = columns[0]
                valid = _valid_array(valid, n)
                for other, other_valid in columns[1:]:
                    other_valid = _valid_array(other_valid, n)
                    data = np.where(
                        valid & other_valid, merge(data, other), np.where(valid, data, other)
                    )
                    valid = valid | other_valid
                if is_count:
                    return np.where(valid, data, 0), None
                return data, None if valid.all() else valid

            return fn

        return bind

    # -- predicate kernels -------------------------------------------------

    def _pred_Literal(self, node: E.Literal) -> Compiled:
        value = node.value

        def bind(ctx, env):
            def fn(batch):
                n = len(batch)
                is_true = np.full(n, value is True, dtype=bool)
                is_false = np.full(n, value is False, dtype=bool)
                return is_true, is_false

            return fn

        return bind

    def _pred_Comparison(self, node: E.Comparison) -> Compiled:
        left = self.value(node.left)
        right = self.value(node.right)
        op = node.op

        def bind(ctx, env):
            lf = left(ctx, env)
            rf = right(ctx, env)

            def fn(batch):
                ld, lv = lf(batch)
                rd, rv = rf(batch)
                n = len(batch)
                valid = _valid_and(lv, rv)
                result = _elementwise_compare(op, ld, rd, valid, n)
                valid_arr = _valid_array(valid, n)
                return result & valid_arr, ~result & valid_arr

            return fn

        return bind

    def _pred_IsNull(self, node: E.IsNull) -> Compiled:
        operand = self.value(node.operand)
        negated = node.negated

        def bind(ctx, env):
            of = operand(ctx, env)

            def fn(batch):
                _, valid = of(batch)
                valid_arr = _valid_array(valid, len(batch))
                if negated:  # IS NOT NULL
                    return valid_arr, ~valid_arr
                return ~valid_arr, valid_arr

            return fn

        return bind

    def _pred_Like(self, node: E.Like) -> Compiled:
        operand = self.value(node.operand)
        regex = re.compile(_like_to_regex(node.pattern), re.DOTALL)
        negated = node.negated

        def bind(ctx, env):
            of = operand(ctx, env)

            def fn(batch):
                data, valid = of(batch)
                n = len(batch)
                valid_arr = _valid_array(valid, n)
                matched = np.zeros(n, dtype=bool)
                indices = np.nonzero(valid_arr)[0]
                matched[indices] = [
                    regex.match(value) is not None for value in data[indices].tolist()
                ]
                if negated:
                    matched = ~matched & valid_arr
                    return matched, valid_arr & ~matched
                return matched & valid_arr, valid_arr & ~matched

            return fn

        return bind

    def _pred_InList(self, node: E.InList) -> Compiled:
        operand = self.value(node.operand)
        items = [scalar_of(item, self.schema) for item in node.items]
        if None in items:
            raise VectorizeError("IN list item is not a bindable constant")
        negated = node.negated

        def bind(ctx, env):
            of = operand(ctx, env)
            candidates = [item(ctx, env) for item in items]
            saw_null = any(candidate is None for candidate in candidates)
            concrete = [candidate for candidate in candidates if candidate is not None]

            def fn(batch):
                data, valid = of(batch)
                n = len(batch)
                valid_arr = _valid_array(valid, n)
                matched = np.zeros(n, dtype=bool)
                numeric = data.dtype != object
                for candidate in concrete:
                    if numeric and not (
                        isinstance(candidate, (int, float))
                        and not isinstance(candidate, bool)
                    ):
                        continue  # incomparable with a numeric layout: no match
                    matched |= np.asarray(data == candidate, dtype=bool)
                matched &= valid_arr
                if not candidates:
                    # IN () — FALSE even for NULL operands (row-engine parity).
                    is_true = np.zeros(n, dtype=bool)
                    is_false = np.ones(n, dtype=bool)
                elif saw_null:
                    is_true, is_false = matched, np.zeros(n, dtype=bool)
                else:
                    is_true, is_false = matched, valid_arr & ~matched
                if negated:
                    return is_false, is_true
                return is_true, is_false

            return fn

        return bind

    def _pred_And(self, node: E.And) -> Compiled:
        parts = [self.predicate(item) for item in node.items]

        def bind(ctx, env):
            fns = [part(ctx, env) for part in parts]

            def fn(batch):
                n = len(batch)
                all_true = np.ones(n, dtype=bool)
                any_false = np.zeros(n, dtype=bool)
                for item in fns:
                    is_true, is_false = item(batch)
                    all_true &= is_true
                    any_false |= is_false
                return all_true & ~any_false, any_false

            return fn

        return bind

    def _pred_Or(self, node: E.Or) -> Compiled:
        parts = [self.predicate(item) for item in node.items]

        def bind(ctx, env):
            fns = [part(ctx, env) for part in parts]

            def fn(batch):
                n = len(batch)
                any_true = np.zeros(n, dtype=bool)
                all_false = np.ones(n, dtype=bool)
                for item in fns:
                    is_true, is_false = item(batch)
                    any_true |= is_true
                    all_false &= is_false
                return any_true, all_false & ~any_true

            return fn

        return bind

    def _pred_Not(self, node: E.Not) -> Compiled:
        operand = self.predicate(node.operand)

        def bind(ctx, env):
            of = operand(ctx, env)

            def fn(batch):
                is_true, is_false = of(batch)
                return is_false, is_true

            return fn

        return bind
