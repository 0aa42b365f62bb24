"""Aggregate functions and their decomposition (paper §3.3).

A *decomposable* aggregate ``f`` over ``X = Y ⊎ Z`` satisfies
``f(X) = fO(fI(Y), fI(Z))``.  Equivalence 4 exploits this to split the
inner relation with a bypass selection, pre-aggregate each partition, and
recombine partial results with a map operator.

Each :class:`Aggregate` therefore exposes two evaluation styles:

* a streaming accumulator (``init_state`` / ``step`` / ``finalize``) used
  by the grouping and scalar-aggregation runtime operators;
* the decomposition interface (``partial_empty`` / ``partial_step`` /
  ``combine`` / ``finalize_partial``) implementing ``fI`` and ``fO``.

NULL handling follows SQL: every aggregate except ``COUNT(*)`` ignores
NULL inputs, and every aggregate except ``COUNT`` evaluates to NULL on an
empty (or all-NULL) input.  ``f(∅)`` — the leftouterjoin default that
fixes the *count bug* — is ``finalize_partial(partial_empty())``.

``DISTINCT`` variants of COUNT/SUM/AVG are *not* decomposable (footnote 1
of the paper: Eqv. 5 must be used); MIN/MAX are insensitive to duplicates,
so their DISTINCT variants remain decomposable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.algebra.expr import Expr


class Aggregate:
    """Base class for aggregate function implementations.

    Subclasses define the streaming interface over *non-distinct* inputs;
    DISTINCT handling (deduplicating the input bag first) is layered on
    top by the runtime, because it is orthogonal to every function here.
    """

    name: str = ""
    decomposable: bool = True
    #: Whether the DISTINCT variant is still decomposable (MIN/MAX only).
    distinct_decomposable: bool = False
    #: Whether NULL inputs participate (COUNT(*) only).
    counts_nulls: bool = False

    # -- streaming accumulator ---------------------------------------------

    def init_state(self):
        raise NotImplementedError

    def step(self, state, value):
        raise NotImplementedError

    def finalize(self, state):
        raise NotImplementedError

    # -- decomposition: fI / fO ----------------------------------------------

    def partial_empty(self):
        """``fI(∅)`` — the identity element of :meth:`combine`."""
        return self.init_state()

    def partial_step(self, partial, value):
        """Fold one value into a partial (``fI`` over a stream)."""
        return self.step(partial, value)

    def combine(self, left, right):
        """Merge two partials (the heart of ``fO``)."""
        raise NotImplementedError

    def finalize_partial(self, partial):
        """Turn a partial into the aggregate's output value."""
        return self.finalize(partial)

    # -- convenience ------------------------------------------------------

    def empty_value(self):
        """``f(∅)`` — the value of the aggregate over an empty input."""
        return self.finalize(self.init_state())

    def over(self, values) -> object:
        """Evaluate the aggregate over an iterable of values (tests)."""
        state = self.init_state()
        for value in values:
            if value is None and not self.counts_nulls:
                continue
            state = self.step(state, value)
        return self.finalize(state)


class CountStar(Aggregate):
    """``COUNT(*)`` — counts rows, including NULLs."""

    name = "count"
    counts_nulls = True

    def init_state(self):
        return 0

    def step(self, state, value):
        return state + 1

    def finalize(self, state):
        return state

    def combine(self, left, right):
        return left + right


class Count(CountStar):
    """``COUNT(expr)`` — counts non-NULL values.

    The runtime filters NULLs before :meth:`step` (``counts_nulls`` is
    False), so the accumulator is identical to ``COUNT(*)``.
    """

    counts_nulls = False
    distinct_decomposable = False


class Sum(Aggregate):
    """``SUM(expr)`` — NULL over empty input."""

    name = "sum"

    def init_state(self):
        return None

    def step(self, state, value):
        return value if state is None else state + value

    def finalize(self, state):
        return state

    def combine(self, left, right):
        if left is None:
            return right
        if right is None:
            return left
        return left + right


class Avg(Aggregate):
    """``AVG(expr)`` — partial is a ``(sum, count)`` pair (paper §3.3)."""

    name = "avg"

    def init_state(self):
        return (0, 0)

    def step(self, state, value):
        total, count = state
        return (total + value, count + 1)

    def finalize(self, state):
        total, count = state
        if count == 0:
            return None
        return total / count

    def combine(self, left, right):
        return (left[0] + right[0], left[1] + right[1])


class Min(Aggregate):
    """``MIN(expr)`` — duplicate-insensitive, hence DISTINCT-decomposable."""

    name = "min"
    distinct_decomposable = True

    def init_state(self):
        return None

    def step(self, state, value):
        if state is None or value < state:
            return value
        return state

    def finalize(self, state):
        return state

    def combine(self, left, right):
        if left is None:
            return right
        if right is None:
            return left
        return left if left < right else right


class Max(Aggregate):
    """``MAX(expr)`` — duplicate-insensitive, hence DISTINCT-decomposable."""

    name = "max"
    distinct_decomposable = True

    def init_state(self):
        return None

    def step(self, state, value):
        if state is None or value > state:
            return value
        return state

    def finalize(self, state):
        return state

    def combine(self, left, right):
        if left is None:
            return right
        if right is None:
            return left
        return left if left > right else right


_AGGREGATES: dict[str, Aggregate] = {
    "count": Count(),
    "count_star": CountStar(),
    "sum": Sum(),
    "avg": Avg(),
    "min": Min(),
    "max": Max(),
}


def get_aggregate(name: str) -> Aggregate:
    """Look up an aggregate implementation by (lower-case) name."""
    try:
        return _AGGREGATES[name.lower()]
    except KeyError:
        raise ValueError(f"unknown aggregate function {name!r}") from None


#: Sentinel used as the argument of ``COUNT(*)`` / ``COUNT(DISTINCT *)``:
#: the aggregate consumes the whole input row.
STAR = "*"


@dataclass(frozen=True)
class AggSpec:
    """One aggregate call: function, argument, DISTINCT flag, partial mode.

    ``arg`` is either a scalar :class:`~repro.algebra.expr.Expr` or the
    :data:`STAR` sentinel.  When ``as_partial`` is set, grouping and
    scalar-aggregation operators emit the *inner partial* ``fI(...)``
    instead of the final value — this is how Equivalence 4 materialises
    ``g1`` and ``g2`` before the recombining map.
    """

    func: str
    arg: object = STAR  # Expr | STAR
    distinct: bool = False
    as_partial: bool = False

    def __post_init__(self):
        get_aggregate(self.resolved_name())  # validate eagerly

    def resolved_name(self) -> str:
        """Implementation name: ``COUNT(*)`` maps to ``count_star``."""
        if self.func.lower() == "count" and self.arg is STAR and not self.distinct:
            return "count_star"
        return self.func.lower()

    @property
    def aggregate(self) -> Aggregate:
        return get_aggregate(self.resolved_name())

    @property
    def is_decomposable(self) -> bool:
        """Can Equivalence 4 split this aggregate (paper footnote 1)?"""
        agg = self.aggregate
        if self.distinct:
            return agg.distinct_decomposable
        return agg.decomposable

    def free_attrs(self) -> frozenset[str]:
        if self.arg is STAR:
            return frozenset()
        return self.arg.free_attrs()

    def with_partial(self, as_partial: bool = True) -> "AggSpec":
        return AggSpec(self.func, self.arg, self.distinct, as_partial)

    def empty_result(self):
        """The value this spec produces over an empty input.

        Respects ``as_partial``: in partial mode the empty *partial*
        (``fI(∅)``) is produced, otherwise ``f(∅)``.
        """
        agg = self.aggregate
        if self.as_partial:
            return agg.partial_empty()
        return agg.empty_value()

    def sql(self) -> str:
        arg_sql = "*" if self.arg is STAR else self.arg.sql()
        distinct = "DISTINCT " if self.distinct else ""
        suffix = "ᴵ" if self.as_partial else ""
        return f"{self.func.lower()}{suffix}({distinct}{arg_sql})"


def evaluate_spec(spec: AggSpec, values) -> object:
    """Evaluate ``spec`` over an iterable of already-extracted arg values.

    Used by runtime operators after they have projected the aggregate's
    argument per input row (for STAR, the whole row tuple).  Handles
    DISTINCT, NULL filtering, and partial mode.
    """
    agg = spec.aggregate
    if spec.distinct:
        seen = set()
        deduped = []
        for value in values:
            if value not in seen:
                seen.add(value)
                deduped.append(value)
        values = deduped
    state = agg.init_state()
    for value in values:
        if value is None and not agg.counts_nulls:
            continue
        state = agg.step(state, value)
    if spec.as_partial:
        return state
    return agg.finalize(state)
