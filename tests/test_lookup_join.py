"""The batch ⟕'s two forms: the group-join and the pair path.

A ⟕ onto a Γ keyed on its right keys — the last step of every unnesting
equivalence — is one ``VGroupJoin``: each left row looks its group up,
in left order.  Any other ⟕ runs ``VHashJoin``'s pair path, the
unmatched left rows padded with the defaults after the matched pairs.
Every case here runs a ⟕ onto ``rt`` and the same ⟕ onto
``Γ_{k; v: min(v)}(rt)`` — the same answer while ``rt``'s keys are
unique — and compares each as a bag of ``(type, repr)`` values against
the row engine.
"""

from collections import Counter
from contextlib import nullcontext
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import expr as E
from repro.algebra import ops as L
from repro.algebra.aggregates import AggSpec
from repro.engine import EvalOptions, execute_plan
from repro.engine.compile import _Compiler
from repro.engine.governor import ResourceLimits
from repro.engine.vector_compile import VectorCompiler
from repro.errors import ResourceExhausted
from repro.storage import Catalog, Schema, Table

VECTORIZED = EvalOptions(vectorized=True)
ROW = EvalOptions(vectorized=False)


def catalog_of(left_rows, right_rows) -> Catalog:
    catalog = Catalog()
    catalog.register(Table(Schema(["a", "x"]), left_rows, name="l"))
    catalog.register(Table(Schema(["k", "v"]), right_rows, name="rt"))
    return catalog


def outer_join(catalog: Catalog, default, keys=(("a", "k"),), grouped=False):
    """``l ⟕ rt``, or with ``grouped`` ``l ⟕ Γ_{keys; v: min(v)}(rt)``."""
    left = L.Scan("l", catalog.table("l").schema)
    right = L.Scan("rt", catalog.table("rt").schema)
    if grouped:
        right = L.GroupBy(right, [rk for _, rk in keys], [("v", AggSpec("min", E.col("v")))])
    predicate = E.conjunction([E.eq(lk, rk) for lk, rk in keys])
    return L.LeftOuterJoin(left, right, predicate, {"v": default})


def typed_bag(table) -> Counter:
    return Counter(tuple((type(v).__name__, repr(v)) for v in row) for row in table.rows)


def run_paths(catalog, default, keys=(("a", "k"),), options=VECTORIZED):
    """``(group-join answer, pair-path answer)``, each checked against the
    row engine's answer to the same plan."""
    answers = []
    for grouped in (True, False):
        plan = outer_join(catalog, default, keys, grouped)
        answer = execute_plan(plan, catalog, options)
        assert typed_bag(answer) == typed_bag(execute_plan(plan, catalog, ROW))
        answers.append(answer)
    return tuple(answers)


def unfused():
    """The group-join's plans lowered as Γ, then the ⟕'s pair path."""
    return mock.patch.object(
        VectorCompiler, "_compile_LeftOuterJoin", _Compiler._compile_LeftOuterJoin
    )


LEFT = [(1, "a"), (2, "b"), (3, "c"), (None, "d"), (1, "e"), (9, "f")]

#: name -> (right rows, default of ``v``)
CASES = {
    "count default 0": ([(1, 10), (3, 30), (2, 0)], 0),
    "NULL default": ([(1, 10), (3, None)], None),
    "float column, float default": ([(1, 1.5), (3, 2.5)], 0.5),
    "NULL-keyed right rows never match": ([(None, 5), (None, 6), (1, 10)], 0),
    "int column beside a float default": ([(1, 10), (3, 30)], 0.5),
    "float column beside an int default": ([(1, 1.5), (3, 2.5)], 0),
    "string column, string default": ([(1, "p"), (3, "q")], "none"),
    "duplicate right keys": ([(1, 10), (1, 11), (3, 30)], 0),
    "empty right, NULL default": ([], None),
    "empty right, int default": ([], 0),  # an empty column has no int layout
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_lookup_matches_row_engine_and_pair_path(name):
    right_rows, default = CASES[name]
    catalog = catalog_of(LEFT, right_rows)
    looked_up, pairs = run_paths(catalog, default)
    duplicates = name == "duplicate right keys"
    if not duplicates:  # Γ's min(v) is each key's one v
        assert typed_bag(looked_up) == typed_bag(pairs)
    # Key 1 occurs twice on each side of the duplicate case: 2 x 2 pairs.
    assert len(pairs) == len(LEFT) + 2 * duplicates
    assert len(looked_up) == len(LEFT)


def test_lookup_keeps_the_left_order():
    """The group-join answers in left order; the pair path appends the
    unmatched rows after the matched ones."""
    catalog = catalog_of(LEFT, [(1, 10), (3, 30)])
    looked_up, pairs = run_paths(catalog, 0)
    assert [row[1] for row in looked_up.rows] == [row[1] for row in LEFT]
    assert [row[1] for row in pairs.rows] == ["a", "c", "e", "b", "d", "f"]


def test_empty_left():
    catalog = catalog_of([], [(1, 10)])
    looked_up, pairs = run_paths(catalog, 0)
    assert looked_up.rows == pairs.rows == []


def test_wide_composite_key_falls_back():
    """Two key columns of 100 values each code into a range of ~10 000
    slots: too wide to count over 200 rows, so the group-join densifies
    its groups and the pair path sorts its pairs."""
    left = [(i, 99 - i) for i in range(100)] + [(None, 1)]
    right = [(i, 99 - i, i * 10) for i in range(0, 100, 2)]
    catalog = Catalog()
    catalog.register(Table(Schema(["a", "b"]), left, name="l"))
    catalog.register(Table(Schema(["k", "j", "v"]), right, name="rt"))
    looked_up, pairs = run_paths(catalog, 0, keys=(("a", "k"), ("b", "j")))
    assert typed_bag(looked_up) == typed_bag(pairs)


def test_governor_sees_the_same_ticks_and_trip():
    """The group-join ticks the governor as Γ and then the ⟕ would."""
    catalog = catalog_of(LEFT * 50, [(k, k * 10) for k in range(1, 40)] + [(None, 1)])
    plan = outer_join(catalog, 0, grouped=True)

    def limited(max_rows):
        return EvalOptions(vectorized=True, resources=ResourceLimits(max_rows=max_rows))

    ticks = {}
    for path, lowering in (("group-join", nullcontext()), ("unfused", unfused())):
        with lowering:
            _, ctx = execute_plan(plan, catalog, limited(10**9), with_context=True)
            ticks[path] = ctx.rows_processed
            execute_plan(plan, catalog, limited(ticks[path]))  # exactly the budget
            with pytest.raises(ResourceExhausted):
                execute_plan(plan, catalog, limited(ticks[path] - 1))
    assert ticks["group-join"] == ticks["unfused"]


values = st.one_of(st.none(), st.integers(-3, 3), st.floats(-2, 2, allow_nan=False))


@settings(max_examples=150, deadline=None)
@given(
    left=st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 6)), values), max_size=12),
    right=st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 6)), values), max_size=8),
    default=st.sampled_from([0, None, 0.5, 7, "z"]),
)
def test_lookup_property(left, right, default):
    catalog = catalog_of(left, right)
    looked_up, pairs = run_paths(catalog, default)
    keys = [k for k, _ in right if k is not None]
    if len(set(keys)) == len(keys):
        assert typed_bag(looked_up) == typed_bag(pairs)
