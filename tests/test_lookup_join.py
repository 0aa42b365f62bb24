"""The batch ⟕'s lookup path: one lookup per left row instead of pairs.

``VHashJoin`` answers a residual-free left outer join by looking each
left row up in a code → row table when its input shows the non-NULL
right codes unique and countable, and when every non-NULL default shares
its right column's layout; anything else runs the pair path.  Every case
here is compared as a bag of ``(type, repr)`` values against the row
engine and against the pair path (``_unique_match`` forced to decline),
and says which path it expects to take.
"""

from collections import Counter
from contextlib import nullcontext
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import expr as E
from repro.algebra import ops as L
from repro.engine import EvalOptions, execute_plan
from repro.engine.governor import ResourceLimits
from repro.errors import ResourceExhausted
from repro.storage import Catalog, Schema, Table

V = pytest.importorskip("repro.engine.vector_ops")

VECTORIZED = EvalOptions(vectorized=True)


def catalog_of(left_rows, right_rows) -> Catalog:
    catalog = Catalog()
    catalog.register(Table(Schema(["a", "x"]), left_rows, name="l"))
    catalog.register(Table(Schema(["k", "v"]), right_rows, name="rt"))
    return catalog


def outer_join(catalog: Catalog, default, keys=(("a", "k"),)):
    left = L.Scan("l", catalog.table("l").schema)
    right = L.Scan("rt", catalog.table("rt").schema)
    predicate = E.conjunction([E.eq(lk, rk) for lk, rk in keys])
    return L.LeftOuterJoin(left, right, predicate, {"v": default})


def typed_bag(table) -> Counter:
    return Counter(tuple((type(v).__name__, repr(v)) for v in row) for row in table.rows)


def run_paths(plan, catalog, options=VECTORIZED):
    """``(lookup-path answer, pair-path answer, the path the first took)``."""
    pairs = []
    match_pairs = V._match_pairs

    def spy(*args):
        pairs.append(True)
        return match_pairs(*args)

    with mock.patch.object(V, "_match_pairs", spy):
        chosen = execute_plan(plan, catalog, options)
    path = "pairs" if pairs else "lookup"
    with mock.patch.object(V, "_unique_match", lambda *args: None):
        forced = execute_plan(plan, catalog, options)
    return chosen, forced, path


LEFT = [(1, "a"), (2, "b"), (3, "c"), (None, "d"), (1, "e"), (9, "f")]

#: name -> (right rows, default of ``v``, the path the batch engine takes)
CASES = {
    "count default 0": ([(1, 10), (3, 30), (2, 0)], 0, "lookup"),
    "NULL default": ([(1, 10), (3, None)], None, "lookup"),
    "float column, float default": ([(1, 1.5), (3, 2.5)], 0.5, "lookup"),
    "NULL-keyed right rows never match": ([(None, 5), (None, 6), (1, 10)], 0, "lookup"),
    "int column beside a float default": ([(1, 10), (3, 30)], 0.5, "pairs"),
    "float column beside an int default": ([(1, 1.5), (3, 2.5)], 0, "pairs"),
    "string column, string default": ([(1, "p"), (3, "q")], "none", "lookup"),
    "duplicate right keys": ([(1, 10), (1, 11), (3, 30)], 0, "pairs"),
    "empty right, NULL default": ([], None, "lookup"),
    "empty right, int default": ([], 0, "pairs"),  # an empty column has no int layout
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_lookup_matches_row_engine_and_pair_path(name):
    right_rows, default, expected_path = CASES[name]
    catalog = catalog_of(LEFT, right_rows)
    plan = outer_join(catalog, default)
    chosen, forced, path = run_paths(plan, catalog)
    reference = execute_plan(plan, catalog)
    assert path == expected_path
    assert typed_bag(chosen) == typed_bag(reference) == typed_bag(forced)
    # Key 1 occurs twice on each side of the duplicate case: 2 x 2 pairs.
    assert len(chosen) == len(LEFT) + 2 * (name == "duplicate right keys")


def test_lookup_keeps_the_left_order():
    """Unmatched rows are no longer appended after the matched ones."""
    catalog = catalog_of(LEFT, [(1, 10), (3, 30)])
    chosen, forced, path = run_paths(outer_join(catalog, 0), catalog)
    assert path == "lookup"
    assert [row[1] for row in chosen.rows] == [row[1] for row in LEFT]
    assert [row[1] for row in forced.rows] == ["a", "c", "e", "b", "d", "f"]


def test_empty_left():
    catalog = catalog_of([], [(1, 10)])
    chosen, forced, path = run_paths(outer_join(catalog, 0), catalog)
    assert path == "lookup"
    assert chosen.rows == forced.rows == execute_plan(outer_join(catalog, 0), catalog).rows == []


def test_wide_composite_key_falls_back():
    """Two key columns of 100 values each code into a range of ~10 000
    slots: too wide to count over 200 rows, so the pairs are sorted."""
    left = [(i, 99 - i) for i in range(100)] + [(None, 1)]
    right = [(i, 99 - i, i * 10) for i in range(0, 100, 2)]
    catalog = Catalog()
    catalog.register(Table(Schema(["a", "b"]), left, name="l"))
    catalog.register(Table(Schema(["k", "j", "v"]), right, name="rt"))
    plan = outer_join(catalog, 0, keys=(("a", "k"), ("b", "j")))
    chosen, forced, path = run_paths(plan, catalog)
    assert path == "pairs"
    assert typed_bag(chosen) == typed_bag(execute_plan(plan, catalog)) == typed_bag(forced)


def test_governor_sees_the_same_ticks_and_trip():
    catalog = catalog_of(LEFT * 50, [(k, k * 10) for k in range(1, 40)])
    plan = outer_join(catalog, 0)

    def limited(max_rows):
        return EvalOptions(vectorized=True, resources=ResourceLimits(max_rows=max_rows))

    ticks = {}
    for path, context in (
        ("lookup", nullcontext()),
        ("pairs", mock.patch.object(V, "_unique_match", lambda *args: None)),
    ):
        with context:
            _, ctx = execute_plan(plan, catalog, limited(10**9), with_context=True)
            ticks[path] = ctx.rows_processed
            execute_plan(plan, catalog, limited(ticks[path]))  # exactly the budget
            with pytest.raises(ResourceExhausted):
                execute_plan(plan, catalog, limited(ticks[path] - 1))
    assert ticks["lookup"] == ticks["pairs"]


values = st.one_of(st.none(), st.integers(-3, 3), st.floats(-2, 2, allow_nan=False))


@settings(max_examples=150, deadline=None)
@given(
    left=st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 6)), values), max_size=12),
    right=st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 6)), values), max_size=8),
    default=st.sampled_from([0, None, 0.5, 7, "z"]),
)
def test_lookup_property(left, right, default):
    catalog = catalog_of(left, right)
    plan = outer_join(catalog, default)
    chosen, forced, _ = run_paths(plan, catalog)
    assert typed_bag(chosen) == typed_bag(execute_plan(plan, catalog)) == typed_bag(forced)
