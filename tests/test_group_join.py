"""The group-join: ``L ⟕^{f(∅)}_{l = k} Γ_{k; f}(S)`` and the ``=`` binary
Γ as one batch operator (``VGroupJoin``), against the row engine.

Every answer is compared as a bag of ``(type, repr)`` values with the row
engine's answer to the same logical plan: NULL keys on both sides, empty
inputs, key and value columns of every layout (int, float, str, bool and
a mix), a two-column key, a composite key too wide to count, and every
aggregate the rewriter puts there — Eqv. 4's partials ``fI`` included —
each with its ``f(∅)`` default.  Beside the answers: L's order, the
governor's ticks against the unfused lowering (Γ, then the ⟕'s pair
path), and a shared Γ left unfused.  The last section holds the kept
build — S's group table, reused while S's view is unchanged — to the row
engine across DML, DROP/CREATE, pinned snapshots, parameters, fresh
inputs and threads.  ``HYPOTHESIS_PROFILE=nightly`` raises the property
tests' budget.
"""

import gc
import os
import sys
import threading
from collections import Counter
from contextlib import ExitStack, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import Database
from repro.algebra import expr as E
from repro.algebra import ops as L
from repro.algebra.aggregates import STAR, AggSpec
from repro.engine import EvalOptions, execute_plan
from repro.engine import keys as K
from repro.engine import vector_ops as V
from repro.engine.context import ExecContext
from repro.engine.compile import _Compiler, compile_plan
from repro.engine.governor import ResourceLimits
from repro.engine.vector_compile import VectorCompiler
from repro.errors import ResourceExhausted
from repro.storage import Catalog, Schema, Table
from repro.storage.mvcc import SnapshotCatalog

VECTORIZED = EvalOptions(vectorized=True)
ROW = EvalOptions(vectorized=False)
NIGHTLY = os.environ.get("HYPOTHESIS_PROFILE") == "nightly"

#: name -> spec; the ⟕'s default for each is ``spec.empty_result()``.
AGGREGATES = {
    "count(*)": AggSpec("count"),
    "count(y)": AggSpec("count", E.col("y")),
    "count(DISTINCT y)": AggSpec("count", E.col("y"), distinct=True),
    "count(DISTINCT *)": AggSpec("count", STAR, distinct=True),
    "sum(y)": AggSpec("sum", E.col("y")),
    "min(y)": AggSpec("min", E.col("y")),
    "max(y)": AggSpec("max", E.col("y")),
    "avg(y)": AggSpec("avg", E.col("y")),
    "sum(DISTINCT y)": AggSpec("sum", E.col("y"), distinct=True),
    "countᴵ(y)": AggSpec("count", E.col("y"), as_partial=True),
    "sumᴵ(y)": AggSpec("sum", E.col("y"), as_partial=True),
    "avgᴵ(y)": AggSpec("avg", E.col("y"), as_partial=True),
}


def catalog_of(left_rows, right_rows) -> Catalog:
    """``l(a, b, x)`` and ``s(k, j, y)``: keys ``a = k`` (and ``b = j``)."""
    catalog = Catalog()
    catalog.register(Table(Schema(["a", "b", "x"]), left_rows, name="l"))
    catalog.register(Table(Schema(["k", "j", "y"]), right_rows, name="s"))
    return catalog


def scans(catalog):
    return (L.Scan(name, catalog.table(name).schema) for name in ("l", "s"))


def group_join(catalog, specs=AGGREGATES, two_keys=False, grouped=None):
    """``l ⟕ Γ_{k(, j); g_i: f_i}(s)`` with each ``f_i(∅)`` as its default."""
    left, right = scans(catalog)
    pairs = [("a", "k"), ("b", "j")] if two_keys else [("a", "k")]
    names = {name: f"g{i}" for i, name in enumerate(specs)}
    if grouped is None:
        grouped = L.GroupBy(
            right, [rk for _, rk in pairs], [(names[n], spec) for n, spec in specs.items()]
        )
    predicate = E.conjunction([E.eq(lk, rk) for lk, rk in pairs])
    defaults = {names[n]: spec.empty_result() for n, spec in specs.items()}
    return L.LeftOuterJoin(left, grouped, predicate, defaults)


def binary_group(catalog, spec):
    """``l Γ g; a = k; f s`` (Eqv. 5)."""
    left, right = scans(catalog)
    return L.BinaryGroupBy(left, right, "g", "a", "k", spec)


def typed_bag(table) -> Counter:
    return Counter(tuple((type(v).__name__, repr(v)) for v in row) for row in table.rows)


def walk(physical):
    stack, seen = [physical], []
    while stack:
        node = stack.pop()
        if all(node is not other for other in seen):
            seen.append(node)
            stack.extend(node.children())
    return seen


def assert_agrees(plan, catalog):
    """The batch answer equals the row engine's, through a group-join."""
    assert any(isinstance(node, V.VGroupJoin) for node in walk(compile_plan(plan, True)))
    batch = execute_plan(plan, catalog, VECTORIZED)
    assert typed_bag(batch) == typed_bag(execute_plan(plan, catalog, ROW))
    return batch


def unfused():
    """The ⟕ onto Γ lowered as before the group-join: Γ, then the ⟕."""
    return mock.patch.object(
        VectorCompiler, "_compile_LeftOuterJoin", _Compiler._compile_LeftOuterJoin
    )


# ---------------------------------------------------------------------------
# fixed inputs
# ---------------------------------------------------------------------------

LEFT = [(0, 0, "p"), (1, 1, "q"), (None, 0, "r"), (2, None, "s"), (1, 0, "t"), (7, 7, "u")]
RIGHT = [
    (0, 0, 5),
    (None, 0, 5),  # shares y with key 0's group: COUNT(DISTINCT y) there is 1
    (1, 1, 2),
    (1, 0, None),
    (1, 1, 2),
    (None, None, 9),
    (2, None, 3),
    (1, 1, 4),
]

#: name -> (left rows, right rows)
INPUTS = {
    "NULL keys on both sides": (LEFT, RIGHT),
    "empty left": ([], RIGHT),
    "empty right": (LEFT, []),
    "only NULL-keyed right rows": (LEFT, [(None, 0, 1), (None, 1, 2)]),
    "float keys and values": (
        [(0.5, 0.0, "p"), (1.0, 1.0, "q"), (-0.0, 0.0, "r")],
        [(0.5, 0.0, 1.5), (0.0, 0.0, -2.5), (1.0, 1.0, None), (0.5, 0.0, 1.5)],
    ),
    "int left keys, float right keys": (LEFT, [(0.0, 0, 1.5), (1.0, 1, 2.5), (1.0, 1, 2.5)]),
    # Only S is coded: a layout mismatch is looked up from either side.
    "float left keys, int right keys": (
        [(0.0, 0.0, "p"), (-0.0, 1.0, "q"), (1.0, 1.0, "r"), (1.5, 0.0, "s"), (None, 1.0, "t")],
        [(0, 0, 1), (1, 1, 2), (1, 1, 3), (2, 0, 4), (None, 1, 5)],
    ),
    "int keys past 2**53 against float keys": (
        [(2**53 + 1, 0, "p"), (2**53, 0, "q"), (-(2**53) - 1, 1, "r"), (1, 1, "s")],
        [(2.0**53, 0.0, 1), (2.0**53, 0.0, 2), (-(2.0**53), 1.0, 3), (1.0, 1.0, 4)],
    ),
    "int left keys, object right keys": (
        LEFT,
        [(1, 0, 1), ("a", 0, 2), (True, 1, 3), (0.0, 0, 4), (7, 7, None), (None, 0, 6)],
    ),
    "string keys, string values": (
        [("a", "x", 1), ("b", "y", 2), (None, "x", 3)],
        [("a", "x", "m"), ("a", "x", "n"), ("b", "z", "m"), (None, "x", "m")],
    ),
    "bool keys and values": (
        [(True, False, 1), (False, False, 2), (None, True, 3)],
        [(True, False, True), (True, False, False), (False, False, True)],
    ),
    "mixed layouts": (
        [(1, "j", "p"), ("a", 1.5, "q"), (2.5, None, "r"), (True, "j", "s")],
        [(1, "j", 3), ("a", 1.5, 2.5), (1, "j", "w"), (2.5, 0, None), (True, "j", 1)],
    ),
    "int values past 2**53": (LEFT, [(0, 0, 2**60), (0, 0, 2**60 + 1), (1, 1, -(2**62))]),
}

#: Aggregates whose row-engine form rejects some value layouts (a sum or
#: average over strings, a min over str and int) stay off those inputs.
NUMERIC_ONLY = {"sum(y)", "avg(y)", "sum(DISTINCT y)", "sumᴵ(y)", "avgᴵ(y)", "min(y)", "max(y)"}
NON_NUMERIC = {"string keys, string values", "mixed layouts"}


def specs_for(name):
    if name in NON_NUMERIC:
        return {n: spec for n, spec in AGGREGATES.items() if n not in NUMERIC_ONLY}
    return AGGREGATES


@pytest.mark.parametrize("two_keys", [False, True], ids=["one key", "two keys"])
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_group_join_matches_row_engine(name, two_keys):
    catalog = catalog_of(*INPUTS[name])
    assert_agrees(group_join(catalog, specs_for(name), two_keys), catalog)


@pytest.mark.parametrize(
    "name, aggregate", [(name, agg) for name in sorted(INPUTS) for agg in specs_for(name)]
)
def test_binary_group_matches_row_engine(name, aggregate):
    catalog = catalog_of(*INPUTS[name])
    assert_agrees(binary_group(catalog, AGGREGATES[aggregate]), catalog)


def test_null_keyed_row_is_dropped_before_distinct():
    """An S row with a NULL key and key 0's ``y``: dropped before the
    (group, value) dedupe, it cannot take key 0's one distinct value."""
    catalog = catalog_of([(0, 0, "p")], [(None, 0, 5), (0, 0, 5)])
    spec = {"count(DISTINCT y)": AGGREGATES["count(DISTINCT y)"]}
    assert assert_agrees(group_join(catalog, spec), catalog).rows == [(0, 0, "p", 0, 1)]


def test_keyless_group_by():
    """A ⟕ with no key onto a Γ with none: every left row meets Γ's one
    group, or none when S is empty."""
    for right_rows in (RIGHT, []):
        catalog = catalog_of(LEFT, right_rows)
        left, right = scans(catalog)
        grouped = L.GroupBy(right, [], [("g0", AggSpec("count"))])
        assert_agrees(L.LeftOuterJoin(left, grouped, E.TRUE, {"g0": 0}), catalog)


def test_wide_composite_key_is_densified():
    """Two key columns of 150 values each code into a range of ~23 000
    slots, too wide to count over S's 150 rows: the build renumbers S's
    codes once, by sorting them, and a probe looks L up in the sorted
    distinct codes (``searchsorted``) — it sorts nothing and builds no
    renumbering of its own, cold or warm."""
    left = [(i, 149 - i, "x") for i in range(150)] + [(None, 1, "y")]
    right = [(i, 149 - i, i) for i in range(0, 150, 2) for _ in range(2)]
    catalog = catalog_of(left, right)
    plan = group_join(catalog, {"count(*)": AggSpec("count")}, two_keys=True)
    root, expected = compile_plan(plan, True), typed_bag(execute_plan(plan, catalog, ROW))
    calls = Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    for built in (1, 0):  # the build, then the kept one
        calls.clear()
        with ExitStack() as stack:
            for owner, name in ((K.Dense, "__init__"), (np, "sort"), (np, "searchsorted")):
                stack.enter_context(
                    mock.patch.object(owner, name, counting(name, getattr(owner, name)))
                )
            batch = execute_plan(plan, catalog, VECTORIZED, physical=root)
        assert typed_bag(batch) == expected
        assert calls == Counter({"__init__": built, "sort": built, "searchsorted": 1})


def test_left_order_is_kept():
    catalog = catalog_of(LEFT, RIGHT)
    for plan in (group_join(catalog), binary_group(catalog, AggSpec("count"))):
        batch = execute_plan(plan, catalog, VECTORIZED)
        assert [row[:3] for row in batch.rows] == LEFT


def test_empty_default_layouts():
    """Unmatched rows carry each default in a layout it belongs in: a
    float AVG beside an int default 0 would read 0.0 in a float column."""
    catalog = catalog_of([(0, 0, "p"), (5, 5, "q")], [(0, 0, 1), (0, 0, 2)])
    plan = group_join(catalog, {"avg(y)": AggSpec("avg", E.col("y"))})
    left, grouped = plan.left, plan.right
    for default in (0, 0.5, "none", None, (0, 0)):
        with_default = L.LeftOuterJoin(left, grouped, plan.predicate, {"g0": default})
        rows = assert_agrees(with_default, catalog).rows
        assert [type(row[-1]) for row in rows] == [float, type(default)]


def test_governor_ticks_and_trip_match_the_unfused_lowering():
    catalog = catalog_of(LEFT * 40, RIGHT * 30)

    def limited(max_rows):
        return EvalOptions(vectorized=True, resources=ResourceLimits(max_rows=max_rows))

    for two_keys in (False, True):
        plan = group_join(catalog, AGGREGATES, two_keys)
        ticks = {}
        for lowering in ("group-join", "unfused"):
            with nullcontext() if lowering == "group-join" else unfused():
                kinds = {type(node).__name__ for node in walk(compile_plan(plan, True))}
                assert ("VGroupJoin" in kinds) == (lowering == "group-join")
                _, ctx = execute_plan(plan, catalog, limited(10**9), with_context=True)
                ticks[lowering] = ctx.rows_processed
                execute_plan(plan, catalog, limited(ticks[lowering]))  # exactly the budget
                with pytest.raises(ResourceExhausted):
                    execute_plan(plan, catalog, limited(ticks[lowering] - 1))
        assert ticks["group-join"] == ticks["unfused"]


def test_binary_group_ticks_as_its_unfused_form():
    """``l Γ g; a = k; f s`` ticks as Γ, the ⟕ and the π dropping ``k``
    (its lowering before the group-join)."""
    catalog = catalog_of(LEFT * 40, RIGHT * 30)
    spec = AggSpec("count", STAR, distinct=True)
    binary = binary_group(catalog, spec)
    with unfused():
        join = group_join(catalog, {"count(DISTINCT *)": spec})
        joined = L.Project(join, [*catalog.table("l").schema.names, "g0"])
        _, unfused_ctx = execute_plan(
            joined, catalog, EvalOptions(vectorized=True, resources=ResourceLimits(10**9)),
            with_context=True,
        )
    _, ctx = execute_plan(
        binary, catalog, EvalOptions(vectorized=True, resources=ResourceLimits(10**9)),
        with_context=True,
    )
    assert ctx.rows_processed == unfused_ctx.rows_processed


def test_shared_group_by_is_not_fused():
    """A Γ another parent reads is computed once (memoised), so neither
    ⟕ onto it becomes a group-join."""
    catalog = catalog_of(LEFT, RIGHT)
    first = group_join(catalog, {"count(*)": AggSpec("count")})
    second = group_join(catalog, {"count(*)": AggSpec("count")}, grouped=first.right)
    plan = L.UnionAll(first, second)
    physical = compile_plan(plan, True)
    kinds = Counter(type(node).__name__ for node in walk(physical))
    assert kinds["VGroupJoin"] == 0 and kinds["VHashGroupBy"] == 1 and kinds["VHashJoin"] == 2
    batch = execute_plan(plan, catalog, VECTORIZED)
    assert typed_bag(batch) == typed_bag(execute_plan(plan, catalog, ROW))


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------

KEY_LAYOUTS = {
    "int": st.integers(-2, 3),
    "float": st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.5]),
    "str": st.sampled_from(["", "a", "b"]),
    "bool": st.booleans(),
    "mixed": st.sampled_from([0, 1, 1.0, 0.5, "a", True]),
    "wide": st.integers(0, 10**6),  # composite codes past the counting range
}
VALUES = st.one_of(st.integers(-3, 3), st.sampled_from([0.5, -1.5, 2**60]), st.booleans())


@st.composite
def instances(draw):
    """``(left rows, right rows, two_keys)`` over one key layout per side."""
    left_keys = KEY_LAYOUTS[draw(st.sampled_from(sorted(KEY_LAYOUTS)))]
    right_keys = left_keys if draw(st.booleans()) else KEY_LAYOUTS[
        draw(st.sampled_from(sorted(KEY_LAYOUTS)))
    ]

    def rows(keys, values, max_size):
        key = st.none() | keys
        return draw(st.lists(st.tuples(key, key, st.none() | values), max_size=max_size))

    return rows(left_keys, st.sampled_from("pq"), 10), rows(right_keys, VALUES, 14), draw(
        st.booleans()
    )


@settings(
    max_examples=2000 if NIGHTLY else 150,
    deadline=None,
    suppress_health_check=list(HealthCheck),
)
@given(instances(), st.sampled_from(sorted(AGGREGATES)))
@example(([(0, 0, "p")], [(None, 0, 5), (0, 0, 5)], False), "count(DISTINCT y)")
def test_group_join_property(instance, aggregate):
    left_rows, right_rows, two_keys = instance
    catalog = catalog_of(left_rows, right_rows)
    assert_agrees(group_join(catalog, AGGREGATES, two_keys), catalog)
    assert_agrees(binary_group(catalog, AGGREGATES[aggregate]), catalog)


# ---------------------------------------------------------------------------
# the kept build: S's group table, reused while S's view is unchanged
# ---------------------------------------------------------------------------

COUNT_DISTINCT_STAR = AggSpec("count", STAR, distinct=True)
NEW, REUSED = ["build=new"] * 2, ["build=reused"] * 2
INT_LEFT = [row for row in LEFT if row[0] is None or isinstance(row[0], int)]


def lowerings(left, source, spec):
    """``l ⟕ Γ_{k; g: f}(source)`` and ``l Γ g; a = k; f source``."""
    grouped = L.GroupBy(source, ["k"], [("g", spec)])
    return (
        L.LeftOuterJoin(left, grouped, E.eq("a", "k"), {"g": spec.empty_result()}),
        L.BinaryGroupBy(left, source, "g", "a", "k", spec),
    )


def group_join_node(root):
    (node,) = [node for node in walk(root) if isinstance(node, V.VGroupJoin)]
    return node


class Kept:
    """``l`` and ``s`` in a database, and both lowerings of a group-join
    onto ``source(s)`` compiled once, as a cached plan's roots are."""

    def __init__(self, left_rows, right_rows, spec=COUNT_DISTINCT_STAR, source=None):
        self.db = Database()
        self.db.create_table("l", ["a", "b", "x"], left_rows)
        self.db.create_table("s", ["k", "j", "y"], right_rows)
        left, right = scans(self.db.catalog)
        self.plans = lowerings(left, right if source is None else source(right), spec)
        self.roots = [compile_plan(plan, True) for plan in self.plans]

    def catalog(self, lsn=None):
        lsn = self.db.commit_lsn if lsn is None else lsn
        return SnapshotCatalog(self.db.catalog, self.db._snapshots, lsn)

    def builds(self, lsn=None, params=None) -> list:
        """Each root's answer at ``lsn`` (the newest by default) checked
        against the row engine's; the group-joins' ``build=`` notes."""
        catalog, notes = self.catalog(lsn), []
        for plan, root in zip(self.plans, self.roots):
            options = EvalOptions(vectorized=True, collect_stats=True, params=params)
            batch, ctx = execute_plan(plan, catalog, options, with_context=True, physical=root)
            expected = execute_plan(plan, catalog, EvalOptions(vectorized=False, params=params))
            assert typed_bag(batch) == typed_bag(expected), plan
            notes += ctx.stats.notes.values()
        return notes

    def answers(self) -> list:
        return [sorted(execute_plan(plan, self.catalog(), ROW).rows, key=repr) for plan in self.plans]


@pytest.mark.parametrize(
    "sql",
    [
        "INSERT INTO s VALUES (0, 3, 3)",
        "DELETE FROM s WHERE k = 1",
        "UPDATE s SET k = 2 WHERE k = 1",
        "UPDATE s SET k = NULL WHERE k = 0",
    ],
)
def test_kept_build_is_rebuilt_after_dml(sql):
    kept = Kept(INT_LEFT, RIGHT)
    assert kept.builds() == NEW and kept.builds() == REUSED
    before = kept.answers()
    kept.db.execute(sql)
    assert kept.answers() != before, sql
    assert kept.builds() == NEW and kept.builds() == REUSED


def test_non_key_update_lowers_a_distinct_count():
    """``UPDATE`` carries the untouched key columns' arrays to the next
    version; only ``y``'s is new.  Making key 1's rows (1, 1, 4) and
    (1, 1, 2) equal drops its COUNT(DISTINCT *) from 3 to 2."""
    kept = Kept(INT_LEFT, RIGHT)
    assert kept.builds() == NEW and kept.builds() == REUSED
    base = V.table_batch(kept.db.table("s"))
    kept.db.execute("UPDATE s SET y = 2 WHERE y = 4")
    after = V.table_batch(kept.db.table("s"))
    assert after.data[0] is base.data[0] and after.data[2] is not base.data[2]
    assert kept.builds() == NEW and kept.builds() == REUSED
    join_answer = {row[:3]: row[-1] for row in kept.answers()[0]}
    assert join_answer[(1, 1, "q")] == 2


def test_recreated_table_is_rebuilt():
    """DROP + CREATE with as many rows and other values: a new table, new
    arrays, a new build — never the dropped table's."""
    kept = Kept(INT_LEFT, RIGHT)
    assert kept.builds() == NEW and kept.builds() == REUSED
    kept.db.drop_table("s")
    kept.db.create_table("s", ["k", "j", "y"], [(1, 9, i) for i in range(len(RIGHT))])
    assert kept.builds() == NEW and kept.builds() == REUSED


def test_pinned_snapshot_between_live_reads():
    kept = Kept(INT_LEFT, RIGHT)
    assert kept.builds() == NEW
    handle = kept.db.pin_snapshot()
    try:
        kept.db.execute("INSERT INTO s VALUES (1, 5, 5)")
        assert kept.builds() == NEW
        assert kept.builds(handle.lsn) == NEW  # the old version's own arrays
        assert kept.builds() == NEW and kept.builds() == REUSED
        assert kept.builds(handle.lsn) == NEW and kept.builds(handle.lsn) == REUSED
    finally:
        kept.db.release_snapshot(handle)


def test_bypass_stream_of_s_is_reused():
    """Q2's shape: Γ over σ±'s negative stream.  Its selection vector is
    a new array every execution, equal by value."""
    above_two = E.Comparison(">", E.col("y"), E.lit(2))
    kept = Kept(INT_LEFT, RIGHT, source=lambda s: L.BypassSelect(s, above_two).negative)
    assert kept.builds() == NEW and kept.builds() == REUSED
    kept.db.execute("UPDATE s SET y = 9 WHERE y = 2")  # moves rows between the streams
    assert kept.builds() == NEW and kept.builds() == REUSED


def test_selection_is_compared_by_value():
    """Γ over ``σ_{y > ?}(s)``: the same arrays under another selection
    are another input; the parameter outside the aggregate is no bar."""
    above = E.Comparison(">", E.col("y"), E.Parameter(0))
    kept = Kept(INT_LEFT, RIGHT, source=lambda s: L.Select(s, above))
    assert kept.builds(params={0: 2}) == NEW
    assert kept.builds(params={0: 3}) == NEW
    assert kept.builds(params={0: 3}) == REUSED


def test_parameter_in_aggregate_is_never_kept():
    spec = AggSpec("sum", E.Arithmetic("+", E.col("y"), E.Parameter(0)))
    kept = Kept(INT_LEFT, RIGHT, spec=spec)
    for value in (1, 10, 10):
        assert kept.builds(params={0: value}) == NEW
    assert all(group_join_node(root).built is None for root in kept.roots)


def test_fresh_right_input_builds_every_time_and_keeps_no_array():
    """Γ over a join's output: new arrays every execution, so every
    execution builds, and what is kept holds none of them."""

    def joined(s):
        twin = L.Rename(L.Scan("s", s.schema), {"k": "k2", "j": "j2", "y": "y2"})
        return L.Project(L.Join(s, twin, E.eq("k", "k2")), ["k", "j", "y"])

    kept = Kept(INT_LEFT, RIGHT, source=joined)
    for _ in range(3):
        assert kept.builds() == NEW
    gc.collect()
    for root in kept.roots:
        refs, _, _ = group_join_node(root).built[0]
        assert all(ref is None or ref() is None for ref in refs)


def test_warm_ticks_and_trip_equal_cold():
    kept = Kept(INT_LEFT * 40, RIGHT * 30)

    def run(plan, root, max_rows):
        limits = ResourceLimits(max_rows=max_rows)
        options = EvalOptions(vectorized=True, collect_stats=True, resources=limits)
        ctx = execute_plan(plan, kept.catalog(), options, with_context=True, physical=root)[1]
        return ctx.rows_processed, list(ctx.stats.notes.values())

    for plan in kept.plans:
        ticks, notes = run(plan, compile_plan(plan, True), 10**9)
        assert notes == ["build=new"]
        assert run(plan, compile_plan(plan, True), ticks) == (ticks, notes)  # exactly the budget
        with pytest.raises(ResourceExhausted):
            run(plan, compile_plan(plan, True), ticks - 1)
        root = compile_plan(plan, True)
        run(plan, root, 10**9)
        assert run(plan, root, ticks) == (ticks, ["build=reused"])
        with pytest.raises(ResourceExhausted):
            run(plan, root, ticks - 1)


def test_answer_shares_no_memory_with_the_build():
    kept = Kept(INT_LEFT, RIGHT, spec=AggSpec("max", E.col("y")))
    kept.builds()
    for root in kept.roots:
        batch = root.invoke(ExecContext(kept.catalog(), VECTORIZED), {})
        _, (_, columns) = group_join_node(root).built
        kept_arrays = [array for column in columns for array in column]
        for answer in (*batch.data, *batch.valid):
            for array in kept_arrays:
                if answer is not None and array is not None:
                    assert not np.shares_memory(answer, array)


def test_threads_share_one_root_while_s_grows():
    """Four readers of one compiled root (more than the cores), each at
    its own snapshot, race to replace the kept build while a writer grows
    s: every answer is the row engine's at that snapshot.  After each
    INSERT the writer waits until every reader has finished a read begun
    after it, so the reads see more than one LSN whatever the schedule."""
    kept = Kept(INT_LEFT * 20, RIGHT * 20)
    failures, reads, done = [], [], threading.Event()
    #: One event per reader per INSERT, appended after the INSERT.
    rounds = [[threading.Event() for _ in range(4)]]

    def reader(k):
        while not done.is_set():
            finished = rounds[-1][k]  # taken before the pin: the read is newer
            handle = kept.db.pin_snapshot()
            try:
                catalog = kept.catalog(handle.lsn)
                for plan, root in zip(kept.plans, kept.roots):
                    got = execute_plan(plan, catalog, VECTORIZED, physical=root)
                    if typed_bag(got) != typed_bag(execute_plan(plan, catalog, ROW)):
                        failures.append(handle.lsn)
                    reads.append(handle.lsn)
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(error)
            finally:
                kept.db.release_snapshot(handle)
                finished.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=reader, args=(k,)) for k in range(4)]
    try:
        for thread in threads:
            thread.start()
        for i in range(40):
            kept.db.execute(f"INSERT INTO s VALUES ({i % 4}, {i}, {i % 3})")
            rounds.append([threading.Event() for _ in range(4)])
            assert all(finished.wait(60) for finished in rounds[-1])
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == [] and len(set(reads)) > 1


DML = st.one_of(
    st.tuples(st.just("INSERT INTO s VALUES ({}, {}, {})"), st.none() | st.integers(-1, 3),
              st.integers(0, 2), st.none() | st.integers(0, 3)),
    st.tuples(st.just("DELETE FROM s WHERE k = {}"), st.integers(-1, 3)),
    st.tuples(st.just("UPDATE s SET k = {} WHERE j = {}"), st.integers(-1, 3), st.integers(0, 2)),
    st.tuples(st.just("UPDATE s SET y = {} WHERE k = {}"), st.integers(0, 3), st.integers(-1, 3)),
    st.just(None),  # execute
)


def sql_literal(value):
    return "NULL" if value is None else str(value)


@settings(
    max_examples=1000 if NIGHTLY else 150,
    deadline=None,
    suppress_health_check=list(HealthCheck),
)
@given(st.lists(DML, max_size=12), st.sampled_from(sorted(AGGREGATES)))
def test_kept_build_property(steps, aggregate):
    kept = Kept(INT_LEFT, RIGHT, spec=AGGREGATES[aggregate])
    kept.builds()
    for step in steps:
        if step is None:
            kept.builds()
        else:
            kept.db.execute(step[0].format(*map(sql_literal, step[1:])))
    kept.builds()
