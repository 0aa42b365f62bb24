"""Key codes: the key coder against pure-Python references, and the sort
and coder budgets of Fig. 7's unnested plans.

``engine/keys.py``'s ``KeyCoder`` codes one side's keys into group ids —
counting into a table when the code range is O(batch length), sorting
otherwise — and looks any other batch up in them (docs/vectorized-engine.md
"Key codes").  Unit data never has the shapes that separate the paths:
ranges on either side of the threshold, int64 extremes whose
``max - min`` passes 2**63, many wide-cardinality columns, NULL masks,
layouts that differ between build and probe, empty and one-row batches.
The property tests generate them and compare with dicts, sets and nested
loops; the engine-level variant runs generated statements over such
tables on both engines.  ``HYPOTHESIS_PROFILE=nightly`` (the nightly
workflow) raises the budget.
"""

import os
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database
from repro.bench.queries import RST_QUERIES
from repro.datagen import RstConfig, generate_rst
from repro.engine import EvalOptions
from repro.engine import keys as K
from repro.engine import vector_ops as V
from repro.storage.batch import build_column
from tests.conftest import assert_bag_equal

NIGHTLY = os.environ.get("HYPOTHESIS_PROFILE") == "nightly"


def budget(tier1: int, nightly: int):
    return settings(
        max_examples=nightly if NIGHTLY else tier1,
        deadline=None,
        suppress_health_check=list(HealthCheck),
    )


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
VECTORIZED = EvalOptions(vectorized=True)


def widest_counted_range(n: int) -> int:
    """The largest ``max - min + 1`` that ``n`` rows still count."""
    width = 1
    while K._countable(2 * width, n):
        width *= 2
    return next(w for w in range(2 * width, 0, -1) if K._countable(w, n))


@st.composite
def int_values(draw, n: int) -> list:
    """``n`` ints from one of the regimes the counting rule tells apart."""
    regime = draw(st.sampled_from(["small", "straddle", "wide", "extremes"]))
    if regime == "small":
        elements = st.integers(-3, 4)
    elif regime == "wide":
        elements = st.integers(INT64_MIN, INT64_MAX)
    elif regime == "extremes":  # max - min does not fit int64
        elements = st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX])
    else:  # a range within two of the threshold, on either side, anywhere
        width = max(1, widest_counted_range(n) + draw(st.integers(-2, 2)))
        lo = draw(st.integers(INT64_MIN, INT64_MAX - width + 1))
        elements = st.sampled_from([lo, lo + width - 1]) | st.integers(lo, lo + width - 1)
    return draw(st.lists(elements, min_size=n, max_size=n))


@st.composite
def key_column(draw, n: int, ints_only: bool = False) -> list:
    """``n`` Python values of one layout, NULLs (``None``) mixed in."""
    kind = "int" if ints_only else draw(st.sampled_from(["int", "int", "float", "str"]))
    if kind == "int":
        values = draw(int_values(n))
    elif kind == "float":
        values = draw(
            st.lists(st.sampled_from([-0.0, 0.0, 1.5, -1.5, 1e300]), min_size=n, max_size=n)
        )
    else:
        values = draw(st.lists(st.sampled_from(["", "a", "b", "ab"]), min_size=n, max_size=n))
    if draw(st.booleans()):
        nulls = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        values = [None if null else value for value, null in zip(values, nulls)]
    return values


@st.composite
def key_columns(draw, max_rows: int = 30, min_columns: int = 1, ints_only: bool = False):
    n = draw(st.integers(0, max_rows))
    count = draw(st.integers(min_columns, 9))
    return n, [draw(key_column(n, ints_only)) for _ in range(count)]


def int64_codes(max_rows: int = 40):
    return st.integers(0, max_rows).flatmap(int_values).map(lambda v: np.array(v, dtype=np.int64))


# ---------------------------------------------------------------------------
# the coder against references
# ---------------------------------------------------------------------------


@budget(150, 5000)
@given(key_columns(), st.booleans())
def test_factorize_codes_rows_like_a_dict_of_tuples(drawn, seeded):
    n, columns = drawn
    rows = list(zip(*columns)) if n else []
    key = [build_column(c) for c in columns]
    if seeded:  # as a DISTINCT aggregate leads with its group ids
        group_ids = np.arange(n, dtype=np.int64) % 3
        key = [(group_ids, None), *key]
        rows = [(int(g),) + row for g, row in zip(group_ids, rows)]
    coder = K.KeyCoder(key, n)
    ids = coder.ids()
    assert ids.dtype == np.int64 and len(ids) == len(coder.ok) == n
    assert coder.ok.tolist() == [None not in row[seeded:] for row in rows]
    # Equal rows (NULL a value of its own, -0.0 = 0.0) <=> equal ids; the
    # ids are dense and each group's first row is its first occurrence.
    first_of = {}
    for i, row in enumerate(rows):
        first_of.setdefault(row, i)
    assert coder.n_groups == len(first_of)
    assert sorted(set(ids.tolist())) == list(range(coder.n_groups))
    for row, group in zip(rows, ids.tolist()):
        assert coder.firsts[group] == first_of[row]


@budget(150, 5000)
@given(int64_codes(), st.data())
def test_densify_matches_sorted_distinct(codes, data):
    values = codes.tolist()
    distinct = sorted(set(values))
    dense = K.Dense(codes)
    assert dense.n_groups == len(distinct)
    assert dense.firsts.tolist() == [values.index(code) for code in distinct]
    assert dense.ids().tolist() == [distinct.index(code) for code in values]
    others = data.draw(st.lists(st.sampled_from(values or [0]) | st.integers(INT64_MIN, INT64_MAX)))
    found = dense.find(np.array(others, dtype=np.int64)).tolist()
    assert found == [distinct.index(c) if c in distinct else len(distinct) for c in others]


@budget(150, 5000)
@given(st.data())
def test_match_pairs_matches_a_nested_loop(data):
    # Both sides drawn from one pool so they do meet.
    pool = data.draw(int64_codes(30)).tolist() or [0]
    value = st.none() | st.sampled_from(pool) | st.integers(INT64_MIN, INT64_MAX)
    width = data.draw(st.integers(1, 3))
    side = st.lists(st.tuples(*[value] * width), max_size=25)
    left, right = data.draw(side), data.draw(side)

    def columns(rows):
        return [build_column([row[i] for row in rows]) for i in range(width)]

    coder = K.KeyCoder(columns(right), len(right))
    left_ids = coder.lookup(columns(left), len(left))
    left_idx, right_idx = V._match_pairs(left_ids, coder.ids(), coder.n_groups)
    expected = [
        (i, j)
        for i, lrow in enumerate(left)
        for j, rrow in enumerate(right)
        if None not in lrow and lrow == rrow
    ]
    # Left-major, right rows in input order: what the row engine's hash
    # join emits, and what the operators' output order is built on.
    assert list(zip(left_idx.tolist(), right_idx.tolist())) == expected


@st.composite
def lookup_instance(draw):
    """``(build columns, probe columns)`` as Python values, each column of
    either side in its own layout, all drawn from one pool of ints and
    the floats and objects equal (or nearly equal) to them.  A ``wide``
    build has nine int columns spanning a just-countable range each: its
    composite code is renumbered on the way."""
    wide = draw(st.booleans())
    n_build, n_probe = draw(st.integers(2 if wide else 0, 20)), draw(st.integers(0, 20))
    build, probe = [], []
    for _ in range(9 if wide else draw(st.integers(0, 9))):
        ints = draw(int_values(max(n_build, 1)))
        if wide:
            lo = draw(st.integers(-3, 3))
            ends = [lo, lo + widest_counted_range(n_build) - 1]
            ints = ends + draw(st.lists(st.integers(*ends), max_size=3))
        floats = [float(i) for i in ints] + [-0.0, 1.5]  # float(2**53 + 1) == 2.0**53
        pool = {"int": ints, "float": floats, "object": ints + floats[:3] + ["a", True, False]}
        for side, n in ((build, n_build), (probe, n_probe)):
            layout = pool["int" if wide and side is build else draw(st.sampled_from(sorted(pool)))]
            values = draw(st.lists(st.none() | st.sampled_from(layout), min_size=n, max_size=n))
            side.append(ends + values[2:] if wide and side is build else values)
    copied = draw(st.lists(st.integers(0, n_build - 1), max_size=3)) if build and n_build else []
    for build_column_values, probe_column_values in zip(build, probe):  # some rows meet
        probe_column_values += [build_column_values[j] for j in copied]
    return n_build, build, n_probe + len(copied), probe


@budget(150, 5000)
@given(lookup_instance())
def test_lookup_matches_nested_loop_equality(instance):
    """A probe row's id is the build group whose key equals its own as
    Python values (``1 = 1.0 = TRUE``, ``2**53 + 1 ≠ 2.0**53``, NULL equal
    to nothing), ``n_groups`` when none does — across layouts in either
    direction, empty sides, no key at all, and composite keys wide enough
    that the probe passes through a renumbering."""
    n_build, build, n_probe, probe = instance
    coder = K.KeyCoder([build_column(c) for c in build], n_build)
    found = coder.lookup([build_column(c) for c in probe], n_probe).tolist()
    build_rows = list(zip(*build)) if build else [()] * n_build
    probe_rows = list(zip(*probe)) if probe else [()] * n_probe
    ids = coder.ids().tolist()
    for row, got in zip(probe_rows, found):
        equal = [
            ids[j]
            for j, other in enumerate(build_rows)
            if all(v is not None and v == w for v, w in zip(row, other))
        ]
        assert got == (equal[0] if equal else coder.n_groups)
        assert set(equal) <= {got}


def test_factorize_stays_exact_when_offset_codes_are_sparse():
    """Offset-coded int keys are not dense: a column of two values at the
    ends of a just-countable range has cardinality = the range, so the
    running bound passes 2**62 after a few columns although the data has
    a handful of distinct rows.  Rows 0 and 1 differ by the digits of
    2**64 in that radix: without the renumbering they share a code.  A
    probe of the same rows passes through the same renumbering."""
    n = 2000
    span = widest_counted_range(n)
    radix, digits, rest = span + 2, [], 2**64
    while rest:
        rest, digit = divmod(rest, radix)
        digits.append(digit)
    assert max(digits) < span
    columns = []
    for digit in reversed(digits):
        values = np.zeros(n, dtype=np.int64)
        values[1], values[2] = digit, span - 1  # row 2 pins the range
        columns.append(values)
    coder = K.KeyCoder([(c, None) for c in columns], n)
    assert all(column.cardinality == span for column in coder._columns)
    assert coder._steps, "no renumbering"
    ids = coder.ids()
    assert coder.ok.all() and coder.n_groups == 3 and ids[0] != ids[1]
    assert coder.lookup([(c, None) for c in columns], n).tolist() == ids.tolist()

    keys = [f"K{i}" for i in range(len(columns))]
    database = Database()
    database.create_table("w", keys, list(zip(*(c.tolist() for c in columns))))
    sql = f"SELECT {', '.join(keys)}, COUNT(*) FROM w GROUP BY {', '.join(keys)}"
    vec = database.execute(sql, options=VECTORIZED)
    assert len(vec) == 3
    assert_bag_equal(database.execute(sql, options=EvalOptions(vectorized=False)), vec, sql)
    assert database.resilience_info()["degradations"] == 0


# ---------------------------------------------------------------------------
# both engines over generated instances
# ---------------------------------------------------------------------------


@budget(40, 1500)
@given(key_columns(max_rows=24, min_columns=5, ints_only=True), st.data())
def test_engines_agree_on_generated_key_shapes(drawn, data):
    n, columns = drawn
    keys = [f"K{i}" for i in range(len(columns))]
    database = Database()
    database.create_table("w", keys, list(zip(*columns)) if n else [])
    some = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=5, unique=True))
    key_list = ", ".join(some)
    join_on = " AND ".join(f"a.{k} = b.{k}" for k in some)
    for sql in (
        f"SELECT {key_list}, COUNT(*), SUM({keys[0]}), MIN({keys[1]}), COUNT(DISTINCT {keys[2]})"
        f" FROM w GROUP BY {key_list}",
        f"SELECT DISTINCT {key_list} FROM w",
        "SELECT DISTINCT * FROM w",
        f"SELECT a.{keys[0]}, b.{keys[4]} FROM w a, w b WHERE {join_on}",
        f"SELECT {some[0]}, COUNT(DISTINCT *) FROM w GROUP BY {some[0]}",
    ):
        assert_bag_equal(database.execute(sql), database.execute(sql, options=VECTORIZED), sql)
    assert database.resilience_info()["degradations"] == 0


# ---------------------------------------------------------------------------
# the sort budget of Fig. 7's unnested plans
# ---------------------------------------------------------------------------


class SortCalls:
    """Counts ``np.unique`` / ``sort`` / ``lexsort`` / ``argsort`` /
    ``searchsorted`` calls whose caller is ``repro.engine`` code
    (``np.unique``'s own internal sort is numpy's business and is part of
    the one call)."""

    NAMES = ("unique", "sort", "lexsort", "argsort", "searchsorted")

    def __init__(self, monkeypatch):
        self.counts = Counter()
        for name in self.NAMES:
            monkeypatch.setattr(np, name, self._counting(name, getattr(np, name)))

    def _counting(self, name, function):
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__", "").startswith("repro.engine"):
                self.counts[name] += 1
            return function(*args, **kwargs)

        return wrapper


#: Sorts left in each statement's warm execution at RST SF (1,1,1) x
#: 10 000 rows.  Each statement's ⟕ onto Γ(s) is one group-join, and its
#: build — S's key codes, groups and aggregates — is kept while s's
#: arrays are unchanged, with its key coder: a warm execution only looks
#: r's keys up in it and gathers, and those lookups count.  The sort left is
#: DISTINCT * over r's four columns, a composite code too wide to count —
#: one ``np.sort`` of packed (code, row) keys, no ``argsort``.  Q2's
#: DISTINCT * sees no rows and it has no DISTINCT aggregate.  No
#: ``np.unique`` and no ``searchsorted`` in any of them (15 / 10 / 25 and
#: 1 / 1 / 2 per execution before keys were coded by counting; 3 / 1 / 5
#: argsorts while the ⟕ still sorted its right side into runs; 2 / 0 / 3
#: argsorts, then sorts, while every execution built the group-joins).
SORT_BUDGET = {"Q1": {"sort": 1}, "Q2": {}, "Q3": {"sort": 1}}

#: The same after s and t are rewritten with their own rows (new arrays):
#: every build runs again, and each COUNT(DISTINCT *)'s (group, row) pair
#: code is one more ``np.sort`` — what every execution paid before builds
#: were kept.
COLD_SORT_BUDGET = {"Q1": {"sort": 2}, "Q2": {}, "Q3": {"sort": 3}}


@pytest.fixture(scope="module")
def fig7_database():
    database = Database()
    for table in generate_rst(1, 1, 1, RstConfig(rows_per_sf=10_000)).values():
        database.register(table)
    database.analyze()
    return database


@pytest.mark.parametrize("name", sorted(SORT_BUDGET))
def test_fig7_statement_sort_count(fig7_database, monkeypatch, name):
    statement = fig7_database.prepare(RST_QUERIES[name], "auto")
    expected = Counter(statement.execute(options=VECTORIZED).rows)  # warm: pivots, plan
    calls = SortCalls(monkeypatch)
    result = statement.execute(options=VECTORIZED)
    assert Counter(result.rows) == expected
    assert calls.counts == Counter(SORT_BUDGET[name])  # a missing name counts 0
    monkeypatch.undo()
    report = fig7_database.explain_analyze(RST_QUERIES[name], "auto", VECTORIZED)
    last = report.splitlines()[-1]
    assert last.startswith("-- engine: vectorized; 0 of "), last
    assert last.endswith("operators on the row interpreter"), last
    assert fig7_database.resilience_info()["degradations"] == 0


@pytest.mark.parametrize("name", sorted(COLD_SORT_BUDGET))
def test_fig7_statement_sort_count_after_writes(fig7_database, monkeypatch, name):
    statement = fig7_database.prepare(RST_QUERIES[name], "auto")
    expected = Counter(statement.execute(options=VECTORIZED).rows)
    for table, column in (("s", "B1"), ("t", "C1")):  # the same rows, in new arrays
        fig7_database.execute(f"INSERT INTO {table} VALUES (-1, -1, -1, -1)")
        fig7_database.execute(f"DELETE FROM {table} WHERE {column} = -1")
    calls = SortCalls(monkeypatch)
    result = statement.execute(options=VECTORIZED)
    assert Counter(result.rows) == expected
    assert calls.counts == Counter(COLD_SORT_BUDGET[name])


# ---------------------------------------------------------------------------
# one coder per group-join build, one lookup per probe
# ---------------------------------------------------------------------------

#: Group-joins in each statement's unnested plan (each ⟕ onto Γ(s) or Γ(t)).
GROUP_JOINS = {"Q1": 1, "Q2": 1, "Q3": 2}


class CoderCalls:
    """Counts the key coders built, by the class of the operator that
    built them (``NoneType`` for a helper function), and the lookups."""

    def __init__(self, monkeypatch):
        self.built, self.lookups = Counter(), 0
        init, lookup = K.KeyCoder.__init__, K.KeyCoder.lookup

        def counted_init(coder, columns, n):
            self.built[type(sys._getframe(1).f_locals.get("self")).__name__] += 1
            init(coder, columns, n)

        def counted_lookup(coder, columns, n):
            self.lookups += 1
            return lookup(coder, columns, n)

        monkeypatch.setattr(K.KeyCoder, "__init__", counted_init)
        monkeypatch.setattr(K.KeyCoder, "lookup", counted_lookup)


@pytest.mark.parametrize("name", sorted(GROUP_JOINS))
def test_fig7_group_joins_code_s_once(fig7_database, monkeypatch, name):
    """A warm execution builds no group-join coder and looks L up once per
    group-join; a cold one (s and t rewritten with their own rows) builds
    exactly one coder per group-join — S is coded once, never with L."""
    statement = fig7_database.prepare(RST_QUERIES[name], "auto")
    expected = Counter(statement.execute(options=VECTORIZED).rows)
    calls = CoderCalls(monkeypatch)
    assert Counter(statement.execute(options=VECTORIZED).rows) == expected
    assert (calls.built["VGroupJoin"], calls.lookups) == (0, GROUP_JOINS[name])
    for table, column in (("s", "B1"), ("t", "C1")):  # the same rows, in new arrays
        fig7_database.execute(f"INSERT INTO {table} VALUES (-1, -1, -1, -1)")
        fig7_database.execute(f"DELETE FROM {table} WHERE {column} = -1")
    calls.built.clear()
    calls.lookups = 0
    assert Counter(statement.execute(options=VECTORIZED).rows) == expected
    assert (calls.built["VGroupJoin"], calls.lookups) == (GROUP_JOINS[name],) * 2
