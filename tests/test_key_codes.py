"""Key codes: the counting kernels against pure-Python references, and the
sort budget of Fig. 7's unnested plans.

``vector_ops`` codes, groups, deduplicates and join-matches keys by
counting into a table when the code range is O(batch length) and by
sorting otherwise (docs/vectorized-engine.md "Key codes").  Unit data
never has the shapes that separate the two: ranges on either side of the
threshold, int64 extremes whose ``max - min`` passes 2**63, many
wide-cardinality columns, NULL masks, empty and one-row batches.  The
property tests generate them and compare with dicts and sets; the
engine-level variant runs generated statements over such tables on both
engines.  ``HYPOTHESIS_PROFILE=nightly`` (the nightly workflow) raises
the budget.
"""

import os
import sys
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database
from repro.bench.queries import RST_QUERIES
from repro.datagen import RstConfig, generate_rst
from repro.engine import EvalOptions
from tests.conftest import assert_bag_equal

np = pytest.importorskip("numpy")

from repro.engine import vector_ops as V  # noqa: E402
from repro.storage.batch import build_column  # noqa: E402

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
    while V._small_range(np.array([0, 2 * width - 1]), n):
        width *= 2
    return next(w for w in range(2 * width, 0, -1) if V._small_range(np.array([0, w - 1]), n))


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
# kernels against references
# ---------------------------------------------------------------------------


@budget(150, 5000)
@given(key_columns(), st.booleans())
def test_factorize_codes_rows_like_a_dict_of_tuples(drawn, seeded):
    n, columns = drawn
    rows = list(zip(*columns)) if n else []
    seed = None
    if seeded:  # as grouping extends its group ids with a DISTINCT argument
        group_ids = np.arange(n, dtype=np.int64) % 3
        seed = (group_ids, 3)
        rows = [(int(g),) + row for g, row in zip(group_ids, rows)]
    codes, ok = V._factorize([build_column(c) for c in columns], n, seed)
    assert codes.dtype == np.int64 and len(codes) == len(ok) == n
    assert ok.tolist() == [None not in row[seeded:] for row in rows]
    # Equal rows (NULL a value of its own, -0.0 = 0.0) <=> equal codes.
    code_of, row_of = {}, {}
    for row, code in zip(rows, codes.tolist()):
        assert code_of.setdefault(row, code) == code, "equal rows, different codes"
        assert row_of.setdefault(code, row) == row, "different rows share a code"


@budget(150, 5000)
@given(int64_codes())
def test_densify_matches_sorted_distinct(codes):
    values = codes.tolist()
    distinct = sorted(set(values))
    first_index, group_ids = V._densify(codes)
    assert first_index.tolist() == [values.index(code) for code in distinct]
    assert group_ids.tolist() == [distinct.index(code) for code in values]
    only_first, nothing = V._densify(codes, want_inverse=False)
    assert only_first.tolist() == first_index.tolist() and nothing is None
    assert V._first_occurrences(codes).tolist() == sorted(first_index.tolist())


@budget(150, 5000)
@given(st.data())
def test_match_pairs_matches_a_nested_loop(data):
    # Shared code space: draw both sides from one pool so they do meet.
    pool = data.draw(int64_codes(30)).tolist() or [0]
    side = st.lists(st.sampled_from(pool) | st.integers(INT64_MIN, INT64_MAX), max_size=25)
    left, right = data.draw(side), data.draw(side)
    l_ok = data.draw(st.lists(st.booleans(), min_size=len(left), max_size=len(left)))
    r_ok = data.draw(st.lists(st.booleans(), min_size=len(right), max_size=len(right)))
    left_idx, right_idx = V._match_pairs(
        np.array(left, dtype=np.int64),
        np.array(right, dtype=np.int64),
        np.array(l_ok, dtype=bool),
        np.array(r_ok, dtype=bool),
    )
    expected = [
        (i, j)
        for i, lcode in enumerate(left)
        for j, rcode in enumerate(right)
        if l_ok[i] and r_ok[j] and lcode == rcode
    ]
    # Left-major, right rows in input order: what the row engine's hash
    # join emits, and what the operators' output order is built on.
    assert list(zip(left_idx.tolist(), right_idx.tolist())) == expected


def test_factorize_stays_exact_when_offset_codes_are_sparse():
    """Offset-coded int keys are not dense: a column of two values at the
    ends of a just-countable range has cardinality = the range, so the
    running bound passes 2**62 after a few columns although the data has
    a handful of distinct rows.  Rows 0 and 1 differ by the digits of
    2**64 in that radix: without the re-densify they share a code."""
    n = 2000
    span = widest_counted_range(n)
    radix, digits, rest = span + 1, [], 2**64
    while rest:
        rest, digit = divmod(rest, radix)
        digits.append(digit)
    assert max(digits) < span
    columns = []
    for digit in reversed(digits):
        values = np.zeros(n, dtype=np.int64)
        values[1], values[2] = digit, span - 1  # row 2 pins the range
        columns.append(values)
    assert all(V._factorize_one(c, None, n)[1] == span for c in columns)
    codes, ok = V._factorize([(c, None) for c in columns], n)
    assert ok.all() and codes[0] != codes[1]
    assert len(V._first_occurrences(codes)) == 3

    keys = [f"K{i}" for i in range(len(columns))]
    database = Database()
    database.create_table("w", keys, list(zip(*(c.tolist() for c in columns))))
    sql = f"SELECT {', '.join(keys)}, COUNT(*) FROM w GROUP BY {', '.join(keys)}"
    vec = database.execute(sql, options=VECTORIZED)
    assert len(vec) == 3
    assert_bag_equal(database.execute(sql), vec, sql)
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
    """Counts ``np.unique`` / ``argsort`` / ``searchsorted`` calls whose
    caller is ``repro.engine`` code (``np.unique``'s own internal
    ``argsort`` is numpy's business and is part of the one call)."""

    NAMES = ("unique", "argsort", "searchsorted")

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


#: Sorts left in each statement at RST SF (1,1,1) x 10 000 rows.  One
#: argsort per join puts the right side's (500 group) codes in runs; the
#: others are composite codes too wide to count: DISTINCT * over r's four
#: columns, and each COUNT(DISTINCT *)'s (group, row) pair code.  Q2's
#: DISTINCT * sees no rows and it has no DISTINCT aggregate.  No
#: ``np.unique`` and no ``searchsorted`` in any of them (15 / 10 / 25 and
#: 1 / 1 / 2 per execution before keys were coded by counting).
SORT_BUDGET = {"Q1": {"argsort": 3}, "Q2": {"argsort": 1}, "Q3": {"argsort": 5}}


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
    assert dict(calls.counts) == SORT_BUDGET[name]
    monkeypatch.undo()
    report = fig7_database.explain_analyze(RST_QUERIES[name], "auto", VECTORIZED)
    last = report.splitlines()[-1]
    assert last.startswith("-- engine: vectorized; 0 of "), last
    assert last.endswith("operators on the row interpreter"), last
    assert fig7_database.resilience_info()["degradations"] == 0
