"""The operator contract: one method runs every operator invocation of
both engines — fault site, memo lookup, run, memo store, memory charge
and statistics, in that order.

Two properties are checked from the outside, on Q1 and on a
θ-correlated text of the ``adhoc_cold`` pool (Eqv. 5: σ± and ⋈±),
unnested, on each engine:

* every read of an operator — memo hits included — hits its fault site;
* every result an operator produces is charged to the memory governor,
  bypass splits included, at the one per-row rate of the execution.
"""

from collections import Counter

import pytest

from repro.algebra import expr as E
from repro.algebra import ops as L
from repro.bench.queries import Q1
from repro.datagen import RstConfig, rst_catalog
from repro.engine import EvalOptions, execute_plan
from repro.engine.governor import DEFAULT_ROW_BYTES, ResourceLimits
from repro.faults import FaultConfig, FaultInjector
from repro.optimizer import plan_query

#: From the ``adhoc_cold`` pool: a ``>``-correlated MIN under a
#: disjunction, unnested into ν + ⋈± + binary Γ over a σ± split.
THETA = (
    "SELECT DISTINCT * FROM r WHERE A1 > (SELECT MIN(B1) FROM s "
    "WHERE A2 > B2 OR B3 = 2) OR A4 > 1500"
)

SPLITS = {
    False: {Q1: {"PBypassFilter"}, THETA: {"PBypassFilter", "PBypassNLJoin"}},
    True: {Q1: {"VBypassFilter"}, THETA: {"VBypassFilter", "VBypassJoin"}},
}


class SiteRecorder(FaultInjector):
    """Every engine site at probability 1 and no count limit, recorded
    instead of raised so the run completes and each hit can be counted."""

    def __init__(self):
        super().__init__(FaultConfig(sites=("engine.",), probability=1.0, max_faults=None))
        self.hits: Counter = Counter()

    def maybe_fail(self, site: str) -> None:
        if self.matches(site):
            self.hits[site] += 1


def site(node) -> str:
    return node.FAULT_DOMAIN + type(node).__name__


def expected_hits(ctx) -> Counter:
    """The reads of every operator, per site: the root is read once, and
    each run of an operator reads each of its inputs once."""
    runs = {node_id: calls for node_id, (_, calls) in ctx.stats.node_rows.items()}
    expected = Counter({site(ctx.root): 1})
    seen: set = set()

    def visit(node) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        for child in node.children():
            expected[site(child)] += runs.get(id(node), 0)
            visit(child)

    visit(ctx.root)
    return expected


def run(plan, catalog, vectorized: bool):
    recorder = SiteRecorder()
    options = EvalOptions(
        vectorized=vectorized,
        collect_stats=True,
        faults=recorder,
        resources=ResourceLimits(max_memory_bytes=1 << 40),
    )
    _, ctx = execute_plan(plan, catalog, options, with_context=True)
    return recorder, ctx


@pytest.fixture(scope="module")
def catalog():
    return rst_catalog(1, 1, 1, RstConfig(rows_per_sf=100))


@pytest.mark.parametrize("vectorized", [False, True], ids=["row", "vectorized"])
@pytest.mark.parametrize("sql", [Q1, THETA], ids=["q1", "theta"])
class TestOneContract:
    def test_every_invocation_hits_its_site(self, catalog, sql, vectorized):
        plan = plan_query(sql, catalog, "unnested").logical
        recorder, ctx = run(plan, catalog, vectorized)
        assert ctx.stats.subquery_evals == 0  # every read is a plan edge
        expected = expected_hits(ctx)
        runs = sum(calls for _, calls in ctx.stats.node_rows.values())
        assert sum(expected.values()) > runs, "no memo hit to check"
        assert recorder.hits == expected

    def test_every_result_is_charged_splits_included(self, catalog, sql, vectorized):
        plan = plan_query(sql, catalog, "unnested").logical
        _, ctx = run(plan, catalog, vectorized)
        assert SPLITS[vectorized][sql] <= set(ctx.stats.rows_produced)
        produced = sum(rows for rows, _ in ctx.stats.node_rows.values())
        per_row = ctx._row_bytes or DEFAULT_ROW_BYTES
        assert ctx.memory_bytes == produced * per_row > 0


def test_a_row_parent_reading_a_memoised_batch_hits_its_site_every_time(catalog):
    # INTERSECT stays on the row interpreter: it reads the shared batch
    # filter twice under one environment, the second read a memo hit.
    shared = L.Select(
        L.Scan("r", catalog.table("r").schema), E.Comparison(">", E.col("A4"), E.lit(1500))
    )
    recorder, ctx = run(L.Intersect(shared, shared), catalog, vectorized=True)
    assert type(ctx.root).__name__ == "PIntersect"
    assert recorder.hits["engine.vector.VFilter"] == 2
    assert recorder.hits == expected_hits(ctx)
