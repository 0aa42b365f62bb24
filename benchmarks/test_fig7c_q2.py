"""Figure 7(c): Q2 — disjunctive correlation over the RST grid.

The paper's starkest result: no commercial system and no prior technique
can unnest disjunctive correlation, so everything except the bypass plan
is quadratic; the unnested plan wins by three to four orders of
magnitude at scale 10×10.
"""

import pytest

from benchmarks.bench_util import ROW, bench_query, timed
from repro.bench.queries import Q2

GRID = [(1, 1), (5, 5), (10, 10)]
STRATEGIES = ["s1", "s2", "s3", "canonical", "unnested"]


@pytest.mark.parametrize("sf", GRID, ids=lambda sf: f"sf{sf[0]}x{sf[1]}")
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fig7c_q2(benchmark, rst_catalogs, sf, strategy):
    catalog = rst_catalogs(*sf)
    rounds = 3 if strategy == "unnested" else 1
    benchmark.group = f"fig7c-q2-sf{sf[0]}x{sf[1]}"
    bench_query(benchmark, Q2, catalog, strategy, rounds=rounds)


@pytest.mark.timing
class TestShape:
    def test_unnested_dominates_everything(self, rst_catalogs):
        catalog = rst_catalogs(10, 10)
        times = {s: timed(Q2, catalog, s) for s in ("canonical", "s2", "s3", "unnested")}
        reference = times["canonical"][1]
        for strategy, (_, table) in times.items():
            assert reference.bag_equals(table), strategy
        assert times["canonical"][0] / times["unnested"][0] > 20

    def test_s3_no_better_than_canonical(self, rst_catalogs):
        """Disjunct reordering cannot help: the disjunction is *inside*
        the subquery (Fig. 7(c): S3 tracks S1/canonical)."""
        catalog = rst_catalogs(10, 10)
        canonical_time, _ = timed(Q2, catalog, "canonical")
        s3_time, _ = timed(Q2, catalog, "s3")
        assert s3_time > canonical_time * 0.5  # same order of magnitude

    def test_eqv4_and_eqv5_agree(self, rst_catalogs):
        from repro.optimizer import plan_query
        from repro.rewrite import UnnestOptions

        catalog = rst_catalogs(5, 5)
        eqv4 = plan_query(Q2, catalog, "unnested").execute(catalog, ROW)
        eqv5 = plan_query(
            Q2, catalog, "unnested", UnnestOptions(enable_eqv4=False)
        ).execute(catalog, ROW)
        assert eqv4.bag_equals(eqv5)
