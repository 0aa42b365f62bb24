"""Helpers shared by the benchmark files."""

from __future__ import annotations

import random
import time

from repro.engine import EvalOptions
from repro.optimizer import plan_query

#: Every benchmark that generates its own data derives its RNG from this
#: seed, so the counts and query answers the suites assert are the same
#: on every run.
BENCH_SEED = 20260809

#: The figure and ablation benchmarks time the row interpreter — the
#: paper's tuple-at-a-time setting — whatever the library's default engine.
ROW = EvalOptions(vectorized=False)


def seeded_rng(workload: str) -> random.Random:
    """A deterministic per-workload RNG (same rows every run)."""
    return random.Random(f"{BENCH_SEED}:{workload}")


def bench_query(benchmark, sql, catalog, strategy, rounds=1, budget=120.0):
    """Benchmark one (query, strategy) cell.

    Planning happens once outside the measurement (the paper measures
    execution of prepared plans); each measured round runs the plan with
    a fresh execution context.
    """
    planned = plan_query(sql, catalog, strategy)
    options = EvalOptions(vectorized=False, budget_seconds=budget)

    def run():
        return planned.execute(catalog, options)

    result = benchmark.pedantic(run, rounds=rounds, iterations=1, warmup_rounds=0)
    return result


def timed(sql, catalog, strategy, budget=120.0):
    """Single timed execution (used by the shape-assertion tests)."""
    planned = plan_query(sql, catalog, strategy)
    options = EvalOptions(vectorized=False, budget_seconds=budget)
    start = time.perf_counter()
    table = planned.execute(catalog, options)
    return time.perf_counter() - start, table
