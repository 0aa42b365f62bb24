"""The runtime: physical operators, expression compiler, DAG executor.

The engine is a materialising, pull-based evaluator over Python tuples:

* :mod:`repro.engine.context` — per-execution state (memoisation of DAG
  streams and correlated subqueries, wall-clock budget, counters);
* :mod:`repro.engine.evaluate` — two-stage expression compilation:
  ``compile → bind(ctx, env) → fn(row)``, so that per-row hot loops touch
  no dictionaries;
* :mod:`repro.engine.operators` — the physical algebra (hash joins and
  grouping, bypass partitioning, binary grouping, numbering, ...);
* :mod:`repro.engine.compile` — logical→physical lowering, including
  equi-key extraction for hash variants and DAG sharing detection;
* :mod:`repro.engine.executor` — the public entry point.

The default backend (``EvalOptions()``, ``vectorized=True``) swaps the
tuple-at-a-time interpreter for columnar batch execution, falling back
to it per operator; ``EvalOptions(vectorized=False)`` runs it whole:

* :mod:`repro.engine.vector_kernels` — batched 3VL predicate/expression
  kernels producing truth-pair masks and column arrays;
* :mod:`repro.engine.vector_ops` — batch physical operators, with bypass
  selection expressed as complementary selection vectors;
* :mod:`repro.engine.vector_compile` — the fallback-aware lowering.
"""

from repro.engine.context import EvalOptions, ExecContext, ExecStats
from repro.engine.executor import execute_plan
from repro.engine.governor import ResourceLimits

__all__ = [
    "EvalOptions",
    "ExecContext",
    "ExecStats",
    "ResourceLimits",
    "execute_plan",
]
