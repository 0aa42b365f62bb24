"""Plan regret: does ``auto`` keep the faster of its two alternatives?

For every text the tool plans the ``canonical`` and the ``unnested``
alternative, times each on the batch engine (best of 5 runs; an
alternative stops repeating once its runs add up to 2 s, and a single run
is cut at 10 s), and reads which one ``auto`` keeps.  The
corpus, by group:

* ``pool``: the 256 ``adhoc_cold`` texts over RST at 100 rows per SF,
  once without and once with a hash index on ``s(B2)``;
* ``paper``: Q1–Q3 over RST at 10 000 rows per SF and Q4 at 1 000 (its
  unnested plan pairs every r row with every s row), without and with it;
* ``2d``: Query 2d over TPC-H.

Per group it prints the pass time (the sum over the texts) of auto's
choices, of all-unnested and of the oracle, which takes the faster
alternative of every text; ``optimizer.regret_p50`` / ``_max``, where a
text's regret is time(auto's choice) ÷ time(its faster alternative); and
``optimizer.choice_accuracy``, the share of texts where auto kept the
faster one.  Every text whose regret exceeds 2 is listed, and the exit
status is 1 if there is one.

The cost model is linear in its constants: a plan costs its tuple-touch
units U plus ``C_OP`` × its operator evaluations N.  The tool reads U and N
of every timed plan from ``repro.optimizer.cost`` (``C_OP`` set to 0, then
to 1), fits time ≈ a·U + b·N over the pool by least squares, reports
``C_OP`` = b / a, and sweeps ``C_OP``: what auto's choices would cost with
each value.  From the repository root::

    python tools/plan_regret.py                  # every group, ≈ 2 min
    python tools/plan_regret.py --groups pool    # the pool only, ≈ 30 s
    python tools/plan_regret.py --src OTHER_CHECKOUT/src --groups pool
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import statistics
import sys
import time
from dataclasses import dataclass

from plan_corpus import pool_texts

ROOT = pathlib.Path(__file__).resolve().parent.parent
GROUPS = ("pool", "paper", "2d")
ALTERNATIVES = ("canonical", "unnested")
REPEAT = 5
SPEND_S = 2.0
TIMEOUT_S = 10.0
FLAG = 2.0
SWEEP = (0, 5, 10, 20, 30, 40, 50, 75, 100, 200, 500)


@dataclass
class Entry:
    group: str
    label: str
    sql: str
    chosen: str  # auto's alternative
    ms: dict  # alternative -> best time; a cut run reads as the timeout
    cut: set  # alternatives whose run was cut
    units: dict | None  # alternative -> (U, N); None when the model has no C_OP

    @property
    def best(self) -> float:
        return min(self.ms.values())

    @property
    def regret(self) -> float:
        return self.ms[self.chosen] / self.best


def cases(groups):
    """``(group, label, catalog, sql)`` in a fixed order."""
    from repro.bench.queries import QUERY_2D, RST_QUERIES
    from repro.datagen import RstConfig, rst_catalog, tpch_catalog

    sets = []
    if "pool" in groups:
        sets.append(("pool", 100, pool_texts()))
    if "paper" in groups:
        paper = list(RST_QUERIES.items())
        sets.append(("Q1-Q3@10000", 10_000, paper[:3]))
        # Q4's unnested plan builds |r|·|s| pairs: 10⁸ at 10 000 rows per SF.
        sets.append(("Q4@1000", 1_000, paper[3:]))
    for name, rows, texts in sets:
        for indexed in (False, True):
            catalog = rst_catalog(1, 1, 1, RstConfig(rows_per_sf=rows))
            if indexed:
                catalog.create_index("s_b2", "s", "B2")
            for label, sql in texts:
                yield f"{name} index={indexed}", label, catalog, sql
    if "2d" in groups:
        yield "2d", "2d", tpch_catalog(), QUERY_2D


def cost_units(plan, catalog):
    """``(U, N)``: the plan's cost with ``C_OP`` = 0, and what one more
    unit of ``C_OP`` adds."""
    from repro.optimizer import cost

    if not hasattr(cost, "C_OP"):
        return None
    saved = cost.C_OP
    try:
        cost.C_OP = 0.0
        base = cost.CostModel(catalog).cost(plan)
        cost.C_OP = 1.0
        return base, cost.CostModel(catalog).cost(plan) - base
    finally:
        cost.C_OP = saved


def measure(group, label, catalog, sql) -> Entry:
    from repro import EvalOptions
    from repro.errors import BudgetExceeded
    from repro.optimizer import plan_query

    plans = {name: plan_query(sql, catalog, name) for name in ALTERNATIVES}
    if plans["unnested"].chosen_alternative == "canonical":
        plans = {"canonical": plans["canonical"]}  # nothing unnested: one plan
    options = EvalOptions(vectorized=True, budget_seconds=TIMEOUT_S)
    best = {name: math.inf for name in plans}
    spent = dict.fromkeys(plans, 0.0)
    cut = set()
    for _ in range(REPEAT):
        for name, planned in plans.items():
            if name in cut or spent[name] > SPEND_S:
                continue
            start = time.perf_counter()
            try:
                planned.execute(catalog, options)
            except BudgetExceeded:
                cut.add(name)
                best[name] = TIMEOUT_S
                continue
            elapsed = time.perf_counter() - start
            spent[name] += elapsed
            best[name] = min(best[name], elapsed)
    ms = {name: best[name] * 1e3 for name in plans}
    units = {name: cost_units(planned.logical, catalog) for name, planned in plans.items()}
    if "unnested" not in plans:
        ms["unnested"], units["unnested"] = ms["canonical"], units["canonical"]
    chosen = plan_query(sql, catalog, "auto").chosen_alternative
    if None in units.values():
        units = None
    return Entry(group, label, sql, chosen, ms, cut, units)


def summary(entries, choice=None) -> dict:
    """The group's metrics; ``choice`` maps an entry to the alternative
    to charge (auto's by default)."""
    choice = choice or (lambda entry: entry.chosen)
    regrets = sorted(entry.ms[choice(entry)] / entry.best for entry in entries)
    return {
        "texts": len(entries),
        "chose_unnested": sum(choice(entry) == "unnested" for entry in entries),
        "pass.auto_ms": sum(entry.ms[choice(entry)] for entry in entries),
        "pass.unnested_ms": sum(entry.ms["unnested"] for entry in entries),
        "pass.canonical_ms": sum(entry.ms["canonical"] for entry in entries),
        "pass.oracle_ms": sum(entry.best for entry in entries),
        "optimizer.regret_p50": statistics.median(regrets),
        "optimizer.regret_max": regrets[-1],
        "optimizer.choice_accuracy": sum(r == 1.0 for r in regrets) / len(regrets),
    }


def by_group(entries) -> dict:
    groups: dict = {}
    for entry in entries:
        groups.setdefault(entry.group, []).append(entry)
    return groups


def print_table(entries) -> None:
    header = (
        f"{'group':<24} {'texts':>5} {'unnest':>6} {'auto ms':>9} {'unnested ms':>11}"
        f" {'oracle ms':>9} {'canonical ms':>12} {'regret p50':>10} {'regret max':>10}"
        f" {'accuracy':>8}"
    )
    print(header)
    for group, members in by_group(entries).items():
        row = summary(members)
        print(
            f"{group:<24} {row['texts']:>5} {row['chose_unnested']:>6}"
            f" {row['pass.auto_ms']:>9.1f} {row['pass.unnested_ms']:>11.1f}"
            f" {row['pass.oracle_ms']:>9.1f} {row['pass.canonical_ms']:>12.1f}"
            f" {row['optimizer.regret_p50']:>10.3f} {row['optimizer.regret_max']:>10.2f}"
            f" {row['optimizer.choice_accuracy']:>8.3f}"
        )


def describe(entry) -> str:
    times = " ".join(
        f"{name}={'>' if name in entry.cut else ''}{entry.ms[name]:.2f}ms" for name in ALTERNATIVES
    )
    text = " ".join(entry.sql.split())
    return f"{entry.group:<24} {entry.label:<9} auto={entry.chosen:<9} {times} regret={entry.regret:.2f}  {text}"


def fit(entries) -> tuple[float, float]:
    """``(a, b)``: µs per tuple unit and per operator evaluation, by least
    squares over every distinct timed plan (cut runs left out)."""
    import numpy as np

    rows = {}
    for entry in entries:
        for name in ALTERNATIVES:
            if name not in entry.cut:
                rows[entry.group, entry.label, entry.units[name]] = entry.ms[name] * 1e3
    units = np.array([key[2] for key in rows])
    solution, *_ = np.linalg.lstsq(units, np.array(list(rows.values())), rcond=None)
    return float(solution[0]), float(solution[1])


def sweep_choice(c_op: float):
    def choice(entry) -> str:
        canonical, unnested = (entry.units[name] for name in ALTERNATIVES)
        cheaper = unnested[0] + c_op * unnested[1] < canonical[0] + c_op * canonical[1]
        return "unnested" if cheaper else "canonical"

    return choice


def print_model(entries) -> None:
    from repro.optimizer import cost

    pool = [entry for entry in entries if entry.group.startswith("pool")]
    if not pool:
        return
    if pool[0].units is None:
        print("\n(the cost model has no C_OP: no fit, no sweep)")
        return
    groups = by_group(pool)
    print()
    for name, members in [("the pool", pool), *groups.items()]:
        a, b = fit(members)
        print(
            f"fit over {name}: {a:.4f} µs per tuple unit, {b:.2f} µs per operator"
            f" evaluation -> C_OP = {b / a:.1f}"
        )
    print(f"the model has C_OP = {cost.C_OP:g}")
    predicted = sum(sweep_choice(cost.C_OP)(entry) == entry.chosen for entry in pool)
    print(f"the linear model reproduces auto's choice on {predicted} of {len(pool)} texts")
    print("\nC_OP sweep: auto's pass ms / choice_accuracy / texts unnested, per group")
    print(f"{'C_OP':>6} " + " ".join(f"{group:>28}" for group in groups))
    for c_op in SWEEP:
        cells = []
        for members in groups.values():
            row = summary(members, sweep_choice(c_op))
            cells.append(
                f"{row['pass.auto_ms']:>10.1f} / {row['optimizer.choice_accuracy']:.3f}"
                f" / {row['chose_unnested']:>3}"
            )
        print(f"{c_op:>6g} " + " ".join(f"{cell:>28}" for cell in cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="the source tree to import repro from")
    parser.add_argument("--groups", default=",".join(GROUPS), help=f"comma-separated subset of {GROUPS}")
    parser.add_argument("--texts", action="store_true", help="print one line per text")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    groups = set(args.groups.split(","))
    if groups - set(GROUPS):
        parser.error(f"unknown groups {sorted(groups - set(GROUPS))}; have {GROUPS}")

    entries = [measure(*case) for case in cases(groups)]
    if args.texts:
        for entry in entries:
            print(describe(entry))
        print()
    print_table(entries)
    flagged = [entry for entry in entries if entry.regret > FLAG]
    if flagged:
        print(f"\n{len(flagged)} texts with regret above {FLAG:g}:")
        for entry in flagged:
            print(describe(entry))
    print_model(entries)
    print()
    for group, members in by_group(entries).items():
        print(json.dumps({"group": group, **summary(members)}))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
