"""Print the chosen plan of a fixed query corpus, for diffing two checkouts.

The corpus is Q1–Q4 and the 256 ``adhoc_cold`` texts over RST at 100
rows per SF (each without and with a hash index on ``s(B2)``), and Query
2d over TPC-H, under the ``canonical``, ``unnested``, ``auto`` and ``s3``
strategies.  Each entry is ``Database.explain``'s output, cost header
included, so a refactor that must not change any plan shows an empty
diff.  Stdlib only; from the repository root::

    python tools/plan_corpus.py --src OTHER_CHECKOUT/src > before.txt
    python tools/plan_corpus.py > after.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
STRATEGIES = ("canonical", "unnested", "auto", "s3")
ADHOC_TEXTS = 256


def pool_texts() -> list:
    """``(label, sql)`` for the ``adhoc_cold`` pool, in the benchmark's
    generation order (before its per-seed shuffle)."""
    from repro.datagen.queries import QueryGenConfig, QueryGenerator

    generator = QueryGenerator(QueryGenConfig(seed=2007, p_linear=0.0))
    texts: dict = {}
    while len(texts) < ADHOC_TEXTS:
        texts.setdefault(generator.query())
    return [(f"adhoc{number:03d}", sql) for number, sql in enumerate(texts)]


def corpus():
    """``(label, database, sql)`` for every entry, in a fixed order."""
    from repro import Database
    from repro.bench.queries import QUERY_2D, RST_QUERIES
    from repro.datagen import RstConfig, rst_catalog, tpch_catalog

    queries = list(RST_QUERIES.items()) + pool_texts()
    for indexed in (False, True):
        database = Database()
        catalog = rst_catalog(1, 1, 1, RstConfig(rows_per_sf=100))
        for name in catalog.table_names():
            database.register(catalog.table(name))
        if indexed:
            database.create_index("s_b2", "s", "B2")
        for name, sql in queries:
            yield f"{name} index={indexed}", database, sql
    tpch = Database()
    catalog = tpch_catalog()
    for name in catalog.table_names():
        tpch.register(catalog.table(name))
    yield "2d", tpch, QUERY_2D


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="the source tree to import repro from")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    for label, database, sql in corpus():
        for strategy in STRATEGIES:
            try:
                text = database.explain(sql, strategy)
            except Exception as error:  # a refused plan is part of the output too
                text = f"error: {type(error).__name__}: {error}"
            print(f"=== {label} {strategy}\n{text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
