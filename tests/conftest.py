"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.storage import Catalog, Schema, Table


def make_rst_catalog(
    n_r: int = 30,
    n_s: int = 25,
    n_t: int = 20,
    seed: int = 1234,
    small_domain: int = 6,
    big_domain: int = 3000,
    null_rate: float = 0.0,
) -> Catalog:
    """A small, seeded RST-style catalog for correctness tests.

    Columns 1-3 draw from a small domain (so counts collide with linking
    attributes often enough to make results non-trivial); column 4 draws
    from a large domain (the ``> 1500`` style predicates).  ``null_rate``
    injects NULLs uniformly for 3VL tests.
    """
    rng = random.Random(seed)

    def rows(count):
        out = []
        for _ in range(count):
            values = [rng.randrange(small_domain) for _ in range(3)]
            values.append(rng.randrange(big_domain))
            if null_rate:
                for index in range(4):
                    if rng.random() < null_rate:
                        values[index] = None
            out.append(tuple(values))
        return out

    catalog = Catalog()
    catalog.register(Table(Schema(["A1", "A2", "A3", "A4"]), rows(n_r), name="r"))
    catalog.register(Table(Schema(["B1", "B2", "B3", "B4"]), rows(n_s), name="s"))
    catalog.register(Table(Schema(["C1", "C2", "C3", "C4"]), rows(n_t), name="t"))
    return catalog


def generated_texts(config, count: int) -> list[str]:
    """The first ``count`` distinct texts of a
    :class:`~repro.datagen.queries.QueryGenerator` — with
    ``QueryGenConfig(seed=2007, p_linear=0.0)`` and 256, the
    ``adhoc_cold`` benchmark's pool."""
    from repro.datagen.queries import QueryGenerator

    generator, texts = QueryGenerator(config), {}
    while len(texts) < count:
        texts.setdefault(generator.query())
    return list(texts)


#: Q2's disjunctive correlation and Q1's disjunctive linking as writes over
#: a lone ``r(A1..A4)`` — what the replication and failover parity tests
#: add to their streams, so a follower replays on an unnested plan and the
#: batch engine what the primary ran on the row engine.
Q1_WHERE = "A1 = (SELECT COUNT(DISTINCT *) FROM r r2 WHERE r2.A2 = r.A2) OR A4 > 450"
PAPER_SHAPED_WRITES = (
    # Two distinct rows share A2 = 900, so Q1's count is 2 = A1 in the first.
    "INSERT INTO r VALUES (2, 900, 0, 0), (50, 900, 0, 0)",
    "UPDATE r SET A4 = A4 + 1"
    " WHERE A1 <= (SELECT COUNT(*) FROM r r2 WHERE r2.A2 = r.A2 OR r2.A4 > 400)",
    "DELETE FROM r WHERE " + Q1_WHERE,
    # The first row satisfies Q1's subquery disjunct and the second its
    # simple one, so Eqv. 2's plan (σ⁺ first) delivers them to the INSERT …
    # SELECT in the opposite order to the canonical plan's scan.
    "INSERT INTO r VALUES (1, 901, 0, 0), (60, 902, 0, 999)",
    "INSERT INTO r SELECT * FROM r WHERE " + Q1_WHERE,
)


@pytest.fixture
def rst_catalog_small() -> Catalog:
    return make_rst_catalog()


@pytest.fixture
def rst_catalog_nulls() -> Catalog:
    return make_rst_catalog(seed=99, null_rate=0.15)


def assert_bag_equal(left: Table, right: Table, message: str = ""):
    """Order-insensitive multiset comparison with a helpful diff."""
    from collections import Counter

    lbag = Counter(left.rows)
    rbag = Counter(tuple(r) for r in right.rows)
    if lbag != rbag:
        only_left = list((lbag - rbag).elements())[:5]
        only_right = list((rbag - lbag).elements())[:5]
        raise AssertionError(
            f"bags differ {message}: {len(left)} vs {len(right)} rows; "
            f"only-left sample {only_left}; only-right sample {only_right}"
        )
