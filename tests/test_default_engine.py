"""The batch engine is what a caller gets who names no engine.

``EvalOptions.vectorized`` is the one default: ``Database``, the served
``/query`` and ``/execute``, the shipped client and ``repro run`` all
leave the engine to it, and naming ``row`` still picks the row engine.
"""

from __future__ import annotations

import http.client
import io
import json
import re

import pytest

from repro import Database, EvalOptions
from repro.bench.queries import Q1, Q2, Q3
from repro.cli import main
from repro.datagen import RstConfig, rst_catalog
from repro.service.client import ServiceClient
from repro.service.server import QueryServer, ServerConfig


def make_db() -> Database:
    db = Database()
    catalog = rst_catalog(1, 1, 1, RstConfig(rows_per_sf=100))
    for name in catalog.table_names():
        db.register(catalog.table(name))
    return db


def post(server, path: str, payload: dict) -> dict:
    connection = http.client.HTTPConnection(*server.address)
    try:
        connection.request("POST", path, json.dumps(payload), {"Content-Type": "application/json"})
        response = connection.getresponse()
        body = json.loads(response.read())
    finally:
        connection.close()
    assert response.status == 200, body
    return body


def served_roots(path: str, extra: dict) -> set:
    """The engines a fresh server compiled ``Q1`` for, asked on ``path``."""
    db = make_db()
    server = QueryServer(db, ServerConfig(port=0)).start()
    try:
        if path == "/query":
            post(server, "/query", {"sql": Q1, **extra})
        else:
            session = post(server, "/session", {})["session"]
            statement = post(server, "/prepare", {"session": session, "sql": Q1})["statement"]
            post(server, "/execute", {"session": session, "statement": statement, **extra})
    finally:
        server.stop()
    return set(db.plan(Q1).roots)


@pytest.mark.parametrize("surface", ["explain_analyze", "/query", "/execute", "client", "cli"])
def test_no_engine_named_runs_the_batch_engine(surface, monkeypatch):
    if surface == "explain_analyze":
        db = make_db()
        for sql in (Q1, Q2, Q3):
            last = db.explain_analyze(sql).rstrip("\n").splitlines()[-1]
            assert re.fullmatch(
                r"-- engine: vectorized; 0 of \d+ operators on the row interpreter", last
            ), last
    elif surface in ("/query", "/execute"):
        assert served_roots(surface, {}) == {True}
    elif surface == "client":
        sent = []
        empty = {"columns": [], "rows": [], "row_count": 0, "truncated": False, "elapsed": 0.0}

        def request(method, path, payload, **kwargs):
            sent.append(payload)
            return empty

        client = ServiceClient("http://127.0.0.1:1")  # never dialled: _request is stubbed
        monkeypatch.setattr(client, "_request", request)
        client.query("SELECT A1 FROM r")
        assert sent == [{"sql": "SELECT A1 FROM r", "strategy": "auto"}]
    else:
        engines = []
        execute = Database.execute

        def spy(self, sql, strategy="auto", options=None, *args, **kwargs):
            engines.append((options or EvalOptions()).vectorized)
            return execute(self, sql, strategy, options, *args, **kwargs)

        monkeypatch.setattr(Database, "execute", spy)
        out = io.StringIO()
        assert main(["run", "--dataset", "rst:0.2", "--paper-query", "Q1"], out) == 0
        assert engines == [True]
        assert out.getvalue().rstrip().endswith("engine vectorized)")


@pytest.mark.parametrize("path", ["/query", "/execute"])
def test_a_named_row_engine_compiles_only_the_row_root(path):
    assert served_roots(path, {"engine": "row"}) == {False}
