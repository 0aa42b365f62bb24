"""The typed-column result frame: round trip, refusal, negotiation.

``decode(encode(body))`` must give what JSON and the client's tupling
give, value for value and type for type; a frame that fails any check
raises ``ValueError``; and only a request that names the frame's media
type gets one — from ``/query`` and ``/execute``, on success.
"""

from __future__ import annotations

import http.client
import json
import struct
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, EvalOptions
from repro.bench.queries import Q1
from repro.datagen import RstConfig, rst_catalog
from repro.replication.replica import ReplicaConfig, ReplicaServer
from repro.replication.routing import ReplicaSetClient
from repro.service import frame
from repro.service.client import ServiceClient, _result
from repro.service.server import QueryServer, ServerConfig
from repro.storage.batch import Batch
from repro.storage.schema import Schema
from repro.storage.table import Table

#: An AVG float column with NULLs from unmatched scalar subqueries, and a COUNT.
MIXED_SQL = (
    "SELECT A1, (SELECT AVG(B4) FROM s WHERE B2 = A2) AS avg_b4, "
    "(SELECT COUNT(*) FROM s WHERE B2 = A2) AS n FROM r"
)


def _typed(rows) -> list:
    """Rows as (type, repr) pairs: ``True`` is not ``1``, ``1.0`` is not ``1``,
    NaN equals NaN and -0.0 is not 0.0."""
    return [tuple((type(value), repr(value)) for value in row) for row in rows]


def _through_json(body: dict):
    return _result(json.loads(json.dumps(body)))


def _encode(body: dict) -> bytes:
    """``frame.encode`` of a body whose rows are a list, as the server's result Table."""
    return frame.encode({**body, "rows": Table(body["columns"], body["rows"])})


def _through_frame(body: dict):
    return _result(frame.decode(_encode(body)))


def _body(columns: list, rows: list, **extra) -> dict:
    return {"columns": columns, "rows": rows, "row_count": len(rows), "truncated": False,
            "elapsed": 0.0125, **extra}


# -- round trip -------------------------------------------------------------

_EDGES = [0, 1, -1, 2**31 - 1, -(2**31), 2**31, -(2**31) - 1, 2**63 - 1, -(2**63)]
_BEYOND = [2**63, -(2**63) - 1, 10**30]
_SPECIAL = [float("nan"), float("inf"), -float("inf"), -0.0]
_KINDS = {
    "int32": st.integers(-(2**31), 2**31 - 1),
    "int64": st.one_of(st.sampled_from(_EDGES), st.integers(-(2**63), 2**63 - 1)),
    "big": st.one_of(st.sampled_from(_EDGES + _BEYOND), st.integers()),
    "bool": st.booleans(),
    "float": st.one_of(st.floats(), st.sampled_from(_SPECIAL)),
    "none": st.none(),
    "text": st.text(),
}
_ANY = st.one_of(*_KINDS.values())


@st.composite
def result_bodies(draw):
    kinds = draw(st.lists(st.sampled_from([*_KINDS, "mixed"]), min_size=1, max_size=5))
    height = draw(st.integers(0, 12))
    columns = [
        draw(st.lists(_KINDS.get(kind, _ANY), min_size=height, max_size=height)) for kind in kinds
    ]
    causality = st.sampled_from(["commit_lsn", "applied_lsn", "era"])
    extra = draw(st.dictionaries(causality, st.integers(1, 99)))
    return _body([f"c{i}" for i in range(len(kinds))], list(zip(*columns)), **extra)


@settings(max_examples=300, deadline=None)
@given(result_bodies())
def test_a_frame_gives_back_what_json_gives(body):
    via_json, via_frame = _through_json(body), _through_frame(body)
    assert _typed(via_frame.rows) == _typed(via_json.rows)
    assert type(via_frame.rows) is list and all(type(row) is tuple for row in via_frame.rows)
    via_frame.rows = via_json.rows = None
    assert via_frame == via_json  # columns, counts and causality fields


@settings(max_examples=300, deadline=None)
@given(result_bodies())
def test_a_batch_result_frames_to_the_bytes_its_rows_frame_to(body):
    """The array path (a min/max check picks ``i`` or ``q``) and the
    value-sniffing path agree byte for byte, whatever the layouts."""
    schema = Schema(body["columns"])
    batch = Batch.from_rows(schema, body["rows"])
    assert frame.encode({**body, "rows": Table.adopt(schema, batch)}) == _encode(body)


def _layout(data: bytes) -> list:
    (size,) = struct.unpack_from("<I", data)
    return json.loads(data[4 : 4 + size])["layout"]


@pytest.mark.parametrize(
    "values, code, nbytes",
    [
        ([0, 2**31 - 1, -(2**31)], "i", 12),
        ([0, 2**31], "q", 16),
        ([-(2**63), 2**63 - 1], "q", 16),
        ([2**63], "j", len(b"[9223372036854775808]")),
        ([True, False], "j", len(b"[true, false]")),
        ([1.0, float("nan")], "d", 16),
        ([1, 1.0], "j", len(b"[1, 1.0]")),
        ([1, None], "j", len(b"[1, null]")),
        ([], "j", 2),
    ],
)
def test_each_column_takes_the_narrowest_code_that_keeps_its_values(values, code, nbytes):
    data = _encode(_body(["c"], [(value,) for value in values]))
    assert _layout(data) == [[code, nbytes]]


def test_a_binary_block_is_little_endian():
    data = _encode(_body(["c"], [(1,), (-2,)]))
    assert data.endswith(struct.pack("<ii", 1, -2))


# -- refusal ----------------------------------------------------------------


def _frame(header: dict, *blocks: bytes) -> bytes:
    head = json.dumps(header).encode()
    return struct.pack("<I", len(head)) + head + b"".join(blocks)


GOOD = _encode(_body(["a", "b", "c"], [(1, 2.5, "x"), (2**40, -0.0, None)]))


@pytest.mark.parametrize("cut", range(len(GOOD)))
def test_every_truncation_is_refused(cut):
    with pytest.raises(ValueError):
        frame.decode(GOOD[:cut])


@pytest.mark.parametrize(
    "data, reason",
    [
        (struct.pack("<I", 6) + b"[1, 2]", "not an object"),
        (struct.pack("<I", 99) + b"{}", "past the body"),
        (_frame({"columns": ["a"], "layout": [["z", 0]]}), "unknown column code"),
        (_frame({"columns": ["a"], "layout": [[["i"], 0]]}), "unknown column code"),
        (_frame({"columns": ["a"], "layout": [["i", 4]]}, bytes(5)), "after the last block"),
        (_frame({"columns": ["a"], "layout": [["q", 12]]}, bytes(12)), "multiple of item size"),
        (
            _frame({"columns": ["a", "b"], "layout": [["i", 8], ["i", 4]]}, bytes(8), bytes(4)),
            "differ in length",
        ),
        (_frame({"columns": ["a"], "layout": [["j", 3]]}, b'["x'), "Unterminated string"),
        (_frame({"columns": ["a"], "layout": [["j", 2]]}, b"{}"), "not an array"),
        (_frame({"columns": ["a"], "layout": [["i", -4]]}), "not \\[code, nbytes\\]"),
        (_frame({"columns": ["a"], "layout": [["i", 4]]}, bytes(3)), "within the body"),
        (_frame({"columns": ["a"], "layout": [["i"]]}), "layout entry"),
        (_frame({"columns": ["a", "b"], "layout": [["j", 2]]}, b"[]"), "one layout entry"),
        (_frame({"columns": ["a"]}), "no layout"),
    ],
    ids=lambda value: value.replace(" ", "-") if isinstance(value, str) else "frame",
)
def test_a_malformed_frame_is_refused(data, reason):
    with pytest.raises(ValueError, match=reason):
        frame.decode(data)


# -- negotiation against a real server --------------------------------------


@pytest.fixture(scope="module")
def server():
    db = Database()
    catalog = rst_catalog(1, 1, 1, RstConfig(rows_per_sf=100))
    for name in catalog.table_names():
        db.register(catalog.table(name))
    server = QueryServer(db, ServerConfig(port=0)).start()
    yield server
    server.stop()


def _post(server, path: str, payload: dict, accept: str | None) -> tuple[str, bytes, int]:
    connection = http.client.HTTPConnection(*server.address)
    headers = {"Content-Type": "application/json"}
    if accept is not None:
        headers["Accept"] = accept
    try:
        connection.request("POST", path, json.dumps(payload), headers)
        response = connection.getresponse()
        return response.getheader("Content-Type"), response.read(), response.status
    finally:
        connection.close()


def _get(server, path: str, accept: str) -> str:
    connection = http.client.HTTPConnection(*server.address)
    try:
        connection.request("GET", path, headers={"Accept": accept})
        response = connection.getresponse()
        response.read()
        return response.getheader("Content-Type")
    finally:
        connection.close()


@pytest.mark.parametrize("accept", ["*/*", None, "application/json", "application/*"])
def test_a_client_that_does_not_name_the_frame_gets_json(server, accept):
    media, raw, status = _post(server, "/query", {"sql": MIXED_SQL}, accept)
    assert (status, media) == (200, "application/json")
    assert json.loads(raw)["columns"] == ["A1", "avg_b4", "n"]


@pytest.mark.parametrize(
    "accept", [frame.MEDIA_TYPE, f"application/json;q=0.9, {frame.MEDIA_TYPE};q=1"]
)
def test_only_the_named_media_type_gets_the_frame(server, accept):
    media, raw, status = _post(server, "/query", {"sql": "SELECT A1 FROM r"}, accept)
    assert (status, media) == (200, frame.MEDIA_TYPE)
    assert len(frame.decode(raw)["rows"]) == 100


def test_errors_and_other_routes_stay_json_when_the_frame_is_accepted(server):
    media, raw, status = _post(server, "/query", {"sql": "SELEC oops"}, frame.MEDIA_TYPE)
    assert (status, media) == (400, "application/json")
    assert json.loads(raw)["error"]["code"] == "PARSE_ERROR"
    session = json.loads(_post(server, "/session", {}, frame.MEDIA_TYPE)[1])["session"]
    media, raw, status = _post(
        server, "/prepare", {"session": session, "sql": "SELECT A1 FROM r"}, frame.MEDIA_TYPE
    )
    assert (status, media) == (200, "application/json") and "statement" in json.loads(raw)
    media, raw, status = _post(
        server, "/execute", {"session": session, "statement": "nope"}, frame.MEDIA_TYPE
    )
    assert (status, media) == (400, "application/json")
    for path in ("/metrics", "/healthz", "/replication/topology"):
        assert _get(server, path, frame.MEDIA_TYPE) == "application/json"


@pytest.mark.parametrize(
    "sql",
    [
        MIXED_SQL,
        "SELECT A2, AVG(A4) AS m, COUNT(*) AS n FROM r GROUP BY A2",
        "SELECT 'né' AS s, A1 FROM r WHERE A1 < 3",
        "SELECT A1 FROM r WHERE A1 < 0",
    ],
)
@pytest.mark.parametrize("engine", ["row", "vectorized"])
def test_the_shipped_client_sees_the_rows_json_gives(server, sql, engine):
    payload = {"sql": sql, "engine": engine}
    media, raw, _ = _post(server, "/query", payload, "application/json")
    assert media == "application/json"
    framed = ServiceClient(server.url).query(sql, engine=engine)
    assert _typed(framed.rows) == _typed(_result(json.loads(raw)).rows)
    if sql == MIXED_SQL:
        kinds = [set(map(type, column)) for column in zip(*framed.rows)]
        assert kinds[1:] == [{float, type(None)}, {int}]


def test_an_int_answer_is_smaller_framed_than_as_json(server):
    payload = {"sql": "SELECT * FROM r"}
    framed = _post(server, "/query", payload, frame.MEDIA_TYPE)[1]
    plain = _post(server, "/query", payload, "application/json")[1]
    assert len(framed) < len(plain)
    assert frame.decode(framed)["rows"] == [tuple(row) for row in json.loads(plain)["rows"]]


# -- served cases: both engines, /query and /execute, frame against JSON ----

#: Column edge cases a frame must carry as JSON does, from either engine.
EDGE_COLUMNS = ["i", "f", "s", "b", "q"]
EDGE_ROWS = [
    (1, float("nan"), "a", True, 2**40),
    (None, -0.0, "né", False, -(2**35)),
    (3, float("inf"), "", True, 7),
    (4, -float("inf"), "x", False, 2**63 - 1),
    (None, 1.5, "y", True, -(2**63)),
]
EDGE_SQL = [
    "SELECT i FROM w",  # int64 with NULLs
    "SELECT f FROM w",  # float64: NaN, -0.0, ±inf
    "SELECT s, b FROM w",  # string and bool object columns
    "SELECT q, i FROM w WHERE i > 1",  # past int32: q
    "SELECT i, f FROM w WHERE i > 99",  # empty
]


def _edge_server(max_rows: int = 10_000):
    db = Database()
    db.create_table("w", EDGE_COLUMNS, EDGE_ROWS)
    return QueryServer(db, ServerConfig(port=0, max_rows=max_rows)).start()


@pytest.fixture(scope="module")
def edge_server():
    server = _edge_server()
    yield server
    server.stop()


def _served(server, path: str, sql: str, engine: str, accept: str) -> tuple[str, bytes]:
    """One ``/query``, or ``/execute`` of ``sql`` prepared in a new session."""
    payload = {"sql": sql, "engine": engine}
    if path == "/execute":
        session = json.loads(_post(server, "/session", {}, None)[1])["session"]
        prepared = json.loads(_post(server, "/prepare", {"session": session, "sql": sql}, None)[1])
        payload = {"session": session, "statement": prepared["statement"], "engine": engine}
    media, raw, status = _post(server, path, payload, accept)
    assert status == 200, raw
    return media, raw


def _frame_and_json(server, path: str, sql: str, engine: str):
    media, framed = _served(server, path, sql, engine, frame.MEDIA_TYPE)
    assert media == frame.MEDIA_TYPE
    media, plain = _served(server, path, sql, engine, "application/json")
    assert media == "application/json"
    return _result(frame.decode(framed)), _result(json.loads(plain))


@pytest.mark.parametrize("sql", EDGE_SQL)
@pytest.mark.parametrize("path", ["/query", "/execute"])
@pytest.mark.parametrize("engine", ["row", "vectorized"])
def test_a_served_frame_gives_back_what_served_json_gives(edge_server, sql, path, engine):
    via_frame, via_json = _frame_and_json(edge_server, path, sql, engine)
    assert _typed(via_frame.rows) == _typed(via_json.rows)
    assert (via_frame.columns, via_frame.row_count) == (via_json.columns, via_json.row_count)
    expected = Database()
    expected.create_table("w", EDGE_COLUMNS, EDGE_ROWS)
    row_engine = EvalOptions(vectorized=False)
    assert _typed(via_frame.rows) == _typed(expected.execute(sql, options=row_engine).rows)


@pytest.mark.parametrize("path", ["/query", "/execute"])
@pytest.mark.parametrize("engine", ["row", "vectorized"])
def test_a_truncated_answer_frames_its_first_rows(path, engine):
    server = _edge_server(max_rows=2)
    try:
        via_frame, via_json = _frame_and_json(server, path, "SELECT q, f, s FROM w", engine)
    finally:
        server.stop()
    assert _typed(via_frame.rows) == _typed(via_json.rows)
    assert [row[0] for row in via_frame.rows] == [2**40, -(2**35)]
    assert (via_frame.truncated, via_frame.row_count) == (True, 5)
    assert (via_json.truncated, via_json.row_count) == (True, 5)


# -- the batch engine's root columns go to the wire as they are ------------


def test_a_framed_batch_answer_builds_no_python_rows(server, monkeypatch):
    from repro.storage import batch as batch_module

    db = server.service.db
    session = json.loads(_post(server, "/session", {}, None)[1])["session"]
    prepared = json.loads(_post(server, "/prepare", {"session": session, "sql": Q1}, None)[1])
    run = {"session": session, "statement": prepared["statement"], "engine": "vectorized"}
    media, plain, _ = _post(server, "/execute", run, "application/json")
    assert media == "application/json"
    # JSON is what the server sent when it built every answer's rows
    # before encoding: the batch engine's rows, dumped; bar ``elapsed``.
    built = db.execute(Q1, options=EvalOptions(vectorized=True))
    elapsed = json.loads(plain)["elapsed"]
    assert plain == json.dumps(
        {"columns": list(built.schema.names), "rows": built.rows, "row_count": len(built),
         "truncated": False, "elapsed": elapsed}
    ).encode("utf-8")
    assert sorted(built.rows) == sorted(db.execute(Q1, options=EvalOptions(vectorized=False)).rows)

    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("a framed batch answer built Python values")

    monkeypatch.setattr(batch_module.Batch, "to_rows", refuse)
    monkeypatch.setattr(batch_module, "column_to_pylist", refuse)
    degradations = db.resilience_info()["degradations"]
    media, framed, status = _post(server, "/execute", run, frame.MEDIA_TYPE)
    assert (status, media) == (200, frame.MEDIA_TYPE), framed
    assert not calls and db.resilience_info()["degradations"] == degradations
    assert [code for code, _ in _layout(framed)] == ["i"] * 4
    assert _typed(frame.decode(framed)["rows"]) == _typed(built.rows)


def test_a_routed_read_keeps_its_causality_fields(tmp_path):
    db = Database.open(str(tmp_path / "primary"))
    db.create_table("r", ["A1", "A2", "A3", "A4"], [(i, i % 5, i % 3, i * 100) for i in range(8)])
    db.bump_era(2)
    primary = QueryServer(db, ServerConfig(port=0)).start()
    replica = ReplicaServer(
        ReplicaConfig(primary_url=primary.url, data_dir=str(tmp_path / "replica"), poll_wait=0.2),
        ServerConfig(port=0),
    ).start()
    try:
        deadline = time.monotonic() + 15
        while not replica.server.service.ready.is_set() and time.monotonic() < deadline:
            time.sleep(0.02)
        client = ReplicaSetClient(primary.url, [replica.url], lsn_wait=10.0)
        write = client.execute("INSERT INTO r VALUES (43, 0, 0, 0)")
        assert write.commit_lsn == db.wal_lsn and write.era == 2
        read = client.query("SELECT A1, A4 FROM r WHERE A1 = 43")
        assert read.rows == [(43, 0)]
        assert read.applied_lsn >= write.commit_lsn and read.era == 2
        assert client.info()["replica_reads"] == 1
        at_primary = ServiceClient(primary.url).query("SELECT COUNT(*) FROM r")
        assert (at_primary.rows, at_primary.commit_lsn, at_primary.era) == ([(9,)], db.wal_lsn, 2)
    finally:
        replica.stop()
        primary.stop()
        db.close()
