"""What a result costs from the server's result Table to the wire: JSON against frame.

Serves RST at SF (1,1,1) × 10 000 rows per SF (the ``fig7_warm`` data)
from a ``QueryServer`` in this process and prepares Q1 and Q3 (``auto``)
on each engine.  The result ``Table`` is the one the server's route
hands its encoder (``QueryService._route``): on the batch engine it
holds the root batch and no rows yet.  Per query and engine it prints,
as the median of ``--runs`` timings taken in alternation:

* ``to_rows``: building the result's Python rows, which a JSON answer
  needs and a frame does not (the row engine's rows exist already);
* ``encode``: result Table → bytes, ``json.dumps`` of the built rows
  (``to_rows`` included) against ``frame.encode`` of the Table;
* ``decode``: the client's ``json.loads`` + tupling against
  ``frame.decode`` + tupling (``repro.service.client._result`` both);
* ``http``: one ``/execute`` round trip on a kept socket, spoken through
  ``repro.service.http1`` as the shipped transport speaks it, asking for
  JSON (``Accept: application/json``) against asking for the frame;
* the body's bytes each way,

and then what encode + decode saved beside what the round trip saved.

Both sides of ``http`` share one GIL with the server, so its difference
is what one process sees.  From the repository root::

    PYTHONPATH=src python tools/frame_timing.py            # ≈ 15 s
    PYTHONPATH=src python tools/frame_timing.py --runs 61
"""

from __future__ import annotations

import argparse
import json
import socket
import statistics
import time

from repro import Database
from repro.bench.queries import Q1, Q3
from repro.datagen import RstConfig, generate_rst
from repro.service import frame, http1
from repro.service.client import _result
from repro.service.server import QueryServer, ServerConfig


def _alternating(thunks: dict, runs: int) -> dict:
    """Median ms of each thunk, the thunks taking turns run by run."""
    times: dict = {name: [] for name in thunks}
    for _ in range(runs):
        for name, thunk in thunks.items():
            start = time.perf_counter()
            thunk()
            times[name].append(time.perf_counter() - start)
    return {name: statistics.median(seconds) * 1e3 for name, seconds in times.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=31)
    parser.add_argument("--rows", type=int, default=10_000, help="RST rows per SF")
    args = parser.parse_args()

    db = Database()
    for table in generate_rst(1, 1, 1, RstConfig(rows_per_sf=args.rows)).values():
        db.register(table)
    db.analyze()
    server = QueryServer(db, ServerConfig(port=0)).start()
    host, port = server.address
    connection = socket.create_connection((host, port))
    connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    rfile = connection.makefile("rb")

    def post(path: str, payload: dict, accept: str) -> bytes:
        data = json.dumps(payload).encode("utf-8")
        fields = {
            "Host": f"{host}:{port}",
            "Accept": accept,
            "Content-Type": "application/json",
            "Content-Length": len(data),
        }
        connection.sendall(http1.head(f"POST {path} HTTP/1.1", fields) + data)
        line, headers = http1.read_head(rfile)
        assert line.startswith("HTTP/1.1 200 "), line
        return rfile.read(http1.content_length(headers))

    def fetch(run: dict, accept: str, decode):
        return _result(decode(post("/execute", run, accept)))

    try:
        session = json.loads(post("/session", {}, "application/json"))["session"]
        print(
            f"{'query':6} {'engine':10} {'step':8} {'json ms':>9} {'frame ms':>9}"
            f" {'json B':>9} {'frame B':>9}"
        )
        for name, sql in (("Q1", Q1), ("Q3", Q3)):
            prepared = {"session": session, "sql": sql, "strategy": "auto"}
            statement = json.loads(post("/prepare", prepared, "application/json"))
            for engine in ("row", "vectorized"):
                run = {"session": session, "statement": statement["statement"], "engine": engine}
                status, body = server.service._route("POST", "/execute", run)
                assert status == 200, body
                result = body["rows"]

                def fresh(result=result):
                    """The result Table as the route hands it over: rows unbuilt."""
                    return result.head(len(result))

                framed = frame.encode({**body, "rows": fresh()})
                raw = json.dumps({**body, "rows": fresh().rows}).encode("utf-8")
                assert _result(json.loads(raw)) == _result(frame.decode(framed))
                sizes = f"{len(raw):>9} {len(framed):>9}"
                steps = {
                    "to_rows": {"json": lambda: fresh().rows, "frame": fresh},
                    "encode": {
                        "json": lambda: json.dumps({**body, "rows": fresh().rows}).encode("utf-8"),
                        "frame": lambda: frame.encode({**body, "rows": fresh()}),
                    },
                    "decode": {
                        "json": lambda: _result(json.loads(raw)),
                        "frame": lambda: _result(frame.decode(framed)),
                    },
                    "http": {
                        "json": lambda: fetch(run, "application/json", json.loads),
                        "frame": lambda: fetch(run, frame.MEDIA_TYPE, frame.decode),
                    },
                }
                saved = {}
                for step, thunks in steps.items():
                    ms = _alternating(thunks, args.runs)
                    saved[step] = ms["json"] - ms["frame"]
                    timings = f"{ms['json']:9.2f} {ms['frame']:9.2f}"
                    print(f"{name:6} {engine:10} {step:8} {timings} {sizes}")
                print(
                    f"{name:6} {engine:10} saved: encode + decode"
                    f" {saved['encode'] + saved['decode']:.2f} ms, http {saved['http']:.2f} ms"
                )
    finally:
        rfile.close()
        connection.close()
        server.stop()


if __name__ == "__main__":
    main()
