"""What the HTTP edge costs a request: bare round trips, and one INSERT three ways.

Starts ``python -m repro serve --dataset rst:0.2 --port 0`` in its own
process (so the client does not share its GIL) and, with the shipped
``HttpTransport`` on one kept connection, times

* ``GET /healthz`` and ``POST /replication/topology {}``: a round trip
  whose route does next to nothing, so what is left is the edge —
  socket, head parse and write, JSON — on both ends;

then times the same ``INSERT INTO r VALUES (…)`` three ways, each on its
own RST 0.2 instance, no WAL:

* ``in process``: ``Database.execute``;
* ``_route``: ``QueryService._route``, the server's dispatch without a
  socket;
* ``served``: ``ServiceClient.query`` against the server process.

Each line is the median and the 10th–90th percentile of ``--runs``
calls, in ms.  ``--src`` runs another checkout's ``src`` (both the
client here and the server process), so two trees compare on one
machine.  From the repository root::

    python tools/edge_timing.py                       # ≈ 10 s
    python tools/edge_timing.py --src OTHER_CHECKOUT/src
"""

from __future__ import annotations

import argparse
import itertools
import os
import statistics
import subprocess
import sys
import time


def _spread(seconds: list) -> str:
    deciles = statistics.quantiles([s * 1e3 for s in seconds], n=10)
    median = statistics.median(seconds) * 1e3
    return f"{median:.3f} ms (p10 {deciles[0]:.3f}, p90 {deciles[-1]:.3f})"


def _timed(call, runs: int) -> list:
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"))
    parser.add_argument("--runs", type=int, default=2000)
    args = parser.parse_args()
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    from repro import Database
    from repro.datagen import rst_catalog
    from repro.service.client import ServiceClient
    from repro.service.server import QueryService
    from repro.sim.transport import HttpTransport

    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--dataset", "rst:0.2", "--port", "0"],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        url = server.stdout.readline().split()[-1]  # "serving on http://host:port"
        transport = HttpTransport()
        transport.request(url, "GET", "/healthz", None, 10.0)
        bare = {
            "GET /healthz": lambda: transport.request(url, "GET", "/healthz", None, 10.0),
            "POST /replication/topology": lambda: transport.request(
                url, "POST", "/replication/topology", {}, 10.0
            ),
        }
        for name, call in bare.items():
            print(f"round trip {name}: {_spread(_timed(call, args.runs))}")

        def database():
            db = Database()
            catalog = rst_catalog(0.2, 0.2, 0.2)
            for name in catalog.table_names():
                db.register(catalog.table(name))
            return db

        keys = itertools.count()

        def sql():
            return f"INSERT INTO r VALUES ({next(keys)}, 1, 2, 3)"

        db, service = database(), QueryService(database())
        client = ServiceClient(url, transport=transport)
        insert = {
            "in process": lambda: db.execute(sql()),
            "_route": lambda: service._route("POST", "/query", {"sql": sql()}),
            "served": lambda: client.query(sql()),
        }
        for call in insert.values():
            _timed(call, 50)  # warm: plan cache, statistics
        for name, call in insert.items():
            print(f"INSERT {name}: {_spread(_timed(call, args.runs // 4))}")
    finally:
        server.terminate()
        server.wait(timeout=30)


if __name__ == "__main__":
    main()
