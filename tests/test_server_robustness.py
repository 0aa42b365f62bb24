"""Server-side robustness: status mapping, request faults, SIGTERM drain."""

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro import Database, ResourceLimits
from repro.errors import ServiceUnavailable
from repro.faults import ENV_COUNT, ENV_SEED, ENV_SITES
from repro.service import QueryServer, QueryService, ServerConfig
from repro.service.client import ServiceClient
from repro.service.resilience import RetryPolicy
from repro.storage.wal import list_snapshots


def make_db(rows: int = 20) -> Database:
    db = Database()
    db.create_table(
        "r", ["A1", "A2", "A3", "A4"],
        [(i, i % 5, i % 3, i * 100) for i in range(rows)],
    )
    db.create_table(
        "s", ["B1", "B2", "B3", "B4"],
        [(i, i % 5, i % 3, i * 90) for i in range(rows)],
    )
    return db


class TestStatusMapping:
    def test_resource_exhausted_maps_to_413(self):
        service = QueryService(
            make_db(), ServerConfig(resources=ResourceLimits(max_rows=5))
        )
        status, body = service.handle(
            "POST", "/query", {"sql": "SELECT * FROM r, s"}
        )
        assert status == 413
        assert body["error"]["code"] == "RESOURCE_EXHAUSTED"
        assert "rows" in body["error"]["message"]

    def test_request_site_fault_maps_to_503(self, monkeypatch):
        monkeypatch.setenv(ENV_SITES, "service.request")
        monkeypatch.setenv(ENV_SEED, "0")
        monkeypatch.setenv(ENV_COUNT, "1")
        service = QueryService(make_db())
        status, body = service.handle(
            "POST", "/query", {"sql": "SELECT A1 FROM r"}
        )
        assert status == 503
        assert body["error"]["code"] == "FAULT_INJECTED"

    def test_engine_fault_heals_server_side(self, monkeypatch):
        # Engine-level chaos is absorbed by Database.execute's fallback:
        # the request still succeeds and the degradation is visible in
        # the metrics body.
        monkeypatch.setenv(ENV_SITES, "engine.row.PBypass")
        service = QueryService(make_db())
        sql = """SELECT DISTINCT * FROM r
            WHERE A1 = (SELECT COUNT(DISTINCT *) FROM s WHERE A2 = B2)
               OR A4 > 1500"""
        status, body = service.handle(
            "POST", "/query", {"sql": sql, "strategy": "unnested"}
        )
        assert status == 200
        status, metrics = service.handle("GET", "/metrics", {})
        assert metrics["resilience"]["degradations"] >= 1
        assert metrics["plan_cache"]["quarantined"] >= 1

    def test_draining_refuses_queries(self):
        service = QueryService(make_db())
        service.draining.set()
        status, body = service.handle(
            "POST", "/query", {"sql": "SELECT A1 FROM r"}
        )
        assert status == 503
        assert body["error"]["code"] == "SERVICE_UNAVAILABLE"
        # Health and metrics stay reachable while draining.
        status, health = service.handle("GET", "/health", {})
        assert status == 503
        assert health["live"] is True and health["ready"] is False

    def test_health_when_ready(self):
        service = QueryService(make_db())
        status, health = service.handle("GET", "/health", {})
        assert status == 200
        assert health == {
            "live": True, "ready": True, "draining": False,
            "recovering": False, "in_flight": 0,
        }


class TestMalformedContentLength:
    """A bad ``Content-Length`` is a structured 400 like every other
    client error, not a traceback and a dropped connection."""

    @pytest.mark.parametrize("value", ["abc", "-5", "-1"])
    def test_structured_400_and_the_server_lives(self, value):
        server = QueryServer(make_db(), ServerConfig(port=0)).start()
        try:
            bystander = http.client.HTTPConnection(*server.address, timeout=2)
            bystander.request("GET", "/healthz")
            assert bystander.getresponse().read()
            with socket.create_connection(server.address, timeout=2) as conn:
                conn.sendall(
                    f"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {value}\r\n\r\n".encode()
                )
                raw = b""
                while chunk := conn.recv(65536):  # the server closes: the body is unread
                    raw += chunk
            head, _, body = raw.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400 ")
            assert b"\r\nConnection: close" in head  # a pooling client must not keep it
            assert json.loads(body)["error"]["code"] == "BAD_REQUEST"
            with urllib.request.urlopen(server.url + "/healthz", timeout=2) as resp:
                assert resp.status == 200
            # Only that connection was closed: another one open meanwhile lives.
            bystander.request("GET", "/healthz")
            assert bystander.getresponse().status == 200
            bystander.close()
        finally:
            server.stop()


SLOW_SQL = "SELECT COUNT(*) FROM r, s, r r2, s s2, r r3"


class TestStopHangsUp:
    """A stopped server is never heard from again on a kept connection."""

    @pytest.mark.parametrize("how", ["stop", "drain"])
    def test_idle_and_busy_connections_are_closed(self, how):
        server = QueryServer(make_db(), ServerConfig(port=0, drain_grace=0.1)).start()
        idle = http.client.HTTPConnection(*server.address, timeout=10)
        busy = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            idle.request("GET", "/healthz")
            assert idle.getresponse().read()
            headers = {"Content-Type": "application/json"}
            busy.request("POST", "/query", json.dumps({"sql": SLOW_SQL}), headers)
            deadline = time.monotonic() + 5
            while server.service.metrics.snapshot()["in_flight"] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert server.service.metrics.snapshot()["connections_open"] == 2
            getattr(server, how)()
            assert idle.sock.recv(1) == b""  # EOF, not a parked thread's answer
            # The query was cancelled; its answer, if it beat the hang-up,
            # is the connection's last.
            try:
                response = busy.getresponse()
            except (OSError, http.client.HTTPException):
                pass
            else:
                assert response.status == 503 and response.will_close
            deadline = time.monotonic() + 5
            while server.service.metrics.snapshot()["connections_open"]:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            idle.close()
            busy.close()

    def test_a_pooling_client_does_not_reach_a_stopped_server(self):
        server = QueryServer(make_db(), ServerConfig(port=0)).start()
        client = ServiceClient(server.url, retry_policy=RetryPolicy(max_attempts=1))
        assert client.query("SELECT COUNT(*) FROM r").rows == [(20,)]  # pooled now
        served = server.service.metrics.snapshot()["requests_total"]
        server.stop()
        with pytest.raises(ServiceUnavailable):
            client.query("SELECT COUNT(*) FROM r")
        assert server.service.metrics.snapshot()["requests_total"] == served

    @pytest.mark.skipif(os.name != "posix", reason="POSIX signals required")
    def test_a_killed_server_process_is_unavailable_not_a_hang(self):
        process = _spawn(["serve", "--dataset", "rst:0.2", "--port", "0"])
        try:
            line = process.stdout.readline()
            assert line.startswith("serving on http://"), line
            client = ServiceClient(
                line.split()[-1].strip(), timeout=5.0, retry_policy=RetryPolicy(max_attempts=1)
            )
            assert client.healthz()["status"] == "ok"  # pooled now
            process.kill()
            process.wait(timeout=10)
            begin = time.monotonic()
            with pytest.raises(ServiceUnavailable):
                client.healthz()
            assert time.monotonic() - begin < 2.0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=5)


Q1_DELETE = """DELETE FROM r
    WHERE A1 = (SELECT COUNT(DISTINCT *) FROM s WHERE A2 = B2) OR A4 > 1500"""


def _post(url: str, payload: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        url, json.dumps(payload).encode(), {"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestWritesHonourTheRequest:
    """The ``timeout`` and the drain's cancel event reach a DML
    statement's embedded read; a stopped write changed nothing."""

    def _state(self, db):
        table = db.table("r")
        return (
            list(table.rows), table.version, db.commit_lsn, db.wal_lsn,
            db.mvcc_info(), dict(db._snapshots._in_progress),
        )

    def test_a_write_past_its_timeout_is_a_408_and_changes_nothing(self, tmp_path):
        db = make_db(rows=300)
        durable = Database(data_dir=str(tmp_path))
        for name in ("r", "s"):
            durable.create_table(name, db.table(name).schema.names, db.table(name).rows)
        server = QueryServer(durable, ServerConfig(port=0)).start()
        try:
            before = self._state(durable)
            for engine in ("row", "vectorized"):
                status, body = _post(
                    server.url + "/query",
                    {"sql": Q1_DELETE, "strategy": "canonical", "engine": engine, "timeout": 0},
                )
                assert (status, body["error"]["code"]) == (408, "QUERY_TIMEOUT")
                assert self._state(durable) == before
            status, body = _post(
                server.url + "/query", {"sql": Q1_DELETE, "engine": "vectorized", "timeout": 30}
            )
            assert status == 200 and body["rows"][0][0] > 0
            assert durable.wal_lsn == before[3] + 1
            status, metrics = _post(server.url + "/query", {"sql": "SELECT COUNT(*) FROM r"})
            assert metrics["rows"] == [[300 - body["rows"][0][0]]]
        finally:
            server.stop()
            durable.close()

    def test_a_drain_cancels_a_write_in_flight(self):
        import threading

        db = make_db(rows=1500)  # canonical: 1 500 x 1 500 inner rows, seconds
        server = QueryServer(db, ServerConfig(port=0)).start()
        answer = {}
        try:
            before = self._state(db)
            writer = threading.Thread(
                target=lambda: answer.update(
                    zip(
                        ("status", "body"),
                        _post(server.url + "/query", {"sql": Q1_DELETE, "strategy": "canonical"}),
                    )
                )
            )
            writer.start()
            deadline = time.time() + 10
            while server.service.metrics.snapshot()["in_flight"] == 0 and time.time() < deadline:
                time.sleep(0.005)
            assert server.service.drain(grace=0.05) is False  # cancelled, not finished
            writer.join(timeout=30)
            assert (answer["status"], answer["body"]["error"]["code"]) == (503, "QUERY_CANCELLED")
            assert self._state(db) == before
            assert db._commit_lock.acquire(blocking=False)
            db._commit_lock.release()
            assert db.execute("DELETE FROM r WHERE A4 > 1500").rows[0][0] > 0
        finally:
            server.stop()


def _spawn(args):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONUNBUFFERED="1"),
        cwd=root,
    )


@pytest.mark.skipif(os.name != "posix", reason="POSIX signals required")
class TestSigtermDrain:
    def test_serve_process_drains_on_sigterm(self):
        env = dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--dataset", "rst:0.2", "--port", "0", "--drain-grace", "5",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        try:
            line = process.stdout.readline()
            assert line.startswith("serving on http://"), line
            url = line.split()[-1].strip()
            process.stdout.readline()  # the tables line

            # The server answers while alive...
            with urllib.request.urlopen(url + "/health", timeout=5) as resp:
                assert resp.status == 200

            process.send_signal(signal.SIGTERM)
            try:
                code = process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                pytest.fail("server did not exit after SIGTERM")
            output = process.stdout.read()
            assert "draining" in output
            assert "server stopped" in output
            assert code == 0
            # ...and the socket is released after the drain.
            deadline = time.time() + 5
            while time.time() < deadline:
                try:
                    urllib.request.urlopen(url + "/health", timeout=1)
                except OSError:
                    break
                time.sleep(0.1)
            else:
                pytest.fail("socket still serving after drain")
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=5)

    def test_replica_process_drains_on_sigterm(self, tmp_path):
        """A replica (possibly a promoted one — the cluster's primary)
        gets the same shutdown as ``serve``: drain, then checkpoint."""
        primary = _spawn(
            ["serve", "--dataset", "rst:0.2", "--port", "0", "--data-dir", str(tmp_path / "p")]
        )
        replica = None
        try:
            url = primary.stdout.readline().split()[-1].strip()
            replica = _spawn(
                ["replica", "--primary", url, "--port", "0", "--poll-wait", "0.2",
                 "--data-dir", str(tmp_path / "r")]
            )
            line = replica.stdout.readline()
            assert line.startswith("replica serving on http://"), line
            replica_url = line.split()[-1].strip()

            def post(base, path, payload):
                request = urllib.request.Request(
                    base + path, json.dumps(payload).encode(), {"Content-Type": "application/json"}
                )
                with urllib.request.urlopen(request, timeout=10) as resp:
                    return json.loads(resp.read())

            deadline = time.time() + 30
            while True:  # the primary recovers off-thread; wait for ready
                try:
                    token = post(url, "/query", {"sql": "INSERT INTO r VALUES (900, 1, 1, 1)"})
                    break
                except OSError:
                    assert time.time() < deadline, "primary never became ready"
                    time.sleep(0.2)
            while True:
                try:
                    body = post(
                        replica_url,
                        "/query",
                        {"sql": "SELECT COUNT(*) FROM r WHERE A1 = 900",
                         "min_lsn": token["commit_lsn"], "lsn_wait": 5},
                    )
                    break
                except OSError:
                    assert time.time() < deadline, "replica never caught up"
                    time.sleep(0.2)
            assert body["rows"] == [[1]]
            applied = body["applied_lsn"]

            replica.send_signal(signal.SIGTERM)
            code = replica.wait(timeout=20)
            output = replica.stdout.read()
            assert code == 0, output
            assert list_snapshots(str(tmp_path / "r"))[-1][0] == applied
            store = Database.open(str(tmp_path / "r"))
            try:
                assert store.durability_info()["recovery"]["records_replayed"] == 0
                assert store.wal_lsn == applied
            finally:
                store.close()
            assert "draining" in output and "replica stopped" in output
        finally:
            for process in (replica, primary):
                if process is not None and process.poll() is None:
                    process.kill()
                    process.wait(timeout=5)
