"""The concurrent SQL server: protocol, admission, timeouts, threading."""

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import Database
from repro.engine import EvalOptions
from repro.errors import (
    AdmissionRejected,
    BudgetExceeded,
    ParameterError,
    QueryCancelled,
    ReproError,
    SessionError,
)
from repro.service import QueryServer, QueryService, ServerConfig
from repro.service.client import ServiceClient

#: A cross product big enough that cooperative ticks fire many times
#: before it finishes (keeps timeout/admission tests deterministic).
SLOW_SQL = "SELECT COUNT(*) FROM r, s, r r2, s s2, r r3"


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


@pytest.fixture(scope="module")
def server():
    config = ServerConfig(
        port=0, max_in_flight=2, max_queue=2, queue_timeout=0.3, default_timeout=10.0
    )
    query_server = QueryServer(make_db(), config).start()
    yield query_server
    query_server.stop()


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.url)


class TestServiceDispatch:
    """HTTP-free unit tests against QueryService.handle."""

    def test_unknown_endpoint_is_structured(self):
        service = QueryService(make_db())
        status, body = service.handle("POST", "/nope", {})
        assert status == 400
        assert body["error"]["code"] == "BAD_REQUEST"

    def test_missing_sql_field(self):
        service = QueryService(make_db())
        status, body = service.handle("POST", "/query", {})
        assert status == 400
        assert body["error"]["code"] == "BAD_REQUEST"
        assert "sql" in body["error"]["message"]

    def test_parse_error_is_not_a_500(self):
        service = QueryService(make_db())
        status, body = service.handle("POST", "/query", {"sql": "SELEC oops"})
        assert status == 400
        assert body["error"]["code"] == "PARSE_ERROR"

    def test_unknown_table_error_code(self):
        service = QueryService(make_db())
        status, body = service.handle(
            "POST", "/query", {"sql": "SELECT x FROM missing"}
        )
        assert status in (400, 404)
        assert "code" in body["error"] and "message" in body["error"]

    def test_unknown_session_is_404(self):
        service = QueryService(make_db())
        status, body = service.handle(
            "POST", "/prepare", {"session": "nope", "sql": "SELECT A1 FROM r"}
        )
        assert status == 404
        assert body["error"]["code"] == "UNKNOWN_SESSION"

    def test_bad_timeout_type(self):
        service = QueryService(make_db())
        status, body = service.handle(
            "POST", "/query", {"sql": "SELECT A1 FROM r", "timeout": "soon"}
        )
        assert status == 400
        assert body["error"]["code"] == "BAD_REQUEST"

    def test_bad_params_type(self):
        service = QueryService(make_db())
        status, body = service.handle(
            "POST", "/query", {"sql": "SELECT A1 FROM r WHERE A4 > ?", "params": 7}
        )
        assert status == 400
        assert body["error"]["code"] == "BAD_REQUEST"

    def test_unknown_engine(self):
        service = QueryService(make_db())
        status, body = service.handle(
            "POST", "/query", {"sql": "SELECT A1 FROM r", "engine": "gpu"}
        )
        assert status == 400

    def test_arity_mismatch_is_parameter_error(self):
        service = QueryService(make_db())
        status, body = service.handle(
            "POST",
            "/query",
            {"sql": "SELECT A1 FROM r WHERE A4 > ?", "params": [1, 2]},
        )
        assert status == 400
        assert body["error"]["code"] == "PARAMETER_ERROR"

    def test_result_shape(self):
        service = QueryService(make_db())
        status, body = service.handle(
            "POST", "/query", {"sql": "SELECT A1 FROM r WHERE A4 > 1500"}
        )
        assert status == 200
        assert body["columns"] == ["A1"]
        assert body["row_count"] == len(body["rows"])
        assert body["truncated"] is False
        assert body["elapsed"] >= 0

    def test_result_truncation_guard(self):
        service = QueryService(make_db(), ServerConfig(max_rows=5))
        status, body = service.handle("POST", "/query", {"sql": "SELECT A1 FROM r"})
        assert status == 200
        assert len(body["rows"]) == 5
        assert body["truncated"] is True
        assert body["row_count"] == 20


class TestHttpProtocol:
    def test_healthz(self, client):
        assert client.healthz()["status"] == "ok"

    def test_malformed_json_body(self, server):
        request = urllib.request.Request(
            server.url + "/query",
            data=b"{not json at all",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error"]["code"] == "BAD_REQUEST"

    def test_non_object_json_body(self, server):
        request = urllib.request.Request(
            server.url + "/query",
            data=b"[1, 2, 3]",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert json.loads(excinfo.value.read())["error"]["code"] == "BAD_REQUEST"

    def test_query_roundtrip(self, client):
        result = client.query("SELECT A1 FROM r WHERE A4 > ?", params=[1500])
        assert result.columns == ["A1"]
        assert sorted(result.rows) == [(16,), (17,), (18,), (19,)]

    def test_client_raises_typed_errors(self, client):
        with pytest.raises(ParameterError):
            client.query("SELECT A1 FROM r WHERE A4 > ?", params=[1, 2])
        with pytest.raises(ReproError):
            client.query("SELEC oops")
        with pytest.raises(SessionError):
            from repro.service.client import ClientSession

            ClientSession(client, "bogus").prepare("SELECT A1 FROM r")

    def test_session_prepare_execute_close(self, client):
        with client.session() as session:
            statement = session.prepare("SELECT A1 FROM r WHERE A4 > :lo")
            assert statement.params == {"positional": 0, "named": ["lo"]}
            few = statement.execute({"lo": 1500})
            many = statement.execute({"lo": 100})
            assert len(few) < len(many)
        with pytest.raises(SessionError):
            session.close()  # already closed by the context manager

    def test_metrics_shape(self, client):
        client.query("SELECT A1 FROM r WHERE A4 > 0")
        metrics = client.metrics()
        assert metrics["server"]["queries_ok"] >= 1
        latency = metrics["server"]["latency"]
        assert latency["count"] >= 1
        assert latency["p50"] <= latency["p95"] <= latency["max"]
        cache = metrics["plan_cache"]
        assert set(cache) >= {"hits", "misses", "hit_rate", "size", "capacity"}
        assert "queued" in metrics["admission"]
        # The section names are API: adding or dropping one is deliberate.
        assert set(metrics) == {
            "server", "admission", "sessions", "sessions_expired", "draining",
            "ready", "plan_cache", "tables", "resilience", "access_paths",
            "durability", "mvcc", "replication",
        }


class TestPersistentConnections:
    """One connection carries many requests, at the price of one."""

    @staticmethod
    def _ask(connection, sql="SELECT A1 FROM r WHERE A4 > 1500"):
        connection.request(
            "POST", "/query", json.dumps({"sql": sql}), {"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response, json.loads(response.read())

    def test_fifty_requests_on_one_connection_do_not_stall(self, server):
        before = server.service.metrics.snapshot()
        connection = http.client.HTTPConnection(*server.address, timeout=5)
        try:
            self._ask(connection)  # connects, plans
            took = []
            for _ in range(50):
                begin = time.perf_counter()
                response, body = self._ask(connection)
                took.append(time.perf_counter() - begin)
                assert response.status == 200 and body["row_count"] == 4
                assert not response.will_close
            after = server.service.metrics.snapshot()
            assert after["connections_accepted"] - before["connections_accepted"] == 1
            assert after["connections_open"] == before["connections_open"] + 1
            assert after["requests_total"] - before["requests_total"] == 51
        finally:
            connection.close()
        # Headers and body in two writes with Nagle on cost every one of
        # them a delayed ACK (40 ms); a busy runner may cost a few.
        assert sum(seconds < 0.020 for seconds in took) >= 45, sorted(took)

    def test_the_client_reuses_its_connection(self, server):
        client = ServiceClient(server.url)
        client.healthz()
        before = server.service.metrics.snapshot()
        for _ in range(100):
            client.query("SELECT A1 FROM r WHERE A4 > 1500")
        after = server.service.metrics.snapshot()
        # The reuse ratio, as /metrics tells it: requests per connection.
        assert after["requests_total"] - before["requests_total"] == 100
        assert after["connections_accepted"] == before["connections_accepted"]

    def test_an_idle_connection_is_closed_after_max_wait_seconds(self):
        query_server = QueryServer(make_db(), ServerConfig(port=0, max_wait_seconds=0.2)).start()
        try:
            used = http.client.HTTPConnection(*query_server.address, timeout=5)
            fresh = http.client.HTTPConnection(*query_server.address, timeout=5)
            fresh.connect()  # never sends a byte
            assert self._ask(used)[0].status == 200
            assert used.sock.recv(1) == b"" and fresh.sock.recv(1) == b""  # EOF, within 5 s
            deadline = time.monotonic() + 5
            while query_server.service.metrics.snapshot()["connections_open"]:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            used.close(), fresh.close()
            # Not a failure for a pooling client: it checks before it sends.
            client = ServiceClient(query_server.url)
            client.healthz()
            time.sleep(0.5)
            assert client.healthz()["status"] == "ok"
        finally:
            query_server.stop()

    def test_an_answer_given_while_draining_says_close(self):
        query_server = QueryServer(make_db(), ServerConfig(port=0)).start()
        try:
            connection = http.client.HTTPConnection(*query_server.address, timeout=5)
            assert not self._ask(connection)[0].will_close
            query_server.service.draining.set()
            response, body = self._ask(connection)
            assert response.status == 503 and body["error"]["code"] == "SERVICE_UNAVAILABLE"
            assert response.getheader("Connection") == "close"
            connection.close()
        finally:
            query_server.stop()


class TestTimeoutsAndAdmission:
    def test_slow_query_times_out_with_structured_error(self, client):
        with pytest.raises(BudgetExceeded):
            client.query(SLOW_SQL, timeout=0.2)
        metrics = client.metrics()
        assert metrics["server"]["queries_timeout"] >= 1

    def test_vectorized_timeout_also_fires(self, client):
        pytest.importorskip("numpy")
        with pytest.raises(BudgetExceeded):
            client.query(SLOW_SQL, timeout=0.2, engine="vectorized")

    def test_over_admission_is_rejected_not_queued_forever(self, server):
        # 2 in flight + 2 queued; the other 4 of 8 must be rejected fast.
        outcomes = []
        lock = threading.Lock()

        def worker():
            try:
                ServiceClient(server.url).query(SLOW_SQL, timeout=2.0)
                outcome = "ok"
            except AdmissionRejected:
                outcome = "rejected"
            except BudgetExceeded:
                outcome = "timeout"
            with lock:
                outcomes.append(outcome)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes.count("rejected") >= 2
        assert ServiceClient(server.url).metrics()["server"]["rejected_overload"] >= 2

    def test_rejection_does_not_leak_slots(self, server, client):
        # After the storm above the server must still serve promptly.
        result = client.query("SELECT COUNT(*) FROM r")
        assert result.rows == [(20,)]


class TestDeadlinePropagation:
    """The ``budget`` request field: the caller ships how much of its
    own wall-clock budget is left, and the server clamps its per-query
    timeout to it — running past the caller's deadline is pure waste."""

    @pytest.mark.parametrize("budget", [-1, -0.5, "soon", True, [1]])
    def test_malformed_budget_is_rejected(self, budget):
        service = QueryService(make_db())
        status, body = service.handle(
            "POST", "/query", {"sql": "SELECT COUNT(*) FROM r", "budget": budget}
        )
        assert status == 400
        assert body["error"]["code"] == "BAD_REQUEST"

    def test_budget_clamps_the_default_timeout(self):
        service = QueryService(make_db())
        status, body = service.handle("POST", "/query", {"sql": SLOW_SQL, "budget": 0.05})
        assert status != 200
        assert body["error"]["code"] == "QUERY_TIMEOUT"

    def test_budget_clamps_an_explicit_longer_timeout(self):
        service = QueryService(make_db())
        status, body = service.handle(
            "POST", "/query", {"sql": SLOW_SQL, "budget": 0.05, "timeout": 30.0}
        )
        assert status != 200
        assert body["error"]["code"] == "QUERY_TIMEOUT"

    def test_generous_budget_does_not_get_in_the_way(self):
        service = QueryService(make_db())
        status, body = service.handle(
            "POST", "/query", {"sql": "SELECT COUNT(*) FROM r", "budget": 30.0}
        )
        assert status == 200
        assert body["rows"] == [(20,)]  # in process: tuples; JSON arrays on the wire


class TestConcurrentClients:
    def test_eight_concurrent_clients_get_bag_equal_results(self, server):
        sql = """SELECT DISTINCT * FROM r
                 WHERE A1 = (SELECT COUNT(*) FROM s WHERE A2 = B2 OR B4 > :t)
                    OR A4 > :t"""
        expected = None
        results = [None] * 8
        errors = []

        def worker(index):
            try:
                local = ServiceClient(server.url)
                results[index] = sorted(
                    local.query(sql, params={"t": 1000}, timeout=30).rows
                )
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        expected = results[0]
        assert expected  # non-trivial result
        assert all(result == expected for result in results)

    def test_concurrent_mixed_engines_agree(self, server):
        pytest.importorskip("numpy")
        sql = "SELECT A1 FROM r WHERE A1 = (SELECT COUNT(*) FROM s WHERE A2 = B2)"
        results = {}
        lock = threading.Lock()

        def worker(engine, index):
            local = ServiceClient(server.url)
            rows = sorted(local.query(sql, engine=engine, timeout=30).rows)
            with lock:
                results[(engine, index)] = rows

        threads = [
            threading.Thread(target=worker, args=(engine, index))
            for engine in ("row", "vectorized")
            for index in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        values = list(results.values())
        assert all(value == values[0] for value in values)


class TestCancellation:
    def test_cancel_event_aborts_row_engine(self):
        db = make_db()
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(QueryCancelled):
            db.execute(SLOW_SQL, options=EvalOptions(cancel_event=cancel))

    def test_cancel_event_aborts_vectorized_engine(self):
        pytest.importorskip("numpy")
        db = make_db()
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(QueryCancelled):
            db.execute(
                SLOW_SQL, options=EvalOptions(cancel_event=cancel, vectorized=True)
            )

    def test_shutdown_cancels_in_flight_queries(self):
        config = ServerConfig(port=0, max_in_flight=2, default_timeout=60.0)
        server = QueryServer(make_db(), config).start()
        client = ServiceClient(server.url)
        outcome = {}

        def slow_query():
            try:
                client.query(SLOW_SQL, timeout=60)
                outcome["result"] = "finished"
            except QueryCancelled:
                outcome["result"] = "cancelled"
            except ReproError as error:
                outcome["result"] = f"other: {error}"

        thread = threading.Thread(target=slow_query)
        thread.start()
        import time

        time.sleep(0.3)  # let the query get in flight
        client.shutdown()
        thread.join(timeout=10)
        server.stop()
        assert outcome.get("result") == "cancelled"


class TestBatchCacheThreading:
    """Regression: concurrent vectorized scans publish the pivot safely."""

    def test_concurrent_cold_scans_share_one_batch(self):
        pytest.importorskip("numpy")
        db = make_db(rows=500)
        sql = "SELECT COUNT(*) FROM r WHERE A4 > 100"
        expected = db.execute(sql).rows
        table = db.table("r")
        results, errors = [], []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def worker():
            try:
                barrier.wait(timeout=10)  # maximise cold-cache contention
                result = db.execute(sql, options=EvalOptions(vectorized=True))
                with lock:
                    results.append(result.rows)
            except Exception as error:  # pragma: no cover - diagnostic
                with lock:
                    errors.append(error)

        table.batch_cache = None  # force every thread to race on the pivot
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert all(rows == expected for rows in results)
        cached = table.batch_cache
        assert cached is not None and cached[0] == table.version

    def test_mutation_between_scans_refreshes_the_cache(self):
        pytest.importorskip("numpy")
        db = make_db(rows=50)
        options = EvalOptions(vectorized=True)
        first = db.execute("SELECT COUNT(*) FROM r", options=options)
        db.execute("INSERT INTO r VALUES (999, 0, 0, 0)")
        second = db.execute("SELECT COUNT(*) FROM r", options=options)
        assert second.rows[0][0] == first.rows[0][0] + 1
