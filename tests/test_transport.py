"""``HttpTransport`` against a raw-socket fake server.

The fake speaks just enough HTTP/1.1 to script what a real server (or a
dying one) can do to a persistent connection, and counts what reached
it: connections accepted and requests read.  A request the transport
wrote twice would show up in that count.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass

import pytest

from repro.errors import ServiceError, ServiceUnavailable
from repro.service.client import ServiceClient
from repro.service.resilience import RetryPolicy
from repro.sim.transport import HTTP_TRANSPORT, HttpTransport


@dataclass
class Reply:
    status: int = 200
    body: bytes | None = None  # None: echo the request body
    close_header: bool = False  # say ``Connection: close``, then close
    hang_up: bool = False  # answer as if keeping the connection, then close it
    drop: bool = False  # read the request, close without a word
    delay: float = 0.0


class FakeServer:
    """``script(n, path, body) -> Reply`` decides the n-th request's fate."""

    def __init__(self, script=lambda n, path, body: Reply()):
        self._script = script
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.url = "http://127.0.0.1:%d" % self._listener.getsockname()[1]
        self.accepted = 0
        self.requests = 0
        self.in_flight = 0
        self.max_in_flight = 0
        #: Set each time the server side closed a connection.
        self.closed = threading.Event()
        self._lock = threading.Lock()
        self._open: set[socket.socket] = set()
        threading.Thread(target=self._accept, daemon=True).start()

    def stop(self) -> None:
        self._listener.close()
        with self._lock:
            for connection in self._open:
                connection.close()

    def _accept(self) -> None:
        while True:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            with self._lock:
                self.accepted += 1
                self._open.add(connection)
            threading.Thread(target=self._serve, args=(connection,), daemon=True).start()

    def _serve(self, connection: socket.socket) -> None:
        reader = connection.makefile("rb")
        try:
            while True:
                request_line = reader.readline()
                if not request_line:
                    return
                length = 0
                for line in iter(reader.readline, b"\r\n"):
                    name, _, value = line.partition(b":")
                    if name.lower() == b"content-length":
                        length = int(value)
                body = reader.read(length)
                with self._lock:
                    self.requests += 1
                    number = self.requests
                    self.in_flight += 1
                    self.max_in_flight = max(self.max_in_flight, self.in_flight)
                reply = self._script(number, request_line.split()[1].decode(), body)
                time.sleep(reply.delay)
                with self._lock:
                    self.in_flight -= 1
                if reply.drop:
                    return
                payload = (body or b"{}") if reply.body is None else reply.body
                head = f"HTTP/1.1 {reply.status} X\r\nContent-Length: {len(payload)}\r\n"
                if reply.close_header:
                    head += "Connection: close\r\n"
                connection.sendall(head.encode() + b"\r\n" + payload)
                if reply.close_header or reply.hang_up:
                    return
        except OSError:
            pass  # stop() closed the socket under us
        finally:
            reader.close()
            connection.close()
            with self._lock:
                self._open.discard(connection)
            self.closed.set()


@pytest.fixture
def fake():
    servers = []

    def start(script=lambda n, path, body: Reply()):
        servers.append(FakeServer(script))
        return servers[-1]

    yield start
    for server in servers:
        server.stop()


def ask(transport, server, value=0, timeout=5.0):
    return transport.request(server.url, "POST", "/query", {"v": value}, timeout)


def idle(transport):
    return [connection for _, connection in transport._idle]


def test_a_hundred_requests_ride_one_connection(fake):
    server, transport = fake(), HttpTransport()
    assert [ask(transport, server, i) for i in range(100)] == [{"v": i} for i in range(100)]
    assert transport.request(server.url, "GET", "/healthz", None, 5.0) == {}
    assert (server.accepted, server.requests) == (1, 101)
    assert len(idle(transport)) == 1


def test_a_connection_the_server_closed_while_idle_is_replaced_not_resent_on(fake):
    server = fake(lambda n, path, body: Reply(hang_up=n == 1))
    transport = HttpTransport()
    assert ask(transport, server, 1) == {"v": 1}
    assert server.closed.wait(5)  # the pooled connection is now half-dead
    assert ask(transport, server, 2) == {"v": 2}  # checked before sending: no error
    assert (server.accepted, server.requests) == (2, 2)  # and nothing was sent twice


def test_a_connection_dropped_after_the_request_was_written_is_not_retried(fake):
    server = fake(lambda n, path, body: Reply(drop=n == 2))
    transport = HttpTransport()
    ask(transport, server, 1)
    with pytest.raises(ServiceUnavailable, match="server unreachable"):
        ask(transport, server, 2)  # the server read it; did it run? unknowable
    assert (server.accepted, server.requests) == (1, 2)  # written once, never again
    assert idle(transport) == []  # the broken connection was not kept
    assert ask(transport, server, 3) == {"v": 3} and server.accepted == 2


def test_a_response_that_says_close_is_not_pooled(fake):
    server = fake(lambda n, path, body: Reply(close_header=n == 1))
    transport = HttpTransport()
    assert ask(transport, server, 1) == {"v": 1}
    assert idle(transport) == []
    assert ask(transport, server, 2) == {"v": 2} and server.accepted == 2
    assert len(idle(transport)) == 1


def test_error_statuses_map_as_before_and_keep_the_connection(fake):
    structured = json.dumps({"error": {"code": "SERVER_OVERLOADED", "message": "busy"}})
    replies = {
        1: Reply(429, structured.encode()),
        2: Reply(503, structured.encode()),
        3: Reply(503, b'{"ready": false}'),  # a bare 503: /health while draining
        4: Reply(500, b'{"what": 1}'),
        5: Reply(404, b"<html>not ours</html>"),
    }
    server = fake(lambda n, path, body: replies.get(n, Reply()))
    transport = HttpTransport()
    assert ask(transport, server)["error"]["code"] == "SERVER_OVERLOADED"
    assert ask(transport, server)["error"]["message"] == "busy"
    with pytest.raises(ServiceUnavailable, match="not ready \\(HTTP 503\\)"):
        ask(transport, server)
    with pytest.raises(ServiceError, match="HTTP 500") as caught:
        ask(transport, server)
    assert not isinstance(caught.value, ServiceUnavailable)
    assert server.accepted == 1  # every one of them an answer: the connection lives
    with pytest.raises(ServiceError, match="HTTP 404"):
        ask(transport, server)
    assert idle(transport) == []  # a body that is not JSON is not from our server


def test_a_2xx_body_that_is_not_json_is_a_transport_failure(fake):
    server = fake(lambda n, path, body: Reply(body=b"<html>proxy</html>" if n <= 2 else None))
    transport = HttpTransport()
    with pytest.raises(ServiceUnavailable, match="malformed response"):
        ask(transport, server)
    assert idle(transport) == []  # closed, not pooled
    # ... so the client's retry policy sees it (a raw ValueError it did not).
    client = ServiceClient(
        server.url,
        retry_policy=RetryPolicy(max_attempts=2, base_delay=0, jitter=0),
        transport=transport,
    )
    assert client.healthz() == {}
    assert (server.accepted, server.requests) == (3, 3)


def test_an_unreachable_server_is_service_unavailable():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        port = listener.getsockname()[1]
    with pytest.raises(ServiceUnavailable, match="ConnectionRefusedError"):
        HttpTransport().request(f"http://127.0.0.1:{port}", "GET", "/healthz", None, 1.0)


def test_threads_sharing_the_default_transport_never_share_a_socket(fake):
    server = fake(lambda n, path, body: Reply(delay=0.002))
    wrong, workers = [], 4

    def worker(base):
        for i in range(base, base + 25):
            if ask(HTTP_TRANSPORT, server, i) != {"v": i}:
                wrong.append(i)

    threads = [threading.Thread(target=worker, args=(1000 * k,)) for k in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    # Two requests interleaved on one socket would garble an echo (or hang).
    assert wrong == [] and server.requests == 100
    assert 1 < server.max_in_flight <= workers  # they did overlap ...
    assert server.accepted <= workers  # ... each on a connection of its own, reused


def test_idle_connections_are_bounded_per_host(fake):
    parties = HttpTransport.IDLE_PER_HOST + 2
    barrier = threading.Barrier(parties)

    def script(n, path, body):
        barrier.wait(timeout=10)  # all in flight at once: that many connections
        return Reply()

    server, transport = fake(script), HttpTransport()
    threads = [threading.Thread(target=ask, args=(transport, server)) for _ in range(parties)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert server.accepted == parties
    assert len(idle(transport)) == HttpTransport.IDLE_PER_HOST
    deadline = time.monotonic() + 5
    while len(server._open) > HttpTransport.IDLE_PER_HOST and time.monotonic() < deadline:
        time.sleep(0.01)  # the evicted were closed: the server saw EOF on them
    assert len(server._open) == HttpTransport.IDLE_PER_HOST


def test_idle_connections_are_bounded_in_total():
    transport = HttpTransport()
    for i in range(200):  # what a test suite does: many short-lived servers
        server = FakeServer()
        try:
            assert ask(transport, server, i) == {"v": i}
        finally:
            server.stop()
    kept = idle(transport)
    assert len(kept) == HttpTransport.IDLE_TOTAL
    assert len({connection.sock.fileno() for connection in kept}) == len(kept)


def test_the_request_timeout_reaches_a_pooled_socket(fake):
    server = fake(lambda n, path, body: Reply(delay=1.0 if n == 2 else 0.0))
    transport = HttpTransport()
    ask(transport, server, 1, timeout=30.0)  # the connection is made with this one
    begin = time.monotonic()
    with pytest.raises(ServiceUnavailable, match="(?i)timed? ?out"):
        ask(transport, server, 2, timeout=0.1)
    assert time.monotonic() - begin < 0.9 and server.accepted == 1
    assert idle(transport) == []
