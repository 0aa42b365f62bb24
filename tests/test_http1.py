"""The server's HTTP/1.1 edge at the byte level: raw sockets against a
``QueryServer``.

Each refusal is a ``400`` that says ``Connection: close`` and is followed
by EOF, read with a socket timeout: a server that waited for more bytes
(an unbounded line, a body framed some other way) fails by timing out.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys

import pytest

from repro import Database
from repro.service.http1 import MAX_HEADERS, MAX_LINE
from repro.service.server import QueryServer, ServerConfig

QUERY = json.dumps({"sql": "SELECT COUNT(*) FROM r"}).encode()


@pytest.fixture(scope="module")
def server():
    db = Database()
    db.create_table("r", ["A1", "A2"], [(i, i % 3) for i in range(7)])
    server = QueryServer(db, ServerConfig(port=0)).start()
    yield server
    server.stop()


def until_eof(server, *writes: bytes) -> bytes:
    """Everything the server sends on one connection until it closes it."""
    with socket.create_connection(server.address, timeout=5) as connection:
        for data in writes:
            connection.sendall(data)
        raw = b""
        while chunk := connection.recv(65536):
            raw += chunk
    return raw


def answers(raw: bytes) -> list[tuple[int, dict, bytes]]:
    """``(status, headers, body)`` of each answer in ``raw``, in order."""
    found = []
    while raw:
        head, _, raw = raw.partition(b"\r\n\r\n")
        start, *lines = head.decode("latin-1").split("\r\n")
        fields = (line.partition(":") for line in lines)
        headers = {name.lower(): value.strip() for name, _, value in fields}
        length = int(headers.get("content-length", 0))
        found.append((int(start.split(" ")[1]), headers, raw[:length]))
        raw = raw[length:]
    return found


def post(body: bytes = QUERY, version: str = "HTTP/1.1", extra: str = "") -> bytes:
    head = f"POST /query {version}\r\nHost: x\r\nContent-Length: {len(body)}\r\n{extra}\r\n"
    return head.encode() + body


def refused(server, *writes: bytes) -> str:
    """The message of the one 400 the server answers before it hangs up."""
    [(status, headers, body)] = answers(until_eof(server, *writes))
    assert status == 400 and headers["connection"] == "close"
    error = json.loads(body)["error"]
    assert error["code"] == "BAD_REQUEST"
    return error["message"]


def test_a_request_line_past_the_bound_is_refused(server):
    # One byte past the bound and no newline: a reader without the bound
    # waits for one.  (Nothing is left unread, so the close is no reset.)
    line = b"GET /" + b"a" * (MAX_LINE - 4)
    assert "longer than" in refused(server, line)


def test_a_header_line_past_the_bound_is_refused(server):
    field = b"X-Long: " + b"a" * (MAX_LINE - 7)
    assert "longer than" in refused(server, b"GET /healthz HTTP/1.1\r\n" + field)


def test_more_headers_than_the_bound_are_refused(server):
    def head(count):  # ``Connection: close`` and count - 1 more
        fields = "".join(f"X-{i}: {i}\r\n" for i in range(count - 1))
        return f"GET /healthz HTTP/1.1\r\nConnection: close\r\n{fields}\r\n".encode()

    [(status, _, _)] = answers(until_eof(server, head(MAX_HEADERS)))
    assert status == 200
    assert "headers" in refused(server, head(MAX_HEADERS + 1))


def test_a_header_line_without_a_colon_is_refused(server):
    assert "header line" in refused(server, b"GET /healthz HTTP/1.1\r\nbogus\r\n\r\n")


@pytest.mark.parametrize(
    "request_line", ["GET /healthz", "GET /healthz HTTP/2.0", "GET / x HTTP/1.1", ""]
)
def test_a_malformed_request_line_is_refused(server, request_line):
    assert "request line" in refused(server, f"{request_line}\r\nHost: x\r\n\r\n".encode())


@pytest.mark.parametrize(
    "field", ["Content-Length: -1", "Content-Length: x", "Transfer-Encoding: chunked"]
)
def test_a_body_that_cannot_be_framed_is_refused_unread(server, field):
    # Only the head is sent: a server that went on to read a body waits.
    head = f"POST /query HTTP/1.1\r\nHost: x\r\n{field}\r\n\r\n"
    assert field.split(":")[0] in refused(server, head.encode())


def test_a_method_other_than_get_or_post_is_501(server):
    raw = until_eof(server, b"PUT /query HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}")
    [(status, headers, body)] = answers(raw)
    assert (status, headers["connection"]) == (501, "close")
    assert "PUT" in json.loads(body)["error"]["message"]


@pytest.mark.parametrize(
    "message", [post(version="HTTP/1.0"), post(extra="Connection: close\r\n")], ids=["1.0", "close"]
)
def test_the_last_request_is_answered_then_the_connection_closed(server, message):
    [(status, headers, body)] = answers(until_eof(server, message))
    assert (status, headers["connection"]) == (200, "close")
    assert json.loads(body)["rows"] == [[7]]


def test_expect_100_continue_is_answered_before_the_body_is_sent(server):
    with socket.create_connection(server.address, timeout=5) as connection:
        head, body = post(extra="Expect: 100-continue\r\nConnection: close\r\n").split(b"\r\n\r\n")
        connection.sendall(head + b"\r\n\r\n")
        interim = b"HTTP/1.1 100 Continue\r\n\r\n"
        got = b""
        while len(got) < len(interim):
            got += connection.recv(len(interim) - len(got))
        assert got == interim  # the body is not on the wire yet
        connection.sendall(body)
        raw = b""
        while chunk := connection.recv(65536):
            raw += chunk
    [(status, _, answer)] = answers(raw)
    assert status == 200 and json.loads(answer)["rows"] == [[7]]


def test_pipelined_requests_are_answered_in_order(server):
    second = json.dumps({"sql": "SELECT A2 FROM r WHERE A1 = 5"}).encode()
    raw = until_eof(server, post() + post(second, extra="Connection: close\r\n"))
    (status_1, headers_1, body_1), (status_2, headers_2, body_2) = answers(raw)
    assert (status_1, status_2) == (200, 200) and "connection" not in headers_1
    assert json.loads(body_1)["rows"] == [[7]] and json.loads(body_2)["rows"] == [[2]]


def test_the_stdlib_http_and_email_stacks_are_not_imported():
    probe = (
        "import repro, repro.service.server, repro.service.client, sys;"
        "print(sorted(m for m in ('http.server', 'http.client', 'email') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
