"""The Transport seam: how a request/response dict reaches a node.

:class:`ServiceClient` delegates the wire hop to a :class:`Transport`.
A transport's job is narrow: deliver ``(method, path, payload)`` to the
node behind ``base_url`` and return the decoded response body (which may
itself carry a structured ``{"error": ...}`` — mapping that back to an
exception stays in the client).  It raises
:class:`~repro.errors.ServiceUnavailable` only for *transport-level*
failures: the node is unreachable, the connection dropped, or the server
answered 503 with no body.

:class:`HttpTransport` is the production implementation, on kept
sockets that speak :mod:`repro.service.http1`.  :class:`SimTransport`
delivers the same dicts in-memory to in-process
:class:`~repro.service.server.QueryService` handlers, under a seeded
fault model (:class:`SimNet`) that can delay, drop, duplicate and
partition per-link — the whole replica set becomes testable in one
process at virtual-time speed.
"""

from __future__ import annotations

import json
import random
import socket
import threading
from urllib.parse import urlsplit

from repro.errors import ServiceError, ServiceUnavailable
from repro.service import frame, http1
from repro.sim.clock import VirtualClock


class Transport:
    """Delivers one request to one node; see module docstring."""

    def request(
        self,
        base_url: str,
        method: str,
        path: str,
        payload: dict | None,
        timeout: float,
    ) -> dict:
        raise NotImplementedError


class HttpTransport(Transport):
    """JSON over HTTP/1.1 (:mod:`repro.service.http1`) on kept sockets.

    Results of ``/query`` and ``/execute`` are asked for as typed binary
    columns (:mod:`repro.service.frame`).  An answer not framed by its
    ``Content-Length``, or a 2xx body that does not decode to an object —
    not JSON, a broken frame, a JSON array — is ``ServiceUnavailable``,
    never rows, and closes the connection.

    One request owns a connection at a time; it goes back to the idle
    list once the body was read in full, unless the response said
    ``close``; any error closes it.  One taken from the list is first
    checked for readability: EOF means the server hung up while it sat
    idle, so a fresh one is opened.  Once a byte of a request was written
    nothing is sent again — a write is not idempotent; that ambiguity is
    a ``ServiceUnavailable`` for the caller's ``RetryPolicy``.
    """

    #: Idle connections kept per (host, port) and in total; past either the
    #: oldest is closed (a test suite meets hundreds of short-lived servers).
    IDLE_PER_HOST = 4
    IDLE_TOTAL = 16

    def __init__(self):
        self._lock = threading.Lock()
        #: ((host, port), connection), oldest first; owned by no request.
        self._idle: list[tuple[tuple, _Connection]] = []

    def request(
        self,
        base_url: str,
        method: str,
        path: str,
        payload: dict | None,
        timeout: float,
    ) -> dict:
        url = urlsplit(base_url + path)
        host = (url.hostname, url.port or 80)
        fields = {"Host": url.netloc, "Accept": f"{frame.MEDIA_TYPE}, application/json"}
        data = b""
        if method == "POST":
            data = json.dumps(payload or {}).encode("utf-8")
            fields.update({"Content-Type": "application/json", "Content-Length": len(data)})
        connection = None
        try:
            connection = self._take(host, timeout) or _Connection(host, timeout)
            connection.sock.sendall(http1.head(f"{method} {url.path} HTTP/1.1", fields) + data)
            head = http1.read_head(connection.rfile)
            if head is None:
                raise ConnectionResetError("the server hung up without an answer")
            line, headers = head
            length = http1.content_length(headers)
            if not line.startswith("HTTP/1.1 ") or length is None:
                raise ValueError(f"not an HTTP/1.1 answer with 'Content-Length': {line[:80]!r}")
            status, raw = int(line[9:12]), connection.rfile.read(length)
            if len(raw) < length:
                raise ConnectionResetError(f"the answer ended after {len(raw)} of {length} bytes")
        except (OSError, ValueError) as error:
            # Connection refused/reset, DNS failure, socket timeout,
            # malformed or cut-short answer: the server is unreachable now.
            if connection is not None:
                connection.close()
            raise ServiceUnavailable(
                f"server unreachable: {type(error).__name__}: {error}"
            ) from error
        framed = headers.get("content-type") == frame.MEDIA_TYPE
        try:
            body = frame.decode(raw) if framed else json.loads(raw)
        except ValueError:
            body = None
        if not isinstance(body, dict):
            body = None  # not from our server: do not keep its connection
        if body is None or "close" in headers.get("connection", "").lower():
            connection.close()
        else:
            self._give_back(host, connection)
        if 200 <= status < 300:
            if body is None:
                raise ServiceUnavailable("server unreachable: malformed response")
            return body
        if isinstance(body, dict) and "error" in body:
            return body  # an HTTP error response *is* a server answer
        if status == 503:
            # No structured error but the status says it all: the
            # server is up yet not serving (draining /health probe).
            raise ServiceUnavailable("server is not ready (HTTP 503)")
        raise ServiceError(f"server returned HTTP {status}")

    def _take(self, host: tuple, timeout: float) -> _Connection | None:
        """The newest idle connection the server has not hung up on, if any."""
        while True:
            with self._lock:
                idle = self._idle
                at = next((i for i in reversed(range(len(idle))) if idle[i][0] == host), None)
                if at is None:
                    return None
                connection = idle.pop(at)[1]
            try:
                connection.sock.settimeout(0)
                connection.sock.recv(1, socket.MSG_PEEK)  # EOF, or bytes nobody asked for
            except BlockingIOError:  # nothing to read: still ours to write on
                connection.sock.settimeout(timeout)
                return connection
            except OSError:
                pass
            connection.close()

    def _give_back(self, host: tuple, connection: _Connection) -> None:
        with self._lock:
            idle = self._idle
            idle.append((host, connection))
            mine = [i for i, entry in enumerate(idle) if entry[0] == host]
            evicted = [idle.pop(mine[0])] if len(mine) > self.IDLE_PER_HOST else []
            if len(idle) > self.IDLE_TOTAL:
                evicted.append(idle.pop(0))
        for _, old in evicted:
            old.close()


class _Connection:
    """A socket to one server and the buffered reader its answers come through."""

    def __init__(self, host: tuple, timeout: float):
        self.sock = socket.create_connection(host, timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


#: Shared default — clients do ``transport or HTTP_TRANSPORT``.
HTTP_TRANSPORT = HttpTransport()


class SimNet:
    """In-memory network: node registry + seeded per-link fault model.

    Nodes register a handler (``QueryService.handle``) under their URL.
    Each delivery draws latency from the net's RNG, then applies faults
    in order: a crashed destination or a partitioned link fails fast
    with ``ServiceUnavailable``; a dropped *request* is lost before the
    handler runs; a duplicated request runs the handler twice (the
    caller sees the first response — the ghost models an at-least-once
    network); a dropped *response* loses the ack **after** the handler
    ran, the classic "did my write land?" ambiguity.  Reordering falls
    out of per-request random latency: two requests issued back-to-back
    can complete in either order depending on the draws.

    All randomness comes from the seeded ``rng`` and all time from the
    :class:`~repro.sim.clock.VirtualClock`, so a given seed always
    yields the identical sequence of deliveries.
    """

    def __init__(
        self,
        clock: VirtualClock,
        rng: random.Random,
        trace=None,
        latency: tuple[float, float] = (0.001, 0.005),
    ):
        self._clock = clock
        self._rng = rng
        self._trace = trace if trace is not None else []
        self.latency = latency
        self.drop_request_prob = 0.0
        self.drop_response_prob = 0.0
        self.duplicate_prob = 0.0
        self._handlers: dict[str, object] = {}
        self._down: set[str] = set()
        self._cut: set[frozenset[str]] = set()
        self._isolated: set[str] = set()
        self.counters = {
            "delivered": 0,
            "dropped_request": 0,
            "dropped_response": 0,
            "duplicated": 0,
            "partitioned": 0,
            "unreachable": 0,
        }

    # -- topology ------------------------------------------------------------

    def register(self, url: str, handler) -> None:
        self._handlers[url.rstrip("/")] = handler

    def set_down(self, url: str, down: bool = True) -> None:
        """Mark a node crashed: every delivery to it fails fast."""
        if down:
            self._down.add(url)
        else:
            self._down.discard(url)

    def partition(self, a: str, b: str) -> None:
        self._cut.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        self._cut.discard(frozenset((a, b)))

    def isolate(self, url: str) -> None:
        """Cut every link touching ``url``."""
        self._isolated.add(url)

    def unisolate(self, url: str) -> None:
        self._isolated.discard(url)

    def heal_all(self) -> None:
        self._cut.clear()
        self._isolated.clear()

    def severed(self, origin: str, dest: str) -> bool:
        if origin in self._isolated or dest in self._isolated:
            return True
        return frozenset((origin, dest)) in self._cut

    def transport(self, origin: str) -> "SimTransport":
        """A Transport whose requests originate from ``origin`` —
        identity matters because partitions are per-link."""
        return SimTransport(self, origin)

    # -- delivery ------------------------------------------------------------

    def deliver(
        self,
        origin: str,
        base_url: str,
        method: str,
        path: str,
        payload: dict | None,
        timeout: float,
    ) -> dict:
        dest = base_url.rstrip("/")
        latency = self._rng.uniform(*self.latency)
        handler = self._handlers.get(dest)
        if handler is None or dest in self._down:
            self.counters["unreachable"] += 1
            self._note("unreachable", origin, dest, path)
            raise ServiceUnavailable(f"sim: {dest} is down")
        if self.severed(origin, dest):
            # The caller burns its timeout discovering the cut.
            self.counters["partitioned"] += 1
            self._note("partitioned", origin, dest, path)
            self._clock.sleep(min(timeout, 0.05))
            raise ServiceUnavailable(f"sim: link {origin} -> {dest} is partitioned")
        if self.drop_request_prob and self._rng.random() < self.drop_request_prob:
            self.counters["dropped_request"] += 1
            self._note("drop_request", origin, dest, path)
            self._clock.sleep(min(timeout, 0.05))
            raise ServiceUnavailable(f"sim: request {origin} -> {dest} lost")
        self._clock.sleep(latency)
        if self.duplicate_prob and self._rng.random() < self.duplicate_prob:
            self.counters["duplicated"] += 1
            self._note("duplicate", origin, dest, path)
            status, body = handler(method, path, dict(payload) if payload else {})
            self._ghost(handler, method, path, payload)
            # fall through with the first response
        else:
            status, body = handler(method, path, dict(payload) if payload else {})
        if self.drop_response_prob and self._rng.random() < self.drop_response_prob:
            self.counters["dropped_response"] += 1
            self._note("drop_response", origin, dest, path)
            raise ServiceUnavailable(f"sim: response {dest} -> {origin} lost")
        self._clock.sleep(latency)
        self.counters["delivered"] += 1
        return body

    def _ghost(self, handler, method: str, path: str, payload: dict | None) -> None:
        """Redeliver a duplicated request; its response is discarded."""
        try:
            handler(method, path, dict(payload) if payload else {})
        except Exception:
            pass  # a ghost's failure is invisible by definition

    def _note(self, kind: str, origin: str, dest: str, path: str) -> None:
        self._trace.append(f"{self._clock.now():.4f} net {kind} {origin} {dest} {path}")


class SimTransport(Transport):
    """A :class:`Transport` bound to one origin on a :class:`SimNet`."""

    def __init__(self, net: SimNet, origin: str):
        self.net = net
        self.origin = origin

    def request(
        self,
        base_url: str,
        method: str,
        path: str,
        payload: dict | None,
        timeout: float,
    ) -> dict:
        return self.net.deliver(self.origin, base_url, method, path, payload, timeout)
