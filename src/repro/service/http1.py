"""The HTTP/1.1 subset the server and the shipped transport speak: a body
framed by ``Content-Length`` alone, a head bounded as ``http.server``
bounded it.  Anything else is a ``ValueError`` (a 400 that closes, or
``ServiceUnavailable``)."""

from http import HTTPStatus

MAX_LINE, MAX_HEADERS = 65536, 100
REASONS = {status.value: status.phrase for status in HTTPStatus}


def read_head(rfile) -> tuple[str, dict[str, str]] | None:
    """The next start line and headers (names lower-cased); None at EOF before it."""
    start = _line(rfile)
    if not start:
        return None
    headers = {}
    for _ in range(MAX_HEADERS + 1):
        line = _line(rfile)
        if line in (b"\r\n", b"\n"):
            return start.decode("latin-1").rstrip("\r\n"), headers
        name, colon, value = line.partition(b":")
        if not colon:  # also EOF inside the head
            raise ValueError(f"malformed header line {line[:80]!r}")
        headers[name.strip().lower().decode("latin-1")] = value.strip().decode("latin-1")
    raise ValueError(f"more than {MAX_HEADERS} headers")


def _line(rfile) -> bytes:
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise ValueError(f"a head line longer than {MAX_LINE} bytes")
    return line


def content_length(headers: dict[str, str]) -> int | None:
    """The body's length; None when the head names none."""
    if "transfer-encoding" in headers:
        raise ValueError("'Transfer-Encoding' is not supported: send 'Content-Length'")
    value = headers.get("content-length")
    if value is not None and not value.isdecimal():
        raise ValueError("'Content-Length' must be a non-negative integer")
    return None if value is None else int(value)


def head(start: str, fields: dict) -> bytes:
    """A start line and its header fields, ready to go out before a body."""
    lines = [start, *(f"{name}: {value}" for name, value in fields.items()), "", ""]
    return "\r\n".join(lines).encode("latin-1")
