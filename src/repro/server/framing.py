"""HTTP/1.1 message framing, shared by the daemon and ``RemoteAnalyst``.

A message head is a start line plus ``Name: value`` lines up to a blank
line.  :func:`read_request_head` / :func:`read_response_head` read one
from a buffered binary reader into a lower-cased ``dict`` with the
stdlib's limits (64 KiB per line, 100 header lines, ``HTTP/1.0`` or
``HTTP/1.1``): in one ``peek`` when it sits whole in the buffer (each
end sends a message in one ``sendall``), else line by line, to the same
head or the same :class:`FramingError` status.  Bodies are framed by
``Content-Length`` only: a ``Transfer-Encoding`` header, or two
``Content-Length`` values that disagree, would let the two ends disagree
on where the next message starts, so either is refused.
"""

from __future__ import annotations

#: Longest accepted start or header line, and most header lines per head.
MAX_LINE = 65536
MAX_HEADERS = 100

VERSIONS = ("HTTP/1.1", "HTTP/1.0")


class FramingError(Exception):
    """A message head broke the framing rules.  ``status`` is what a
    server answers the request with; a client treats any response-head
    failure as a dead connection."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _add_header(headers: dict[str, str], line: str) -> None:
    """Fold one decoded header line (its line end may be stripped)."""
    name, colon, value = line.partition(":")
    if not colon or name.split() != [name]:
        raise FramingError(400, "malformed header line")
    name, value = name.lower(), value.strip()
    if name in headers and name == "content-length":
        if headers[name] != value:
            raise FramingError(400, "conflicting Content-Length headers")
    elif name in headers:
        headers[name] += ", " + value
    else:
        headers[name] = value


def _checked(headers: dict[str, str]) -> dict[str, str]:
    if "transfer-encoding" in headers:
        raise FramingError(400, "Transfer-Encoding is not supported; "
                                "send Content-Length")
    return headers


def _read_headers(rfile) -> dict[str, str]:
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise FramingError(431, "header line too long")
        if line in (b"\r\n", b"\n"):
            return _checked(headers)
        if not line.endswith(b"\n"):
            raise FramingError(400, "malformed header line")
        _add_header(headers, line.decode("latin-1"))
    raise FramingError(431, "too many headers")


def _check_version(version: str) -> None:
    if version not in VERSIONS:
        status = 505 if version.startswith("HTTP/") else 400
        raise FramingError(status, f"unsupported HTTP version {version!r}")


def _request_line(line: str) -> list[str]:
    words = line.split()
    if len(words) != 3:
        raise FramingError(400, "malformed request line")
    _check_version(words[2])
    return words


def _status(line: str) -> int:
    words = line.split(None, 2)
    if len(line) > MAX_LINE or len(words) < 2 or not words[1].isdigit():
        raise FramingError(502, "connection closed" if not line
                           else "malformed status line")
    _check_version(words[0])
    return int(words[1])


def _fold(lines: list[str]) -> dict[str, str]:
    headers: dict[str, str] = {}
    for line in lines:
        _add_header(headers, line)
    return _checked(headers)


#: A memo holds at most ``MEMO_HEADS`` heads (then it is cleared), each
#: at most ``MEMO_HEAD_BYTES`` long; a longer head is parsed every time.
MEMO_HEADS = 64
MEMO_HEAD_BYTES = 1024


def _buffered_head(rfile, start, memo: dict | None) -> tuple | None:
    """``(start(start line), headers)`` of a head that sits whole in
    ``rfile``'s buffer, which is then consumed; ``None`` (nothing
    consumed) when the line reader must decide: the head is not all
    there, uses a bare ``LF`` or comes near a limit.  ``memo`` maps head
    bytes to this result (its headers are shared: callers copy them)."""
    buffered = rfile.peek()
    end = buffered.find(b"\r\n\r\n")
    if end < 0 or end + 2 > MAX_LINE:
        return None
    if end > MEMO_HEAD_BYTES:
        memo = None
    head = buffered[:end]
    parsed = None if memo is None else memo.get(head)
    if parsed is None:
        lines = head.count(b"\n")
        if lines != head.count(b"\r\n") or lines > MAX_HEADERS:
            return None
        first, *rest = head.decode("latin-1").split("\r\n")
        parsed = start(first), _fold(rest)
        if memo is not None:
            if len(memo) >= MEMO_HEADS:
                memo.clear()
            memo[head] = parsed
    rfile.read(end + 4)
    return parsed


def read_request_head(rfile, memo: dict | None = None
                      ) -> tuple[str, str, str, dict] | None:
    """``(method, target, version, headers)`` of the next request on
    ``rfile``, or ``None`` at a clean end of stream before its first
    byte.  ``memo``, a dict the caller keeps for one peer (the daemon
    one per connection, a client one per server), parses a repeated
    head once: a keep-alive peer's heads differ in a few values
    (``Content-Length``, ``Date``) and often in none (on the
    ``mix_remote`` benchmark 89% of request heads and 69% of response
    heads had been parsed before)."""
    parsed = _buffered_head(rfile, _request_line, memo)
    if parsed is not None:
        return (*parsed[0], dict(parsed[1]))
    line = rfile.readline(MAX_LINE + 1)
    if not line:
        return None
    if len(line) > MAX_LINE:
        raise FramingError(414, "request line too long")
    return (*_request_line(line.decode("latin-1")), _read_headers(rfile))


def read_response_head(rfile, memo: dict | None = None) -> tuple[int, dict]:
    """``(status, headers)`` of the next response on ``rfile``; ``memo``
    as for :func:`read_request_head`."""
    parsed = _buffered_head(rfile, _status, memo)
    if parsed is not None:
        return parsed[0], dict(parsed[1])
    return (_status(rfile.readline(MAX_LINE + 1).decode("latin-1")),
            _read_headers(rfile))


__all__ = ["FramingError", "MAX_HEADERS", "MAX_LINE", "MEMO_HEADS",
           "MEMO_HEAD_BYTES", "read_request_head", "read_response_head"]
