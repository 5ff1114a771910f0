"""HTTP/1.1 message framing, shared by the daemon and ``RemoteAnalyst``.

A message head is a start line plus ``Name: value`` lines up to a blank
line.  :func:`read_request_head` / :func:`read_response_head` read one
from a buffered binary reader into a lower-cased ``dict`` with the
stdlib's limits (64 KiB per line, 100 header lines, ``HTTP/1.0`` or
``HTTP/1.1``); :func:`format_head` builds one as a single ``bytes`` so a
whole message — head and body — goes out in one write.  Bodies are
framed by ``Content-Length`` only: a ``Transfer-Encoding`` header, or two
``Content-Length`` values that disagree, would let the two ends disagree
on where the next message starts, so either is refused.
"""

from __future__ import annotations

import time
from email.utils import formatdate
from functools import lru_cache

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


def _read_headers(rfile) -> dict[str, str]:
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise FramingError(431, "header line too long")
        if line in (b"\r\n", b"\n"):
            if "transfer-encoding" in headers:
                raise FramingError(400, "Transfer-Encoding is not "
                                        "supported; send Content-Length")
            return headers
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not line.endswith(b"\n") or name.split() != [name]:
            raise FramingError(400, "malformed header line")
        name, value = name.lower(), value.strip()
        if name in headers and name == "content-length":
            if headers[name] != value:
                raise FramingError(400, "conflicting Content-Length headers")
        elif name in headers:
            headers[name] += ", " + value
        else:
            headers[name] = value
    raise FramingError(431, "too many headers")


def _check_version(version: str) -> None:
    if version not in VERSIONS:
        status = 505 if version.startswith("HTTP/") else 400
        raise FramingError(status, f"unsupported HTTP version {version!r}")


def read_request_head(rfile, line: bytes) -> tuple[str, str, str, dict]:
    """``(method, target, version, headers)``; ``line`` is the request
    line, already read (and length-checked) by the caller."""
    words = line.decode("latin-1").split()
    if len(words) != 3:
        raise FramingError(400, "malformed request line")
    _check_version(words[2])
    return words[0], words[1], words[2], _read_headers(rfile)


def read_response_head(rfile) -> tuple[int, dict]:
    """``(status, headers)`` of the next response on ``rfile``."""
    line = rfile.readline(MAX_LINE + 1)
    words = line.decode("latin-1").split(None, 2)
    if len(line) > MAX_LINE or len(words) < 2 or not words[1].isdigit():
        raise FramingError(502, "connection closed" if not line
                           else "malformed status line")
    _check_version(words[0])
    return int(words[1]), _read_headers(rfile)


@lru_cache(maxsize=2)
def _http_date(second: int) -> str:
    return formatdate(second, usegmt=True)


def http_date() -> str:
    """The ``Date`` header value, formatted once per second."""
    return _http_date(int(time.time()))


def format_head(start_line: str, headers: list[tuple[str, object]]) -> bytes:
    """Start line, headers and the blank line as one ``bytes``."""
    lines = [start_line]
    lines += [f"{name}: {value}" for name, value in headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


__all__ = ["FramingError", "MAX_HEADERS", "MAX_LINE", "format_head",
           "http_date", "read_request_head", "read_response_head"]
