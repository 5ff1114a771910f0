"""The versioned JSON wire protocol between daemon and remote clients.

Design rules:

* **Versioned** — every envelope the server emits carries ``"protocol":
  PROTOCOL_VERSION``; decoders accept payloads without the field (clients
  may omit it) but refuse a mismatched version outright.
* **Lossless for the service types** — ``decode_*(encode_*(x)) == x``
  for :class:`~repro.service.session.QueryRequest`,
  :class:`~repro.service.session.QueryResponse` (scalar, GROUP BY with
  multi-attribute keys, rejected, failed) and error envelopes; the
  property is enforced by hypothesis in ``tests/test_wire_protocol.py``.
* **Strict JSON** — no tuples-as-keys, no numpy scalars.  GROUP BY keys
  (tuples in process) travel as lists and are restored to tuples on
  decode; :func:`json_ready` is the shared sanitizer for anything
  shipped verbatim (snapshots, stats).
* **Columnar GROUP BY** — a response's ``groups`` is one object of
  columns: ``keys``, a list of one G-entry column per GROUP BY
  attribute (JSON scalars), plus one column per
  :class:`~repro.core.engine.Answer` field.  A field column whose G
  entries are all equal in type and bits (``-0.0`` is not ``0.0``) is
  sent as that one JSON scalar — on a cached GROUP BY six of the seven
  are (``analyst``, ``view_name``, ``epsilon_charged``,
  ``per_bin_variance``, ``answer_variance``, ``cache_hit``); any other
  column is a G-entry list.  Each column is type-checked once on decode,
  then expanded; the decoder rebuilds the key tuples with ``zip``, and
  the in-process shape is still ``((key, Answer), ...)``.

Malformed payloads raise :class:`WireFormatError`, which the daemon maps
to ``400`` with a ``{"error": ...}`` body.
"""

from __future__ import annotations

import math
from array import array
from itertools import repeat
from operator import itemgetter
from typing import Any

from repro.core.engine import Answer, answer_from_row
from repro.db.sql.ast import SelectStatement
from repro.db.sql.unparse import to_sql
from repro.exceptions import ReproError
from repro.service.session import Lineage, QueryRequest, QueryResponse

#: Version of the wire format.  Bump on any incompatible envelope change;
#: decoders refuse envelopes stamped with a different version.  Version 2
#: made a GROUP BY's ``groups`` columnar; version 3 sends a constant
#: column as its one value and the keys as one column per attribute.
PROTOCOL_VERSION = 3

#: Machine ``kind`` tags used in error envelopes, mapped onto HTTP status
#: codes by the daemon (and back onto exceptions by the client).
ERROR_KINDS = (
    "bad_request",      # 400 — malformed payload / unknown route
    "unauthorized",     # 401 — unknown auth token
    "not_found",        # 404 — no such session
    "closed",           # 409 — service or session already closed
    "service_closed",   # 409 — the whole service is shut down
    "session_closed",   # 409 — this session was closed
    "rate_limited",     # 429 — per-analyst admission control refused
    "draining",         # 503 — graceful shutdown in progress
    "internal",         # 500 — unexpected failure
)


class WireFormatError(ReproError):
    """A payload did not conform to the wire protocol."""


def json_ready(value: Any) -> Any:
    """Recursively coerce ``value`` into strict-JSON types.

    Tuples become lists, numpy scalars become native ``int``/``float``
    (anything exposing ``.item()``), non-finite floats become ``None``
    (JSON has no NaN/Infinity), and dict keys are stringified.  Raises
    :class:`WireFormatError` for types with no faithful JSON image.
    """
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, int):  # int subclasses (np.intp on some builds)
        return int(value)
    if isinstance(value, float):  # float subclasses (np.float64)
        return float(value) if math.isfinite(value) else None
    if isinstance(value, dict):
        return {str(key): json_ready(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(item) for item in value]
    item = getattr(value, "item", None)
    if callable(item):  # numpy scalar
        return json_ready(item())
    raise WireFormatError(f"cannot serialize {type(value).__name__} "
                          f"onto the wire")


def _require(payload: Any, context: str) -> dict:
    if not isinstance(payload, dict):
        raise WireFormatError(f"{context}: expected a JSON object, "
                              f"got {type(payload).__name__}")
    version = payload.get("protocol")
    if version is not None and version != PROTOCOL_VERSION:
        raise WireFormatError(f"{context}: protocol version {version!r} "
                              f"not supported (this is {PROTOCOL_VERSION})")
    return payload


def _number(payload: dict, field: str, context: str,
            optional: bool = False) -> float | None:
    value = payload.get(field)
    if value is None:
        if optional:
            return None
        raise WireFormatError(f"{context}: missing numeric field {field!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WireFormatError(f"{context}: field {field!r} must be a "
                              f"number, got {type(value).__name__}")
    # The daemon's ``json.loads`` accepts the NaN/Infinity tokens strict
    # JSON lacks (and integer literals beyond float range);
    # :func:`json_ready` never emits either.
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise WireFormatError(f"{context}: field {field!r} must be finite")
    return number


# -- requests ------------------------------------------------------------------
def encode_request(request: QueryRequest) -> dict:
    """``QueryRequest`` -> wire object.  Statement objects are unparsed to
    canonical SQL text (the wire carries only text)."""
    sql = request.sql
    if isinstance(sql, SelectStatement):
        sql = to_sql(sql)
    return {
        "sql": sql,
        "accuracy": json_ready(request.accuracy),
        "epsilon": json_ready(request.epsilon),
    }


def decode_request(payload: Any) -> QueryRequest:
    body = _require(payload, "request")
    sql = body.get("sql")
    if not isinstance(sql, str) or not sql.strip():
        raise WireFormatError("request: 'sql' must be a non-empty string")
    return QueryRequest(
        sql,
        accuracy=_number(body, "accuracy", "request", optional=True),
        epsilon=_number(body, "epsilon", "request", optional=True),
    )


# -- answers / responses -------------------------------------------------------
def finite_or_none(value) -> float | None:
    """Strict-JSON image of one real number: ``json_ready(float(value))``
    without the type dispatch (JSON has no NaN/Infinity)."""
    value = float(value)
    return value if math.isfinite(value) else None


def _encode_answer(answer: Answer) -> dict:
    return {
        "analyst": answer.analyst,
        "value": finite_or_none(answer.value),
        "epsilon_charged": finite_or_none(answer.epsilon_charged),
        "view_name": answer.view_name,
        "per_bin_variance": finite_or_none(answer.per_bin_variance),
        "answer_variance": finite_or_none(answer.answer_variance),
        "cache_hit": bool(answer.cache_hit),
    }


def _decode_answer(payload: Any, context: str) -> Answer:
    body = _require(payload, context)
    analyst = body.get("analyst")
    view_name = body.get("view_name")
    if not isinstance(analyst, str) or not isinstance(view_name, str):
        raise WireFormatError(f"{context}: 'analyst' and 'view_name' "
                              f"must be strings")
    cache_hit = body.get("cache_hit")
    if not isinstance(cache_hit, bool):
        raise WireFormatError(f"{context}: 'cache_hit' must be a boolean")
    def num(field: str) -> float:
        value = _number(body, field, context)
        assert value is not None
        return value
    return Answer(analyst, num("value"), num("epsilon_charged"), view_name,
                  num("per_bin_variance"), num("answer_variance"), cache_hit)


#: Entry types each kind of GROUP BY column admits, matched by exact
#: ``type`` (what ``json.loads`` produces), so a bool is never a number.
_NUMBER_TYPES = frozenset((int, float))
_STRING_TYPES = frozenset((str,))
_BOOL_TYPES = frozenset((bool,))
_KEY_PART_TYPES = frozenset((str, int, float, bool, type(None)))
#: Key parts that are already their own strict-JSON image (a float may
#: be non-finite, so floats take the :func:`json_ready` path).
_PLAIN_KEY_TYPES = frozenset((str, int, bool, type(None)))


def _number_column(values) -> float | list | None:
    """A numeric column's wire image: its one value when every entry has
    the same bits (``-0.0`` is not ``0.0``), else the list, with
    :func:`finite_or_none` applied."""
    numbers = array("d", values)
    if numbers and numbers.tobytes() == numbers[:1].tobytes() * len(numbers):
        return finite_or_none(numbers[0])
    if all(map(math.isfinite, numbers)):
        return numbers.tolist()
    return [number if math.isfinite(number) else None
            for number in numbers]


def _same_column(values: list):
    """A string or boolean column's wire image: its one value when every
    entry equals the first, else the list.  The entries share one type
    (names are strings, ``cache_hit`` is mapped through ``bool``), so
    equal values are equal bits."""
    if values and values.count(values[0]) == len(values):
        return values[0]
    return values


def _encode_groups(groups) -> dict:
    keys = list(map(itemgetter(0), groups))
    if len(set(map(len, keys))) > 1 or (keys and not keys[0]):
        raise WireFormatError("GROUP BY keys must all have the same, "
                              "non-zero number of parts")
    key_columns = [list(column) for column in zip(*keys)]
    for column in key_columns:
        if not _PLAIN_KEY_TYPES.issuperset(map(type, column)):
            key_columns = json_ready(key_columns)
            break
    # An Answer is a tuple: one transpose yields every field's column.
    (analyst, value, epsilon_charged, view_name, per_bin_variance,
     answer_variance, cache_hit) = \
        zip(*map(itemgetter(1), groups)) if groups else ((),) * 7
    return {
        "keys": key_columns,
        "analyst": _same_column(list(analyst)),
        "view_name": _same_column(list(view_name)),
        "value": _number_column(value),
        "epsilon_charged": _number_column(epsilon_charged),
        "per_bin_variance": _number_column(per_bin_variance),
        "answer_variance": _number_column(answer_variance),
        "cache_hit": _same_column(list(map(bool, cache_hit))),
    }


def _entries(body: dict, field: str, size: int, kinds: frozenset,
             what: str) -> list:
    """One GROUP BY column as sent: a list of ``size`` entries, or one
    scalar standing for ``size`` equal entries (returned as a one-entry
    list).  Every entry's type must be in ``kinds``."""
    column = body.get(field)
    if isinstance(column, list):
        if len(column) != size:
            raise WireFormatError(f"response.groups: column {field!r} has "
                                  f"{len(column)} entries, the keys have "
                                  f"{size}")
    elif column is None:
        raise WireFormatError(f"response.groups: missing column {field!r}")
    else:
        column = [column]
    if not kinds.issuperset(map(type, column)):
        raise WireFormatError(f"response.groups: column {field!r} must "
                              f"hold {what}")
    return column


def _expand(entries: list, size: int):
    """``entries`` as ``size`` entries: a column sent as one scalar
    repeats it."""
    return entries if len(entries) == size else repeat(entries[0], size)


def _column(body: dict, field: str, size: int, kinds: frozenset,
            what: str):
    return _expand(_entries(body, field, size, kinds, what), size)


def _numbers(body: dict, field: str, size: int):
    """A numeric column as finite floats.  ``json.loads`` accepts the
    NaN/Infinity tokens strict JSON lacks, and integer literals beyond
    float range; :func:`json_ready` never emits either."""
    entries = _entries(body, field, size, _NUMBER_TYPES, "numbers")
    try:
        numbers = list(map(float, entries))
        if all(map(math.isfinite, numbers)):
            return _expand(numbers, size)
    except OverflowError:
        pass
    raise WireFormatError(f"response.groups: column {field!r} must hold "
                          f"finite numbers")


def _decode_groups(payload: Any) -> tuple:
    if not isinstance(payload, dict):
        raise WireFormatError("response: 'groups' must be an object of "
                              "columns")
    keys = payload.get("keys")
    if not isinstance(keys, list):
        raise WireFormatError("response.groups: missing column 'keys'")
    size = len(keys[0]) if keys and isinstance(keys[0], list) else 0
    for column in keys:
        if not isinstance(column, list) or \
                not _KEY_PART_TYPES.issuperset(map(type, column)):
            raise WireFormatError("response.groups: each key column must "
                                  "be a list of JSON scalars")
        if len(column) != size:
            raise WireFormatError("response.groups: key columns differ in "
                                  "length")
    answers = map(answer_from_row, zip(
        _column(payload, "analyst", size, _STRING_TYPES, "strings"),
        _numbers(payload, "value", size),
        _numbers(payload, "epsilon_charged", size),
        _column(payload, "view_name", size, _STRING_TYPES, "strings"),
        _numbers(payload, "per_bin_variance", size),
        _numbers(payload, "answer_variance", size),
        _column(payload, "cache_hit", size, _BOOL_TYPES, "booleans")))
    return tuple(zip(zip(*keys), answers))


def _encode_lineage(lineage: Lineage) -> dict:
    return {
        "view": lineage.view,
        "source": lineage.source,
        "epsilon": json_ready(float(lineage.epsilon)),
        "mechanism": lineage.mechanism,
        "composition": lineage.composition,
        "synopsis_generation": int(lineage.synopsis_generation),
        "ledger_seq": (None if lineage.ledger_seq is None
                       else int(lineage.ledger_seq)),
        "trace_id": lineage.trace_id,
    }


def _decode_lineage(payload: Any, context: str) -> Lineage:
    """Tolerant lineage decode: the field is descriptive and optional, so
    unknown or missing sub-fields degrade to defaults rather than failing
    the whole response (a newer server must not break an older client
    that merely passes the dict through)."""
    body = _require(payload, context)

    def text(field: str) -> str | None:
        value = body.get(field)
        return value if isinstance(value, str) else None

    def integer(field: str) -> int | None:
        value = body.get(field)
        return value if isinstance(value, int) and \
            not isinstance(value, bool) else None

    epsilon = body.get("epsilon")
    if isinstance(epsilon, bool) or not isinstance(epsilon, (int, float)):
        epsilon = 0.0
    return Lineage(
        view=text("view"),
        source=text("source") or "fresh",
        epsilon=float(epsilon),
        mechanism=text("mechanism"),
        composition=text("composition"),
        synopsis_generation=integer("synopsis_generation") or 0,
        ledger_seq=integer("ledger_seq"),
        trace_id=text("trace_id"),
    )


def encode_response(response: QueryResponse) -> dict:
    """``QueryResponse`` -> wire object (scalar, GROUP BY, or failure).

    ``lineage`` is emitted only when present: old clients never see the
    key, new clients treat its absence as "server predates lineage"."""
    body: dict = {
        "protocol": PROTOCOL_VERSION,
        "index": int(response.index),
        "error": response.error,
        "rejected": bool(response.rejected),
        "answer": None,
        "groups": None,
    }
    if response.answer is not None:
        body["answer"] = _encode_answer(response.answer)
    if response.groups is not None:
        body["groups"] = _encode_groups(response.groups)
    if response.lineage is not None:
        body["lineage"] = _encode_lineage(response.lineage)
    return body


def decode_response(payload: Any) -> QueryResponse:
    body = _require(payload, "response")
    index = body.get("index")
    if isinstance(index, bool) or not isinstance(index, int):
        raise WireFormatError("response: 'index' must be an integer")
    error = body.get("error")
    if error is not None and not isinstance(error, str):
        raise WireFormatError("response: 'error' must be a string or null")
    rejected = body.get("rejected", False)
    if not isinstance(rejected, bool):
        raise WireFormatError("response: 'rejected' must be a boolean")
    answer = body.get("answer")
    groups = body.get("groups")
    if answer is not None:
        answer = _decode_answer(answer, "response.answer")
    if groups is not None:
        groups = _decode_groups(groups)
    lineage = body.get("lineage")
    if lineage is not None:
        lineage = _decode_lineage(lineage, "response.lineage")
    return QueryResponse(index, answer=answer, groups=groups,
                         error=error, rejected=rejected, lineage=lineage)


# -- error envelopes -----------------------------------------------------------
def encode_error(message: str, kind: str = "internal") -> dict:
    """The body of every non-2xx daemon reply: ``error`` text + machine
    ``kind`` tag (see :data:`ERROR_KINDS`)."""
    if kind not in ERROR_KINDS:
        raise WireFormatError(f"unknown error kind {kind!r}")
    return {"protocol": PROTOCOL_VERSION, "error": str(message),
            "kind": kind}


def decode_error(payload: Any) -> tuple[str, str]:
    """Wire object -> ``(message, kind)``; tolerant of unknown kinds so
    newer servers can add tags without breaking older clients."""
    body = _require(payload, "error envelope")
    message = body.get("error")
    if not isinstance(message, str):
        raise WireFormatError("error envelope: 'error' must be a string")
    kind = body.get("kind", "internal")
    if not isinstance(kind, str):
        raise WireFormatError("error envelope: 'kind' must be a string")
    return message, kind


__all__ = [
    "ERROR_KINDS",
    "PROTOCOL_VERSION",
    "WireFormatError",
    "decode_error",
    "decode_request",
    "decode_response",
    "encode_error",
    "encode_request",
    "encode_response",
    "finite_or_none",
    "json_ready",
]
