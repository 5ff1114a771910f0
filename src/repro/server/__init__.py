"""Network serving subsystem: HTTP daemon + versioned JSON wire protocol.

* :mod:`repro.server.protocol` — the wire format: encoders/decoders for
  the service's request/response envelopes (including GROUP BY results
  and error envelopes), a strict-JSON sanitizer, and the protocol version
  constant.  Everything the daemon puts on the wire round-trips through
  this module, so the client and the tests share one source of truth.
* :mod:`repro.server.daemon` — :class:`ReproServer`: a stdlib-only
  front-end over one :class:`repro.service.service.QueryService`, one
  plain keep-alive loop per connection thread over
  :mod:`repro.server.framing` (shared with the client).  Sessions map
  onto HTTP resources, auth tokens onto analyst identities, each request
  gets one tracing decision, and graceful shutdown drains in-flight work
  while refusing new sessions.

The matching client lives in :mod:`repro.client`.
"""

from repro.server.daemon import DrainTimeout, ReproServer, load_token_table
from repro.server.protocol import (
    PROTOCOL_VERSION,
    WireFormatError,
    decode_error,
    decode_request,
    decode_response,
    encode_error,
    encode_request,
    encode_response,
    json_ready,
)

__all__ = [
    "DrainTimeout",
    "PROTOCOL_VERSION",
    "ReproServer",
    "WireFormatError",
    "decode_error",
    "decode_request",
    "decode_response",
    "encode_error",
    "encode_request",
    "encode_response",
    "json_ready",
    "load_token_table",
]
