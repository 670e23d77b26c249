"""repro.service — the online co-scheduling daemon.

Turns the batch reproduction into a running service: a long-lived daemon
(:func:`~repro.service.async_server.serve_async`, ``repro serve`` on the
command line) accepts job submissions over a newline-delimited JSON
protocol, bounds each session's not-yet-started jobs (holding the excess
in a per-tenant priority backlog, then answering backpressure), enforces
per-tenant quotas, schedules arrived jobs with any method from the
``repro.core`` registry whenever a processor idles, reacts to live
power-cap events mid-run, and shards independent sessions across
workers.  Every job's lifecycle lives in one place, the event-log fold
of :mod:`repro.store`; with a durable directory that log is on disk, so
acknowledged work survives ``kill -9``.
See ``docs/API.md`` for the protocol schema and ``docs/SERVICE.md`` for
the architecture (store, shards, admission, recovery).

The deprecated threaded listener (``repro.service.server.serve`` /
``repro serve --legacy-server``) has been removed; the asyncio front end
is the only listener.
"""

from repro.service.async_server import serve_async
from repro.service.client import ServiceClient, ServiceError, ServiceUnavailable
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_request,
    decode_response,
    encode,
)
from repro.service.server import ServiceState
from repro.service.session import (
    CompletionRecord,
    LateRejection,
    ServiceSession,
)

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "decode_request",
    "decode_response",
    "encode",
    "ServiceMetrics",
    "CompletionRecord",
    "LateRejection",
    "ServiceSession",
    "ServiceState",
    "serve_async",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
]
