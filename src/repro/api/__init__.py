"""Stable public API: the request/response layer over the wire format.

Three pieces turn the in-process library into a serveable system:

* :class:`ExplanationService` — a stateful server core owning a database
  registry, request validation, an LRU result cache keyed by a 128-bit
  digest of the request (hit/miss counters surfaced in every response;
  inline databases are decoded only on a miss) and concurrent dispatch
  (:mod:`repro.api.service`);
* the HTTP front ends — ``python -m repro serve`` exposes
  ``POST /v1/explain``, ``POST /v1/query``, ``GET /v1/scenarios``,
  ``GET /v1/health`` and ``GET /v1/stats`` over the versioned wire format
  of :mod:`repro.wire` (:mod:`repro.api.http`, stdlib
  ``ThreadingHTTPServer``), and ``--processes N`` swaps in the sharded
  multi-process front end (:mod:`repro.api.sharded`: consistent-hash
  routing, request coalescing, 503 backpressure, crash respawn — see
  ``docs/SERVING.md``);
* :class:`Client` — a small ``urllib`` client (with 503-aware retries) so
  Python callers on other machines get the same typed objects back
  (:mod:`repro.api.client`).

The in-process entry points (:func:`repro.explain`,
:func:`repro.scenarios.run_scenario`) are unchanged — the service wraps
them, and the differential fuzz oracle cross-checks both paths
(``docs/API.md`` documents the format and its compatibility policy).
"""

from repro.api.client import ApiError, Client, RemoteExplainResponse
from repro.api.service import (
    API_VERSION,
    BadRequest,
    ExplainOptions,
    ExplainRequest,
    ExplainResponse,
    ExplanationService,
    InlineDatabase,
    UnknownDatabase,
)
from repro.api.sharded import (
    Overloaded,
    ShardDispatcher,
    ShardedConfig,
    WorkerCrashed,
    routing_key,
)

__all__ = [
    "API_VERSION",
    "ApiError",
    "BadRequest",
    "Client",
    "ExplainOptions",
    "ExplainRequest",
    "ExplainResponse",
    "ExplanationService",
    "InlineDatabase",
    "Overloaded",
    "RemoteExplainResponse",
    "ShardDispatcher",
    "ShardedConfig",
    "UnknownDatabase",
    "WorkerCrashed",
    "routing_key",
]
