"""The serving layer: a long-running containment service with coalescing.

Everything PRs 1–4 made fast is batch- and repetition-shaped — result-cache
replays, completion/automaton reuse, shard-by-schema process routing,
disk warm-starts — but a fresh process per caller pays interpreter start-up,
pool spawn and store open every time and then throws the warmth away.  This
package keeps one warm :class:`~repro.engine.ContainmentEngine` alive behind
a request coalescer and serves independent clients from it (see
docs/ARCHITECTURE.md, "The serving layer"):

* :class:`RequestCoalescer` / :class:`CoalescerStats` — micro-batches
  concurrent requests with a self-clocking flusher (an idle coalescer
  sends a request at once; whatever queues while a wave runs becomes the
  next wave, up to a max batch size), deduplicates by the engine's
  canonical-fingerprint result keys, drops requests whose waiters
  cancelled, routes through ``check_many`` on a configurable backend, fans
  verdicts back out to the waiting futures;
* :class:`ContainmentService` / :class:`ServiceError` — owns the engine
  (+ optional worker pool and persistent store), parses and caches
  schema/query source text, renders JSON responses with
  ``result_fingerprint`` digests, reports ``/healthz`` and ``/stats``,
  closes in dependency order (coalescer → pool → store);
* :class:`ContainmentHTTPServer` / :func:`make_server` — the stdlib
  threading HTTP transport (``POST /contain``, ``POST /batch``,
  ``GET /healthz``, ``GET /stats``);
* :func:`serve_stdio` — the newline-delimited-JSON embedding transport
  (responses in input order, control ops on the same stream).

``python -m repro serve`` is the CLI entry point for both transports.
"""

from .coalescer import CoalescerStats, RequestCoalescer
from .http import ContainmentHTTPServer, make_server
from .service import ContainmentService, ServiceError
from .stdio import serve_stdio

__all__ = [
    "CoalescerStats",
    "ContainmentHTTPServer",
    "ContainmentService",
    "RequestCoalescer",
    "ServiceError",
    "make_server",
    "serve_stdio",
]
