"""The stdio transport: newline-delimited JSON for embedding.

``python -m repro serve --stdio`` reads one JSON request per input line and
writes one JSON response per line, **in input order** — the contract an
embedding parent process (a test harness, a language server-style wrapper, a
shell pipeline) can rely on without request ids.  Coalescing still applies:
the reader submits every line to the service as fast as input arrives while
a writer thread resolves futures in submission order, so a burst of piped
lines micro-batches exactly like concurrent HTTP clients.

Control lines ride the same stream: ``{"op": "healthz"}`` and
``{"op": "stats"}`` answer with the corresponding report (in order, like
any other line), and ``{"op": "shutdown"}`` answers ``{"ok": true}`` and
ends the loop after draining everything before it.  Lines that fail to
parse produce an ``{"error": ...}`` response in their slot rather than
killing the stream.
"""

from __future__ import annotations

import functools
import json
import queue
import threading
from typing import Any, Callable, Dict, Optional, TextIO

from .service import REQUEST_TIMEOUT_SECONDS, ContainmentService, ServiceError

__all__ = ["serve_stdio"]

_DONE = object()


def serve_stdio(
    service: ContainmentService,
    input_stream: Optional[TextIO] = None,
    output_stream: Optional[TextIO] = None,
) -> Dict[str, int]:
    """Serve NDJSON requests until EOF or a shutdown line; returns counts.

    The reader (this thread) parses and submits; a writer thread emits
    responses in submission order, flushing per line so the embedding
    process can stream.  On EOF the queue drains before returning — every
    accepted request is answered.
    """
    import sys

    stdin = input_stream if input_stream is not None else sys.stdin
    stdout = output_stream if output_stream is not None else sys.stdout

    pending: "queue.Queue[Any]" = queue.Queue()
    counts = {"requests": 0, "responses": 0, "errors": 0}
    counts_lock = threading.Lock()

    def answer(future, request_id: Any) -> Dict[str, Any]:
        # a wait that fails cancels the request, as ContainmentService.handle
        # does, so a queued one is dropped instead of decided for nobody
        try:
            result = future.result(REQUEST_TIMEOUT_SECONDS)
        except BaseException:
            future.cancel()
            raise
        return service.render(result, request_id)

    def writer() -> None:
        while True:
            item = pending.get()
            if item is _DONE:
                return
            response: Callable[[], Dict[str, Any]] = item
            try:
                rendered = response()
            except ServiceError as error:
                rendered = {"error": str(error)}
            except Exception as error:  # noqa: BLE001 - one line, one reply
                rendered = {"error": f"{type(error).__name__}: {error}"}
            if "error" in rendered:
                with counts_lock:
                    counts["errors"] += 1
            print(json.dumps(rendered), file=stdout, flush=True)
            with counts_lock:
                counts["responses"] += 1

    thread = threading.Thread(target=writer, name="repro-service-stdio-writer", daemon=True)
    thread.start()
    try:
        for line in stdin:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                pending.put(lambda error=error: {"error": f"invalid JSON line: {error}"})
                continue
            if not isinstance(payload, dict):
                pending.put(lambda: {"error": "each line must be a JSON object"})
                continue
            op = payload.get("op", "check")
            if op == "healthz":
                pending.put(service.healthz)
            elif op == "stats":
                pending.put(service.stats_report)
            elif op == "shutdown":
                pending.put(lambda: {"ok": True})
                break
            elif op == "check":
                with counts_lock:
                    counts["requests"] += 1
                try:
                    future = service.submit(payload)
                except ServiceError as error:
                    pending.put(lambda error=error: {"error": str(error)})
                else:
                    pending.put(functools.partial(answer, future, payload.get("id")))
            else:
                pending.put(lambda op=op: {"error": f"unknown op {op!r}"})
    finally:
        pending.put(_DONE)
        thread.join()
    return counts
