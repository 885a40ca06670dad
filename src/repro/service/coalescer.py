"""Request coalescing: micro-batching concurrent containment requests.

The serving layer's core mechanism.  Independent clients submit one request
at a time, but everything fast about this library is *batch-shaped*: the
result cache replays duplicates for free, the completion and automaton
caches amortise across requests of one schema, and the process backend's
shard-by-schema routing only pays off when a batch holds enough requests to
spread.  The :class:`RequestCoalescer` recovers the batch shape from
concurrent traffic:

1. **Collect.**  Submissions land in a queue and return a
   :class:`~concurrent.futures.Future` immediately.  A single flusher
   thread is self-clocking, like group commit or Nagle's algorithm
   (RFC 896): when it is idle a request goes to the engine at once, and
   whatever queues while a batch runs becomes the next batch, capped at
   ``max_batch`` (an oversized backlog splits into consecutive full
   batches).  Coalescing never adds a wait, it only merges what was
   already in flight.  A request whose future is cancelled before its
   batch starts — its waiter gave up — is dropped, never decided.
2. **Deduplicate.**  Requests are grouped by the same canonical-fingerprint
   key the engine's result cache uses (schema fingerprint, left/right
   canonical tokens *and names*, config), so concurrent identical requests
   from different clients are decided once and fanned back out to every
   waiting future.
3. **Route.**  The unique requests go through
   :meth:`~repro.engine.ContainmentEngine.check_many` on the configured
   backend — ``"process"`` for GIL-free parallelism across the pool, with
   all the shard-affinity and warm-start behaviour of PRs 1–4 now applying
   *across independent clients*, not just within one caller's batch.

Verdicts are bit-identical to serial calls by construction: the coalescer
only re-groups *when* requests reach the engine, never what the engine
computes (asserted by fingerprint in ``tests/test_service.py`` and
``benchmarks/bench_service_throughput.py``).
"""

from __future__ import annotations

import dataclasses
import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from ..containment.counterexample import Counterexample
from ..containment.solver import ContainmentConfig, _as_union
from ..engine.engine import ContainmentEngine, _result_key

__all__ = ["CoalescerStats", "RequestCoalescer"]


@dataclass
class CoalescerStats:
    """Counters of one coalescer: traffic in, batches out, duplicates merged,
    and requests dropped because their future was cancelled while queued."""

    submitted: int = 0
    unique: int = 0
    deduplicated: int = 0
    batches: int = 0
    largest_batch: int = 0
    abandoned: int = 0

    def snapshot(self) -> "CoalescerStats":
        """An independent copy (the live object keeps counting)."""
        return dataclasses.replace(self)

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form for the ``/stats`` endpoint and benchmark reports."""
        return {
            "submitted": self.submitted,
            "unique": self.unique,
            "deduplicated": self.deduplicated,
            "batches": self.batches,
            "largest_batch": self.largest_batch,
            "abandoned": self.abandoned,
            "mean_batch_size": (
                (self.unique + self.deduplicated) / self.batches if self.batches else 0.0
            ),
        }

    def __str__(self) -> str:
        return (
            f"coalescer: {self.submitted} requests in {self.batches} batches "
            f"({self.deduplicated} deduplicated, largest {self.largest_batch})"
        )


@dataclass
class _Pending:
    """One submitted request waiting for its batch to flush."""

    key: Tuple
    left: Any
    right: Any
    schema: Any
    config: Optional[ContainmentConfig]
    future: "Future[Any]"


def _independent_copy(result: Any) -> Any:
    """A result whose witness payloads the client may freely mutate.

    The same copy discipline as the engine's cache-replay path: the graphs
    are copied, the bookkeeping ``completion`` stays shared (read-only by
    contract), and ``result_fingerprint`` is unchanged.
    """
    witness = result.witness_pattern.copy() if result.witness_pattern is not None else None
    counterexample = result.finite_counterexample
    if counterexample is not None:
        counterexample = Counterexample(counterexample.graph.copy(), counterexample.answer)
    return dataclasses.replace(
        result, witness_pattern=witness, finite_counterexample=counterexample
    )


class RequestCoalescer:
    """Micro-batches concurrent containment requests into ``check_many``.

    Each flush takes whatever queued while the previous one ran, so an idle
    coalescer passes a lone request straight through; ``max_batch`` caps
    one flush, with the overflow flushed immediately after; ``parallel`` is
    the ``check_many`` backend the flushed batches run on.  One flusher
    thread serialises all engine traffic, so the coalescer composes with
    any backend — including ``"process"``, where the pool lock would
    otherwise serialise competing batches anyway.

    :meth:`submit` never blocks on the engine; :meth:`submit_many` queues
    several requests at once, so they reach the same flush (up to
    ``max_batch``); :meth:`check` is the convenience blocking form.
    :meth:`close` drains the queue (every accepted future that was not
    cancelled is resolved) and stops the flusher.
    """

    def __init__(
        self,
        engine: ContainmentEngine,
        *,
        max_batch: int = 64,
        parallel: Any = "serial",
        max_workers: Optional[int] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self.engine = engine
        self.max_batch = max_batch
        self.parallel = parallel
        self.max_workers = max_workers
        self.stats = CoalescerStats()
        self._cond = threading.Condition()
        self._queue: Deque[_Pending] = deque()
        self._closed = False
        self._flusher = threading.Thread(
            target=self._run, name="repro-service-coalescer", daemon=True
        )
        self._flusher.start()

    # ------------------------------------------------------------------ #
    # the client side
    # ------------------------------------------------------------------ #
    def _request_key(self, left: Any, right: Any, schema: Any, config) -> Tuple:
        """The dedup key — exactly the engine's result-cache key.

        Two requests coalesce into one engine call precisely when a serial
        engine would have served the second from the first's cache entry, so
        deduplication can never merge requests whose verdicts could differ
        (names included: they surface in result fields).
        """
        return _result_key(
            schema,
            _as_union(left, "P"),
            _as_union(right, "Q"),
            config or self.engine.default_config,
        )

    def submit(
        self,
        left: Any,
        right: Any,
        schema: Any,
        config: Optional[ContainmentConfig] = None,
    ) -> "Future[Any]":
        """Queue one containment request; returns its future immediately."""
        return self.submit_many([(left, right, schema, config)])[0]

    def submit_many(self, requests: Iterable[Sequence]) -> "List[Future[Any]]":
        """Queue ``(left, right, schema[, config])`` requests in one step.

        They enter the queue in one step, so the flusher never takes a
        batch in between; only the ``max_batch`` cap can split them.
        """
        pendings = []
        for left, right, schema, *rest in requests:
            config = rest[0] if rest else None
            key = self._request_key(left, right, schema, config)
            pendings.append(_Pending(key, left, right, schema, config, Future()))
        with self._cond:
            if self._closed:
                raise RuntimeError("the request coalescer has been closed")
            self._queue.extend(pendings)
            self.stats.submitted += len(pendings)
            self._cond.notify_all()
        return [pending.future for pending in pendings]

    def check(
        self,
        left: Any,
        right: Any,
        schema: Any,
        config: Optional[ContainmentConfig] = None,
        timeout: Optional[float] = None,
    ) -> Any:
        """Submit and wait: the blocking single-request form."""
        return self.submit(left, right, schema, config).result(timeout)

    # ------------------------------------------------------------------ #
    # the flusher
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue:  # closed and drained
                    return
                batch = [
                    self._queue.popleft()
                    for _ in range(min(self.max_batch, len(self._queue)))
                ]
            self._flush(batch)

    def _flush(self, batch: List[_Pending]) -> None:
        """Dedup one batch, run it through the engine, fan results back out."""
        # claiming a future makes it uncancellable; one its waiter already
        # cancelled is dropped here, so it can never lead a group
        live = [pending for pending in batch if pending.future.set_running_or_notify_cancel()]
        leaders: List[_Pending] = []
        groups: Dict[Tuple, List[_Pending]] = {}
        for pending in live:
            group = groups.get(pending.key)
            if group is None:
                groups[pending.key] = [pending]
                leaders.append(pending)
            else:
                group.append(pending)
        with self._cond:
            self.stats.abandoned += len(batch) - len(live)
            if not live:
                return
            self.stats.batches += 1
            self.stats.unique += len(leaders)
            self.stats.deduplicated += len(live) - len(leaders)
            self.stats.largest_batch = max(self.stats.largest_batch, len(live))
        try:
            results = self.engine.check_many(
                [(p.left, p.right, p.schema, p.config) for p in leaders],
                parallel=self.parallel,
                max_workers=self.max_workers,
            )
        except BaseException as error:  # noqa: BLE001 - relayed to every waiter
            for pending in live:
                pending.future.set_exception(error)
            return
        for leader, result in zip(leaders, results):
            # one decision per key, but each *duplicate* waiter gets an
            # independent witness copy — same discipline as the engine's
            # cache-replay path, so no client can mutate another's result
            # (or the engine's cached object) through a shared graph
            waiters = groups[leader.key]
            waiters[0].future.set_result(result)
            for pending in waiters[1:]:
                pending.future.set_result(_independent_copy(result))

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, timeout: Optional[float] = None) -> bool:
        """Drain the queue, resolve every accepted future, stop the flusher.

        Idempotent; new submissions are rejected as soon as the close begins,
        but everything accepted before it completes normally — a shutting
        service answers its in-flight requests.  By default this blocks until
        the drain finishes (so a caller tearing down the engine next can
        never pull it out from under a running batch); pass *timeout* for a
        bounded wait instead and check the return value — ``True`` means the
        flusher is fully stopped, ``False`` that a batch is still in flight
        and the engine must stay open.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self._flusher.is_alive():
            self._flusher.join(timeout)
        return not self._flusher.is_alive()

    def __enter__(self) -> "RequestCoalescer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
