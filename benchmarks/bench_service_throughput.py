"""Service-throughput benchmark: coalesced versus per-request serving.

Closed-loop client threads (each with exactly one outstanding request —
the textbook load-generator shape) replay the deterministic mixed-schema
request stream of :func:`repro.workloads.streams.request_stream` through
two freshly started services:

* **per-request** — coalescing disabled (batch size 1), serial backend:
  every request is one engine call, the shape a single-shot caller pays
  today;
* **coalesced** — the self-clocking coalescer and the process backend:
  client requests that queue while a wave runs micro-batch into the next
  ``check_many`` wave, deduplicate by canonical fingerprint, and spread
  across the worker pool.

Two claims:

1. **determinism** — every response of both modes is fingerprint-identical
   to a serial ``check_many`` baseline over the same stream (always
   asserted, any machine; duplicates included — a deduplicated verdict must
   be bit-equal to deciding the duplicate independently);
2. **speedup** — on ≥ 4 cores the coalesced service clears **≥ 2×** the
   per-request throughput (the acceptance gate; skipped with a diagnostic
   on smaller machines, where the pool has no cores to spread over).

Worker spawn is excluded from the timing (the service starts its pool
eagerly, before the clock), matching every other backend benchmark; the
time a request spends queued behind a running wave is deliberately **not**
excluded — waiting is part of the serving design being measured.
"""

import os
import time

import pytest

from repro.core import clear_compile_memo
from repro.engine import ContainmentEngine, result_fingerprint
from repro.service import ContainmentService
from repro.workloads.replay import latency_percentiles
from repro.workloads.streams import closed_loop, request_stream

GATE_MIN_CORES = 4
GATE_SPEEDUP = 2.0
REQUESTS = 120
CLIENTS = 16
STREAM_LENGTH = 10  # synthetic chain length inside the mixed corpus
MAX_BATCH = 64


def _stream():
    return request_stream(REQUESTS, length=STREAM_LENGTH)


def _serial_baseline():
    stream = _stream()
    with ContainmentEngine() as engine:
        results = engine.check_many([(left, right, schema) for left, right, schema in stream])
    return [result_fingerprint(result) for result in results]


def _run_service(max_batch, parallel, workers):
    """One closed-loop run; returns (fingerprints, elapsed, stats, percentiles).

    Per-request latency is timed around each coalescer call, so the
    p50/p95/p99 report reflects what one client waits — queueing included,
    by design — not just the aggregate wall clock.
    """
    stream = _stream()
    clear_compile_memo()
    latencies = [0.0] * len(stream)
    with ContainmentService(parallel=parallel, workers=workers, max_batch=max_batch) as service:

        def call(indexed):
            index, (left, right, schema) = indexed
            begun = time.perf_counter()
            result = service.coalescer.check(left, right, schema)
            latencies[index] = time.perf_counter() - begun
            return result

        started = time.perf_counter()
        results = closed_loop(list(enumerate(stream)), call, clients=CLIENTS)
        elapsed = time.perf_counter() - started
        fingerprints = [result_fingerprint(result) for result in results]
        return fingerprints, elapsed, service.coalescer.stats.snapshot(), latency_percentiles(latencies)


def test_coalesced_service_is_deterministic_and_actually_batches():
    """Fingerprint identity + the coalescer visibly merging concurrent load
    (independent of machine size)."""
    baseline = _serial_baseline()
    fingerprints, _, stats, _ = _run_service(MAX_BATCH, "serial", None)
    assert fingerprints == baseline, "coalesced service changed verdicts"
    assert stats.submitted == REQUESTS
    # closed-loop concurrency means real batches, not one request at a time
    assert stats.batches < REQUESTS
    assert stats.largest_batch > 1
    # the stream's hot repeats coalesce into shared decisions
    assert stats.deduplicated > 0


def test_coalesced_throughput_gate():
    """≥ 2× the per-request service on a ≥ 4-core machine (the acceptance
    criterion)."""
    cores = os.cpu_count() or 1
    baseline = _serial_baseline()
    workers = min(cores, 8)

    per_request_fps, per_request_seconds, per_request_stats, per_request_latency = _run_service(
        1, "serial", None
    )
    coalesced_fps, coalesced_seconds, coalesced_stats, coalesced_latency = _run_service(
        MAX_BATCH, "process", workers
    )

    assert per_request_fps == baseline, "per-request service changed verdicts"
    assert coalesced_fps == baseline, "coalesced+process service changed verdicts"
    assert per_request_stats.largest_batch == 1  # coalescing really was off

    speedup = per_request_seconds / coalesced_seconds if coalesced_seconds else float("inf")
    print(
        f"\nservice throughput: {REQUESTS} requests from {CLIENTS} closed-loop clients, "
        f"{workers} workers on {cores} cores — "
        f"per-request {per_request_seconds * 1000:.0f} ms "
        f"({REQUESTS / per_request_seconds:.0f} req/s), "
        f"coalesced {coalesced_seconds * 1000:.0f} ms "
        f"({REQUESTS / coalesced_seconds:.0f} req/s), speedup {speedup:.2f}x "
        f"({coalesced_stats.batches} batches, {coalesced_stats.deduplicated} deduplicated)\n"
        f"  per-request latency p50/p95/p99: "
        f"{per_request_latency['p50_seconds'] * 1000:.1f} / "
        f"{per_request_latency['p95_seconds'] * 1000:.1f} / "
        f"{per_request_latency['p99_seconds'] * 1000:.1f} ms; "
        f"coalesced: {coalesced_latency['p50_seconds'] * 1000:.1f} / "
        f"{coalesced_latency['p95_seconds'] * 1000:.1f} / "
        f"{coalesced_latency['p99_seconds'] * 1000:.1f} ms"
    )
    if cores < GATE_MIN_CORES:
        # the ::notice makes the skipped gate visible on the CI run page —
        # a silently missing gate reads as a passing one otherwise
        print(
            f"::notice title=Service throughput gate skipped::throughput gate "
            f"needs >= {GATE_MIN_CORES} cores, this runner has {cores}; "
            "determinism was still asserted"
        )
        pytest.skip(
            f"throughput gate needs >= {GATE_MIN_CORES} cores (found {cores}); "
            "determinism was still asserted above"
        )
    assert speedup >= GATE_SPEEDUP, (
        f"coalesced throughput speedup {speedup:.2f}x < required {GATE_SPEEDUP}x "
        f"({workers} workers, {cores} cores)"
    )
