"""One repetition of one workload, in a fresh interpreter.

``python3 perfbench/rep.py <mode> <workload> <seed> <trace>`` prints one
JSON object as its last stdout line.  ``run.py`` starts it once per
repetition, so no compile memo, interning table, default engine or worker
pool carries over between repetitions or workloads.  Modes:

* ``setup`` — imports plus engine / pool / service construction only;
* ``rep`` — setup, then the workload, returning every output and timing;
* ``reference`` — the outputs of uncached solving (a fresh
  ``ContainmentSolver`` per request, a fresh engine per analysis job):
  the correctness reference for seeds without committed expectations.

CPU-bound times are reported divided by the machine slowdown read next to
them (see ``calibrate.py``); batch repetitions also report their wall time
as measured (``raw_wall_s``).

The ``__main__`` guard matters: the process backend starts its workers with
``spawn``, which re-imports this file in every worker.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from calibrate import Calibrated, slowdown  # noqa: E402

#: Zoo pairs per ``check_many`` call; a calibration reading sits between calls.
ZOO_CHUNK = 8
#: Workers of the ``zoo-process`` pool.  On a 2-vCPU host two workers
#: slowed each other by an amount that followed the seed's shard assignment
#: (per-pair median 2.7 ms to 5.7 ms between seeds); with one worker, on the
#: repetition's one CPU, the pool and transport layers do the same kinds of
#: work and the figures repeat.
POOL_WORKERS = 1
#: Least time between two calibration readings on the service's flusher
#: thread, and how far around a request its readings are taken from.
SERVICE_READING_INTERVAL = 0.25
SERVICE_READING_WINDOW = 1.0


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def _peak_rss_mb() -> float:
    """Peak resident set of this process plus every live descendant, in MiB."""

    def hwm(pid: int) -> int:
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    def children(pid: int) -> List[int]:
        found: List[int] = []
        try:
            for task in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{task}/children") as handle:
                    found.extend(int(child) for child in handle.read().split())
        except OSError:
            pass
        return found

    total = 0
    pending = [os.getpid()]
    while pending:
        pid = pending.pop()
        total += hwm(pid)
        pending.extend(children(pid))
    return total / 1024.0


def _verdict(result) -> Dict[str, Any]:
    from repro.engine import result_fingerprint

    return {
        "contained": bool(result.contained),
        "regime": result.regime,
        "fingerprint": result_fingerprint(result),
    }


def _payload_key(payload: Dict[str, Any]) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:24]


def _analysis_output(procedure: str, result) -> Dict[str, Any]:
    if procedure == "type_check":
        return {"well_typed": bool(result.well_typed)}
    if procedure == "check_equivalence":
        return {"equivalent": bool(result.equivalent)}
    return {"schema": result.schema.canonical_fingerprint()}


def _analysis_job(procedure: str, arguments: tuple, engine, tracer=None) -> Dict[str, Any]:
    """Run one analysis job; an ``ElicitationError`` is an expected output."""
    from repro.analysis import check_equivalence, elicit_schema, type_check
    from repro.exceptions import ElicitationError

    function = {
        "type_check": type_check,
        "check_equivalence": check_equivalence,
        "elicit_schema": elicit_schema,
    }[procedure]
    if tracer is not None:
        function = tracer.wrap(f"analysis.{procedure}", function)
    try:
        result = function(*arguments, engine=engine)
    except ElicitationError:
        return {"error": "ElicitationError"}
    return {**_analysis_output(procedure, result), "calls": result.containment_calls}


def _setup(workload: str):
    """Imports plus the workload's long-lived program objects."""
    import repro  # noqa: F401
    from repro.engine import ContainmentEngine

    if workload == "analysis":
        import repro.analysis  # noqa: F401
    if workload == "service-trace":
        from repro.service import ContainmentService

        return ContainmentService()
    engine = ContainmentEngine()
    if workload == "zoo-process":
        pool = engine.process_pool(POOL_WORKERS)
        pool.start()
        pool.worker_stats()  # one round trip: every worker is up and serving
    return engine


def _spanned(tracer, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
    if tracer is None:
        return function

    def inside(*args, **kwargs):
        with tracer.span(name):
            return function(*args, **kwargs)

    return inside


# --------------------------------------------------------------------------- #
# batch workloads
# --------------------------------------------------------------------------- #
def _run_zoo(engine, seed: int, parallel: str, tracer) -> Dict[str, Any]:
    from inputs import zoo_pairs

    requests = [(left, right, schema) for _family, left, right, schema in zoo_pairs(seed)]
    check = _spanned(tracer, "bench.zoo", engine.check_many)
    calibrated = Calibrated()
    results: List[Any] = []
    verdict_s: List[float] = []
    latency_s: List[float] = []
    wall = raw_wall = 0.0
    slowdowns = []
    for first in range(0, len(requests), ZOO_CHUNK):
        chunk, elapsed, factor = calibrated.run(
            check, requests[first:first + ZOO_CHUNK], parallel=parallel
        )
        wall += elapsed / factor
        raw_wall += elapsed
        slowdowns.append(factor)
        results.extend(chunk)
        verdict_s.extend(result.elapsed_seconds / factor for result in chunk)
        latency_s.extend(wall for _ in chunk)
    out: Dict[str, Any] = {
        "items": len(results),
        "outputs": [_verdict(result) for result in results],
        "verdict_s": verdict_s,
        "latency_s": latency_s,
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "slowdowns": slowdowns,
        "rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        counts: Dict[str, Any] = {"engine": engine.stats.as_dict()}
        workers = engine.process_stats()
        if workers is not None:
            counts["workers"] = workers.as_dict()
            counts["workers_n"] = engine.process_pool().workers
            counts["worker_solve_s"] = sum(result.elapsed_seconds for result in results)
        transport = engine.transport_report()
        if transport is not None:
            counts["transport"] = transport
        out["counts"] = counts
    return out


def _run_analysis(engine, tracer) -> Dict[str, Any]:
    from inputs import analysis_catalogue

    jobs = [(job_id, procedure, build()) for job_id, procedure, build in analysis_catalogue()]
    calibrated = Calibrated()
    outputs: List[Dict[str, Any]] = []
    verdict_s: List[float] = []
    latency_s: List[float] = []
    wall = raw_wall = 0.0
    slowdowns = []
    calls = 0
    run = _spanned(tracer, "bench.job", _analysis_job)
    for job_id, procedure, arguments in jobs:
        output, elapsed, factor = calibrated.run(run, procedure, arguments, engine, tracer)
        calls += output.pop("calls", 0)
        wall += elapsed / factor
        raw_wall += elapsed
        slowdowns.append(factor)
        verdict_s.append(elapsed / factor)
        latency_s.append(wall)
        outputs.append({"job": job_id, **output})
    out: Dict[str, Any] = {
        "items": len(jobs),
        "outputs": outputs,
        "verdict_s": verdict_s,
        "latency_s": latency_s,
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "slowdowns": slowdowns,
        "rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        out["counts"] = {"engine": engine.stats.as_dict(), "containment_calls": calls}
    return out


# --------------------------------------------------------------------------- #
# the service trace
# --------------------------------------------------------------------------- #
def _run_service(service, seed: int, tracer) -> Dict[str, Any]:
    """The open-loop trace: one generator thread, completions via callbacks.

    Each phase (the base rate, then every rung of the ladder) rescales the
    trace's offsets to its rate, so bursts and storms keep their shape, and
    drains before the next phase starts.  Requests are timed from when they
    were due; the generator's lateness (sent minus due) and the backlog
    when the phase's last request was due are reported with them.

    Calibration readings are taken on the coalescer's flusher thread, the
    thread that does the solving: before an engine call, at most every
    ``SERVICE_READING_INTERVAL`` seconds, timed in thread CPU time so that
    waiting on the interpreter lock does not count.  A request's slowdown
    is the median of the readings taken from a window before it was due
    to a window after it was answered (single readings scatter by ±20%).
    """
    from inputs import service_phases, service_trace

    lines = service_trace(seed)
    natural_gap = lines[-1]["offset"] / max(1, len(lines) - 1)
    coalescer = service.coalescer
    engine_call = service.engine.check_many
    flushes: List[tuple] = []  # (start, duration, requests popped so far)
    if tracer is not None:
        untraced_call = engine_call

        def engine_call(*args, **kwargs):
            # runs on the flusher thread, which pops requests in submission
            # order and counts them before calling the engine
            popped = coalescer.stats.unique + coalescer.stats.deduplicated
            begun = time.perf_counter()
            try:
                with tracer.span("bench.wave"):
                    return untraced_call(*args, **kwargs)
            finally:
                flushes.append((begun, time.perf_counter() - begun, popped))

    reading_times: List[float] = []
    readings: List[float] = []

    def calibrated_call(*args, **kwargs):
        now = time.perf_counter()
        if not reading_times or now - reading_times[-1] >= SERVICE_READING_INTERVAL:
            readings.append(slowdown(time.thread_time))
            reading_times.append(time.perf_counter())
        return engine_call(*args, **kwargs)

    service.engine.check_many = calibrated_call

    count = len(lines)
    due = [0.0] * count
    sent = [0.0] * count
    done = [0.0] * count
    results: List[Any] = [None] * count
    errors: List[str] = []

    def record(index: int):
        def callback(future) -> None:
            try:
                results[index] = future.result()
            except Exception as error:  # noqa: BLE001 - counted as a failure
                errors.append(f"{type(error).__name__}: {error}")
            done[index] = time.perf_counter()

        return callback

    phases = service_phases()
    for rate, first, last in phases:
        scale = 1.0 / (rate * natural_gap)
        origin = lines[first]["offset"]
        start = time.perf_counter() + 0.01
        for index in range(first, last):
            due[index] = start + (lines[index]["offset"] - origin) * scale
        for index in range(first, last):
            delay = due[index] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent[index] = time.perf_counter()
            service.submit(lines[index]["payload"]).add_done_callback(record(index))
        deadline = time.perf_counter() + 60.0
        while not all(done[first:last]) and time.perf_counter() < deadline:
            time.sleep(0.002)

    def factor(index: int) -> float:
        first = bisect.bisect_left(reading_times, due[index] - SERVICE_READING_WINDOW)
        last = bisect.bisect_right(reading_times, (done[index] or due[index]) + SERVICE_READING_WINDOW)
        return statistics.median(readings[first:last]) if last > first else 1.0

    factors = [factor(index) for index in range(count)]
    reports = []
    for rate, first, last in phases:
        last_due = due[last - 1]
        answered = [done[index] for index in range(first, last) if done[index]]
        last_done = max(answered) if answered else last_due
        reports.append(
            {
                "rate": rate,
                "first_due": due[first],
                "last_done": last_done,
                # how long the backlog took to clear after the last request was due
                "drain_s": last_done - last_due,
                "backlog": sum(1 for index in range(first, last) if not done[index] or done[index] > last_due),
                "latency_s": [
                    done[index] - due[index] if done[index] else float("inf")
                    for index in range(first, last)
                ],
                "latency_norm_s": [
                    (done[index] - due[index]) / factors[index] if done[index] else float("inf")
                    for index in range(first, last)
                ],
                "lateness_s": [sent[index] - due[index] for index in range(first, last)],
            }
        )

    base_first, base_last = phases[1][1:]
    out: Dict[str, Any] = {
        "items": count,
        "outputs": [
            {
                "payload": _payload_key(lines[index]["payload"]),
                **(_verdict(results[index]) if results[index] is not None else {"error": "no answer"}),
            }
            for index in range(count)
        ],
        "errors": errors,
        "phases": reports[1:],  # the warm-up is not measured
        "verdict_s": [
            results[index].elapsed_seconds / factors[index] if results[index] is not None else float("inf")
            for index in range(base_first, base_last)
        ],
        "slowdowns": readings,
        "rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        base = reports[1]
        lateness = sorted(base["lateness_s"])
        out["counts"] = {
            "engine": service.engine.stats.as_dict(),
            "coalescer": coalescer.stats.as_dict(),
            "adaptive": service.engine.adaptive_report(),
            "coalescer_wait_s": _coalescer_waits(sent, flushes)[base_first:base_last],
            "flusher_busy_s": sum(duration for _start, duration, _popped in flushes),
            "run_s": reports[-1]["last_done"] - base["first_due"],
            "lateness_p99_s": lateness[max(0, int(0.99 * len(lateness)) - 1)],
            "backlog_end": base["backlog"],
        }
    return out


def _coalescer_waits(submitted: List[float], flushes: List[tuple]) -> List[float]:
    """Per request: from its submission to the start of the engine call
    that decided it (requests leave the coalescer queue in FIFO order)."""
    waits: List[float] = []
    index = 0
    for begun, _duration, popped in sorted(flushes, key=lambda entry: entry[2]):
        while index < popped and index < len(submitted):
            waits.append(begun - submitted[index])
            index += 1
    return waits


# --------------------------------------------------------------------------- #
# the uncached reference
# --------------------------------------------------------------------------- #
def _reference(workload: str, seed: int) -> Dict[str, Any]:
    from repro.containment.solver import ContainmentSolver

    if workload in ("zoo-cold", "zoo-process"):
        from inputs import zoo_pairs

        outputs = [
            _verdict(ContainmentSolver(schema).contains(left, right))
            for _family, left, right, schema in zoo_pairs(seed)
        ]
        return {"outputs": outputs}
    if workload == "service-trace":
        from repro.rpq.parser import parse_c2rpq
        from repro.schema.parser import parse_schema

        from inputs import service_trace

        expected: Dict[str, Dict[str, Any]] = {}
        for line in service_trace(seed):
            payload = line["payload"]
            key = _payload_key(payload)
            if key not in expected:
                solver = ContainmentSolver(parse_schema(payload["schema"]))
                result = solver.contains(parse_c2rpq(payload["left"]), parse_c2rpq(payload["right"]))
                expected[key] = _verdict(result)
        return {"payloads": expected}
    if workload == "analysis":
        from repro.engine import ContainmentEngine

        from inputs import analysis_catalogue

        jobs: Dict[str, Dict[str, Any]] = {}
        for job_id, procedure, build in analysis_catalogue():
            with ContainmentEngine() as engine:  # no cache shared between jobs
                output = _analysis_job(procedure, build(), engine)
            output.pop("calls", None)
            jobs[job_id] = output
        return {"jobs": jobs}
    raise SystemExit(f"no reference for workload {workload!r}")


# --------------------------------------------------------------------------- #
def main(argv: List[str]) -> int:
    mode, workload, seed, trace = argv[0], argv[1], int(argv[2]), argv[3] == "1"
    if mode == "reference":
        print(json.dumps(_reference(workload, seed)))
        return 0
    # one CPU for the whole repetition (the pool worker included), so the
    # calibration loop runs where the work runs: the two vCPUs of the
    # development host drift independently.  The service's generator and
    # flusher threads share it; they take turns on the interpreter lock
    # anyway.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    slowdown()  # the first loop of an interpreter pays one-off costs
    before = slowdown()
    started = time.perf_counter()
    owner = _setup(workload)
    raw_setup = time.perf_counter() - started
    setup_factor = (before + slowdown()) / 2
    tracer: Optional[Any] = None
    if trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    try:
        if mode == "setup":
            report: Dict[str, Any] = {}
        elif workload in ("zoo-cold", "zoo-process"):
            report = _run_zoo(owner, seed, "serial" if workload == "zoo-cold" else "process", tracer)
        elif workload == "analysis":
            report = _run_analysis(owner, tracer)
        elif workload == "service-trace":
            report = _run_service(owner, seed, tracer)
        else:
            raise SystemExit(f"unknown workload {workload!r}")
    finally:
        owner.close()
    report["setup_s"] = raw_setup / setup_factor
    if tracer is not None and mode == "rep":
        from tracer import layer_metrics

        report["spans"] = layer_metrics(tracer)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
