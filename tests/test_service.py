"""The serving layer: coalescing semantics, fingerprint identity against the
serial engine, transport behaviour (HTTP and stdio) and lifecycle ordering.

The central invariant extends the backend one: however requests reach the
engine — one client or many, coalesced or per-request, serial or process
backend, store on or off — every response must carry the exact
``result_fingerprint`` a bare serial ``check_many`` produces for the same
request."""

import json
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import TimeoutError as FutureTimeoutError
from io import StringIO

import pytest

from repro.engine import ContainmentEngine, result_fingerprint
from repro.rpq.parser import parse_c2rpq
from repro.service import (
    ContainmentService,
    RequestCoalescer,
    ServiceError,
    make_server,
    serve_stdio,
)
from repro.workloads import medical
from repro.workloads.streams import closed_loop, request_payloads, request_stream


def _fingerprints(results):
    return [result_fingerprint(result) for result in results]


@pytest.fixture(scope="module")
def small_stream():
    return request_stream(24, length=3)


@pytest.fixture(scope="module")
def stream_baseline(small_stream):
    with ContainmentEngine() as engine:
        results = engine.check_many([(left, right, schema) for left, right, schema in small_stream])
    return _fingerprints(results)


def _drive(service, stream, clients=6):
    """Closed-loop clients over *stream*; returns per-request fingerprints."""
    results = closed_loop(
        stream,
        lambda request: service.coalescer.check(request[0], request[1], request[2]),
        clients=clients,
    )
    return _fingerprints(results)


class _GatedEngine(ContainmentEngine):
    """A real engine whose ``check_many`` records each wave it receives (as
    the left-query names) and then blocks until :attr:`gate` is set, so a
    test decides exactly what queues while a wave runs."""

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.waves = []
        self._arrivals = threading.Semaphore(0)

    def check_many(self, requests, **kwargs):
        requests = list(requests)
        self.waves.append([request[0].name for request in requests])
        self._arrivals.release()
        assert self.gate.wait(timeout=30), "the test never opened the gate"
        return super().check_many(requests, **kwargs)

    def wait_for_wave(self):
        assert self._arrivals.acquire(timeout=30), "no wave reached the engine"


def _medical_request(name):
    left = parse_c2rpq(f"{name}(x) := (designTarget)(x, y)")
    return left, parse_c2rpq("q(x) := Vaccine(x)"), medical.source_schema()


# --------------------------------------------------------------------------- #
# the tentpole invariant: service == serial engine, bit for bit
# --------------------------------------------------------------------------- #
def test_coalesced_service_matches_serial_fingerprints(small_stream, stream_baseline):
    clients = 6
    with _GatedEngine() as engine, ContainmentService(engine=engine, max_batch=16) as service:
        # hold the first wave until every client has a request queued, so
        # the stream's early repeats (items 1, 2 and 4 share a key) are in
        # flight together however the threads are scheduled
        def open_gate():
            while service.coalescer.stats.submitted < clients:
                time.sleep(0.001)
            engine.gate.set()

        threading.Thread(target=open_gate, daemon=True).start()
        assert _drive(service, small_stream, clients=clients) == stream_baseline
        stats = service.coalescer.stats
        assert stats.submitted == len(small_stream)
        assert stats.batches < len(small_stream)  # concurrency really coalesced
        assert stats.deduplicated > 0  # the stream's hot repeats merged


def test_process_backend_service_with_persist_matches_serial(
    tmp_path, small_stream, stream_baseline
):
    """The full serving stack — coalescer, process pool, persistent store —
    answers bit-identically to the serial engine, and its verdicts land on
    disk for the next process to warm-start from."""
    store_path = tmp_path / "service-store.db"
    with ContainmentService(
        parallel="process", workers=2, persist=store_path, max_batch=16
    ) as service:
        assert _drive(service, small_stream) == stream_baseline
        assert service.engine.stats.store.writes > 0
    # the store outlives the service: a cold engine replays from disk
    with ContainmentEngine(persist=store_path) as reader:
        results = reader.check_many(
            [(left, right, schema) for left, right, schema in small_stream]
        )
        assert _fingerprints(results) == stream_baseline
        assert reader.stats.store.hits > 0


# --------------------------------------------------------------------------- #
# coalescer edge cases
# --------------------------------------------------------------------------- #
def test_duplicate_in_flight_requests_are_decided_once():
    schema = medical.source_schema()
    left = parse_c2rpq("p(x) := (designTarget)(x, y)")
    right = parse_c2rpq("q(x) := Vaccine(x)")
    engine = ContainmentEngine()
    with RequestCoalescer(engine, max_batch=32) as coalescer:
        futures = coalescer.submit_many([(left, right, schema)] * 6)
        results = [future.result(timeout=30) for future in futures]
    assert len({result_fingerprint(result) for result in results}) == 1
    assert coalescer.stats.submitted == 6
    assert coalescer.stats.unique == 1
    assert coalescer.stats.deduplicated == 5
    # one engine call decided all six (the others shared the leader)
    assert engine.stats.contains_calls == 1
    engine.close()


def test_oversized_waves_split_into_max_batch_chunks(small_stream):
    with ContainmentEngine() as engine:
        with RequestCoalescer(engine, max_batch=4) as coalescer:
            futures = [
                coalescer.submit(left, right, schema) for left, right, schema in small_stream
            ]
            for future in futures:
                future.result(timeout=60)
    stats = coalescer.stats
    assert stats.largest_batch <= 4
    assert stats.batches >= len(small_stream) // 4
    assert stats.submitted == len(small_stream)


def test_closed_coalescer_rejects_submissions_but_drains_in_flight():
    schema = medical.source_schema()
    left = parse_c2rpq("p(x) := (designTarget)(x, y)")
    right = parse_c2rpq("q(x) := Vaccine(x)")
    with ContainmentEngine() as engine:
        coalescer = RequestCoalescer(engine, max_batch=8)
        future = coalescer.submit(left, right, schema)
        coalescer.close()
        assert future.result(timeout=30).contained  # accepted before close: answered
        with pytest.raises(RuntimeError, match="has been closed"):
            coalescer.submit(left, right, schema)
        coalescer.close()  # idempotent


def test_engine_failures_reach_every_waiting_future():
    schema = medical.source_schema()
    left = parse_c2rpq("p(x) := (designTarget)(x, y)")
    right = parse_c2rpq("q(x) := Vaccine(x)")
    engine = ContainmentEngine()
    engine.close()  # a dead engine: check_many raises use-after-close
    coalescer = RequestCoalescer(engine, max_batch=8)
    futures = [coalescer.submit(left, right, schema) for _ in range(2)]
    for future in futures:
        with pytest.raises(RuntimeError, match="has been closed"):
            future.result(timeout=30)
    coalescer.close()


def test_coalescer_validates_its_parameters():
    with ContainmentEngine() as engine:
        with pytest.raises(ValueError, match="max_batch"):
            RequestCoalescer(engine, max_batch=0)


# --------------------------------------------------------------------------- #
# self-clocking waves, driven deterministically by a gated engine
# --------------------------------------------------------------------------- #
def test_lone_request_on_an_idle_coalescer_reaches_the_engine_at_once():
    with _GatedEngine() as engine:
        with RequestCoalescer(engine, max_batch=64) as coalescer:
            future = coalescer.submit(*_medical_request("a"))
            # no companion ever arrives and nothing closes the coalescer:
            # an idle flusher hands the request over on its own
            engine.wait_for_wave()
            assert engine.waves == [["a"]]
            engine.gate.set()
            assert future.result(timeout=30).contained


def test_requests_queued_during_a_wave_become_the_next_wave_deduplicated():
    with _GatedEngine() as engine:
        with RequestCoalescer(engine, max_batch=64) as coalescer:
            first = coalescer.submit(*_medical_request("a"))
            engine.wait_for_wave()
            queued = [coalescer.submit(*_medical_request(name)) for name in ("b", "c", "b")]
            engine.gate.set()
            for future in [first, *queued]:
                future.result(timeout=30)
    assert engine.waves == [["a"], ["b", "c"]]
    assert coalescer.stats.batches == 2
    assert coalescer.stats.deduplicated == 1


def test_backlog_beyond_max_batch_splits_into_full_chunks():
    with _GatedEngine() as engine:
        with RequestCoalescer(engine, max_batch=2) as coalescer:
            first = coalescer.submit(*_medical_request("a"))
            engine.wait_for_wave()
            queued = [coalescer.submit(*_medical_request(name)) for name in "bcdef"]
            engine.gate.set()
            for future in [first, *queued]:
                future.result(timeout=30)
    assert engine.waves == [["a"], ["b", "c"], ["d", "e"], ["f"]]


def test_cancelled_requests_are_dropped_before_the_engine():
    with _GatedEngine() as engine:
        coalescer = RequestCoalescer(engine, max_batch=64)
        first = coalescer.submit(*_medical_request("a"))
        engine.wait_for_wave()
        abandoned = coalescer.submit(*_medical_request("b"))
        assert abandoned.cancel()
        engine.gate.set()
        assert first.result(timeout=30).contained
        coalescer.close()  # the flusher has popped, and skipped, the cancelled request
    assert engine.waves == [["a"]]
    assert coalescer.stats.abandoned == 1
    assert coalescer.stats.as_dict()["abandoned"] == 1
    assert coalescer.stats.submitted == 2 and coalescer.stats.unique == 1


def test_a_cancelled_request_never_leads_its_duplicates():
    with _GatedEngine() as engine:
        with RequestCoalescer(engine, max_batch=64) as coalescer:
            first = coalescer.submit(*_medical_request("a"))
            engine.wait_for_wave()
            cancelled, duplicate = coalescer.submit_many([_medical_request("b")] * 2)
            assert cancelled.cancel()
            engine.gate.set()
            first.result(timeout=30)
            assert duplicate.result(timeout=30).contained
    assert engine.waves == [["a"], ["b"]]
    assert coalescer.stats.abandoned == 1
    assert coalescer.stats.deduplicated == 0


def test_timed_out_service_requests_are_abandoned():
    payload = {"workload": "medical", "right": "q(x) := Vaccine(x)"}
    with _GatedEngine() as engine:
        with ContainmentService(engine=engine, parallel="serial") as service:
            blocked = threading.Thread(
                target=service.handle, args=({**payload, "left": "a(x) := (designTarget)(x, y)"},)
            )
            blocked.start()
            engine.wait_for_wave()
            with pytest.raises(FutureTimeoutError):
                service.handle({**payload, "left": "b(x) := (designTarget)(x, y)"}, timeout=0.01)
            with pytest.raises(FutureTimeoutError):
                service.handle_many(
                    [{**payload, "left": f"{name}(x) := (designTarget)(x, y)"} for name in "cd"],
                    timeout=0.01,
                )
            engine.gate.set()
            blocked.join(timeout=30)
            service.coalescer.close()
            assert engine.waves == [["a"]]
            assert service.stats_report()["coalescer"]["abandoned"] == 3


def test_handle_many_reaches_the_engine_as_one_wave():
    """``/batch`` payloads are queued in one step: even when the interpreter
    switches threads as often as it can, the flusher never starts a wave in
    the middle of a client batch."""
    payloads = [
        {"workload": "medical", "left": f"p{i}(x) := (designTarget)(x, y)",
         "right": "q(x) := Vaccine(x)"}
        for i in range(6)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ContainmentEngine() as engine:
            for _ in range(20):
                with ContainmentService(engine=engine, parallel="serial", max_batch=8) as service:
                    service.handle_many(payloads)
                    assert service.coalescer.stats.batches == 1
    finally:
        sys.setswitchinterval(interval)


# --------------------------------------------------------------------------- #
# the service facade: payload parsing, rendering, lifecycle
# --------------------------------------------------------------------------- #
def test_service_parses_payloads_and_caches_schema_text():
    payloads = request_payloads(8, length=3)
    with ContainmentService() as service:
        responses = service.handle_many(payloads)
        assert all(len(response["fingerprint"]) == 64 for response in responses)
        parse_stats = service.stats_report()["service"]["parse_caches"]
        # four distinct schema texts, repeated across eight requests
        assert parse_stats["parsed-schemas"]["hits"] > 0


def test_service_accepts_builtin_workload_payloads():
    with ContainmentService() as service:
        response = service.handle(
            {
                "workload": "medical",
                "left": "p(x) := (designTarget)(x, y)",
                "right": "q(x) := Vaccine(x)",
                "id": "req-1",
            }
        )
    assert response["contained"] is True
    assert response["id"] == "req-1"


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"left": "p(x) := A(x)", "right": "q(x) := A(x)"}, "schema"),
        ({"schema": "schema S { nodes A; }", "right": "q(x) := A(x)"}, "left"),
        ({"schema": "not a schema", "left": "p(x) := A(x)", "right": "q(x) := A(x)"}, "parse"),
        ({"workload": "nope", "left": "p(x) := A(x)", "right": "q(x) := A(x)"}, "workload"),
        ({"schema": 7, "left": "p(x) := A(x)", "right": "q(x) := A(x)"}, "DSL"),
        (
            {"workload": "synthetic", "length": "4", "left": "p(x) := A(x)",
             "right": "q(x) := A(x)"},
            "length",
        ),
        (
            {"workload": "synthetic", "length": [4], "left": "p(x) := A(x)",
             "right": "q(x) := A(x)"},
            "length",
        ),
    ],
)
def test_service_rejects_malformed_payloads(payload, message):
    with ContainmentService() as service:
        with pytest.raises(ServiceError, match=message):
            service.submit(payload)
        # malformed requests never reach the coalescer
        assert service.coalescer.stats.submitted == 0


def test_closed_service_rejects_requests():
    service = ContainmentService()
    service.close()
    with pytest.raises(RuntimeError, match="has been closed"):
        service.submit({"workload": "medical", "left": "p(x) := A(x)", "right": "q(x) := A(x)"})
    assert service.healthz()["status"] == "closed"
    service.close()  # idempotent
    with pytest.raises(RuntimeError, match="has been closed"):
        with service:
            pass  # pragma: no cover


def test_service_borrowing_an_engine_leaves_it_open():
    with ContainmentEngine() as engine:
        service = ContainmentService(engine=engine)
        service.handle(
            {"workload": "medical", "left": "p(x) := (designTarget)(x, y)",
             "right": "q(x) := Vaccine(x)"}
        )
        service.close()
        assert not engine.closed  # the borrower must not tear down its host
        assert engine.stats.contains_calls == 1


# --------------------------------------------------------------------------- #
# HTTP transport
# --------------------------------------------------------------------------- #
@pytest.fixture()
def http_server():
    service = ContainmentService(max_batch=16)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.close()
    thread.join(timeout=10)


def _post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read())


def test_http_contain_healthz_and_stats(http_server):
    url = http_server.url
    payloads = request_payloads(6, length=3)

    status, response = _post(url + "/contain", payloads[0])
    assert status == 200
    assert len(response["fingerprint"]) == 64

    status, batch = _post(url + "/batch", {"requests": payloads})
    assert status == 200
    assert len(batch["results"]) == len(payloads)

    with urllib.request.urlopen(url + "/healthz", timeout=30) as response:
        health = json.loads(response.read())
    assert health["status"] == "ok"
    assert health["requests"] >= 1 + len(payloads)

    with urllib.request.urlopen(url + "/stats", timeout=30) as response:
        stats = json.loads(response.read())
    assert stats["coalescer"]["submitted"] >= 1 + len(payloads)
    assert "engine" in stats and "service" in stats


def test_http_concurrent_clients_match_serial_fingerprints(
    http_server, small_stream, stream_baseline
):
    url = http_server.url
    payloads = request_payloads(24, length=3)  # the same stream, as wire payloads
    responses = closed_loop(
        payloads, lambda payload: _post(url + "/contain", payload), clients=6
    )
    assert all(status == 200 for status, _ in responses)
    assert [response["fingerprint"] for _, response in responses] == stream_baseline


def test_http_error_responses(http_server):
    url = http_server.url
    with pytest.raises(urllib.error.HTTPError) as bad_request:
        _post(url + "/contain", {"left": "p(x) := A(x)"})
    assert bad_request.value.code == 400
    assert "error" in json.loads(bad_request.value.read())

    with pytest.raises(urllib.error.HTTPError) as not_found:
        _post(url + "/nope", {})
    assert not_found.value.code == 404

    with pytest.raises(urllib.error.HTTPError) as bad_batch:
        _post(url + "/batch", {"not-requests": []})
    assert bad_batch.value.code == 400

    with pytest.raises(urllib.error.HTTPError) as unknown_get:
        urllib.request.urlopen(url + "/unknown", timeout=30)
    assert unknown_get.value.code == 404

    empty = urllib.request.Request(url + "/contain", data=b"", method="POST")
    with pytest.raises(urllib.error.HTTPError) as empty_body:
        urllib.request.urlopen(empty, timeout=30)
    assert empty_body.value.code == 400


def test_http_server_close_without_serve_forever_does_not_deadlock():
    service = ContainmentService()
    server = make_server(service)
    server.close()  # serve_forever never ran; must not hang on shutdown()
    assert service.closed


def test_closed_loop_driver_surfaces_client_failures():
    def flaky(item):
        if item == 2:
            raise ValueError("boom")
        return item * 10

    with pytest.raises(RuntimeError, match="failed on item 2") as failure:
        closed_loop([0, 1, 2, 3], flaky, clients=2)
    assert isinstance(failure.value.__cause__, ValueError)
    assert closed_loop([0, 1, 2], lambda item: item + 1, clients=2) == [1, 2, 3]
    with pytest.raises(ValueError, match="at least one client"):
        closed_loop([1], lambda item: item, clients=0)


# --------------------------------------------------------------------------- #
# stdio transport
# --------------------------------------------------------------------------- #
def test_stdio_answers_in_input_order_with_control_ops(stream_baseline):
    payloads = request_payloads(24, length=3)
    lines = [json.dumps(payload) for payload in payloads]
    lines.insert(0, json.dumps({"op": "healthz"}))
    lines.append("definitely not json")
    lines.append(json.dumps({"op": "stats"}))
    lines.append(json.dumps({"op": "shutdown"}))
    output = StringIO()
    with ContainmentService(max_batch=8) as service:
        counts = serve_stdio(service, StringIO("\n".join(lines) + "\n"), output)
    responses = [json.loads(line) for line in output.getvalue().splitlines()]

    assert counts["requests"] == len(payloads)
    assert responses[0]["status"] == "ok"  # healthz first, order preserved
    body = responses[1 : 1 + len(payloads)]
    assert [response["fingerprint"] for response in body] == stream_baseline
    assert "invalid JSON line" in responses[1 + len(payloads)]["error"]
    assert "coalescer" in responses[2 + len(payloads)]
    assert responses[-1] == {"ok": True}
    assert counts["errors"] == 1


def test_stdio_reports_unknown_ops_and_bad_payloads():
    lines = [
        json.dumps({"op": "conquer"}),
        json.dumps([1, 2, 3]),
        json.dumps({"op": "check", "left": "p(x) := A(x)"}),
        json.dumps({"op": "shutdown"}),
    ]
    output = StringIO()
    with ContainmentService() as service:
        serve_stdio(service, StringIO("\n".join(lines) + "\n"), output)
    responses = [json.loads(line) for line in output.getvalue().splitlines()]
    assert "unknown op" in responses[0]["error"]
    assert "JSON object" in responses[1]["error"]
    assert "schema" in responses[2]["error"]
    assert responses[3] == {"ok": True}


def test_stdio_cancels_a_request_whose_wait_times_out(monkeypatch):
    """A timed-out stdio line answers with an error and its queued request
    is dropped, never decided for nobody."""
    monkeypatch.setattr("repro.service.stdio.REQUEST_TIMEOUT_SECONDS", 0.01)
    payload = {"workload": "medical", "right": "q(x) := Vaccine(x)"}
    with _GatedEngine() as engine:
        with ContainmentService(engine=engine, parallel="serial") as service:
            running = service.submit({**payload, "left": "a(x) := (designTarget)(x, y)"})
            engine.wait_for_wave()  # "a" holds the flusher, so "b" queues behind it
            line = json.dumps({**payload, "left": "b(x) := (designTarget)(x, y)", "id": 7})
            output = StringIO()
            counts = serve_stdio(service, StringIO(line + "\n"), output)
            engine.gate.set()
            assert running.result(timeout=30).contained
            service.coalescer.close()
            assert engine.waves == [["a"]]
            assert service.coalescer.stats.abandoned == 1
    [response] = [json.loads(text) for text in output.getvalue().splitlines()]
    assert "TimeoutError" in response["error"]
    assert counts == {"requests": 1, "responses": 1, "errors": 1}


def test_service_constructor_failure_closes_its_own_engine(tmp_path):
    """A half-built service must not leak the engine (or its store handle)."""
    store_path = tmp_path / "leak-check.db"
    with pytest.raises(ValueError, match="unknown backend"):
        ContainmentService(parallel="warp", persist=store_path)
    # the store file is closed and re-openable read-write immediately
    with ContainmentEngine(persist=store_path) as engine:
        assert not engine.store.disabled


def test_handle_many_rejects_malformed_batches_before_any_work():
    with ContainmentService() as service:
        good = {"workload": "medical", "left": "p(x) := (designTarget)(x, y)",
                "right": "q(x) := Vaccine(x)"}
        with pytest.raises(ServiceError, match="missing the 'right' query"):
            service.handle_many([good, {"workload": "medical", "left": "p(x) := A(x)"}])
        # the valid payload was never queued: nothing reached the coalescer
        assert service.coalescer.stats.submitted == 0


def test_duplicate_waiters_get_independent_witness_copies():
    """A duplicate's counterexample graph is the client's to mutate — never
    shared with another waiter or with the engine's cached object."""
    from repro.containment import ContainmentConfig

    schema = medical.source_schema()
    left = parse_c2rpq("p(x) := Antigen(x)")  # not contained: carries a counterexample
    right = parse_c2rpq("q(x) := Vaccine(x)")
    config = ContainmentConfig(search_finite_counterexample=True)
    with ContainmentEngine() as engine:
        with RequestCoalescer(engine, max_batch=8) as coalescer:
            futures = coalescer.submit_many([(left, right, schema, config)] * 3)
            results = [future.result(timeout=30) for future in futures]
    assert len({result_fingerprint(result) for result in results}) == 1
    graphs = [result.finite_counterexample.graph for result in results]
    assert graphs[0] is not graphs[1] and graphs[1] is not graphs[2]


def test_http_invalid_content_length_is_a_400_not_a_500(http_server):
    """A malformed Content-Length (duplicate headers folded by a proxy) must
    be a client error, and the desynced connection must not be reused."""
    import http.client

    connection = http.client.HTTPConnection("127.0.0.1", http_server.port, timeout=30)
    try:
        connection.putrequest("POST", "/contain")
        connection.putheader("Content-Length", "67, 67")
        connection.endheaders()
        connection.send(b"x" * 67)
        response = connection.getresponse()
        assert response.status == 400
        assert "Content-Length" in json.loads(response.read())["error"]
        assert response.will_close  # the body was never read: no keep-alive
    finally:
        connection.close()
