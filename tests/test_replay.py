"""Record/replay traces: determinism, the NDJSON format, and service replay.

The replay contract has three layers, each tested here:

1. **generation determinism** — the same seed and knobs must produce a
   byte-identical trace, including across separate OS processes (hash
   randomisation, dict order and import order must not leak in);
2. **format round-trip** — write → read preserves every field, and a
   reader refuses trace formats newer than it understands;
3. **replay fidelity** — a stamped trace re-runs bit-identically through
   the service (every ``result_fingerprint`` equal, in order), tampering
   is detected, and a duplicate storm is absorbed by the coalescer/cache
   pair with exactly one solver call per unique payload.
"""

import json
import subprocess
import sys
from dataclasses import replace
from io import StringIO
from pathlib import Path

import pytest

from repro.service import ContainmentService, serve_stdio
from repro.workloads.replay import (
    TRACE_FORMAT_VERSION,
    generate_trace,
    latency_percentiles,
    read_trace,
    replay_trace,
    stamp_expected,
    write_trace,
)

ROOT = Path(__file__).resolve().parent.parent

#: Small-but-representative knobs shared by the tests: fast to stamp on one
#: core, yet containing hot/cold tenants, a burst and a duplicate storm.
KNOBS = dict(requests=40, tenants=4, zoo_schemas=2, zoo_queries_per_schema=3)


def run_in_subprocess(code: str) -> str:
    """One fresh interpreter (fresh hash seed, fresh imports) running *code*."""
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


@pytest.fixture(scope="module")
def stamped_trace():
    return stamp_expected(generate_trace(**KNOBS))


# --------------------------------------------------------------------------- #
# generation determinism
# --------------------------------------------------------------------------- #
def test_stream_payloads_identical_across_process_invocations():
    """Satellite: same seed → byte-identical payload sequence, two processes."""
    code = (
        "import hashlib, json\n"
        "from repro.workloads.streams import request_payloads\n"
        "blob = json.dumps(request_payloads(40, seed=7), sort_keys=True)\n"
        "print(hashlib.sha256(blob.encode()).hexdigest())\n"
    )
    assert run_in_subprocess(code) == run_in_subprocess(code)


def test_trace_file_identical_across_process_invocations(tmp_path):
    code_template = (
        "import hashlib, pathlib\n"
        "from repro.workloads.replay import generate_trace, write_trace\n"
        "write_trace(generate_trace(40, tenants=4, zoo_schemas=2,"
        " zoo_queries_per_schema=3), {path!r})\n"
        "print(hashlib.sha256(pathlib.Path({path!r}).read_bytes()).hexdigest())\n"
    )
    first = run_in_subprocess(code_template.format(path=str(tmp_path / "a.ndjson")))
    second = run_in_subprocess(code_template.format(path=str(tmp_path / "b.ndjson")))
    assert first == second


def test_generate_trace_is_deterministic_in_process():
    first, second = generate_trace(**KNOBS), generate_trace(**KNOBS)
    assert first.requests == second.requests
    assert first.meta == second.meta


def test_trace_mixes_hot_and_cold_tenants_with_duplicates():
    trace = generate_trace(**KNOBS)
    tenants = {request.tenant for request in trace.requests}
    assert any(tenant.startswith("hot") for tenant in tenants)
    assert any(tenant.startswith("cold") for tenant in tenants)
    assert trace.unique_payloads() < len(trace)  # storms + hot set repeat
    offsets = [request.offset for request in trace.requests]
    assert offsets == sorted(offsets)  # arrivals never go backwards


# --------------------------------------------------------------------------- #
# format round-trip
# --------------------------------------------------------------------------- #
def test_write_read_round_trip(tmp_path, stamped_trace):
    path = tmp_path / "trace.ndjson"
    write_trace(stamped_trace, path)
    back = read_trace(path)
    assert back.requests == stamped_trace.requests
    assert back.meta["seed"] == stamped_trace.meta["seed"]
    assert back.meta["trace_format"] == TRACE_FORMAT_VERSION


def test_reader_rejects_newer_formats(tmp_path):
    path = tmp_path / "future.ndjson"
    path.write_text(json.dumps({"trace_format": TRACE_FORMAT_VERSION + 1}) + "\n")
    with pytest.raises(ValueError, match="newer than the supported"):
        read_trace(path)


@pytest.mark.parametrize(
    "line, message",
    [
        ("{not json", "not valid JSON"),
        ('["a", "list"]', "must be a JSON object"),
        ('{"tenant": "t0", "offset": 1}', "missing the 'request' object"),
    ],
)
def test_reader_reports_malformed_lines_with_numbers(tmp_path, line, message):
    path = tmp_path / "bad.ndjson"
    path.write_text(line + "\n")
    with pytest.raises(ValueError, match=f"line 1.*{message}|{message}"):
        read_trace(path)


def test_latency_percentiles_nearest_rank():
    assert latency_percentiles([]) == {
        "p50_seconds": 0.0, "p95_seconds": 0.0, "p99_seconds": 0.0,
    }
    assert latency_percentiles([3.0]) == {
        "p50_seconds": 3.0, "p95_seconds": 3.0, "p99_seconds": 3.0,
    }
    hundred = latency_percentiles([float(i) for i in range(1, 101)])
    assert hundred == {"p50_seconds": 50.0, "p95_seconds": 95.0, "p99_seconds": 99.0}


# --------------------------------------------------------------------------- #
# replay fidelity
# --------------------------------------------------------------------------- #
def test_stamped_trace_replays_bit_identically(stamped_trace):
    with ContainmentService(max_batch=16) as service:
        report = replay_trace(service, stamped_trace, clients=6)
    assert report.matches
    assert report.fingerprints == [request.expected for request in stamped_trace.requests]
    percentiles = report.percentiles()
    assert set(percentiles) == {"p50_seconds", "p95_seconds", "p99_seconds"}
    assert percentiles["p50_seconds"] <= percentiles["p99_seconds"]


def test_replay_detects_a_tampered_fingerprint(stamped_trace):
    tampered = replace(stamped_trace.requests[3], expected="0" * 64)
    requests = list(stamped_trace.requests)
    requests[3] = tampered
    from repro.workloads.replay import Trace

    with ContainmentService() as service:
        report = replay_trace(service, Trace(requests, dict(stamped_trace.meta)), clients=4)
    assert not report.matches
    assert report.mismatches == [3]


def test_stdio_transport_replays_a_trace_in_order(stamped_trace):
    """The acceptance shape: the trace through ``serve --stdio``, bit-identical."""
    lines = "\n".join(
        json.dumps(request.payload) for request in stamped_trace.requests
    ) + "\n"
    output = StringIO()
    with ContainmentService(max_batch=16) as service:
        counts = serve_stdio(service, StringIO(lines), output)
    assert counts["errors"] == 0
    responses = [json.loads(line) for line in output.getvalue().splitlines()]
    assert [response["fingerprint"] for response in responses] == [
        request.expected for request in stamped_trace.requests
    ]


def test_duplicate_storm_coalesces_to_one_solver_call_per_payload():
    """Satellite: under a duplicate storm, the coalescer/result-cache pair
    must absorb every repeat — solver calls (results-cache misses in
    ``/stats``) equal the number of *unique* payloads, and the coalescer's
    dedup counter proves duplicates were folded in flight, not re-solved.
    """
    trace = stamp_expected(
        generate_trace(
            48, tenants=3, hot_tenants=2, hot_corpus_size=4,
            duplicate_storms=3, storm_size=8,
            zoo_schemas=1, zoo_queries_per_schema=2,
        )
    )
    assert trace.unique_payloads() < len(trace) // 2  # genuinely duplicate-heavy
    with ContainmentService(max_batch=32) as service:
        report = replay_trace(service, trace, clients=8)
        stats = service.stats_report()
    assert report.matches
    coalescer = stats["coalescer"]
    results_cache = stats["engine"]["caches"]["results"]
    assert coalescer["submitted"] == len(trace)
    assert coalescer["deduplicated"] > 0
    assert results_cache["misses"] == trace.unique_payloads()
