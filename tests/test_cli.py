"""The ``python -m repro`` command line: subcommand behaviour, report
formats, spec-file loading and backend agreement."""

import json

import pytest

from repro.cli import main
from repro.schema.parser import schema_to_text
from repro.workloads import medical


def test_contain_text_summary(capsys):
    code = main(
        [
            "contain",
            "--left", "p(x) := (designTarget . crossReacting*)(x, y)",
            "--right", "q(x) := Vaccine(x)",
        ]
    )
    assert code == 0
    assert "⊆" in capsys.readouterr().out


def test_contain_json_report_to_stdout(capsys):
    code = main(
        [
            "contain",
            "--workload", "synthetic",
            "--length", "3",
            "--left", "p(x) := (e0 . e1)(x, y)",
            "--right", "q(x) := L0(x)",
            "--json", "-",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["contained"] is True
    assert report["schema"] == "Chain3"
    assert len(report["fingerprint"]) == 64


def test_contain_reads_schema_files(tmp_path, capsys):
    schema_file = tmp_path / "schema.txt"
    schema_file.write_text(schema_to_text(medical.source_schema()), encoding="utf-8")
    code = main(
        [
            "contain",
            "--schema-file", str(schema_file),
            "--left", "p(x) := Antigen(x)",
            "--right", "q(x) := Vaccine(x)",
            "--json", "-",
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["contained"] is False


@pytest.mark.parametrize(
    "workload, variant, expected_code, expected_well_typed",
    [("medical", "default", 0, True), ("medical", "broken", 1, False), ("social", "default", 0, True)],
)
def test_typecheck_workloads(capsys, workload, variant, expected_code, expected_well_typed):
    code = main(["typecheck", "--workload", workload, "--variant", variant, "--json", "-"])
    assert code == expected_code
    report = json.loads(capsys.readouterr().out)
    assert report["well_typed"] is expected_well_typed
    if not expected_well_typed:
        assert report["failed_statements"]


def test_typecheck_synthetic_has_no_migration():
    with pytest.raises(SystemExit):
        main(["typecheck", "--workload", "synthetic"])


def test_batch_json_report(tmp_path):
    out = tmp_path / "report.json"
    code = main(["batch", "--workload", "medical", "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["backend"] == "serial"
    assert report["tasks"] == report["verdicts"]["contained"] + report["verdicts"]["not_contained"]
    assert report["stats"]["engine"]["contains_calls"] == report["tasks"]
    assert len(report["fingerprint"]) == 64


def test_batch_repeat_reports_the_warm_run(capsys):
    code = main(["batch", "--workload", "social", "--repeat", "2", "--json", "-"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    # the second pass is served from the result cache
    assert report["stats"]["engine"]["caches"]["results"]["hits"] >= report["tasks"]


def test_batch_loads_spec_files(tmp_path, capsys):
    spec = {
        "schema": schema_to_text(medical.source_schema()),
        "pairs": [
            {"left": "p(x) := (designTarget)(x, y)", "right": "q(x) := Vaccine(x)"},
            {"left": "p2(x) := Antigen(x)", "right": "q(x) := Vaccine(x)"},
        ],
    }
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec), encoding="utf-8")
    code = main(["batch", "--spec", str(spec_file), "--json", "-"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tasks"] == 2
    assert report["verdicts"] == {"contained": 1, "not_contained": 1}


def test_batch_rejects_malformed_specs(tmp_path):
    spec_file = tmp_path / "bad.json"
    spec_file.write_text(json.dumps({"schema": "schema S { nodes A; }"}), encoding="utf-8")
    with pytest.raises(SystemExit):
        main(["batch", "--spec", str(spec_file)])


def test_bench_asserts_backend_agreement(capsys):
    code = main(
        ["bench", "--workload", "social", "--backends", "serial,thread", "--json", "-"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts_identical"] is True
    assert set(report["backends"]) == {"serial", "thread"}
    assert len(set(report["fingerprints"].values())) == 1
    assert report["backends"]["serial"]["speedup_vs_serial"] == 1.0


def test_bench_includes_process_backend(capsys):
    code = main(
        [
            "bench",
            "--workload", "medical",
            "--backends", "serial,process",
            "--workers", "2",
            "--json", "-",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts_identical"] is True
    assert "workers" in report["backends"]["process"]["stats"]


def test_bench_rejects_unknown_backends():
    with pytest.raises(SystemExit):
        main(["bench", "--workload", "medical", "--backends", "serial,warp"])


def test_unknown_subcommand_exits_with_usage():
    with pytest.raises(SystemExit):
        main(["conquer"])


def test_bench_automata_suite_json_report(capsys):
    code = main(["bench", "--suite", "automata", "--repeats", "1", "--requests", "2", "--json", "-"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["suite"] == "automata"
    assert set(report) == {"suite", "compile", "enumeration", "kernels", "prefix_sharing", "context"}
    assert report["context"]["cpu_count"] >= 1
    assert report["context"]["rng_seed"] == 1729
    assert report["compile"]["regexes"] > 0
    assert report["compile"]["speedup"] > 0
    assert report["enumeration"]["nfa_states"] > 0
    # the kernel row carries both sides of the comparison (equality is
    # asserted inside the harness; the speed gate lives in
    # bench_automaton_compile.py)
    assert set(report["kernels"]) == {"requests_per_regex", "nfa_enumeration"}
    assert report["kernels"]["nfa_enumeration"]["words"] > 0
    assert report["kernels"]["nfa_enumeration"]["speedup"] > 0
    # the pruned run is observationally identical (asserted inside the harness)
    assert report["prefix_sharing"]["satisfiable"] is False
    assert report["prefix_sharing"]["patterns_checked"] > 0


def test_bench_automata_suite_text_summary(capsys):
    code = main(["bench", "--suite", "automata", "--repeats", "1", "--requests", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "compile:" in out and "prefix sharing:" in out and "kernels" in out


def test_bench_backends_report_carries_context(capsys):
    code = main(["bench", "--workload", "social", "--backends", "serial", "--json", "-"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["suite"] == "backends"
    context = report["context"]
    assert context["cpu_count"] >= 1
    assert context["python_version"].count(".") == 2
    assert context["rng_seed"] == 1729


def test_bench_store_suite_json_report(tmp_path, capsys):
    store_file = tmp_path / "bench-store.db"
    code = main(
        ["bench", "--suite", "store", "--length", "2", "--persist", str(store_file), "--json", "-"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["suite"] == "store"
    assert report["fingerprints_identical"] is True
    assert report["cold"]["store"]["writes"] >= report["tasks"]
    assert report["warm"]["store"]["hits"] == report["tasks"]
    assert report["store"]["tiers"]["results"] == report["tasks"]
    assert report["context"]["rng_seed"] == 1729
    assert store_file.exists()


def test_batch_with_persist_reports_and_reuses_the_store(tmp_path, capsys):
    store_file = tmp_path / "store.db"
    assert main(["batch", "--workload", "social", "--persist", str(store_file)]) == 0
    capsys.readouterr()
    code = main(["batch", "--workload", "social", "--persist", str(store_file), "--json", "-"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["stats"]["engine"]["store"]["hits"] == report["tasks"]
    assert report["store"]["tiers"]["results"] == report["tasks"]


def test_cache_subcommand_round_trip(tmp_path, capsys):
    store_file = tmp_path / "cache.db"

    assert main(["cache", "warm", "--persist", str(store_file), "--workload", "medical"]) == 0
    assert "warmed with medical" in capsys.readouterr().out

    assert main(["cache", "stats", "--persist", str(store_file), "--json", "-"]) == 0
    stats_report = json.loads(capsys.readouterr().out)
    assert stats_report["tiers"]["results"] == 15
    assert stats_report["disabled"] is False

    assert main(["cache", "export", "--persist", str(store_file)]) == 0
    export_report = json.loads(capsys.readouterr().out)
    assert len(export_report["entries"]) == sum(stats_report["tiers"].values())
    assert {entry["tier"] for entry in export_report["entries"]} == {
        "results", "schema-tboxes",
    }

    assert main(["cache", "clear", "--persist", str(store_file), "--tier", "results"]) == 0
    assert "dropped 15 entries" in capsys.readouterr().out
    assert main(["cache", "stats", "--persist", str(store_file), "--json", "-"]) == 0
    assert "results" not in json.loads(capsys.readouterr().out)["tiers"]


def test_bench_store_suite_refuses_an_unopenable_store(tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("parent is a file, the store can never open")
    with pytest.raises(SystemExit, match="cannot open store"):
        main(
            ["bench", "--suite", "store", "--length", "2",
             "--persist", str(blocker / "store.db")]
        )


def test_cache_stats_on_missing_store_reports_unavailable(tmp_path, capsys):
    code = main(["cache", "stats", "--persist", str(tmp_path / "nope.db")])
    assert code == 0
    assert "unavailable" in capsys.readouterr().out


def test_cache_export_on_missing_store_fails(tmp_path):
    assert main(["cache", "export", "--persist", str(tmp_path / "nope.db")]) == 1


def test_bench_service_suite_json_report(capsys):
    code = main(
        ["bench", "--suite", "service", "--requests", "10", "--clients", "4",
         "--workers", "2", "--length", "2", "--json", "-"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["suite"] == "service"
    assert report["fingerprints_identical"] is True
    assert report["per_request"]["coalescer"]["largest_batch"] == 1
    assert report["coalesced"]["coalescer"]["submitted"] == 10
    assert report["context"]["rng_seed"] == 1729


def test_serve_stdio_round_trip(monkeypatch, capsys):
    import io
    import sys as real_sys

    lines = [
        json.dumps(
            {"workload": "medical", "left": "p(x) := (designTarget)(x, y)",
             "right": "q(x) := Vaccine(x)", "id": 1}
        ),
        json.dumps({"op": "shutdown"}),
    ]
    monkeypatch.setattr(real_sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
    code = main(["serve", "--stdio", "--coalesce-window", "0"])
    assert code == 0
    responses = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert responses[0]["contained"] is True
    assert responses[0]["id"] == 1
    assert responses[-1] == {"ok": True}


def test_bench_zoo_suite_json_report(capsys):
    code = main(
        ["bench", "--suite", "zoo", "--requests", "12", "--backends", "serial,thread",
         "--json", "-"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["suite"] == "zoo"
    assert set(report["families"]) == {"property", "tree-device", "atm-fragments"}
    assert report["verdicts_identical"] is True
    assert set(report["backends"]) == {"serial", "thread"}
    assert len(set(report["fingerprints"].values())) == 1


def test_replay_record_then_replay_round_trip(tmp_path, capsys):
    trace_path = tmp_path / "trace.ndjson"
    code = main(["replay", "--record", str(trace_path), "--requests", "20", "--json", "-"])
    assert code == 0
    record_report = json.loads(capsys.readouterr().out)
    assert record_report["stamped"] == 20
    assert trace_path.exists()

    code = main(["replay", str(trace_path), "--clients", "4", "--json", "-"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["matches"] is True
    assert report["stamped"] == 20
    assert report["mismatches"] == []
    assert set(report["latency"]) == {"p50_seconds", "p95_seconds", "p99_seconds"}
    assert report["coalescer"]["submitted"] == 20


def test_replay_exit_code_flags_a_tampered_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.ndjson"
    assert main(["replay", "--record", str(trace_path), "--requests", "10"]) == 0
    lines = trace_path.read_text(encoding="utf-8").splitlines()
    tampered = json.loads(lines[1])
    tampered["result_fingerprint"] = "0" * 64
    lines[1] = json.dumps(tampered, sort_keys=True, separators=(",", ":"))
    trace_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    code = main(["replay", str(trace_path), "--clients", "2"])
    assert code == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_recorded_trace_replays_through_serve_stdio(monkeypatch, tmp_path, capsys):
    """The acceptance loop: record → ``python -m repro serve --stdio`` →
    every response fingerprint equals the trace's stamped expectation, in
    trace order (the stdio transport answers in input order)."""
    import io
    import sys as real_sys

    trace_path = tmp_path / "trace.ndjson"
    assert main(["replay", "--record", str(trace_path), "--requests", "15"]) == 0
    capsys.readouterr()

    expected = []
    lines = []
    for line in trace_path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if "request" not in record:
            continue
        expected.append(record["result_fingerprint"])
        lines.append(json.dumps(record["request"]))
    monkeypatch.setattr(real_sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
    code = main(["serve", "--stdio", "--coalesce-window", "2"])
    assert code == 0
    responses = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [response["fingerprint"] for response in responses] == expected
