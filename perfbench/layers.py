"""Per-layer metrics of a traced run (``--trace 1``).

Every metric is computed for every workload; a layer a workload does not
exercise reports 0 (``RATIONALE.md`` lists which metrics apply where).
Times are totals in seconds (``_s``) or means per call in milliseconds
(``_ms``); counts and ratios come from the program's public statistics
or from the span outcomes recorded by ``tracer.py``.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Tuple

__all__ = ["LAYER_UNITS", "per_layer"]

LAYER_UNITS: Dict[str, str] = {
    "service.submit_ms": "ms",
    "service.generator_lateness_p99_ms": "ms",
    "service.backlog_end": "count",
    "coalescer.wait_ms": "ms",
    "coalescer.waves": "count",
    "coalescer.wave_size_mean": "count",
    "coalescer.dedup_ratio": "ratio",
    "coalescer.flusher_busy_frac": "ratio",
    "engine.lookup_ms": "ms",
    "engine.results_hit_rate": "ratio",
    "engine.completions_hit_rate": "ratio",
    "engine.automata_hit_rate": "ratio",
    "engine.schema_tboxes_hit_rate": "ratio",
    "engine.auto_process_waves": "count",
    "parallel.pool_wall_s": "s",
    "parallel.worker_solve_s": "s",
    "parallel.worker_util": "ratio",
    "parallel.merge_back_s": "s",
    "transport.values_sent": "count",
    "transport.references_sent": "count",
    "transport.seed_bytes": "bytes",
    "transport.fallback_items": "count",
    "containment.booleanize_s": "s",
    "containment.roll_up_s": "s",
    "containment.completion_s": "s",
    "containment.entailment_s": "s",
    "containment.entailment_calls": "count",
    "containment.entailment_held_ratio": "ratio",
    "containment.solve_self_s": "s",
    "dl.schema_tbox_s": "s",
    "chase.index_s": "s",
    "chase.index_builds": "count",
    "chase.pattern_s": "s",
    "chase.patterns_checked": "count",
    "chase.consistent_ratio": "ratio",
    "core.compile_s": "s",
    "core.compiles": "count",
    "core.words_s": "s",
    "analysis.trim_s": "s",
    "analysis.self_s": "s",
    "analysis.containment_calls": "count",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _one(rep: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    spans: Dict[str, float] = rep["spans"]
    counts: Dict[str, Any] = rep["counts"]

    def span(key: str) -> float:
        return spans.get(key, 0.0)

    metrics: Dict[str, float] = {name: 0.0 for name in LAYER_UNITS}
    # service / coalescer
    metrics["service.submit_ms"] = 1000 * _ratio(
        span("service.submit.total_s"), span("service.submit.calls")
    )
    coalescer = counts.get("coalescer")
    if coalescer is not None:
        metrics["coalescer.wait_ms"] = 1000 * statistics.median(counts["coalescer_wait_s"])
        metrics["coalescer.waves"] = coalescer["batches"]
        metrics["coalescer.wave_size_mean"] = coalescer["mean_batch_size"]
        metrics["coalescer.dedup_ratio"] = _ratio(coalescer["deduplicated"], coalescer["submitted"])
        metrics["coalescer.flusher_busy_frac"] = _ratio(counts["flusher_busy_s"], counts["run_s"])
        metrics["service.generator_lateness_p99_ms"] = 1000 * counts["lateness_p99_s"]
        metrics["service.backlog_end"] = counts["backlog_end"]
        metrics["engine.auto_process_waves"] = counts["adaptive"]["decisions"].get("process", 0)
    # engine caches: the workers' for the process backend, else the parent's
    caches = (counts.get("workers") or counts["engine"])["caches"]
    for cache, name in (
        ("results", "results"),
        ("completions", "completions"),
        ("automata", "automata"),
        ("schema-tboxes", "schema_tboxes"),
    ):
        metrics[f"engine.{name}_hit_rate"] = caches[cache]["hit_rate"]
    metrics["engine.lookup_ms"] = 1000 * _ratio(
        span("engine.replay.total_s"), span("engine.replay.calls")
    )
    # parallel / transport
    if "worker_solve_s" in counts:
        pool = span("parallel.pool.total_s")
        metrics["parallel.pool_wall_s"] = pool
        metrics["parallel.worker_solve_s"] = counts["worker_solve_s"]
        metrics["parallel.worker_util"] = _ratio(counts["worker_solve_s"], pool * counts["workers_n"])
        metrics["parallel.merge_back_s"] = span("engine.check_many.total_s") - pool
    transport = counts.get("transport")
    if transport is not None:
        parent = transport["parent"]
        for key in ("values_sent", "references_sent", "seed_bytes", "fallback_items"):
            metrics[f"transport.{key}"] = parent[key]
    # containment stages
    metrics["containment.booleanize_s"] = span("containment.booleanize.total_s")
    metrics["containment.roll_up_s"] = span("containment.roll_up.total_s")
    metrics["containment.completion_s"] = span("containment.completion.self_s")
    metrics["containment.entailment_s"] = span("containment.entailment.total_s")
    metrics["containment.entailment_calls"] = span("containment.entailment.calls")
    metrics["containment.entailment_held_ratio"] = _ratio(
        span("containment.entailment.held"), span("containment.entailment.calls")
    )
    metrics["containment.solve_self_s"] = span("containment.solve.self_s")
    metrics["dl.schema_tbox_s"] = span("dl.schema_tbox.total_s")
    # chase: index builds everywhere (entailment checks build their own);
    # pattern checks of stage 5 only
    metrics["chase.index_s"] = span("chase.index.total_s")
    metrics["chase.index_builds"] = span("chase.index.calls")
    metrics["chase.pattern_s"] = span("chase.stage5.total_s")
    metrics["chase.patterns_checked"] = span("chase.stage5.calls")
    metrics["chase.consistent_ratio"] = _ratio(
        span("chase.stage5.consistent"), span("chase.stage5.calls")
    )
    metrics["core.compile_s"] = span("core.compile.total_s")
    metrics["core.compiles"] = span("core.compile.calls")
    metrics["core.words_s"] = span("core.words.total_s")
    # analysis
    metrics["analysis.trim_s"] = span("analysis.trim.total_s")
    metrics["analysis.self_s"] = sum(
        span(f"analysis.{procedure}.self_s")
        for procedure in ("type_check", "check_equivalence", "elicit_schema")
    )
    metrics["analysis.containment_calls"] = counts.get("containment_calls", 0)
    metrics["trace.unattributed_frac"] = _ratio(span("trace.root_self_s"), span("trace.root_s"))
    return metrics


def _work(rep: Dict[str, Any]) -> float:
    """The time tracing can slow: the batch's wall time, or for the
    service the engine time of the base phase's verdicts."""
    return rep["wall_s"] if "wall_s" in rep else sum(rep["verdict_s"])


def per_layer(
    untraced: List[Dict[str, Any]], traced: List[Dict[str, Any]]
) -> Dict[str, Tuple[float, str]]:
    """Median of each per-layer metric over the traced repetitions."""
    per_rep = [_one(rep) for rep in traced]
    metrics = {
        name: statistics.median(metric[name] for metric in per_rep) for name in LAYER_UNITS
    }
    plain = statistics.median(_work(rep) for rep in untraced)
    metrics["trace.overhead_frac"] = _ratio(
        statistics.median(_work(rep) for rep in traced) - plain, plain
    )
    return {name: (float(value), LAYER_UNITS[name]) for name, value in metrics.items()}
