"""The repository benchmark: ``python3 perfbench/run.py --workload W --seed N``.

Options: ``--workload`` (``zoo-cold``, ``zoo-process``, ``analysis``,
``service-trace``), ``--seed`` (inputs are made from it), ``--seconds``
(how long to keep repeating the workload) and ``--trace`` (``0``: the
end-to-end metrics; ``1``: the per-layer metrics of a traced run).

Every repetition and every set-up probe runs in a fresh interpreter
(``rep.py``), so nothing warm carries over between repetitions, workloads
or runs.  Outputs are checked against the committed expectations for the
default seed (``expected/``) or, for any other seed, against an uncached
``ContainmentSolver`` run in a separate interpreter; every mismatch,
error or timeout counts as failed.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
diagnostics go to stderr.  Why each workload and metric exists is in
``RATIONALE.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("zoo-cold", "zoo-process", "analysis", "service-trace")
#: Set-up samples per run (repetitions count; extra probes fill the rest).
SETUP_SAMPLES = 9
#: A child interpreter that takes longer than this is a failure, not a hang.
CHILD_TIMEOUT_S = 150.0
#: p99 limit of a service rung, in seconds.
LATENCY_LIMIT_S = 1.0


def _child(args: Sequence[str]) -> Dict[str, Any]:
    """Run ``rep.py`` in a fresh interpreter; its last stdout line is JSON.

    The child leads its own process group, so a timeout also stops the
    worker processes it started.
    """
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "rep.py"), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    if child.returncode != 0:
        raise RuntimeError(f"rep.py {' '.join(args)} exited {child.returncode}:\n{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def _percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, -(-int(share * 1000) * len(ordered) // 1000))
    return ordered[min(rank, len(ordered)) - 1]


# --------------------------------------------------------------------------- #
# correctness
# --------------------------------------------------------------------------- #
def _source_digest() -> str:
    """Digest of the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for top in (os.path.join(SRC, "repro"), HERE):
        for folder, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    with open(os.path.join(folder, name), "rb") as handle:
                        digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def _reference(workload: str, seed: int) -> Dict[str, Any]:
    """Expected outputs: committed for the default seed, else computed.

    A computed reference is kept in ``.perfbench-cache/`` at the checkout
    root, keyed by the seed and a digest of the program and benchmark
    sources, so the two zoo workloads (same inputs) and repeated seeds in
    one checkout compute it once.
    """
    from inputs import DEFAULT_SEED

    kind = "zoo" if workload.startswith("zoo") else workload
    if kind == "analysis" or seed == DEFAULT_SEED:
        name = "analysis.json" if kind == "analysis" else f"{kind}-seed{DEFAULT_SEED}.json"
        with open(os.path.join(HERE, "expected", name)) as handle:
            return json.load(handle)
    cache = os.path.join(ROOT, ".perfbench-cache", f"{kind}-seed{seed}-{_source_digest()}.json")
    if os.path.isfile(cache):
        with open(cache) as handle:
            return json.load(handle)
    reference = _child(["reference", workload, str(seed), "0"])
    os.makedirs(os.path.dirname(cache), exist_ok=True)
    partial = f"{cache}.{os.getpid()}.tmp"
    with open(partial, "w") as handle:
        json.dump(reference, handle)
    os.replace(partial, cache)
    return reference


def _check(workload: str, rep: Dict[str, Any], reference: Dict[str, Any]) -> int:
    """Mismatching, failed or missing outputs of one repetition."""
    outputs = rep["outputs"]
    failed = len(rep.get("errors", []))
    if workload.startswith("zoo"):
        expected = reference["outputs"]
        if len(expected) != len(outputs):
            return len(outputs)
        return failed + sum(1 for got, want in zip(outputs, expected) if got != want)
    if workload == "analysis":
        expected = reference["jobs"]
        return failed + sum(
            1
            for got in outputs
            if {key: value for key, value in got.items() if key != "job"} != expected.get(got["job"])
        )
    expected = reference["payloads"]
    return failed + sum(
        1
        for got in outputs
        if {key: value for key, value in got.items() if key != "payload"} != expected.get(got["payload"])
    )


# --------------------------------------------------------------------------- #
# end-to-end metrics
# --------------------------------------------------------------------------- #
def _rungs(rep: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The rate ladder of one service repetition (the base phase first)."""
    rungs = []
    for phase in rep["phases"]:
        p99 = _percentile(phase["latency_s"], 0.99)
        rungs.append(
            {
                "rate": phase["rate"],
                "p99_ms": p99 * 1000,
                "drain_ms": phase["drain_s"] * 1000,
                "backlog": phase["backlog"],
                "lateness_p99_ms": _percentile(phase["lateness_s"], 0.99) * 1000,
                "answered_rate": len(phase["latency_s"]) / (phase["last_done"] - phase["first_due"]),
                "passed": p99 <= LATENCY_LIMIT_S and phase["drain_s"] <= LATENCY_LIMIT_S,
            }
        )
    return rungs


def _sustained(rungs: List[Dict[str, Any]]) -> float:
    """Answered rate at the highest rung reached without a failing one."""
    sustained = 0.0
    for rung in rungs:
        if not rung["passed"]:
            break
        sustained = rung["answered_rate"]
    return sustained


def _end_to_end(workload: str, reps: List[Dict[str, Any]], setups: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The end-to-end metrics of a run.

    Percentiles are taken over the requests of all repetitions together;
    rates and memory are medians over repetitions; ``setup_s`` is the
    median of every set-up sample.  CPU-bound times are at the reference
    speed: ``rep.py`` divides times of CPU work (set-up, verdicts, batch
    calls, the service's tail latency, which waits behind cold solves) by
    the slowdown read next to them.  The service's p50 (mostly the
    coalescing window), its throughput and its sustained rate (set by the
    arrival schedule while it keeps up) are reported as measured.
    """
    verdicts = [value for rep in reps for value in rep["verdict_s"]]
    metrics = {
        "setup_s": statistics.median(probe["setup_s"] for probe in setups),
        "peak_rss_mb": statistics.median(rep["rss_mb"] for rep in reps),
        "verdict_p50_ms": _percentile(verdicts, 0.50) * 1000,
        "verdict_p95_ms": _percentile(verdicts, 0.95) * 1000,
    }
    if workload == "service-trace":
        ladders = [_rungs(rep) for rep in reps]
        for rungs in ladders:
            for rung in rungs:
                print(
                    "service rung {rate:.0f}/s: p99 {p99_ms:.1f} ms, drain {drain_ms:.1f} ms, "
                    "backlog {backlog}, lateness p99 {lateness_p99_ms:.1f} ms, "
                    "answered {answered_rate:.1f}/s, {verdict}".format(
                        verdict="pass" if rung["passed"] else "FAIL", **rung
                    ),
                    file=sys.stderr,
                )
        base = [phase for rep in reps for phase in rep["phases"][:1]]
        metrics["latency_p50_ms"] = _percentile([v for p in base for v in p["latency_s"]], 0.50) * 1000
        metrics["latency_p99_ms"] = (
            _percentile([v for p in base for v in p["latency_norm_s"]], 0.99) * 1000
        )
        metrics["throughput_per_s"] = statistics.median(rungs[0]["answered_rate"] for rungs in ladders)
        metrics["sustained_rps"] = statistics.median(_sustained(rungs) for rungs in ladders)
    else:
        # batch callers: every request is due when the run starts and is
        # answered when the call that decided it returns (zoo pairs go in
        # calls of 8, analysis jobs one by one); they sustain what they
        # complete
        metrics["throughput_per_s"] = statistics.median(rep["items"] / rep["wall_s"] for rep in reps)
        metrics["sustained_rps"] = metrics["throughput_per_s"]
        answers = [value for rep in reps for value in rep["latency_s"]]
        metrics["latency_p50_ms"] = _percentile(answers, 0.50) * 1000
        metrics["latency_p99_ms"] = _percentile(answers, 0.99) * 1000
    return metrics


UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p95_ms": "ms",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "sustained_rps": "1/s",
    "peak_rss_mb": "MiB",
}


# --------------------------------------------------------------------------- #
def _context() -> Dict[str, Any]:
    try:
        import numpy  # noqa: F401

        has_numpy = os.environ.get("REPRO_NO_NUMPY") != "1"
    except ImportError:
        has_numpy = False
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": has_numpy,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
        "source": _source_digest(),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)

    context = _context()
    print(f"perfbench context: {json.dumps(context, sort_keys=True)}", file=sys.stderr)
    reference = _reference(args.workload, args.seed)

    reps: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    attempted = failed = 0
    started = time.perf_counter()
    rounds = 0
    while True:
        for trace in ((0, 1) if args.trace else (0,)):
            rep = _child(["rep", args.workload, str(args.seed), str(trace)])
            (traced if trace else reps).append(rep)
            attempted += rep["items"]
            failed += _check(args.workload, rep, reference)
        rounds += 1
        elapsed = time.perf_counter() - started
        # another round only if it ends closer to --seconds than stopping now
        if elapsed + 0.5 * elapsed / rounds >= args.seconds:
            break
    if args.trace:
        from layers import per_layer

        metrics = per_layer(reps, traced)
        units = {name: unit for name, (value, unit) in metrics.items()}
        values = {name: value for name, (value, unit) in metrics.items()}
    else:
        setups = list(reps)
        while len(setups) < SETUP_SAMPLES:
            setups.append(_child(["setup", args.workload, str(args.seed), "0"]))
        values = _end_to_end(args.workload, reps, setups)
        units = UNITS
    walls = ", ".join(f"{rep['raw_wall_s']:.3f} s" for rep in reps + traced if "raw_wall_s" in rep)
    print(
        f"perfbench {args.workload} seed {args.seed}: {len(reps + traced)} repetitions, "
        f"{attempted} outputs checked, {failed} failed; "
        + (f"measured wall per repetition {walls}; " if walls else "")
        + "median slowdown per repetition "
        + ", ".join(f"{statistics.median(rep['slowdowns']):.3f}" for rep in reps + traced),
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": units[name]} for name in sorted(values)
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
