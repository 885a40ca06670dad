"""Build and cross-check the committed expected outputs (``expected/``).

``python3 perfbench/expected.py`` recomputes the expectations of the
default seed with an uncached ``ContainmentSolver`` (``rep.py reference``,
in a separate interpreter), writes them, and cross-checks them against
oracles that do not use the solver.  ``--check`` only cross-checks the
committed files.  The oracles:

* a bounded ``find_counterexample`` search on every zoo and service pair:
  any counterexample it finds means the recorded verdict must be ⊄;
* ATM fragments are contained in their union and the union is not
  contained in its head fragment, by construction of the reduction;
* the Figure 1 medical migration is well-typed and the broken one is not.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected")

#: Bounds of the counterexample search (graphs of at most this many nodes).
SEARCH_NODES = 2
SEARCH_GRAPHS = 2_000


def _files(seed: int) -> Dict[str, str]:
    return {
        "zoo-cold": os.path.join(EXPECTED, f"zoo-seed{seed}.json"),
        "service-trace": os.path.join(EXPECTED, f"service-trace-seed{seed}.json"),
        "analysis": os.path.join(EXPECTED, "analysis.json"),
    }


def build(seed: int) -> None:
    for workload, path in _files(seed).items():
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "rep.py"), "reference", workload, str(seed), "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        )
        with open(path, "w") as handle:
            json.dump(json.loads(completed.stdout.splitlines()[-1]), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.relpath(path, ROOT)}")


def _counterexample(left, right, schema) -> bool:
    """Whether the bounded search finds a finite counterexample to ⊆."""
    from repro.containment.counterexample import find_counterexample
    from repro.rpq.queries import C2RPQ, UC2RPQ

    def union(query):
        return UC2RPQ.from_query(query) if isinstance(query, C2RPQ) else query

    found = find_counterexample(
        union(left), union(right), schema, max_nodes=SEARCH_NODES, max_graphs=SEARCH_GRAPHS
    )
    return found is not None


def check(seed: int) -> List[str]:
    from repro.rpq.parser import parse_c2rpq
    from repro.schema.parser import parse_schema

    from inputs import service_trace, zoo_pairs
    from rep import _payload_key

    problems: List[str] = []
    files = _files(seed)
    with open(files["zoo-cold"]) as handle:
        zoo = json.load(handle)["outputs"]
    pairs = zoo_pairs(seed)
    if len(pairs) != len(zoo):
        problems.append(f"zoo: {len(zoo)} expected outputs for {len(pairs)} pairs")
    searched = confirmed = 0
    for (family, left, right, schema), want in zip(pairs, zoo):
        if family == "atm-fragments":
            by_construction = not right.name.startswith("fraghead_")
            if want["contained"] != by_construction:
                problems.append(f"zoo: {left.name} ⊆ {right.name} should be {by_construction}")
            continue
        searched += 1
        if _counterexample(left, right, schema):
            confirmed += 1
            if want["contained"]:
                problems.append(f"zoo: counterexample to recorded ⊆ for {left.name} ⊆ {right.name}")

    with open(files["service-trace"]) as handle:
        service = json.load(handle)["payloads"]
    seen = set()
    for line in service_trace(seed):
        payload = line["payload"]
        key = _payload_key(payload)
        if key in seen:
            continue
        seen.add(key)
        if key not in service:
            problems.append(f"service: no expectation for payload {key}")
            continue
        searched += 1
        schema = parse_schema(payload["schema"])
        left, right = parse_c2rpq(payload["left"]), parse_c2rpq(payload["right"])
        if _counterexample(left, right, schema):
            confirmed += 1
            if service[key]["contained"]:
                problems.append(f"service: counterexample to recorded ⊆ for {payload['left']}")

    with open(files["analysis"]) as handle:
        jobs = json.load(handle)["jobs"]
    for job, well_typed in (("medical/type_check", True), ("medical/type_check_broken", False)):
        if jobs.get(job) != {"well_typed": well_typed}:
            problems.append(f"analysis: {job} should be well_typed={well_typed}")
    print(f"cross-checked {searched} pairs by counterexample search "
          f"({confirmed} recorded ⊄ verdicts confirmed by a counterexample), "
          f"{sum(1 for p in pairs if p[0] == 'atm-fragments')} ATM pairs by construction, "
          f"2 Figure 1 type checks: {len(problems)} problems")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="only cross-check the committed files")
    args = parser.parse_args()
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from inputs import DEFAULT_SEED

    if not args.check:
        os.makedirs(EXPECTED, exist_ok=True)
        build(DEFAULT_SEED)
    problems = check(DEFAULT_SEED)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
