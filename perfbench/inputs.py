"""Inputs of the four benchmark workloads.

The functions here return plain program inputs (schemas, queries,
transformations, service payloads); the program never sees the seed.  The
zoo and service inputs are made from the run's ``--seed``; the analysis
catalogue is fixed.

The zoo-based inputs keep the *structure* of one fixed corpus and let the
seed rename every label.  A freshly drawn zoo corpus is heavy-tailed: a few schemas with finmod cycles cost 0.2-1.3 s each while
the rest cost ~10 ms, so the cost of a 215-pair corpus varies about 2x from
seed to seed, far more than any change the benchmark should detect.  With
the structure fixed and the names drawn from the seed, every seed gives
fresh fingerprints (nothing can be served from a cache or a memo keyed by
a previous seed) and the same amount of solver work.
"""

from __future__ import annotations

import random
import re
from typing import Any, Callable, Dict, List, Tuple

from repro.rpq.parser import parse_c2rpq
from repro.schema.parser import parse_schema, schema_to_text
from repro.workloads.replay import generate_trace
from repro.workloads.zoo import ZOO_SEED, zoo_corpus

__all__ = [
    "DEFAULT_SEED",
    "analysis_catalogue",
    "service_phases",
    "service_trace",
    "zoo_pairs",
]

#: The seed whose expected outputs are committed under ``expected/``.
DEFAULT_SEED = 1

#: Property schemas in the zoo corpus (12 queries each, plus the 5
#: tree-device and 18 ATM-fragment pairs: 215 pairs in all).
ZOO_SCHEMAS = 16
ZOO_QUERIES_PER_SCHEMA = 12

# zoo labels are index-namespaced: N<i>x<j> (node), r<i>x<j> (edge),
# p<i>x<k> / q<i>x<k> (query names), Zoo<i> (schema name)
_ZOO_NAME = re.compile(r"\b([Nrpq])(\d+)x(\d+)\b|\bZoo(\d+)\b")


def _relabeller(rng: random.Random, used: set, permute: bool = True) -> Callable[[str], str]:
    """A text rewriter giving one zoo schema a fresh, seed-drawn namespace.

    The namespace index is drawn from the seed.  With *permute*, node and
    edge label suffixes are permuted too, so the solver's sorted label
    orders (and hence its search order) differ from seed to seed as well;
    without it, every namespace keeps the fixed structure's label order.
    """
    while True:
        tag = rng.randrange(10_000, 1_000_000)
        if tag not in used:
            used.add(tag)
            break
    node_perm = list(range(16))
    edge_perm = list(range(16))
    if permute:
        rng.shuffle(node_perm)
        rng.shuffle(edge_perm)

    def replace(match: "re.Match[str]") -> str:
        if match.group(4) is not None:
            return f"Zoo{tag}"
        kind, suffix = match.group(1), int(match.group(3))
        if kind == "N":
            suffix = node_perm[suffix]
        elif kind == "r":
            suffix = edge_perm[suffix]
        return f"{kind}{tag}x{suffix}"

    return lambda text: _ZOO_NAME.sub(replace, text)


def _relabel_pairs(
    pairs: List[Tuple[Any, Any, Any]], rng: random.Random
) -> List[Tuple[Any, Any, Any]]:
    """Rename every property-corpus schema (and its queries) via the DSL text."""
    used: set = set()
    rewritten: Dict[int, Tuple[Callable[[str], str], Any]] = {}
    out = []
    for left, right, schema in pairs:
        entry = rewritten.get(id(schema))
        if entry is None:
            rewrite = _relabeller(rng, used)
            entry = (rewrite, parse_schema(rewrite(schema_to_text(schema))))
            rewritten[id(schema)] = entry
        rewrite, new_schema = entry
        out.append(
            (parse_c2rpq(rewrite(str(left))), parse_c2rpq(rewrite(str(right))), new_schema)
        )
    return out


def zoo_pairs(seed: int) -> List[Tuple[str, Any, Any, Any]]:
    """The zoo corpus for *seed*: ``(family, left, right, schema)`` tuples.

    The property pairs are the fixed ``ZOO_SEED`` structure renamed by the
    seed; the tree-device and ATM-fragment families are the fixed
    adversarial suites.  Pairs are dealt round-robin over their schemas,
    so any run of consecutive pairs spans many schemas (and the process
    backend's schema-sharded pool has work for every worker), and the
    order is the same structure under every seed.
    """
    rng = random.Random(seed)
    corpus = zoo_corpus(
        ZOO_SEED, schemas=ZOO_SCHEMAS, queries_per_schema=ZOO_QUERIES_PER_SCHEMA
    )
    tagged = [
        ("property", *pair) for pair in _relabel_pairs(corpus.pop("property"), rng)
    ]
    for family, pairs in corpus.items():
        tagged.extend((family, *pair) for pair in pairs)
    groups: Dict[int, List[Tuple[str, Any, Any, Any]]] = {}
    for pair in tagged:
        groups.setdefault(id(pair[3]), []).append(pair)
    queues = list(groups.values())
    dealt = []
    for position in range(max(len(queue) for queue in queues)):
        dealt.extend(queue[position] for queue in queues if position < len(queue))
    return dealt


# --------------------------------------------------------------------------- #
# analysis catalogue
# --------------------------------------------------------------------------- #
#: A migration whose Antigen rule only covers exhibited antigens, so a
#: design-target node may be left without a label: elicitation must fail.
_UNLABELLED_MIGRATION = """
transformation Tunlabelled {
  Vaccine(fV(x))              <- (Vaccine)(x);
  Antigen(fA(x))              <- (Antigen . exhibits-)(x, y);
  designTarget(fV(x), fA(y))  <- (designTarget)(x, y);
}
"""

CHAIN_LENGTHS = (2, 4, 8, 12)


def analysis_catalogue() -> List[Tuple[str, str, Callable[[], tuple]]]:
    """The analysis jobs as ``(job id, procedure, argument factory)``.

    The catalogue is fixed and so is its order: the seed does not change
    it.  (Shuffling the families by seed moved the median job's time by
    28% between seeds: jobs of 10-50 ms absorb garbage-collection passes
    whose timing follows the order.)  Jobs of one family share a schema
    and run back to back.  Procedures are
    ``type_check`` ``(transformation, source, target)``,
    ``check_equivalence`` ``(left, right, schema)`` and ``elicit_schema``
    ``(transformation, source)``.
    """
    from repro.transform.parser import parse_transformation
    from repro.workloads import fhir, medical, social, synthetic

    families: Dict[str, List[Tuple[str, str, Callable[[], tuple]]]] = {
        "medical": [
            ("medical/type_check", "type_check",
             lambda: (medical.migration(), medical.source_schema(), medical.target_schema())),
            ("medical/type_check_broken", "type_check",
             lambda: (medical.broken_migration(), medical.source_schema(),
                      medical.target_schema())),
            ("medical/equivalence_redundant", "check_equivalence",
             lambda: (medical.migration(), medical.redundant_migration(),
                      medical.source_schema())),
            ("medical/equivalence_broken", "check_equivalence",
             lambda: (medical.migration(), medical.broken_migration(),
                      medical.source_schema())),
            ("medical/elicit", "elicit_schema",
             lambda: (medical.migration(), medical.source_schema())),
            ("medical/elicit_unlabelled", "elicit_schema",
             lambda: (parse_transformation(_UNLABELLED_MIGRATION), medical.source_schema())),
        ],
        "fhir": [
            ("fhir/type_check", "type_check",
             lambda: (fhir.migration_v3_to_v4(), fhir.schema_v3(), fhir.schema_v4())),
            ("fhir/type_check_broken", "type_check",
             lambda: (fhir.broken_migration_v3_to_v4(), fhir.schema_v3(), fhir.schema_v4())),
            ("fhir/elicit", "elicit_schema",
             lambda: (fhir.migration_v3_to_v4(), fhir.schema_v3())),
        ],
        "social": [
            ("social/type_check", "type_check",
             lambda: (social.reification(), social.schema_v1(), social.schema_v2())),
            ("social/type_check_broken", "type_check",
             lambda: (social.broken_reification(), social.schema_v1(), social.schema_v2())),
            ("social/equivalence_broken", "check_equivalence",
             lambda: (social.reification(), social.broken_reification(), social.schema_v1())),
            ("social/elicit", "elicit_schema",
             lambda: (social.reification(), social.schema_v1())),
        ],
    }
    for n in CHAIN_LENGTHS:
        families[f"chain-{n}"] = [
            (f"chain-{n}/type_check", "type_check",
             lambda n=n: (synthetic.chain_copy_transformation(n), synthetic.chain_schema(n),
                          synthetic.chain_schema(n))),
            (f"chain-{n}/equivalence", "check_equivalence",
             lambda n=n: (synthetic.chain_copy_transformation(n),
                          synthetic.chain_copy_transformation(n), synthetic.chain_schema(n))),
            (f"chain-{n}/elicit", "elicit_schema",
             lambda n=n: (synthetic.chain_collapse_transformation(n),
                          synthetic.chain_schema(n))),
        ]
    return [job for jobs in families.values() for job in jobs]


# --------------------------------------------------------------------------- #
# service trace
# --------------------------------------------------------------------------- #
#: Lines of the generated service trace.
SERVICE_TRACE_LINES = 3400
#: Trace lines sent at the base rate before anything is measured.
SERVICE_WARMUP_REQUESTS = 200
#: The trace lines after the warm-up that form the measured segment: the
#: cold tail's first heavy solves fall in them.
SERVICE_SEGMENT_REQUESTS = 400
#: Measured copies of the segment, each with fresh labels (plus one
#: unmeasured copy that ends the warm-up).
SERVICE_COPIES = 8
#: Requests in the measured base-rate phase (p99 has 32 samples above it).
SERVICE_BASE_REQUESTS = SERVICE_SEGMENT_REQUESTS * SERVICE_COPIES
#: Base request rate of the service trace, requests per second.
SERVICE_BASE_RATE = 200.0
#: The rate ladder above the base rate, and how long each rung lasts.
SERVICE_LADDER = (400.0, 800.0)
SERVICE_RUNG_SECONDS = 1.0
#: First trace line the rungs send.
SERVICE_RUNG_START = 2200


def service_phases() -> List[Tuple[float, int, int]]:
    """``(rate, first line, end line)`` of the warm-up, the base phase and
    every rung.  The warm-up (not measured) fills the hot tenants' working
    set and runs the segment once, costs a long-running service pays once."""
    warmup = SERVICE_WARMUP_REQUESTS + SERVICE_SEGMENT_REQUESTS
    phases = [
        (SERVICE_BASE_RATE, 0, warmup),
        (SERVICE_BASE_RATE, warmup, warmup + SERVICE_BASE_REQUESTS),
    ]
    cursor = warmup + SERVICE_BASE_REQUESTS
    for rate in SERVICE_LADDER:
        count = int(rate * SERVICE_RUNG_SECONDS)
        phases.append((rate, cursor, cursor + count))
        cursor += count
    return phases


def service_trace(seed: int) -> List[Dict[str, Any]]:
    """The service trace: one ``{tenant, offset, payload}`` per request.

    Built from :func:`repro.workloads.replay.generate_trace`: 8 hot tenants
    share an 8-payload working set and 2 cold tenants repeat a recent
    payload half the time, so about one request in ten is a fresh
    fingerprint, drawn from the built-in workloads and a zoo slice.  As
    for the zoo workloads, the trace's structure is the fixed ``ZOO_SEED``
    one and the seed renames every zoo label, so each seed sends fresh
    fingerprints at the same cost.

    Sent in order: the warm-up lines, the segment (unmeasured), then
    ``SERVICE_COPIES`` copies of the segment, then the rung lines from
    ``SERVICE_RUNG_START`` on.  Each copy renames every zoo schema the
    warm-up lines did not send into a fresh namespace, so its cold tail
    misses every cache again while the hot tenants stay warm.  Label
    suffixes keep the fixed structure's order: the tail rests on a few
    solves, whose cost moved by up to a fifth with a permuted order.
    """
    trace = generate_trace(
        SERVICE_TRACE_LINES,
        seed=ZOO_SEED,
        tenants=10,
        hot_tenants=8,
        hot_corpus_size=8,
        repeat_fraction=0.5,
        length=4,
        zoo_schemas=40,
        zoo_queries_per_schema=6,
    )
    requests = trace.requests
    warmup = requests[:SERVICE_WARMUP_REQUESTS]
    segment = requests[SERVICE_WARMUP_REQUESTS:SERVICE_WARMUP_REQUESTS + SERVICE_SEGMENT_REQUESTS]
    hot = {line.payload.get("schema") for line in warmup}
    rng = random.Random(seed)
    used: set = set()
    names: Dict[str, Callable[[str], str]] = {}
    lines: List[Dict[str, Any]] = []

    def send(chunk, fresh: Dict[str, Callable[[str], str]]) -> None:
        # offsets continue from the last line sent, one mean gap later
        start = lines[-1]["offset"] + 0.005 if lines else 0.0
        for line in chunk:
            payload = dict(line.payload)
            text = payload.get("schema", "")
            if text.startswith("schema Zoo"):
                table = names if text in hot else fresh
                rewrite = table.get(text)
                if rewrite is None:
                    rewrite = table[text] = _relabeller(rng, used, permute=False)
                payload = {field: rewrite(value) for field, value in payload.items()}
            offset = start + line.offset - chunk[0].offset
            lines.append({"tenant": line.tenant, "offset": offset, "payload": payload})

    send(warmup, names)
    send(segment, names)
    for _copy in range(SERVICE_COPIES):
        send(segment, {})
    send(requests[SERVICE_RUNG_START:], names)
    return lines[: service_phases()[-1][2]]
