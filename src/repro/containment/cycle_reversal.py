"""Finmod cycles, cycle reversing and the completion T* (Section 5, App. D).

Finite graphs conforming to a schema can exhibit properties that infinite
graphs do not (Example 5.2: an "at least one outgoing / at most one incoming"
edge label forms disjoint cycles in every finite graph).  Cycle reversing
(Cosmadakis et al.; Ibáñez-García et al.) captures these properties: a
*finmod cycle* in a Horn-ALCIF TBox ``T`` is a sequence

    K₁, R₁, K₂, R₂, …, K_{n-1}, R_{n-1}, K_n = K₁

with ``T ⊨ Kᵢ ⊑ ∃Rᵢ.Kᵢ₊₁`` and ``T ⊨ Kᵢ₊₁ ⊑ ∃≤1Rᵢ⁻.Kᵢ``; *reversing* it adds
``Kᵢ₊₁ ⊑ ∃Rᵢ⁻.Kᵢ`` and ``Kᵢ ⊑ ∃≤1Rᵢ.Kᵢ₊₁``.  The completion ``T*`` reverses
finmod cycles exhaustively; by Theorem 5.4, finite satisfiability modulo ``T``
coincides with unrestricted satisfiability modulo ``T*``.

Implementation notes
--------------------
The paper's completion operates over *all* conjunctions of concept names,
which is purely a proof device — it is astronomically large even for toy
inputs.  This implementation restricts attention to the conjunctions that can
actually label nodes of canonical models: closures of the schema labels, of
schema labels extended with the heads of ∀-statements (the query concepts the
rolling-up propagates), of caller-provided seeds (the label sets appearing in
chased witness patterns), and of the child seeds generated from those — a
lazily grown, capped candidate family.  Entailment of the defining conditions
is checked exactly with the Corollary E.7 reductions.  Lemma D.6's S-driven
invariant is preserved: whenever a reversed cycle projects to unique schema
labels, the corresponding single-label statements are added as well, and the
S-driven simplification of Lemma D.5 keeps the number of at-most constraints
polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..chase.labelsets import TBoxIndex
from ..dl.concepts import AtMostOneCI, ConceptNames, ExistsCI
from ..dl.tbox import TBox
from ..graph.labels import SignedLabel, signed_closure
from ..schema.schema import Schema
from .entailment import entails_at_most, entails_exists

__all__ = ["CompletionResult", "CompletionConfig", "complete", "schema_has_finmod_cycle", "simplify_s_driven"]


@dataclass(frozen=True)
class CompletionConfig:
    """Resource bounds for the completion procedure."""

    max_candidates: int = 64
    max_rounds: int = 6
    max_seed_depth: int = 3


@dataclass
class CompletionResult:
    """The completion ``T*`` together with bookkeeping for benchmarks."""

    tbox: TBox
    reversed_cycles: int = 0
    added_statements: int = 0
    candidate_count: int = 0
    rounds: int = 0
    skipped: bool = False
    entailment_checks: int = 0


# --------------------------------------------------------------------------- #
# fast path: does the schema admit any finmod cycle at all?
# --------------------------------------------------------------------------- #
def schema_has_finmod_cycle(schema: Schema) -> bool:
    """``True`` when the single-label graph of the schema has a finmod cycle.

    The nodes are the schema labels; there is an ``R``-edge from ``A`` to
    ``B`` when ``δ(A,R,B)`` requires at least one successor and ``δ(B,R⁻,A)``
    allows at most one.  Because the ∃-statements of the TBoxes produced by
    the paper's reduction all come from the schema (the rolled-up query only
    contributes ∀-statements), the absence of a cycle here implies the absence
    of satisfiable finmod cycles in the combined TBox, so the completion is
    the TBox itself.
    """
    adjacency: Dict[str, Set[str]] = {label: set() for label in schema.node_labels}
    roles = list(signed_closure(sorted(schema.edge_labels)))
    for source in schema.node_labels:
        for signed in roles:
            for target in schema.node_labels:
                forward_mult = schema.multiplicity(source, signed, target)
                backward_mult = schema.multiplicity(target, signed.inverse(), source)
                if forward_mult.requires_at_least_one and backward_mult.requires_at_most_one:
                    adjacency[source].add(target)
    # detect a cycle (self-loops included) with a DFS colouring
    colour: Dict[str, int] = {}

    def dfs(node: str) -> bool:
        colour[node] = 1
        for successor in adjacency[node]:
            state = colour.get(successor, 0)
            if state == 1:
                return True
            if state == 0 and dfs(successor):
                return True
        colour[node] = 2
        return False

    return any(dfs(label) for label in schema.node_labels if colour.get(label, 0) == 0)


# --------------------------------------------------------------------------- #
# candidate conjunctions
# --------------------------------------------------------------------------- #
def _candidate_label_sets(
    index: TBoxIndex,
    schema: Schema,
    extra_seeds: Iterable[ConceptNames],
    config: CompletionConfig,
) -> List[ConceptNames]:
    candidates: List[ConceptNames] = []
    seen: Set[ConceptNames] = set()

    def push(labels: Iterable[str]) -> None:
        closed = index.close(frozenset(labels))
        if closed not in seen and len(candidates) < config.max_candidates:
            seen.add(closed)
            candidates.append(closed)

    forall_heads = [statement.head for statement in index.forall]
    for label in sorted(schema.node_labels):
        push({label})
        for head in forall_heads:
            push({label} | set(head))
    for seed in extra_seeds:
        push(seed)

    # grow by the child-seed operation (the label sets of canonical tree nodes)
    frontier = list(candidates)
    for _ in range(config.max_seed_depth):
        next_frontier: List[ConceptNames] = []
        for labels in frontier:
            for statement in index.required_successors(labels):
                child = index.child_seed(labels, statement.role, statement.head)
                if child not in seen and len(candidates) < config.max_candidates:
                    seen.add(child)
                    candidates.append(child)
                    next_frontier.append(child)
        if not next_frontier:
            break
        frontier = next_frontier
    return candidates


# --------------------------------------------------------------------------- #
# the completion
# --------------------------------------------------------------------------- #
def complete(
    tbox: TBox,
    schema: Schema,
    extra_seeds: Iterable[ConceptNames] = (),
    config: Optional[CompletionConfig] = None,
) -> CompletionResult:
    """Compute (an S-driven approximation of) the completion ``T*`` of *tbox*."""
    config = config or CompletionConfig()
    if not schema_has_finmod_cycle(schema):
        return CompletionResult(tbox.copy(name=f"{tbox.name}*"), skipped=True)

    work = tbox.copy(name=f"{tbox.name}*")
    result = CompletionResult(work)
    extra_seeds = list(extra_seeds)

    for round_index in range(config.max_rounds):
        result.rounds = round_index + 1
        index = TBoxIndex(work)
        candidates = _candidate_label_sets(index, schema, extra_seeds, config)
        result.candidate_count = len(candidates)
        roles = sorted(
            {statement.role for statement in index.exists}, key=str
        )
        # edge (K, R, K') of the finmod graph
        edges: Dict[Tuple[ConceptNames, SignedLabel], List[ConceptNames]] = {}
        edge_list: List[Tuple[ConceptNames, SignedLabel, ConceptNames]] = []
        for body in candidates:
            for role in roles:
                # cheap necessary condition: some syntactic ∃-statement applies
                if not any(statement.body <= body for statement in index.exists_by_role.get(role, ())):
                    continue
                for head in candidates:
                    # looked up in the module globals at call time, so the
                    # checks can be wrapped (timed, counted) from outside
                    result.entailment_checks += 1
                    if not entails_exists(index, body, role, head):
                        continue
                    result.entailment_checks += 1
                    if not entails_at_most(index, head, role.inverse(), body):
                        continue
                    edges.setdefault((body, role), []).append(head)
                    edge_list.append((body, role, head))

        added_this_round = 0
        for body, role, head in edge_list:
            reverse_exists = ExistsCI(head, role.inverse(), body)
            reverse_at_most = AtMostOneCI(body, role, head)
            if reverse_exists in work and reverse_at_most in work:
                continue
            if not _path_exists(edges, head, body):
                continue
            cycle = _find_cycle(edges, head, body)
            cycle = [(body, role, head)] + cycle
            result.reversed_cycles += 1
            for step_body, step_role, step_head in cycle:
                for statement in (
                    ExistsCI(step_head, step_role.inverse(), step_body),
                    AtMostOneCI(step_body, step_role, step_head),
                ):
                    if work.add(statement):
                        added_this_round += 1
                # Lemma D.6: project the cycle onto unique schema labels
                body_schema = step_body & schema.node_labels
                head_schema = step_head & schema.node_labels
                if len(body_schema) == 1 and len(head_schema) == 1:
                    for statement in (
                        ExistsCI(frozenset(head_schema), step_role.inverse(), frozenset(body_schema)),
                        AtMostOneCI(frozenset(body_schema), step_role, frozenset(head_schema)),
                    ):
                        if work.add(statement):
                            added_this_round += 1
        result.added_statements += added_this_round
        if not added_this_round:
            break
    simplify_s_driven(work, schema)
    result.tbox = work
    return result


def _path_exists(
    edges: Dict[Tuple[ConceptNames, SignedLabel], List[ConceptNames]],
    start: ConceptNames,
    goal: ConceptNames,
) -> bool:
    return _find_cycle(edges, start, goal) is not None if start != goal else True


def _find_cycle(
    edges: Dict[Tuple[ConceptNames, SignedLabel], List[ConceptNames]],
    start: ConceptNames,
    goal: ConceptNames,
) -> Optional[List[Tuple[ConceptNames, SignedLabel, ConceptNames]]]:
    """A path from *start* to *goal* in the finmod graph (empty when equal)."""
    if start == goal:
        return []
    parents: Dict[ConceptNames, Tuple[ConceptNames, SignedLabel]] = {}
    visited = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop(0)
        for (body, role), heads in edges.items():
            if body != current:
                continue
            for head in heads:
                if head in visited:
                    continue
                visited.add(head)
                parents[head] = (current, role)
                if head == goal:
                    path: List[Tuple[ConceptNames, SignedLabel, ConceptNames]] = []
                    node = goal
                    while node != start:
                        previous, via = parents[node]
                        path.append((previous, via, node))
                        node = previous
                    path.reverse()
                    return path
                frontier.append(head)
    return None


# --------------------------------------------------------------------------- #
# S-driven simplification (Lemma 5.7 / D.5)
# --------------------------------------------------------------------------- #
def simplify_s_driven(tbox: TBox, schema: Schema) -> TBox:
    """Drop composite at-most constraints subsumed by single-label ones.

    Lemma D.5: in an S-driven TBox every relevant composite at-most constraint
    ``K ⊑ ∃≤1R.K'`` is implied by some ``A ⊑ ∃≤1R.A'`` with ``A ∈ K``,
    ``A' ∈ K'``; removing the composite one keeps the TBox equivalent and
    bounds the number of at-most constraints by ``|Σ±|·|Γ|²``.
    """
    singles = {
        (next(iter(statement.body)), statement.role, next(iter(statement.head)))
        for statement in tbox.at_most_statements()
        if len(statement.body) == 1 and len(statement.head) == 1
    }
    removable = []
    for statement in tbox.at_most_statements():
        if len(statement.body) == 1 and len(statement.head) == 1:
            continue
        body_labels = statement.body & schema.node_labels
        head_labels = statement.head & schema.node_labels
        if any(
            (body_label, statement.role, head_label) in singles
            for body_label in body_labels
            for head_label in head_labels
        ):
            removable.append(statement)
    tbox.discard_all(removable)
    return tbox
