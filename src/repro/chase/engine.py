"""The Horn-ALCIF chase over finite witness patterns.

Given a Horn-ALCIF TBox ``T`` and a finite *pattern* — a labeled graph whose
node labels are concept names, typically obtained by materialising witnessing
words of a C2RPQ — the chase decides whether the pattern can be extended
(homomorphically) to a possibly infinite model of ``T``.  The procedure is
the canonical-model construction for Horn description logics:

1. *saturation*: close node label sets under ``K ⊑ A``; propagate
   ``K ⊑ ∀R.K'`` along existing edges; detect violations of ``K ⊑ ⊥`` and
   ``K ⊑ ¬∃R.K'`` (these can never be repaired, because labels only grow and
   edges are never removed);
2. *functionality*: when ``K ⊑ ∃≤1R.K'`` applies and two pattern successors
   match, merge them (without the unique-name assumption, merging is the
   canonical repair);
3. *forced reuse*: when ``K ⊑ ∃R.K'`` applies, no pattern successor matches
   and a functionality constraint forbids creating a fresh successor because
   an existing one already occupies the functional slot, the requirement is
   absorbed by that successor (this is the propagation that makes the
   cycle-reversal argument of Example 5.5 go through);
4. *tree-extendability*: all remaining existential requirements are
   discharged by attaching fresh trees, checked coinductively by
   :class:`repro.chase.tree.TreeChecker`; labels that the trees force back
   onto pattern nodes are added and the saturation is re-run.

The chase is deterministic (Horn) and terminates because label sets only grow
within a finite lattice and merges only decrease the number of nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from ..dl.tbox import TBox
from ..exceptions import SolverError
from ..graph.graph import Graph, NodeId
from .labelsets import TBoxIndex
from .tree import TreeChecker

__all__ = ["ChaseResult", "ChaseEngine"]


@dataclass
class ChaseResult:
    """Outcome of chasing one pattern."""

    consistent: bool
    reason: str
    pattern: Optional[Graph] = None
    assignment: Dict[str, NodeId] = field(default_factory=dict)
    merges: int = 0
    iterations: int = 0

    def __bool__(self) -> bool:
        return self.consistent


class ChaseEngine:
    """Chases finite patterns modulo a fixed Horn-ALCIF TBox.

    The TBox is given either as is (and indexed here) or as a ready
    :class:`TBoxIndex`, such as an overlay of an index that is already built.
    """

    def __init__(self, tbox: Union[TBox, TBoxIndex], max_rounds: int = 100_000) -> None:
        index = tbox if isinstance(tbox, TBoxIndex) else TBoxIndex(tbox)
        if not index.horn:
            raise SolverError("the chase engine only accepts Horn TBoxes")
        self.index = index
        self.tree = TreeChecker(self.index)
        self.max_rounds = max_rounds

    # ------------------------------------------------------------------ #
    def check_pattern(
        self,
        pattern: Graph,
        assignment: Optional[Dict[str, NodeId]] = None,
    ) -> ChaseResult:
        """Chase *pattern* and report whether it extends to a model of the TBox.

        *assignment* optionally maps query variables to pattern nodes; the
        returned result carries the assignment transported through merges.
        """
        graph = pattern.copy()
        variable_map: Dict[str, NodeId] = dict(assignment or {})
        merges = 0
        iterations = 0

        while True:
            iterations += 1
            if iterations > self.max_rounds:  # pragma: no cover - safety net
                raise SolverError("chase did not converge within the configured bound")

            verdict = self._saturate(graph, variable_map)
            if verdict is not None:
                return ChaseResult(False, verdict, None, variable_map, merges, iterations)
            merge_happened, verdict = self._apply_functionality(graph, variable_map)
            merges += merge_happened
            if verdict is not None:
                return ChaseResult(False, verdict, None, variable_map, merges, iterations)
            if merge_happened:
                continue
            absorbed, verdict = self._absorb_forced_requirements(graph)
            if verdict is not None:
                return ChaseResult(False, verdict, None, variable_map, merges, iterations)
            if absorbed:
                continue
            grew, verdict = self._check_tree_requirements(graph)
            if verdict is not None:
                return ChaseResult(False, verdict, None, variable_map, merges, iterations)
            if grew:
                continue
            return ChaseResult(True, "pattern extends to a model", graph, variable_map, merges, iterations)

    # ------------------------------------------------------------------ #
    # phase 1: saturation and unrepairable violations
    # ------------------------------------------------------------------ #
    def _saturate(self, graph: Graph, variable_map: Dict[str, NodeId]) -> Optional[str]:
        index = self.index
        changed = True
        while changed:
            changed = False
            for node in list(graph.nodes()):
                closed = index.close(graph.labels(node))
                for label in closed - graph.labels(node):
                    graph.add_label(node, label)
                    changed = True
                if index.violates_bottom(closed):
                    return f"node {node!r} violates a ⊥-statement (labels {sorted(closed)})"
            # ∀-propagation along existing edges
            for node in list(graph.nodes()):
                labels = graph.labels(node)
                for role in index.forall_by_role:
                    forced = index.forall_targets(labels, role)
                    if not forced:
                        continue
                    for successor in graph.successors(node, role):
                        missing = forced - graph.labels(successor)
                        if missing:
                            for label in missing:
                                graph.add_label(successor, label)
                            changed = True
        # ¬∃ violations are final
        for node in graph.nodes():
            labels = graph.labels(node)
            for role in index.no_exists_by_role:
                for successor in graph.successors(node, role):
                    conflict = index.no_exists_conflicts(labels, role, graph.labels(successor))
                    if conflict is not None:
                        return (
                            f"edge {node!r} -{role}-> {successor!r} violates {conflict}"
                        )
        return None

    # ------------------------------------------------------------------ #
    # phase 2: functionality merging
    # ------------------------------------------------------------------ #
    def _apply_functionality(
        self, graph: Graph, variable_map: Dict[str, NodeId]
    ) -> Tuple[int, Optional[str]]:
        index = self.index
        merges = 0
        restart = True
        while restart:
            restart = False
            for node in list(graph.nodes()):
                labels = graph.labels(node)
                for role in index.at_most_by_role:
                    for statement in index.applicable_at_most(labels, role):
                        matching = [
                            successor
                            for successor in graph.successors(node, role)
                            if statement.head <= graph.labels(successor)
                        ]
                        if len(matching) >= 2:
                            matching.sort(key=repr)
                            keep, rest = matching[0], matching[1:]
                            for drop in rest:
                                if keep == drop:
                                    continue
                                graph.merge_nodes(keep, drop)
                                for variable, target in variable_map.items():
                                    if target == drop:
                                        variable_map[variable] = keep
                                merges += 1
                            restart = True
                            break
                    if restart:
                        break
                if restart:
                    break
        return merges, None

    # ------------------------------------------------------------------ #
    # phase 3: forced reuse of existing successors
    # ------------------------------------------------------------------ #
    def _absorb_forced_requirements(self, graph: Graph) -> Tuple[bool, Optional[str]]:
        index = self.index
        changed = False
        for node in list(graph.nodes()):
            labels = graph.labels(node)
            for statement in index.required_successors(labels):
                role, head = statement.role, statement.head
                successors = graph.successors(node, role)
                if any(head <= graph.labels(successor) for successor in successors):
                    continue  # witnessed inside the pattern
                child_seed = index.child_seed(labels, role, head)
                conflict = index.no_exists_conflicts(labels, role, child_seed)
                if conflict is not None:
                    return changed, (
                        f"requirement {statement} at node {node!r} cannot be witnessed: "
                        f"any witness would violate {conflict}"
                    )
                # functionality blocking: an existing successor occupies the slot
                for at_most in index.applicable_at_most(labels, role):
                    if not at_most.head <= child_seed:
                        continue
                    witnesses = [
                        successor
                        for successor in successors
                        if at_most.head <= graph.labels(successor)
                    ]
                    if witnesses:
                        absorber = sorted(witnesses, key=repr)[0]
                        missing = head - graph.labels(absorber)
                        if missing:
                            for label in missing:
                                graph.add_label(absorber, label)
                            changed = True
                        break
        return changed, None

    # ------------------------------------------------------------------ #
    # phase 4: tree-extendability of the remaining requirements
    # ------------------------------------------------------------------ #
    def _check_tree_requirements(self, graph: Graph) -> Tuple[bool, Optional[str]]:
        index = self.index
        grew = False
        for node in list(graph.nodes()):
            labels = graph.labels(node)
            pending: Dict = {}
            for statement in index.required_successors(labels):
                role, head = statement.role, statement.head
                if any(
                    head <= graph.labels(successor)
                    for successor in graph.successors(node, role)
                ):
                    continue
                pending.setdefault(role, []).append(head)
            for role, heads in sorted(pending.items(), key=lambda item: str(item[0])):
                seeds = [index.child_seed(labels, role, head) for head in heads]
                seeds = self.tree._merge_functional_seeds(labels, role, seeds)
                for seed in seeds:
                    outcome = self.tree.check(seed, role.inverse(), labels)
                    if not outcome.ok:
                        return grew, (
                            f"node {node!r} cannot satisfy ∃{role} requirements "
                            f"(labels {sorted(labels)}): no witnessing tree exists"
                        )
                    missing = outcome.parent_needs - graph.labels(node)
                    if missing:
                        for label in missing:
                            graph.add_label(node, label)
                        grew = True
            if grew:
                return True, None
        return grew, None

    # ------------------------------------------------------------------ #
    def label_set_is_satisfiable(self, labels) -> bool:
        """``True`` when a single node with the given labels extends to a model.

        This is the building block of CI entailment (Corollary E.7): the
        triple/label-set satisfiability tests reduce to chasing tiny patterns.
        """
        graph = Graph()
        graph.add_node("n0", labels)
        return self.check_pattern(graph).consistent
