"""Rolling up acyclic Boolean UC2RPQs into Horn-ALCIF TBoxes (Lemma C.2).

For an acyclic Boolean UC2RPQ ``Q`` the construction produces a Horn TBox
``T_¬Q`` over an extended set of concept names such that a graph ``G`` (not
using the fresh names) satisfies ``T_¬Q`` — i.e. admits a valuation of the
fresh names making all statements true — iff ``G ⊭ Q``.

Construction (per connected component of each disjunct):

* the component is a tree; a leaf variable is chosen as the *root*;
* every atom is oriented away from the root towards the leaves?  No — towards
  the root: an atom connecting a variable ``y`` to its tree parent ``x`` is
  read as a regular expression from ``y`` to ``x`` (reversing it if needed);
* each atom ``α`` gets the states of a linear-size NFA ``A_α`` as fresh
  concept names plus one acceptance marker ``acc_α``;
* the TBox simulates the automata (rules ``q ⊑ ∀R.q'`` and ``q ⊓ A ⊑ q'``),
  starts them at nodes where the whole subtree below already matched
  (``⊓ acc_β ⊓ (trivial labels) ⊑ q₀``) and forbids acceptance at the root
  (``acc_root ⊓ (trivial labels at the root) ⊑ ⊥``).

In the minimal valuation the fresh concepts mark exactly the partial matches
of the query, so the ⊥-rule fires iff the query has a match — which is the
statement of Lemma C.2.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Set, Tuple

from ..core import compile_regex
from ..dl.concepts import ForAllCI, SubclassOf, SubclassOfBottom, conj
from ..dl.tbox import TBox
from ..exceptions import AcyclicityError, QueryError
from ..rpq.queries import Atom, C2RPQ, UC2RPQ, Variable
from ..rpq.regex import EdgeStep, NodeTest

__all__ = ["RollingUp", "roll_up", "roll_up_choices"]


class RollingUp:
    """The result of rolling up a query: the TBox and the fresh concept names."""

    def __init__(self, tbox: TBox, fresh_concepts: Set[str]) -> None:
        self.tbox = tbox
        self.fresh_concepts = frozenset(fresh_concepts)


class _NameSource:
    """Generates globally unique fresh concept names for states and markers."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.counter = itertools.count()

    def state(self, atom_index: int, state: int) -> str:
        return f"{self.prefix}#st{atom_index}_{state}"

    def accept(self, atom_index: int) -> str:
        return f"{self.prefix}#acc{atom_index}"


def roll_up(query: UC2RPQ, prefix: str = "Q") -> RollingUp:
    """Compute ``T_¬Q`` for an acyclic Boolean UC2RPQ whose disjuncts are
    connected (Lemma C.2).

    For a *disconnected* disjunct ``C₁ ∧ C₂``, the negation ``¬C₁ ∨ ¬C₂`` is a
    disjunction and cannot be captured by a single Horn TBox; use
    :func:`roll_up_choices`, which enumerates one TBox per choice of the
    component to refute (the containment solver does).  This function keeps
    the simple behaviour for the common connected case and takes the union of
    the component TBoxes otherwise (which refutes *every* component and is
    therefore only an under-approximation of ¬Q).
    """
    if not query.is_boolean():
        raise QueryError("rolling up requires a Boolean query; apply booleanization first")
    tbox = TBox(name=f"T_¬{query.name}")
    fresh: Set[str] = set()
    for disjunct_index, disjunct in enumerate(query.disjuncts):
        if not disjunct.is_acyclic():
            raise AcyclicityError(
                f"disjunct {disjunct.name} is not acyclic; rolling up is inapplicable"
            )
        for component_index, component in enumerate(disjunct.connected_components()):
            names = _NameSource(f"{prefix}{disjunct_index}c{component_index}")
            statements, component_fresh = _roll_up_component(component, names)
            tbox.extend(statements)
            fresh |= component_fresh
    return RollingUp(tbox, fresh)


def roll_up_choices(query: UC2RPQ, prefix: str = "Q", max_choices: int = 256) -> List[RollingUp]:
    """All Horn TBoxes ``T_¬Q^σ`` obtained by choosing, for every disjunct,
    one connected component to refute.

    A graph satisfies ``¬Q`` iff it satisfies at least one of the returned
    TBoxes, so the containment solver declares ``P ⊆_S Q`` exactly when the
    left query is unsatisfiable modulo *every* choice.  Disjuncts are almost
    always connected, in which case there is exactly one choice and the
    result coincides with :func:`roll_up`.
    """
    if not query.is_boolean():
        raise QueryError("rolling up requires a Boolean query; apply booleanization first")
    per_disjunct: List[List[Tuple[List, Set[str]]]] = []
    for disjunct_index, disjunct in enumerate(query.disjuncts):
        if not disjunct.is_acyclic():
            raise AcyclicityError(
                f"disjunct {disjunct.name} is not acyclic; rolling up is inapplicable"
            )
        component_boxes = []
        for component_index, component in enumerate(disjunct.connected_components()):
            names = _NameSource(f"{prefix}{disjunct_index}c{component_index}")
            component_boxes.append(_roll_up_component(component, names))
        if not component_boxes:
            # a disjunct with no atoms and no variables matches every graph;
            # it can never be refuted, so no choice exists at all
            component_boxes.append(None)  # type: ignore[arg-type]
        per_disjunct.append(component_boxes)

    if any(choices == [None] for choices in per_disjunct):
        return []

    results: List[RollingUp] = []
    for combination in itertools.product(*per_disjunct):
        if len(results) >= max_choices:
            break
        tbox = TBox(name=f"T_¬{query.name}")
        fresh: Set[str] = set()
        for statements, component_fresh in combination:
            tbox.extend(statements)
            fresh |= component_fresh
        results.append(RollingUp(tbox, fresh))
    return results


# --------------------------------------------------------------------------- #
def _roll_up_component(component: C2RPQ, names: _NameSource) -> Tuple[List, Set[str]]:
    """Roll up one connected acyclic Boolean C2RPQ component."""
    trivial: Dict[Variable, Set[str]] = {}
    unsatisfiable = False
    tree_atoms: List[Atom] = []
    for atom in component.atoms:
        if atom.is_trivial():
            if isinstance(atom.regex, NodeTest):
                trivial.setdefault(atom.source, set()).add(atom.regex.label)
            elif atom.regex.is_empty_language():
                unsatisfiable = True
            # ε(x,x) imposes nothing
            continue
        tree_atoms.append(atom)

    if unsatisfiable:
        # the component can never match, so ¬component holds unconditionally
        return [], set()

    variables = sorted(component.variables()) or ["__root"]
    if not tree_atoms:
        # only trivial atoms: the component matches iff some node carries all
        # the required labels of some variable carrying labels; forbid that.
        statements = []
        for variable in variables:
            labels = trivial.get(variable, set())
            statements.append(SubclassOfBottom(conj(labels)))
        return statements, set()

    # choose a leaf variable of the multigraph as the root
    incidence: Dict[Variable, List[Atom]] = {v: [] for v in variables}
    for atom in tree_atoms:
        incidence[atom.source].append(atom)
        if atom.target != atom.source:
            incidence[atom.target].append(atom)
    root = min(
        (v for v in variables if incidence[v]),
        key=lambda v: (len(incidence[v]), v),
    )

    # orient the tree away from the root via BFS; children[x] lists (atom, child)
    children: Dict[Variable, List[Tuple[Atom, Variable]]] = {v: [] for v in variables}
    parent: Dict[Variable, Optional[Variable]] = {root: None}
    order: List[Variable] = [root]
    queue = [root]
    while queue:
        current = queue.pop(0)
        for atom in incidence[current]:
            other = atom.target if atom.source == current else atom.source
            if other in parent:
                continue
            parent[other] = current
            children[current].append((atom, other))
            order.append(other)
            queue.append(other)

    statements: List = []
    fresh: Set[str] = set()
    accept_marker: Dict[int, str] = {}

    # process atoms bottom-up: for the atom connecting child y to parent x we
    # need the acceptance markers of y's own child atoms first
    atom_index_of: Dict[Tuple[Variable, Variable], int] = {}
    indexed_atoms: List[Tuple[int, Atom, Variable, Variable]] = []
    counter = itertools.count()
    for x in order:
        for atom, y in children[x]:
            index = next(counter)
            atom_index_of[(x, y)] = index
            indexed_atoms.append((index, atom, x, y))

    def start_body(variable: Variable) -> frozenset:
        markers = {accept_marker[atom_index_of[(variable, child)]] for _, child in children[variable]}
        return conj(markers, trivial.get(variable, set()))

    # bottom-up order: reverse BFS order guarantees children are processed first
    for x in reversed(order):
        for atom, y in children[x]:
            index = atom_index_of[(x, y)]
            # regex read from the child y towards the parent x
            if atom.source == y and atom.target == x:
                regex = atom.regex
            else:
                regex = atom.regex.reverse()
            # the memoized compilation returns build_nfa(regex) verbatim, so
            # the state numbering — and with it the fresh concept names the
            # simulation mints below — is exactly the pre-core one
            automaton = compile_regex(regex)
            nfa = automaton.nfa
            accept = names.accept(index)
            accept_marker[index] = accept
            fresh.add(accept)
            state_name = {state: names.state(index, state) for state in nfa.states}
            fresh |= set(state_name.values())
            body = start_body(y)
            for initial in nfa.initial:
                statements.append(SubclassOf(body, state_name[initial]))
            for source, symbol, target in nfa.transitions():
                if isinstance(symbol, EdgeStep):
                    statements.append(
                        ForAllCI(conj(state_name[source]), symbol.signed, conj(state_name[target]))
                    )
                elif isinstance(symbol, NodeTest):
                    statements.append(
                        SubclassOf(conj(state_name[source], symbol.label), state_name[target])
                    )
            for final in nfa.final:
                statements.append(SubclassOf(conj(state_name[final]), accept))
            if automaton.is_empty():
                # the atom can never be witnessed: the component never matches
                return [], fresh

    root_markers = {accept_marker[atom_index_of[(root, child)]] for _, child in children[root]}
    statements.append(SubclassOfBottom(conj(root_markers, trivial.get(root, set()))))
    return statements, fresh
