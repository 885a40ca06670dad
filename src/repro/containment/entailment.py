"""Unrestricted entailment of concept inclusions modulo Horn-ALCIF TBoxes.

Corollary E.7 of the paper reduces entailment of the two kinds of concept
inclusions needed by the cycle-reversing procedure to (un)satisfiability of
tiny C2RPQs modulo a slightly extended TBox.  Because those queries are
star-free, their witness patterns are unique and the chase decides the
resulting satisfiability questions exactly; entailment checking is therefore
exact in this implementation.

The two checks take the :class:`~repro.chase.labelsets.TBoxIndex` of ``T``
rather than ``T`` itself: the completion asks thousands of them per round
against one unchanging TBox, so ``T`` is indexed once and each check chases
over an overlay of that index that adds only its fresh-marker axioms.
"""

from __future__ import annotations

from typing import Iterable

from ..chase.engine import ChaseEngine
from ..chase.labelsets import TBoxIndex
from ..dl.concepts import ForAllCI, SubclassOfBottom, conj
from ..dl.tbox import TBox
from ..graph.graph import Graph
from ..graph.labels import SignedLabel

__all__ = ["entails_exists", "entails_at_most", "label_set_satisfiable", "triple_satisfiable"]

_FRESH_B = "__entail_B"
_FRESH_B_PRIME = "__entail_B2"
_MARKERS_DISJOINT = SubclassOfBottom(conj(_FRESH_B, _FRESH_B_PRIME))


def label_set_satisfiable(tbox: TBox, labels: Iterable[str]) -> bool:
    """``True`` when some (possibly infinite) model of *tbox* has a node whose
    label set includes *labels*."""
    engine = ChaseEngine(tbox)
    return engine.label_set_is_satisfiable(frozenset(labels))


def triple_satisfiable(
    tbox: TBox, body: Iterable[str], role: SignedLabel, head: Iterable[str]
) -> bool:
    """Satisfiability of the triple ``(K, R, K')`` (Section 5): some model has
    an ``R``-edge from a ``K``-node to a ``K'``-node."""
    pattern = Graph()
    pattern.add_node("u", body)
    pattern.add_node("v", head)
    if role.is_inverse:
        pattern.add_edge("v", role.label, "u")
    else:
        pattern.add_edge("u", role.label, "v")
    engine = ChaseEngine(tbox)
    return engine.check_pattern(pattern).consistent


def entails_exists(
    index: TBoxIndex, body: Iterable[str], role: SignedLabel, head: Iterable[str]
) -> bool:
    """``T ⊨ K ⊑ ∃R.K'`` via the Corollary E.7 reduction, for *index* over ``T``.

    The entailment holds iff a single node satisfying ``K`` and additionally
    marked with a fresh name ``B`` is unsatisfiable modulo
    ``T ∪ {K' ⊑ ∀R⁻.B', B ⊓ B' ⊑ ⊥}``.
    """
    body = frozenset(body)
    head = frozenset(head)
    overlay = index.overlay(
        (ForAllCI(head, role.inverse(), conj(_FRESH_B_PRIME)), _MARKERS_DISJOINT)
    )
    pattern = Graph()
    pattern.add_node("u", body | {_FRESH_B})
    return not ChaseEngine(overlay).check_pattern(pattern).consistent


def entails_at_most(
    index: TBoxIndex, body: Iterable[str], role: SignedLabel, head: Iterable[str]
) -> bool:
    """``T ⊨ K ⊑ ∃≤1R.K'`` via the Corollary E.7 reduction, for *index* over ``T``.

    The entailment holds iff the pattern consisting of a ``K``-node with two
    distinct ``R``-successors, both satisfying ``K'`` and marked with fresh
    names ``B`` and ``B'`` respectively, is unsatisfiable modulo
    ``T ∪ {B ⊓ B' ⊑ ⊥}`` (the disjointness of the markers prevents the chase
    from merging the two successors).
    """
    body = frozenset(body)
    head = frozenset(head)
    pattern = Graph()
    pattern.add_node("u", body)
    pattern.add_node("v1", head | {_FRESH_B})
    pattern.add_node("v2", head | {_FRESH_B_PRIME})
    if role.is_inverse:
        pattern.add_edge("v1", role.label, "u")
        pattern.add_edge("v2", role.label, "u")
    else:
        pattern.add_edge("u", role.label, "v1")
        pattern.add_edge("u", role.label, "v2")
    overlay = index.overlay((_MARKERS_DISJOINT,))
    return not ChaseEngine(overlay).check_pattern(pattern).consistent
