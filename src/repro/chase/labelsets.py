"""Closed label sets for the Horn-ALCIF chase.

Because the TBoxes produced by the paper's reductions are Horn, the set of
concept names that a node must carry is obtained by *closing* a seed set
under the statements ``K ⊑ A``.  This module provides that closure, the
⊥-check and an index over a TBox that the chase engine and the
tree-extendability check share, plus cheap *overlays* of that index for
TBoxes that extend it by a few ⊥- and ∀-statements (the fresh-marker axioms
of the Corollary E.7 entailment checks).
"""

from __future__ import annotations

import copy
from typing import Dict, Iterable, List, Optional

from ..dl.concepts import (
    AtMostOneCI,
    ConceptInclusion,
    ConceptNames,
    ExistsCI,
    ForAllCI,
    NoExistsCI,
    SubclassOf,
    SubclassOfBottom,
)
from ..dl.tbox import TBox
from ..exceptions import TBoxError
from ..graph.labels import SignedLabel

__all__ = ["TBoxIndex"]


class TBoxIndex:
    """A view of a Horn TBox grouped by statement kind, with a closure cache.

    The index is the single object shared by the pattern chase and the
    tree-extendability procedure; it also memoises closures of label sets,
    which dominates the running time on larger inputs.
    """

    def __init__(self, tbox: TBox) -> None:
        self.tbox = tbox
        self.horn = tbox.is_horn()
        self.subclass: List[SubclassOf] = list(tbox.subclass_statements())
        self.bottoms: List[SubclassOfBottom] = list(tbox.bottom_statements())
        self.forall: List[ForAllCI] = list(tbox.forall_statements())
        self.exists: List[ExistsCI] = list(tbox.exists_statements())
        self.no_exists: List[NoExistsCI] = list(tbox.no_exists_statements())
        self.at_most: List[AtMostOneCI] = list(tbox.at_most_statements())
        self._closure_cache: Dict[ConceptNames, ConceptNames] = {}
        # group role-guarded statements by role for quick lookup
        self.forall_by_role: Dict[SignedLabel, List[ForAllCI]] = {}
        for statement in self.forall:
            self.forall_by_role.setdefault(statement.role, []).append(statement)
        self.no_exists_by_role: Dict[SignedLabel, List[NoExistsCI]] = {}
        for statement in self.no_exists:
            self.no_exists_by_role.setdefault(statement.role, []).append(statement)
        self.at_most_by_role: Dict[SignedLabel, List[AtMostOneCI]] = {}
        for statement in self.at_most:
            self.at_most_by_role.setdefault(statement.role, []).append(statement)
        self.exists_by_role: Dict[SignedLabel, List[ExistsCI]] = {}
        for statement in self.exists:
            self.exists_by_role.setdefault(statement.role, []).append(statement)

    def overlay(self, statements: Iterable[ConceptInclusion]) -> "TBoxIndex":
        """An index of ``T ∪ statements`` that does not re-index ``T``.

        The overlay shares this index's statement lists, by-role groups and
        closure cache; it copies only the ⊥ list, the ∀ list and the ∀ group
        of each role an added ∀-statement guards, so this index is left
        unchanged.  Only ⊥- and ∀-statements may be added: neither kind
        takes part in closing a label set under ``K ⊑ A``, so every closure
        is the same modulo ``T`` and modulo the overlay, which is what makes
        sharing the cache sound.  Any other kind raises :class:`TBoxError`.
        ``overlay.tbox`` is still ``T``.
        """
        view = copy.copy(self)
        view.bottoms = list(self.bottoms)
        view.forall = list(self.forall)
        view.forall_by_role = dict(self.forall_by_role)
        for statement in statements:
            if isinstance(statement, SubclassOfBottom):
                view.bottoms.append(statement)
            elif isinstance(statement, ForAllCI):
                view.forall.append(statement)
                view.forall_by_role[statement.role] = [
                    *view.forall_by_role.get(statement.role, ()),
                    statement,
                ]
            else:
                raise TBoxError(
                    f"an index overlay holds only ⊥- and ∀-statements, not {statement}"
                )
        return view

    # ------------------------------------------------------------------ #
    def close(self, labels: Iterable[str]) -> ConceptNames:
        """Close a label set under the statements ``K ⊑ A``."""
        seed = frozenset(labels)
        cached = self._closure_cache.get(seed)
        if cached is not None:
            return cached
        current = set(seed)
        changed = True
        while changed:
            changed = False
            for statement in self.subclass:
                if statement.head not in current and statement.body <= current:
                    current.add(statement.head)
                    changed = True
        result = frozenset(current)
        self._closure_cache[seed] = result
        return result

    def violates_bottom(self, labels: ConceptNames) -> bool:
        """``True`` when a closed label set triggers some ``K ⊑ ⊥``."""
        return any(statement.body <= labels for statement in self.bottoms)

    def forall_targets(self, labels: ConceptNames, role: SignedLabel) -> ConceptNames:
        """Labels forced onto every *role*-successor of a node with *labels*."""
        forced: set = set()
        for statement in self.forall_by_role.get(role, ()):
            if statement.body <= labels:
                forced |= statement.head
        return frozenset(forced)

    def no_exists_conflicts(
        self, labels: ConceptNames, role: SignedLabel, successor_labels: ConceptNames
    ) -> Optional[NoExistsCI]:
        """A ``K ⊑ ¬∃R.K'`` statement violated by the given successor, if any."""
        for statement in self.no_exists_by_role.get(role, ()):
            if statement.body <= labels and statement.head <= successor_labels:
                return statement
        return None

    def applicable_at_most(
        self, labels: ConceptNames, role: SignedLabel
    ) -> List[AtMostOneCI]:
        """The at-most constraints whose body is satisfied by *labels*."""
        return [s for s in self.at_most_by_role.get(role, ()) if s.body <= labels]

    def required_successors(self, labels: ConceptNames) -> List[ExistsCI]:
        """The ∃-statements triggered by *labels*."""
        return [s for s in self.exists if s.body <= labels]

    def child_seed(self, labels: ConceptNames, role: SignedLabel, head: ConceptNames) -> ConceptNames:
        """The (closed) minimal label set of a fresh *role*-successor created to
        witness ``labels ⊑ ∃role.head``: the head plus everything forced by the
        ∀-statements of the parent."""
        return self.close(head | self.forall_targets(labels, role))

    def statistics(self) -> Dict[str, int]:
        """Counts per statement kind (used by benchmarks and diagnostics)."""
        return {
            "subclass": len(self.subclass),
            "bottom": len(self.bottoms),
            "forall": len(self.forall),
            "exists": len(self.exists),
            "no_exists": len(self.no_exists),
            "at_most": len(self.at_most),
        }
