"""Horn-ALCIF TBoxes and the L0 fragment (Sections 3–5, Appendix B).

A :class:`TBox` is a finite set of concept inclusions in the normal forms of
:mod:`repro.dl.concepts`.  The class keeps the statements grouped by kind so
that the chase engine and the cycle-reversing procedure can iterate over
exactly the statements they need, and it knows the two complexity parameters
that the paper tracks: the number of concept names ``k`` and the number of
at-most constraints ``ℓ``.

The *L0 fragment* (Appendix B) restricts statements to the three forms
``A ⊑ ∃R.B``, ``A ⊑ ¬∃R.B`` and ``A ⊑ ∃≤1R.B`` with single concept names on
both sides; it is in one-to-one correspondence with schemas (see
:mod:`repro.dl.schema_tbox`).
"""

from __future__ import annotations

import hashlib
from typing import FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..exceptions import TBoxError
from ..graph.graph import Graph
from ..graph.labels import SignedLabel
from .concepts import (
    AtMostOneCI,
    ConceptInclusion,
    ConceptNames,
    DisjunctionCI,
    ExistsCI,
    ForAllCI,
    NoExistsCI,
    SubclassOf,
    SubclassOfBottom,
)

__all__ = ["TBox", "canonical_statement_token", "is_l0_statement", "is_coherent_l0"]


def canonical_statement_token(statement: ConceptInclusion) -> str:
    """A deterministic serialisation of one concept inclusion.

    Unlike ``repr`` (whose frozenset ordering depends on the per-process hash
    seed) the token sorts every conjunction, so it is stable across processes
    and suitable as cache-key material for the :mod:`repro.engine` caches.
    """
    parts = [type(statement).__name__]
    parts.append(",".join(f"{len(n)}:{n}" for n in sorted(statement.body)))  # type: ignore[attr-defined]
    role = getattr(statement, "role", None)
    if role is not None:
        text = str(role)
        parts.append(f"{len(text)}:{text}")
    head = getattr(statement, "head", None)
    if head is not None:
        if isinstance(head, frozenset):
            parts.append(",".join(f"{len(n)}:{n}" for n in sorted(head)))
        else:
            parts.append(f"{len(head)}:{head}")
    alternatives = getattr(statement, "alternatives", None)
    if alternatives is not None:
        parts.append(",".join(f"{len(n)}:{n}" for n in sorted(alternatives)))
    return "|".join(parts)


_HORN_KINDS = (
    SubclassOf,
    SubclassOfBottom,
    ForAllCI,
    ExistsCI,
    NoExistsCI,
    AtMostOneCI,
)


class TBox:
    """A set of ALCIF concept inclusions in normal form."""

    def __init__(self, statements: Iterable[ConceptInclusion] = (), name: str = "T") -> None:
        self.name = name
        self._statements: List[ConceptInclusion] = []
        self._seen: Set[ConceptInclusion] = set()
        for statement in statements:
            self.add(statement)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add(self, statement: ConceptInclusion) -> bool:
        """Add a statement; returns ``True`` when it was new."""
        if not isinstance(statement, ConceptInclusion):
            raise TBoxError(f"not a concept inclusion: {statement!r}")
        if statement in self._seen:
            return False
        self._seen.add(statement)
        self._statements.append(statement)
        return True

    def extend(self, statements: Iterable[ConceptInclusion]) -> int:
        """Add several statements; returns the number of new ones."""
        return sum(1 for statement in statements if self.add(statement))

    def discard_all(self, statements: Iterable[ConceptInclusion]) -> int:
        """Remove the given statements (absent ones are ignored); returns the
        number removed.  The remaining statements keep their order."""
        doomed = self._seen.intersection(statements)
        if doomed:
            self._statements = [s for s in self._statements if s not in doomed]
            self._seen -= doomed
        return len(doomed)

    def union(self, other: "TBox", name: Optional[str] = None) -> "TBox":
        """Union of two TBoxes."""
        result = TBox(self._statements, name=name or f"{self.name}∪{other.name}")
        result.extend(other._statements)
        return result

    def copy(self, name: Optional[str] = None) -> "TBox":
        """A shallow copy (statements are immutable)."""
        return TBox(self._statements, name=name or self.name)

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[ConceptInclusion]:
        return iter(self._statements)

    def __len__(self) -> int:
        return len(self._statements)

    def __contains__(self, statement: ConceptInclusion) -> bool:
        return statement in self._seen

    def statements(self) -> Tuple[ConceptInclusion, ...]:
        """All statements, in insertion order."""
        return tuple(self._statements)

    def of_kind(self, kind) -> Iterator[ConceptInclusion]:
        """Iterate over the statements of one normal-form kind."""
        return (s for s in self._statements if isinstance(s, kind))

    def subclass_statements(self) -> Iterator[SubclassOf]:
        """The statements ``K ⊑ A``."""
        return self.of_kind(SubclassOf)  # type: ignore[return-value]

    def bottom_statements(self) -> Iterator[SubclassOfBottom]:
        """The statements ``K ⊑ ⊥``."""
        return self.of_kind(SubclassOfBottom)  # type: ignore[return-value]

    def forall_statements(self) -> Iterator[ForAllCI]:
        """The statements ``K ⊑ ∀R.K'``."""
        return self.of_kind(ForAllCI)  # type: ignore[return-value]

    def exists_statements(self) -> Iterator[ExistsCI]:
        """The statements ``K ⊑ ∃R.K'``."""
        return self.of_kind(ExistsCI)  # type: ignore[return-value]

    def no_exists_statements(self) -> Iterator[NoExistsCI]:
        """The statements ``K ⊑ ¬∃R.K'``."""
        return self.of_kind(NoExistsCI)  # type: ignore[return-value]

    def at_most_statements(self) -> Iterator[AtMostOneCI]:
        """The statements ``K ⊑ ∃≤1R.K'``."""
        return self.of_kind(AtMostOneCI)  # type: ignore[return-value]

    def disjunction_statements(self) -> Iterator[DisjunctionCI]:
        """The non-Horn statements ``K ⊑ A₁ ⊔ … ⊔ A_n``."""
        return self.of_kind(DisjunctionCI)  # type: ignore[return-value]

    def is_horn(self) -> bool:
        """``True`` when no disjunctive statement is present."""
        return not any(True for _ in self.disjunction_statements())

    def concept_names(self) -> FrozenSet[str]:
        """All concept names mentioned (complexity parameter ``k``)."""
        names: Set[str] = set()
        for statement in self._statements:
            names |= statement.concept_names()
        return frozenset(names)

    def role_names(self) -> FrozenSet[str]:
        """All base role names mentioned."""
        names: Set[str] = set()
        for statement in self._statements:
            names |= statement.role_names()
        return frozenset(names)

    def signed_roles(self) -> FrozenSet[SignedLabel]:
        """All signed roles mentioned in ∀/∃/¬∃/≤1 statements."""
        roles: Set[SignedLabel] = set()
        for statement in self._statements:
            role = getattr(statement, "role", None)
            if role is not None:
                roles.add(role)
        return frozenset(roles)

    def at_most_count(self) -> int:
        """The complexity parameter ℓ — the number of at-most constraints."""
        return sum(1 for _ in self.at_most_statements())

    def size(self) -> int:
        """Total number of statements ``|T|``."""
        return len(self._statements)

    def canonical_token(self) -> str:
        """Order- and name-insensitive serialisation (the *set* of statements)."""
        return "tbox[" + ";".join(sorted(canonical_statement_token(s) for s in self._statements)) + "]"

    def canonical_fingerprint(self) -> str:
        """SHA-256 digest of :meth:`canonical_token` (cache-key material)."""
        return hashlib.sha256(self.canonical_token().encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------ #
    # semantics over finite graphs
    # ------------------------------------------------------------------ #
    def holds_in(self, graph: Graph) -> bool:
        """``G ⊨ T`` for a finite graph, checked statement by statement."""
        return all(statement.holds_in(graph) for statement in self._statements)

    def violated_statements(self, graph: Graph) -> List[ConceptInclusion]:
        """The statements violated by *graph* (useful for diagnostics)."""
        return [statement for statement in self._statements if not statement.holds_in(graph)]

    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """A human-readable listing of the TBox."""
        lines = [f"TBox {self.name} ({len(self)} statements)"]
        lines.extend(f"  {statement}" for statement in self._statements)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TBox({self.name!r}, {len(self)} statements)"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TBox):
            return NotImplemented
        return self._seen == other._seen

    def __hash__(self) -> int:
        return hash(frozenset(self._seen))


def is_l0_statement(statement: ConceptInclusion) -> bool:
    """``True`` for statements of the L0 fragment: single concept names on
    both sides and one of the forms ∃ / ¬∃ / ∃≤1."""
    if not isinstance(statement, (ExistsCI, NoExistsCI, AtMostOneCI)):
        return False
    return len(statement.body) == 1 and len(statement.head) == 1


def is_coherent_l0(statements: Iterable[ConceptInclusion]) -> bool:
    """Coherence of an L0 TBox (Appendix B).

    A set of L0 statements is coherent when (1) it never contains both
    ``A ⊑ ∃R.B`` and ``A ⊑ ¬∃R.B`` and (2) it contains ``A ⊑ ∃≤1R.B``
    whenever it contains ``A ⊑ ¬∃R.B``.
    """
    exists: Set[Tuple[ConceptNames, SignedLabel, ConceptNames]] = set()
    no_exists: Set[Tuple[ConceptNames, SignedLabel, ConceptNames]] = set()
    at_most: Set[Tuple[ConceptNames, SignedLabel, ConceptNames]] = set()
    for statement in statements:
        if not is_l0_statement(statement):
            raise TBoxError(f"not an L0 statement: {statement}")
        key = (statement.body, statement.role, statement.head)  # type: ignore[attr-defined]
        if isinstance(statement, ExistsCI):
            exists.add(key)
        elif isinstance(statement, NoExistsCI):
            no_exists.add(key)
        elif isinstance(statement, AtMostOneCI):
            at_most.add(key)
    if exists & no_exists:
        return False
    return no_exists <= at_most
