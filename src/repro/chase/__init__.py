"""Horn-ALCIF chase: pattern consistency and C2RPQ satisfiability modulo TBoxes.

Re-exports:

* :class:`TBoxIndex` — statements indexed by kind and role, with the label
  closure operation every chase phase consults, and copy-free overlays
  that add ⊥- and ∀-statements to an index already built;
* :class:`TreeChecker` / :class:`TreeOutcome` — coinductive
  tree-extendability of deferred existential requirements (Appendix E);
* :class:`ChaseEngine` / :class:`ChaseResult` — the four-phase chase over
  finite witness patterns;
* :class:`SatisfiabilitySolver` / :func:`is_satisfiable` with
  :class:`SatisfiabilityConfig` / :class:`SatisfiabilityResult` — witness
  enumeration in pumped normal form (Theorem 6.1) and its resource bounds;
* :func:`build_pattern` — materialise one witnessing word per atom as a
  labeled pattern graph.
"""

from .labelsets import TBoxIndex
from .tree import TreeChecker, TreeOutcome
from .engine import ChaseEngine, ChaseResult
from .solver import (
    SatisfiabilityConfig,
    SatisfiabilityResult,
    SatisfiabilitySolver,
    build_pattern,
    is_satisfiable,
)

__all__ = [
    "TBoxIndex",
    "TreeChecker",
    "TreeOutcome",
    "ChaseEngine",
    "ChaseResult",
    "SatisfiabilityConfig",
    "SatisfiabilityResult",
    "SatisfiabilitySolver",
    "build_pattern",
    "is_satisfiable",
]
