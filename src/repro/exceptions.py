"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised by the public API derive from :class:`ReproError`, so a
caller can catch a single base class.  More specific subclasses exist for the
main subsystems (graphs, schemas, queries, transformations, analysis) so that
tests and downstream tooling can react precisely.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the library."""


class GraphError(ReproError):
    """Raised when a graph is constructed or manipulated inconsistently."""


class SchemaError(ReproError):
    """Raised when a schema definition is malformed."""


class QueryError(ReproError):
    """Raised when a regular path query or C2RPQ is malformed."""


class AcyclicityError(QueryError):
    """Raised when an acyclic C2RPQ is required but the query is cyclic."""


class ParseError(ReproError):
    """Raised by the textual DSL parsers (schemas, queries, rules)."""

    def __init__(self, message: str, position: int | None = None, text: str | None = None):
        super().__init__(message)
        self.position = position
        self.text = text


class TransformationError(ReproError):
    """Raised when a transformation or one of its rules is malformed."""


class ConstructorError(TransformationError):
    """Raised when node constructors violate the paper's assumptions
    (one constructor per label, injectivity, disjoint ranges)."""


class AnalysisError(ReproError):
    """Raised when a static-analysis task cannot be carried out."""


class ElicitationError(AnalysisError):
    """Raised when schema elicitation fails, e.g. because some output node
    may lack a label (Section 4 of the paper)."""


class TBoxError(ReproError):
    """Raised when a description-logic TBox is malformed."""


class SolverError(ReproError):
    """Raised when the satisfiability / containment solver is misused."""


class BudgetExceeded(SolverError):
    """Raised when a solver exceeds its configured resource budget."""

    def __init__(self, message: str, budget=None):
        super().__init__(message)
        self.budget = budget
