"""Spans recorded from outside the program, around its layers' entry points.

:func:`install` replaces entry points of the program with timing wrappers,
in the namespaces that call them (the solver imports its stage functions by
name, so those are patched in ``repro.containment.solver``; the completion
imports the entailment checks by name, so those are patched in
``repro.containment.cycle_reversal``).  Nothing under ``src/`` changes.

Each wrapped call records one span ``(name, start, end, parent)`` in
memory; the parent is the innermost open span on the same thread.  A
span's *self time* is its duration minus the durations of its direct
children.  :func:`layer_metrics` turns the spans into the per-layer
metrics, attributing a chase call made inside an entailment check to the
entailment, not to stage 5.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Tracer", "install", "layer_metrics"]


class Tracer:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.outcomes: List[Any] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            index = len(self.names)
            self.names.append(name)
            self.starts.append(time.perf_counter())
            self.ends.append(0.0)
            self.parents.append(stack[-1] if stack else -1)
            self.outcomes.append(None)
        stack.append(index)
        return index

    def close(self, index: int, outcome: Any = None) -> None:
        self.ends[index] = time.perf_counter()
        self.outcomes[index] = outcome
        self._stack().pop()

    def wrap(self, name: str, function: Callable, outcome: Optional[Callable] = None) -> Callable:
        """*function* recording a *name* span per call.

        *outcome* maps the return value to what the span keeps (for ratios
        such as "entailment held" or "pattern consistent").
        """

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = self.open(name)
            value = None
            try:
                value = function(*args, **kwargs)
                return value
            finally:
                self.close(index, outcome(value) if outcome is not None and value is not None else None)

        return traced

    def span(self, name: str) -> "_SpanContext":
        """A ``with`` block recorded as one span (the harness's own roots)."""
        return _SpanContext(self, name)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self) -> "_SpanContext":
        self.index = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer.close(self.index)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the program (once per interpreter)."""
    import repro.analysis.elicitation as elicitation_module
    import repro.analysis.equivalence as equivalence_module
    import repro.analysis.typecheck as typecheck_module
    import repro.containment.cycle_reversal as cycle_reversal
    import repro.containment.solver as solver_module
    from repro.chase.engine import ChaseEngine
    from repro.core.compile import CompiledAutomaton
    from repro.engine.engine import ContainmentEngine
    from repro.engine.parallel import WorkerPool
    from repro.service.service import ContainmentService

    wrap = tracer.wrap
    for attribute, name in (
        ("booleanize", "containment.booleanize"),
        ("schema_to_extended_tbox", "dl.schema_tbox"),
        ("roll_up_choices", "containment.roll_up"),
        ("complete", "containment.completion"),
        ("compile_regex", "core.compile"),
    ):
        setattr(solver_module, attribute, wrap(name, getattr(solver_module, attribute)))
    for attribute in ("entails_exists", "entails_at_most"):
        setattr(
            cycle_reversal,
            attribute,
            wrap("containment.entailment", getattr(cycle_reversal, attribute), outcome=bool),
        )
    ChaseEngine.__init__ = wrap("chase.index", ChaseEngine.__init__)
    ChaseEngine.check_pattern = wrap(
        "chase.pattern", ChaseEngine.check_pattern, outcome=lambda result: result.consistent
    )
    CompiledAutomaton.words = wrap("core.words", CompiledAutomaton.words)
    # the cache-missing solve under the engine's keyed lookup
    solver_module.ContainmentSolver.contains = wrap(
        "containment.solve", solver_module.ContainmentSolver.contains
    )
    ContainmentEngine.check_many = wrap("engine.check_many", ContainmentEngine.check_many)
    WorkerPool.check_many = wrap("parallel.pool", WorkerPool.check_many)
    ContainmentService.submit = wrap("service.submit", ContainmentService.submit)
    for module in (typecheck_module, elicitation_module, equivalence_module):
        module.trim = wrap("analysis.trim", module.trim)

    engine_solver = ContainmentEngine.solver

    @functools.wraps(engine_solver)
    def solver(self, schema, config=None):
        bound = engine_solver(self, schema, config)
        # every containment call of the engine, of check_many's local path
        # and of the analysis procedures goes through a solver from here;
        # the instance attribute also catches the solver's own self.contains
        bound.contains = wrap("engine.contains", bound.contains)
        return bound

    ContainmentEngine.solver = solver


# --------------------------------------------------------------------------- #
# aggregation
# --------------------------------------------------------------------------- #
def layer_metrics(tracer: Tracer, roots: str = "bench.") -> Dict[str, float]:
    """Per-layer totals from the recorded spans.

    Returns, per span name, ``<name>.total_s`` (inclusive), ``<name>.self_s``
    and ``<name>.calls``; stage-5 chase calls (``chase.pattern`` spans with
    no ``containment.entailment`` ancestor) are split out as
    ``chase.stage5.*`` with their consistent count, entailment checks get
    their held count, childless ``engine.contains`` spans (result-cache
    replays) get ``engine.replay.*``, and ``trace.root_s`` /
    ``trace.root_self_s`` sum the harness's own root spans (names starting
    with *roots*) and the part of them no program span covers.
    """
    count = len(tracer.names)
    child_time = [0.0] * count
    has_child = [False] * count
    for index in range(count):
        parent = tracer.parents[index]
        if parent >= 0:
            child_time[parent] += tracer.ends[index] - tracer.starts[index]
            has_child[parent] = True
    under_entailment = [False] * count
    for index in range(count):  # parents precede children in recording order
        parent = tracer.parents[index]
        if parent >= 0:
            under_entailment[index] = (
                under_entailment[parent] or tracer.names[parent] == "containment.entailment"
            )
    totals: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    for index in range(count):
        name = tracer.names[index]
        duration = tracer.ends[index] - tracer.starts[index]
        self_time = duration - child_time[index]
        outcome = tracer.outcomes[index]
        add(f"{name}.total_s", duration)
        add(f"{name}.self_s", self_time)
        add(f"{name}.calls", 1)
        if name == "chase.pattern" and not under_entailment[index]:
            add("chase.stage5.total_s", duration)
            add("chase.stage5.calls", 1)
            add("chase.stage5.consistent", 1 if outcome else 0)
        elif name == "containment.entailment":
            add("containment.entailment.held", 1 if outcome else 0)
        elif name == "engine.contains" and not has_child[index]:
            add("engine.replay.total_s", duration)
            add("engine.replay.calls", 1)
        if name.startswith(roots):
            add("trace.root_s", duration)
            add("trace.root_self_s", self_time)
    return totals
