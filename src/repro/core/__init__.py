"""The compiled automaton core: shared compilation and the NFA kernels.

This layer sits between the regex AST (:mod:`repro.rpq.regex`) and every
automaton consumer — query evaluation, the chase solver's witness
enumeration, the containment pipeline and the caching engine (see
docs/ARCHITECTURE.md, "The compiled automaton core"):

* :class:`CompiledAutomaton` / :func:`compile_regex` — the memoized bundle
  of NFA, cycle/emptiness flags and pumped word lists per structural regex
  (:func:`clear_compile_memo` resets it for cold runs);
* :func:`has_productive_cycle` — the shared finiteness test;
* :class:`PrefixPruner` — verdict-preserving prefix sharing for the
  solvers' pattern enumeration;
* :mod:`repro.core.kernels` — the bitset ε-closure and pumped-normal-form
  enumeration kernels behind :class:`repro.rpq.automaton.NFA`.

``repro.core.benchmarks`` (imported on demand, not re-exported) holds the
automata benchmark harness behind ``python -m repro bench --suite automata``
and ``benchmarks/bench_automaton_compile.py``.
"""

from .compile import (
    CompiledAutomaton,
    clear_compile_memo,
    compile_regex,
    has_productive_cycle,
)
from .prefix import PrefixPruner

__all__ = [
    "CompiledAutomaton",
    "PrefixPruner",
    "clear_compile_memo",
    "compile_regex",
    "has_productive_cycle",
]
