"""Benchmark harness for the compiled automaton core.

Four measurements, each returning a JSON-able report block (shared by
``benchmarks/bench_automaton_compile.py`` and ``python -m repro bench
--suite automata``):

* :func:`compile_benchmark` — cold versus memoized regex → automaton
  compilation (NFA + cycle/emptiness flags + pumped word list) over a
  deterministic, pumped-enumeration-heavy corpus;
* :func:`enumeration_benchmark` — re-running the NFA's pumped-normal-form
  enumeration on every request versus reusing the compiled automaton's
  memoized word tuple;
* :func:`kernel_benchmark` — the historical dict-walk NFA enumeration (kept
  verbatim as the reference) against the bitset kernel the public API
  routes through, with word-for-word equality checked in-harness before any
  clock starts — a regression names the kernel, not a downstream verdict;
* :func:`prefix_sharing_benchmark` — the Theorem 6.1 witness enumeration on
  a sparse-witness instance (every pattern refuted, first atoms refute
  early) with and without :class:`repro.core.PrefixPruner`, asserting the
  verdict, regime and pattern counter are bit-identical.

All corpora are fixed literals — no randomness, no environment probing — so
two runs on one machine measure the same work.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from ..chase.solver import SatisfiabilityConfig, SatisfiabilitySolver
from ..dl import NoExistsCI, TBox, conj
from ..graph import forward
from ..rpq.automaton import build_nfa
from ..rpq.parser import parse_c2rpq, parse_regex
from .compile import clear_compile_memo, compile_regex

__all__ = [
    "compile_benchmark",
    "enumeration_benchmark",
    "kernel_benchmark",
    "prefix_sharing_benchmark",
    "regex_corpus",
    "run_report",
]

# Pumped-enumeration-heavy expressions in the style of Figure 4 / Example 6.2
# (sparse-witness instances): stars under concatenation, overlapping union
# branches (which make the NFA enumerate duplicate words) and inverse steps.
CORPUS_SPECS: Tuple[str, ...] = (
    "a . b . c+ . d . a",
    "a*",
    "a* . b . d . a*",
    "(a + b)* . c",
    "(a . b)+ + a . b . a . b",
    "(a + a . a)*",
    "b- . (a + c)* . b",
    "(a . (b + c))* . d?",
    "A . (a . b-)*",
    "(a + b + c)* . d . (a + b)*",
)

# word-enumeration bounds shared by every timing below (comparable numbers)
MAX_LENGTH = 10
MAX_STATE_REPEATS = 2
MAX_WORDS = 400


def regex_corpus():
    """The fixed benchmark corpus, parsed fresh on every call."""
    return tuple(parse_regex(spec) for spec in CORPUS_SPECS)


def _force_compile(regex) -> None:
    """Compile *regex* and force every lazily derived artefact."""
    automaton = compile_regex(regex)
    automaton.has_productive_cycle()
    automaton.is_empty()
    automaton.words(MAX_LENGTH, MAX_STATE_REPEATS, MAX_WORDS)


def compile_benchmark(repeats: int = 5) -> Dict[str, Any]:
    """Cold versus memoized compilation over the corpus.

    A cold round clears the process-wide compile memo first, so every regex
    pays for NFA construction, the flags and the pumped enumeration; a memoized round replays the same requests against
    the warm memo.
    """
    repeats = max(1, repeats)
    cold_seconds = []
    warm_seconds = []
    for _ in range(repeats):
        corpus = regex_corpus()  # fresh ASTs: no cached hashes/tokens either
        clear_compile_memo()
        started = time.perf_counter()
        for regex in corpus:
            _force_compile(regex)
        cold_seconds.append(time.perf_counter() - started)

        started = time.perf_counter()
        for regex in corpus:
            _force_compile(regex)
        warm_seconds.append(time.perf_counter() - started)

    cold = min(cold_seconds)
    warm = min(warm_seconds)
    return {
        "regexes": len(CORPUS_SPECS),
        "repeats": repeats,
        "cold_seconds": cold,
        "memoized_seconds": warm,
        "speedup": (cold / warm) if warm else float("inf"),
    }


def enumeration_benchmark(requests: int = 50) -> Dict[str, Any]:
    """Per-request NFA enumeration versus the memoized word tuple.

    The pre-core solvers re-ran ``NFA.enumerate_words`` for every roll-up
    choice, disjunct and batch request touching the same atom; the compiled
    automaton hands back one shared tuple instead.
    """
    requests = max(1, requests)
    corpus = regex_corpus()
    nfas = [build_nfa(regex) for regex in corpus]

    started = time.perf_counter()
    for _ in range(requests):
        for nfa in nfas:
            tuple(
                nfa.enumerate_words(
                    max_length=MAX_LENGTH,
                    max_state_repeats=MAX_STATE_REPEATS,
                    max_words=MAX_WORDS,
                )
            )
    uncached = time.perf_counter() - started

    clear_compile_memo()
    automata = [compile_regex(regex) for regex in corpus]
    for automaton in automata:
        automaton.words(MAX_LENGTH, MAX_STATE_REPEATS, MAX_WORDS)  # warm once
    started = time.perf_counter()
    for _ in range(requests):
        for automaton in automata:
            automaton.words(MAX_LENGTH, MAX_STATE_REPEATS, MAX_WORDS)
    memoized = time.perf_counter() - started

    return {
        "requests_per_regex": requests,
        "uncached_seconds": uncached,
        "memoized_seconds": memoized,
        "speedup": (uncached / memoized) if memoized else float("inf"),
        "nfa_states": sum(automaton.nfa.state_count() for automaton in automata),
    }


def _kernel_row(dictwalk_seconds: float, kernel_seconds: float, words: int) -> Dict[str, Any]:
    """One report row comparing the historical dict walk with the kernel."""
    return {
        "dictwalk_seconds": dictwalk_seconds,
        "kernel_seconds": kernel_seconds,
        "words": words,
        "dictwalk_microseconds_per_word": (dictwalk_seconds / words * 1e6) if words else None,
        "kernel_microseconds_per_word": (kernel_seconds / words * 1e6) if words else None,
        "speedup": (dictwalk_seconds / kernel_seconds) if kernel_seconds else float("inf"),
    }


def kernel_benchmark(requests: int = 50) -> Dict[str, Any]:
    """Dict-walk versus bitset NFA enumeration timings, equality-checked.

    The row times the *same* operation twice in the warm-object regime the
    solvers actually run in (automata compiled once, then queried per
    request — the regime of ``enumeration_benchmark``'s uncached row): the
    historical dict-walk implementation, kept verbatim as the reference, and
    the kernel path the public API now routes through.  Before any clock
    starts, every word list is checked element-for-element against the
    reference — a mismatch raises :class:`RuntimeError` (a real exception,
    not ``assert``: the check must survive ``python -O``), so a regression
    names the kernel instead of showing up as a wrong verdict three layers
    up.

    ``nfa_enumeration`` is the pumped-normal-form search of Theorem 6.1 (the
    dominant uncached cost: byte-lane visit counters and presorted int
    adjacency versus dict frontiers); the ≥5x acceptance gate covers it.
    """
    requests = max(1, requests)
    corpus = regex_corpus()
    clear_compile_memo()
    nfas = [compile_regex(regex).nfa for regex in corpus]

    # --- equality first, clocks second ---------------------------------- #
    nfa_words = 0
    for nfa in nfas:
        reference = tuple(
            nfa._enumerate_words_dictwalk(MAX_LENGTH, MAX_STATE_REPEATS, MAX_WORDS)
        )
        kernel = tuple(
            nfa.enumerate_words(
                max_length=MAX_LENGTH,
                max_state_repeats=MAX_STATE_REPEATS,
                max_words=MAX_WORDS,
            )
        )
        if kernel != reference:
            raise RuntimeError(
                f"NFA kernel enumeration diverged from the dict walk for {nfa!r}: "
                f"{len(kernel)} kernel words vs {len(reference)} reference words"
            )
        nfa_words += len(reference)

    # best-of-*rounds* timing (like compile_benchmark): per-request ratios
    # on a sub-millisecond workload are noisy, minima are stable
    rounds = 3

    def best_of(body) -> float:
        best = float("inf")
        for _ in range(rounds):
            started = time.perf_counter()
            for _ in range(requests):
                body()
            elapsed = time.perf_counter() - started
            if elapsed < best:
                best = elapsed
        return best

    def dictwalk_round() -> None:
        for nfa in nfas:
            tuple(nfa._enumerate_words_dictwalk(MAX_LENGTH, MAX_STATE_REPEATS, MAX_WORDS))

    def kernel_round() -> None:
        for nfa in nfas:
            tuple(
                nfa.enumerate_words(
                    max_length=MAX_LENGTH,
                    max_state_repeats=MAX_STATE_REPEATS,
                    max_words=MAX_WORDS,
                )
            )

    dictwalk = best_of(dictwalk_round)
    kernel = best_of(kernel_round)
    return {
        "requests_per_regex": requests,
        "nfa_enumeration": _kernel_row(dictwalk, kernel, nfa_words * requests),
    }


def _sparse_witness_instance() -> Tuple[TBox, Any, SatisfiabilityConfig]:
    """An unsatisfiable sparse-witness instance where prefixes refute early.

    The TBox forbids any outgoing ``r`` edge from an ``A``-labeled node, the
    query's leading atoms force exactly that edge, and the trailing atoms
    contribute large pumped word lists — so every one of the (up to)
    ``max_patterns`` enumerated patterns is inconsistent, and the
    inconsistency is already visible on the two-atom prefix the pruner
    chases once per word.
    """
    tbox = TBox([NoExistsCI(conj("A"), forward("r"), conj())])
    query = parse_c2rpq(
        "q() := A(x), (r . (s + t)*)(x, y), ((s + t)* . u?)(y, z)"
    ).boolean()
    config = SatisfiabilityConfig(
        max_word_length=8,
        max_state_repeats=2,
        max_words_per_atom=40,
        max_patterns=5_000,
    )
    return tbox, query, config


def prefix_sharing_benchmark() -> Dict[str, Any]:
    """The witness enumeration with and without prefix sharing.

    Raises :class:`RuntimeError` if sharing changes the verdict, the regime
    or the pattern counter — the pruning must be observationally invisible
    apart from time.  (A real exception, not ``assert``: the check must
    survive ``python -O`` and CLI runs.)
    """
    tbox, query, config = _sparse_witness_instance()

    independent_config = SatisfiabilityConfig(
        max_word_length=config.max_word_length,
        max_state_repeats=config.max_state_repeats,
        max_words_per_atom=config.max_words_per_atom,
        max_patterns=config.max_patterns,
        share_prefixes=False,
    )
    started = time.perf_counter()
    independent = SatisfiabilitySolver(tbox, independent_config).is_satisfiable(query)
    independent_seconds = time.perf_counter() - started

    started = time.perf_counter()
    shared = SatisfiabilitySolver(tbox, config).is_satisfiable(query)
    shared_seconds = time.perf_counter() - started

    if (
        shared.satisfiable != independent.satisfiable
        or shared.regime != independent.regime
        or shared.patterns_checked != independent.patterns_checked
    ):
        raise RuntimeError(
            "prefix sharing changed the observable outcome: "
            f"shared=({shared.satisfiable}, {shared.regime}, {shared.patterns_checked}) "
            f"independent=({independent.satisfiable}, {independent.regime}, "
            f"{independent.patterns_checked})"
        )
    return {
        "satisfiable": shared.satisfiable,
        "regime": shared.regime,
        "patterns_checked": shared.patterns_checked,
        "independent_seconds": independent_seconds,
        "shared_seconds": shared_seconds,
        "speedup": (independent_seconds / shared_seconds) if shared_seconds else float("inf"),
    }


def run_report(repeats: int = 5, requests: int = 50) -> Dict[str, Any]:
    """The full automata-suite report for ``python -m repro bench --suite automata``."""
    return {
        "suite": "automata",
        "compile": compile_benchmark(repeats=repeats),
        "enumeration": enumeration_benchmark(requests=requests),
        "kernels": kernel_benchmark(requests=requests),
        "prefix_sharing": prefix_sharing_benchmark(),
    }


def summary(report: Dict[str, Any]) -> str:
    """A human-readable per-measurement summary of :func:`run_report`'s output."""
    compile_block = report["compile"]
    enumeration = report["enumeration"]
    nfa = report["kernels"]["nfa_enumeration"]
    sharing = report["prefix_sharing"]
    lines: List[str] = [
        (
            f"compile: {compile_block['regexes']} regexes — cold "
            f"{compile_block['cold_seconds'] * 1000:.2f} ms, memoized "
            f"{compile_block['memoized_seconds'] * 1000:.2f} ms "
            f"({compile_block['speedup']:.1f}x)"
        ),
        (
            f"enumeration: uncached {enumeration['uncached_seconds'] * 1000:.1f} ms, "
            f"memoized {enumeration['memoized_seconds'] * 1000:.1f} ms "
            f"({enumeration['speedup']:.1f}x) over {enumeration['nfa_states']} NFA states"
        ),
        (
            f"kernels: nfa enumeration {nfa['dictwalk_microseconds_per_word']:.2f} -> "
            f"{nfa['kernel_microseconds_per_word']:.2f} us/word ({nfa['speedup']:.1f}x)"
        ),
        (
            f"prefix sharing: {sharing['patterns_checked']} patterns — independent "
            f"{sharing['independent_seconds'] * 1000:.1f} ms, shared "
            f"{sharing['shared_seconds'] * 1000:.1f} ms ({sharing['speedup']:.1f}x)"
        ),
    ]
    return "\n".join(lines)
