"""Compiled automaton core benchmark: cold vs memoized compilation.

Four claims are checked (harness in :mod:`repro.core.benchmarks`, the same
code behind ``python -m repro bench --suite automata``):

1. **compile memoization** — replaying the corpus against the warm
   :func:`repro.core.compile_regex` memo is **≥ 2× faster** than cold
   compilation (NFA + cycle/emptiness flags + pumped enumeration);
2. **enumeration memoization** — serving the pumped word list from the
   compiled automaton's tuple is **≥ 2× faster** than re-running
   ``NFA.enumerate_words`` per request;
3. **NFA kernel** — the uncached per-word cost of the NFA's pumped search
   (the dominant Theorem 6.1 cost) is **≥ 5×** lower than the historical
   dict-walk implementation, word lists checked identical inside the
   harness;
4. **prefix sharing** — on a sparse-witness instance (every pattern refuted,
   the refutation visible on a two-atom prefix) the
   :class:`repro.core.PrefixPruner` enumeration is **≥ 2× faster** than
   chasing every combination independently, with verdict, regime and
   pattern counter asserted bit-identical inside the harness.

The gate figures are acceptance thresholds below the typical measurement
(see the printed report lines).
"""

from repro.core import benchmarks

GATE_SPEEDUP = 2.0
GATE_NFA_KERNEL_SPEEDUP = 5.0


def test_compile_memoization_speedup():
    report = benchmarks.compile_benchmark()
    print(
        f"\ncompile: cold {report['cold_seconds'] * 1000:.2f} ms, "
        f"memoized {report['memoized_seconds'] * 1000:.2f} ms "
        f"({report['speedup']:.1f}x over {report['regexes']} regexes)"
    )
    assert report["speedup"] >= GATE_SPEEDUP, (
        f"memoized compilation speedup {report['speedup']:.2f}x < required {GATE_SPEEDUP}x"
    )


def test_enumeration_memoization_speedup():
    report = benchmarks.enumeration_benchmark()
    print(
        f"\nenumeration: uncached {report['uncached_seconds'] * 1000:.1f} ms, "
        f"memoized {report['memoized_seconds'] * 1000:.1f} ms ({report['speedup']:.1f}x)"
    )
    assert report["speedup"] >= GATE_SPEEDUP, (
        f"memoized enumeration speedup {report['speedup']:.2f}x < required {GATE_SPEEDUP}x"
    )


def test_kernel_speedups():
    # the harness itself asserts word-for-word enumeration identity before
    # any clock starts
    report = benchmarks.kernel_benchmark()
    nfa = report["nfa_enumeration"]
    print(
        f"\nkernels: nfa {nfa['dictwalk_microseconds_per_word']:.2f} -> "
        f"{nfa['kernel_microseconds_per_word']:.2f} us/word ({nfa['speedup']:.1f}x)"
    )
    assert nfa["speedup"] >= GATE_NFA_KERNEL_SPEEDUP, (
        f"NFA enumeration kernel speedup {nfa['speedup']:.2f}x "
        f"< required {GATE_NFA_KERNEL_SPEEDUP}x"
    )


def test_prefix_sharing_speedup():
    # the harness itself asserts verdict/regime/pattern-counter identity
    report = benchmarks.prefix_sharing_benchmark()
    print(
        f"\nprefix sharing: {report['patterns_checked']} patterns — independent "
        f"{report['independent_seconds'] * 1000:.1f} ms, shared "
        f"{report['shared_seconds'] * 1000:.1f} ms ({report['speedup']:.1f}x)"
    )
    assert not report["satisfiable"] and report["regime"] in ("exact", "pumped")
    assert report["speedup"] >= GATE_SPEEDUP, (
        f"prefix-sharing speedup {report['speedup']:.2f}x < required {GATE_SPEEDUP}x"
    )
