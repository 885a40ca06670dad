"""Tests for the compiled automaton core (repro.core)."""

import pickle

from repro.chase import SatisfiabilityConfig, SatisfiabilitySolver
from repro.core import PrefixPruner, clear_compile_memo, compile_regex, has_productive_cycle
from repro.dl import NoExistsCI, TBox, conj
from repro.graph import forward
from repro.rpq import build_nfa, parse_c2rpq, parse_regex


# --------------------------------------------------------------------------- #
# the compile memo
# --------------------------------------------------------------------------- #
class TestCompileRegex:
    def test_structurally_equal_regexes_share_one_compilation(self):
        clear_compile_memo()
        first = compile_regex(parse_regex("a . (b + c)*"))
        second = compile_regex(parse_regex("a . (b + c)*"))
        assert first is second

    def test_clear_resets_the_memo(self):
        clear_compile_memo()
        regex = parse_regex("a+")
        first = compile_regex(regex)
        assert clear_compile_memo() >= 1
        assert compile_regex(regex) is not first

    def test_words_tuple_is_memoized_and_matches_nfa(self):
        automaton = compile_regex(parse_regex("(a + b)* . c"))
        words = automaton.words(6, 2, 100)
        assert words is automaton.words(6, 2, 100)  # same tuple object
        assert words == tuple(
            automaton.nfa.enumerate_words(max_length=6, max_state_repeats=2, max_words=100)
        )

    def test_flags(self):
        assert compile_regex(parse_regex("a*")).has_productive_cycle()
        assert not compile_regex(parse_regex("a . b")).has_productive_cycle()
        assert compile_regex(parse_regex("<empty> . a")).is_empty()
        assert not compile_regex(parse_regex("a")).is_empty()

    def test_pickle_rebuilds_through_the_memo(self):
        clear_compile_memo()
        automaton = compile_regex(parse_regex("(a + b)* . c"))
        clone = pickle.loads(pickle.dumps(automaton))
        assert clone is automaton  # same process: the memo deduplicates

    def test_has_productive_cycle_function(self):
        assert has_productive_cycle(build_nfa(parse_regex("a . b+ . c")))
        assert not has_productive_cycle(build_nfa(parse_regex("a . b . c")))


# --------------------------------------------------------------------------- #
# prefix sharing
# --------------------------------------------------------------------------- #
def _solve(query_text, tbox, share):
    config = SatisfiabilityConfig(max_words_per_atom=20, share_prefixes=share)
    solver = SatisfiabilitySolver(tbox, config)
    return solver.is_satisfiable(parse_c2rpq(query_text).boolean())


class TestPrefixSharing:
    QUERY = "q() := A(x), (r . (s + t)*)(x, y), ((s + t)*)(y, z)"
    TBOX = TBox([NoExistsCI(conj("A"), forward("r"), conj())])

    def test_verdict_regime_and_counter_are_preserved(self):
        shared = _solve(self.QUERY, self.TBOX, share=True)
        independent = _solve(self.QUERY, self.TBOX, share=False)
        assert shared.satisfiable == independent.satisfiable is False
        assert shared.regime == independent.regime
        assert shared.patterns_checked == independent.patterns_checked

    def test_satisfiable_query_unaffected(self):
        tbox = TBox()
        shared = _solve(self.QUERY, tbox, share=True)
        independent = _solve(self.QUERY, tbox, share=False)
        assert shared.satisfiable and independent.satisfiable
        assert shared.patterns_checked == independent.patterns_checked

    def test_pruner_counts_prefix_chases_and_prunes(self):
        chased = []
        word_lists = [["w1", "w2"], ["v1", "v2", "v3"]]

        def build(atoms, words):
            return tuple(words), None

        def check(prefix):
            chased.append(prefix)
            return prefix != ("w2",)  # every pattern under w2 is inconsistent

        pruner = PrefixPruner(["atom1", "atom2"], word_lists, build, check)
        assert pruner.useful
        import itertools

        pruned = [
            combo
            for combo in itertools.product(*word_lists)
            if pruner.prunes(list(combo))
        ]
        assert pruned == [("w2", "v1"), ("w2", "v2"), ("w2", "v3")]
        assert pruner.prefix_chases == 2  # each distinct prefix chased once
        assert pruner.pruned == 3

    def test_pruner_useless_for_single_combination_suffixes(self):
        pruner = PrefixPruner(["a", "b"], [["w1", "w2"], ["v1"]], None, None)
        assert not pruner.useful
