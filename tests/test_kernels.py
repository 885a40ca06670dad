"""Tests for the bitset NFA kernels (:mod:`repro.core.kernels`).

Two layers of coverage:

* direct edge cases of :func:`bitset_closure`;
* kernel ↔ dict-walk equivalence: hypothesis-driven random regexes and the
  seeded zoo corpus generator, asserting word-for-word identical pumped
  enumerations between the kernel path the public API routes through and
  the historical dict-walk reference kept verbatim.
"""

import random

import hypothesis.strategies as st
from hypothesis import HealthCheck, example, given, settings

from repro.core.kernels import bitset_closure
from repro.rpq.automaton import build_nfa
from repro.rpq.parser import parse_regex
from repro.workloads.zoo import random_regex

MAX_LENGTH = 6
MAX_STATE_REPEATS = 2
MAX_WORDS = 200


def test_bitset_closure_reflexive_transitive():
    closure = bitset_closure(4, [(0, 1), (1, 2)])
    assert closure[0] == 0b0111
    assert closure[1] == 0b0110
    assert closure[2] == 0b0100
    assert closure[3] == 0b1000


# --------------------------------------------------------------------------- #
# kernel ↔ dict-walk equivalence (hypothesis + zoo corpus)
# --------------------------------------------------------------------------- #
def assert_kernel_matches_dictwalk(regex) -> None:
    """The kernel enumeration equals its dict-walk reference for *regex*."""
    nfa = build_nfa(regex)
    kernel_words = tuple(
        nfa.enumerate_words(
            max_length=MAX_LENGTH, max_state_repeats=MAX_STATE_REPEATS, max_words=MAX_WORDS
        )
    )
    reference_words = tuple(
        nfa._enumerate_words_dictwalk(MAX_LENGTH, MAX_STATE_REPEATS, MAX_WORDS)
    )
    assert kernel_words == reference_words
    for word in kernel_words:
        assert nfa.accepts(word)

    # emptiness against the bounded enumeration holds one way each: an empty
    # language has no words, and any word proves the language non-empty.  The
    # converse of either fails when every word is longer than MAX_LENGTH.
    if nfa.is_empty_language():
        assert kernel_words == ()
    if kernel_words:
        assert not nfa.is_empty_language()


@st.composite
def zoo_regexes(draw):
    """Seeded zoo-generator regexes, sized like the workload corpus."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    depth = draw(st.integers(min_value=1, max_value=3))
    rng = random.Random(seed)
    return random_regex(rng, ("a", "b", "c"), depth=depth)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(zoo_regexes())
# a single 8-symbol word: non-empty, but no word fits within MAX_LENGTH
@example(parse_regex("b . a . b . c . a . c . b . c"))
def test_nfa_kernel_equals_dictwalk_over_zoo_regexes(regex):
    assert_kernel_matches_dictwalk(regex)


def test_nfa_kernel_equals_dictwalk_over_fixed_corpus():
    for spec in (
        "a*",
        "(a + b)* . c",
        "(a + a . a)*",
        "b- . (a + c)* . b",
        "(a . (b + c))* . d?",
        "<empty> . a",
    ):
        assert_kernel_matches_dictwalk(parse_regex(spec))
