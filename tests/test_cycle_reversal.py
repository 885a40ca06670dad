"""Tests for CI entailment (Corollary E.7) and cycle reversing (Section 5)."""

import pytest

import repro.containment.cycle_reversal as cycle_reversal
from repro.chase import ChaseEngine, TBoxIndex
from repro.containment import (
    complete,
    entails_at_most,
    entails_exists,
    label_set_satisfiable,
    schema_has_finmod_cycle,
    simplify_s_driven,
    triple_satisfiable,
)
from repro.containment.cycle_reversal import CompletionConfig, _candidate_label_sets
from repro.containment.entailment import _FRESH_B, _FRESH_B_PRIME
from repro.containment.rolling_up import roll_up_choices
from repro.containment.solver import ContainmentSolver, _as_union
from repro.dl import (
    AtMostOneCI,
    ExistsCI,
    ForAllCI,
    SubclassOfBottom,
    TBox,
    conj,
    schema_to_extended_tbox,
)
from repro.graph import Graph, forward, inverse
from repro.schema import Schema
from repro.workloads import medical, synthetic
from repro.workloads.zoo import zoo_corpus


@pytest.fixture(scope="module")
def medical_tbox():
    return schema_to_extended_tbox(medical.source_schema())


@pytest.fixture(scope="module")
def medical_index(medical_tbox):
    return TBoxIndex(medical_tbox)


class TestEntailment:
    def test_syntactic_statement_is_entailed(self, medical_index):
        assert entails_exists(medical_index, ["Vaccine"], forward("designTarget"), ["Antigen"])
        assert entails_at_most(medical_index, ["Vaccine"], forward("designTarget"), ["Antigen"])

    def test_non_entailed_statement(self, medical_index):
        assert not entails_exists(medical_index, ["Antigen"], forward("crossReacting"), ["Antigen"])
        assert not entails_at_most(medical_index, ["Antigen"], forward("crossReacting"), ["Antigen"])

    def test_entailment_strengthened_body(self, medical_index):
        # K ⊑ ∃R.K' is entailed for any K containing Vaccine
        assert entails_exists(
            medical_index, ["Vaccine", "ExtraConcept"], forward("designTarget"), ["Antigen"]
        )

    def test_entailment_weakened_head(self, medical_index):
        # the required successor class may be weakened (Antigen ⊆ ⊤)
        assert entails_exists(medical_index, ["Vaccine"], forward("designTarget"), [])

    def test_derived_entailment_through_forall(self):
        # A ⊑ ∃s.A plus B ⊑ ∀s.B entails A⊓B ⊑ ∃s.(A⊓B) — the composite
        # entailment at the heart of Example 5.5
        tbox = TBox(
            [
                ExistsCI(conj("A"), forward("s"), conj("A")),
                ForAllCI(conj("B"), forward("s"), conj("B")),
            ]
        )
        index = TBoxIndex(tbox)
        assert entails_exists(index, ["A", "B"], forward("s"), ["A", "B"])
        assert not entails_exists(index, ["A"], forward("s"), ["A", "B"])

    def test_vacuous_entailment_for_unsatisfiable_body(self, medical_index):
        assert entails_exists(
            medical_index, ["Vaccine", "Antigen"], forward("exhibits"), ["Pathogen"]
        )

    def test_label_set_satisfiability(self, medical_tbox):
        assert label_set_satisfiable(medical_tbox, ["Pathogen"])
        assert not label_set_satisfiable(medical_tbox, ["Pathogen", "Vaccine"])

    def test_triple_satisfiability(self, medical_tbox):
        assert triple_satisfiable(medical_tbox, ["Vaccine"], forward("designTarget"), ["Antigen"])
        assert not triple_satisfiable(medical_tbox, ["Vaccine"], forward("exhibits"), ["Antigen"])
        assert triple_satisfiable(medical_tbox, ["Antigen"], inverse("designTarget"), ["Vaccine"])


class TestFinmodCycleDetection:
    def test_medical_schema_has_no_cycle(self, medical_source_schema):
        assert not schema_has_finmod_cycle(medical_source_schema)

    def test_example_52_schema_has_cycle(self, example52_schema):
        assert schema_has_finmod_cycle(example52_schema)

    def test_cycle_requires_inverse_functionality(self):
        schema = Schema(["A"], ["s"], name="NoFunc")
        schema.set_edge("A", "s", "A", "+", "*")  # no "at most one incoming"
        assert not schema_has_finmod_cycle(schema)

    def test_longer_label_cycles_detected(self):
        assert schema_has_finmod_cycle(synthetic.cycle_schema(3))
        assert schema_has_finmod_cycle(synthetic.cycle_schema(5))

    def test_chain_schema_has_no_cycle(self):
        assert not schema_has_finmod_cycle(synthetic.chain_schema(4))


class TestCompletion:
    def test_skipped_when_no_cycle_possible(self, medical_tbox, medical_source_schema):
        result = complete(medical_tbox, medical_source_schema)
        assert result.skipped
        assert result.tbox.size() == medical_tbox.size()

    def test_example_52_completion_adds_reversal(self, example52_schema):
        tbox = schema_to_extended_tbox(example52_schema)
        result = complete(tbox, example52_schema)
        assert not result.skipped
        assert result.reversed_cycles >= 1
        # the single-label reversal A ⊑ ∃s⁻.A must have been added
        assert ExistsCI(conj("A"), inverse("s"), conj("A")) in result.tbox
        assert AtMostOneCI(conj("A"), forward("s"), conj("A")) in result.tbox

    def test_completion_is_monotone(self, example52_schema):
        tbox = schema_to_extended_tbox(example52_schema)
        result = complete(tbox, example52_schema)
        assert set(tbox.statements()) <= set(result.tbox.statements())

    def test_completion_respects_budget(self, example52_schema):
        tbox = schema_to_extended_tbox(example52_schema)
        config = CompletionConfig(max_candidates=4, max_rounds=1)
        result = complete(tbox, example52_schema, config=config)
        assert result.rounds <= 1
        assert result.candidate_count <= 4

    def test_cycle_schema_completion(self):
        schema = synthetic.cycle_schema(2)
        tbox = schema_to_extended_tbox(schema)
        result = complete(tbox, schema, config=CompletionConfig(max_candidates=12, max_rounds=2))
        assert result.reversed_cycles >= 1
        assert ExistsCI(conj("L1"), inverse("next"), conj("L0")) in result.tbox


class TestSDrivenSimplification:
    def test_composite_at_most_subsumed_by_single(self, medical_source_schema):
        tbox = TBox(
            [
                AtMostOneCI(conj("Vaccine"), forward("designTarget"), conj("Antigen")),
                AtMostOneCI(conj("Vaccine", "Extra"), forward("designTarget"), conj("Antigen", "More")),
            ]
        )
        simplify_s_driven(tbox, medical_source_schema)
        assert tbox.at_most_count() == 1

    def test_unrelated_composite_kept(self, medical_source_schema):
        tbox = TBox(
            [AtMostOneCI(conj("Vaccine", "Extra"), forward("targets"), conj("Antigen"))]
        )
        simplify_s_driven(tbox, medical_source_schema)
        assert tbox.at_most_count() == 1

    def test_bound_matches_lemma_57(self, example52_schema):
        tbox = schema_to_extended_tbox(example52_schema)
        completed = complete(tbox, example52_schema).tbox
        bound = 2 * len(example52_schema.edge_labels) * len(example52_schema.node_labels) ** 2
        single_label_at_most = [
            s for s in completed.at_most_statements()
            if len(s.body) == 1 and len(s.head) == 1
            and s.body <= example52_schema.node_labels and s.head <= example52_schema.node_labels
        ]
        assert len(single_label_at_most) <= bound


class TestCompletionEntailmentHooks:
    def test_complete_calls_the_module_level_checks(self, monkeypatch):
        # completion must reach the checks through the module globals, so that
        # wrapping them there (as an outside profiler does) sees every call
        calls = {"entails_exists": 0, "entails_at_most": 0}
        for name, original in [(name, getattr(cycle_reversal, name)) for name in calls]:

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(cycle_reversal, name, counting)
        schema = synthetic.cycle_schema(2)
        result = complete(schema_to_extended_tbox(schema), schema)
        assert calls["entails_exists"] > calls["entails_at_most"] > 0
        # the ≤1 check is skipped when the ∃ check fails, and is not counted then
        assert result.entailment_checks == calls["entails_exists"] + calls["entails_at_most"]


# --------------------------------------------------------------------------- #
# the index overlay against the reference construction: copy T, add the
# fresh-marker axioms, build a fresh chase engine
# --------------------------------------------------------------------------- #
_MARKERS_DISJOINT = SubclassOfBottom(conj(_FRESH_B, _FRESH_B_PRIME))


def _reference_entails_exists(tbox, body, role, head):
    extended = tbox.copy()
    extended.add(ForAllCI(head, role.inverse(), conj(_FRESH_B_PRIME)))
    extended.add(_MARKERS_DISJOINT)
    pattern = Graph()
    pattern.add_node("u", body | {_FRESH_B})
    return not ChaseEngine(extended).check_pattern(pattern).consistent


def _reference_entails_at_most(tbox, body, role, head):
    extended = tbox.copy()
    extended.add(_MARKERS_DISJOINT)
    pattern = Graph()
    pattern.add_node("u", body)
    pattern.add_node("v1", head | {_FRESH_B})
    pattern.add_node("v2", head | {_FRESH_B_PRIME})
    for successor in ("v1", "v2"):
        if role.is_inverse:
            pattern.add_edge(successor, role.label, "u")
        else:
            pattern.add_edge("u", role.label, successor)
    return not ChaseEngine(extended).check_pattern(pattern).consistent


def _zoo_completion_inputs():
    """The distinct ``(schema, T̂_S ∪ T_¬Q)`` completion inputs of the zoo
    pairs whose schema has a finmod cycle."""
    inputs = {}
    for pairs in zoo_corpus().values():
        for left, right, schema in pairs:
            if not schema_has_finmod_cycle(schema):
                continue
            solver = ContainmentSolver(schema)
            reduction = solver._booleanize(_as_union(left, "P"), _as_union(right, "Q"))
            schema_tbox = solver._schema_tbox(reduction.schema)
            for rolled in roll_up_choices(reduction.right, prefix="Q"):
                combined = schema_tbox.union(rolled.tbox)
                inputs.setdefault(combined.canonical_fingerprint(), (reduction.schema, combined))
    return list(inputs.values())


class TestIndexOverlayDifferential:
    def test_round_one_triples_match_the_reference(self):
        inputs = _zoo_completion_inputs()
        assert inputs, "the zoo corpus has no schema with a finmod cycle"
        triples = held = 0
        for schema, tbox in inputs:
            index = TBoxIndex(tbox)
            candidates = _candidate_label_sets(index, schema, (), CompletionConfig())
            for body in candidates:
                for role in sorted({statement.role for statement in index.exists}, key=str):
                    if not any(s.body <= body for s in index.exists_by_role.get(role, ())):
                        continue
                    for head in candidates:
                        triples += 1
                        exists = entails_exists(index, body, role, head)
                        assert exists == _reference_entails_exists(tbox, body, role, head), (
                            tbox.name, sorted(body), str(role), sorted(head)
                        )
                        at_most = entails_at_most(index, head, role.inverse(), body)
                        assert at_most == _reference_entails_at_most(
                            tbox, head, role.inverse(), body
                        ), (tbox.name, sorted(head), str(role.inverse()), sorted(body))
                        held += exists and at_most
        # both answers occur, so neither side can pass by being constant
        assert 0 < held < triples
