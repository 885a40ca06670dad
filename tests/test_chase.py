"""Tests for the Horn-ALCIF chase: label sets, tree-extendability, pattern
consistency (the engine room of the satisfiability procedure)."""

import pytest

from repro.chase import ChaseEngine, TBoxIndex, TreeChecker
from repro.dl import (
    AtMostOneCI,
    DisjunctionCI,
    ExistsCI,
    ForAllCI,
    NoExistsCI,
    SubclassOf,
    SubclassOfBottom,
    TBox,
    conj,
    schema_to_extended_tbox,
)
from repro.exceptions import SolverError, TBoxError
from repro.graph import GraphBuilder, forward, inverse
from repro.workloads import medical


@pytest.fixture(scope="module")
def medical_tbox():
    return schema_to_extended_tbox(medical.source_schema())


class TestTBoxIndex:
    def test_closure_under_subclass(self):
        index = TBoxIndex(TBox([SubclassOf(conj("A"), "B"), SubclassOf(conj("B"), "C")]))
        assert index.close({"A"}) == {"A", "B", "C"}
        assert index.close({"C"}) == {"C"}

    def test_closure_with_conjunctive_body(self):
        index = TBoxIndex(TBox([SubclassOf(conj("A", "B"), "C")]))
        assert "C" not in index.close({"A"})
        assert "C" in index.close({"A", "B"})

    def test_bottom_detection(self):
        index = TBoxIndex(TBox([SubclassOfBottom(conj("A", "B"))]))
        assert index.violates_bottom(frozenset({"A", "B", "C"}))
        assert not index.violates_bottom(frozenset({"A"}))

    def test_forall_targets(self):
        index = TBoxIndex(TBox([ForAllCI(conj("A"), forward("r"), conj("B", "C"))]))
        assert index.forall_targets(frozenset({"A"}), forward("r")) == {"B", "C"}
        assert index.forall_targets(frozenset({"X"}), forward("r")) == frozenset()

    def test_child_seed_includes_forall(self):
        tbox = TBox(
            [
                ExistsCI(conj("A"), forward("r"), conj("B")),
                ForAllCI(conj("A"), forward("r"), conj("C")),
                SubclassOf(conj("B"), "D"),
            ]
        )
        index = TBoxIndex(tbox)
        assert index.child_seed(frozenset({"A"}), forward("r"), conj("B")) == {"B", "C", "D"}

    def test_statistics(self, medical_tbox):
        stats = TBoxIndex(medical_tbox).statistics()
        assert stats["exists"] > 0 and stats["no_exists"] > 0 and stats["bottom"] > 0


class TestIndexOverlay:
    def _tbox(self):
        return TBox(
            [
                ExistsCI(conj("A"), forward("r"), conj("B")),
                ForAllCI(conj("A"), forward("r"), conj("C")),
                SubclassOf(conj("B"), "D"),
                SubclassOfBottom(conj("C", "E")),
            ]
        )

    def test_overlay_answers_like_the_extended_tbox(self):
        extra = [ForAllCI(conj("B"), inverse("r"), conj("E")), SubclassOfBottom(conj("D", "E"))]
        overlay = TBoxIndex(self._tbox()).overlay(extra)
        fresh = TBoxIndex(TBox([*self._tbox(), *extra]))
        for role in (forward("r"), inverse("r")):
            assert overlay.forall_targets(conj("A", "B"), role) == fresh.forall_targets(
                conj("A", "B"), role
            )
        assert overlay.forall_by_role == fresh.forall_by_role
        assert overlay.bottoms == fresh.bottoms and overlay.forall == fresh.forall
        assert overlay.statistics() == fresh.statistics()
        pattern = GraphBuilder().node("x", "A").build()
        assert ChaseEngine(overlay).check_pattern(pattern).consistent == ChaseEngine(
            fresh.tbox
        ).check_pattern(pattern).consistent

    def test_base_index_unchanged_by_overlays(self):
        base = TBoxIndex(self._tbox())
        forall_by_role = {role: list(group) for role, group in base.forall_by_role.items()}
        bottoms, forall = list(base.bottoms), list(base.forall)
        for role in (forward("r"), inverse("r"), forward("s")):
            overlay = base.overlay([ForAllCI(conj("B"), role, conj("X")), SubclassOfBottom(conj("X", "Y"))])
            ChaseEngine(overlay).check_pattern(GraphBuilder().node("x", "A", "X").build())
        assert base.forall_by_role == forall_by_role
        assert base.bottoms == bottoms and base.forall == forall
        assert not base.violates_bottom(frozenset({"X", "Y"}))

    def test_overlay_shares_the_closure_cache(self):
        base = TBoxIndex(self._tbox())
        overlay = base.overlay([SubclassOfBottom(conj("X", "Y"))])
        assert overlay.close({"B"}) == {"B", "D"}
        assert frozenset({"B"}) in base._closure_cache

    @pytest.mark.parametrize(
        "statement",
        [
            SubclassOf(conj("A"), "Z"),
            ExistsCI(conj("A"), forward("r"), conj("Z")),
            DisjunctionCI(conj("A"), ("Y", "Z")),
        ],
    )
    def test_overlay_rejects_other_kinds(self, statement):
        with pytest.raises(TBoxError):
            TBoxIndex(self._tbox()).overlay([statement])


class TestTreeChecker:
    def test_simple_existential_chain_is_extendable(self):
        tbox = TBox([ExistsCI(conj("A"), forward("r"), conj("A"))])
        checker = TreeChecker(TBoxIndex(tbox))
        assert checker.check(conj("A")).ok

    def test_unsatisfiable_requirement_fails(self):
        tbox = TBox(
            [
                ExistsCI(conj("A"), forward("r"), conj("B")),
                SubclassOfBottom(conj("B")),
            ]
        )
        checker = TreeChecker(TBoxIndex(tbox))
        assert not checker.check(conj("A")).ok

    def test_requirement_blocked_and_pushed_to_parent(self):
        # the child must have an r⁻-successor in B, the parent is the only
        # candidate because of the at-most constraint, so B is pushed upwards
        tbox = TBox(
            [
                ExistsCI(conj("A"), forward("r"), conj("C")),
                ExistsCI(conj("C"), inverse("r"), conj("B")),
                AtMostOneCI(conj("C"), inverse("r"), conj()),
            ]
        )
        checker = TreeChecker(TBoxIndex(tbox))
        outcome = checker.check(conj("C"), parent_role=inverse("r"), parent_labels=conj("A"))
        assert outcome.ok
        assert "B" in outcome.parent_needs

    def test_infinite_alternating_chain_allowed_coinductively(self):
        # A needs a B-successor, B needs an A-successor, A and B are disjoint:
        # only infinite chains work, which unrestricted satisfiability permits
        tbox = TBox(
            [
                ExistsCI(conj("A"), forward("r"), conj("B")),
                ExistsCI(conj("B"), forward("r"), conj("A")),
                SubclassOfBottom(conj("A", "B")),
                AtMostOneCI(conj("A"), forward("r"), conj()),
                AtMostOneCI(conj("B"), forward("r"), conj()),
            ]
        )
        checker = TreeChecker(TBoxIndex(tbox))
        assert checker.check(conj("A")).ok

    def test_no_a_predecessor_of_a_makes_a_unsatisfiable(self):
        # every A needs an A-successor via r, but no A may have an incoming
        # r-edge from an A: the requirement can never be witnessed
        tbox = TBox(
            [
                ExistsCI(conj("A"), forward("r"), conj("A")),
                NoExistsCI(conj("A"), inverse("r"), conj("A")),
            ]
        )
        checker = TreeChecker(TBoxIndex(tbox))
        assert not checker.check(conj("A")).ok

    def test_cache_grows(self):
        tbox = TBox([ExistsCI(conj("A"), forward("r"), conj("A"))])
        checker = TreeChecker(TBoxIndex(tbox))
        checker.check(conj("A"))
        assert checker.cache_size() >= 1


class TestChaseEngine:
    def test_requires_horn_tbox(self, medical_source_schema):
        from repro.dl import label_coverage_statement

        tbox = TBox([label_coverage_statement(["A", "B"])])
        with pytest.raises(SolverError):
            ChaseEngine(tbox)

    def test_saturation_propagates_labels(self):
        tbox = TBox(
            [
                SubclassOf(conj("A"), "B"),
                ForAllCI(conj("B"), forward("r"), conj("C")),
            ]
        )
        pattern = GraphBuilder().node("x", "A").node("y").edge("x", "r", "y").build()
        result = ChaseEngine(tbox).check_pattern(pattern)
        assert result.consistent
        assert result.pattern.has_label("y", "C")

    def test_bottom_violation_detected(self):
        tbox = TBox([SubclassOfBottom(conj("A", "B"))])
        pattern = GraphBuilder().node("x", "A", "B").build()
        result = ChaseEngine(tbox).check_pattern(pattern)
        assert not result.consistent
        assert "⊥" in result.reason or "bottom" in result.reason.lower()

    def test_no_exists_violation_detected(self):
        tbox = TBox([NoExistsCI(conj("A"), forward("r"), conj("B"))])
        pattern = GraphBuilder().node("x", "A").node("y", "B").edge("x", "r", "y").build()
        assert not ChaseEngine(tbox).check_pattern(pattern).consistent

    def test_functionality_merges_successors(self):
        tbox = TBox([AtMostOneCI(conj("A"), forward("r"), conj("B"))])
        pattern = (
            GraphBuilder()
            .node("x", "A").node("y1", "B").node("y2", "B")
            .edge("x", "r", "y1").edge("x", "r", "y2")
            .build()
        )
        result = ChaseEngine(tbox).check_pattern(pattern, {"y1": "y1", "y2": "y2"})
        assert result.consistent
        assert result.merges == 1
        assert result.assignment["y1"] == result.assignment["y2"]

    def test_functionality_merge_can_reveal_contradiction(self):
        tbox = TBox(
            [
                AtMostOneCI(conj("A"), forward("r"), conj()),
                SubclassOfBottom(conj("B", "C")),
            ]
        )
        pattern = (
            GraphBuilder()
            .node("x", "A").node("y1", "B").node("y2", "C")
            .edge("x", "r", "y1").edge("x", "r", "y2")
            .build()
        )
        assert not ChaseEngine(tbox).check_pattern(pattern).consistent

    def test_forced_reuse_propagates_labels(self):
        # x needs an r-successor in C; it already has the only allowed
        # r-successor y, so y must absorb C
        tbox = TBox(
            [
                ExistsCI(conj("A"), forward("r"), conj("C")),
                AtMostOneCI(conj("A"), forward("r"), conj()),
            ]
        )
        pattern = GraphBuilder().node("x", "A").node("y", "B").edge("x", "r", "y").build()
        result = ChaseEngine(tbox).check_pattern(pattern)
        assert result.consistent
        assert result.pattern.has_label("y", "C")

    def test_unwitnessable_requirement_fails(self):
        tbox = TBox(
            [
                ExistsCI(conj("A"), forward("r"), conj("B")),
                NoExistsCI(conj("A"), forward("r"), conj("B")),
            ]
        )
        pattern = GraphBuilder().node("x", "A").build()
        assert not ChaseEngine(tbox).check_pattern(pattern).consistent

    def test_medical_schema_pattern(self, medical_tbox):
        engine = ChaseEngine(medical_tbox)
        vaccine = GraphBuilder().node("v", "Vaccine").build()
        assert engine.check_pattern(vaccine).consistent
        # a node that is both Vaccine and Antigen contradicts disjointness
        assert not engine.label_set_is_satisfiable(conj("Vaccine", "Antigen"))

    def test_label_set_satisfiability(self, medical_tbox):
        engine = ChaseEngine(medical_tbox)
        assert engine.label_set_is_satisfiable(conj("Pathogen"))
        assert engine.label_set_is_satisfiable(conj("Antigen"))

    def test_example_55_cycle_reversal_argument(self):
        """The hand-derived contradiction of Example 5.5: after reversal, an
        r-self-loop is impossible in any (even infinite) model."""
        A, Br, Brs = "A", "B_r", "B_rs"
        tbox = TBox(
            [
                # T_S
                SubclassOf(conj(), A),
                ExistsCI(conj(A), forward("s"), conj(A)),
                AtMostOneCI(conj(A), inverse("s"), conj(A)),
                # T_¬Q (rolled-up q = ∃x,y.(r·s⁺·r)(x,y))
                ForAllCI(conj(), forward("r"), conj(Br)),
                ForAllCI(conj(Br), forward("s"), conj(Brs)),
                ForAllCI(conj(Brs), forward("s"), conj(Brs)),
                NoExistsCI(conj(Brs), forward("r"), conj()),
                # the reversal of the finmod cycle A⊓B_rs, s, A⊓B_rs
                ExistsCI(conj(A, Brs), inverse("s"), conj(A, Brs)),
                AtMostOneCI(conj(A, Brs), forward("s"), conj(A, Brs)),
            ]
        )
        loop = GraphBuilder().node("u").edge("u", "r", "u").build()
        assert not ChaseEngine(tbox).check_pattern(loop).consistent
        # without the reversal statements the loop is satisfiable in an
        # infinite model (this is exactly Example 5.2/5.3)
        without = TBox([s for s in tbox if s not in (
            ExistsCI(conj(A, Brs), inverse("s"), conj(A, Brs)),
            AtMostOneCI(conj(A, Brs), forward("s"), conj(A, Brs)),
        )])
        assert ChaseEngine(without).check_pattern(loop).consistent
