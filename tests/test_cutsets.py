import json

import pytest
from hypothesis import example, given, settings, strategies as st

from faultkit import cutsets
from faultkit.cutsets import (build_fault_tree, enumerate_mcs, evaluate_probability,
                              export_fault_tree_dot, final_mcs, is_cut_set,
                              mcs_from_json, mcs_to_json,
                              probability_by_enumeration,
                              probability_by_inclusion_exclusion)
from faultkit.errors import (ExpressionError, FaultkitError, ModelFormatError,
                             SizeGuardExceeded)
from faultkit.model import parse_model

from .conftest import bench_module
from .oracles import brute_force_mcs, world_probability


class TestIsCutSet:
    def test_all_faults_allows_reachable_event(self, battery):
        assert is_cut_set(battery, "system_dead", battery.fault_atoms)

    def test_empty_set_cannot_reach_fault_literal(self, battery):
        assert not is_cut_set(battery, "b1_fail", frozenset())

    def test_battery_single_fault_is_not_a_cut(self, battery):
        assert not is_cut_set(battery, "system_dead", {"b1_fail"})
        assert not is_cut_set(battery, "system_dead", {"b2_fail"})
        assert is_cut_set(battery, "system_dead", {"b1_fail", "b2_fail"})

    def test_unknown_atom_in_event(self, battery):
        with pytest.raises(ExpressionError):
            is_cut_set(battery, "no_such_atom", set())

    def test_non_fault_members_rejected(self, battery):
        with pytest.raises(ExpressionError):
            is_cut_set(battery, "system_dead", {"power_low"})

    @given(st.sets(st.sampled_from(["b1_fail", "b2_fail"])),
           st.sets(st.sampled_from(["b1_fail", "b2_fail"])))
    @settings(max_examples=30, deadline=None)
    def test_monotone(self, battery, small, extra):
        large = small | extra
        if is_cut_set(battery, "system_dead", small):
            assert is_cut_set(battery, "system_dead", large)


class TestEnumerateMcs:
    def test_battery(self, battery):
        report = final_mcs(battery, "system_dead")
        assert mcs_to_json(report.mcs) == [["b1_fail", "b2_fail"]]
        assert report.exhausted
        assert not report.fault_free_reachable

    def test_unreachable_event(self, battery):
        report = final_mcs(battery, "b1_fail & !power_low")
        assert report.mcs == ()
        assert report.exhausted

    def test_event_true_initially_yields_empty_cut_set(self, battery):
        report = final_mcs(battery, "!system_dead")
        assert report.mcs == (frozenset(),)
        assert report.fault_free_reachable

    def test_layers_are_monotone_and_guaranteed(self, battery):
        reports = list(enumerate_mcs(battery, "power_low"))
        assert [r.completed_cardinality for r in reports] == [0, 1, 2]
        for earlier, later in zip(reports, reports[1:]):
            assert set(earlier.mcs) <= set(later.mcs)
        assert "cardinality <= 1" in reports[1].guarantee

    def test_matches_brute_force(self, battery, intermittent):
        cases = [(battery, tle) for tle in
                 ("system_dead", "power_low", "b1_fail | system_dead")]
        cases += [(intermittent, atom) for atom in sorted(intermittent.atoms)]
        # a fault that clears before the event still had to occur
        cases += [(parse_model(json.dumps(FAULT_CLEARS)), tle)
                  for tle in ("x", "x & !f1", "f2")]
        for m, tle in cases:
            expected = brute_force_mcs(m, tle)
            got = list(final_mcs(m, tle).mcs)
            assert sorted(got, key=lambda s: (len(s), sorted(s))) == expected

    def test_minimality_witnessed(self, battery):
        report = final_mcs(battery, "system_dead")
        for S in report.mcs:
            assert is_cut_set(battery, "system_dead", S)
            for x in S:
                assert not is_cut_set(battery, "system_dead", S - {x})


FAULT_CLEARS = {
    "atoms": ["f1", "f2", "x"],
    "faults": ["f1", "f2"],
    "states": {"n": {}, "a": {"f1": True}, "b": {"x": True},
               "c": {"f2": True}, "d": {"f2": True, "x": True}},
    "initial": ["n"],
    "transitions": [["n", "a"], ["a", "b"], ["b", "b"], ["n", "c"],
                    ["c", "d"], ["d", "n"]],
}


class TestFaultTree:
    def test_single_mcs(self):
        tree = build_fault_tree([frozenset({"f1", "f2"})], "boom")
        assert tree.gates == (("f1", "f2"),)

    def test_two_gates_sorted(self):
        tree = build_fault_tree([frozenset({"f2", "f3"}), frozenset({"f1"})], "boom")
        assert tree.gates == (("f1",), ("f2", "f3"))

    @pytest.mark.parametrize("doc", [[[1, 2]], [["a"], "b"], {"a": ["b"]}],
                             ids=["integer-events", "bare-name", "object"])
    def test_malformed_mcs_document_rejected(self, doc):
        with pytest.raises(ModelFormatError):
            mcs_from_json(doc)

    def test_non_antichain_rejected(self):
        with pytest.raises(ValueError, match="antichain"):
            build_fault_tree([frozenset({"f1"}), frozenset({"f1", "f2"})], "boom")

    def test_repeated_cut_set_makes_one_gate(self):
        tree = build_fault_tree([frozenset({"a", "b"}), frozenset({"b", "a"})], "boom")
        assert tree.gates == (("a", "b"),)

    def test_repeated_empty_cut_set_is_true_node(self):
        dot = export_fault_tree_dot(build_fault_tree([frozenset(), frozenset()], "boom"))
        assert dot == export_fault_tree_dot(build_fault_tree([frozenset()], "boom"))
        assert "TRUE" in dot and "AND" not in dot

    def test_dot_single_and_single_leaf_has_four_nodes(self):
        tree = build_fault_tree([frozenset({"f1"})], "boom")
        dot = export_fault_tree_dot(tree)
        labels = [line for line in dot.splitlines() if "[label=" in line]
        assert len(labels) == 4  # top, OR, AND, basic event

    def test_dot_empty_is_unreachable_node(self):
        dot = export_fault_tree_dot(build_fault_tree([], "boom"))
        assert "unreachable" in dot
        assert dot.count("label=") == 1

    def test_battery_tree_matches_golden(self, battery):
        report = final_mcs(battery, "system_dead")
        dot = export_fault_tree_dot(build_fault_tree(report.mcs, "system_dead"))
        assert dot == GOLDEN_BATTERY_DOT


GOLDEN_BATTERY_DOT = """digraph fault_tree {
  rankdir=TB;
  "top" [label="system_dead", shape=box];
  "or" [label="OR", shape=diamond];
  "top" -> "or";
  "and0" [label="AND", shape=invtrapezium];
  "or" -> "and0";
  "and0_b1_fail" [label="b1_fail", shape=circle];
  "and0" -> "and0_b1_fail";
  "and0_b2_fail" [label="b2_fail", shape=circle];
  "and0" -> "and0_b2_fail";
}
"""


EVENTS = [f"e{i}" for i in range(10)]


class TestProbability:
    def test_certain_event(self):
        assert evaluate_probability([frozenset()], {}) == 1.0

    def test_single_event(self):
        assert evaluate_probability([frozenset({"f1"})], {"f1": 0.1}) == pytest.approx(0.1)

    def test_two_event_conjunction(self):
        # enumerate the four worlds: only {f1,f2} covers the cut set
        p = evaluate_probability([frozenset({"f1", "f2"})], {"f1": 0.5, "f2": 0.5})
        assert p == pytest.approx(0.25)

    def test_empty_family_is_zero(self):
        assert evaluate_probability([], {}) == 0.0

    def test_missing_probability(self):
        with pytest.raises(ValueError, match="missing probability"):
            evaluate_probability([frozenset({"f1"})], {})

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of"):
            evaluate_probability([frozenset({"f1"})], {"f1": 1.5})

    @given(st.lists(st.sets(st.sampled_from(["f1", "f2", "f3"]), min_size=1),
                    min_size=1, max_size=4),
           st.tuples(*(st.floats(0.05, 0.95) for _ in range(3))))
    @settings(max_examples=40, deadline=None)
    def test_routes_agree(self, family, values):
        family = [frozenset(s) for s in family]
        probs = dict(zip(["f1", "f2", "f3"], values))
        a = probability_by_enumeration(family, probs)
        b = probability_by_inclusion_exclusion(family, probs)
        assert a == pytest.approx(b, abs=1e-12)

    @given(st.lists(st.sets(st.sampled_from(EVENTS), max_size=6), max_size=12),
           st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                    min_size=len(EVENTS), max_size=len(EVENTS)))
    @example([], [0.5] * len(EVENTS))
    @example([set()], [0.5] * len(EVENTS))
    @example([set(), {"e0", "e1"}], [0.3] * len(EVENTS))
    @example([{"e0", "e1"}, {"e1", "e0"}, {"e2"}], [0.25] * len(EVENTS))
    @example([{"e0", "e1"}, {"e1", "e2"}, {"e9"}], [0.0, 1.0, 0.5] + [1.0] * 7)
    @settings(max_examples=100, deadline=None)
    def test_routes_match_world_oracle(self, family, values):
        family = [frozenset(s) for s in family]
        probs = dict(zip(EVENTS, values))
        want = world_probability(family, probs)
        assert abs(probability_by_enumeration(family, probs) - want) <= 1e-12
        assert abs(probability_by_inclusion_exclusion(family, probs) - want) <= 1e-12

    def test_kofn_family_of_924_sets(self):
        # the minimal cut sets of faultonly_kofn(12, 6) are its 924 6-subsets:
        # the event is "at least 6 of 12 independent faults occur"
        m = parse_model(json.dumps(bench_module("gen").faultonly_kofn(12, 6)))
        family = final_mcs(m, "down").mcs
        assert len(family) == 924
        probs = {f: 0.02 * (i + 1) for i, f in enumerate(sorted(m.fault_atoms))}
        exactly = [1.0]  # exactly[j]: P(j of the faults so far occurred)
        for p in probs.values():
            exactly = [a * (1 - p) + b * p for a, b in zip(exactly + [0.0], [0.0] + exactly)]
        assert evaluate_probability(family, probs) == pytest.approx(
            sum(exactly[6:]), rel=1e-12, abs=1e-12)

    def test_routes_that_disagree_raise_faultkit_error(self):
        # inclusion-exclusion cancels: its alternating terms sum to about
        # 1.9^20, and it misses the enumeration's value by about 2e-11
        family = [frozenset({f"e{i:02d}"}) for i in range(20)]
        probs = {f"e{i:02d}": 0.9 for i in range(20)}
        with pytest.raises(FaultkitError, match="probability routes disagree"):
            cutsets.probability_routes(family, probs)

    @pytest.mark.parametrize("gap,agree", [(0.5e-12, True), (2e-12, False)])
    def test_routes_agree_to_1e_12(self, monkeypatch, gap, agree):
        value = probability_by_enumeration([frozenset({"a"})], {"a": 0.5})
        monkeypatch.setattr(cutsets, "probability_by_inclusion_exclusion",
                            lambda mcs, probabilities: value + gap)
        if agree:
            assert cutsets.probability_routes([{"a"}], {"a": 0.5}) == (value, value + gap)
        else:
            with pytest.raises(FaultkitError, match="probability routes disagree"):
                cutsets.probability_routes([{"a"}], {"a": 0.5})


class TestProbabilityGuard:
    FAMILY = [frozenset({"a"}), frozenset({"b"}), frozenset({"a", "c"})]
    PROBS = {"a": 0.1, "b": 0.2, "c": 0.3}

    def test_enumeration_at_the_limit(self, monkeypatch):
        monkeypatch.setattr(cutsets, "WORK_LIMIT", 8)  # 2^3 worlds
        assert probability_by_enumeration(self.FAMILY, self.PROBS) == pytest.approx(
            1 - 0.9 * 0.8)
        monkeypatch.setattr(cutsets, "WORK_LIMIT", 7)
        with pytest.raises(SizeGuardExceeded, match="more than 7 worlds"):
            probability_by_enumeration(self.FAMILY, self.PROBS)

    def test_inclusion_exclusion_at_the_limit(self, monkeypatch):
        # one update for the first set, two for the second, and one per union
        # so far ({a}, {b}, {a, b}) plus one for the third: 7
        monkeypatch.setattr(cutsets, "WORK_LIMIT", 7)
        assert probability_by_inclusion_exclusion(self.FAMILY, self.PROBS) == (
            pytest.approx(1 - 0.9 * 0.8))
        monkeypatch.setattr(cutsets, "WORK_LIMIT", 6)
        with pytest.raises(SizeGuardExceeded, match="more than 6 updates"):
            probability_by_inclusion_exclusion(self.FAMILY, self.PROBS)
