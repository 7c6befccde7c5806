import json
import random

import pytest

from faultkit.boolexpr import parse_expr
from faultkit.errors import ModelFormatError
from faultkit.model import parse_model
from faultkit.tfpg import (AND, FM, INF, OR, NodeMap, Tfpg, TfpgEdge, TfpgError,
                           behavioral_validate, tfpg_to_json, validate_structure)
from faultkit.tfpg_synthesis import (DiscrepancyDecl, SynthesisConfig,
                                     _cause_families, _drop_mode_subsumed,
                                     _merge_duplicate_ands, _reachability_filter,
                                     _reduce_or_edges, synthesize_tfpg)

from .conftest import corpus_json
from .oracles import brute_force_cause_family, brute_force_cycle_nodes
from .test_acceptance import random_model


def decl(name, expr, kind=OR):
    return DiscrepancyDecl(name, parse_expr(expr), kind)


class TestSynthesizeCorpus:
    def test_battery_graph_shape(self, battery):
        config = SynthesisConfig.from_json(corpus_json("battery_synth.json"))
        result = synthesize_tfpg(battery, config, 8)
        g = result.tfpg
        assert g.nodes == {"b1_fail": FM, "b2_fail": FM,
                           "d_low": OR, "d_dead": AND}
        # d_low has two alternative causes, one edge each
        low_edges = {g.edges[i].src for i in g.incoming("d_low")}
        assert low_edges == {"b1_fail", "b2_fail"}
        # d_dead needs both faults and the intermediate effect
        dead_edges = {g.edges[i].src for i in g.incoming("d_dead")}
        assert dead_edges == {"b1_fail", "b2_fail", "d_low"}
        assert result.findings == ()

    def test_battery_output_validates(self, battery):
        config = SynthesisConfig.from_json(corpus_json("battery_synth.json"))
        result = synthesize_tfpg(battery, config, 8)
        assert validate_structure(result.tfpg) == []
        assert behavioral_validate(result.tfpg, battery, result.node_map, 8).complete

    def test_single_cause_single_or_edge(self, sensor_delay):
        config = SynthesisConfig(["fault"], [decl("d_warn", "warn")], {})
        result = synthesize_tfpg(sensor_delay, config, 8)
        assert result.tfpg.nodes == {"fault": FM, "d_warn": OR}
        edge = result.tfpg.edges[0]
        assert (edge.src, edge.dst) == ("fault", "d_warn")
        assert (edge.tmin, edge.tmax) == (2, 2)

    def test_unguaranteed_effect_gets_open_upper_bound(self, intermittent):
        config = SynthesisConfig(["fault"], [decl("d_warn", "warn")], {})
        result = synthesize_tfpg(intermittent, config, 6)
        edge = result.tfpg.edges[0]
        assert edge.tmax == INF

    def test_unreachable_discrepancy_excluded_with_finding(self, sensor_delay):
        config = SynthesisConfig(
            ["fault"], [decl("d_warn", "warn"), decl("d_ghost", "fault & !fault")], {})
        result = synthesize_tfpg(sensor_delay, config, 6)
        assert "d_ghost" not in result.tfpg.nodes
        assert any("unreachable" in f for f in result.findings)

    def test_fault_free_discrepancy_excluded_with_finding(self, sensor_delay):
        config = SynthesisConfig(
            ["fault"], [decl("d_warn", "warn"), decl("d_env", "!warn")], {})
        result = synthesize_tfpg(sensor_delay, config, 6)
        assert "d_env" not in result.tfpg.nodes
        assert any("without any fault" in f for f in result.findings)

    def test_synthesis_is_deterministic(self, battery):
        config = SynthesisConfig.from_json(corpus_json("battery_synth.json"))
        a = tfpg_to_json(synthesize_tfpg(battery, config, 6).tfpg)
        b = tfpg_to_json(synthesize_tfpg(battery, config, 6).tfpg)
        assert a == b

    def test_bad_fault_atom_rejected(self, sensor_delay):
        config = SynthesisConfig(["warn"], [decl("d", "warn")], {})
        with pytest.raises(TfpgError, match="fault atom"):
            synthesize_tfpg(sensor_delay, config, 4)

    @pytest.mark.parametrize("doc", [
        {"fm": "ab", "discrepancies": {}},
        {"fm": ["a"], "discrepancies": {"d": "a"}},
        {"fm": ["a"], "discrepancies": {"d": {"expr": "a"}}, "modes": {"m": ["a"]}},
    ], ids=["fm-string", "discrepancy-string", "mode-atom-list"])
    def test_mistyped_config_rejected(self, doc):
        with pytest.raises(ModelFormatError):
            SynthesisConfig.from_json(doc)


CO_OCCUR = {
    "atoms": ["f", "x", "y"],
    "faults": ["f"],
    "observables": [],
    "modes": [],
    "states": {"n": {}, "e": {"f": True, "x": True, "y": True}},
    "initial": ["n"],
    "transitions": [["n", "n"], ["n", "e"], ["e", "e"]],
}


class TestCycleFallback:
    def test_mutual_causes_fall_back_to_fault_only(self):
        m = parse_model(json.dumps(CO_OCCUR))
        config = SynthesisConfig(["f"], [decl("dx", "x"), decl("dy", "y")], {})
        result = synthesize_tfpg(m, config, 5)
        g = result.tfpg
        assert {g.edges[i].src for i in g.incoming("dx")} == {"f"}
        assert {g.edges[i].src for i in g.incoming("dy")} == {"f"}
        assert sum("cause cycle" in f for f in result.findings) == 2
        assert behavioral_validate(g, m, result.node_map, 5).complete


class TestStaticRules:
    def test_merge_duplicate_and_helpers(self):
        nm = NodeMap({"f1": parse_expr("f1"), "f2": parse_expr("f2"),
                      "d": parse_expr("d")}, {})
        g = Tfpg(("on",),
                 {"f1": FM, "f2": FM, "a1": AND, "a2": AND, "d": OR},
                 [TfpgEdge("f1", "a1", 0, INF, ("on",)),
                  TfpgEdge("f2", "a1", 0, INF, ("on",)),
                  TfpgEdge("f1", "a2", 0, INF, ("on",)),
                  TfpgEdge("f2", "a2", 0, INF, ("on",)),
                  TfpgEdge("a1", "d", 0, INF, ("on",)),
                  TfpgEdge("a2", "d", 0, INF, ("on",))])
        merged = _merge_duplicate_ands(g, nm)
        assert set(merged.nodes) == {"f1", "f2", "a1", "d"}
        assert len(merged.edges) == 3

    def test_drop_mode_subsumed_parallel_edge(self):
        g = Tfpg(("m1", "m2"), {"f": FM, "d": OR},
                 [TfpgEdge("f", "d", 0, 1, ("m1",)),
                  TfpgEdge("f", "d", 0, 1, ("m1", "m2"))])
        slim = _drop_mode_subsumed(g)
        assert len(slim.edges) == 1
        assert slim.edges[0].modes == ("m1", "m2")

    def test_keep_edges_with_different_intervals(self):
        g = Tfpg(("m1", "m2"), {"f": FM, "d": OR},
                 [TfpgEdge("f", "d", 0, 1, ("m1",)),
                  TfpgEdge("f", "d", 0, 5, ("m1", "m2"))])
        assert len(_drop_mode_subsumed(g).edges) == 2

    def _chain_model(self):
        doc = {
            "atoms": ["f", "ev", "ew"],
            "faults": ["f"],
            "observables": [],
            "modes": [],
            "states": {"n": {}, "s1": {"f": True},
                       "s2": {"f": True, "ev": True},
                       "s3": {"f": True, "ev": True, "ew": True}},
            "initial": ["n"],
            "transitions": [["n", "n"], ["n", "s1"], ["s1", "s2"],
                            ["s2", "s3"], ["s3", "s3"]],
        }
        m = parse_model(json.dumps(doc))
        nm = NodeMap({"f": parse_expr("f"), "v": parse_expr("ev"),
                      "w": parse_expr("ew")}, {})
        return m, nm

    def test_transitive_reduction_drops_covered_direct_edge(self):
        m, nm = self._chain_model()
        g = Tfpg(("nominal",), {"f": FM, "v": OR, "w": OR},
                 [TfpgEdge("f", "v", 1, 2, ("nominal",)),
                  TfpgEdge("v", "w", 1, 2, ("nominal",)),
                  TfpgEdge("f", "w", 2, 4, ("nominal",))])
        reduced = _reduce_or_edges(g, m, nm, 6)
        assert len(reduced.edges) == 2
        assert not any(e.src == "f" and e.dst == "w" for e in reduced.edges)
        assert behavioral_validate(reduced, m, nm, 6).complete

    def test_reduction_skipped_when_interval_not_contained(self):
        m, nm = self._chain_model()
        g = Tfpg(("nominal",), {"f": FM, "v": OR, "w": OR},
                 [TfpgEdge("f", "v", 1, 2, ("nominal",)),
                  TfpgEdge("v", "w", 1, 2, ("nominal",)),
                  TfpgEdge("f", "w", 3, 4, ("nominal",))])  # 2 not covered
        reduced = _reduce_or_edges(g, m, nm, 6)
        assert len(reduced.edges) == 3

    def test_reduction_rolled_back_when_completeness_breaks(self):
        # direct effect may also appear without the intermediate one
        doc = {
            "atoms": ["f", "ev", "ew"],
            "faults": ["f"],
            "observables": [],
            "modes": [],
            "states": {"n": {}, "s1": {"f": True},
                       "sw": {"f": True, "ew": True},
                       "s2": {"f": True, "ev": True},
                       "s3": {"f": True, "ev": True, "ew": True}},
            "initial": ["n"],
            "transitions": [["n", "n"], ["n", "s1"], ["s1", "sw"], ["sw", "sw"],
                            ["s1", "s2"], ["s2", "s3"], ["s3", "s3"]],
        }
        m = parse_model(json.dumps(doc))
        nm = NodeMap({"f": parse_expr("f"), "v": parse_expr("ev"),
                      "w": parse_expr("ew")}, {})
        g = Tfpg(("nominal",), {"f": FM, "v": OR, "w": OR},
                 [TfpgEdge("f", "v", 1, 2, ("nominal",)),
                  TfpgEdge("v", "w", 1, 2, ("nominal",)),
                  TfpgEdge("f", "w", 2, 4, ("nominal",))])
        reduced = _reduce_or_edges(g, m, nm, 6)
        # dropping f->w would orphan the runs through sw
        assert any(e.src == "f" and e.dst == "w" for e in reduced.edges)


class TestCauseFamiliesOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_families_match_subset_enumeration(self, seed):
        m, _ = random_model(seed)
        rng = random.Random(seed)
        atoms = sorted(m.atoms)
        decls = [decl(f"d{i}", rng.choice([" & ", " | "]).join(
                      rng.sample(atoms, rng.randint(1, 2))))
                 for i in range(rng.randint(2, 3))]
        fms = sorted(m.fault_atoms)
        config = SynthesisConfig(fms, decls, {})
        exprs = {d.name: d.expr for d in decls}

        kept = _reachability_filter(m, config, [])
        alone = {name: brute_force_cause_family(m, fms, e, {})
                 for name, e in exprs.items()}
        assert kept == [name for name, fam in alone.items()
                        if fam and frozenset() not in fam]

        families = _cause_families(m, config, kept, [])
        expected = {name: brute_force_cause_family(
                        m, fms, exprs[name],
                        {c: exprs[c] for c in kept if c != name})
                    for name in kept}
        adjacency = {name: {c for S in fam for c in S if c in expected}
                     for name, fam in expected.items()}
        for name in brute_force_cycle_nodes(adjacency):
            expected[name] = alone[name]
        assert families == expected
