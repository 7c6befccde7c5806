import json
import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from faultkit import tfpg
from faultkit.boolexpr import parse_expr
from faultkit.errors import ModelFormatError, SizeGuardExceeded
from faultkit.model import Trace, parse_model
from faultkit.tfpg import (INF, ActivationTrace, NodeMap, Tfpg, TfpgEdge, TfpgError,
                           activation_trace_from_json, behavioral_validate,
                           check_trace_consistency, export_tfpg_dot, parse_tfpg,
                           tfpg_to_json, tighten_edges, validate_structure)
from faultkit.tfpg_synthesis import SynthesisConfig, synthesize_tfpg

from .conftest import bench_module, corpus_json
from .oracles import (brute_force_behavioral, enumerate_traces, naive_induced_trace,
                      naive_observed_delays, naive_violating_nodes,
                      path_count_by_matrix_power)
from .test_acceptance import random_model


def tiny_graph(tmin=0, tmax=1, modes=("on",)):
    return Tfpg(modes, {"f": "FM", "d": "OR"},
                [TfpgEdge("f", "d", tmin, tmax, tuple(sorted(modes)))])


def induced_rows(g, m, nm, horizon):
    """(trace, its induced activation trace) for every run of horizon + 1
    states, from the rows the run checks read, in the order `_induced`
    yields them."""
    timelines = []
    for run, row in tfpg._induced(g, m, nm, horizon, timelines):
        yield m.trace(run), ActivationTrace(horizon, timelines[row[0]],
                                            dict(zip(sorted(g.nodes), row[1:])))


def induced_activation_trace(g, m, nm, tr):
    """The activation trace tr induces on g, by the projection the run
    checks use: a mapped node activates at the first step its predicate
    holds, an unmapped AND node when its last source does."""
    return next(at for run, at in induced_rows(g, m, nm, len(tr) - 1) if run == tr)


def at(g, horizon, timeline, **times):
    full = {n: times.get(n) for n in g.nodes}
    return ActivationTrace(horizon, tuple(timeline), full)


class TestStructure:
    def test_clean_single_edge(self):
        assert validate_structure(tiny_graph()) == []

    def test_missing_incoming_edge_is_necessity_finding(self):
        g = Tfpg(("on",), {"f": "FM", "d": "OR", "lonely": "AND"},
                 [TfpgEdge("f", "d", 0, 1, ("on",))])
        kinds = {f.kind for f in validate_structure(g)}
        assert "necessity" in kinds

    def test_mode_gap_is_possibility_finding(self, tfpg_modegap):
        findings = validate_structure(tfpg_modegap)
        assert [f for f in findings if f.kind == "possibility" and f.subject == "d2"]
        assert not [f for f in findings if f.subject == "d1"]

    def test_bad_interval_and_unknown_mode(self):
        g = Tfpg(("on",), {"f": "FM", "d": "OR"},
                 [TfpgEdge("f", "d", 3, 1, ("off",))])
        kinds = [f.kind for f in validate_structure(g)]
        assert kinds.count("consistency") >= 2

    def test_edge_into_fm_flagged(self):
        g = Tfpg(("on",), {"f": "FM", "g": "FM", "d": "OR"},
                 [TfpgEdge("f", "g", 0, 1, ("on",)), TfpgEdge("f", "d", 0, 1, ("on",))])
        assert any(f.kind == "consistency" and "incoming" in f.detail
                   for f in validate_structure(g))

    def test_cycle_warning(self):
        g = Tfpg(("on",), {"f": "FM", "d1": "OR", "d2": "OR"},
                 [TfpgEdge("f", "d1", 0, 1, ("on",)),
                  TfpgEdge("d1", "d2", 0, 1, ("on",)),
                  TfpgEdge("d2", "d1", 0, 1, ("on",))])
        assert {f.subject for f in validate_structure(g)
                if f.kind == "cycle-warning"} == {"d1", "d2"}

    def test_corpus_graphs_have_no_errors(self, tfpg_power, tfpg_battery):
        for g in (tfpg_power, tfpg_battery):
            assert validate_structure(g) == []


class TestTraceConsistency:
    def test_simple_propagation(self):
        g = tiny_graph(tmin=1, tmax=2)
        ok, _ = check_trace_consistency(g, at(g, 4, ["on"] * 5, f=0, d=2))
        assert ok

    def test_late_activation_and_missed_deadline(self):
        g = tiny_graph(tmin=1, tmax=2)
        ok, violations = check_trace_consistency(g, at(g, 6, ["on"] * 7, f=0, d=5))
        assert not ok
        assert violations[0].kind == "or-justification"

    def test_inevitability_when_window_completes(self):
        g = tiny_graph(tmin=1, tmax=2)
        ok, violations = check_trace_consistency(g, at(g, 6, ["on"] * 7, f=0))
        assert not ok
        assert violations[0].kind == "or-inevitability"
        assert violations[0].detail == "never activates but forced by step 2"

    def test_corpus_power_traces(self, tfpg_power):
        for name, expect_ok, kind in (("power_trace_ok", True, None),
                                      ("power_trace_late", False, "or-justification"),
                                      ("power_trace_cancel", True, None)):
            doc = corpus_json(f"{name}.json")
            trace = activation_trace_from_json(doc, tfpg_power)
            ok, violations = check_trace_consistency(tfpg_power, trace)
            assert ok == expect_ok, name
            if kind:
                assert violations[0].kind == kind

    def test_mode_switch_cancels_pending_edge(self):
        g = tiny_graph(tmin=0, tmax=2, modes=("on", "off"))
        g = Tfpg(("on", "off"), g.nodes, [TfpgEdge("f", "d", 0, 2, ("on",))])
        # enabled run [0,0] is shorter than the window: nothing is forced
        ok, _ = check_trace_consistency(g, at(g, 4, ["on", "off", "off", "off", "off"], f=0))
        assert ok

    def test_reentry_restarts_the_clock(self):
        g = Tfpg(("on", "off"), {"f": "FM", "d": "OR"},
                 [TfpgEdge("f", "d", 2, 2, ("on",))])
        timeline = ["on", "off", "on", "on", "on", "on"]
        # clock restarts at the re-entry step 2: activation lands at 4
        ok, _ = check_trace_consistency(g, at(g, 5, timeline, f=0, d=4))
        assert ok
        # measuring from the source activation would allow 2: inconsistent
        ok, violations = check_trace_consistency(g, at(g, 5, timeline, f=0, d=2))
        assert not ok and violations[0].kind == "or-justification"
        # and the restarted window forces activation by step 4
        ok, violations = check_trace_consistency(g, at(g, 5, timeline, f=0))
        assert not ok and violations[0].kind == "or-inevitability"
        assert violations[0].detail == "never activates but forced by step 4"

    def test_and_needs_every_edge(self, tfpg_power):
        doc = corpus_json("power_trace_ok.json")
        trace = activation_trace_from_json(doc, tfpg_power)
        trace.times["d_halt"] = 6  # outside d_overheat's [0,1] window
        ok, violations = check_trace_consistency(tfpg_power, trace)
        assert not ok
        assert any(v.kind == "and-justification" and v.node == "d_halt"
                   for v in violations)

    def test_malformed_trace_rejected(self, tfpg_power):
        with pytest.raises(TfpgError):
            check_trace_consistency(
                tfpg_power, ActivationTrace(2, ("primary",), {}))
        with pytest.raises(TfpgError):
            check_trace_consistency(
                tfpg_power,
                ActivationTrace(1, ("primary", "lunar"), {"fm_gen": None}))

    def test_forced_chain_single_choice(self):
        g = tiny_graph(tmin=1, tmax=1)
        consistent = {d for d in (None, 0, 1, 2, 3)
                      if check_trace_consistency(g, at(g, 3, ["on"] * 4, f=0, d=d))[0]}
        assert consistent == {1}  # bounds plus inevitability force exactly 1

    def test_violations_replay(self, tfpg_power):
        doc = corpus_json("power_trace_late.json")
        trace = activation_trace_from_json(doc, tfpg_power)
        first = check_trace_consistency(tfpg_power, trace)
        second = check_trace_consistency(tfpg_power, trace)
        assert first == second and not first[0]


SWITCHING = ("down", "up")


@st.composite
def column_checks(draw):
    """A discrepancy v of either kind with zero to four incoming edges from
    the failure modes a, b and c (parallel ones included), bounds with
    tmin = 0, tmax = inf and tmin > tmax among them, up to three mode
    timelines that switch between down and up, rows (timeline id, a, b, c,
    v) drawn from a small pool so that keys repeat, and a start row."""
    horizon = draw(st.integers(0, 5))
    bound = st.integers(0, horizon + 1)
    edges = draw(st.lists(st.tuples(st.sampled_from("abc"), bound, st.one_of(st.just(INF), bound),
                                    st.sets(st.sampled_from(SWITCHING), min_size=1)),
                          max_size=4))
    kind = draw(st.sampled_from(["OR", "AND"]))
    g = Tfpg(SWITCHING, {"a": "FM", "b": "FM", "c": "FM", "v": kind},
             [TfpgEdge(src, "v", lo, hi, tuple(sorted(modes))) for src, lo, hi, modes in edges])
    timelines = draw(st.lists(st.tuples(*[st.sampled_from(SWITCHING)] * (horizon + 1)),
                              min_size=1, max_size=3))
    time = st.one_of(st.none(), st.integers(0, horizon))
    pool = draw(st.lists(st.tuples(st.integers(0, len(timelines) - 1), time, time, time, time),
                         min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    return g, timelines, rows, draw(st.integers(0, len(rows)))


class TestColumnVerdicts:
    @given(column_checks())
    @settings(max_examples=400, deadline=None)
    def test_first_violation_matches_oracle(self, case):
        """A key decided from per-edge verdicts is bad exactly when
        `naive_violating_nodes` rules the row's trace out, a row's report
        names v exactly then, and the first bad row of a block, from any
        start, is the first row the oracle rules out."""
        g, timelines, rows, start = case
        getters = tfpg._keys(g)
        bad = []
        for row in rows:
            trace = ActivationTrace(len(timelines[0]) - 1, timelines[row[0]],
                                    dict(zip("abcv", row[1:])))
            bad.append(naive_violating_nodes(g, trace) == ["v"])
            alone = tfpg._first_violation(g, g.edges, timelines, getters)
            assert alone("v", [row]) == (0 if bad[-1] else 1)
            reported = tfpg._violations(g, g.edges, row, timelines)
            assert [v.node for v in reported] == (["v"] if bad[-1] else [])
        first = tfpg._first_violation(g, g.edges, timelines, getters)
        want = next((k for k in range(start, len(rows)) if bad[k]), len(rows))
        assert first("v", rows, start) == want
        # keys found consistent from `start` on are not decided again
        least = next((k for k, b in enumerate(bad) if b), len(rows))
        assert first("v", rows) == least
        # a caller's key set decides as the rows do
        given = tfpg._first_violation(g, g.edges, timelines, getters)
        assert given("v", rows, keys=set(map(getters["v"], rows))) == least


class TestBehavioral:
    def test_permissive_graph_is_complete(self, battery, battery_map):
        g = Tfpg(("phase_a", "phase_b", "phase_c"),
                 {"fm_b1": "FM", "fm_b2": "FM", "d_low": "OR", "d_dead": "OR"},
                 [TfpgEdge(u, v, 0, INF, ("phase_a", "phase_b", "phase_c"))
                  for u in ("fm_b1", "fm_b2") for v in ("d_low", "d_dead")])
        assert behavioral_validate(g, battery, battery_map, 6).complete

    def test_corpus_pair_complete(self, tfpg_battery, battery, battery_map):
        assert behavioral_validate(tfpg_battery, battery, battery_map, 8).complete

    def test_too_small_tmax_is_incomplete(self, battery, battery_map, tfpg_battery):
        doc = tfpg_to_json(tfpg_battery)
        for edge in doc["edges"]:
            if edge["to"] == "d_dead":
                edge["tmax"] = 1
        g = parse_tfpg(json.dumps(doc))
        result = behavioral_validate(g, battery, battery_map, 6)
        assert not result.complete
        assert battery.is_trace(result.witness)
        # the witness replays to the same violations
        induced = induced_activation_trace(g, battery, battery_map, result.witness)
        ok, violations = check_trace_consistency(g, induced)
        assert not ok and tuple(violations) == result.violations

    def test_witness_is_lexicographically_least(self, battery, battery_map,
                                                tfpg_battery):
        doc = tfpg_to_json(tfpg_battery)
        for edge in doc["edges"]:
            if edge["to"] == "d_dead":
                edge["tmax"] = 1
        g = parse_tfpg(json.dumps(doc))
        result = behavioral_validate(g, battery, battery_map, 6)
        for tr, (run, induced) in zip(enumerate_traces(battery, 7),
                                      induced_rows(g, battery, battery_map, 6)):
            assert run == tr
            ok, _ = check_trace_consistency(g, induced)
            if not ok:
                assert tr.steps == result.witness.steps
                break

    def test_unmapped_node_rejected(self, battery, tfpg_battery):
        nm = NodeMap({"fm_b1": parse_expr("b1_fail")},
                     {"phase_a": "phase_a", "phase_b": "phase_b",
                      "phase_c": "phase_c"})
        with pytest.raises(TfpgError, match="unmapped"):
            behavioral_validate(tfpg_battery, battery, nm, 4)

    def test_mode_map_must_be_bijection(self, battery, tfpg_battery, battery_map):
        nm = NodeMap(dict(battery_map.exprs), {"phase_a": "phase_a"})
        with pytest.raises(TfpgError, match="bijection"):
            behavioral_validate(tfpg_battery, battery, nm, 4)

    def test_completeness_stable_under_widening(self, battery, battery_map,
                                                tfpg_battery):
        doc = tfpg_to_json(tfpg_battery)
        for edge in doc["edges"]:
            edge["tmax"] = "inf"
        widened = parse_tfpg(json.dumps(doc))
        assert behavioral_validate(widened, battery, battery_map, 6).complete

    def test_long_horizon_stops_early(self, monkeypatch):
        """kofn4's graph synthesized at H=4 fails at H=12 on an early run:
        the check projects far fewer runs than the model has, and its
        witness is the least violating run."""
        gen = bench_module("gen")
        m = parse_model(json.dumps(gen.kofn_phase(4)))
        config = SynthesisConfig.from_json(gen.kofn_tfpg_config(4))
        g, nm = synthesize_tfpg(m, config, 4).tfpg, config.node_map()
        walk, projected = tfpg._induced, []

        def counted(*args):
            for run, row in walk(*args):
                projected.append(run)
                yield run, row

        monkeypatch.setattr(tfpg, "_induced", counted)
        result = behavioral_validate(g, m, nm, 12)
        monkeypatch.undo()
        assert 0 < len(projected) < path_count_by_matrix_power(m, 13) // 10
        for least, (run, at) in zip(enumerate_traces(m, 13), induced_rows(g, m, nm, 12)):
            assert run == least
            if not check_trace_consistency(g, at)[0]:
                break
        assert result.witness.steps == least.steps == (
            "s0_a0", "s0_b0", "s0_c0", "s0_a0", "s0_b0", "s0_c0", "s0_a0", "s0_b0",
            "s1_c0", "s1_a0", "s1_b0", "s1_c0", "s3_a0")
        induced = induced_activation_trace(g, m, nm, result.witness)
        assert list(result.violations) == check_trace_consistency(g, induced)[1]

    def test_violation_before_an_unprojectable_run_is_the_witness(self):
        # runs s a and s z; z has both mode atoms true, and s a violates
        # the [0,0] edge unless its bound is infinite
        m = parse_model(json.dumps({
            "atoms": ["f", "x", "on", "off"], "faults": ["f"], "modes": ["on", "off"],
            "states": {"s": {"on": True}, "a": {"on": True, "f": True},
                       "z": {"on": True, "off": True}},
            "initial": ["s"], "transitions": [["s", "a"], ["s", "z"]]}))
        nm = NodeMap({"f": parse_expr("f"), "d": parse_expr("x")}, {"on": "on", "off": "off"})
        for tmax in (0, INF):
            g = Tfpg(("off", "on"), {"f": "FM", "d": "OR"},
                     [TfpgEdge("f", "d", 0, tmax, ("on",))])
            if tmax == 0:
                assert behavioral_validate(g, m, nm, 1).witness.steps == ("s", "a")
            else:
                with pytest.raises(TfpgError, match="reaches state 'z'"):
                    behavioral_validate(g, m, nm, 1)


def assert_behavioral_matches_oracle(g, m, nm, horizon):
    """behavioral_validate's verdict, witness and violations against the
    least violating trace of the brute-force oracle."""
    result = behavioral_validate(g, m, nm, horizon)
    want = brute_force_behavioral(g, m, nm.exprs, nm.mode_map, horizon)
    assert result.complete == (want is None)
    if want is not None:
        tr, induced, bad = want
        assert result.witness.steps == tr.steps
        assert [v.node for v in result.violations] == bad
        assert list(result.violations) == check_trace_consistency(g, induced)[1]


def assert_tighten_matches_oracle(g, m, nm, horizon):
    """tighten_edges against the delays the oracle observes: it fails
    exactly when relaxing every exercised edge to [least delay, inf] leaves
    the graph incomplete, and otherwise returns a complete graph whose
    exercised edges span the observed delays, or are relaxed."""
    delays = naive_observed_delays(g, m, nm.exprs, nm.mode_map, horizon)
    loosest = Tfpg(g.modes, g.nodes, [
        TfpgEdge(e.src, e.dst, min(delays[i]), INF, e.modes) if delays[i] else e
        for i, e in enumerate(g.edges)])
    if brute_force_behavioral(loosest, m, nm.exprs, nm.mode_map, horizon):
        with pytest.raises(TfpgError, match="not complete"):
            tighten_edges(g, m, nm, horizon)
        return
    result = tighten_edges(g, m, nm, horizon)
    assert brute_force_behavioral(result.tfpg, m, nm.exprs, nm.mode_map, horizon) is None
    for i, change in enumerate(result.changes):
        assert change.exercised == bool(delays[i])
        assert not change.promoted or change.exercised
        if change.exercised:
            hi = INF if change.promoted else max(delays[i])
            assert change.new == (min(delays[i]), hi)
        else:
            assert change.new == change.old


def random_synthesis_config(m, rng):
    """A synthesis config for a `random_model`: every fault a failure mode,
    and two to four discrepancies, each over one or two atoms."""
    atoms = sorted(m.atoms)
    decls = {f"d{i}": {"expr": rng.choice([" & ", " | "]).join(
                           rng.sample(atoms, rng.randint(1, 2))),
                       "kind": rng.choice(["OR", "AND"])}
             for i in range(rng.randint(2, 4))}
    return {"fm": sorted(m.fault_atoms), "discrepancies": decls}


def finite_bounds(g, rng):
    """g with every upper bound drawn from tmin .. tmin + 3."""
    return Tfpg(g.modes, g.nodes, [TfpgEdge(e.src, e.dst, e.tmin, e.tmin + rng.randint(0, 3),
                                            e.modes) for e in g.edges])


class TestBehavioralOracle:
    @pytest.mark.parametrize("horizon", range(1, 9))
    @pytest.mark.parametrize("dead_tmax", [None, 1])
    def test_battery(self, battery, battery_map, tfpg_battery, horizon, dead_tmax):
        doc = tfpg_to_json(tfpg_battery)
        for edge in doc["edges"]:
            if edge["to"] == "d_dead" and dead_tmax is not None:
                edge["tmax"] = dead_tmax
        assert_behavioral_matches_oracle(parse_tfpg(json.dumps(doc)), battery,
                                         battery_map, horizon)

    @pytest.mark.parametrize("seed", [None, *range(6)])
    def test_kofn3_finite_bounds(self, seed):
        gen = bench_module("gen")
        m = parse_model(json.dumps(gen.kofn_phase(3)))
        config = SynthesisConfig.from_json(gen.kofn_tfpg_config(3))
        g = synthesize_tfpg(m, config, 4).tfpg
        if seed is not None:
            g = finite_bounds(g, random.Random(seed))
        assert_behavioral_matches_oracle(g, m, config.node_map(), 4)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_model_finite_bounds(self, seed):
        m, _ = random_model(seed)
        rng = random.Random(seed)
        config = SynthesisConfig.from_json(random_synthesis_config(m, rng))
        g = finite_bounds(synthesize_tfpg(m, config, 4).tfpg, rng)
        assert_behavioral_matches_oracle(g, m, config.node_map(), 4)


def mode_switch_model():
    """A fault f, and a mode that a run may switch at every step, up or
    down.  `warn` latches one step after f holds in up with the next step
    up too; `alarm` may latch, or not, one step after f holds in down with
    the next step down too.  The runs of one horizon see every mode
    timeline, and the same activation times mean different things on
    different timelines."""
    states, transitions = {}, []

    def sid(f, mode, warn, alarm):
        return f"s{f}{mode[0]}{warn}{alarm}"

    for f, mode, warn, alarm in [(f, mode, w, a) for f in (0, 1) for mode in ("up", "down")
                                 for w in (0, 1) for a in (0, 1) if f or not (w or a)]:
        states[sid(f, mode, warn, alarm)] = {
            name: True for name, holds in (("f", f), (mode, True), ("warn", warn),
                                           ("alarm", alarm)) if holds}
        for f2 in sorted({f, 1}):
            for mode2 in ("up", "down"):
                warn2 = int(warn or (f and mode == mode2 == "up"))
                for alarm2 in sorted({alarm, int(f and mode == mode2 == "down")}):
                    transitions.append([sid(f, mode, warn, alarm),
                                        sid(f2, mode2, warn2, alarm2)])
    return parse_model(json.dumps({
        "atoms": ["f", "warn", "alarm", "up", "down"], "faults": ["f"],
        "observables": ["warn", "alarm"], "modes": ["up", "down"],
        "states": states, "initial": [sid(0, "up", 0, 0), sid(0, "down", 0, 0)],
        "transitions": transitions}))


MODE_SWITCH_MAP = NodeMap({"f": parse_expr("f"), "d_warn": parse_expr("warn"),
                           "d_alarm": parse_expr("alarm")}, {"up": "up", "down": "down"})
# (warn edge, alarm edge) bounds; each edge is enabled in one mode only
MODE_SWITCH_BOUNDS = [((1, 1), (1, INF)), ((1, 1), (1, 1)), ((0, 0), (1, INF)),
                      ((0, 2), (1, 2)), ((2, 3), (0, 1))]


def mode_switch_tfpg(warn, alarm):
    return Tfpg(("down", "up"), {"f": "FM", "d_warn": "OR", "d_alarm": "OR"},
                [TfpgEdge("f", "d_warn", *warn, ("up",)),
                 TfpgEdge("f", "d_alarm", *alarm, ("down",))])


class TestModeSwitch:
    def test_one_horizon_has_many_timelines(self):
        m = mode_switch_model()
        g = mode_switch_tfpg(*MODE_SWITCH_BOUNDS[0])
        timelines = {at.mode_timeline for _, at in induced_rows(g, m, MODE_SWITCH_MAP, 4)}
        assert len(timelines) == 2 ** 5

    def test_exact_warn_and_open_alarm_are_complete(self):
        m = mode_switch_model()
        g = mode_switch_tfpg(*MODE_SWITCH_BOUNDS[0])
        assert behavioral_validate(g, m, MODE_SWITCH_MAP, 6).complete

    @pytest.mark.parametrize("horizon", range(1, 7))
    @pytest.mark.parametrize("bounds", MODE_SWITCH_BOUNDS)
    def test_behavioral(self, bounds, horizon):
        assert_behavioral_matches_oracle(mode_switch_tfpg(*bounds), mode_switch_model(),
                                         MODE_SWITCH_MAP, horizon)

    @pytest.mark.parametrize("horizon", range(1, 7))
    @pytest.mark.parametrize("bounds", MODE_SWITCH_BOUNDS)
    def test_tighten(self, bounds, horizon):
        assert_tighten_matches_oracle(mode_switch_tfpg(*bounds), mode_switch_model(),
                                      MODE_SWITCH_MAP, horizon)


# n -> e and no further: runs of two states only
DEADLOCK = {"atoms": ["f", "x"], "faults": ["f"],
            "states": {"n": {}, "e": {"f": True, "x": True}},
            "initial": ["n"], "transitions": [["n", "e"]]}


class TestProjection:
    def assert_matches_oracle(self, g, m, nm, horizon):
        """Every row the walk yields is the oracle's induced trace of its
        run, and the runs are those of enumerate_traces, in its order."""
        exprs = {node: str(e) for node, e in nm.exprs.items()}
        rows = list(induced_rows(g, m, nm, horizon))
        assert [tr for tr, _ in rows] == list(enumerate_traces(m, horizon + 1))
        for tr, at in rows:
            assert at == naive_induced_trace(g, m, exprs, dict(nm.mode_map), tr), tr.steps

    @pytest.mark.parametrize("horizon", [0, 1, 6])
    def test_battery_map(self, battery, tfpg_battery, battery_map, horizon):
        self.assert_matches_oracle(tfpg_battery, battery, battery_map, horizon)

    def test_battery_synthesis_config(self, battery):
        config = SynthesisConfig.from_json(corpus_json("battery_synth.json"))
        g = synthesize_tfpg(battery, config, 6).tfpg
        self.assert_matches_oracle(g, battery, config.node_map(), 6)

    def test_kofn4_unmapped_and_helpers(self):
        gen = bench_module("gen")
        m = parse_model(json.dumps(gen.kofn_phase(4)))
        config = SynthesisConfig.from_json(gen.kofn_tfpg_config(4))
        g, nm = synthesize_tfpg(m, config, 4).tfpg, config.node_map()
        assert sum(node not in nm.exprs for node in g.nodes) == 12
        self.assert_matches_oracle(g, m, nm, 4)

    @pytest.mark.parametrize("horizon", [0, 1, 2])
    def test_deadlock(self, horizon):
        g = Tfpg(("nominal",), {"f": "FM", "d": "OR"},
                 [TfpgEdge("f", "d", 0, INF, ("nominal",))])
        nm = NodeMap({"f": parse_expr("f"), "d": parse_expr("x")}, {})
        self.assert_matches_oracle(g, parse_model(json.dumps(DEADLOCK)), nm, horizon)

    @pytest.mark.parametrize("horizon", range(1, 6))
    def test_mode_switch(self, horizon):
        self.assert_matches_oracle(mode_switch_tfpg(*MODE_SWITCH_BOUNDS[3]), mode_switch_model(),
                                   MODE_SWITCH_MAP, horizon)

    def test_sourceless_unmapped_and_node_feeds_a_helper(self, battery, battery_map):
        # z has no sources, so it and h, which needs it, never activate;
        # h2 joins two failure modes and h3 joins h2 with d_low
        phases = ("phase_a", "phase_b", "phase_c")
        g = Tfpg(phases, {"fm_b1": "FM", "fm_b2": "FM", "d_low": "OR", "d_dead": "OR",
                          "z": "AND", "h": "AND", "h2": "AND", "h3": "AND"},
                 [TfpgEdge(u, v, 0, INF, phases)
                  for u, v in (("fm_b1", "d_low"), ("fm_b2", "d_low"), ("fm_b1", "d_dead"),
                               ("fm_b2", "d_dead"), ("z", "h"), ("fm_b1", "h"),
                               ("fm_b1", "h2"), ("fm_b2", "h2"), ("h2", "h3"),
                               ("d_low", "h3"))])
        self.assert_matches_oracle(g, battery, battery_map, 6)
        active = {n for _, at in induced_rows(g, battery, battery_map, 6)
                  for n, t in at.times.items() if t is not None}
        assert {"h2", "h3"} <= active and not {"z", "h"} & active

    @given(st.integers(0, 59), st.integers(1, 6))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_model_synthesis(self, seed, horizon):
        m, _ = random_model(seed)
        config = SynthesisConfig.from_json(random_synthesis_config(m, random.Random(seed)))
        g = synthesize_tfpg(m, config, horizon).tfpg
        self.assert_matches_oracle(g, m, config.node_map(), horizon)

    def test_state_without_one_mode_atom(self, battery, tfpg_battery, battery_map):
        doc = corpus_json("battery.json")
        first = next(enumerate_traces(battery, 3))
        doc["states"][first[2]]["phase_a"] = doc["states"][first[2]]["phase_b"] = True
        m = parse_model(json.dumps(doc))
        with pytest.raises(TfpgError) as err:
            behavioral_validate(tfpg_battery, m, battery_map, 4)
        assert str(err.value) == (f"a run reaches state {first[2]!r}, where not "
                                  f"exactly one mode atom is true")

    def test_state_without_one_mode_atom_on_a_short_branch(self):
        # a has no mode atom and no successor: s b b is the only run of
        # three states
        m = parse_model(json.dumps({
            "atoms": ["f", "x", "on"], "faults": ["f"], "modes": ["on"],
            "states": {"s": {"on": True}, "a": {}, "b": {"on": True}},
            "initial": ["s"], "transitions": [["s", "a"], ["s", "b"], ["b", "b"]]}))
        g = Tfpg(("on",), {"f": "FM", "d": "OR"}, [TfpgEdge("f", "d", 0, INF, ("on",))])
        nm = NodeMap({"f": parse_expr("f"), "d": parse_expr("x")}, {"on": "on"})
        assert behavioral_validate(g, m, nm, 2).complete
        tighten_edges(g, m, nm, 2)
        for check in (behavioral_validate, tighten_edges):
            with pytest.raises(TfpgError, match="reaches state 'a'"):
                check(g, m, nm, 1)

    @pytest.mark.parametrize("initial_branch, named", [(True, "z"), (False, "m")])
    def test_error_names_the_first_such_state_of_the_least_such_run(self, initial_branch,
                                                                    named):
        # runs s g z, s m k and s t t; z, m and k have no mode atom.  The
        # least such run is s g z; without s -> g it is s m k, whose first
        # such state m is not its least
        transitions = [["g", "z"], ["s", "m"], ["m", "k"], ["s", "t"], ["t", "t"]]
        m = parse_model(json.dumps({
            "atoms": ["f", "x", "on"], "faults": ["f"], "modes": ["on"],
            "states": {"s": {"on": True}, "g": {"on": True}, "t": {"on": True},
                       "z": {}, "m": {}, "k": {}},
            "initial": ["s"], "transitions": transitions + [["s", "g"]] * initial_branch}))
        g = Tfpg(("on",), {"f": "FM", "d": "OR"}, [TfpgEdge("f", "d", 0, INF, ("on",))])
        nm = NodeMap({"f": parse_expr("f"), "d": parse_expr("x")}, {"on": "on"})
        for check in (behavioral_validate, tighten_edges):
            with pytest.raises(TfpgError) as err:
                check(g, m, nm, 2)
            assert str(err.value) == (f"a run reaches state {named!r}, where not "
                                      f"exactly one mode atom is true")

    def test_cyclic_unmapped_and_nodes(self):
        g = Tfpg(("nominal",), {"f": "FM", "d": "OR", "h1": "AND", "h2": "AND"},
                 [TfpgEdge(u, v, 0, INF, ("nominal",))
                  for u, v in (("f", "d"), ("f", "h1"), ("h1", "h2"), ("h2", "h1"))])
        m = parse_model(json.dumps(DEADLOCK))
        nm = NodeMap({"f": parse_expr("f"), "d": parse_expr("x")}, {})
        with pytest.raises(TfpgError) as err:
            behavioral_validate(g, m, nm, 1)
        assert str(err.value) == "cyclic unmapped AND nodes: ['h1', 'h2']"
        # raised only on a projected run, and no run has three states
        assert behavioral_validate(g, m, nm, 2).complete


def walked_runs(m, horizon):
    """The runs `_induced` walks, on a graph without nodes, as traces."""
    g = Tfpg(sorted(m.mode_atoms) or ["nominal"], {}, [])
    nm = NodeMap({}, {a: a for a in m.mode_atoms})
    return [m.trace(run) for run, _ in tfpg._induced(g, m, nm, horizon, [])]


class TestRunEnumeration:
    SELFLOOP = {"atoms": ["x"], "states": {"s0": {}}, "initial": ["s0"],
                "transitions": [["s0", "s0"]]}

    def test_single_selfloop_one_run(self):
        assert len(walked_runs(parse_model(json.dumps(self.SELFLOOP)), 2)) == 1

    def test_long_run_does_not_recurse(self):
        # past Python's recursion limit of 1000
        m = parse_model(json.dumps(self.SELFLOOP))
        assert walked_runs(m, 4999) == [Trace(("s0",) * 5000)]

    def test_long_run_memory_is_linear(self):
        # the prefix is shared by the frames, not copied into each: a
        # quadratic walk would hold some 25M tuple slots here
        m = parse_model(json.dumps(self.SELFLOOP))
        g = Tfpg(("nominal",), {"f": "FM"}, [])
        nm = NodeMap({"f": parse_expr("x")}, {})
        tracemalloc.start()
        try:
            runs = [run for run, _ in tfpg._induced(g, m, nm, 4999, [])]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert runs == [(0,) * 5000]
        assert peak < 4_000_000

    def test_two_branches(self):
        doc = {"atoms": [], "states": {"a": {}, "b": {}, "c": {}},
               "initial": ["a"],
               "transitions": [["a", "b"], ["a", "c"], ["b", "b"], ["c", "c"]]}
        assert len(walked_runs(parse_model(json.dumps(doc)), 1)) == 2

    def test_duplicate_initial_ids_counted_once(self):
        doc = {"atoms": ["f"], "faults": ["f"], "states": {"a": {"f": True}, "b": {"f": True}},
               "transitions": [["a", "b"], ["b", "a"]]}
        once, twice = (parse_model(json.dumps({**doc, "initial": initial}))
                       for initial in (["a"], ["a", "a"]))
        assert walked_runs(twice, 3) == walked_runs(once, 3) == [Trace(("a", "b", "a", "b"))]

    def test_negative_horizon_rejected(self, battery):
        with pytest.raises(ValueError):
            walked_runs(battery, -1)

    @pytest.mark.parametrize("horizon", [0, 1, 2, 3, 4])
    def test_count_matches_adjacency_power(self, battery, horizon):
        # distinct traces of the records, as many as the records allow
        traces = walked_runs(battery, horizon)
        assert all(map(battery.is_trace, traces)) and len(set(traces)) == len(traces)
        assert len(traces) == path_count_by_matrix_power(battery, horizon + 1)

    def test_faults_monotone_along_traces(self, battery):
        for tr in walked_runs(battery, 4):
            previous = frozenset()
            for sid in tr.steps:
                current = frozenset(f for f in battery.fault_atoms if battery.states[sid][f])
                assert previous <= current
                previous = current

    def test_lexicographic_order(self, sensor_delay):
        traces = [tr.steps for tr in walked_runs(sensor_delay, 2)]
        assert traces == sorted(traces)

    @pytest.mark.parametrize("horizon", [0, 3, 6])
    def test_oracle_enumeration_matches_runs(self, battery, sensor_delay, horizon):
        for m in (battery, sensor_delay):
            assert list(enumerate_traces(m, horizon + 1)) == walked_runs(m, horizon)


class TestRunGuard:
    def test_limit_at_the_exact_run_count(self, monkeypatch, battery, battery_map,
                                          tfpg_battery):
        runs = path_count_by_matrix_power(battery, 7)
        monkeypatch.setattr(tfpg, "RUN_LIMIT", runs)
        assert behavioral_validate(tfpg_battery, battery, battery_map, 6).complete
        tighten_edges(tfpg_battery, battery, battery_map, 6)
        monkeypatch.setattr(tfpg, "RUN_LIMIT", runs - 1)
        for check in (behavioral_validate, tighten_edges):
            with pytest.raises(SizeGuardExceeded,
                               match=f"more than {runs - 1} runs of 7 states"):
                check(tfpg_battery, battery, battery_map, 6)

    def test_runs_that_end_early_do_not_count(self, monkeypatch):
        # four runs s a* z reach the deadlock z; only s y y y is long enough
        doc = {"atoms": ["f", "x"], "faults": ["f"],
               "states": {n: {} for n in ("s", "a1", "a2", "a3", "a4", "z", "y")},
               "initial": ["s"],
               "transitions": [["s", "y"], ["y", "y"]] + [
                   pair for a in ("a1", "a2", "a3", "a4") for pair in (["s", a], [a, "z"])]}
        m = parse_model(json.dumps(doc))
        g = Tfpg(("nominal",), {"f": "FM", "d": "OR"},
                 [TfpgEdge("f", "d", 0, INF, ("nominal",))])
        nm = NodeMap({"f": parse_expr("f"), "d": parse_expr("x")}, {})
        monkeypatch.setattr(tfpg, "RUN_LIMIT", 3)
        assert behavioral_validate(g, m, nm, 3).complete
        with pytest.raises(SizeGuardExceeded):
            behavioral_validate(g, m, nm, 2)


EXACT_TWO_STEP = {
    "atoms": ["fault", "warn"],
    "faults": ["fault"],
    "observables": ["warn"],
    "modes": [],
    "states": {"n": {},
               "f0": {"fault": True},
               "f1": {"fault": True},
               "f2": {"fault": True, "warn": True}},
    "initial": ["n"],
    "transitions": [["n", "n"], ["n", "f0"], ["f0", "f1"], ["f1", "f2"],
                    ["f2", "f2"]],
}


class TestTighten:
    def exact_two_step(self):
        m = parse_model(json.dumps(EXACT_TWO_STEP))
        g = Tfpg(("nominal",), {"fault": "FM", "d_warn": "OR"},
                 [TfpgEdge("fault", "d_warn", 0, 10, ("nominal",))])
        nm = NodeMap({"fault": parse_expr("fault"), "d_warn": parse_expr("warn")}, {})
        return m, g, nm

    def test_exact_delay_discovered(self):
        m, g, nm = self.exact_two_step()
        result = tighten_edges(g, m, nm, 8)
        edge = result.tfpg.edges[0]
        assert (edge.tmin, edge.tmax) == (2, 2)

    def test_exact_bounds_are_fixpoint(self):
        m, g, nm = self.exact_two_step()
        once = tighten_edges(g, m, nm, 8)
        twice = tighten_edges(once.tfpg, m, nm, 8)
        assert tfpg_to_json(twice.tfpg) == tfpg_to_json(once.tfpg)

    def test_never_exercised_edge_reported_and_unchanged(self):
        m, g, nm = self.exact_two_step()
        g2 = Tfpg(("nominal",), {**g.nodes, "d_ghost": "OR"},
                  list(g.edges) + [TfpgEdge("fault", "d_ghost", 3, INF, ("nominal",))])
        nm2 = NodeMap({**nm.exprs, "d_ghost": parse_expr("false")}, {})
        result = tighten_edges(g2, m, nm2, 8)
        ghost = [e for e in result.tfpg.edges if e.dst == "d_ghost"][0]
        assert (ghost.tmin, ghost.tmax) == (3, INF)
        never_exercised = [c.description for c in result.changes if not c.exercised]
        assert any("d_ghost" in desc for desc in never_exercised)

    def test_incomplete_input_rejected(self):
        # a bounded edge to an unreachable discrepancy forces activations
        # the model never produces; tightening refuses to silently fix it
        m, g, nm = self.exact_two_step()
        g2 = Tfpg(("nominal",), {**g.nodes, "d_ghost": "OR"},
                  list(g.edges) + [TfpgEdge("fault", "d_ghost", 3, 7, ("nominal",))])
        nm2 = NodeMap({**nm.exprs, "d_ghost": parse_expr("false")}, {})
        with pytest.raises(TfpgError, match="not complete"):
            tighten_edges(g2, m, nm2, 8)

    def test_relaxation_that_leaves_the_run_failing_is_rejected(self):
        # one run forces warn through fault -> d_warn, which is relaxed, and
        # through the never exercised g -> d_warn, which cannot be
        m = parse_model(json.dumps({
            "atoms": ["fault", "warn", "g"], "faults": ["fault"],
            "observables": ["warn"], "modes": [],
            "states": {"n": {}, "f": {"fault": True},
                       "fw": {"fault": True, "warn": True},
                       "fwg": {"fault": True, "warn": True, "g": True},
                       "fg": {"fault": True, "g": True}},
            "initial": ["n"],
            "transitions": [["n", "f"], ["f", "fw"], ["f", "fg"], ["fw", "fwg"],
                            ["fwg", "fwg"], ["fg", "fg"]]}))
        g = Tfpg(("nominal",), {"fault": "FM", "g": "FM", "d_warn": "OR"},
                 [TfpgEdge("fault", "d_warn", 0, 10, ("nominal",)),
                  TfpgEdge("g", "d_warn", 0, 1, ("nominal",))])
        nm = NodeMap({n: parse_expr(a) for n, a in
                      (("fault", "fault"), ("g", "g"), ("d_warn", "warn"))}, {})
        with pytest.raises(TfpgError, match="not complete.*forced by step 3"):
            tighten_edges(g, m, nm, 6)

    def test_promotion_on_unguaranteed_propagation(self, intermittent):
        g = Tfpg(("nominal",), {"fault": "FM", "d_warn": "OR"},
                 [TfpgEdge("fault", "d_warn", 0, 10, ("nominal",))])
        nm = NodeMap({"fault": parse_expr("fault"), "d_warn": parse_expr("warn")}, {})
        result = tighten_edges(g, intermittent, nm, 6)
        edge = result.tfpg.edges[0]
        assert edge.tmin == 1 and edge.tmax == INF
        assert any(c.promoted for c in result.changes)
        assert behavioral_validate(result.tfpg, intermittent, nm, 6).complete

    def test_tighten_battery_preserves_completeness(self, tfpg_battery, battery,
                                                    battery_map):
        result = tighten_edges(tfpg_battery, battery, battery_map, 8)
        assert behavioral_validate(result.tfpg, battery, battery_map, 8).complete
        again = tighten_edges(result.tfpg, battery, battery_map, 8)
        assert tfpg_to_json(again.tfpg) == tfpg_to_json(result.tfpg)


class TestParallelEdges:
    def test_tightening_swaps_and_promotes_parallel_edges(self):
        # f holds from step 0; d follows 3 steps later in mode a, and 1 or 2
        # steps later, or never, in mode b.  The mode never switches.
        m = parse_model(json.dumps({
            "atoms": ["f", "d", "a", "b"], "faults": ["f"], "observables": ["d"],
            "modes": ["a", "b"],
            "states": {"a0": {"f": True, "a": True}, "a1": {"f": True, "a": True},
                       "a2": {"f": True, "a": True},
                       "a3": {"f": True, "a": True, "d": True},
                       "b0": {"f": True, "b": True}, "c1": {"f": True, "b": True},
                       "b1": {"f": True, "b": True, "d": True},
                       "n2": {"f": True, "b": True}},
            "initial": ["a0", "b0"],
            "transitions": [["a0", "a1"], ["a1", "a2"], ["a2", "a3"], ["a3", "a3"],
                            ["b0", "b1"], ["b0", "c1"], ["c1", "b1"], ["c1", "n2"],
                            ["b1", "b1"], ["n2", "n2"]]}))
        nm = NodeMap({"f": parse_expr("f"), "d": parse_expr("d")}, {"a": "a", "b": "b"})
        g = Tfpg(("a", "b"), {"f": "FM", "d": "OR"},
                 [TfpgEdge("f", "d", 0, 10, ("a",)), TfpgEdge("f", "d", 1, 10, ("b",))])
        assert behavioral_validate(g, m, nm, 5).complete
        result = tighten_edges(g, m, nm, 5)
        # the observed bounds [3,3] and [1,2] sort the mode-b edge first; it
        # is then promoted, since d may never follow f in mode b
        assert [e.describe() for e in result.tfpg.edges] == \
            ["f -> d [1,inf] {b}", "f -> d [3,3] {a}"]
        assert [(c.description, c.old, c.new, c.exercised, c.promoted)
                for c in result.changes] == [
            ("f -> d [0,10] {a}", (0, 10), (3, 3), True, False),
            ("f -> d [1,10] {b}", (1, 10), (1, INF), True, True)]
        assert behavioral_validate(result.tfpg, m, nm, 5).complete
        again = tighten_edges(result.tfpg, m, nm, 5)
        assert again.tfpg.edges == result.tfpg.edges
        assert [c.new for c in again.changes] == [c.old for c in again.changes]


class TestSerialization:
    def test_round_trip(self, tfpg_power):
        doc = tfpg_to_json(tfpg_power)
        assert tfpg_to_json(parse_tfpg(json.dumps(doc))) == doc

    def test_edge_is_frozen(self, tfpg_power):
        edge = tfpg_power.edges[0]
        with pytest.raises(AttributeError):
            edge.tmax = INF
        assert edge == parse_tfpg(json.dumps(tfpg_to_json(tfpg_power))).edges[0]
        assert edge != TfpgEdge(edge.src, edge.dst, edge.tmin, INF, edge.modes)

    @pytest.mark.parametrize("edge", [
        {"tmin": 0, "tmax": 1, "modes": "on"},
        {"tmin": "0", "tmax": 1, "modes": ["on"]},
        {"tmin": 0, "tmax": None, "modes": ["on"]},
        {"tmin": True, "tmax": 1, "modes": ["on"]},
    ], ids=["modes-string", "tmin-string", "tmax-null", "tmin-bool"])
    def test_mistyped_edge_rejected(self, edge):
        doc = {"modes": ["on"], "nodes": {"f": "FM", "d": "OR"},
               "edges": [{"from": "f", "to": "d", **edge}]}
        with pytest.raises(ModelFormatError):
            parse_tfpg(json.dumps(doc))

    def test_repeated_key_rejected(self):
        text = ('{"modes": ["on"], "nodes": {"f": "FM", "d": "OR", "d": "AND"}, '
                '"edges": []}')
        with pytest.raises(ModelFormatError, match="duplicate key 'd'"):
            parse_tfpg(text)

    @pytest.mark.parametrize("doc", [
        {"horizon": "1", "mode_timeline": ["primary", "primary"]},
        {"horizon": 1, "mode_timeline": "pp"},
        {"horizon": 1, "mode_timeline": ["primary", "primary"], "activations": []},
        {"horizon": 1, "mode_timeline": ["primary", "primary"],
         "activations": {"fm_gen": "0"}},
    ], ids=["horizon-string", "timeline-string", "activations-list",
            "activation-string"])
    def test_mistyped_activation_trace_rejected(self, tfpg_power, doc):
        with pytest.raises(ModelFormatError):
            activation_trace_from_json(doc, tfpg_power)

    def test_infinite_bound_round_trip(self):
        g = tiny_graph(0, INF)
        doc = tfpg_to_json(g)
        assert doc["edges"][0]["tmax"] == "inf"
        assert parse_tfpg(json.dumps(doc)).edges[0].tmax == INF

    def test_dot_shapes(self, tfpg_power):
        dot = export_tfpg_dot(tfpg_power)
        assert '"fm_gen" [shape=box, style=dotted];' in dot
        assert '"d_halt" [shape=box];' in dot
        assert '"d_press" [shape=circle];' in dot
