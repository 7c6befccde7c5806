import copy
import json
import os
import pickle
import random
import subprocess
import sys

import pytest

from faultkit.boolexpr import parse_expr
from faultkit.diagnosability import check_diagnosability
from faultkit.errors import ModelFormatError, ObservationError
from faultkit.fdispec import (AlarmSpec, BoundedDelay, ExactDelay, FiniteDelay,
                              delay_memory, load_specs, parse_specs, trackers_for)
from faultkit.model import Trace, load_model, parse_model
from faultkit.synthesis import (Diagnoser, _check_completeness_global, _check_correctness,
                                _check_maximality, _Product, diagnoser_from_json,
                                diagnoser_to_json, dump_diagnoser, export_diagnoser_dot,
                                load_diagnoser, run_diagnoser, synthesize_diagnoser,
                                verify_diagnoser)

from .conftest import bench_module, corpus_path
from .oracles import (PartialCandidate, brute_force_finite_completeness,
                      brute_force_product_counterexample, brute_force_trace_completeness,
                      enumerate_traces, knowledge_by_enumeration, successor_ids)

FAULT = parse_expr("fault")

# A decoded belief: a frozenset of (state id, one memory per tracker).
Belief = frozenset


def belief_certain(belief: Belief, index: int, trackers) -> bool:
    """The tracked condition is known iff it holds in every decoded member."""
    holds = delay_memory(trackers[index][0])[3]
    return all(holds(mems[index]) for _, mems in belief)


def spec(delay, diag="global", maximal=True):
    return AlarmSpec("A", FAULT, delay, diag, maximal)


class TestSynthesize:
    def test_fully_observable_beliefs_are_singletons(self, fully_obs):
        d = synthesize_diagnoser(fully_obs, [spec(ExactDelay(1))])
        assert all(len(b) == 1 for b in d.beliefs.values())

    def test_fully_observable_alarm_fires_exactly_n_after(self, fully_obs):
        d = synthesize_diagnoser(fully_obs, [spec(ExactDelay(1))])
        tr = Trace(("a", "b", "c", "c"))
        obs = [{a: fully_obs.states[s].get(a, False) for a in fully_obs.observable_atoms}
               for s in tr.steps]
        alarms = run_diagnoser(d, obs)
        # condition first true at step 1, exact delay 1: alarm at step 2 on
        assert [sorted(a) for a in alarms] == [[], [], ["A"], ["A"]]

    def test_unobservable_model_never_raises(self, unobservable):
        for delay in (ExactDelay(1), BoundedDelay(2), FiniteDelay()):
            d = synthesize_diagnoser(unobservable, [spec(delay)])
            assert all(not alarms for alarms in d.nodes.values())

    def test_sensor_alarm_step_matches_knowledge_oracle(self, sensor_delay):
        d = synthesize_diagnoser(sensor_delay, [spec(BoundedDelay(3))])
        for tr in enumerate_traces(sensor_delay, 7):
            obs = [{a: sensor_delay.states[s].get(a, False) for a in sensor_delay.observable_atoms}
                   for s in tr.steps]
            alarms = run_diagnoser(d, obs)
            for t in range(len(tr)):
                expected = knowledge_by_enumeration(
                    sensor_delay, tr, t, BoundedDelay(3), FAULT)
                assert ("A" in alarms[t]) == expected

    def test_annotation_requires_every_member(self, sensor_delay):
        s = spec(BoundedDelay(3))
        d = synthesize_diagnoser(sensor_delay, [s])
        trackers = trackers_for([s])
        for nid, belief in d.beliefs.items():
            certain = belief_certain(belief, 0, trackers)
            assert ("A" in d.nodes[nid]) == certain
            for _, mems in belief:
                if not delay_memory(s.delay)[3](mems[0]):
                    assert "A" not in d.nodes[nid]

    def test_every_alarm_of_a_node_is_known_in_every_member(self):
        # the three alarms of a random-partial pool model share each belief
        gen = bench_module("gen")
        rng = random.Random("partial-pool/9")
        m = parse_model(json.dumps(gen.partial_model(rng, observables=5)))
        specs = parse_specs(json.dumps([
            {"alarm": f"a{j}", "beta": beta, "delay": delay, "maximal": True}
            for j, (beta, delay) in enumerate(zip(gen.partial_conditions(rng),
                                                  gen.PARTIAL_DELAYS))]))
        d = synthesize_diagnoser(m, specs)
        trackers = trackers_for(specs)
        for nid, belief in d.beliefs.items():
            assert d.nodes[nid] == {s.name for i, s in enumerate(specs)
                                    if belief_certain(belief, i, trackers)}
        # every subset of the three alarms labels some node
        assert len(set(d.nodes.values())) == 8

    def test_no_alarms_leave_every_node_without_one(self, sensor_delay, intermittent):
        # no trackers: a belief's mask of known formulas has no bit to read
        for m in (sensor_delay, intermittent):
            d = synthesize_diagnoser(m, [])
            assert d.nodes and all(alarms == frozenset() for alarms in d.nodes.values())

    def test_belief_count_within_bound(self, sensor_delay, intermittent):
        second = AlarmSpec("B", FAULT, FiniteDelay(), "global", True)
        for m in (sensor_delay, intermittent):
            d = synthesize_diagnoser(m, [spec(ExactDelay(2)), second])
            # one node per distinct belief
            assert len(d.nodes) == len(set(d.beliefs.values()))

    def test_duplicate_alarm_names_rejected(self, sensor_delay):
        with pytest.raises(ValueError):
            synthesize_diagnoser(sensor_delay, [spec(ExactDelay(1)),
                                                spec(FiniteDelay())])

    def test_synthesis_is_deterministic(self, sensor_delay):
        a = diagnoser_to_json(synthesize_diagnoser(sensor_delay, [spec(BoundedDelay(2))]))
        b = diagnoser_to_json(synthesize_diagnoser(sensor_delay, [spec(BoundedDelay(2))]))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestRunDiagnoser:
    def test_single_observation_run(self, sensor_delay):
        d = synthesize_diagnoser(sensor_delay, [spec(FiniteDelay())])
        assert len(run_diagnoser(d, [{"warn": False}])) == 1

    def test_impossible_observation_names_step(self, sensor_delay):
        d = synthesize_diagnoser(sensor_delay, [spec(FiniteDelay())])
        # warn cannot be true at step 0
        with pytest.raises(ObservationError) as err:
            run_diagnoser(d, [{"warn": True}])
        assert err.value.step == 0
        # warn cannot come right after the first step
        with pytest.raises(ObservationError) as err:
            run_diagnoser(d, [{"warn": False}, {"warn": True}])
        assert err.value.step == 1

    def test_observation_domain_checked(self, sensor_delay):
        d = synthesize_diagnoser(sensor_delay, [spec(FiniteDelay())])
        with pytest.raises(ObservationError):
            run_diagnoser(d, [{"bogus": True}])
        # a malformed observation after the first names its step
        first = [{"warn": False}, {"warn": False}]
        with pytest.raises(ObservationError, match="^observation at step 2: ") as err:
            run_diagnoser(d, [*first, {"fault": True}])
        assert err.value.step == 2
        with pytest.raises(ObservationError, match="^observation at step 2: ") as err:
            run_diagnoser(d, [*first, {"warn": 1}])
        assert err.value.step == 2

    def test_output_is_function_of_observations(self, sensor_delay):
        d = synthesize_diagnoser(sensor_delay, [spec(BoundedDelay(3))])
        seen = {}
        for tr in enumerate_traces(sensor_delay, 6):
            obs = tuple(sensor_delay.observation(s) for s in tr.steps)
            out = tuple(frozenset(a) for a in run_diagnoser(
                d, [{a: sensor_delay.states[s].get(a, False)
                     for a in sensor_delay.observable_atoms} for s in tr.steps]))
            if obs in seen:
                assert seen[obs] == out
            seen[obs] = out


def mute_diagnoser(m) -> Diagnoser:
    """Total, deterministic, never raises any alarm."""
    observations = sorted({m.observation(s) for s in m.states})
    atoms = m.observable_atoms_sorted
    return Diagnoser(atoms, {"q": frozenset()},
                     {obs: "q" for obs in observations},
                     {"q": {obs: "q" for obs in observations}})


def eager_diagnoser(m, alarm="A") -> Diagnoser:
    """Raises the alarm at every step from the start."""
    observations = sorted({m.observation(s) for s in m.states})
    atoms = m.observable_atoms_sorted
    return Diagnoser(atoms, {"q": frozenset({alarm})},
                     {obs: "q" for obs in observations},
                     {"q": {obs: "q" for obs in observations}})


class TestVerify:
    def test_synthesized_passes_on_diagnosable_model(self, sensor_delay,
                                                     sensor_specs):
        for name in ("a_exact2", "a_bound2", "a_bound3", "a_finite"):
            s = sensor_specs[name]
            d = synthesize_diagnoser(sensor_delay, [s])
            verdict = verify_diagnoser(sensor_delay, d, s)
            assert verdict.all_hold, (name, verdict.to_json())

    def test_completeness_fails_when_not_diagnosable(self, sensor_delay,
                                                     sensor_specs):
        for name in ("a_exact1", "a_bound1"):
            s = sensor_specs[name]
            assert not check_diagnosability(sensor_delay, s).diagnosable
            d = synthesize_diagnoser(sensor_delay, [s])
            verdict = verify_diagnoser(sensor_delay, d, s)
            assert verdict.correctness.holds
            assert verdict.maximality.holds
            assert not verdict.completeness.holds
            assert sensor_delay.is_trace(verdict.completeness.counterexample)

    def test_trace_row_completeness_holds_even_if_not_diagnosable(
            self, sensor_delay, intermittent, sensor_specs, intermittent_specs):
        for m, specs in ((sensor_delay, sensor_specs),
                         (intermittent, intermittent_specs)):
            for s in specs.values():
                if s.diag != "trace":
                    continue
                d = synthesize_diagnoser(m, [s])
                verdict = verify_diagnoser(m, d, s)
                assert verdict.completeness.holds, (s.name, verdict.to_json())

    def test_mute_diagnoser(self, sensor_delay, sensor_specs):
        s = sensor_specs["a_bound3"]
        d = mute_diagnoser(sensor_delay)
        verdict = verify_diagnoser(sensor_delay, d, s)
        assert verdict.correctness.holds          # vacuous
        assert not verdict.completeness.holds
        assert not verdict.maximality.holds
        cx = verdict.completeness.counterexample
        assert sensor_delay.is_trace(cx)
        assert any(sensor_delay.holds(FAULT, x) for x in cx.steps)

    def test_mute_diagnoser_fails_finite_completeness_with_lasso(
            self, sensor_delay, sensor_specs):
        s = sensor_specs["a_finite"]
        verdict = verify_diagnoser(sensor_delay, mute_diagnoser(sensor_delay), s)
        assert not verdict.completeness.holds
        assert verdict.completeness.loop_start is not None
        cx = verdict.completeness.counterexample
        assert sensor_delay.is_trace(cx)
        # the lasso closes: the last state revisits the loop entry
        assert cx.steps[verdict.completeness.loop_start] == cx.steps[-1]

    def test_eager_diagnoser_fails_correctness(self, sensor_delay, sensor_specs):
        s = sensor_specs["a_bound3"]
        verdict = verify_diagnoser(sensor_delay,
                                   eager_diagnoser(sensor_delay, s.name), s)
        assert not verdict.correctness.holds
        cx = verdict.correctness.counterexample
        assert sensor_delay.is_trace(cx)
        # counterexample run is condition-free in the alarm window
        assert not any(sensor_delay.holds(FAULT, x) for x in cx.steps)

    def test_forcing_alarm_on_uncertain_belief_breaks_correctness(
            self, sensor_delay, sensor_specs):
        # maximality is literal: raising anywhere certainty fails must create
        # a correctness violation witnessed through a non-satisfying member
        s = sensor_specs["a_bound3"]
        d = synthesize_diagnoser(sensor_delay, [s])
        trackers = trackers_for([s])
        target = next(nid for nid in sorted(d.nodes)
                      if not belief_certain(d.beliefs[nid], 0, trackers))
        forced = Diagnoser(d.obs_atoms,
                           {**d.nodes, target: frozenset({s.name})},
                           d.entry, d.delta)
        verdict = verify_diagnoser(sensor_delay, forced, s)
        assert not verdict.correctness.holds
        cx = verdict.correctness.counterexample
        assert sensor_delay.is_trace(cx)

    @pytest.mark.parametrize("seed,run,loop_start", [
        (3, ["m0_l0", "m0_l0", "m1_l0", "m9_l1", "m9_l0", "m11_l0", "m11_l0"], 5),
        (4, ["m0_l0", "m0_l1", "m0_l2", "m0_l2", "m2_l2", "m10_l1", "m10_l1", "m10_l1",
             "m10_l1"], 7),
        (6, ["m0_l0", "m0_l0", "m2_l1", "m2_l0", "m2_l0", "m2_l1", "m10_l0", "m10_l0",
             "m10_l0", "m10_l0"], 8)])
    def test_finite_lasso_tries_pending_nodes_in_order(self, seed, run, loop_start):
        # The cycle search starts from the pending product nodes in (state
        # id, candidate node name, decoded belief) order.
        from .test_acceptance import random_model

        m, tle = random_model(seed)
        verdict = verify_diagnoser(m, mute_diagnoser(m),
                                   AlarmSpec("A", parse_expr(tle), FiniteDelay()))
        assert verdict.completeness.to_json() == {
            "holds": False, "counterexample": run, "loop_start": loop_start}

    @pytest.mark.parametrize("seed", [3, 4, 6])
    def test_finite_lasso_does_not_depend_on_string_hashing(self, seed, tmp_path):
        # Several pending product nodes share the lasso's first state here;
        # which of them the cycle search tries first must not follow the
        # iteration order of a set.
        from .test_acceptance import random_model

        m, tle = random_model(seed)
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "atoms": sorted(m.atoms), "faults": sorted(m.fault_atoms),
            "observables": sorted(m.observable_atoms), "states": m.states,
            "initial": list(m.initial), "transitions": [[a, b] for a, nxts in successor_ids(m).items() for b in nxts]}))
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps([{"alarm": "A", "beta": tle,
                                          "delay": {"kind": "finite"}}]))
        candidate = tmp_path / "mute.json"
        candidate.write_text(json.dumps(diagnoser_to_json(mute_diagnoser(m))))
        outputs = set()
        for hash_seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "faultkit.cli", "verify-diagnoser", "--model", str(model),
                 "--spec", str(spec_file), "--alarm", "A", "--diagnoser", str(candidate)],
                capture_output=True, env={**os.environ, "PYTHONHASHSEED": hash_seed})
            assert proc.returncode == 1, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_alphabet_mismatch_rejected(self, sensor_delay, fully_obs,
                                        sensor_specs):
        d = synthesize_diagnoser(fully_obs, [spec(FiniteDelay())])
        with pytest.raises(ObservationError):
            verify_diagnoser(sensor_delay, d, sensor_specs["a_finite"])


# Every conjunct is violated before the gap is met.  Correctness is
# violated at b, claimed at depth 1: q1 raises the alarm with no condition a
# step ago.  Completeness and maximality are violated at b2, claimed at
# depth 2: the condition held at b and q3 raises nothing.  The gap, q4 with
# no move for the observation of d2, is met only when d, of depth 2, is
# expanded.
GAP_MODEL = {"atoms": ["fault", "x"], "faults": ["fault"], "observables": ["x"],
             "states": {"a": {}, "b": {"fault": True, "x": True}, "b2": {"x": True},
                        "c": {}, "d": {}, "d2": {}},
             "initial": ["a"],
             "transitions": [["a", "b"], ["a", "c"], ["b", "b2"], ["b2", "b2"],
                             ["c", "d"], ["d", "d2"], ["d2", "d2"]]}
X0, X1 = '{"x":false}', '{"x":true}'
GAP_CANDIDATE = {"observables": ["x"],
                 "nodes": {"q0": [], "q1": ["A"], "q2": [], "q3": [], "q4": []},
                 "entry": {X0: "q0"},
                 "delta": {"q0": {X0: "q2", X1: "q1"}, "q1": {X1: "q3"}, "q2": {X0: "q4"},
                           "q3": {X1: "q3"}, "q4": {}}}
GAP = "candidate is partial: node 'q4' cannot consume the observation of state 'd2'"
GAP_SPEC = spec(ExactDelay(1))
GAP_CONJUNCTS = {"correctness": _check_correctness,
                 "completeness": lambda product: _check_completeness_global(product, GAP_SPEC),
                 "maximality": _check_maximality}


class TestPartialCandidate:
    def test_violation_before_the_gap_still_raises_the_gap(self):
        # A total candidate's safety search stops at its first violation; a
        # partial one's must run on to the gap.
        m, s = parse_model(json.dumps(GAP_MODEL)), GAP_SPEC
        total = json.loads(json.dumps(GAP_CANDIDATE))
        total["delta"]["q4"] = {X0: "q4"}
        verdict = verify_diagnoser(m, diagnoser_from_json(total), s).to_json()
        assert {c: verdict[c]["counterexample"] for c in GAP_CONJUNCTS} == {
            "correctness": ["a", "b"], "completeness": ["a", "b", "b2"],
            "maximality": ["a", "b", "b2"]}
        partial = diagnoser_from_json(GAP_CANDIDATE)
        for check in GAP_CONJUNCTS.values():
            with pytest.raises(ObservationError, match=GAP):
                check(_Product(m, partial, s))
        with pytest.raises(ObservationError, match=GAP):
            verify_diagnoser(m, partial, s)

    def test_cli_exits_2_on_the_gap(self, tmp_path, capsys):
        from faultkit.cli import main

        files = {"model": GAP_MODEL, "diagnoser": GAP_CANDIDATE,
                 "spec": [{"alarm": "A", "beta": "fault", "delay": {"kind": "exact", "n": 1}}]}
        argv = ["verify-diagnoser"]
        for flag, doc in files.items():
            path = tmp_path / f"{flag}.json"
            path.write_text(json.dumps(doc))
            argv += [f"--{flag}", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {GAP}\n"


def perturbed_candidates(d, rng):
    """The diagnoser's document with one delta edge sent to another node,
    and with one delta edge removed."""
    doc = diagnoser_to_json(d)
    edges = [(q, key) for q in sorted(doc["delta"]) for key in sorted(doc["delta"][q])]
    if not edges:
        return []
    q, key = rng.choice(edges)
    redirected = json.loads(json.dumps(doc))
    others = [p for p in sorted(doc["nodes"]) if p != doc["delta"][q][key]]
    if others:
        redirected["delta"][q][key] = rng.choice(others)
    dropped = json.loads(json.dumps(doc))
    del dropped["delta"][q][key]
    return [redirected, dropped]


class TestCounterexampleOracle:
    @pytest.mark.parametrize("source", [
        "battery.json", "fully_obs.json", "intermittent.json", "sensor_delay.json",
        "unobservable.json", *range(20)])
    def test_counterexample_is_brute_force_least(self, source):
        # imported here: test_acceptance imports this module
        from .test_acceptance import random_model

        delays = [ExactDelay(1), ExactDelay(2), BoundedDelay(1), BoundedDelay(2),
                  FiniteDelay()]
        if isinstance(source, int):
            # one delay kind per random model keeps the brute force affordable
            m, tle = random_model(source)
            betas, delays = [tle], [delays[source % len(delays)]]
        else:
            m = load_model(corpus_path(source))
            betas = sorted(m.atoms)
        for beta in betas:
            for delay in delays:
                s = AlarmSpec("A", parse_expr(beta), delay, "global", True)
                d = synthesize_diagnoser(m, [s])
                candidates = [diagnoser_to_json(c)
                              for c in (d, mute_diagnoser(m), eager_diagnoser(m))]
                candidates += perturbed_candidates(d, random.Random(f"{source} {beta} {delay}"))
                if len(d.nodes) * len(m.states) > 100_000:
                    # The brute force pairs every belief with every state:
                    # on the largest random models (seeds 7-10 and 15, up
                    # to 17,482 beliefs) only the synthesized candidate is
                    # checked, and without maximality.
                    s = AlarmSpec("A", s.beta, delay, "global", False)
                    candidates = candidates[:1]
                for doc in candidates:
                    self.check(m, doc, s)

    @staticmethod
    def check(m, doc, s):
        d = diagnoser_from_json(doc)
        conjuncts = {"correctness": _check_correctness}
        if not isinstance(s.delay, FiniteDelay):
            conjuncts["completeness"] = lambda product: _check_completeness_global(product, s)
        if s.maximal:
            conjuncts["maximality"] = _check_maximality
        expected, gaps = {}, False
        for conjunct, library in conjuncts.items():
            try:
                expected[conjunct] = brute_force_product_counterexample(
                    m, doc, s.beta, s.delay, conjunct)
            except PartialCandidate as gap:
                # the library's search meets the same gap first
                gaps = True
                with pytest.raises(ObservationError) as err:
                    library(_Product(m, d, s))
                if len(gap.args) == 1:
                    where = f"initial state {gap.args[0]!r}"
                else:
                    where = (f"node {gap.args[0]!r} cannot consume the observation "
                             f"of state {gap.args[1]!r}")
                assert where in str(err.value), (conjunct, doc)
            else:
                got = library(_Product(m, d, s)).to_json()
                assert got == expected[conjunct], (conjunct, str(s.delay), doc)
        try:
            verdict = verify_diagnoser(m, d, s).to_json()
        except ObservationError:
            # finite-delay completeness, checked in TestFiniteCompletenessOracle,
            # meets every gap
            assert gaps or isinstance(s.delay, FiniteDelay), doc
        else:
            assert not gaps, doc
            assert all(verdict[c] == want for c, want in expected.items()), doc


class TestFiniteCompletenessOracle:
    """Global finite-delay completeness against a trimming oracle: the
    verdict, and the reported lasso replayed in the oracle's product.  An
    alarm that did not serve the condition of its own step (`pending`
    keeping `label & 1` when bit 1 is set) fails the verdict on
    `battery.json`, and a `loop_start` one past the cycle's entry fails the
    replay.  A condition bit read from the source state instead of the
    target is left to `TestCounterexampleOracle`: it moves a condition one
    step later, which changes a finite verdict only where the condition
    held at an alarm's step and never again while no alarm followed, and
    none of these candidates does that."""

    @pytest.mark.parametrize("source", [
        "battery.json", "fully_obs.json", "intermittent.json", "sensor_delay.json",
        "unobservable.json", *range(20)])
    def test_finite_completeness_matches_brute_force(self, source):
        from .test_acceptance import random_model

        if isinstance(source, int):
            m, tle = random_model(source)
            betas = [tle]
        else:
            m = load_model(corpus_path(source))
            betas = sorted(m.atoms)
        for beta in betas:
            s = AlarmSpec("A", parse_expr(beta), FiniteDelay(), "global", False)
            d = synthesize_diagnoser(m, [s])
            candidates = [diagnoser_to_json(c) for c in (d, mute_diagnoser(m), eager_diagnoser(m))]
            candidates += perturbed_candidates(d, random.Random(f"{source} {beta} finite"))
            for doc in candidates:
                self.check(m, doc, s)

    @staticmethod
    def check(m, doc, s):
        product = _Product(m, diagnoser_from_json(doc), s)
        try:
            holds, lasso = brute_force_finite_completeness(m, doc, s.beta)
        except PartialCandidate:
            with pytest.raises(ObservationError):
                _check_completeness_global(product, s)
            return
        got = _check_completeness_global(product, s).to_json()
        assert got["holds"] == holds, doc
        if not holds:
            assert lasso(got["counterexample"], got["loop_start"]), (got, doc)


class TestTraceCompletenessOracle:
    @pytest.mark.parametrize("source", [
        "battery.json", "fully_obs.json", "intermittent.json", "sensor_delay.json",
        "unobservable.json", *range(20)])
    def test_trace_completeness_matches_brute_force(self, source):
        from .test_acceptance import random_model

        delays = [BoundedDelay(1), BoundedDelay(2), FiniteDelay()]
        if isinstance(source, int):
            m, tle = random_model(source)
            betas, delays = [tle], [delays[source % len(delays)]]
        else:
            m = load_model(corpus_path(source))
            betas = sorted(m.atoms)
            # a slot width neither bound(1) nor bound(2) reaches
            delays.append(BoundedDelay(3))
        for beta in betas:
            for delay in delays:
                s = AlarmSpec("A", parse_expr(beta), delay, "trace", False)
                d = synthesize_diagnoser(m, [s])
                candidates = [diagnoser_to_json(c)
                              for c in (d, mute_diagnoser(m), eager_diagnoser(m))]
                candidates += perturbed_candidates(d, random.Random(f"{source} {beta} {delay}"))
                if len(d.nodes) * len(m.states) > 100_000:
                    # as in TestCounterexampleOracle
                    candidates = candidates[:1]
                for doc in candidates:
                    self.check(m, doc, s)

    @staticmethod
    def check(m, doc, s):
        d = diagnoser_from_json(doc)
        try:
            expected = brute_force_trace_completeness(m, doc, s.beta, s.delay)
        except PartialCandidate:
            with pytest.raises(ObservationError):
                verify_diagnoser(m, d, s)
            return
        got = verify_diagnoser(m, d, s).completeness.to_json()
        if isinstance(s.delay, BoundedDelay):
            assert got == expected, (str(s.delay), doc)
            return
        holds, lasso = expected
        assert got["holds"] == holds, doc
        if not holds:
            assert lasso(got["counterexample"], got["loop_start"]), (got, doc)

    @pytest.mark.parametrize("loop", [False, True])
    def test_trace_bounded_violation_is_seen_when_due(self, loop):
        # The condition at step 1 is certain at once (x is observed); a mute
        # diagnoser misses its bound(1) obligation at step 2, whether or not
        # the run goes on.
        m = parse_model(json.dumps({
            "atoms": ["fault", "x"], "faults": ["fault"], "observables": ["x"],
            "states": {"s0": {}, "s1": {"fault": True, "x": True},
                       "s2": {"fault": True, "x": True}},
            "initial": ["s0"],
            "transitions": [["s0", "s1"], ["s1", "s2"]] + [["s2", "s2"]] * loop}))
        s = spec(BoundedDelay(1), diag="trace", maximal=False)
        verdict = verify_diagnoser(m, mute_diagnoser(m), s)
        assert verdict.completeness.to_json() == {
            "holds": False, "counterexample": ["s0", "s1", "s2"]}


W0, W1 = '{"w":false}', '{"w":true}'


def candidate_doc(**changes) -> dict:
    """A small valid candidate document with some fields replaced, or
    removed where the change is None."""
    doc = {"observables": ["w"], "nodes": {"q": [], "r": ["x"]},
           "entry": {W0: "q"}, "delta": {"q": {W1: "r"}, "r": {}}}
    doc.update(changes)
    return {key: value for key, value in doc.items() if value is not None}


def json_form(d: Diagnoser) -> str:
    """The reference bytes of a diagnoser document."""
    return json.dumps(diagnoser_to_json(d), indent=2, sort_keys=True) + "\n"


class TestSerialization:
    def test_round_trip(self, sensor_delay, sensor_specs, tmp_path):
        d = synthesize_diagnoser(sensor_delay, [sensor_specs["a_bound3"]])
        doc = diagnoser_to_json(d)
        path = tmp_path / "diagnoser.json"
        path.write_text(json.dumps(doc))
        loaded = load_diagnoser(path)
        assert diagnoser_to_json(loaded) == doc
        # behavior preserved
        obs = [{"warn": False}, {"warn": False}, {"warn": False}, {"warn": True}]
        assert run_diagnoser(loaded, obs) == run_diagnoser(d, obs)

    def test_observables_in_any_order(self, fully_obs, sensor_specs):
        # observation keys name their atoms, so the list's order is free
        s = sensor_specs["a_exact1"]
        d = synthesize_diagnoser(fully_obs, [s])
        doc = diagnoser_to_json(d)
        assert doc["observables"] == ["fault", "late"]
        loaded = diagnoser_from_json(dict(doc, observables=["late", "fault"]))
        assert loaded.obs_atoms == d.obs_atoms
        assert diagnoser_to_json(loaded) == doc
        assert verify_diagnoser(fully_obs, loaded, s) == verify_diagnoser(fully_obs, d, s)

    def test_nondeterministic_candidate_rejected(self, tmp_path):
        path = tmp_path / "candidate.json"
        path.write_text("""{
          "observables": ["w"],
          "nodes": {"q": []},
          "entry": {"{\\"w\\":false}": "q"},
          "delta": {"q": {"{\\"w\\":false}": "q", "{\\"w\\":false}": "q"}}
        }""")
        with pytest.raises(ModelFormatError, match="[Nn]ondeterministic") as err:
            load_diagnoser(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_malformed_observation_key_is_named(self, tmp_path):
        path = tmp_path / "candidate.json"
        path.write_text(json.dumps({"observables": ["w"], "nodes": {"q": []},
                                    "entry": {"{w:false}": "q"}, "delta": {}}))
        with pytest.raises(ModelFormatError, match="observation key '{w:false}'"):
            load_diagnoser(path)

    @pytest.mark.parametrize("doc,message", [
        ([], "diagnoser must be an object, got []"),
        (candidate_doc(observables=None), "diagnoser: missing key 'observables'"),
        (candidate_doc(observables="w"),
         "diagnoser: 'observables' must be a list of names, got \"w\""),
        (candidate_doc(nodes=None), "diagnoser: missing key 'nodes'"),
        (candidate_doc(nodes=["q"]), "diagnoser: 'nodes' must be an object, got [\"q\"]"),
        (candidate_doc(nodes={"q": [], "r": "x"}),
         "diagnoser nodes: 'r' must be a list of names, got \"x\""),
        (candidate_doc(nodes={"q": [], "r": [1]}),
         "diagnoser nodes: 'r' must be a list of names, got [1]"),
        (candidate_doc(nodes={"q": 1, "r": 2}),
         "diagnoser nodes: 'q' must be a list of names, got 1"),
        (candidate_doc(nodes={"q": 1, "r": []}, entry=None),
         "diagnoser nodes: 'q' must be a list of names, got 1"),
        (candidate_doc(entry=None), "diagnoser: missing key 'entry'"),
        (candidate_doc(entry=[]), "diagnoser: 'entry' must be an object, got []"),
        (candidate_doc(entry={W0: "z"}), "entry: target 'z' is not a node"),
        (candidate_doc(entry={W0: 3}), "entry: target 3 is not a node"),
        (candidate_doc(entry={"{w:false}": "q"}),
         "observation key '{w:false}': syntax error: Expecting property name enclosed "
         "in double quotes (line 1, column 2)"),
        (candidate_doc(entry={'{"w":1}': "q"}),
         "observation key '{\"w\":1}' must be an object of booleans, got {\"w\": 1}"),
        (candidate_doc(entry={'{"v":true}': "q"}),
         "observation key '{\"v\":true}' does not match alphabet"),
        (candidate_doc(entry={"{w:false}": "z"}), "entry: target 'z' is not a node"),
        (candidate_doc(entry={W0: "q", '{ "w": false }': "r"}),
         "nondeterministic candidate: entry has two transitions for observation "
         "{ \"w\": false }"),
        (candidate_doc(delta=None), "diagnoser: missing key 'delta'"),
        (candidate_doc(delta=[]), "diagnoser: 'delta' must be an object, got []"),
        (candidate_doc(delta={"z": {}}), "delta source 'z' is not a node"),
        (candidate_doc(delta={"q": 3}), "delta of 'q' must be an object, got 3"),
        (candidate_doc(delta={"q": {W1: "z"}}), "delta of 'q': target 'z' is not a node"),
        (candidate_doc(delta={"q": {"{w:true}": "r"}}),
         "observation key '{w:true}': syntax error: Expecting property name enclosed "
         "in double quotes (line 1, column 2)"),
        (candidate_doc(delta={"q": {W1: "r", '{"w": true}': "q"}}),
         "nondeterministic candidate: delta of 'q' has two transitions for observation "
         "{\"w\": true}"),
        (candidate_doc(entry={W0: "z"}, delta=[]), "entry: target 'z' is not a node"),
        (candidate_doc(delta={"q": 3, "z": {}}), "delta of 'q' must be an object, got 3"),
        (candidate_doc(delta={"z": {}, "q": 3}), "delta source 'z' is not a node"),
        (candidate_doc(nodes={"it's": []}, entry={W0: "it's"}, delta={"it's": {W1: "r"}}),
         "delta of \"it's\": target 'r' is not a node"),
    ], ids=["not-object", "no-observables", "observables-string", "no-nodes", "nodes-list",
            "alarms-string", "alarms-not-names", "first-bad-node", "node-before-entry",
            "no-entry", "entry-list", "entry-target", "entry-target-int", "entry-key-syntax",
            "entry-key-kind", "entry-key-alphabet", "target-before-key", "entry-twice",
            "no-delta", "delta-list", "delta-source", "delta-row-kind", "delta-target",
            "delta-key", "delta-twice", "entry-before-delta", "row-before-source",
            "source-before-row", "quoted-id"])
    def test_malformed_candidate_message(self, doc, message):
        # each message, and which of several faults is reported first
        with pytest.raises(ModelFormatError) as err:
            diagnoser_from_json(doc)
        assert str(err.value) == message

    @pytest.mark.parametrize("model,specs", [
        (model, specs) for model in ("sensor_delay", "intermittent", "fully_obs", "unobservable")
        for specs in ("alarms_sensor", "alarms_intermittent")])
    def test_writer_bytes_on_corpus_alarms(self, model, specs):
        m = load_model(corpus_path(f"{model}.json"))
        alarms = load_specs(corpus_path(f"{specs}.json"))
        for group in [[a] for a in alarms] + [alarms]:
            d = synthesize_diagnoser(m, group)
            assert dump_diagnoser(d) == json_form(d)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_writer_bytes_on_kofn(self, n):
        m = parse_model(json.dumps(bench_module("gen").kofn_phase(n)))
        for alarm in parse_specs(json.dumps(bench_module("gen").kofn_specs(1))):
            d = synthesize_diagnoser(m, [alarm])
            assert dump_diagnoser(d) == json_form(d)

    @pytest.mark.parametrize("seed", range(6))
    def test_writer_bytes_and_round_trip_on_partial_models(self, seed, tmp_path):
        gen = bench_module("gen")
        rng = random.Random(seed)
        m = parse_model(json.dumps(gen.partial_model(rng, faults=5, locations=8,
                                                     observables=2 + seed % 3)))
        alarms = parse_specs(json.dumps([
            {"alarm": f"a{j}", "beta": beta, "delay": delay, "maximal": True}
            for j, (beta, delay) in enumerate(zip(gen.partial_conditions(rng, faults=5),
                                                  gen.PARTIAL_DELAYS))]))
        for alarm in alarms:
            d = synthesize_diagnoser(m, [alarm])
            text = dump_diagnoser(d)
            assert text == json_form(d)
            # synthesize -> write -> load -> verify
            path = tmp_path / f"{alarm.name}.json"
            path.write_text(text)
            loaded = load_diagnoser(path)
            assert dump_diagnoser(loaded) == text
            verdict = verify_diagnoser(m, loaded, alarm)
            assert verdict == verify_diagnoser(m, d, alarm)
            assert verdict.correctness.holds and verdict.maximality.holds
            assert verdict.completeness.holds == check_diagnosability(m, alarm).diagnosable

    # perfbench/workloads.PARTIAL_POOL: the random-partial models
    @pytest.mark.parametrize("pool", [9, 15, 34, 35, 36, 43])
    def test_writer_bytes_and_round_trip_on_pool_models(self, pool, tmp_path):
        gen = bench_module("gen")
        rng = random.Random(f"partial-pool/{pool}")
        m = parse_model(json.dumps(gen.partial_model(rng, observables=5)))
        alarms = parse_specs(json.dumps([
            {"alarm": f"a{j}", "beta": beta, "delay": delay, "diag": "global", "maximal": True}
            for j, (beta, delay) in enumerate(zip(gen.partial_conditions(rng),
                                                  gen.PARTIAL_DELAYS))]))
        for alarm in alarms:
            d = synthesize_diagnoser(m, [alarm])
            text = dump_diagnoser(d)
            assert text == json_form(d)
            path = tmp_path / f"{alarm.name}.json"
            path.write_text(text)
            loaded = load_diagnoser(path)
            assert json_form(loaded) == dump_diagnoser(loaded) == text

    @pytest.mark.parametrize("doc", [
        # a node with no alarms and no moves, and one unreachable
        candidate_doc(nodes={"q": [], "r": ["y", "x"], "s": []}),
        # no observables: the one key is "{}"
        {"observables": [], "nodes": {"q": ["x"]}, "entry": {"{}": "q"},
         "delta": {"q": {"{}": "q"}}},
        # ids whose escaped text sorts in another order than their raw text
        {"observables": ["\u00e9", "z"], "nodes": {"n~": [], "n\u00e9": ["\u00ff"], 'n"': []},
         "entry": {'{"z":true,"\u00e9":false}': "n\u00e9", '{"z":false,"\u00e9":true}': 'n"'},
         "delta": {'n"': {'{"z":true,"\u00e9":false}': "n~"}, "n\u00e9": {}}},
        {"observables": [], "nodes": {}, "entry": {}, "delta": {}},
    ], ids=["no-alarms-no-moves", "no-observables", "non-ascii", "empty"])
    def test_writer_bytes_on_edge_cases(self, doc):
        d = diagnoser_from_json(doc)
        assert dump_diagnoser(d) == json_form(d)

    def test_beliefs_decode_as_read(self, sensor_delay, sensor_specs):
        s = sensor_specs["a_bound3"]
        d = synthesize_diagnoser(sensor_delay, [s])
        beliefs = dict(d.beliefs)
        assert list(beliefs) == list(d.nodes)
        assert all(type(b) is frozenset and b for b in beliefs.values())
        assert d.beliefs == beliefs and repr(d.beliefs) == repr(beliefs)
        assert pickle.loads(pickle.dumps(d)).beliefs == beliefs
        assert copy.deepcopy(d) == d

    def test_dot_export_mentions_alarms(self, sensor_delay, sensor_specs):
        d = synthesize_diagnoser(sensor_delay, [sensor_specs["a_bound3"]])
        dot = export_diagnoser_dot(d)
        assert dot.startswith("digraph diagnoser")
        assert "a_bound3" in dot

    def test_dot_entry_points_avoid_node_ids(self):
        # a node named like the first entry point, and an edge into it
        d = diagnoser_from_json({"observables": ["w"], "nodes": {"entry0": [], "q": []},
                                 "entry": {'{"w":false}': "q"},
                                 "delta": {"q": {'{"w":true}': "entry0"}, "entry0": {}}})
        lines = export_diagnoser_dot(d).splitlines()
        declared = [line.split('"')[1] for line in lines if '" [' in line and "->" not in line]
        assert sorted(declared) == ["entry0", "entry_0", "q"]
        assert '  "entry_0" [shape=point];' in lines
        edges = {tuple(line.split('"')[1:4:2]) for line in lines if "->" in line}
        assert edges == {("entry_0", "q"), ("q", "entry0")}
