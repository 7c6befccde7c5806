"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything is oracle- or property-based at desk scale; the random
models are seeded and fully deterministic.
"""

import itertools
import json
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from faultkit.boolexpr import parse_expr
from faultkit.cutsets import (enumerate_mcs, evaluate_probability, final_mcs,
                              mcs_to_json, probability_by_enumeration,
                              probability_by_inclusion_exclusion)
from faultkit.diagnosability import check_diagnosability
from faultkit.fdispec import (AlarmSpec, BoundedDelay, ExactDelay, FiniteDelay,
                              eval_knowledge, instantiate_pattern)
from faultkit.model import SystemModel, parse_model
from faultkit.synthesis import synthesize_diagnoser, verify_diagnoser
from faultkit.tfpg import (Tfpg, TfpgEdge, behavioral_validate,
                           check_trace_consistency, tfpg_to_json, tighten_edges)
from faultkit.tfpg_synthesis import (DiscrepancyDecl, SynthesisConfig,
                                     synthesize_tfpg)

from .conftest import corpus_path
from .oracles import (brute_force_mcs, knowledge_by_enumeration,
                      naive_candidate_traces, naive_trace_consistent, obs_buckets,
                      oracle_diagnosable_bounded, oracle_diagnosable_exact,
                      oracle_diagnosable_finite)
from .test_diagnosability import assert_pair_replays

FAULT = parse_expr("fault")


# -- randomized model generation ------------------------------------------------

FAULT_COUNTS = [2, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 6, 3, 4, 5, 6, 7, 8, 9, 10]


def random_model(seed: int) -> tuple[SystemModel, str]:
    """Deterministic random model plus a random top level event.  Fault
    occurrence may be gated by prerequisite faults so that larger fault
    counts stay within the 200-state budget."""
    doc, tle = random_model_doc(seed)
    return parse_model(json.dumps(doc)), tle


def random_model_doc(seed: int) -> tuple[dict, str]:
    """The model file of `random_model(seed)`, as a decoded document, and
    its top level event."""
    rng = random.Random(1000 + seed)
    n_faults = FAULT_COUNTS[seed % len(FAULT_COUNTS)]
    density = 0.0 if n_faults <= 6 else 0.5
    while True:
        req = {0: frozenset()}
        for i in range(1, n_faults):
            req[i] = frozenset(j for j in range(i) if rng.random() < density)
        masks = {0}
        frontier = [0]
        while frontier:
            mask = frontier.pop()
            for i in range(n_faults):
                bit = 1 << i
                if mask & bit:
                    continue
                if all(mask & (1 << j) for j in req[i]):
                    new = mask | bit
                    if new not in masks:
                        masks.add(new)
                        frontier.append(new)
        n_locs = 2 + seed % 3
        if len(masks) * n_locs <= 200:
            break
        density += 0.2

    faults = [f"f{i}" for i in range(n_faults)]
    locs = [f"loc{j}" for j in range(n_locs)]
    states = {}
    transitions = []
    for mask in sorted(masks):
        for j in range(n_locs):
            sid = f"m{mask}_l{j}"
            val = {faults[i]: bool(mask & (1 << i)) for i in range(n_faults)}
            val.update({locs[x]: x == j for x in range(n_locs)})
            states[sid] = val
            targets = rng.sample(range(n_locs), rng.randint(1, min(2, n_locs)))
            for tgt in targets:
                transitions.append([sid, f"m{mask}_l{tgt}"])
            for i in range(n_faults):
                bit = 1 << i
                if mask & bit or not all(mask & (1 << j2) for j2 in req[i]):
                    continue
                if rng.random() < 0.6:
                    transitions.append([sid, f"m{mask | bit}_l{rng.randrange(n_locs)}"])
    doc = {"atoms": faults + locs, "faults": faults, "observables": locs,
           "modes": [], "states": states, "initial": ["m0_l0"],
           "transitions": transitions}
    terms = []
    for _ in range(rng.randint(1, 3)):
        lits = rng.sample(faults, rng.randint(1, min(3, n_faults)))
        if rng.random() < 0.3:
            lits.append(rng.choice(locs))
        terms.append("(" + " & ".join(lits) + ")")
    return doc, " | ".join(terms)


def corpus_mcs_cases(battery):
    return [(battery, "system_dead"), (battery, "power_low"),
            (battery, "b1_fail | system_dead")]


def test_criterion_01_mcs_oracle_equivalence(battery):
    started = time.monotonic()
    cases = corpus_mcs_cases(battery)
    cases += [random_model(seed) for seed in range(20)]
    for m, tle in cases:
        expected = brute_force_mcs(m, tle)
        got = sorted(final_mcs(m, tle).mcs, key=lambda s: (len(s), sorted(s)))
        assert got == expected
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1: minimal cut sets match exhaustive subset "
          f"enumeration on {len(cases)} models in {elapsed:.1f}s  PASS")


def test_criterion_02_anytime_layering(battery):
    cases = corpus_mcs_cases(battery) + [random_model(seed) for seed in range(20)]
    checked = 0
    for m, tle in cases:
        expected = brute_force_mcs(m, tle)
        for report in enumerate_mcs(m, tle):
            k = report.completed_cardinality
            want = [S for S in expected if len(S) <= k]
            assert sorted(report.mcs, key=lambda s: (len(s), sorted(s))) == want
            checked += 1
        assert report.exhausted
    print(f"\nACCEPTANCE 2: every cardinality layer equals the brute-force "
          f"prefix ({checked} layers)  PASS")


PROBABILITY_CASES = [
    ([frozenset({"b1_fail", "b2_fail"})], {"b1_fail": 0.1, "b2_fail": 0.2}),
    ([frozenset({"f1"}), frozenset({"f2", "f3"})],
     {"f1": 0.05, "f2": 0.3, "f3": 0.4}),
    ([frozenset({"f1", "f2"}), frozenset({"f2", "f3"}), frozenset({"f1", "f3"})],
     {"f1": 0.25, "f2": 0.5, "f3": 0.75}),
    ([frozenset()], {}),
]


def test_criterion_03_probability_cross_check():
    samples = 10 ** 6
    rng = np.random.default_rng(42)
    for family, probs in PROBABILITY_CASES:
        by_enum = probability_by_enumeration(family, probs)
        by_ie = probability_by_inclusion_exclusion(family, probs)
        assert abs(by_enum - by_ie) <= 1e-12
        exact = evaluate_probability(family, probs)
        if probs:
            events = sorted(set().union(*family))
            draws = rng.random((samples, len(events))) < np.array(
                [probs[e] for e in events])
            covered = np.zeros(samples, dtype=bool)
            for S in family:
                idx = [events.index(e) for e in S]
                covered |= draws[:, idx].all(axis=1) if idx else np.ones(
                    samples, dtype=bool)
            estimate = covered.mean()
            sigma = max((exact * (1 - exact) / samples) ** 0.5, 1e-9)
            assert abs(estimate - exact) <= 3 * sigma
    print(f"\nACCEPTANCE 3: exact probability routes agree to 1e-12 and sit "
          f"within 3 sigma of {samples} Monte Carlo samples  PASS")


def test_criterion_04_pattern_table_fidelity():
    from .test_fdispec import _cells
    n = 2
    table = _cells(FAULT, "A", n)
    delays = {"exact": ExactDelay(n), "bound": BoundedDelay(n),
              "finite": FiniteDelay()}
    for (kind, diag, maximal), expected in table.items():
        got = instantiate_pattern(AlarmSpec("A", FAULT, delays[kind], diag, maximal))
        assert (got["correctness"], got["completeness"], got.get("maximality")) == expected
    assert len(table) == 12
    print("\nACCEPTANCE 4: all 12 pattern cells equal the hand-transcribed "
          "golden table  PASS")


def test_criterion_05_diagnosability_oracle_equivalence(
        sensor_delay, intermittent, unobservable, fully_obs, battery):
    horizon = 10
    small = [(m, FAULT, horizon) for m in
             (sensor_delay, intermittent, unobservable, fully_obs)]
    cases = small + [(battery, parse_expr("b1_fail"), horizon),
                     (battery, parse_expr("system_dead"), horizon)]
    checked = 0
    for m, beta, h in cases:
        for n in (1, 2, 3):
            spec = AlarmSpec("A", beta, ExactDelay(n), "global", True)
            verdict = check_diagnosability(m, spec)
            assert verdict.diagnosable == oracle_diagnosable_exact(m, beta, n, h)
            if not verdict.diagnosable:
                assert_pair_replays(m, beta, spec, verdict)
            checked += 1
            spec = AlarmSpec("A", beta, BoundedDelay(n), "global", True)
            verdict = check_diagnosability(m, spec)
            assert verdict.diagnosable == oracle_diagnosable_bounded(m, beta, n, h)
            if not verdict.diagnosable:
                assert_pair_replays(m, beta, spec, verdict)
            checked += 1
        spec = AlarmSpec("A", beta, FiniteDelay(), "global", True)
        verdict = check_diagnosability(m, spec)
        assert verdict.diagnosable == oracle_diagnosable_finite(m, beta, h)
        if not verdict.diagnosable:
            assert_pair_replays(m, beta, spec, verdict)
        checked += 1
    print(f"\nACCEPTANCE 5: twin-plant verdicts match exhaustive pair "
          f"enumeration and critical pairs replay ({checked} checks)  PASS")


def _synthesis_cases(sensor_delay, intermittent, fully_obs, unobservable,
                     battery, sensor_specs, intermittent_specs):
    cases = [(sensor_delay, s) for s in sensor_specs.values()]
    cases += [(intermittent, s) for s in intermittent_specs.values()]
    b1 = parse_expr("b1_fail")
    for m, beta in ((fully_obs, FAULT), (unobservable, FAULT), (battery, b1)):
        cases += [
            (m, AlarmSpec("g_exact", beta, ExactDelay(1), "global", True)),
            (m, AlarmSpec("g_bound", beta, BoundedDelay(2), "global", True)),
            (m, AlarmSpec("g_finite", beta, FiniteDelay(), "global", True)),
            (m, AlarmSpec("t_exact", beta, ExactDelay(1), "trace", True)),
            (m, AlarmSpec("t_bound", beta, BoundedDelay(2), "trace", False)),
            (m, AlarmSpec("t_finite", beta, FiniteDelay(), "trace", True)),
        ]
    return cases


def test_criterion_06_synthesis_correct_by_construction(
        sensor_delay, intermittent, fully_obs, unobservable, battery,
        sensor_specs, intermittent_specs):
    cases = _synthesis_cases(sensor_delay, intermittent, fully_obs,
                             unobservable, battery, sensor_specs,
                             intermittent_specs)
    held, expected_gaps = 0, 0
    for m, spec in cases:
        diagnoser = synthesize_diagnoser(m, [spec])
        verdict = verify_diagnoser(m, diagnoser, spec)
        assert verdict.correctness.holds, spec
        if spec.maximal:
            assert verdict.maximality.holds, spec
        if spec.diag == "trace":
            assert verdict.completeness.holds, spec
            held += 1
        elif check_diagnosability(m, spec).diagnosable:
            assert verdict.completeness.holds, spec
            held += 1
        else:
            assert not verdict.completeness.holds, spec
            assert m.is_trace(verdict.completeness.counterexample)
            expected_gaps += 1
    print(f"\nACCEPTANCE 6: synthesized diagnosers verify across "
          f"{len(cases)} model/spec pairs ({held} complete, {expected_gaps} "
          f"undiagnosable with witnessed gaps)  PASS")


def test_criterion_07_knowledge_cross_check(sensor_delay, intermittent,
                                            unobservable, fully_obs, battery):
    horizon = 8
    cases = [(m, FAULT) for m in (sensor_delay, intermittent, unobservable,
                                  fully_obs)]
    cases.append((battery, parse_expr("b1_fail")))
    compared = 0
    for m, beta in cases:
        for length in range(1, horizon + 1):
            for bucket in obs_buckets(m, length).values():
                representative = bucket[0]
                t = length - 1
                for delay in (ExactDelay(1), BoundedDelay(2), FiniteDelay()):
                    got = eval_knowledge(m, representative, t, delay, beta)
                    want = knowledge_by_enumeration(m, representative, t, delay, beta)
                    assert got == want
                    compared += 1
    print(f"\nACCEPTANCE 7: belief-based knowledge equals obs-equivalence "
          f"enumeration on every observation class up to horizon {horizon} "
          f"({compared} comparisons)  PASS")


def test_criterion_08_tfpg_semantics_oracle(tfpg_power, tfpg_modegap,
                                            tfpg_battery):
    tiny = Tfpg(("on",), {"f": "FM", "d": "OR"},
                [TfpgEdge("f", "d", 1, 2, ("on",))])
    cases = [(tiny, 4), (tfpg_modegap, 4), (tfpg_power, 3), (tfpg_battery, 3)]
    total = consistent = 0
    for g, horizon in cases:
        for trace in naive_candidate_traces(g, horizon):
            ok, _ = check_trace_consistency(g, trace)
            assert ok == naive_trace_consistent(g, trace)
            total += 1
            consistent += ok
    print(f"\nACCEPTANCE 8: consistency checker and direct re-implementation "
          f"agree on every candidate trace of {len(cases)} graphs ({total} "
          f"candidates, {consistent} consistent)  PASS")


def test_criterion_09_tfpg_synthesis_completeness(battery, sensor_delay,
                                                  intermittent):
    from .conftest import corpus_json
    cases = [
        (battery, SynthesisConfig.from_json(corpus_json("battery_synth.json")), 8),
        (sensor_delay, SynthesisConfig(
            ["fault"], [DiscrepancyDecl("d_warn", parse_expr("warn"), "OR")], {}), 8),
        (intermittent, SynthesisConfig(
            ["fault"], [DiscrepancyDecl("d_warn", parse_expr("warn"), "OR")], {}), 6),
    ]
    for m, config, horizon in cases:
        result, node_map = synthesize_tfpg(m, config, horizon), config.node_map()
        assert behavioral_validate(result.tfpg, m, node_map, horizon).complete
        once = tighten_edges(result.tfpg, m, node_map, horizon)
        assert tfpg_to_json(once.tfpg) == tfpg_to_json(result.tfpg)
        assert behavioral_validate(once.tfpg, m, node_map, horizon).complete
    print(f"\nACCEPTANCE 9: synthesized TFPGs are behaviorally complete and "
          f"tightening is an idempotent completeness-preserving fixpoint "
          f"({len(cases)} cases)  PASS")


def _cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "faultkit.cli", *argv],
                          capture_output=True)
    return proc.returncode, proc.stdout


def test_criterion_10_cli_determinism_and_round_trip(tmp_path):
    model = str(corpus_path("battery.json"))
    sensor = str(corpus_path("sensor_delay.json"))
    specs = str(corpus_path("alarms_sensor.json"))
    tfpg_file = str(corpus_path("tfpg_battery.json"))
    node_map = str(corpus_path("battery_map.json"))
    synth_cfg = str(corpus_path("battery_synth.json"))
    commands = [
        ("mcs", "--model", model, "--tle", "system_dead"),
        ("fault-tree", "--model", model, "--tle", "system_dead", "--format", "dot"),
        ("diag-check", "--model", sensor, "--spec", specs, "--alarm", "a_exact1"),
        ("synth-diagnoser", "--model", sensor, "--spec", specs, "--alarm", "a_bound3"),
        ("tfpg-tighten", "--tfpg", tfpg_file, "--model", model, "--map",
         node_map, "--horizon", "6"),
        ("tfpg-synth", "--model", model, "--map", synth_cfg, "--horizon", "6"),
    ]
    for argv in commands:
        code1, out1 = _cli(*argv)
        code2, out2 = _cli(*argv)
        assert (code1, out1) == (code2, out2), argv
        assert code1 in (0, 1)

    mcs_file = tmp_path / "mcs.json"
    mcs_file.write_bytes(_cli("mcs", "--model", model, "--tle", "system_dead")[1])
    code, out = _cli("fault-tree", "--mcs", str(mcs_file), "--name", "dead")
    assert code == 0 and json.loads(out)["gates"] == [["b1_fail", "b2_fail"]]

    diagnoser = tmp_path / "diagnoser.json"
    diagnoser.write_bytes(_cli("synth-diagnoser", "--model", sensor, "--spec",
                               specs, "--alarm", "a_bound3")[1])
    code, _ = _cli("verify-diagnoser", "--model", sensor, "--spec", specs,
                   "--alarm", "a_bound3", "--diagnoser", str(diagnoser))
    assert code == 0

    tightened = tmp_path / "tightened.json"
    tightened.write_bytes(_cli("tfpg-tighten", "--tfpg", tfpg_file, "--model",
                               model, "--map", node_map, "--horizon", "6")[1])
    assert _cli("tfpg-validate", "--tfpg", str(tightened))[0] == 0
    assert _cli("tfpg-behavioral", "--tfpg", str(tightened), "--model", model,
                "--map", node_map, "--horizon", "6")[0] == 0

    synthesized = tmp_path / "synth.json"
    synthesized.write_bytes(_cli("tfpg-synth", "--model", model, "--map",
                                 synth_cfg, "--horizon", "6")[1])
    assert _cli("tfpg-behavioral", "--tfpg", str(synthesized), "--model",
                model, "--map", synth_cfg, "--horizon", "6")[0] == 0
    print("\nACCEPTANCE 10: repeated CLI runs are byte-identical and every "
          "emitted artifact reloads cleanly  PASS")
