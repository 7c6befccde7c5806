import json

import pytest

from faultkit.boolexpr import parse_expr
from faultkit.diagnosability import (check_diagnosability,
                                     check_trace_diagnosability)
from faultkit.errors import TraceError
from faultkit.fdispec import AlarmSpec, BoundedDelay, ExactDelay, FiniteDelay
from faultkit.model import Trace, load_model, parse_model

from .conftest import corpus_path
from .oracles import (brute_force_critical_pair, enumerate_traces, naive_past,
                      oracle_diagnosable_bounded, oracle_diagnosable_exact,
                      oracle_diagnosable_finite)

FAULT = parse_expr("fault")


def spec(delay, diag="global", maximal=True, beta=FAULT):
    return AlarmSpec("A", beta, delay, diag, maximal)


def assert_pair_replays(m, beta, s, verdict):
    """A critical pair must be two real runs with equal observations that
    violate the certainty condition of the delay kind at the witness time."""
    pair = verdict.pair
    t1, t2, t = pair.trace1, pair.trace2, pair.t
    assert m.is_trace(t1) and m.is_trace(t2)
    assert len(t1) == len(t2)
    assert [m.observation(x) for x in t1.steps] == \
        [m.observation(x) for x in t2.steps]
    if isinstance(s.delay, ExactDelay):
        assert len(t1) >= t + s.delay.n + 1
        assert m.holds(beta, t1[t]) and not m.holds(beta, t2[t])
    elif isinstance(s.delay, BoundedDelay):
        n = s.delay.n
        assert len(t1) == t + n + 1
        assert m.holds(beta, t1[t])
        window = range(max(0, t - n), t + n + 1)
        assert not any(m.holds(beta, t2[u]) for u in window)
    else:
        assert any(m.holds(beta, x) for x in t1.steps)
        assert not any(m.holds(beta, x) for x in t2.steps)
        # lasso: some twin state repeats, giving an infinite continuation
        pairs = list(zip(t1.steps, t2.steps))
        assert len(set(pairs)) < len(pairs)


class TestGlobalDiagnosability:
    def test_observable_condition_always_diagnosable(self, fully_obs):
        for delay in (ExactDelay(1), ExactDelay(3), BoundedDelay(2), FiniteDelay()):
            assert check_diagnosability(fully_obs, spec(delay)).diagnosable

    def test_unobservable_model_never_diagnosable(self, unobservable):
        for delay in (ExactDelay(1), ExactDelay(2), BoundedDelay(2), FiniteDelay()):
            verdict = check_diagnosability(unobservable, spec(delay))
            assert not verdict.diagnosable
            assert_pair_replays(unobservable, FAULT, spec(delay), verdict)

    def test_unobservable_exact_pair_is_shortest_possible(self, unobservable):
        # initial states carry no faults, so the earliest condition time is
        # t=1 and the shortest witness has t+n+1 = n+2 states
        for n in (1, 2, 3):
            verdict = check_diagnosability(unobservable, spec(ExactDelay(n)))
            assert len(verdict.pair.trace1) == n + 2
            assert verdict.pair.t == 1

    def test_sensor_delay_thresholds(self, sensor_delay, sensor_specs):
        expected = {"a_exact1": False, "a_exact2": True, "a_bound1": False,
                    "a_bound2": True, "a_bound3": True, "a_finite": True}
        for name, want in expected.items():
            got = check_diagnosability(sensor_delay, sensor_specs[name])
            assert got.diagnosable == want, name

    def test_intermittent_never_globally_diagnosable(self, intermittent):
        for delay in (ExactDelay(1), BoundedDelay(3), FiniteDelay()):
            assert not check_diagnosability(intermittent, spec(delay)).diagnosable

    def test_trace_spec_rejected(self, sensor_delay):
        with pytest.raises(ValueError):
            check_diagnosability(sensor_delay, spec(ExactDelay(1), diag="trace"))

    def test_verdict_deterministic(self, sensor_delay, sensor_specs):
        a = check_diagnosability(sensor_delay, sensor_specs["a_exact1"])
        b = check_diagnosability(sensor_delay, sensor_specs["a_exact1"])
        assert a == b


class TestOracleAgreement:
    HORIZON = 10

    def test_exact(self, sensor_delay, intermittent, unobservable, fully_obs):
        for m in (sensor_delay, intermittent, unobservable, fully_obs):
            for n in (1, 2, 3):
                got = check_diagnosability(m, spec(ExactDelay(n))).diagnosable
                want = oracle_diagnosable_exact(m, FAULT, n, self.HORIZON)
                assert got == want, (m, n)

    def test_bounded(self, sensor_delay, intermittent, unobservable, fully_obs):
        for m in (sensor_delay, intermittent, unobservable, fully_obs):
            for n in (1, 2, 3):
                got = check_diagnosability(m, spec(BoundedDelay(n))).diagnosable
                want = oracle_diagnosable_bounded(m, FAULT, n, self.HORIZON)
                assert got == want, (m, n)

    def test_finite(self, sensor_delay, intermittent, unobservable, fully_obs):
        for m in (sensor_delay, intermittent, unobservable, fully_obs):
            got = check_diagnosability(m, spec(FiniteDelay())).diagnosable
            want = oracle_diagnosable_finite(m, FAULT, self.HORIZON)
            assert got == want

    def test_battery_hidden_fault(self, battery):
        beta = parse_expr("b1_fail")
        for delay in (ExactDelay(1), BoundedDelay(1), FiniteDelay()):
            got = check_diagnosability(battery, spec(delay, beta=beta)).diagnosable
            if isinstance(delay, ExactDelay):
                want = oracle_diagnosable_exact(battery, beta, delay.n, 6)
            elif isinstance(delay, BoundedDelay):
                want = oracle_diagnosable_bounded(battery, beta, delay.n, 6)
            else:
                want = oracle_diagnosable_finite(battery, beta, 6)
            assert got == want


WITNESS_SOURCES = ["battery.json", "fully_obs.json", "intermittent.json",
                   "sensor_delay.json", "unobservable.json", *range(20)]


def witness_model(source):
    """A corpus model by file name, or `random_model` by seed."""
    # imported here: test_acceptance imports this module
    from .test_acceptance import random_model

    if isinstance(source, int):
        return random_model(source)[0]
    return load_model(corpus_path(source))


class TestWitness:
    @pytest.mark.parametrize("source", WITNESS_SOURCES)
    def test_critical_pair_is_brute_force_least(self, source):
        m = witness_model(source)
        for atom in sorted(m.atoms):
            beta = parse_expr(atom)
            for delay in (ExactDelay(1), ExactDelay(2), ExactDelay(3),
                          BoundedDelay(1), BoundedDelay(2)):
                verdict = check_diagnosability(m, spec(delay, beta=beta))
                got = None if verdict.diagnosable else verdict.pair.to_json()
                assert got == brute_force_critical_pair(m, beta, delay), (atom, delay)

    @pytest.mark.parametrize("source", WITNESS_SOURCES)
    def test_finite_pair_replays(self, source):
        # no oracle fixes the lasso; it must replay, and t is where trace1's
        # condition first holds
        m = witness_model(source)
        for atom in sorted(m.atoms):
            beta = parse_expr(atom)
            s = spec(FiniteDelay(), beta=beta)
            verdict = check_diagnosability(m, s)
            if verdict.diagnosable:
                continue
            assert_pair_replays(m, beta, s, verdict)
            trace1 = verdict.pair.trace1
            assert verdict.pair.t == next(i for i, x in enumerate(trace1.steps)
                                          if m.holds(beta, x)), atom

    def test_deep_bounded_delay(self, unobservable):
        # side 1 remembers 65 condition values: 2 ** 66 windows, of which
        # only those the search reaches may be built
        verdict = check_diagnosability(unobservable, spec(BoundedDelay(64)))
        assert verdict.pair.to_json() == {
            "trace1": ["n"] + ["f"] * 65, "trace2": ["n"] * 66, "t": 1}

    def test_deep_exact_delay(self, unobservable):
        # 1,500 steps after the fault, by least choices; the search for
        # them must not recurse per step
        verdict = check_diagnosability(unobservable, spec(ExactDelay(1500)))
        assert verdict.pair.to_json() == {
            "trace1": ["n"] + ["f"] * 1501, "trace2": ["n", "n"] + ["f"] * 1500, "t": 1}

    def test_deep_exact_delay_along_a_chain(self):
        # No cycle until the end of two 1,600-state chains: deciding that
        # 1,500 more steps exist walks 1,500 pairs deep.
        k = 1600
        states = {"n": {}}
        transitions = [["n", "a0"], ["n", "b0"], [f"a{k}", f"a{k}"], [f"b{k}", f"b{k}"]]
        for i in range(k + 1):
            states[f"a{i}"] = {"fault": True}
            states[f"b{i}"] = {}
        for i in range(k):
            transitions += [[f"a{i}", f"a{i + 1}"], [f"b{i}", f"b{i + 1}"]]
        m = parse_model(json.dumps({"atoms": ["fault"], "faults": ["fault"],
                                    "states": states, "initial": ["n"],
                                    "transitions": transitions}))
        s = spec(ExactDelay(1500))
        verdict = check_diagnosability(m, s)
        assert verdict.pair.t == 1 and len(verdict.pair.trace1) == 1502
        assert_pair_replays(m, FAULT, s, verdict)


class TestTraceDiagnosability:
    def test_globally_diagnosable_implies_trace(self, sensor_delay, fully_obs):
        for m, delay in ((sensor_delay, ExactDelay(2)), (fully_obs, ExactDelay(1)),
                         (sensor_delay, BoundedDelay(2))):
            s = spec(delay, diag="trace")
            for tr in enumerate_traces(m, 7):
                for t in range(len(tr) - delay.n):
                    if m.holds(FAULT, tr[t]):
                        assert check_trace_diagnosability(m, s, tr, t).diagnosable

    def test_unobservable_trace_never_diagnosable(self, unobservable):
        tr = Trace(("n", "f", "f", "f"))
        s = spec(ExactDelay(1), diag="trace")
        verdict = check_trace_diagnosability(unobservable, s, tr, 1)
        assert not verdict.diagnosable
        confuser = verdict.confuser
        assert unobservable.is_trace(confuser)
        assert not unobservable.holds(FAULT, confuser[1])

    def test_intermittent_revealing_vs_hidden(self, intermittent,
                                              intermittent_specs):
        s = intermittent_specs["t_exact1"]
        reveal = Trace(("n", "fh", "fr", "fr"))
        hidden = Trace(("n", "fh", "fh", "fh"))
        assert check_trace_diagnosability(intermittent, s, reveal, 1).diagnosable
        verdict = check_trace_diagnosability(intermittent, s, hidden, 1)
        assert not verdict.diagnosable
        assert verdict.confuser is not None
        # the confuser sees the same observations but the condition is not
        # certain: it does not hold at the anchored step
        assert not naive_past(intermittent, verdict.confuser, ExactDelay(1), FAULT, 2)

    def test_finite_delay_certainty_within_trace(self, intermittent,
                                                 intermittent_specs):
        s = intermittent_specs["t_finite"]
        assert check_trace_diagnosability(
            intermittent, s, Trace(("n", "fh", "fr")), 1).diagnosable
        assert not check_trace_diagnosability(
            intermittent, s, Trace(("n", "fh", "fh")), 1).diagnosable

    def test_condition_must_hold_at_t(self, sensor_delay, sensor_specs):
        with pytest.raises(TraceError, match="condition"):
            check_trace_diagnosability(sensor_delay, sensor_specs["t_exact2"],
                                       Trace(("n", "n", "n", "n")), 1)

    def test_trace_too_short(self, sensor_delay, sensor_specs):
        with pytest.raises(TraceError, match="too short"):
            check_trace_diagnosability(sensor_delay, sensor_specs["t_exact2"],
                                       Trace(("n", "f0")), 1)
