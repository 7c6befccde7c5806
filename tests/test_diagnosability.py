import functools
import json
import random

import pytest

from faultkit import diagnosability
from faultkit.boolexpr import parse_expr
from faultkit.diagnosability import (check_diagnosability,
                                     check_trace_diagnosability)
from faultkit.errors import TraceError
from faultkit.fdispec import AlarmSpec, BoundedDelay, ExactDelay, FiniteDelay
from faultkit.model import Trace, load_model, parse_model

from .conftest import bench_module, corpus_path
from .oracles import (brute_force_critical_pair, coarsest_bisimulation,
                      enumerate_traces, naive_past,
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

    def test_longest_walk_against_walks_step_by_step(self):
        # random graphs, asked in a random order, so that the table is read
        # across calls; self-loops and cycles included
        for seed in range(300):
            rng = random.Random(seed)
            size, n = rng.randint(1, 8), rng.randint(0, 10)
            succ = [rng.sample(range(size), rng.randint(0, min(3, size)))
                    for _ in range(size)]
            # leaving[k]: the nodes some walk of k steps leaves
            leaving = [set(range(size))]
            for _ in range(n):
                leaving.append({v for v in range(size) if leaving[-1].intersection(succ[v])})
            longest = diagnosability._longest_walk(succ.__getitem__, n)
            for v in rng.sample(range(size), size):
                assert longest(v) == max(k for k, nodes in enumerate(leaving) if v in nodes)


@functools.cache
def kofn_model(n):
    return parse_model(json.dumps(bench_module("gen").kofn_phase(n)))


KOFN_BETAS = ["low", "c0_fail", "c1_fail & !low"]
QUOTIENT_DELAYS = {"exact1": ExactDelay(1), "exact2": ExactDelay(2), "bound1": BoundedDelay(1),
                   "bound2": BoundedDelay(2), "finite": FiniteDelay()}


def partition_cases():
    """(model, condition) pairs: every atom of the corpus models, the kofn
    conditions, and each random model's top level event and first fault."""
    from .test_acceptance import random_model

    for name in WITNESS_SOURCES[:5]:
        m = load_model(corpus_path(name))
        for atom in sorted(m.atoms):
            yield pytest.param(m, atom, id=f"{name}-{atom}")
    for n in (3, 4, 5):
        for beta in KOFN_BETAS:
            yield pytest.param(kofn_model(n), beta, id=f"kofn{n}-{beta}")
    for seed in range(20):
        m, tle = random_model(seed)
        for beta in (tle, "f0"):
            yield pytest.param(m, beta, id=f"random{seed}-{beta}")
    for observed_last, initial in ((False, "ab"), (True, "ab"), (False, "a")):
        yield pytest.param(layered(4, observed_last, initial), "f",
                           id=f"layered-{observed_last}-{initial}")


def layered(k, observed_last=False, initial="ab"):
    """Two copies of a chain of k layers, numbered down to 0: each state
    steps to both states of the next layer, layer 0 to itself, and `f`
    holds on layer 0.  The layers are the k blocks of 2k states.  There are
    k + 1 when the observable `x` tells layer 0's states apart, or when only
    side a's first state is initial."""
    states = {f"{side}{d}": {} for d in range(k) for side in "ab"}
    states["a0"]["f"] = states["b0"]["f"] = True
    if observed_last:
        states["a0"]["x"] = True
    transitions = [[f"{side}{d}", f"{other}{max(d - 1, 0)}"]
                   for d in range(k) for side in "ab" for other in "ab"]
    return parse_model(json.dumps({"atoms": ["f", "x"], "observables": ["x"],
                                   "states": states,
                                   "initial": [f"{side}{k - 1}" for side in initial],
                                   "transitions": transitions}))


class TestQuotient:
    @pytest.mark.parametrize("m, beta", partition_cases())
    def test_blocks_are_the_coarsest_bisimulation(self, m, beta):
        block = diagnosability._bisimulation(m, parse_expr(beta), m.size)
        groups: dict = {}
        for i, b in enumerate(block):
            groups.setdefault(b, set()).add(m.ids[i])
        want = coarsest_bisimulation(m, beta)
        assert set(map(frozenset, groups.values())) == want
        # blocks are numbered by their least states
        assert list(groups) == list(range(len(groups)))
        q = diagnosability._quotient(m, beta)
        if q is None:
            assert len(want) > m.size // 2
            return
        assert q.ids == tuple(sorted(min(group) for group in want))
        rep = {sid: min(group) for group in want for sid in group}
        assert set(q.initial) == {rep[sid] for sid in m.initial}
        for i, nxts in enumerate(m.succ):
            here = q.number[rep[m.ids[i]]]
            assert q.succ[here] == sorted({q.number[rep[m.ids[j]]] for j in nxts})
            assert q.condition(beta)[here] == m.condition(beta)[i]
            assert q.observation(q.ids[here]) == m.observation(m.ids[i])

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_taken_at_half_the_states_refused_past_it(self, k):
        # 2k states: k blocks take the quotient, k + 1 refuse it
        for observed_last, initial, blocks in ((False, "ab", k), (True, "ab", k + 1),
                                               (False, "a", k + 1)):
            m = layered(k, observed_last, initial)
            assert m.size == 2 * k
            assert len(coarsest_bisimulation(m, "f")) == blocks
            q = diagnosability._quotient(m, parse_expr("f"))
            if blocks == k:
                assert q.size == k
            else:
                assert q is None

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("beta", KOFN_BETAS)
    @pytest.mark.parametrize("delay", QUOTIENT_DELAYS.values(), ids=QUOTIENT_DELAYS)
    def test_kofn_verdict_and_pair_without_the_quotient(self, monkeypatch, n, beta, delay):
        m = kofn_model(n)
        s = spec(delay, beta=parse_expr(beta))
        if beta == "low":
            assert diagnosability._quotient(m, s.beta) is not None
        got = check_diagnosability(m, s)
        monkeypatch.setattr(diagnosability, "_quotient", lambda m, beta: None)
        assert got == check_diagnosability(m, s)

    def test_an_accepted_quotient_builds_no_critical_pair(self, monkeypatch):
        # the quotient is asked for a verdict only: the one pair built is the
        # concrete model's
        m = kofn_model(4)
        s = spec(FiniteDelay(), beta=parse_expr("c1_fail"))
        assert (diagnosability._quotient(m, s.beta).size, m.size) == (30, 96)
        built = []

        def counted(*args):
            built.append(args)
            return critical_pair(*args)

        critical_pair = diagnosability.CriticalPair
        monkeypatch.setattr(diagnosability, "CriticalPair", counted)
        verdict = check_diagnosability(m, s)
        assert not verdict.diagnosable and len(built) == 1
        assert_pair_replays(m, s.beta, s, verdict)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_verdict_and_pair_without_the_quotient(self, monkeypatch, seed):
        from .test_acceptance import random_model

        m, tle = random_model(seed)
        cases = [spec(delay, beta=parse_expr(beta))
                 for beta in (tle, "f0") for delay in QUOTIENT_DELAYS.values()]
        got = [check_diagnosability(m, s) for s in cases]
        monkeypatch.setattr(diagnosability, "_quotient", lambda m, beta: None)
        assert got == [check_diagnosability(m, s) for s in cases]

    @pytest.mark.parametrize("beta", ["low", "c1_fail & !low"])
    def test_oracle_agreement_where_the_quotient_is_taken(self, beta):
        m, horizon = kofn_model(3), 7
        beta = parse_expr(beta)
        assert diagnosability._quotient(m, beta) is not None
        for delay in QUOTIENT_DELAYS.values():
            got = check_diagnosability(m, spec(delay, beta=beta)).diagnosable
            if isinstance(delay, ExactDelay):
                want = oracle_diagnosable_exact(m, beta, delay.n, horizon)
            elif isinstance(delay, BoundedDelay):
                want = oracle_diagnosable_bounded(m, beta, delay.n, horizon)
            else:
                want = oracle_diagnosable_finite(m, beta, horizon)
            assert got == want, delay


def small_model(states, initial, transitions, observables=()):
    return parse_model(json.dumps({"atoms": ["fault", "x"], "faults": ["fault"],
                                   "observables": list(observables), "states": states,
                                   "initial": initial, "transitions": transitions}))


def side2_cases():
    """Models for the finite-delay twin plant, whose side 2 keeps to
    condition-free states: (model, condition, oracle horizon)."""
    loop = [["n", "n"], ["n", "f"], ["f", "f"]]
    yield pytest.param(small_model({"i": {"fault": True}, "j": {}}, ["i", "j"],
                                   [["i", "i"], ["j", "j"], ["j", "i"]]),
                       "fault", 6, id="beta-in-an-initial-state")
    yield pytest.param(small_model({"i": {"fault": True}, "j": {"fault": True}, "n": {}},
                                   ["i", "j"], [["i", "n"], ["j", "j"], ["n", "n"]]),
                       "fault", 6, id="beta-in-every-initial-state")
    yield pytest.param(small_model({"n": {}, "f": {"fault": True}}, ["n"], loop),
                       "fault", 6, id="beta-only-on-a-self-loop")
    yield pytest.param(small_model({"n": {}, "f": {"fault": True, "x": True}}, ["n"], loop,
                                   ["x"]),
                       "fault", 6, id="beta-only-on-an-observed-self-loop")
    yield pytest.param(small_model({"n": {}, "m": {"x": True}, "f": {}}, ["n"],
                                   [["n", "m"], ["n", "f"], ["m", "n"], ["f", "f"]], ["x"]),
                       "fault", 6, id="beta-never-holds")
    yield pytest.param(layered(4), "f", 7, id="layered-quotient-diagnosable")
    yield pytest.param(kofn_model(3), "low", 7, id="kofn3-quotient-diagnosable")
    yield pytest.param(kofn_model(3), "c1_fail & !low", 7,
                       id="kofn3-quotient-not-diagnosable")


class TestFiniteSide2:
    @pytest.mark.parametrize("m, beta, horizon", side2_cases())
    def test_verdict_and_pair_as_without_pruning(self, monkeypatch, m, beta, horizon):
        s = spec(FiniteDelay(), beta=parse_expr(beta))
        verdict = check_diagnosability(m, s)
        assert verdict.diagnosable == oracle_diagnosable_finite(m, s.beta, horizon)
        if not verdict.diagnosable:
            assert_pair_replays(m, s.beta, s, verdict)
        # the pruned twin plant gives the pair that the whole one gives
        monkeypatch.setattr(diagnosability, "_clear", lambda groups, flags: groups)
        assert verdict == check_diagnosability(m, s)


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
