import json

import pytest
from hypothesis import given, settings, strategies as st

from faultkit.boolexpr import Const, parse_expr
from faultkit.errors import ModelFormatError, TraceError
from faultkit.fdispec import (AlarmRef, AlarmSpec, Always, BeliefTracker, BoundedDelay,
                              Cond, Eventually, ExactDelay, FiniteDelay, Implies,
                              KnowThat, NextShift, Once, OnceWithin, PastShift,
                              WithinFuture, belief_chain, eval_knowledge, eval_past,
                              instantiate_pattern, knowledge_counterexample,
                              memory_init, memory_satisfies, memory_update,
                              parse_specs, timed_verdict)
from faultkit.model import Trace, parse_model

from .oracles import knowledge_by_enumeration, naive_past, obs_buckets

FAULT = parse_expr("fault")


class TestSpecParsing:
    def test_roundtrip(self, sensor_specs):
        spec = sensor_specs["a_bound3"]
        assert spec.delay == BoundedDelay(3)
        assert spec.diag == "global"
        assert spec.maximal

    def test_duplicate_names_rejected(self):
        text = ('[{"alarm": "a", "beta": "x", "delay": {"kind": "finite"}},'
                ' {"alarm": "a", "beta": "y", "delay": {"kind": "finite"}}]')
        with pytest.raises(ModelFormatError, match="duplicate"):
            parse_specs(text)

    @pytest.mark.parametrize("text", [
        '[{"alarm": "a", "beta": "x", "delay": {"kind": "exact", "n": "3"}}]',
        '[{"alarm": "a", "beta": "x", "delay": {"kind": "bound", "n": true}}]',
        '[{"alarm": "a", "beta": "x", "delay": {"kind": "exact", "n": 2}, '
        '"diag": "trace", "diag": "global"}]',
        '[{"alarm": "a", "beta": "x", "delay": {"kind": "finite"}, "maximal": 1}]',
    ], ids=["n-string", "n-bool", "repeated-key", "maximal-int"])
    def test_mistyped_entry_rejected(self, text):
        with pytest.raises(ModelFormatError):
            parse_specs(text)

    def test_delay_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            AlarmSpec("a", FAULT, ExactDelay(0))

    def test_unknown_delay_kind(self):
        with pytest.raises(ModelFormatError, match="delay kind"):
            parse_specs('[{"alarm": "a", "beta": "x", "delay": {"kind": "someday"}}]')


class TestEvalPast:
    def test_once_true_from_step_zero(self, fully_obs):
        tr = Trace(("a", "b", "c", "c"))
        phi = Once(parse_expr("true"))
        assert all(eval_past(fully_obs, tr, phi, t) for t in range(4))

    def test_shift_needs_history(self, fully_obs):
        tr = Trace(("a", "b", "c"))
        assert not eval_past(fully_obs, tr, PastShift(FAULT, 2), 1)
        assert eval_past(fully_obs, tr, PastShift(FAULT, 1), 2)

    def test_index_out_of_range(self, fully_obs):
        with pytest.raises(IndexError):
            eval_past(fully_obs, Trace(("a",)), Once(FAULT), 1)

    def test_timed_verdict_vector(self, sensor_delay):
        tr = Trace(("n", "f0", "f1", "f2"))
        assert timed_verdict(sensor_delay, tr, Once(FAULT)) == \
            (False, True, True, True)
        assert timed_verdict(sensor_delay, tr, PastShift(FAULT, 2)) == \
            (False, False, False, True)

    @given(st.integers(0, 9999), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_scan(self, sensor_delay, seed, n):
        traces = list(sensor_delay.enumerate_traces(12))
        tr = traces[seed % len(traces)]
        for t in range(len(tr)):
            for phi in (PastShift(FAULT, n), OnceWithin(FAULT, max(1, n)), Once(FAULT)):
                assert eval_past(sensor_delay, tr, phi, t) == \
                    naive_past(sensor_delay, tr, phi, t)


class TestMemory:
    @pytest.mark.parametrize("delay,phi", [
        (ExactDelay(2), PastShift(FAULT, 2)),
        (BoundedDelay(2), OnceWithin(FAULT, 2)),
        (FiniteDelay(), Once(FAULT)),
    ])
    def test_memory_tracks_past_formula(self, sensor_delay, delay, phi):
        for tr in sensor_delay.enumerate_traces(8):
            mem = memory_init(delay, sensor_delay.holds(FAULT, tr[0]))
            assert memory_satisfies(delay, mem) == eval_past(sensor_delay, tr, phi, 0)
            for t in range(1, len(tr)):
                mem = memory_update(delay, mem, sensor_delay.holds(FAULT, tr[t]))
                assert memory_satisfies(delay, mem) == \
                    eval_past(sensor_delay, tr, phi, t)

    def test_tracker_numbers_only_the_memories_runs_reach(self, sensor_delay):
        # exact(20) has 2 ** 22 - 2 windows; runs of up to 6 states reach few
        delays = (ExactDelay(20), BoundedDelay(3), FiniteDelay())
        beliefs = BeliefTracker(sensor_delay, tuple((d, FAULT) for d in delays))
        reached = set()
        for horizon in range(1, 7):
            for tr in sensor_delay.enumerate_traces(horizon):
                flags = [sensor_delay.holds(FAULT, s) for s in tr.steps]
                mems = tuple(memory_init(d, flags[0]) for d in delays)
                for b in flags[1:]:
                    mems = tuple(memory_update(d, mem, b) for d, mem in zip(delays, mems))
                reached.add(mems)
                belief_chain(beliefs, [sensor_delay.observation(s) for s in tr.steps])
        assert sorted(beliefs.memories) == sorted(reached)
        for mems, sat in zip(beliefs.memories, beliefs.sat):
            assert sat == tuple(memory_satisfies(d, mem) for d, mem in zip(delays, mems))


class TestKnowledge:
    def test_constant_true_is_known(self, sensor_delay):
        tr = Trace(("n", "n", "n"))
        assert eval_knowledge(sensor_delay, tr, 2, Once(Const(True)))

    def test_observable_condition_is_known_when_seen(self, fully_obs):
        tr = Trace(("a", "b", "c"))
        assert eval_knowledge(fully_obs, tr, 1, Once(FAULT))
        assert eval_knowledge(fully_obs, tr, 2, Once(FAULT))
        assert not eval_knowledge(fully_obs, Trace(("a", "a")), 1, Once(FAULT))

    def test_hidden_fault_known_after_disambiguation(self, sensor_delay):
        tr = Trace(("n", "f0", "f1", "f2", "f2"))
        flips = [eval_knowledge(sensor_delay, tr, t, Once(FAULT)) for t in range(5)]
        assert flips == [False, False, False, True, True]

    def test_rejects_non_trace(self, sensor_delay):
        with pytest.raises(TraceError):
            eval_knowledge(sensor_delay, Trace(("f0", "f1")), 1, Once(FAULT))

    def test_knowledge_is_veridical(self, sensor_delay, intermittent):
        for m in (sensor_delay, intermittent):
            for tr in m.enumerate_traces(6):
                for phi in (PastShift(FAULT, 1), OnceWithin(FAULT, 2), Once(FAULT)):
                    for t in range(len(tr)):
                        if eval_knowledge(m, tr, t, phi):
                            assert eval_past(m, tr, phi, t)

    def test_matches_enumeration(self, sensor_delay, intermittent):
        for m in (sensor_delay, intermittent):
            for length in range(1, 7):
                for tr in m.enumerate_traces(length):
                    t = length - 1
                    for phi in (PastShift(FAULT, 1), OnceWithin(FAULT, 2), Once(FAULT)):
                        assert eval_knowledge(m, tr, t, phi) == \
                            knowledge_by_enumeration(m, tr, t, phi)

    def test_monotone_information(self, sensor_delay):
        # certainty about an absolutely anchored past fact is never revoked
        for tr in sensor_delay.enumerate_traces(8):
            for t in range(len(tr)):
                for n in (1, 2):
                    if t < n:
                        continue
                    if eval_knowledge(sensor_delay, tr, t, PastShift(FAULT, n)):
                        for t2 in range(t + 1, len(tr)):
                            shifted = PastShift(FAULT, n + (t2 - t))
                            assert eval_knowledge(sensor_delay, tr, t2, shifted)

    def test_counterexample_walks_back_through_least_states(self):
        # Nothing is observable.  Two runs end in c with no fault in the last
        # two steps: i f d c and i i e c.  Their members at d and at e carry
        # different memories; the walk back takes d, the lesser state.
        m = parse_model(json.dumps({
            "atoms": ["fault"], "faults": ["fault"], "observables": [],
            "states": {"i": {}, "f": {"fault": True}, "d": {}, "e": {}, "c": {}, "s": {}},
            "initial": ["i"],
            "transitions": [["i", "i"], ["i", "e"], ["i", "f"], ["f", "d"], ["d", "c"],
                            ["e", "c"], ["c", "s"], ["s", "s"]]}))
        witness = knowledge_counterexample(m, Trace(("i", "i", "e", "c")), 3, OnceWithin(FAULT, 1))
        assert witness == Trace(("i", "f", "d", "c"))

    def test_counterexample_is_least_from_its_end(self):
        # Nothing is observable and the condition never holds.  Both runs
        # end in c; the walk back takes y, the lesser predecessor, so the
        # witness is b y c although a z c is lexicographically less.
        m = parse_model(json.dumps({
            "atoms": ["fault"], "faults": ["fault"], "observables": [],
            "states": {"a": {}, "b": {}, "z": {}, "y": {}, "c": {}},
            "initial": ["a", "b"],
            "transitions": [["a", "z"], ["z", "c"], ["b", "y"], ["y", "c"], ["c", "c"]]}))
        witness = knowledge_counterexample(m, Trace(("a", "z", "c")), 2, Once(FAULT))
        assert witness == Trace(("b", "y", "c"))

    def test_counterexample_is_obs_equivalent_violator(self, sensor_delay):
        tr = Trace(("n", "f0", "f1"))
        phi = Once(FAULT)
        witness = knowledge_counterexample(sensor_delay, tr, 2, phi)
        assert witness is not None
        assert sensor_delay.is_trace(witness)
        assert [sensor_delay.observation(s) for s in witness.steps] == \
            [sensor_delay.observation(s) for s in tr.steps]
        assert not eval_past(sensor_delay, witness, phi, 2)


def _cells(beta, name, n):
    """The twelve pattern cells, hand-encoded."""
    b = Cond(beta)
    A = AlarmRef(name)
    Yn = PastShift(beta, n)
    On = OnceWithin(beta, n)
    O = Once(beta)
    return {
        ("exact", "global", False): (
            Always(Implies(A, Yn)),
            Always(Implies(b, NextShift(A, n))),
            None),
        ("exact", "global", True): (
            Always(Implies(A, Yn)),
            Always(Implies(b, NextShift(A, n))),
            Always(Implies(KnowThat(Yn), A))),
        ("bound", "global", False): (
            Always(Implies(A, On)),
            Always(Implies(b, WithinFuture(A, n))),
            None),
        ("bound", "global", True): (
            Always(Implies(A, On)),
            Always(Implies(b, WithinFuture(A, n))),
            Always(Implies(KnowThat(On), A))),
        ("finite", "global", False): (
            Always(Implies(A, O)),
            Always(Implies(b, Eventually(A))),
            None),
        ("finite", "global", True): (
            Always(Implies(A, O)),
            Always(Implies(b, Eventually(A))),
            Always(Implies(KnowThat(O), A))),
        ("exact", "trace", False): (
            Always(Implies(A, Yn)),
            Always(Implies(Implies(b, NextShift(KnowThat(Yn), n)),
                           Implies(b, NextShift(A, n)))),
            None),
        ("exact", "trace", True): (
            Always(Implies(A, Yn)),
            Always(Implies(Implies(b, NextShift(KnowThat(Yn), n)),
                           Implies(b, NextShift(A, n)))),
            Always(Implies(KnowThat(Yn), A))),
        ("bound", "trace", False): (
            Always(Implies(A, On)),
            Always(Implies(Implies(b, WithinFuture(KnowThat(On), n)),
                           Implies(b, WithinFuture(A, n)))),
            None),
        ("bound", "trace", True): (
            Always(Implies(A, On)),
            Always(Implies(Implies(b, WithinFuture(KnowThat(On), n)),
                           Implies(b, WithinFuture(A, n)))),
            Always(Implies(KnowThat(On), A))),
        ("finite", "trace", False): (
            Always(Implies(A, O)),
            Always(Implies(Implies(b, Eventually(KnowThat(O))),
                           Implies(b, Eventually(A)))),
            None),
        ("finite", "trace", True): (
            Always(Implies(A, O)),
            Always(Implies(Implies(b, Eventually(KnowThat(O))),
                           Implies(b, Eventually(A)))),
            Always(Implies(KnowThat(O), A))),
    }


class TestPatternTable:
    N = 2

    def _spec(self, kind, diag, maximal):
        delay = {"exact": ExactDelay(self.N), "bound": BoundedDelay(self.N),
                 "finite": FiniteDelay()}[kind]
        return AlarmSpec("A", FAULT, delay, diag, maximal)

    @pytest.mark.parametrize("kind", ["exact", "bound", "finite"])
    @pytest.mark.parametrize("diag", ["global", "trace"])
    @pytest.mark.parametrize("maximal", [False, True])
    def test_cell_matches_golden(self, kind, diag, maximal):
        expected = _cells(FAULT, "A", self.N)[(kind, diag, maximal)]
        got = instantiate_pattern(self._spec(kind, diag, maximal))
        assert got.correctness == expected[0]
        assert got.completeness == expected[1]
        assert got.maximality == expected[2]

    def test_exact_global_plain_shape(self):
        # exact delay, global, non-maximal: alarm looks back n steps and the
        # condition forces the alarm n steps later; no third conjunct.
        got = instantiate_pattern(self._spec("exact", "global", False))
        assert str(got.correctness) == "G (A -> Y^2 (fault))"
        assert str(got.completeness) == "G ((fault) -> X^2 A)"
        assert got.maximality is None

    def test_finite_global_maximal_shape(self):
        got = instantiate_pattern(self._spec("finite", "global", True))
        assert str(got.correctness) == "G (A -> O (fault))"
        assert str(got.completeness) == "G ((fault) -> F A)"
        assert str(got.maximality) == "G (K O (fault) -> A)"

    def test_bounded_trace_maximal_with_n3(self):
        # guarded completeness: achievability of certainty within the window
        # obliges the alarm within the same window
        got = instantiate_pattern(AlarmSpec("A", FAULT, BoundedDelay(3),
                                            "trace", True))
        b, A = Cond(FAULT), AlarmRef("A")
        known = KnowThat(OnceWithin(FAULT, 3))
        assert got.correctness == Always(Implies(A, OnceWithin(FAULT, 3)))
        assert got.completeness == Always(
            Implies(Implies(b, WithinFuture(known, 3)),
                    Implies(b, WithinFuture(A, 3))))
        assert got.maximality == Always(Implies(known, A))
