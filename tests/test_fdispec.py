import copy
import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from faultkit.boolexpr import Const, parse_expr
from faultkit.errors import ModelFormatError, TraceError
from faultkit.fdispec import (AlarmSpec, BeliefTracker, BoundedDelay, ExactDelay,
                              FiniteDelay, eval_knowledge, instantiate_pattern,
                              delay_memory, knowledge_counterexample, parse_specs)
from faultkit.model import Trace, parse_model

from .oracles import enumerate_traces, knowledge_by_enumeration, naive_past, obs_buckets

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

    def test_delays_compare_by_kind_and_bound(self):
        assert FiniteDelay() == FiniteDelay()
        assert hash(FiniteDelay()) == hash(FiniteDelay())
        assert ExactDelay(2) == ExactDelay(2)
        assert ExactDelay(2) != BoundedDelay(2)
        assert ExactDelay(2) != ExactDelay(3)

    def test_spec_is_frozen(self, sensor_specs):
        spec = sensor_specs["a_bound3"]
        with pytest.raises(AttributeError):
            spec.maximal = False
        assert spec.maximal
        assert copy.deepcopy(spec) == pickle.loads(pickle.dumps(spec)) == spec

    def test_delay_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            AlarmSpec("a", FAULT, ExactDelay(0))

    def test_unknown_delay_kind(self):
        with pytest.raises(ModelFormatError, match="delay kind"):
            parse_specs('[{"alarm": "a", "beta": "x", "delay": {"kind": "someday"}}]')


def past_by_memory(m, tr, delay, beta, t):
    """The past formula of `delay` over `beta` at step t of tr, read off the
    delay's memory stepped along the run."""
    _, first, step, holds = delay_memory(delay)
    mem = first(m.holds(beta, tr[0]))
    for sid in tr.steps[1:t + 1]:
        mem = step(mem, m.holds(beta, sid))
    return holds(mem)


class TestEvalPast:
    def test_once_true_from_step_zero(self, fully_obs):
        tr = Trace(("a", "b", "c", "c"))
        true = parse_expr("true")
        assert all(past_by_memory(fully_obs, tr, FiniteDelay(), true, t) for t in range(4))

    def test_shift_needs_history(self, fully_obs):
        tr = Trace(("a", "b", "c"))
        assert not past_by_memory(fully_obs, tr, ExactDelay(2), FAULT, 1)
        assert past_by_memory(fully_obs, tr, ExactDelay(1), FAULT, 2)

    def test_timed_verdict_vector(self, sensor_delay):
        tr = Trace(("n", "f0", "f1", "f2"))

        def timed_verdict(delay):
            return tuple(past_by_memory(sensor_delay, tr, delay, FAULT, t)
                         for t in range(len(tr)))

        assert timed_verdict(FiniteDelay()) == (False, True, True, True)
        assert timed_verdict(ExactDelay(2)) == (False, False, False, True)

    @given(st.integers(0, 9999), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_scan(self, sensor_delay, seed, n):
        traces = list(enumerate_traces(sensor_delay, 12))
        tr = traces[seed % len(traces)]
        for t in range(len(tr)):
            for delay in (ExactDelay(n), BoundedDelay(max(1, n)), FiniteDelay()):
                assert past_by_memory(sensor_delay, tr, delay, FAULT, t) == \
                    naive_past(sensor_delay, tr, delay, FAULT, t)


class TestMemory:
    @pytest.mark.parametrize("delay", [ExactDelay(2), BoundedDelay(2), FiniteDelay()])
    def test_memory_tracks_past_formula(self, sensor_delay, delay):
        for tr in enumerate_traces(sensor_delay, 8):
            for t in range(len(tr)):
                assert past_by_memory(sensor_delay, tr, delay, FAULT, t) == \
                    naive_past(sensor_delay, tr, delay, FAULT, t)

    @pytest.mark.parametrize("delay, count", [
        (ExactDelay(0), 2), (ExactDelay(3), 2 ** 5 - 2), (BoundedDelay(0), 2),
        (BoundedDelay(4), 6), (FiniteDelay(), 2)], ids=str)
    def test_memory_bound_counts_every_memory(self, delay, count):
        # windows of 1 to n + 1 values, counts 0 to n + 1, or a latch
        bound, first, step, _ = delay_memory(delay)
        reached = {first(b) for b in (0, 1)}
        frontier = list(reached)
        while frontier:
            mem = frontier.pop()
            for b in (0, 1):
                nxt = step(mem, b)
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        assert len(reached) == count
        assert all(0 <= mem < bound for mem in reached)

    @given(st.integers(0, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_memory_matches_direct_evaluation(self, n, data):
        # Y^n, O<=n and O over a condition sequence long enough for
        # windows to overflow; a label's bits above bit 0 are ignored
        labels = data.draw(st.lists(st.integers(0, 7), min_size=1, max_size=3 * n + 4))
        now = [label & 1 for label in labels]
        past = {ExactDelay(n): lambda t: t >= n and now[t - n] == 1,
                BoundedDelay(n): lambda t: any(now[max(0, t - n):t + 1]),
                FiniteDelay(): lambda t: any(now[:t + 1])}
        for delay, direct in past.items():
            bound, first, step, holds = delay_memory(delay)
            mem = first(labels[0])
            for t, label in enumerate(labels):
                if t:
                    mem = step(mem, label)
                assert 0 <= mem < bound
                assert holds(mem) == direct(t), (str(delay), labels, t)

    def test_tracker_numbers_only_the_memories_runs_reach(self, sensor_delay):
        # exact(20) has 2 ** 22 - 2 windows; runs of up to 6 states reach few
        delays = (ExactDelay(20), BoundedDelay(3), FiniteDelay())
        beliefs = BeliefTracker(sensor_delay, tuple((d, FAULT) for d in delays))
        kinds = [delay_memory(d) for d in delays]
        reached = set()
        for horizon in range(1, 7):
            for tr in enumerate_traces(sensor_delay, horizon):
                flags = [sensor_delay.holds(FAULT, s) for s in tr.steps]
                mems = tuple(first(flags[0]) for _, first, _, _ in kinds)
                for b in flags[1:]:
                    mems = tuple(step(mem, b) for (_, _, step, _), mem in zip(kinds, mems))
                reached.add(mems)
                classes = [sensor_delay.obs_class[sensor_delay.number[s]] for s in tr.steps]
                belief = beliefs.initial()[classes[0]]
                for c in classes[1:]:
                    belief = beliefs.successors(belief)[c]
        assert sorted(beliefs.memories) == sorted(reached)
        for mems, sat in zip(beliefs.memories, beliefs.sat):
            assert sat == sum(holds(mem) << i for i, ((_, _, _, holds), mem)
                              in enumerate(zip(kinds, mems)))


DELAYS = st.one_of(st.builds(ExactDelay, st.integers(1, 3)),
                   st.builds(BoundedDelay, st.integers(1, 3)), st.just(FiniteDelay()))


class TestBeliefSteps:
    @given(st.integers(0, 59), st.lists(DELAYS, min_size=1, max_size=3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_a_belief_steps_as_its_members_do(self, seed, delays, data):
        from .test_acceptance import random_model_doc

        doc, tle = random_model_doc(seed)
        m = parse_model(json.dumps(doc))
        betas = [parse_expr(data.draw(st.sampled_from([tle, *doc["atoms"]]))) for _ in delays]
        kinds = [delay_memory(delay) for delay in delays]
        flags = [m.condition(beta) for beta in betas]
        beliefs = BeliefTracker(m, tuple(zip(delays, betas)))
        N = m.size
        returned = []
        frontier = list(beliefs.initial().values())
        seen = set(frontier)
        while frontier and len(seen) < 80:
            belief = frontier.pop(0)
            after = beliefs.successors(belief)
            returned.append((after, dict(after)))
            # each member's class-c successors, its memories stepped by hand
            expected = {}
            for member in belief:
                memory, state = divmod(member, N)
                for nxt in m.succ[state]:
                    mems = tuple(step(mem, f[nxt]) for (_, _, step, _), mem, f
                                 in zip(kinds, beliefs.memories[memory], flags))
                    expected.setdefault(m.obs_class[nxt], set()).add(
                        beliefs.memories.index(mems) * N + nxt)
            assert after == {c: tuple(sorted(members)) for c, members in expected.items()}
            every, some = beliefs.known(belief)
            for i, (_, _, _, holds) in enumerate(kinds):
                members = [holds(beliefs.memories[member // N][i]) for member in belief]
                assert members == [beliefs.holds(member, i) for member in belief]
                assert (every >> i & 1, some >> i & 1) == (all(members), any(members))
            for nxt in after.values():
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        # a later call changes no result handed out before it
        assert all(after == kept for after, kept in returned)


class TestKnowledge:
    def test_constant_true_is_known(self, sensor_delay):
        tr = Trace(("n", "n", "n"))
        assert eval_knowledge(sensor_delay, tr, 2, FiniteDelay(), Const(True))

    def test_observable_condition_is_known_when_seen(self, fully_obs):
        tr = Trace(("a", "b", "c"))
        assert eval_knowledge(fully_obs, tr, 1, FiniteDelay(), FAULT)
        assert eval_knowledge(fully_obs, tr, 2, FiniteDelay(), FAULT)
        assert not eval_knowledge(fully_obs, Trace(("a", "a")), 1, FiniteDelay(), FAULT)

    def test_hidden_fault_known_after_disambiguation(self, sensor_delay):
        tr = Trace(("n", "f0", "f1", "f2", "f2"))
        flips = [eval_knowledge(sensor_delay, tr, t, FiniteDelay(), FAULT) for t in range(5)]
        assert flips == [False, False, False, True, True]

    def test_rejects_non_trace(self, sensor_delay):
        with pytest.raises(TraceError):
            eval_knowledge(sensor_delay, Trace(("f0", "f1")), 1, FiniteDelay(), FAULT)

    @pytest.mark.parametrize("query", [eval_knowledge, knowledge_counterexample])
    def test_checks_the_trace_and_the_time_index(self, battery, query):
        beta = parse_expr("b1_fail")
        with pytest.raises(IndexError):
            query(battery, Trace(("s00_a",)), 5, FiniteDelay(), beta)
        with pytest.raises(TraceError):
            query(battery, Trace(("s00_a", "nowhere")), 1, FiniteDelay(), beta)

    def test_knowledge_is_veridical(self, sensor_delay, intermittent):
        for m in (sensor_delay, intermittent):
            for tr in enumerate_traces(m, 6):
                for delay in (ExactDelay(1), BoundedDelay(2), FiniteDelay()):
                    for t in range(len(tr)):
                        if eval_knowledge(m, tr, t, delay, FAULT):
                            assert naive_past(m, tr, delay, FAULT, t)

    def test_matches_enumeration(self, sensor_delay, intermittent):
        for m in (sensor_delay, intermittent):
            for length in range(1, 7):
                for tr in enumerate_traces(m, length):
                    t = length - 1
                    for delay in (ExactDelay(1), BoundedDelay(2), FiniteDelay()):
                        assert eval_knowledge(m, tr, t, delay, FAULT) == \
                            knowledge_by_enumeration(m, tr, t, delay, FAULT)

    def test_monotone_information(self, sensor_delay):
        # certainty about an absolutely anchored past fact is never revoked
        for tr in enumerate_traces(sensor_delay, 8):
            for t in range(len(tr)):
                for n in (1, 2):
                    if t < n:
                        continue
                    if eval_knowledge(sensor_delay, tr, t, ExactDelay(n), FAULT):
                        for t2 in range(t + 1, len(tr)):
                            shifted = ExactDelay(n + (t2 - t))
                            assert eval_knowledge(sensor_delay, tr, t2, shifted, FAULT)

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
        witness = knowledge_counterexample(m, Trace(("i", "i", "e", "c")), 3, BoundedDelay(1),
                                           FAULT)
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
        witness = knowledge_counterexample(m, Trace(("a", "z", "c")), 2, FiniteDelay(), FAULT)
        assert witness == Trace(("b", "y", "c"))

    def test_counterexample_is_obs_equivalent_violator(self, sensor_delay):
        tr = Trace(("n", "f0", "f1"))
        witness = knowledge_counterexample(sensor_delay, tr, 2, FiniteDelay(), FAULT)
        assert witness is not None
        assert sensor_delay.is_trace(witness)
        assert [sensor_delay.observation(s) for s in witness.steps] == \
            [sensor_delay.observation(s) for s in tr.steps]
        assert not naive_past(sensor_delay, witness, FiniteDelay(), FAULT, 2)


def _cells(beta, name, n):
    """The twelve pattern cells, hand-encoded as (correctness, completeness,
    maximality) texts; maximality is None for a non-maximal spec."""
    b = f"({beta})"
    A = name
    Yn = f"Y^{n} {b}"
    On = f"O<={n} {b}"
    O = f"O {b}"
    return {
        ("exact", "global", False): (
            f"G ({A} -> {Yn})",
            f"G ({b} -> X^{n} {A})",
            None),
        ("exact", "global", True): (
            f"G ({A} -> {Yn})",
            f"G ({b} -> X^{n} {A})",
            f"G (K {Yn} -> {A})"),
        ("bound", "global", False): (
            f"G ({A} -> {On})",
            f"G ({b} -> F<={n} {A})",
            None),
        ("bound", "global", True): (
            f"G ({A} -> {On})",
            f"G ({b} -> F<={n} {A})",
            f"G (K {On} -> {A})"),
        ("finite", "global", False): (
            f"G ({A} -> {O})",
            f"G ({b} -> F {A})",
            None),
        ("finite", "global", True): (
            f"G ({A} -> {O})",
            f"G ({b} -> F {A})",
            f"G (K {O} -> {A})"),
        ("exact", "trace", False): (
            f"G ({A} -> {Yn})",
            f"G (({b} -> X^{n} K {Yn}) -> ({b} -> X^{n} {A}))",
            None),
        ("exact", "trace", True): (
            f"G ({A} -> {Yn})",
            f"G (({b} -> X^{n} K {Yn}) -> ({b} -> X^{n} {A}))",
            f"G (K {Yn} -> {A})"),
        ("bound", "trace", False): (
            f"G ({A} -> {On})",
            f"G (({b} -> F<={n} K {On}) -> ({b} -> F<={n} {A}))",
            None),
        ("bound", "trace", True): (
            f"G ({A} -> {On})",
            f"G (({b} -> F<={n} K {On}) -> ({b} -> F<={n} {A}))",
            f"G (K {On} -> {A})"),
        ("finite", "trace", False): (
            f"G ({A} -> {O})",
            f"G (({b} -> F K {O}) -> ({b} -> F {A}))",
            None),
        ("finite", "trace", True): (
            f"G ({A} -> {O})",
            f"G (({b} -> F K {O}) -> ({b} -> F {A}))",
            f"G (K {O} -> {A})"),
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
        assert got["correctness"] == expected[0]
        assert got["completeness"] == expected[1]
        assert got.get("maximality") == expected[2]
        assert list(got) == ["correctness", "completeness", "maximality"][:len(got)]

    def test_exact_global_plain_shape(self):
        # exact delay, global, non-maximal: alarm looks back n steps and the
        # condition forces the alarm n steps later; no third conjunct.
        got = instantiate_pattern(self._spec("exact", "global", False))
        assert got["correctness"] == "G (A -> Y^2 (fault))"
        assert got["completeness"] == "G ((fault) -> X^2 A)"
        assert "maximality" not in got

    def test_finite_global_maximal_shape(self):
        got = instantiate_pattern(self._spec("finite", "global", True))
        assert got["correctness"] == "G (A -> O (fault))"
        assert got["completeness"] == "G ((fault) -> F A)"
        assert got["maximality"] == "G (K O (fault) -> A)"

    def test_bounded_trace_maximal_with_n3(self):
        # guarded completeness: achievability of certainty within the window
        # obliges the alarm within the same window
        got = instantiate_pattern(AlarmSpec("A", FAULT, BoundedDelay(3),
                                            "trace", True))
        assert got["correctness"] == "G (A -> O<=3 (fault))"
        assert got["completeness"] == \
            "G (((fault) -> F<=3 K O<=3 (fault)) -> ((fault) -> F<=3 A))"
        assert got["maximality"] == "G (K O<=3 (fault) -> A)"
