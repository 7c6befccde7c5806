import json

import pytest
from hypothesis import given, settings, strategies as st

from faultkit.boolexpr import And, Atom, Const, Not, Or, as_expr
from faultkit.errors import ModelFormatError
from faultkit.model import Trace, parse_model, validate_model

from .oracles import evaluate, observed


def successor_ids(m, sid):
    return tuple(m.ids[j] for j in m.succ[m.number[sid]])


MINIMAL = json.dumps({
    "atoms": ["x"], "faults": [], "observables": [], "modes": [],
    "states": {"s0": {}}, "initial": ["s0"], "transitions": [["s0", "s0"]],
})

# A name for each bad transition item, the item, and the message naming it
MALFORMED_TRANSITIONS = {
    "two-char-string": ("ab", "transition must be a [from, to] pair, got 'ab'"),
    "two-key-object": ({"a": "b", "b": "a"},
                       "transition must be a [from, to] pair, got {'a': 'b', 'b': 'a'}"),
    "number": (3, "transition must be a [from, to] pair, got 3"),
    "null": (None, "transition must be a [from, to] pair, got None"),
    "one-element": (["a"], "transition must be a [from, to] pair, got ['a']"),
    "three-elements": (["a", "b", "a"],
                       "transition must be a [from, to] pair, got ['a', 'b', 'a']"),
    "number-id": ([1, "b"], "unknown state in transition [1, 'b']"),
    "null-id": (["a", None], "unknown state in transition ['a', None]"),
    "list-id": ([[], "b"], "unknown state in transition [[], 'b']"),
    "unknown-id": (["a", "ghost"], "unknown state in transition ['a', 'ghost']"),
}


# What follows the bad item: a second bad item of either kind, or a valid one
FOLLOWERS = {"then-unknown": ["b", "ghost"], "then-string": "b", "then-valid": ["b", "b"]}


def malformed_transition_doc(item, second) -> dict:
    """A model whose transitions put `item` between a valid one and `second`,
    then a valid one; its states `a` and `b` make "ab" and {"a": .., "b": ..}
    unpack as pairs."""
    return {"atoms": ["x"], "states": {"a": {}, "b": {"x": True}}, "initial": ["a"],
            "transitions": [["a", "b"], item, second, ["b", "a"]]}


class TestParsing:
    def test_minimal_model(self):
        m = parse_model(MINIMAL)
        assert len(m.states) == 1
        assert successor_ids(m, "s0") == ("s0",)

    def test_unknown_state_in_transition(self):
        doc = json.loads(MINIMAL)
        doc["transitions"].append(["s0", "ghost"])
        with pytest.raises(ModelFormatError, match="unknown state"):
            parse_model(json.dumps(doc))

    def test_unknown_atom_in_valuation(self):
        doc = json.loads(MINIMAL)
        doc["states"]["s0"] = {"zzz": True}
        with pytest.raises(ModelFormatError, match="unknown atom"):
            parse_model(json.dumps(doc))

    def test_duplicate_state_id(self):
        text = ('{"atoms": ["x"], "states": {"s0": {}, "s0": {"x": true}}, '
                '"initial": ["s0"], "transitions": [["s0", "s0"]]}')
        with pytest.raises(ModelFormatError, match="duplicate"):
            parse_model(text)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ModelFormatError, match="line 1"):
            parse_model("{nope}")

    def test_deep_nesting_is_a_format_error(self):
        with pytest.raises(ModelFormatError, match="^nested too deeply$"):
            parse_model("[" * 200_000)

    def test_trace_is_frozen(self):
        tr = Trace(("a", "b"))
        with pytest.raises(AttributeError):
            tr.steps = ("a",)
        assert tr.steps == ("a", "b")
        assert hash(tr) == hash(Trace(("a", "b")))

    def test_trace_file_steps_must_be_names(self):
        assert Trace.from_json({"steps": ["a", "b"]}) == Trace(("a", "b"))
        with pytest.raises(ModelFormatError, match="steps"):
            Trace.from_json({"steps": "n"})

    def test_unlisted_atoms_default_false(self):
        m = parse_model(MINIMAL)
        assert m.holds("x", "s0") is False

    @pytest.mark.parametrize("name", ["true", "false"])
    def test_constant_names_are_no_atoms(self, name):
        # the expression grammar reads them as constants, so no condition
        # could name such an atom
        doc = json.loads(MINIMAL)
        doc["atoms"].append(name)
        with pytest.raises(ModelFormatError, match=f"^atom '{name}' cannot be referenced"):
            parse_model(json.dumps(doc))

    @pytest.mark.parametrize("record,message", [
        ([], "state 's0' must be an object of booleans, got []"),
        # the kind check comes first, wherever the bad value is
        ({"zzz": True, "x": 1},
         'state \'s0\' must be an object of booleans, got {"zzz": true, "x": 1}'),
        ({"x": True, "zzz": False, "yyy": True}, "state 's0': unknown atom 'yyy'"),
    ], ids=["not-an-object", "not-booleans", "unknown-atoms"])
    def test_malformed_record_reported_in_order(self, record, message):
        doc = json.loads(MINIMAL)
        doc["states"]["s0"] = record
        with pytest.raises(ModelFormatError) as err:
            parse_model(json.dumps(doc))
        assert str(err.value) == message

    @pytest.mark.parametrize("item,message", MALFORMED_TRANSITIONS.values(),
                             ids=MALFORMED_TRANSITIONS)
    @pytest.mark.parametrize("second", FOLLOWERS.values(), ids=FOLLOWERS)
    def test_malformed_transition_reported_in_order(self, item, message, second):
        # the first bad item is named, whatever follows it; followed by
        # valid items only, "ab" and the two-key object must still fail
        with pytest.raises(ModelFormatError) as err:
            parse_model(json.dumps(malformed_transition_doc(item, second)))
        assert str(err.value) == message

    @given(st.integers(0, 59), st.randoms(use_true_random=False), st.data())
    @settings(max_examples=60, deadline=None)
    def test_successors_are_the_distinct_targets_sorted(self, seed, rng, data):
        from .test_acceptance import random_model_doc
        doc, _ = random_model_doc(seed)
        transitions = doc["transitions"]
        transitions += data.draw(st.lists(st.sampled_from(transitions), max_size=20))
        rng.shuffle(transitions)
        m = parse_model(json.dumps(doc))
        number = {sid: i for i, sid in enumerate(sorted(doc["states"]))}
        targets = [set() for _ in number]
        for a, b in transitions:
            targets[number[a]].add(number[b])
        assert m.succ == [sorted(t) for t in targets]

    def test_states_are_the_input_records(self, battery):
        from .conftest import corpus_json
        assert battery.states == corpus_json("battery.json")["states"]

    def test_battery_corpus_is_12_states(self, battery):
        assert len(battery.states) == 12
        assert sum(map(len, battery.succ)) == 24


class TestValidation:
    def test_corpus_models_valid(self, battery, sensor_delay, intermittent,
                                 fully_obs, unobservable):
        for m in (battery, sensor_delay, intermittent, fully_obs, unobservable):
            assert validate_model(m) == []

    def _battery_doc(self):
        from .conftest import corpus_json
        return corpus_json("battery.json")

    def test_deadlock_reported(self):
        doc = self._battery_doc()
        doc["transitions"] = [t for t in doc["transitions"] if t[0] != "s11_a"]
        report = validate_model(parse_model(json.dumps(doc)))
        assert any(v.kind == "deadlock-freedom" and v.subject == "s11_a"
                   for v in report)

    def test_fault_persistence_reported(self):
        doc = self._battery_doc()
        doc["transitions"].append(["s10_a", "s00_b"])
        report = validate_model(parse_model(json.dumps(doc)))
        assert any(v.kind == "fault-persistence" and "s10_a" in v.subject
                   for v in report)

    def test_initial_fault_reported(self):
        doc = self._battery_doc()
        doc["initial"].append("s10_a")
        report = validate_model(parse_model(json.dumps(doc)))
        assert any(v.kind == "initial-faults-false" for v in report)

    def test_mode_uniqueness_reported(self):
        doc = self._battery_doc()
        doc["states"]["s00_a"]["phase_b"] = True
        report = validate_model(parse_model(json.dumps(doc)))
        assert any(v.kind == "mode-uniqueness" and v.subject == "s00_a"
                   for v in report)

    def test_full_report_in_order(self):
        # Every invariant broken at least twice; states and transitions are
        # listed out of order, and the report sorts them.
        doc = {"atoms": ["m2", "m1", "f2", "f1"], "faults": ["f2", "f1"],
               "modes": ["m2", "m1"],
               "states": {"e": {"m1": True, "m2": True}, "d": {},
                          "c": {"m1": True},
                          "b": {"f1": True, "m1": True},
                          "a": {"f1": True, "f2": True, "m2": True}},
               "initial": ["b", "a"],
               "transitions": [["c", "e"], ["b", "c"], ["a", "c"], ["c", "d"],
                               ["a", "c"]]}
        report = validate_model(parse_model(json.dumps(doc)))
        assert [str(v) for v in report] == [
            "deadlock-freedom: d: state has no outgoing transition",
            "deadlock-freedom: e: state has no outgoing transition",
            "fault-persistence: (a -> c): fault atom 'f1' is true in a but false in c",
            "fault-persistence: (a -> c): fault atom 'f2' is true in a but false in c",
            "fault-persistence: (b -> c): fault atom 'f1' is true in b but false in c",
            "initial-faults-false: a: fault atom 'f1' is true in initial state",
            "initial-faults-false: a: fault atom 'f2' is true in initial state",
            "initial-faults-false: b: fault atom 'f1' is true in initial state",
            "mode-uniqueness: d: expected exactly one mode atom true, found none",
            "mode-uniqueness: e: expected exactly one mode atom true, "
            "found ['m1', 'm2']",
        ]


class TestRepeatedInitial:
    # a -> b -> a, nothing observable, the fault true throughout
    DOC = {"atoms": ["f"], "faults": ["f"], "observables": [], "modes": [],
           "states": {"a": {"f": True}, "b": {"f": True}},
           "transitions": [["a", "b"], ["b", "a"]]}

    def models(self):
        return [parse_model(json.dumps({**self.DOC, "initial": initial}))
                for initial in (["a"], ["a", "a"])]

    def test_validation_reports_once(self):
        once, twice = map(validate_model, self.models())
        assert [str(v) for v in twice] == [str(v) for v in once] == [
            "initial-faults-false: a: fault atom 'f' is true in initial state"]

    def test_diagnoser_has_one_node_per_belief(self):
        from faultkit.fdispec import AlarmSpec, FiniteDelay
        from faultkit.synthesis import diagnoser_to_json, synthesize_diagnoser

        spec = AlarmSpec("A", as_expr("f"), FiniteDelay())
        once, twice = (diagnoser_to_json(synthesize_diagnoser(m, [spec]))
                       for m in self.models())
        assert twice == once
        assert len(once["nodes"]) == 2


class TestQueries:
    def test_successors_of_branching_state(self, battery):
        assert successor_ids(battery, "s00_a") == ("s00_b", "s01_b", "s10_b")

    def test_is_trace(self, battery):
        assert battery.is_trace(Trace(("s00_a", "s10_b", "s10_c")))
        assert not battery.is_trace(Trace(("s10_b", "s10_c")))  # not initial
        assert not battery.is_trace(Trace(("s00_a", "s11_b")))  # no such edge


ATOMS = ["a", "b", "c", "d"]


@st.composite
def exprs(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return draw(st.one_of(st.sampled_from(ATOMS).map(Atom), st.booleans().map(Const)))
    kind = draw(st.sampled_from(["not", "and", "or"]))
    if kind == "not":
        return Not(draw(exprs(depth=depth - 1)))
    left, right = draw(exprs(depth=depth - 1)), draw(exprs(depth=depth - 1))
    return And(left, right) if kind == "and" else Or(left, right)


# each atom listed true, listed false or left out
records = st.lists(st.dictionaries(st.sampled_from(ATOMS), st.booleans()), min_size=1,
                   max_size=6)


class TestValuationsAsMasks:
    @given(exprs(), records, st.sets(st.sampled_from(ATOMS)))
    def test_evaluation_over_masks_agrees_with_records(self, expr, vals, shown):
        states = {f"s{i}": val for i, val in enumerate(vals)}
        m = parse_model(json.dumps({"atoms": ATOMS, "observables": sorted(shown),
                                    "states": states, "initial": ["s0"],
                                    "transitions": [[s, s] for s in states]}))
        want = {sid: evaluate(expr, val) for sid, val in states.items()}
        assert m.condition(expr) == [want[sid] for sid in m.ids]
        for sid in states:
            assert m.holds(expr, sid) is want[sid]
            assert m.observation(sid) == observed(m, sid)

    def test_unlisted_atoms_read_false(self):
        m = parse_model(json.dumps({
            "atoms": ["x", "y"], "observables": ["x", "y"],
            "states": {"s0": {"y": True}, "s1": {}, "s2": {"x": False, "y": True}},
            "initial": ["s0"], "transitions": [["s0", "s1"], ["s1", "s2"], ["s2", "s0"]]}))
        assert [m.holds("x", sid) for sid in m.ids] == [False, False, False]
        assert [m.holds("!x & y", sid) for sid in m.ids] == [True, False, True]
        assert [m.observation(sid) for sid in m.ids] == [(False, True), (False, False),
                                                         (False, True)]
