"""Belief-state diagnoser synthesis, execution, and verification.

The synthesized diagnoser is a deterministic automaton over observations.
Its states are belief states: sets of (system state, alarm memory) pairs
consistent with the observations so far, where the memory is the bounded
per-run history each delay kind needs.  A node is annotated with an alarm
exactly when the alarm's condition holds in every member, i.e. when the
condition is known; the construction is therefore maximal by definition.

Verification evaluates each conjunct of an instantiated pattern on the
synchronous product of the model with a candidate automaton.  Safety
conjuncts reduce to reachability of a violating product state; the
eventuality conjuncts of the finite-delay kind reduce to searching for a
reachable alarm-free cycle with an unserved obligation.  Knowledge
subformulas are evaluated by pairing the product with the synthesized
belief tracker.  Candidates only need to speak the model's observation
alphabet; they are rejected when nondeterministic or partial on
producible observations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ModelFormatError, ObservationError
from .fdispec import (AlarmSpec, BoundedDelay, ExactDelay, FiniteDelay, TRACE,
                      belief_certain, belief_step, initial_beliefs,
                      memory_init, memory_satisfies, memory_update,
                      past_formula, trackers_for, instantiate_pattern)
from .graphs import (find_reachable_cycle, lexleast_shortest_paths,
                     nodes_on_cycles, path_to)
from .jsonio import FLAGS, NAMES, decode_json, expect, field, read_text
from .model import SystemModel, Trace


@dataclass(frozen=True)
class DiagnoserStats:
    nodes: int
    member_space: int
    node_bound: int


@dataclass
class Diagnoser:
    """Deterministic observation automaton with per-node alarm annotations.

    Observations are represented internally as bool tuples over
    `obs_atoms` (sorted).  `beliefs` is populated for synthesized
    diagnosers only; loaded candidates carry no belief contents.
    """

    obs_atoms: tuple[str, ...]
    nodes: dict[str, frozenset[str]]
    entry: dict[tuple, str]
    delta: dict[str, dict[tuple, str]]
    beliefs: dict[str, frozenset] | None = None
    stats: DiagnoserStats | None = None

    def obs_tuple(self, obs: dict[str, bool]) -> tuple:
        if set(expect(obs, FLAGS, "observation")) != set(self.obs_atoms):
            raise ObservationError(
                None, f"observation domain {sorted(obs)} does not equal "
                      f"observable atoms {list(self.obs_atoms)}")
        return tuple(obs[a] for a in self.obs_atoms)


def _obs_key(atoms: tuple[str, ...], obs: tuple) -> str:
    return json.dumps(dict(zip(atoms, obs)), sort_keys=True, separators=(",", ":"))


def _obs_from_key(atoms: tuple[str, ...], key: str) -> tuple:
    what = f"observation key {key!r}"
    doc = expect(decode_json(key, source=what), FLAGS, what)
    if set(doc) != set(atoms):
        raise ModelFormatError(f"{what} does not match alphabet")
    return tuple(doc[a] for a in atoms)


def synthesize_diagnoser(m: SystemModel, specs: list[AlarmSpec]) -> Diagnoser:
    """Subset construction over (state, memory) pairs, grouped and driven by
    observations.  Deterministic: nodes are numbered in BFS discovery order
    with observations explored in sorted order."""
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError("alarm names must be unique")
    trackers = trackers_for(specs)
    entries = initial_beliefs(m, trackers)

    ids: dict[frozenset, str] = {}
    nodes: dict[str, frozenset[str]] = {}
    beliefs: dict[str, frozenset] = {}
    delta: dict[str, dict[tuple, str]] = {}
    order: list[frozenset] = []

    def intern(belief: frozenset) -> str:
        if belief not in ids:
            nid = f"b{len(ids)}"
            ids[belief] = nid
            nodes[nid] = frozenset(
                spec.name for i, spec in enumerate(specs)
                if belief_certain(belief, i, trackers))
            beliefs[nid] = belief
            delta[nid] = {}
            order.append(belief)
        return ids[belief]

    entry = {obs: intern(belief) for obs, belief in sorted(entries.items())}
    cursor = 0
    while cursor < len(order):
        belief = order[cursor]
        cursor += 1
        nid = ids[belief]
        next_obs = sorted({m.observation(nxt)
                           for member in belief for nxt in m.successors(member[0])})
        for obs in next_obs:
            succ = belief_step(m, belief, obs, trackers)
            if succ:
                delta[nid][obs] = intern(succ)

    member_space = len(m.states) * _memory_value_count(specs)
    stats = DiagnoserStats(len(nodes), member_space, 2 ** member_space)
    return Diagnoser(m.observable_atoms_sorted, nodes, entry, delta, beliefs, stats)


def _memory_value_count(specs) -> int:
    total = 1
    for spec in specs:
        if isinstance(spec.delay, ExactDelay):
            total *= 2 ** (spec.delay.n + 2) - 2
        elif isinstance(spec.delay, BoundedDelay):
            total *= spec.delay.n + 2
        else:
            total *= 2
    return total


def run_diagnoser(d: Diagnoser, observations: list[dict[str, bool]]) -> list[frozenset[str]]:
    """Feed an observation sequence; return the alarm sets along the unique
    belief path.  Unconsumable observations raise, naming the step."""
    if not observations:
        raise ValueError("observation sequence must be nonempty")
    out = []
    obs0 = d.obs_tuple(observations[0])
    node = d.entry.get(obs0)
    if node is None:
        raise ObservationError(0, "impossible observation at step 0")
    out.append(d.nodes[node])
    for k, obs in enumerate(observations[1:], start=1):
        node = d.delta[node].get(d.obs_tuple(obs))
        if node is None:
            raise ObservationError(k, f"impossible observation at step {k}")
        out.append(d.nodes[node])
    return out


# -- file format ---------------------------------------------------------------

def diagnoser_to_json(d: Diagnoser) -> dict:
    return {
        "observables": list(d.obs_atoms),
        "nodes": {nid: sorted(d.nodes[nid]) for nid in sorted(d.nodes)},
        "entry": {_obs_key(d.obs_atoms, obs): nid for obs, nid in sorted(d.entry.items())},
        "delta": {nid: {_obs_key(d.obs_atoms, obs): tgt
                        for obs, tgt in sorted(d.delta[nid].items())}
                  for nid in sorted(d.delta)},
    }


def diagnoser_from_json(doc) -> Diagnoser:
    expect(doc, dict, "diagnoser")
    atoms = tuple(field(doc, "observables", NAMES, "diagnoser"))
    nodes_doc = field(doc, "nodes", dict, "diagnoser")
    nodes = {nid: frozenset(field(nodes_doc, nid, NAMES, "diagnoser nodes"))
             for nid in nodes_doc}
    decoded: dict[str, tuple] = {}  # a diagnoser repeats few distinct keys

    def moves_of(doc, where: str) -> dict[tuple, str]:
        moves = {}
        for key, tgt in expect(doc, dict, where).items():
            if type(tgt) is not str or tgt not in nodes:
                raise ModelFormatError(f"{where}: target {tgt!r} is not a node")
            if key not in decoded:
                decoded[key] = _obs_from_key(atoms, key)
            if decoded[key] in moves:
                raise ModelFormatError(
                    f"nondeterministic candidate: {where} has two "
                    f"transitions for observation {key}")
            moves[decoded[key]] = tgt
        return moves

    entry = moves_of(field(doc, "entry", dict, "diagnoser"), "entry")
    delta: dict[str, dict[tuple, str]] = {nid: {} for nid in nodes}
    for nid, moves in field(doc, "delta", dict, "diagnoser").items():
        if nid not in nodes:
            raise ModelFormatError(f"delta source {nid!r} is not a node")
        delta[nid] = moves_of(moves, f"delta of {nid!r}")
    return Diagnoser(atoms, nodes, entry, delta)


_DUPLICATE = "nondeterministic candidate: duplicate key"


def parse_diagnoser(text: str) -> Diagnoser:
    return diagnoser_from_json(decode_json(text, duplicate=_DUPLICATE))


def load_diagnoser(path) -> Diagnoser:
    return diagnoser_from_json(decode_json(read_text(path), str(path), _DUPLICATE))


def export_diagnoser_dot(d: Diagnoser) -> str:
    lines = ["digraph diagnoser {", "  rankdir=LR;"]
    for nid in sorted(d.nodes):
        alarms = ",".join(sorted(d.nodes[nid])) or "-"
        lines.append(f'  "{nid}" [label="{nid}\\n{{{alarms}}}", shape=ellipse];')
    for i, (obs, nid) in enumerate(sorted(d.entry.items())):
        lines.append(f'  "entry{i}" [shape=point];')
        lines.append(f'  "entry{i}" -> "{nid}" [label="{_edge_label(d, obs)}"];')
    for nid in sorted(d.delta):
        for obs, tgt in sorted(d.delta[nid].items()):
            lines.append(f'  "{nid}" -> "{tgt}" [label="{_edge_label(d, obs)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _edge_label(d: Diagnoser, obs: tuple) -> str:
    if not d.obs_atoms:
        return "*"
    return " ".join(f"{a}={'1' if v else '0'}" for a, v in zip(d.obs_atoms, obs))


# -- verification ----------------------------------------------------------------

@dataclass(frozen=True)
class ConjunctResult:
    holds: bool
    counterexample: Trace | None = None
    loop_start: int | None = None

    def to_json(self):
        doc = {"holds": self.holds}
        if self.counterexample is not None:
            doc["counterexample"] = list(self.counterexample.steps)
        if self.loop_start is not None:
            doc["loop_start"] = self.loop_start
        return doc


@dataclass(frozen=True)
class Verdict:
    alarm: str
    correctness: ConjunctResult
    completeness: ConjunctResult
    maximality: ConjunctResult | None

    @property
    def all_hold(self) -> bool:
        results = [self.correctness, self.completeness]
        if self.maximality is not None:
            results.append(self.maximality)
        return all(r.holds for r in results)

    def to_json(self):
        doc = {"alarm": self.alarm,
               "correctness": self.correctness.to_json(),
               "completeness": self.completeness.to_json()}
        if self.maximality is not None:
            doc["maximality"] = self.maximality.to_json()
        doc["all_hold"] = self.all_hold
        return doc


class _ProductWalker:
    """Synchronous product of the model, a candidate automaton, and the
    synthesized belief tracker for one alarm specification."""

    def __init__(self, m: SystemModel, d: Diagnoser, spec: AlarmSpec):
        if tuple(d.obs_atoms) != m.observable_atoms_sorted:
            raise ObservationError(
                None, "observation alphabet mismatch between model and diagnoser")
        self.m = m
        self.d = d
        self.spec = spec
        self.trackers = trackers_for([spec])
        self.entry_beliefs = initial_beliefs(m, self.trackers)
        self._belief_succ: dict[tuple, frozenset] = {}

    def alarm_on(self, node: str) -> bool:
        return self.spec.name in self.d.nodes[node]

    def beta(self, sid: str) -> bool:
        return self.m.holds(self.spec.beta, sid)

    def known(self, belief: frozenset) -> bool:
        return belief_certain(belief, 0, self.trackers)

    def initial(self):
        out = []
        for sid in self.m.initial:
            obs = self.m.observation(sid)
            node = self.d.entry.get(obs)
            if node is None:
                raise ObservationError(
                    0, f"candidate has no entry for the observation of initial "
                       f"state {sid!r}")
            out.append((sid, node, self.entry_beliefs[obs]))
        return sorted(out)

    def successors(self, core):
        sid, node, belief = core
        out = []
        for nxt in self.m.successors(sid):
            obs = self.m.observation(nxt)
            tgt = self.d.delta[node].get(obs)
            if tgt is None:
                raise ObservationError(
                    None, f"candidate is partial: node {node!r} cannot consume "
                          f"the observation of state {nxt!r}")
            key = (belief, obs)
            if key not in self._belief_succ:
                self._belief_succ[key] = belief_step(self.m, belief, obs, self.trackers)
            out.append((nxt, tgt, self._belief_succ[key]))
        return sorted(out, key=lambda c: (c[0], c[1], sorted(c[2])))


def verify_diagnoser(m: SystemModel, d: Diagnoser, spec: AlarmSpec) -> Verdict:
    """Evaluate each conjunct of the instantiated pattern on the product."""
    walker = _ProductWalker(m, d, spec)
    correctness = _check_correctness(walker)
    if spec.diag == TRACE:
        completeness = _check_completeness_trace(walker)
    else:
        completeness = _check_completeness_global(walker)
    maximality = _check_maximality(walker) if spec.maximal else None
    return Verdict(spec.name, correctness, completeness, maximality)


def _sort_key(node):
    # Product nodes mix strings, tuples, and frozensets; compare via repr of
    # a normalized form to keep exploration order total and deterministic.
    sid, q, belief, extra = node
    return (sid, q, sorted(belief), repr(extra))


def _search_safety(walker: _ProductWalker, init_extra, step_extra, violated):
    """Reachability of a violating augmented product state; returns the
    lexicographically least shortest counterexample as a model trace."""
    roots = []
    for sid, node, belief in walker.initial():
        extra = init_extra(sid, node, belief)
        roots.append((sid, node, belief, extra))

    def succ(state):
        sid, node, belief, extra = state
        out = []
        for nsid, nnode, nbelief in walker.successors((sid, node, belief)):
            out.append((nsid, nnode, nbelief, step_extra(extra, nsid, nnode, nbelief)))
        return out

    parent = lexleast_shortest_paths(roots, succ, key=_sort_key, stop=violated)
    best = next((state for state in parent if violated(state)), None)
    if best is None:
        return ConjunctResult(True)
    return ConjunctResult(False, Trace(tuple(s[0] for s in path_to(parent, best))))


def _check_correctness(walker: _ProductWalker) -> ConjunctResult:
    delay = walker.spec.delay

    def init_extra(sid, node, belief):
        return memory_init(delay, walker.beta(sid))

    def step_extra(mem, sid, node, belief):
        return memory_update(delay, mem, walker.beta(sid))

    def violated(state):
        sid, node, belief, mem = state
        return walker.alarm_on(node) and not memory_satisfies(delay, mem)

    return _search_safety(walker, init_extra, step_extra, violated)


def _check_maximality(walker: _ProductWalker) -> ConjunctResult:
    def violated(state):
        sid, node, belief, _ = state
        return walker.known(belief) and not walker.alarm_on(node)

    return _search_safety(walker, lambda *a: None, lambda e, *a: None, violated)


def _check_completeness_global(walker: _ProductWalker) -> ConjunctResult:
    delay = walker.spec.delay
    if isinstance(delay, ExactDelay):
        n = delay.n

        def init_extra(sid, node, belief):
            return (walker.beta(sid),)

        def step_extra(window, sid, node, belief):
            return (window + (walker.beta(sid),))[-(n + 1):]

        def violated(state):
            sid, node, belief, window = state
            return len(window) == n + 1 and window[0] and not walker.alarm_on(node)

        return _search_safety(walker, init_extra, step_extra, violated)

    if isinstance(delay, BoundedDelay):
        n = delay.n

        def age_step(age, beta_now, alarm_now):
            age = age + 1 if age >= 0 else -1
            if beta_now and age < 0:
                age = 0
            if alarm_now:
                age = -1
            return age

        def init_extra(sid, node, belief):
            return age_step(-1, walker.beta(sid), walker.alarm_on(node))

        def step_extra(age, sid, node, belief):
            return age_step(age, walker.beta(sid), walker.alarm_on(node))

        def violated(state):
            return state[3] >= n

        return _search_safety(walker, init_extra, step_extra, violated)

    return _check_completeness_finite(walker)


def _check_completeness_finite(walker: _ProductWalker) -> ConjunctResult:
    """G(condition -> F alarm): look for a reachable cycle along which an
    obligation stays pending (condition occurred, alarm never after)."""

    def pending_bit(prev, sid, node):
        return (prev or walker.beta(sid)) and not walker.alarm_on(node)

    roots = [(sid, node, belief, pending_bit(False, sid, node))
             for sid, node, belief in walker.initial()]

    def succ(state):
        sid, node, belief, bit = state
        return [(nsid, nnode, nbelief, pending_bit(bit, nsid, nnode))
                for nsid, nnode, nbelief in walker.successors((sid, node, belief))]

    parent = lexleast_shortest_paths(roots, succ, key=_sort_key)
    pending = {s for s in parent if s[3]}

    def succ_pending(state):
        return [t for t in succ(state) if t in pending]

    found = find_reachable_cycle(sorted(pending, key=_sort_key), succ_pending)
    if found is None:
        return ConjunctResult(True)
    _, loop = found
    entry = loop[0]
    stem = path_to(parent, entry)
    states = [s[0] for s in stem] + [s[0] for s in loop[1:]]
    return ConjunctResult(False, Trace(tuple(states)), loop_start=len(stem) - 1)


def _check_completeness_trace(walker: _ProductWalker) -> ConjunctResult:
    delay = walker.spec.delay
    if isinstance(delay, ExactDelay):
        # condition at t with certainty achievable at t+n but no alarm at
        # t+n; by veridicality this is exactly: certainty without alarm.
        def violated(state):
            sid, node, belief, _ = state
            return walker.known(belief) and not walker.alarm_on(node)

        return _search_safety(walker, lambda *a: None, lambda e, *a: None, violated)

    if isinstance(delay, BoundedDelay):
        return _check_completeness_trace_bounded(walker)
    return _check_completeness_trace_finite(walker)


_VIOLATED = "violated"


def _check_completeness_trace_bounded(walker: _ProductWalker) -> ConjunctResult:
    """Obligations carry a 'certainty seen' flag per age; an obligation that
    expires with the flag set and no alarm served is a violation."""
    n = walker.spec.delay.n

    def process(slots, beta_now, known_now, alarm_now):
        if slots == _VIOLATED:
            return _VIOLATED
        aged = (None,) + slots[:-1]
        expired = slots[-1]
        if expired is True:
            return _VIOLATED
        if beta_now:
            aged = (False,) + aged[1:]
        if known_now:
            aged = tuple(True if v is not None else None for v in aged)
        if alarm_now:
            aged = (None,) * (n + 1)
        return aged

    def init_extra(sid, node, belief):
        return process((None,) * (n + 1), walker.beta(sid), walker.known(belief),
                       walker.alarm_on(node))

    def step_extra(slots, sid, node, belief):
        return process(slots, walker.beta(sid), walker.known(belief),
                       walker.alarm_on(node))

    def violated(state):
        return state[3] == _VIOLATED

    return _search_safety(walker, init_extra, step_extra, violated)


def _check_completeness_trace_finite(walker: _ProductWalker) -> ConjunctResult:
    """Violation run: the condition occurs at t, certainty is eventually
    reached at or after t, yet the alarm never fires from t on.  Search:
    from a condition-and-alarm-free product state, stay in the alarm-free
    region, reach certainty, and keep an infinite alarm-free continuation
    (certainty is monotone, so any cycle reached after it inherits it)."""
    roots = []
    for sid, node, belief in walker.initial():
        roots.append((sid, node, belief, None))

    def succ(state):
        sid, node, belief, _ = state
        return [(nsid, nnode, nbelief, None)
                for nsid, nnode, nbelief in walker.successors((sid, node, belief))]

    parent = lexleast_shortest_paths(roots, succ, key=_sort_key)
    alarm_free = {s for s in parent if not walker.alarm_on(s[1])}
    succ_free = {s: [t for t in succ(s) if t in alarm_free] for s in alarm_free}
    preds: dict = {}
    for s, ts in succ_free.items():
        for t in ts:
            preds.setdefault(t, set()).add(s)

    def backward(seeds):
        """States of the alarm-free region that can reach a seed inside it."""
        reached = set(seeds)
        frontier = list(reached)
        while frontier:
            for p in preds.get(frontier.pop(), ()):
                if p not in reached:
                    reached.add(p)
                    frontier.append(p)
        return reached

    # states inside the alarm-free region with an infinite alarm-free path
    live = backward(nodes_on_cycles(alarm_free, succ_free.__getitem__))
    targets = {s for s in live if walker.known(s[2])}
    can_reach = backward(targets)
    start = next((s for s in parent if s in can_reach and walker.beta(s[0])), None)
    if start is None:
        return ConjunctResult(True)
    # forward: shortest path from start to a certainty state, then unroll a cycle
    inner = lexleast_shortest_paths([start], succ_free.__getitem__, key=_sort_key)
    middle = path_to(inner, next(s for s in inner if s in targets))
    stem = path_to(parent, start)
    tail = [middle[-1]]
    seen = {middle[-1]: 0}
    while True:
        nxt = min((t for t in succ_free[tail[-1]] if t in live), key=_sort_key)
        if nxt in seen:
            loop_start_inner = seen[nxt]
            tail.append(nxt)
            break
        seen[nxt] = len(tail)
        tail.append(nxt)
    full = list(stem) + list(middle[1:]) + tail[1:]
    loop_start = len(stem) - 1 + len(middle) - 1 + loop_start_inner
    return ConjunctResult(False, Trace(tuple(s[0] for s in full)), loop_start=loop_start)
