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

Counterexamples are canonical.  The candidate is deterministic, so every
component of a product path is a function of its sequence of state ids,
and the successors of a product node differ in their state.  A safety
counterexample is therefore the shortest violating run, least among those
by its state-id sequence.  The finite-delay lasso is the first cycle a
depth-first search finds from the pending product nodes taken in (state
id, candidate node name, belief) order, so it does not depend on the
string hash seed either.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ModelFormatError, ObservationError
from .fdispec import AlarmSpec, BeliefTracker, BoundedDelay, ExactDelay, TRACE, trackers_for
from .graphs import (find_reachable_cycle, lexleast_shortest_paths,
                     nodes_on_cycles, path_to)
from .jsonio import FLAGS, NAMES, decode_json, expect, field, read_text
from .model import SystemModel, Trace


@dataclass(frozen=True)
class DiagnoserStats:
    nodes: int
    # states times the trackers' memories that runs reach: the possible
    # belief members
    member_space: int


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
    beliefs = BeliefTracker(m, trackers_for(specs))
    # class ids are numbered in sorted observation order
    observations = beliefs.index.observations

    ids: dict[tuple, str] = {}
    nodes: dict[str, frozenset[str]] = {}
    delta: dict[str, dict[tuple, str]] = {}
    order: list[tuple] = []

    def intern(belief: tuple) -> str:
        nid = ids.get(belief)
        if nid is None:
            nid = ids[belief] = f"b{len(ids)}"
            nodes[nid] = frozenset(spec.name for i, spec in enumerate(specs)
                                   if beliefs.certain(belief, i))
            delta[nid] = {}
            order.append(belief)
        return nid

    entries = beliefs.initial()
    entry = {observations[c]: intern(entries[c]) for c in sorted(entries)}
    cursor = 0
    while cursor < len(order):
        belief = order[cursor]
        cursor += 1
        moves = delta[ids[belief]]
        after = beliefs.successors(belief)
        for c in sorted(after):
            moves[observations[c]] = intern(after[c])

    decoded = {nid: frozenset(map(beliefs.decode, belief)) for belief, nid in ids.items()}
    stats = DiagnoserStats(len(nodes), beliefs.index.size * len(beliefs.memories))
    return Diagnoser(m.observable_atoms_sorted, nodes, entry, delta, decoded, stats)


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
    keys = {obs: _obs_key(d.obs_atoms, obs) for obs in _observations(d)}
    return {
        "observables": list(d.obs_atoms),
        "nodes": {nid: sorted(d.nodes[nid]) for nid in sorted(d.nodes)},
        "entry": {keys[obs]: nid for obs, nid in sorted(d.entry.items())},
        "delta": {nid: {keys[obs]: tgt for obs, tgt in sorted(d.delta[nid].items())}
                  for nid in sorted(d.delta)},
    }


def _observations(d: Diagnoser) -> set[tuple]:
    """The distinct observations on a diagnoser's edges: few, against many
    edges, so each is rendered once."""
    return {obs for moves in (d.entry, *d.delta.values()) for obs in moves}


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
    labels = {obs: _edge_label(d, obs) for obs in _observations(d)}
    lines = ["digraph diagnoser {", "  rankdir=LR;"]
    for nid in sorted(d.nodes):
        alarms = ",".join(sorted(d.nodes[nid])) or "-"
        lines.append(f'  "{nid}" [label="{nid}\\n{{{alarms}}}", shape=ellipse];')
    for i, (obs, nid) in enumerate(sorted(d.entry.items())):
        lines.append(f'  "entry{i}" [shape=point];')
        lines.append(f'  "entry{i}" -> "{nid}" [label="{labels[obs]}"];')
    for nid in sorted(d.delta):
        for obs, tgt in sorted(d.delta[nid].items()):
            lines.append(f'  "{nid}" -> "{tgt}" [label="{labels[obs]}"];')
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


class _Product:
    """The synchronous product of the model, a candidate automaton and the
    belief tracker of one alarm specification, over ints.

    The candidate's node and the belief depend only on the observation
    sequence, so the (candidate node, belief) pairs that runs reach are
    built once, over observation classes, and numbered in (node name,
    decoded belief) order.  A product state is ``state * P + pair``; each
    search appends its own bookkeeping as ``* X + extra``.  The successors
    of a product node differ in their model state, which is the most
    significant part of their number, so every search below claims nodes in
    the order of the state-id sequences of their paths.
    """

    def __init__(self, m: SystemModel, d: Diagnoser, spec: AlarmSpec):
        if tuple(d.obs_atoms) != m.observable_atoms_sorted:
            raise ObservationError(
                None, "observation alphabet mismatch between model and diagnoser")
        self.index = ix = m.index
        self.beliefs = beliefs = BeliefTracker(m, trackers_for([spec]))
        observations = ix.observations
        found: dict[tuple, int] = {}
        pairs: list[tuple] = []

        def intern(pair: tuple) -> int:
            if pair not in found:
                found[pair] = len(pairs)
                pairs.append(pair)
            return found[pair]

        entries = beliefs.initial()
        start = []
        for sid in m.initial:
            c = ix.obs_class[ix.number[sid]]
            node = d.entry.get(observations[c])
            if node is None:
                raise ObservationError(
                    0, f"candidate has no entry for the observation of initial "
                       f"state {sid!r}")
            start.append((ix.number[sid], intern((node, entries[c]))))
        moves = []
        # whether the candidate can consume every observation runs make; a
        # gap is reported when a search meets it
        self.total = True
        while len(moves) < len(pairs):
            node, belief = pairs[len(moves)]
            out = d.delta[node]
            row = {}
            for c, after in beliefs.successors(belief).items():
                tgt = out.get(observations[c])
                if tgt is None:
                    self.total = False
                else:
                    row[c] = intern((tgt, after))
            moves.append(row)
        decode = beliefs.decode
        rank = sorted(range(len(pairs)),
                      key=lambda old: (pairs[old][0], sorted(map(decode, pairs[old][1]))))
        number = [0] * len(pairs)
        for p, old in enumerate(rank):
            number[old] = p
        self.P = P = len(pairs)
        self.names = [pairs[old][0] for old in rank]
        self.moves = [{c: number[q] for c, q in moves[old].items()} for old in rank]
        self.alarm = [spec.name in d.nodes[name] for name in self.names]
        # the delay's past formula in every member of the belief, and in some
        self.known = [beliefs.certain(pairs[old][1]) for old in rank]
        self.possible = [any(map(beliefs.holds, pairs[old][1])) for old in rank]
        self.beta = ix.condition(spec.beta)
        self.roots = [s * P + number[q] for s, q in start]
        self._pair_label = [2 * alarm + 4 * known for alarm, known in zip(self.alarm, self.known)]
        self._edges: dict[int, tuple[list[int], list[int]]] = {}

    def label(self, sp: int) -> int:
        """Bit 0: the condition holds in the state; bit 1: the pair raises
        the alarm; bit 2: the pair's belief makes the condition certain."""
        return self.beta[sp // self.P] | self._pair_label[sp % self.P]

    def edges(self, sp: int) -> tuple[list[int], list[int]]:
        """The successors of a product state, and their labels."""
        found = self._edges.get(sp)
        if found is None:
            P, beta = self.P, self.beta
            state, pair = divmod(sp, P)
            row = self.moves[pair]
            targets: list[int] = []
            labels: list[int] = []
            for c, nxts in self.index.succ_by_class[state].items():
                q = row.get(c)
                if q is None:
                    self._partial(state, pair)
                targets += [nxt * P + q for nxt in nxts]
                labels += [beta[nxt] | self._pair_label[q] for nxt in nxts]
            found = self._edges[sp] = (targets, labels)
        return found

    def _partial(self, state: int, pair: int):
        groups = self.index.succ_by_class[state]
        nxt = min(nxts[0] for c, nxts in groups.items() if c not in self.moves[pair])
        raise ObservationError(
            None, f"candidate is partial: node {self.names[pair]!r} cannot consume "
                  f"the observation of state {self.index.ids[nxt]!r}")

    def trace(self, nodes, scale: int) -> Trace:
        """The run along product nodes of the given scale."""
        return Trace(tuple(self.index.ids[node // scale // self.P] for node in nodes))


def verify_diagnoser(m: SystemModel, d: Diagnoser, spec: AlarmSpec) -> Verdict:
    """Evaluate each conjunct of the instantiated pattern on the product."""
    product = _Product(m, d, spec)
    correctness = _check_correctness(product)
    if spec.diag == TRACE:
        completeness = _check_completeness_trace(product, spec)
    else:
        completeness = _check_completeness_global(product, spec)
    maximality = _check_maximality(product) if spec.maximal else None
    return Verdict(spec.name, correctness, completeness, maximality)


# A search's bookkeeping is an int automaton over the labels of
# `_Product.label`: (X, start, row), where start(label) is the extra of a
# root, row(extra)[label] the extra after a step into a node with that
# label, and X bounds the extras.

_LABELS = range(8)
_NO_EXTRA = (1, None, None)


def _memory_extras(product: _Product):
    """The run's own memory of the condition, numbered like the memories of
    the product's beliefs.  A run's state and memory is a member of the
    belief of its pair, and building the pair product stepped every such
    member, so the memories the searches meet are numbered already; a
    number made here belongs to a step no run takes."""
    beliefs = product.beliefs
    X, after = len(beliefs.memories), beliefs.memory_after
    rows: dict[int, list[int]] = {}

    def row(memory: int) -> list[int]:
        if memory not in rows:
            rows[memory] = [after(memory, label & 1) for label in _LABELS]
        return rows[memory]

    return X, lambda label: after(None, label & 1), row


def _searcher(product: _Product, extras):
    """The roots and the successor function of a search with these extras."""
    X, start, row = extras
    edges = product.edges
    if X == 1:
        return product.roots, lambda sp: edges(sp)[0]

    def succ(node):
        sp, extra = divmod(node, X)
        after = row(extra)
        targets, labels = edges(sp)
        return [t * X + after[label] for t, label in zip(targets, labels)]

    return [sp * X + start(product.label(sp)) for sp in product.roots], succ


def _search_safety(product: _Product, extras, violated, bad_pairs=None) -> ConjunctResult:
    """Reachability of a violating product node, which is not expanded;
    returns the shortest counterexample least by its state-id sequence.

    bad_pairs[p], where given, tells whether some product node of pair p
    violates.  Every member of a pair's belief is the state and memory of
    a run that reaches the pair, so with no such pair and a candidate
    without gaps the conjunct holds, and no search is needed."""
    if bad_pairs is not None and product.total and not any(bad_pairs):
        return ConjunctResult(True)
    roots, succ = _searcher(product, extras)
    parent = lexleast_shortest_paths(roots, succ, stop=violated)
    best = next((node for node in parent if violated(node)), None)
    if best is None:
        return ConjunctResult(True)
    return ConjunctResult(False, product.trace(path_to(parent, best), extras[0]))


def _check_correctness(product: _Product) -> ConjunctResult:
    # the alarm while the run's own memory, the extra, fails the formula
    extras = _memory_extras(product)
    X, P, alarm, sat = extras[0], product.P, product.alarm, product.beliefs.sat

    def violated(node):
        return alarm[node // X % P] and not sat[node % X][0]

    bad = [alarm and not known for alarm, known in zip(product.alarm, product.known)]
    return _search_safety(product, extras, violated, bad)


def _check_maximality(product: _Product) -> ConjunctResult:
    # certainty without the alarm
    bad = [known and not alarm for known, alarm in zip(product.known, product.alarm)]
    P = product.P
    return _search_safety(product, _NO_EXTRA, lambda sp: bad[sp % P], bad)


def _check_completeness_global(product: _Product, spec: AlarmSpec) -> ConjunctResult:
    delay = spec.delay
    P, alarm = product.P, product.alarm
    if isinstance(delay, ExactDelay):
        # the condition held exactly n steps ago and the alarm is off
        extras = _memory_extras(product)
        X, sat = extras[0], product.beliefs.sat

        def violated(node):
            return sat[node % X][0] and not alarm[node // X % P]

        bad = [possible and not alarm for possible, alarm in zip(product.possible, alarm)]
        return _search_safety(product, extras, violated, bad)

    if isinstance(delay, BoundedDelay):
        n = delay.n

        def age_step(age, label):
            # steps since the oldest condition not yet served by an alarm
            age = age + 1 if age >= 0 else -1
            if label & 1 and age < 0:
                age = 0
            if label & 2:
                age = -1
            return age

        # extra = age + 1; an age of n is a violation, never expanded
        start = [age_step(-1, label) + 1 for label in _LABELS]
        rows = [[age_step(extra - 1, label) + 1 for label in _LABELS]
                for extra in range(n + 1)]
        X = n + 2
        return _search_safety(product, (X, start.__getitem__, rows.__getitem__),
                              lambda node: node % X > n)

    return _check_completeness_finite(product)


def _check_completeness_finite(product: _Product) -> ConjunctResult:
    """G(condition -> F alarm): look for a reachable cycle along which an
    obligation stays pending (condition occurred, alarm never after)."""

    def pending(was, label):
        return int(bool(was or label & 1) and not label & 2)

    start = [pending(0, label) for label in _LABELS]
    rows = [[pending(was, label) for label in _LABELS] for was in (0, 1)]
    roots, succ = _searcher(product, (2, start.__getitem__, rows.__getitem__))
    parent = lexleast_shortest_paths(roots, succ)
    pending_nodes = {node for node in parent if node % 2}

    def succ_pending(node):
        return [t for t in succ(node) if t in pending_nodes]

    found = find_reachable_cycle(sorted(pending_nodes), succ_pending)
    if found is None:
        return ConjunctResult(True)
    _, loop = found
    stem = path_to(parent, loop[0])
    return ConjunctResult(False, product.trace(stem + tuple(loop[1:]), 2),
                          loop_start=len(stem) - 1)


def _check_completeness_trace(product: _Product, spec: AlarmSpec) -> ConjunctResult:
    delay = spec.delay
    if isinstance(delay, ExactDelay):
        # condition at t with certainty achievable at t+n but no alarm at
        # t+n; by veridicality this is exactly: certainty without alarm.
        return _check_maximality(product)
    if isinstance(delay, BoundedDelay):
        return _check_completeness_trace_bounded(product, delay.n)
    return _check_completeness_trace_finite(product)


_VIOLATED = "violated"


def _check_completeness_trace_bounded(product: _Product, n: int) -> ConjunctResult:
    """Obligations carry a 'certainty seen' flag per age; an obligation that
    expires with the flag set and no alarm served is a violation."""

    def process(slots, label):
        if slots == _VIOLATED:
            return _VIOLATED
        aged = (None,) + slots[:-1]
        expired = slots[-1]
        if expired is True:
            return _VIOLATED
        if label & 1:
            aged = (False,) + aged[1:]
        if label & 4:
            aged = tuple(True if v is not None else None for v in aged)
        if label & 2:
            aged = (None,) * (n + 1)
        return aged

    # Slot tuples are numbered as the search meets them; each of the n + 1
    # slots is None, False or True, which bounds their count.
    values: list = []
    ids: dict = {}
    rows: dict[int, list[int]] = {}

    def number(value) -> int:
        if value not in ids:
            ids[value] = len(values)
            values.append(value)
        return ids[value]

    def row(extra: int) -> list[int]:
        if extra not in rows:
            rows[extra] = [number(process(values[extra], label)) for label in _LABELS]
        return rows[extra]

    empty = (None,) * (n + 1)
    violated_id = number(_VIOLATED)
    X = 3 ** (n + 1) + 1
    return _search_safety(product, (X, lambda label: number(process(empty, label)), row),
                          lambda node: node % X == violated_id)


def _check_completeness_trace_finite(product: _Product) -> ConjunctResult:
    """Violation run: the condition occurs at t, certainty is eventually
    reached at or after t, yet the alarm never fires from t on.  Search:
    from a condition-and-alarm-free product state, stay in the alarm-free
    region, reach certainty, and keep an infinite alarm-free continuation
    (certainty is monotone, so any cycle reached after it inherits it)."""
    P, alarm, known, beta = product.P, product.alarm, product.known, product.beta
    roots, succ = _searcher(product, _NO_EXTRA)
    parent = lexleast_shortest_paths(roots, succ)
    alarm_free = {sp for sp in parent if not alarm[sp % P]}
    succ_free = {sp: [t for t in succ(sp) if t in alarm_free] for sp in alarm_free}
    preds: dict = {}
    for sp, ts in succ_free.items():
        for t in ts:
            preds.setdefault(t, set()).add(sp)

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
    targets = {sp for sp in live if known[sp % P]}
    can_reach = backward(targets)
    start = next((sp for sp in parent if sp in can_reach and beta[sp // P]), None)
    if start is None:
        return ConjunctResult(True)
    # forward: shortest path from start to a certainty state, then unroll a cycle
    inner = lexleast_shortest_paths([start], succ_free.__getitem__)
    middle = path_to(inner, next(sp for sp in inner if sp in targets))
    stem = path_to(parent, start)
    tail = [middle[-1]]
    seen = {middle[-1]: 0}
    while True:
        nxt = min(t for t in succ_free[tail[-1]] if t in live)
        if nxt in seen:
            loop_start_inner = seen[nxt]
            tail.append(nxt)
            break
        seen[nxt] = len(tail)
        tail.append(nxt)
    full = list(stem) + list(middle[1:]) + tail[1:]
    loop_start = len(stem) - 1 + len(middle) - 1 + loop_start_inner
    return ConjunctResult(False, product.trace(full, 1), loop_start=loop_start)
