"""Belief-state diagnoser synthesis, execution, and verification.

The synthesized diagnoser is a deterministic automaton over observations.
Its states are belief states: sets of (system state, alarm memory) pairs
consistent with the observations so far, where the memory is the bounded
per-run history each delay kind needs.  A node is annotated with an alarm
exactly when the alarm's condition holds in every member, i.e. when the
condition is known; the construction is therefore maximal by definition.

Verification evaluates each conjunct of an instantiated pattern on the
synchronous product of the model with a candidate automaton.  Knowledge
subformulas are evaluated by pairing the product with the synthesized
belief tracker.  A product node is labelled with the condition, the alarm
and certainty, and each completeness conjunct keeps its obligations in a
small deterministic automaton over those labels, its values ints: the age
of the oldest unserved condition (global bound(n)), whether one is pending
(global finite), a bit per age for the pending obligations and one for
those whose certainty has been reached (trace-local bound(n)), and a phase
-- nothing pending, pending, pending after certainty -- (trace-local
finite).  Safety conjuncts reduce to reachability of a violating product
node; the eventualities of the finite delay to a reachable cycle of nodes
with an obligation pending.
Candidates only need to speak the model's observation alphabet; they are
rejected when nondeterministic or partial on producible observations.
A total candidate's safety search stops at the first violating node it
claims, which ends the counterexample.  A partial candidate's search runs
on until it meets a gap, which it reports, or it has claimed every node.

Counterexamples are canonical.  The candidate is deterministic, so every
component of a product path is a function of its sequence of state ids,
and the successors of a product node differ in their state.  A safety
counterexample is therefore the shortest violating run, least among those
by its state-id sequence.  A finite-delay lasso is the first cycle a
depth-first search finds from the pending product nodes taken in (state
id, candidate node name, belief) order, reached by the shortest path to
its entry that is least by state ids, so it does not depend on the string
hash seed either.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from functools import cache, partial
from itertools import chain
from json.encoder import encode_basestring_ascii

from .errors import ModelFormatError, ObservationError
from .fdispec import (AlarmSpec, BeliefTracker, BoundedDelay, ExactDelay, TRACE,
                      delay_memory, trackers_for)
from .graphs import lasso, lexleast_shortest_paths, path_to
from .jsonio import FLAGS, NAMES, decode_json, dot_escape, expect, field, read_json
from .model import SystemModel, Trace
from .records import Frozen, Record


class Diagnoser(Record):
    """Deterministic observation automaton with per-node alarm annotations.

    Observations are represented internally as bool tuples over
    `obs_atoms` (sorted).  `beliefs` is populated for synthesized
    diagnosers only, each node's members decoded as it is read; loaded
    candidates carry no belief contents.
    """

    __slots__ = ("obs_atoms", "nodes", "entry", "delta", "beliefs")

    def __init__(self, obs_atoms: tuple[str, ...], nodes: dict[str, frozenset[str]],
                 entry: dict[tuple, str], delta: dict[str, dict[tuple, str]],
                 beliefs: Mapping[str, frozenset] | None = None):
        self._set(obs_atoms, nodes, entry, delta, beliefs)

    def obs_tuple(self, obs: dict[str, bool]) -> tuple:
        if set(expect(obs, FLAGS, "observation")) != set(self.obs_atoms):
            raise ObservationError(
                None, f"observation domain {sorted(obs)} does not equal "
                      f"observable atoms {list(self.obs_atoms)}")
        return tuple(obs[a] for a in self.obs_atoms)


class _Beliefs(Mapping):
    """Node id -> the decoded members of its belief, decoded on each read
    from the tracker's ints: a synthesized diagnoser's beliefs are seldom
    read."""

    __slots__ = ("_raw", "_decode")

    def __init__(self, raw: dict[str, tuple[int, ...]], decode):
        self._raw, self._decode = raw, decode

    def __getitem__(self, nid):
        return frozenset(map(self._decode, self._raw[nid]))

    def __iter__(self):
        return iter(self._raw)

    def __len__(self):
        return len(self._raw)

    def __repr__(self):
        return repr(dict(self))

    def __reduce__(self):
        # copy and pickle see the decoded dict, not the tracker
        return dict, (dict(self),)


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
    observations = m.observations

    ids: dict[tuple, str] = {}
    order: list[tuple] = []
    rows: list[dict[tuple, str]] = []  # each node's moves, in node order
    moves = entry = {}
    after = beliefs.initial()
    while True:
        for c in sorted(after):
            belief = after[c]
            nid = ids.get(belief)
            if nid is None:
                nid = ids[belief] = f"b{len(order)}"
                order.append(belief)
            moves[observations[c]] = nid
        if len(rows) == len(order):
            break
        after = beliefs.successors(order[len(rows)])
        moves = {}
        rows.append(moves)

    # a node raises the alarms whose formula holds in every member: the
    # bits of its belief's `known` mask, one alarm set per mask
    alarm_sets: dict[int, frozenset[str]] = {}

    def alarms(belief: tuple) -> frozenset[str]:
        every = beliefs.known(belief)[0]
        found = alarm_sets.get(every)
        if found is None:
            found = alarm_sets[every] = frozenset(
                name for i, name in enumerate(names) if every >> i & 1)
        return found

    nodes = dict(zip(ids.values(), map(alarms, order)))
    delta = dict(zip(ids.values(), rows))
    return Diagnoser(m.observable_atoms_sorted, nodes, entry, delta,
                     _Beliefs(dict(zip(nodes, order)), beliefs.decode))


def run_diagnoser(d: Diagnoser, observations: list[dict[str, bool]]) -> list[frozenset[str]]:
    """Feed an observation sequence; return the alarm sets along the unique
    belief path.  Unconsumable observations raise, naming the step."""
    if not observations:
        raise ValueError("observation sequence must be nonempty")
    out = []
    for k, obs in enumerate(observations):
        try:
            obs = d.obs_tuple(obs)
        except (ModelFormatError, ObservationError) as err:
            raise ObservationError(k, f"observation at step {k}: {err}") from None
        node = (d.delta[node] if k else d.entry).get(obs)
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


def dump_diagnoser(d: Diagnoser) -> str:
    """The text of ``json.dumps(diagnoser_to_json(d), indent=2,
    sort_keys=True) + "\n"``, laid out directly: each node id and
    observation key is encoded once, and an edge is one concatenation."""
    enc = encode_basestring_ascii
    keys = {obs: _obs_key(d.obs_atoms, obs) for obs in _observations(d)}
    # sort_keys orders the moves by their raw key
    rank = {obs: i for i, obs in enumerate(sorted(keys, key=keys.__getitem__))}
    by_key = rank.__getitem__
    quoted = {obs: enc(key) for obs, key in keys.items()}
    # a move out of a node: its line break, indent and key
    edge = {obs: "\n      " + key + ": " for obs, key in quoted.items()}
    ids = {nid: enc(nid) for nid in d.nodes}
    delta = []
    for nid in sorted(d.delta):
        out = d.delta[nid]
        if out:
            moves = ",".join([edge[obs] + ids[out[obs]] for obs in sorted(out, key=by_key)])
            delta.append(f"{ids[nid]}: {{{moves}\n    }}")
        else:
            delta.append(ids[nid] + ": {}")
    entry = [quoted[obs] + ": " + ids[d.entry[obs]] for obs in sorted(d.entry, key=by_key)]
    alarm_lists: dict[frozenset, str] = {}
    for alarms in d.nodes.values():
        if alarms not in alarm_lists:
            alarm_lists[alarms] = _json_block("[]", "    ", [enc(a) for a in sorted(alarms)])
    nodes = [f"{ids[nid]}: {alarm_lists[d.nodes[nid]]}" for nid in sorted(d.nodes)]
    return "".join([
        '{\n  "delta": ', _json_block("{}", "  ", delta),
        ',\n  "entry": ', _json_block("{}", "  ", entry),
        ',\n  "nodes": ', _json_block("{}", "  ", nodes),
        ',\n  "observables": ', _json_block("[]", "  ", [enc(a) for a in d.obs_atoms]),
        "\n}\n"])


def _json_block(brackets: str, pad: str, items: list[str]) -> str:
    """A container of rendered items as ``json.dumps(indent=2)`` lays it
    out with its closing bracket at indent `pad`."""
    if not items:
        return brackets
    inner = "\n" + pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + pad + brackets[1]


def _observations(d: Diagnoser) -> set[tuple]:
    """The distinct observations on a diagnoser's edges: few, against many
    edges, so each is rendered once."""
    return {obs for moves in (d.entry, *d.delta.values()) for obs in moves}


def diagnoser_from_json(doc) -> Diagnoser:
    expect(doc, dict, "diagnoser")
    atoms = tuple(sorted(set(field(doc, "observables", NAMES, "diagnoser"))))
    nodes_doc = field(doc, "nodes", dict, "diagnoser")
    lists = nodes_doc.values()
    # one type pass over every alarm list; the loop only names a bad node
    if not (set(map(type, lists)) <= {list}
            and set(map(type, chain.from_iterable(lists))) <= {str}):
        for nid in nodes_doc:
            field(nodes_doc, nid, NAMES, "diagnoser nodes")
    nodes = dict(zip(nodes_doc, map(frozenset, lists)))
    decoded: dict[str, tuple] = {}  # a diagnoser repeats few distinct keys

    def moves_of(doc, source: str | None) -> dict[tuple, str]:
        # the moves out of node `source`, or the entry's when None
        if type(doc) is not dict:
            expect(doc, dict, _moves_name(source))
        moves = {}
        for key, tgt in doc.items():
            if type(tgt) is not str or tgt not in nodes:
                raise ModelFormatError(f"{_moves_name(source)}: target {tgt!r} is not a node")
            obs = decoded.get(key)
            if obs is None:
                obs = decoded[key] = _obs_from_key(atoms, key)
            if obs in moves:
                raise ModelFormatError(
                    f"nondeterministic candidate: {_moves_name(source)} has two "
                    f"transitions for observation {key}")
            moves[obs] = tgt
        return moves

    entry = moves_of(field(doc, "entry", dict, "diagnoser"), None)
    delta: dict[str, dict[tuple, str]] = {nid: {} for nid in nodes}
    for nid, moves in field(doc, "delta", dict, "diagnoser").items():
        if nid not in nodes:
            raise ModelFormatError(f"delta source {nid!r} is not a node")
        delta[nid] = moves_of(moves, nid)
    return Diagnoser(atoms, nodes, entry, delta)


def _moves_name(source: str | None) -> str:
    """How an error names the moves out of a node, or the entry's; built
    only for an error."""
    return "entry" if source is None else f"delta of {source!r}"


def load_diagnoser(path) -> Diagnoser:
    return read_json(path, diagnoser_from_json, "nondeterministic candidate: duplicate key")


def export_diagnoser_dot(d: Diagnoser) -> str:
    labels = {obs: dot_escape(_edge_label(d, obs)) for obs in _observations(d)}
    ids = {nid: dot_escape(nid) for nid in d.nodes}
    # entry points are entry0, entry1, ..., with underscores after "entry"
    # until no node id takes one of their names
    entry = "entry"
    while any(f"{entry}{i}" in d.nodes for i in range(len(d.entry))):
        entry += "_"
    lines = ["digraph diagnoser {", "  rankdir=LR;"]
    for nid in sorted(d.nodes):
        alarms = dot_escape(",".join(sorted(d.nodes[nid])) or "-")
        lines.append(f'  "{ids[nid]}" [label="{ids[nid]}\\n{{{alarms}}}", shape=ellipse];')
    for i, (obs, nid) in enumerate(sorted(d.entry.items())):
        lines.append(f'  "{entry}{i}" [shape=point];')
        lines.append(f'  "{entry}{i}" -> "{ids[nid]}" [label="{labels[obs]}"];')
    for nid in sorted(d.delta):
        for obs, tgt in sorted(d.delta[nid].items()):
            lines.append(f'  "{ids[nid]}" -> "{ids[tgt]}" [label="{labels[obs]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _edge_label(d: Diagnoser, obs: tuple) -> str:
    if not d.obs_atoms:
        return "*"
    return " ".join(f"{a}={'1' if v else '0'}" for a, v in zip(d.obs_atoms, obs))


# -- verification ----------------------------------------------------------------

class ConjunctResult(Frozen):
    __slots__ = ("holds", "counterexample", "loop_start")

    def __init__(self, holds: bool, counterexample: Trace | None = None,
                 loop_start: int | None = None):
        self._set(holds, counterexample, loop_start)

    def to_json(self):
        doc = {"holds": self.holds}
        if self.counterexample is not None:
            doc["counterexample"] = list(self.counterexample.steps)
        if self.loop_start is not None:
            doc["loop_start"] = self.loop_start
        return doc


class Verdict(Frozen):
    __slots__ = ("alarm", "correctness", "completeness", "maximality")

    def __init__(self, alarm: str, correctness: ConjunctResult,
                 completeness: ConjunctResult, maximality: ConjunctResult | None):
        self._set(alarm, correctness, completeness, maximality)

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
    built once, over observation classes, and numbered as reached.  A
    product state is ``state * P + pair``; a search appends its bookkeeping
    as ``* X + extra``.  The roots, and the successors of a node, differ in
    their model state, the most significant part of their number, so every
    search claims nodes in the order of their paths' state-id sequences,
    whatever the pair numbers.  Only the finite-delay cycle search ranks
    pairs, by `order`, to try its pending nodes in a fixed order.
    """

    def __init__(self, m: SystemModel, d: Diagnoser, spec: AlarmSpec):
        if tuple(d.obs_atoms) != m.observable_atoms_sorted:
            raise ObservationError(
                None, "observation alphabet mismatch between model and diagnoser")
        self.model = m
        beliefs = BeliefTracker(m, trackers_for([spec]))
        observations = m.observations
        entries = beliefs.initial()
        start = []
        for sid in m.initial:
            c = m.obs_class[m.number[sid]]
            node = d.entry.get(observations[c])
            if node is None:
                raise ObservationError(
                    0, f"candidate has no entry for the observation of initial "
                       f"state {sid!r}")
            start.append((m.number[sid], (node, entries[c])))
        # pairs are numbered as reached, the roots' first
        pairs = list(dict.fromkeys(pair for _, pair in start))
        found = {pair: q for q, pair in enumerate(pairs)}
        self.moves = moves = []
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
                    continue
                pair = tgt, after
                q = found.get(pair)
                if q is None:
                    q = found[pair] = len(pairs)
                    pairs.append(pair)
                row[c] = q
            moves.append(row)
        self.P = P = len(pairs)
        self.names = [node for node, _ in pairs]
        self.alarm = [spec.name in d.nodes[node] for node in self.names]
        # the delay's past formula in every member of the belief, and in
        # some: bit 0 of the belief's `known` masks
        self.known, self.possible = known, possible = [], []
        for _, belief in pairs:
            every, some = beliefs.known(belief)
            known.append(every & 1)
            possible.append(some & 1)
        self.beta = m.condition(spec.beta)
        self.delay = spec.delay
        self.roots = [s * P + found[pair] for s, pair in start]
        # a pair's (node name, decoded belief), for `_search_lasso`
        self.order = cache(lambda q: (pairs[q][0], sorted(map(beliefs.decode, pairs[q][1]))))
        self._pair_label = [2 * alarm + 4 * known for alarm, known in zip(self.alarm, self.known)]

    def label(self, sp: int) -> int:
        """Bit 0: the condition holds in the state; bit 1: the pair raises
        the alarm; bit 2: the pair's belief makes the condition certain."""
        return self.beta[sp // self.P] | self._pair_label[sp % self.P]

    def _partial(self, state: int, pair: int):
        groups = self.model.succ_by_class[state]
        nxt = min(nxts[0] for c, nxts in groups.items() if c not in self.moves[pair])
        raise ObservationError(
            None, f"candidate is partial: node {self.names[pair]!r} cannot consume "
                  f"the observation of state {self.model.ids[nxt]!r}")

    def trace(self, nodes, scale: int) -> Trace:
        """The run along product nodes of the given scale."""
        return self.model.trace(node // scale // self.P for node in nodes)


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
# `_Product.label`: (X, first, step, flag), where first(label) is the extra
# of a root, step(extra, label) the extra after a step into a node with
# that label, every extra is below X, and flag(extra) marks the extras the
# search looks for.  A delay memory (`fdispec.delay_memory`) is one.

_LABELS = range(8)
_NO_EXTRA = (1, lambda label: 0, lambda extra, label: 0, None)


def _flagged(extras):
    """Whether a search node's extra is flagged."""
    X, flag = extras[0], extras[3]
    return lambda node: flag(node % X)


def _searcher(product: _Product, extras):
    """The roots and the successor function of a search with these extras.
    A node's successors come from one pass over its state's successors by
    class, with no table per product state."""
    X, first, step, _ = extras
    P, PX, beta, moves = product.P, product.P * X, product.beta, product.moves
    by_class, pair_label = product.model.succ_by_class, product._pair_label
    # rows[extra][label]: the extra after a step, once per extra
    rows: dict[int, list[int]] = {}

    def succ(node):
        sp, extra = divmod(node, X)
        state, pair = divmod(sp, P)
        after = rows.get(extra)
        if after is None:
            after = rows[extra] = [step(extra, label) for label in _LABELS]
        row = moves[pair]
        out = []
        for c, nxts in by_class[state].items():
            q = row.get(c)
            if q is None:
                product._partial(state, pair)
            # a target's number below its state, by its condition bit
            label = pair_label[q]
            low = q * X + after[label], q * X + after[label | 1]
            for nxt in nxts:  # a loop: a class holds few states
                out.append(nxt * PX + low[beta[nxt]])
        return out

    return [sp * X + first(product.label(sp)) for sp in product.roots], succ


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
    # A total candidate's search stops at the first violating node it
    # claims.  A partial one's runs on, for it must meet the gap.
    goal = violated if product.total else None
    parent = lexleast_shortest_paths(roots, succ, stop=violated, goal=goal)
    best = next((node for node in parent if violated(node)), None)
    if best is None:
        return ConjunctResult(True)
    return ConjunctResult(False, product.trace(path_to(parent, best), extras[0]))


def _search_lasso(product: _Product, extras) -> ConjunctResult:
    """An eventuality fails on an infinite run that stays, from some point
    on, in product nodes where an obligation is pending, which the extras
    flag: a reachable cycle of them.  Returns that run as a lasso."""
    roots, succ = _searcher(product, extras)
    parent = lexleast_shortest_paths(roots, succ)
    X, P = extras[0], product.P
    flagged = _flagged(extras)
    region = sorted(filter(flagged, parent),
                    key=lambda node: (node // X // P, product.order(node // X % P), node % X))
    found = lasso(parent, region, flagged, succ)
    if found is None:
        return ConjunctResult(True)
    run, loop_start = found
    return ConjunctResult(False, product.trace(run, extras[0]), loop_start=loop_start)


def _check_correctness(product: _Product) -> ConjunctResult:
    # the alarm while the run's own memory, the extra, fails the formula
    extras = X, _, _, holds = delay_memory(product.delay)
    P, alarm = product.P, product.alarm

    def violated(node):
        return alarm[node // X % P] and not holds(node % X)

    bad = [alarm and not known for alarm, known in zip(product.alarm, product.known)]
    return _search_safety(product, extras, violated, bad)


def _check_maximality(product: _Product) -> ConjunctResult:
    # certainty without the alarm
    bad = [known and not alarm for known, alarm in zip(product.known, product.alarm)]
    P = product.P
    return _search_safety(product, _NO_EXTRA, lambda sp: bad[sp % P], bad)


def _check_completeness_global(product: _Product, spec: AlarmSpec) -> ConjunctResult:
    delay = spec.delay
    if isinstance(delay, ExactDelay):
        # the condition held exactly n steps ago and the alarm is off
        extras = X, _, _, holds = delay_memory(delay)
        P, alarm = product.P, product.alarm

        def violated(node):
            return holds(node % X) and not alarm[node // X % P]

        bad = [possible and not alarm for possible, alarm in zip(product.possible, alarm)]
        return _search_safety(product, extras, violated, bad)

    if isinstance(delay, BoundedDelay):
        n = delay.n

        def age(was, label):
            # 0, or 1 + the steps since the oldest condition no alarm has
            # served
            if label & 2:
                return 0
            return was + 1 if was else label & 1

        # an age of n is a violation, never expanded
        extras = n + 2, partial(age, 0), age, lambda age: age == n + 1
        return _search_safety(product, extras, _flagged(extras))

    def pending(was, label):
        # 1: a condition no alarm has served since
        return 0 if label & 2 else was | label & 1

    return _search_lasso(product, (2, partial(pending, 0), pending, bool))


def _check_completeness_trace(product: _Product, spec: AlarmSpec) -> ConjunctResult:
    delay = spec.delay
    if isinstance(delay, ExactDelay):
        # condition at t with certainty achievable at t+n but no alarm at
        # t+n; by veridicality this is exactly: certainty without alarm.
        return _check_maximality(product)

    if isinstance(delay, BoundedDelay):
        n = delay.n
        width = 1 << n + 1

        def slots(was, label):
            # two masks, certain * width + pending: bit k of pending is the
            # obligation of the condition k steps ago that no alarm has
            # served, and bit k of certain says certainty has been reached
            # since; certain is a subset of pending
            if label & 2:
                return 0
            certain, pending = divmod(was, width)
            pending = (pending << 1 | label & 1) & width - 1
            certain = pending if label & 4 else certain << 1 & width - 1
            return certain * width + pending

        # an obligation n steps old with certainty reached is a violation
        extras = width * width, partial(slots, 0), slots, lambda was: was >> 2 * n + 1 == 1
        return _search_safety(product, extras, _flagged(extras))

    def phase(was, label):
        # 1: a condition no alarm has served since; 2: and certainty has
        # been reached since
        if label & 2 or not (was or label & 1):
            return 0
        return 2 if was == 2 or label & 4 else 1

    return _search_lasso(product, (3, partial(phase, 0), phase, lambda phase: phase == 2))
