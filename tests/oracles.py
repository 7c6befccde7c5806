"""Independent brute-force oracles.

Everything here re-derives results from first principles (exhaustive
enumeration, matrix powers, direct definition scans) without reusing the
library's algorithmic internals, so that each library algorithm has a
second, structurally different route to the same answer.
"""

from __future__ import annotations

import functools
import itertools
import json

import numpy as np

from faultkit.boolexpr import as_expr
from faultkit.model import SystemModel, Trace
from faultkit.tfpg import ActivationTrace, Tfpg


# -- model-level -------------------------------------------------------------

def successor_ids(m: SystemModel) -> dict[str, list[str]]:
    """Each state id's successor ids, ascending: the transitions, read off
    the model's successor lists."""
    return {m.ids[i]: [m.ids[j] for j in nxts] for i, nxts in enumerate(m.succ)}


def path_count_by_matrix_power(m: SystemModel, length: int) -> int:
    """Number of traces with `length` states = walks with length-1 edges
    from initial states, via adjacency-matrix powers."""
    ids = sorted(m.states)
    index = {s: i for i, s in enumerate(ids)}
    A = np.zeros((len(ids), len(ids)), dtype=object)
    for a, nxts in successor_ids(m).items():
        for b in nxts:
            A[index[a], index[b]] = 1
    P = np.linalg.matrix_power(A, length - 1) if length > 1 else np.eye(
        len(ids), dtype=object)
    return int(sum(P[index[s], :].sum() for s in m.initial))


def enumerate_traces(m: SystemModel, length: int):
    """Every trace with `length` states, in lexicographic order of state
    ids, by depth-first extension along the sorted successor ids."""
    if length < 1:
        raise ValueError("length must be >= 1")
    targets = successor_ids(m)

    def extend(path):
        if len(path) == length:
            yield Trace(path)
            return
        for nxt in targets[path[-1]]:
            yield from extend(path + (nxt,))

    for sid in sorted(m.initial):
        yield from extend((sid,))


def reachable_restricted(m: SystemModel, allowed_faults: frozenset[str]) -> set[str]:
    """Fixpoint reachability with faults outside the allowed set pinned
    false (independent of the library's BFS)."""
    def permitted(sid):
        return all(not m.states[sid].get(f, False) or f in allowed_faults
                   for f in m.fault_atoms)

    reach = {sid for sid in m.initial if permitted(sid)}
    pairs = [(a, b) for a, nxts in successor_ids(m).items() for b in nxts]
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            if a in reach and b not in reach and permitted(b):
                reach.add(b)
                changed = True
    return reach


def brute_force_mcs(m: SystemModel, tle) -> list[frozenset[str]]:
    """All minimal cut sets by checking every fault subset exhaustively,
    then keeping the minimal elements of the satisfying family."""
    expr = as_expr(tle)
    faults = sorted(m.fault_atoms)
    adjacency = successor_ids(m)
    fault_of = {sid: frozenset(f for f in faults if m.states[sid].get(f, False))
                for sid in m.states}
    target = {sid for sid in m.states if expr.evaluate(m.states[sid])}

    def event_reachable(S: frozenset[str]) -> bool:
        seen = {sid for sid in m.initial if fault_of[sid] <= S}
        work = list(seen)
        while work:
            sid = work.pop()
            if sid in target:
                return True
            for nxt in adjacency[sid]:
                if nxt not in seen and fault_of[nxt] <= S:
                    seen.add(nxt)
                    work.append(nxt)
        return False

    cuts = []
    for r in range(len(faults) + 1):
        for combo in itertools.combinations(faults, r):
            S = frozenset(combo)
            if event_reachable(S):
                cuts.append(S)
    minimal = []
    for S in sorted(cuts, key=len):
        if not any(T < S for T in minimal):
            minimal.append(S)
    return sorted(minimal, key=lambda s: (len(s), sorted(s)))


def world_probability(family, probabilities) -> float:
    """P(some set of `family` fully occurs) for independent events: weigh
    every subset of the events as a world, with frozenset inclusion tests."""
    sets = [frozenset(s) for s in family]
    events = sorted(set().union(*sets))
    total = 0.0
    for occurred in itertools.chain.from_iterable(
            itertools.combinations(events, r) for r in range(len(events) + 1)):
        occ = frozenset(occurred)
        if not any(s <= occ for s in sets):
            continue
        weight = 1.0
        for f in events:
            weight *= probabilities[f] if f in occ else 1.0 - probabilities[f]
        total += weight
    return total


# -- observation equivalence ---------------------------------------------------

def obs_buckets(m: SystemModel, length: int) -> dict[tuple, list[Trace]]:
    buckets: dict[tuple, list[Trace]] = {}
    for tr in enumerate_traces(m, length):
        key = tuple(m.observation(s) for s in tr.steps)
        buckets.setdefault(key, []).append(tr)
    return buckets


def naive_past(m: SystemModel, tr: Trace, delay, beta, t: int) -> bool:
    """Quantifier-expansion evaluation of the past formula of a delay kind:
    Y^n beta for exact(n), O<=n beta for bound(n) and O beta for finite."""
    from faultkit.fdispec import BoundedDelay, ExactDelay, FiniteDelay

    beta = as_expr(beta)
    if isinstance(delay, ExactDelay):
        return t - delay.n >= 0 and beta.evaluate(m.states[tr[t - delay.n]])
    if isinstance(delay, BoundedDelay):
        return any(beta.evaluate(m.states[tr[u]])
                   for u in range(max(0, t - delay.n), t + 1))
    if isinstance(delay, FiniteDelay):
        return any(beta.evaluate(m.states[tr[u]]) for u in range(t + 1))
    raise TypeError(delay)


def knowledge_by_enumeration(m: SystemModel, tr: Trace, t: int, delay, beta) -> bool:
    """K phi at t, phi the past formula of `delay` over `beta`: phi holds at
    t on every obs-equivalent run of length t+1."""
    key = tuple(m.observation(s) for s in tr.steps[: t + 1])
    peers = obs_buckets(m, t + 1)[key]
    return all(naive_past(m, peer, delay, beta, t) for peer in peers)


# -- diagnosability ---------------------------------------------------------------

def oracle_diagnosable_exact(m: SystemModel, beta, n: int, horizon: int) -> bool:
    beta = as_expr(beta)
    for length in range(n + 1, horizon + 1):
        for traces in obs_buckets(m, length).values():
            for t in range(length - n):
                flags = [beta.evaluate(m.states[tr[t]]) for tr in traces]
                if any(flags) and not all(flags):
                    return False
    return True


def oracle_diagnosable_bounded(m: SystemModel, beta, n: int, horizon: int) -> bool:
    beta = as_expr(beta)
    for length in range(n + 1, horizon + 1):
        for traces in obs_buckets(m, length).values():
            for t in range(length - n):
                witnesses = [tr for tr in traces
                             if beta.evaluate(m.states[tr[t]])]
                if not witnesses:
                    continue
                confusers = [
                    tr for tr in traces
                    if not any(beta.evaluate(m.states[tr[u]])
                               for u in range(max(0, t - n), t + n + 1))]
                if confusers:
                    return False
    return True


def oracle_diagnosable_finite(m: SystemModel, beta, horizon: int) -> bool:
    """A critical pair is a lasso: obs-equivalent runs with a repeated state
    pair, the condition somewhere on side 1 and nowhere on side 2."""
    beta = as_expr(beta)
    for length in range(2, horizon + 1):
        for traces in obs_buckets(m, length).values():
            dirty = [tr for tr in traces
                     if any(beta.evaluate(m.states[s]) for s in tr.steps)]
            clean = [tr for tr in traces
                     if not any(beta.evaluate(m.states[s]) for s in tr.steps)]
            for tr1 in dirty:
                for tr2 in clean:
                    for i in range(length):
                        for j in range(i + 1, length):
                            if (tr1[i], tr2[i]) != (tr1[j], tr2[j]):
                                continue
                            if any(beta.evaluate(m.states[tr1[k]])
                                   for k in range(j + 1)):
                                return False
    return True


def brute_force_critical_pair(m: SystemModel, beta, delay):
    """The critical pair the library must return for an exact or bounded
    delay, as {"trace1", "trace2", "t"}, or None when there is none.

    The twin plant is built from the transitions and the observable atoms.
    Its nodes are state pairs with equal observations, plus, for bound(n),
    side 1's last n + 1 condition values and the steps since side 2's
    condition last held, counted up to 2n + 1.  The witness is the least
    of the least shortest walks to a critical node: for exact(n), a pair
    with the condition on side 1 only from which some n steps go on,
    followed by the least such n steps; for bound(n), n + 1 side-1 values,
    the oldest set, while side 2's condition held in none of the last
    2n + 1 steps.
    """
    from faultkit.fdispec import BoundedDelay, ExactDelay

    beta = as_expr(beta)
    n = delay.n
    bounded = isinstance(delay, BoundedDelay)
    assert bounded or isinstance(delay, ExactDelay)
    shown = sorted(m.observable_atoms)
    seen = {sid: tuple(val.get(a, False) for a in shown) for sid, val in m.states.items()}
    flag = {sid: beta.evaluate(val) for sid, val in m.states.items()}
    moves = successor_ids(m)

    def node(a, b, last1=(), since2=2 * n):
        if not bounded:
            return (a, b)
        return (a, b, (last1 + (flag[a],))[-(n + 1):], 0 if flag[b] else min(since2 + 1, 2 * n + 1))

    roots = [node(a, b) for a in m.initial for b in m.initial if seen[a] == seen[b]]
    adjacency: dict = {}
    work = list(roots)
    while work:
        here = work.pop()
        if here in adjacency:
            continue
        adjacency[here] = [node(x, y, *here[2:]) for x in moves[here[0]]
                           for y in moves[here[1]] if seen[x] == seen[y]]
        work.extend(adjacency[here])
    least = brute_force_lexleast_paths(roots, adjacency)

    def runs(start, steps):
        walks = [(start,)]
        for _ in range(steps):
            walks = [walk + (nxt,) for walk in walks for nxt in adjacency[walk[-1]]]
        return walks

    if bounded:
        found = [walk for (_, _, last1, since2), walk in least.items()
                 if len(last1) == n + 1 and last1[0] and since2 > 2 * n]
    else:
        found = [walk for (a, b), walk in least.items() if flag[a] and not flag[b]]
    found.sort(key=lambda w: (len(w), w))
    walk = next((w for w in found if bounded or runs(w[-1], n)), None)
    if walk is None:
        return None
    t = len(walk) - 1 - n if bounded else len(walk) - 1
    if not bounded:
        walk += min(runs(walk[-1], n))[1:]
    return {"trace1": [x[0] for x in walk], "trace2": [x[1] for x in walk], "t": t}


def coarsest_bisimulation(m: SystemModel, beta) -> set[frozenset[str]]:
    """The blocks of state ids of the greatest bisimulation over the labels
    (observation, condition, initial membership), as a fixpoint over state
    pairs: start from the pairs with equal labels and drop a pair while one
    state has a successor related to no successor of the other."""
    beta = as_expr(beta)
    shown = sorted(m.observable_atoms)
    label = {sid: (tuple(val[a] for a in shown), beta.evaluate(val), sid in m.initial)
             for sid, val in m.states.items()}
    moves = successor_ids(m)
    related = {(a, b) for a in m.states for b in m.states if label[a] == label[b]}
    changed = True
    while changed:
        changed = False
        for a, b in sorted(related):
            if any(all((x, y) not in related for y in moves[b]) for x in moves[a]):
                related -= {(a, b), (b, a)}
                changed = True
    return {frozenset(b for b in m.states if (a, b) in related) for a in m.states}


class PartialCandidate(Exception):
    """The product reaches a point where the candidate diagnoser has no move
    for the observation of the next state."""


def _product_parts(m: SystemModel, diagnoser_doc, beta, alarm: str):
    """What the product oracles read from the transitions, the observable
    atoms and the diagnoser document: each state's observation, condition
    and successors, and the candidate's entry, moves and alarms."""
    shown = sorted(m.observable_atoms)
    seen = {sid: tuple(val.get(a, False) for a in shown) for sid, val in m.states.items()}
    flag = {sid: beta.evaluate(val) for sid, val in m.states.items()}
    moves = successor_ids(m)

    def read(key):
        doc = json.loads(key)
        return tuple(doc[a] for a in shown)

    entry = {read(key): q for key, q in diagnoser_doc["entry"].items()}
    delta = {q: {read(key): tgt for key, tgt in edges.items()}
             for q, edges in diagnoser_doc["delta"].items()}
    raised = {q: alarm in names for q, names in diagnoser_doc["nodes"].items()}
    return seen, flag, moves, entry, delta, raised


def brute_force_product_counterexample(m: SystemModel, diagnoser_doc, beta, delay,
                                       conjunct: str, alarm: str = "A"):
    """The result `verify_diagnoser` must give for one safety conjunct of a
    global alarm on `beta`, as `ConjunctResult.to_json()`: {"holds": True},
    or {"holds": False, "counterexample": run} with the shortest run that
    reaches a violation, least by its sequence of state ids.  `conjunct` is
    "correctness", "maximality" or, for an exact or bounded delay,
    "completeness".  Raises PartialCandidate(state) when the candidate has
    no entry for an initial state, and PartialCandidate(node, state) at the
    first product state the search expands in which candidate node `node`
    cannot consume the observation of successor `state`, the least such.

    The product is built from the transitions, the observable atoms and the
    diagnoser document.  A node is (state, candidate node, belief, extra).
    A belief is the set of (state, past) consistent with the observations,
    where a past is the run's last n + 1 condition values (exact and
    bounded) or whether the condition ever held (finite).  The extra is the
    run's own past for correctness and exact completeness, and its last
    n + 1 (condition, alarm) values for bounded completeness.  Violating
    nodes are not expanded.
    """
    from faultkit.fdispec import BoundedDelay, ExactDelay

    beta = as_expr(beta)
    exact = isinstance(delay, ExactDelay)
    bounded = isinstance(delay, BoundedDelay)
    width = delay.n + 1 if exact or bounded else None
    assert conjunct in ("correctness", "maximality") or width is not None
    seen, flag, moves, entry, delta, raised = _product_parts(m, diagnoser_doc, beta, alarm)

    def remember(past, sid):
        if width is None:
            return past or flag[sid]
        return (past + (flag[sid],))[-width:]

    def satisfied(past):
        if exact:
            return len(past) == width and past[0]
        if bounded:
            return any(past)
        return past

    def extra_after(extra, sid, q):
        if conjunct == "maximality":
            return None
        if conjunct == "completeness" and bounded:
            return (extra + ((flag[sid], raised[q]),))[-width:]
        return remember(extra, sid)

    def violated(node):
        sid, q, belief, extra = node
        if conjunct == "correctness":
            return raised[q] and not satisfied(extra)
        if conjunct == "maximality":
            return all(satisfied(past) for _, past in belief) and not raised[q]
        if exact:
            return len(extra) == width and extra[0] and not raised[q]
        return len(extra) == width and extra[0][0] and not any(r for _, r in extra)

    # Only maximality reads the belief; the other conjuncts leave it None.
    beliefs: dict = {}  # (belief, observation) -> the belief after it

    def belief_after(belief, obs):
        if conjunct != "maximality":
            return None
        if (belief, obs) not in beliefs:
            beliefs[belief, obs] = frozenset((z, remember(past, z)) for x, past in belief
                                             for z in moves[x] if seen[z] == obs)
        return beliefs[belief, obs]

    nothing = False if width is None else ()
    roots = []
    for sid in m.initial:
        if seen[sid] not in entry:
            raise PartialCandidate(sid)
        q = entry[seen[sid]]
        belief = None
        if conjunct == "maximality":
            belief = frozenset((x, remember(nothing, x)) for x in m.initial
                               if seen[x] == seen[sid])
        roots.append((sid, q, belief, extra_after(nothing, sid, q)))

    def successors(node):
        sid, q, belief, extra = node
        gaps = [y for y in moves[sid] if seen[y] not in delta.get(q, {})]
        if gaps:
            raise PartialCandidate(q, min(gaps))
        return [(y, delta[q][seen[y]], belief_after(belief, seen[y]),
                 extra_after(extra, y, delta[q][seen[y]])) for y in moves[sid]]

    # Layer by layer, each node's least run among the shortest: a least run
    # of length k + 1 extends a least run of length k.  Each layer is
    # expanded in the order of those runs, so a gap is met at the first
    # node, in (length, run) order, whose successor the candidate cannot
    # consume.
    least = {node: (node[0],) for node in roots}
    layer = sorted(least, key=least.get)
    while layer:
        reached: dict = {}
        for node in layer:
            if violated(node):
                continue
            for nxt in successors(node):
                run = least[node] + (nxt[0],)
                if nxt not in least and (nxt not in reached or run < reached[nxt]):
                    reached[nxt] = run
        least.update(reached)
        layer = sorted(reached, key=reached.get)
    runs = [run for node, run in least.items() if violated(node)]
    if not runs:
        return {"holds": True}
    return {"holds": False, "counterexample": list(min(runs, key=lambda run: (len(run), run)))}


def brute_force_trace_completeness(m: SystemModel, diagnoser_doc, beta, delay,
                                   alarm: str = "A"):
    """The completeness conjunct of a trace-local alarm on `beta` with a
    bounded or finite delay, on the product of the model, the candidate and
    the belief.

    A product node is (state, candidate node, belief), built from the
    transitions, the observable atoms and the diagnoser document; a belief
    is the set of (state, past) consistent with the observations, where a
    past is the run's last n + 1 condition values for bound(n) and whether
    the condition ever held for finite.  A node is certain when the past
    formula holds in every member.  Raises PartialCandidate as
    `brute_force_product_counterexample` does.

    bound(n): returns what `verify_diagnoser` must give, {"holds": True}
    or {"holds": False, "counterexample": run} with the shortest run, least
    by its sequence of state ids, whose last n + 1 steps have the
    condition first, certainty somewhere and no alarm.  Runs are extended
    node by node with their last n + 1 labels; violating ones are not.

    finite: returns (holds, lasso), where lasso(run, loop_start) tells
    whether a run replays in the product as a violation: it closes on the
    product node at loop_start, and from a condition at or before
    loop_start on it raises no alarm and reaches certainty.  The conjunct
    fails when an alarm-free node has the condition and reaches, through
    alarm-free nodes, a certain node from which an alarm-free cycle is
    reachable.
    """
    from faultkit.fdispec import BoundedDelay, FiniteDelay

    beta = as_expr(beta)
    bounded = isinstance(delay, BoundedDelay)
    assert bounded or isinstance(delay, FiniteDelay)
    width = delay.n + 1 if bounded else None
    seen, flag, moves, entry, delta, raised = _product_parts(m, diagnoser_doc, beta, alarm)

    def remember(past, sid):
        if bounded:
            return (past + (flag[sid],))[-width:]
        return past or flag[sid]

    def certain(node):
        return all(any(past) if bounded else past for _, past in node[2])

    nothing = () if bounded else False
    roots = []
    for sid in m.initial:
        if seen[sid] not in entry:
            raise PartialCandidate(sid)
        belief = frozenset((x, remember(nothing, x)) for x in m.initial
                           if seen[x] == seen[sid])
        roots.append((sid, entry[seen[sid]], belief))

    beliefs: dict = {}  # (belief, observation) -> the belief after it

    @functools.cache
    def successors(node):
        sid, q, belief = node
        gaps = [y for y in moves[sid] if seen[y] not in delta.get(q, {})]
        if gaps:
            raise PartialCandidate(q, min(gaps))
        for y in moves[sid]:
            if (belief, seen[y]) not in beliefs:
                beliefs[belief, seen[y]] = frozenset(
                    (z, remember(past, z)) for x, past in belief
                    for z in moves[x] if seen[z] == seen[y])
        return [(y, delta[q][seen[y]], beliefs[belief, seen[y]]) for y in moves[sid]]

    @functools.cache
    def label(node):
        return flag[node[0]], raised[node[1]], certain(node)

    if bounded:
        def violated(window):
            return (len(window) == width and window[0][0]
                    and not any(a for _, a, _ in window) and any(k for _, _, k in window))

        least = {(node, (label(node),)): (node[0],) for node in roots}
        layer = sorted(least, key=least.get)
        while layer:
            reached: dict = {}
            for here in layer:
                node, window = here
                if violated(window):
                    continue
                for nxt in successors(node):
                    there = (nxt, (window + (label(nxt),))[-width:])
                    run = least[here] + (nxt[0],)
                    if there not in least and (there not in reached or run < reached[there]):
                        reached[there] = run
            least.update(reached)
            layer = sorted(reached, key=reached.get)
        runs = [run for (_, window), run in least.items() if violated(window)]
        if not runs:
            return {"holds": True}
        return {"holds": False, "counterexample": list(min(runs, key=lambda run: (len(run), run)))}

    adjacency: dict = {}
    work = list(roots)
    while work:
        node = work.pop()
        if node not in adjacency:
            adjacency[node] = successors(node)
            work.extend(adjacency[node])
    free = {node: [nxt for nxt in nxts if not raised[nxt[1]]]
            for node, nxts in adjacency.items() if not raised[node[1]]}

    def reach(start):
        found, work = {start}, [start]
        while work:
            for nxt in free[work.pop()]:
                if nxt not in found:
                    found.add(nxt)
                    work.append(nxt)
        return found

    cyclic = brute_force_cycle_nodes(free)
    holds = not any(flag[node[0]] and any(certain(v) and reach(v) & cyclic for v in reach(node))
                    for node in free)

    def lasso(run, loop_start):
        if not 0 <= loop_start < len(run) - 1 or run[0] not in m.initial:
            return False
        path = [next(node for node in roots if node[0] == run[0])]
        for y in run[1:]:
            if y not in moves[path[-1][0]]:
                return False
            path.append(next(nxt for nxt in adjacency[path[-1]] if nxt[0] == y))
        return path[loop_start] == path[-1] and any(
            flag[run[t]] and not any(raised[node[1]] for node in path[t:])
            and any(certain(node) for node in path[t:]) for t in range(loop_start + 1))

    return holds, lasso


# -- TFPG semantics ----------------------------------------------------------------

def naive_trace_consistent(g: Tfpg, at: ActivationTrace) -> bool:
    """Whether no discrepancy violates the activation semantics."""
    return not naive_violating_nodes(g, at)


def naive_violating_nodes(g: Tfpg, at: ActivationTrace) -> list[str]:
    """The discrepancies, in sorted order, whose activation or absence the
    activation semantics rules out.  A direct re-implementation of the
    semantics with full scans instead of incremental bookkeeping."""
    tl = at.mode_timeline
    H = at.horizon
    times = at.times

    def anchor(edge, tv):
        tu = times.get(edge.src)
        if tu is None or tv < tu:
            return None
        starts = [a for a in range(tu, tv + 1)
                  if all(tl[x] in edge.modes for x in range(a, tv + 1))]
        return min(starts) if starts else None

    def justified(edge, tv):
        a = anchor(edge, tv)
        return a is not None and edge.tmin <= tv - a <= edge.tmax

    def forces(edge):
        tu = times.get(edge.src)
        if tu is None or edge.tmax == float("inf"):
            return False
        limit = int(edge.tmax)
        for a in range(tu, H - limit + 1):
            if not all(tl[x] in edge.modes for x in range(a, a + limit + 1)):
                continue
            if a == tu or tl[a - 1] not in edge.modes:
                return True
        return False

    bad = []
    for node, kind in sorted(g.nodes.items()):
        if kind == "FM":
            continue
        incoming = [e for e in g.edges if e.dst == node]
        tv = times.get(node)
        if tv is not None:
            good = [e for e in incoming if justified(e, tv)]
            if kind == "OR" and not good:
                bad.append(node)
            if kind == "AND" and (not incoming or len(good) != len(incoming)):
                bad.append(node)
        else:
            forced = [e for e in incoming if forces(e)]
            if kind == "OR" and forced:
                bad.append(node)
            if kind == "AND" and incoming and len(forced) == len(incoming):
                bad.append(node)
    return bad


def naive_candidate_traces(g: Tfpg, horizon: int):
    """Literal double loop: every mode timeline times every activation
    vector, consistent or not."""
    nodes = sorted(g.nodes)
    times_options = [[None] + list(range(horizon + 1)) for _ in nodes]
    for timeline in itertools.product(sorted(g.modes), repeat=horizon + 1):
        for assignment in itertools.product(*times_options):
            yield ActivationTrace(horizon, timeline, dict(zip(nodes, assignment)))


def naive_induced_trace(g: Tfpg, m: SystemModel, exprs: dict, mode_map: dict,
                        tr: Trace) -> ActivationTrace:
    """The activation trace a model trace induces, from the definition.  A
    node in `exprs` activates at the first step whose state satisfies its
    predicate; every other node once each of its sources has a time, at the
    latest of them, or never when one never activates.  The mode at a step
    is the TFPG mode whose atom holds there, or the one declared mode when
    the model has no mode atoms."""
    atom_mode = {atom: mode for mode, atom in mode_map.items()}
    timeline = tuple(
        next(atom_mode[a] for a in m.mode_atoms if m.states[sid][a])
        if m.mode_atoms else g.modes[0] for sid in tr.steps)
    times = {node: next((t for t, sid in enumerate(tr.steps) if m.holds(expr, sid)), None)
             for node, expr in exprs.items() if node in g.nodes}
    changed = True
    while changed:
        changed = False
        for node in g.nodes:
            sources = [e.src for e in g.edges if e.dst == node]
            if node not in times and all(s in times for s in sources):
                acts = [times[s] for s in sources]
                times[node] = None if not acts or None in acts else max(acts)
                changed = True
    return ActivationTrace(len(tr) - 1, timeline, times)


def brute_force_behavioral(g: Tfpg, m: SystemModel, exprs: dict, mode_map: dict,
                           horizon: int):
    """The least violating trace of horizon + 1 states, in the order of
    enumerate_traces, as (trace, its induced activation trace, its
    violating discrepancies), or None when every trace is consistent."""
    for tr in enumerate_traces(m, horizon + 1):
        at = naive_induced_trace(g, m, exprs, mode_map, tr)
        bad = naive_violating_nodes(g, at)
        if bad:
            return tr, at, bad
    return None


def naive_observed_delays(g: Tfpg, m: SystemModel, exprs: dict, mode_map: dict,
                          horizon: int) -> dict[int, set[int]]:
    """Per edge index, every delay from its anchor to its target's
    activation over the traces of horizon + 1 states: the anchor is the
    earliest step from the source's activation on after which the edge's
    modes hold through the target's activation."""
    delays: dict[int, set[int]] = {i: set() for i in range(len(g.edges))}
    for tr in enumerate_traces(m, horizon + 1):
        at = naive_induced_trace(g, m, exprs, mode_map, tr)
        for i, e in enumerate(g.edges):
            tu, tv = at.times.get(e.src), at.times.get(e.dst)
            if tu is None or tv is None:
                continue
            starts = [a for a in range(tu, tv + 1)
                      if all(at.mode_timeline[x] in e.modes for x in range(a, tv + 1))]
            if starts:
                delays[i].add(tv - min(starts))
    return delays


# -- graph search ----------------------------------------------------------------

def brute_force_lexleast_paths(roots, adjacency, key=None, stop=frozenset()):
    """For every node reachable from `roots`, the lexicographically least
    (under `key`) of its shortest paths.  Walks grow one node at a time from
    every root and are compared whole.  A walk is dropped when a shorter
    walk reached its last node, or a lesser walk of its length did: no
    extension of it can then be least.  Nodes in `stop` are reached but
    never extended."""
    best: dict = {}
    walks = [(root,) for root in set(roots)]
    while walks:
        layer: dict = {}
        for walk in walks:
            node = walk[-1]
            if node in best:
                continue
            rank = walk if key is None else [key(x) for x in walk]
            if node not in layer or rank < layer[node][0]:
                layer[node] = (rank, walk)
        best.update((node, walk) for node, (_, walk) in layer.items())
        walks = [walk + (nxt,) for _, walk in layer.values() if walk[-1] not in stop
                 for nxt in adjacency[walk[-1]]]
    return best


def brute_force_cycle_nodes(adjacency) -> set:
    """Nodes from which some walk of at least one edge returns to them."""
    on_cycle = set()
    for start in adjacency:
        seen: set = set()
        work = list(adjacency[start])
        while work:
            node = work.pop()
            if node == start:
                on_cycle.add(start)
                break
            if node not in seen:
                seen.add(node)
                work.extend(adjacency[node])
    return on_cycle


# -- TFPG cause families ----------------------------------------------------------

def brute_force_cause_family(m: SystemModel, fm_atoms, target, cause_exprs):
    """Minimal cause sets of `target` by testing every subset S of the
    declared faults plus the named cause predicates: the target must be
    reachable while faults outside S stay false and no predicate outside S
    ever holds."""
    target = as_expr(target)
    exprs = {name: as_expr(e) for name, e in cause_exprs.items()}
    universe = sorted(fm_atoms) + sorted(exprs)
    adjacency = successor_ids(m)
    # what each state needs: its true fault atoms and its true predicates
    needs = {sid: frozenset(f for f in m.fault_atoms if val.get(f, False)) |
             frozenset(name for name, e in exprs.items() if e.evaluate(val))
             for sid, val in m.states.items()}
    sat = []
    for r in range(len(universe) + 1):
        for combo in itertools.combinations(universe, r):
            S = frozenset(combo)
            reach = {sid for sid in m.initial if needs[sid] <= S}
            work = list(reach)
            while work:
                for nxt in adjacency[work.pop()]:
                    if nxt not in reach and needs[nxt] <= S:
                        reach.add(nxt)
                        work.append(nxt)
            if any(target.evaluate(m.states[sid]) for sid in reach):
                sat.append(S)
    return sorted((S for S in sat if not any(T < S for T in sat)),
                  key=lambda s: (len(s), sorted(s)))
