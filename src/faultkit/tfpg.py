"""Timed failure propagation graphs: structure, discrete-time activation
semantics, structural and behavioral validation, and edge tightening.

Nodes are failure modes (FM, free inputs) and discrepancies (OR / AND
effects).  Edges carry an integer delay interval [tmin, tmax] (tmax may be
infinite) and a nonempty set of system modes in which the propagation is
possible.  A node activates at most once.

Semantics of one edge (u, v): the propagation clock runs from the *anchor*,
the start of the current contiguous mode-enabled run clipped to u's
activation.  Leaving the edge's mode set kills a pending propagation;
re-entering restarts the clock at the re-entry step.

* justification: an OR activation needs some incoming edge whose anchor
  satisfies tmin <= t_v - anchor <= tmax; an AND activation needs every
  incoming edge to satisfy it (which forces every source active).
* inevitability: a node that never activates must have no incoming edge
  whose enabled run lasts through anchor + tmax within the horizon (all
  edges, for AND nodes) - otherwise the propagation had to land.

The two rules are stated once, in `_violates`, which decides a discrepancy
from its per-edge verdicts (`_verdict`); trace checks, behavioural
validation and tightening all decide through it, and `_explain` only says
why a discrepancy it rejected fails.
"""

from __future__ import annotations

import math
from itertools import compress, count, islice
from operator import itemgetter

from .boolexpr import Expr, as_expr
from .errors import ModelFormatError, SizeGuardExceeded, FaultkitError
from .graphs import lexleast_shortest_paths, nodes_on_cycles
from .jsonio import NAME_MAP, NAMES, decode_json, dot_escape, expect, field, read_json
from .model import SystemModel, Trace, Violation
from .records import Frozen, Record

FM = "FM"
OR = "OR"
AND = "AND"
INF = math.inf
# Most runs of horizon + 1 states a behavioural check or tightening projects.
RUN_LIMIT = 1_000_000


class TfpgError(FaultkitError):
    pass


class TfpgEdge(Frozen):
    __slots__ = ("src", "dst", "tmin", "tmax", "modes")

    def __init__(self, src: str, dst: str, tmin: int, tmax: float, modes: tuple[str, ...]):
        # tmax: an int, or math.inf
        self._set(src, dst, tmin, tmax, modes)

    def describe(self) -> str:
        return (f"{self.src} -> {self.dst} [{self.tmin},{_upper(self.tmax)}] "
                f"{{{','.join(self.modes)}}}")


def _upper(tmax: float) -> int | str:
    """An upper bound as reports write it: "inf" or an int."""
    return "inf" if tmax == INF else int(tmax)


def _edge_key(e: TfpgEdge):
    return e.src, e.dst, e.tmin, e.tmax, e.modes


class Tfpg:
    def __init__(self, modes, nodes, edges):
        self.modes = tuple(sorted(set(modes)))
        self.nodes = dict(nodes)
        self.edges = tuple(sorted(edges, key=_edge_key))
        inc: dict[str, list[int]] = {n: [] for n in self.nodes}
        for i, e in enumerate(self.edges):
            if e.dst in inc:
                inc[e.dst].append(i)
        self._incoming: dict[str, tuple[int, ...]] = {n: tuple(ix) for n, ix in inc.items()}

    def incoming(self, node: str) -> tuple[int, ...]:
        return self._incoming[node]

    def fm_nodes(self):
        return sorted(n for n, k in self.nodes.items() if k == FM)

    def discrepancies(self):
        return sorted(n for n, k in self.nodes.items() if k in (OR, AND))


class ActivationTrace(Record):
    """Mode timeline over steps 0..horizon plus one activation time (or
    None = never) per node."""

    __slots__ = ("horizon", "mode_timeline", "times")

    def __init__(self, horizon: int, mode_timeline: tuple[str, ...],
                 times: dict[str, int | None]):
        self._set(horizon, mode_timeline, times)


class TraceViolation(Frozen):
    __slots__ = ("kind", "node", "detail", "edge_indices")

    def __init__(self, kind: str, node: str, detail: str, edge_indices: tuple[int, ...] = ()):
        # kind: or/and-justification, or/and-inevitability
        self._set(kind, node, detail, edge_indices)

    def __str__(self):
        return f"{self.kind}: {self.node}: {self.detail}"


# -- parsing -----------------------------------------------------------------

def parse_tfpg(text: str) -> Tfpg:
    return _tfpg_from(decode_json(text))


def load_tfpg(path) -> Tfpg:
    return read_json(path, _tfpg_from)


def _tfpg_from(doc) -> Tfpg:
    expect(doc, dict, "TFPG")
    modes = field(doc, "modes", NAMES, "TFPG")
    if not modes:
        raise ModelFormatError("modes must be a nonempty list")
    nodes = {}
    for name, entry in field(doc, "nodes", dict, "TFPG").items():
        kind = entry.get("kind") if isinstance(entry, dict) else entry
        if kind not in (FM, OR, AND):
            raise ModelFormatError(f"node {name!r}: unknown kind {kind!r}")
        nodes[name] = kind
    edges = []
    for i, item in enumerate(field(doc, "edges", list, "TFPG")):
        where = f"edge {i}"
        expect(item, dict, where)
        src, dst = field(item, "from", str, where), field(item, "to", str, where)
        for endpoint in (src, dst):
            if endpoint not in nodes:
                raise ModelFormatError(f"edge references unknown node {endpoint!r}")
        tmax = INF if item.get("tmax") == "inf" else field(item, "tmax", int, where)
        edges.append(TfpgEdge(src, dst, field(item, "tmin", int, where), tmax,
                              tuple(sorted(field(item, "modes", NAMES, where)))))
    return Tfpg(modes, nodes, edges)


def tfpg_to_json(g: Tfpg) -> dict:
    return {
        "modes": list(g.modes),
        "nodes": {n: {"kind": g.nodes[n]} for n in sorted(g.nodes)},
        "edges": [{"from": e.src, "to": e.dst, "tmin": e.tmin,
                   "tmax": _upper(e.tmax),
                   "modes": list(e.modes)}
                  for e in g.edges],
    }


def activation_trace_from_json(doc, g: Tfpg) -> ActivationTrace:
    """The activation trace in `doc`, checked against g's modes and nodes."""
    where = "activation trace"
    expect(doc, dict, where)
    horizon = field(doc, "horizon", int, where)
    timeline = tuple(field(doc, "mode_timeline", NAMES, where))
    times = {n: None for n in g.nodes}
    for node, t in field(doc, "activations", dict, where, {}).items():
        times[node] = expect(t, (int, type(None)), f"activation of {node!r}")
    at = ActivationTrace(horizon, timeline, times)
    _check_trace_shape(g, at, ModelFormatError)
    return at


def export_tfpg_dot(g: Tfpg) -> str:
    """Dotted boxes for failure modes, solid boxes for AND discrepancies,
    circles for OR discrepancies."""
    lines = ["digraph tfpg {", "  rankdir=LR;"]
    for node in sorted(g.nodes):
        kind, name = g.nodes[node], dot_escape(node)
        if kind == FM:
            lines.append(f'  "{name}" [shape=box, style=dotted];')
        elif kind == AND:
            lines.append(f'  "{name}" [shape=box];')
        else:
            lines.append(f'  "{name}" [shape=circle];')
    for e in g.edges:
        label = dot_escape(f"[{e.tmin},{_upper(e.tmax)}] {','.join(e.modes)}")
        lines.append(f'  "{dot_escape(e.src)}" -> "{dot_escape(e.dst)}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- structural validation ----------------------------------------------------

def validate_structure(g: Tfpg) -> list[Violation]:
    """Findings of kind consistency, necessity, possibility or
    cycle-warning; only a cycle warning leaves the graph valid."""
    findings: list[Violation] = []
    declared = set(g.modes)
    for i, e in enumerate(g.edges):
        if e.tmin < 0:
            findings.append(Violation(
                "consistency", e.describe(), "tmin must be nonnegative"))
        if e.tmin > e.tmax:
            findings.append(Violation(
                "consistency", e.describe(), "tmin exceeds tmax"))
        if not e.modes:
            findings.append(Violation(
                "consistency", e.describe(), "mode label set is empty"))
        unknown = set(e.modes) - declared
        if unknown:
            findings.append(Violation(
                "consistency", e.describe(), f"undeclared modes {sorted(unknown)}"))
        if g.nodes[e.dst] == FM:
            findings.append(Violation(
                "consistency", e.describe(), "failure-mode nodes cannot have incoming edges"))
    for node in g.discrepancies():
        if not g.incoming(node):
            findings.append(Violation(
                "necessity", node, "discrepancy has no incoming edge"))
    dead = _impossible_nodes(g)
    for node in dead:
        findings.append(Violation(
            "possibility", node,
            "not reachable from any failure mode through edges sharing a common mode"))
    succ: dict[str, set[str]] = {n: set() for n in g.nodes}
    for e in g.edges:
        succ[e.src].add(e.dst)
    for node in sorted(nodes_on_cycles(g.nodes, succ.__getitem__)):
        findings.append(Violation(
            "cycle-warning", node, "node lies on a propagation cycle"))
    return findings


def _impossible_nodes(g: Tfpg) -> list[str]:
    possible: set[str] = set()
    for mode in g.modes:
        succ: dict[str, list[str]] = {}
        for e in g.edges:
            if mode in e.modes:
                succ.setdefault(e.src, []).append(e.dst)
        possible.update(lexleast_shortest_paths(g.fm_nodes(), lambda n: succ.get(n, ())))
    return sorted(set(g.nodes) - possible)


# -- trace semantics ------------------------------------------------------------

def _check_trace_shape(g: Tfpg, at: ActivationTrace, error=TfpgError) -> None:
    """Raise `error` unless `at` fits g: a ModelFormatError for a trace
    read from a file, so that `read_json` names the file."""
    if at.horizon < 0:
        raise error("horizon must be nonnegative")
    if len(at.mode_timeline) != at.horizon + 1:
        raise error(
            f"mode timeline must have {at.horizon + 1} entries, has {len(at.mode_timeline)}")
    for mode in at.mode_timeline:
        if mode not in g.modes:
            raise error(f"undeclared mode {mode!r} in timeline")
    for node, t in at.times.items():
        if node not in g.nodes:
            raise error(f"activation for unknown node {node!r}")
        if t is not None and not (0 <= t <= at.horizon):
            raise error(f"activation of {node!r} at {t} outside [0,{at.horizon}]")


def _anchor(edge: TfpgEdge, act_u: int | None, t: int, timeline) -> int | None:
    """Start of the propagation clock for an activation/inspection at t:
    the beginning of the contiguous mode-enabled run containing t, clipped
    to the source's activation.  None when the edge is not enabled at t or
    the source is not yet active."""
    if act_u is None or t < act_u:
        return None
    if timeline[t] not in edge.modes:
        return None
    a = t
    while a > act_u and timeline[a - 1] in edge.modes:
        a -= 1
    return a


def _justifies(edge: TfpgEdge, act_u: int | None, t_v: int, timeline) -> bool:
    a = _anchor(edge, act_u, t_v, timeline)
    return a is not None and edge.tmin <= t_v - a <= edge.tmax


def _forcing_deadline(edge: TfpgEdge, act_u: int | None, timeline) -> int | None:
    """Earliest step by which the edge guarantees its target's activation
    within the timeline's horizon: anchor + tmax for some enabled run
    lasting that long.  None when nothing is forced."""
    if act_u is None or edge.tmax == INF:
        return None
    horizon = len(timeline) - 1
    t = act_u
    while t <= horizon:
        if timeline[t] not in edge.modes:
            t += 1
            continue
        start = t
        while t + 1 <= horizon and timeline[t + 1] in edge.modes:
            t += 1
        # enabled run [start, t]
        if start + edge.tmax <= t:
            return int(start + edge.tmax)
        t += 1
    return None


def _verdict(edge: TfpgEdge, act_u: int | None, t: int | None, timeline) -> bool:
    """One edge's verdict: source time act_u justifies target time t or,
    for a target that never activates (t None), forces it."""
    if t is None:
        return _forcing_deadline(edge, act_u, timeline) is not None
    return _justifies(edge, act_u, t, timeline)


def _violates(is_or: bool, t: int | None, verdicts, has_edges: bool) -> bool:
    """The justification and inevitability rules: whether a discrepancy
    activated at t (None for never) violates them, given the lazily read
    `_verdict` of each incoming edge.  An activation needs one justifying
    edge (OR) or all (AND), and one forcing edge (OR) or all (AND) forbid
    never activating; an AND node without edges is neither justified nor
    forced."""
    return (t is None) == (any(verdicts) if is_or else has_edges and all(verdicts))


def _explain(g: Tfpg, edges, node: str, times, timeline) -> TraceViolation:
    """The violation of discrepancy `node`, which `_violates` found on a
    trace read through `times`: the rule it breaks, the incoming edges that
    rule names and, for an OR node that never activates, the step its
    earliest forcing edge forces.  It decides nothing."""
    inc, t_v = g.incoming(node), times[node]
    if t_v is None:
        deadlines = {i: d for i in inc if (d := _forcing_deadline(
            edges[i], times[edges[i].src], timeline)) is not None}
        if g.nodes[node] == OR:
            return TraceViolation("or-inevitability", node, "never activates but forced by "
                                  f"step {min(deadlines.values())}", tuple(deadlines))
        return TraceViolation("and-inevitability", node,
                              "never activates but every incoming edge completed its "
                              "propagation window", tuple(deadlines))
    if g.nodes[node] == OR:
        return TraceViolation("or-justification", node,
                              f"activation at {t_v} is not explained by any incoming edge", inc)
    bad = tuple(i for i in inc if not _justifies(edges[i], times[edges[i].src], t_v, timeline))
    detail = ("edges not satisfied: " + "; ".join(edges[i].describe() for i in bad) if bad
              else "no incoming edges")
    return TraceViolation("and-justification", node, f"activation at {t_v}: {detail}", bad)


def check_trace_consistency(g: Tfpg, at: ActivationTrace) -> tuple[bool, list[TraceViolation]]:
    """Check one activation trace against the propagation semantics.
    Returns (consistent, violations); failure modes are free inputs."""
    _check_trace_shape(g, at)
    violations = _violations(g, g.edges, (0, *map(at.times.get, sorted(g.nodes))),
                             [at.mode_timeline])
    return not violations, violations


def _violations(g: Tfpg, edges, row, timelines: list) -> list[TraceViolation]:
    """The violations of `edges` on a row's trace, in node order: each
    discrepancy `_violates` rejects, explained by `_explain`."""
    times, timeline = dict(zip(sorted(g.nodes), row[1:])), timelines[row[0]]
    found = []
    for node in g.discrepancies():
        t, inc = times[node], g.incoming(node)
        verdicts = (_verdict(edges[i], times[edges[i].src], t, timeline) for i in inc)
        if _violates(g.nodes[node] == OR, t, verdicts, bool(inc)):
            found.append(_explain(g, edges, node, times, timeline))
    return found


def _keys(g: Tfpg) -> dict[str, itemgetter]:
    """Per node, the getter of its key from a row, where a row is (timeline
    id, *times in sorted node order): (timeline id, its time, and the source
    time of each incoming edge, in the order of g.incoming)."""
    slot = {n: k for k, n in enumerate(sorted(g.nodes), 1)}
    return {node: itemgetter(0, slot[node], *(slot[g.edges[i].src] for i in g.incoming(node)))
            for node in g.nodes}


def _first_violation(g: Tfpg, edges, timelines: list, getters: dict[str, itemgetter]):
    """first(node, rows, start=0, keys=None): the index of the first row
    from `start` on, in a list of rows as `_induced` yields them, on which
    discrepancy `node` violates `edges` (`_violates`), else len(rows).
    `getters` is `_keys(g)`; `keys`, when given, is the set of the node's
    keys on those rows, which the call then consumes.  A call decides each
    distinct key not yet found consistent, from `_verdict`s kept by
    (timeline id, source time a, target time t).  A node's edges are read
    at its first call."""
    checks = {}

    def holds(edge, memo, tid, a, t) -> bool:
        verdict = memo.get((tid, a, t))
        if verdict is None:
            verdict = memo[tid, a, t] = _verdict(edge, a, t, timelines[tid])
        return verdict

    def first(node, rows, start=0, keys=None) -> int:
        if node not in checks:
            at = tuple((edges[i], k, {}) for k, i in enumerate(g.incoming(node), 2))
            checks[node] = (getters[node], at, g.nodes[node] == OR, set())
        key_of, at, is_or, consistent = checks[node]
        if keys is None:
            keys = set(map(key_of, islice(rows, start, None)))
        keys -= consistent
        bad = {key for key in keys
               if _violates(is_or, key[1], (holds(edge, memo, key[0], key[k], key[1])
                                            for edge, k, memo in at), bool(at))}
        keys -= bad
        consistent |= keys
        if not bad:
            return len(rows)
        found = compress(count(start), map(bad.__contains__,
                                           map(key_of, islice(rows, start, None))))
        return next(found)

    return first


# -- behavioral validation against a system model -------------------------------

class NodeMap(Record):
    """Binding of TFPG nodes to state predicates and TFPG modes to mode
    atoms.  AND nodes may be left unmapped: they then activate structurally
    when their last source activates (synthesized helper nodes)."""

    __slots__ = ("exprs", "mode_map")

    def __init__(self, exprs: dict[str, Expr], mode_map: dict[str, str]):
        self._set(exprs, mode_map)

    @staticmethod
    def from_json(doc) -> "NodeMap":
        expect(doc, dict, "node map")
        exprs = field(doc, "nodes", NAME_MAP, "node map")
        return NodeMap({n: as_expr(e) for n, e in exprs.items()},
                       dict(field(doc, "modes", NAME_MAP, "node map", {})))


def load_node_map(path) -> NodeMap:
    return read_json(path, NodeMap.from_json)


class BehavioralResult(Record):
    __slots__ = ("complete", "witness", "violations")

    def __init__(self, complete: bool, witness: Trace | None = None,
                 violations: tuple[TraceViolation, ...] = ()):
        self._set(complete, witness, violations)

    def to_json(self):
        doc = {"complete": self.complete}
        if self.witness is not None:
            doc["witness"] = list(self.witness.steps)
            doc["violations"] = [str(v) for v in self.violations]
        return doc


def _check_map(g: Tfpg, m: SystemModel, nm: NodeMap) -> None:
    for node in sorted(g.nodes):
        if node in nm.exprs:
            unknown = nm.exprs[node].atoms() - m.atoms
            if unknown:
                raise TfpgError(f"node {node!r} predicate references unknown "
                                f"atoms {sorted(unknown)}")
        elif g.nodes[node] != AND:
            raise TfpgError(f"unmapped node {node!r}")
    if m.mode_atoms:
        mapped = set(nm.mode_map.values())
        if set(nm.mode_map) != set(g.modes) or mapped != set(m.mode_atoms) \
                or len(mapped) != len(nm.mode_map):
            raise TfpgError("mode map must be a bijection from TFPG modes "
                            "onto the model's mode atoms")
    else:
        if len(g.modes) != 1:
            raise TfpgError("model has no mode atoms; the TFPG must declare "
                            "exactly one mode")


def _induced(g: Tfpg, m: SystemModel, nm: NodeMap, horizon: int, timelines: list):
    """(run, row) for every run of horizon + 1 states, in lexicographic
    order, where row is (timeline id, *activation times in sorted node
    order) of the run's induced activation trace and a timeline's id is its
    index in `timelines`, which this appends to.  The map is checked and
    the runs are counted before the first one is reached: more than
    RUN_LIMIT raise.

    The runs are the leaves of a depth-first walk of the run tree, on an
    explicit stack so that no horizon makes Python recurse, and a prefix is
    projected once for all its extensions.  A mapped node activates at the
    first state where its predicate holds, an unmapped AND node when the
    last of its sources does; so reaching a state stamps the current depth
    on the mapped nodes that hold there and are not yet active, and on the
    helpers that this completes.  A run of horizon + 1 states that reaches
    a state without exactly one mode atom, or any such run when unmapped
    AND nodes form a cycle, raises TfpgError; a shorter branch never does."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    _check_map(g, m, nm)
    # runs ending in each state, layer by layer; a count past the limit
    # reaches the last layer past it or not at all, so it is capped there
    cap = RUN_LIMIT + 1
    ends = [0] * m.size
    for sid in m.initial:
        ends[m.number[sid]] = 1
    for _ in range(horizon):
        step = [0] * m.size
        for i, runs in enumerate(ends):
            for j in m.succ[i]:
                step[j] += runs
        ends = [min(runs, cap) for runs in step]
    if sum(ends) > RUN_LIMIT:
        raise SizeGuardExceeded(f"the model has more than {RUN_LIMIT} runs of "
                                f"{horizon + 1} states")
    mode_bits = m.mask_of(m.mode_atoms)
    modes = ({m.bits[a]: mode for mode, a in nm.mode_map.items() if a in m.bits}
             if m.mode_atoms else {0: g.modes[0]})
    mode_of = [modes.get(x & mode_bits) for x in m.masks]
    # a set of nodes is a mask, bit k for the k-th node in sorted order
    order = sorted(g.nodes)
    bit = {n: 1 << k for k, n in enumerate(order)}
    fires = [0] * m.size
    for n in order:
        if n in nm.exprs:
            for i in compress(count(), m.condition(nm.exprs[n])):
                fires[i] |= bit[n]
    # the unmapped nodes with sources as (bit, the bits of their sources),
    # each after the unmapped ones among its sources; a node without
    # sources never activates
    helpers, pending = [], [n for n in order if n not in nm.exprs]
    while pending:
        before = len(pending)
        for node in list(pending):
            sources = {g.edges[i].src for i in g.incoming(node)}
            if not sources.intersection(pending):
                if sources:
                    helpers.append((bit[node], sum(map(bit.__getitem__, sources))))
                pending.remove(node)
        if len(pending) == before:
            break
    # a walk meets few distinct masks, so each one's closure under the
    # helpers and each one's slots are worked out once
    closed: dict[int, int] = {}
    slots: dict[int, tuple[int, ...]] = {}

    def stamp(times, active, fired, depth):
        """times and active nodes after those in `fired` activate at
        `depth`, with the helpers they complete."""
        after = closed.get(active | fired)
        if after is None:
            after = active | fired
            for b, need in helpers:
                if after & need == need:
                    after |= b
            closed[active | fired] = after
        new = after ^ active
        where = slots.get(new)
        if where is None:
            where = slots[new] = tuple(k for k in range(len(order)) if new >> k & 1)
        times = list(times)
        for k in where:
            times[k] = depth
        return tuple(times), after

    ids: dict[tuple[str | None, ...], int] = {}
    succ = m.succ
    # a frame: the choices left for the next state, and the activation
    # times and active nodes of the prefix before it; the prefix's states
    # and modes are two lists shared by all frames, pushed and popped with
    # the stack, so a run costs memory linear in its length
    prefix: list[int] = []
    modes_so_far: list[str | None] = []
    stack = [(iter([m.number[sid] for sid in m.initial]), (None,) * len(order), 0)]
    while stack:
        states, times, active = stack[-1]
        depth = len(prefix)
        if depth < horizon:
            state = next(states, None)
            if state is not None:
                fired = fires[state] & ~active
                if fired:
                    times, active = stamp(times, active, fired, depth)
                prefix.append(state)
                modes_so_far.append(mode_of[state])
                stack.append((iter(succ[state]), times, active))
                continue
        else:
            head, before = tuple(prefix), tuple(modes_so_far)
            for state in states:
                run, line = head + (state,), before + (mode_of[state],)
                fired = fires[state] & ~active
                at = stamp(times, active, fired, depth)[0] if fired else times
                tid = ids.get(line)
                if tid is None:
                    if None in line:
                        raise TfpgError(f"a run reaches state {m.ids[run[line.index(None)]]!r}, "
                                        f"where not exactly one mode atom is true")
                    if pending:
                        raise TfpgError(f"cyclic unmapped AND nodes: {pending}")
                    tid = ids[line] = len(timelines)
                    timelines.append(line)
                yield run, (tid, *at)
        stack.pop()
        if prefix:
            prefix.pop()
            modes_so_far.pop()


# a behavioural check decides runs in blocks, doubling from the first size to the cap
_FIRST_BLOCK = 64
_BLOCK_CAP = 4096


def behavioral_validate(g: Tfpg, m: SystemModel, nm: NodeMap,
                        horizon: int) -> BehavioralResult:
    """The TFPG is complete for the model at this horizon when the induced
    activation trace of every system run is consistent.  The witness is the
    lexicographically least violating run."""
    timelines: list = []
    first = _first_violation(g, g.edges, timelines, _keys(g))
    induced = _induced(g, m, nm, horizon, timelines)
    size = _FIRST_BLOCK
    while True:
        block, error = [], None
        try:
            block.extend(islice(induced, size))
        except TfpgError as err:
            # an unprojectable run fails the check only if none before it violates
            error = err
        rows = [row for _, row in block]
        k = min((first(node, rows) for node in g.discrepancies()), default=len(rows))
        if k < len(rows):
            run, row = block[k]
            return BehavioralResult(False, m.trace(run),
                                    tuple(_violations(g, g.edges, row, timelines)))
        if error is not None:
            raise error
        if len(block) < size:
            return BehavioralResult(True)
        size = min(2 * size, _BLOCK_CAP)


# -- edge tightening -------------------------------------------------------------

class EdgeChange(Frozen):
    __slots__ = ("description", "old", "new", "exercised", "promoted")

    def __init__(self, description: str, old: tuple[int, float], new: tuple[int, float],
                 exercised: bool, promoted: bool):
        self._set(description, old, new, exercised, promoted)

    def to_json(self):
        def fmt(pair):
            lo, hi = pair
            return [lo, _upper(hi)]
        return {"edge": self.description, "old": fmt(self.old), "new": fmt(self.new),
                "exercised": self.exercised, "promoted": self.promoted}


class TightenResult(Record):
    __slots__ = ("tfpg", "changes")

    def __init__(self, tfpg: Tfpg, changes: tuple[EdgeChange, ...]):
        self._set(tfpg, changes)


def tighten_edges(g: Tfpg, m: SystemModel, nm: NodeMap,
                  horizon: int) -> TightenResult:
    """Shrink every exercised edge's interval to the observed activation
    delays, then relax upper bounds back to infinity wherever a bounded
    window would force propagations the model does not guarantee.  The
    result is re-validated; tightening never breaks completeness and is
    idempotent at a fixed horizon."""
    timelines: list = []
    rows = [row for _, row in _induced(g, m, nm, horizon, timelines)]
    getters = _keys(g)
    # g's edges in g's order, each exercised one shrunk to its observed
    # delays, and each discrepancy's first violation of them.  A node is
    # decided from one set of its distinct keys on the rows: a delay reads
    # only the timeline and the edge's two activation times, so each
    # distinct triple is anchored once, read off that set; the set is then
    # handed to `first`, which reads the node's edges at that call.
    edges = list(g.edges)
    exercised = [False] * len(edges)
    first = _first_violation(g, edges, timelines, getters)
    fails = {}
    for node, key_of in getters.items():
        is_discrepancy = g.nodes[node] in (OR, AND)
        if not g.incoming(node) and not is_discrepancy:
            continue
        keys = set(map(key_of, rows))
        for k, i in enumerate(g.incoming(node), 2):
            e, delays = g.edges[i], set()
            for tid, act_u, act_v in {(key[0], key[k], key[1]) for key in keys}:
                if act_v is not None:
                    a = _anchor(e, act_u, act_v, timelines[tid])
                    if a is not None:
                        delays.add(act_v - a)
            exercised[i] = bool(delays)
            if delays:
                edges[i] = TfpgEdge(e.src, e.dst, min(delays), max(delays), e.modes)
        if is_discrepancy:
            fails[node] = first(node, rows, keys=keys)
    # Relaxing an upper bound to infinity only weakens justification and
    # removes forcing, so the rows before the first failing one hold for good,
    # and a relaxation needs only its edges' targets decided again from it.
    while (r := min(fails.values(), default=len(rows))) < len(rows):
        found = _violations(g, edges, rows[r], timelines)
        # only bounds this run introduced may be relaxed; a violation
        # pinned on untouched edges means the input was not complete
        # to begin with
        relaxed = {i for v in found if v.kind.endswith("inevitability")
                   for i in v.edge_indices if exercised[i] and edges[i].tmax != INF}
        if not relaxed:
            raise TfpgError(
                "input TFPG is not complete at this horizon; tightening "
                "cannot proceed: " + "; ".join(str(v) for v in found))
        for i in relaxed:
            e = edges[i]
            edges[i] = TfpgEdge(e.src, e.dst, e.tmin, INF, e.modes)
        first = _first_violation(g, edges, timelines, getters)
        for node in {edges[i].dst for i in relaxed}:
            fails[node] = first(node, rows, r)
    # observed delays are finite, so an exercised edge ends unbounded only
    # when it was relaxed
    changes = tuple(
        EdgeChange(e.describe(), (e.tmin, e.tmax), (new.tmin, new.tmax),
                   hit, hit and new.tmax == INF)
        for e, new, hit in zip(g.edges, edges, exercised))
    return TightenResult(Tfpg(g.modes, g.nodes, edges), changes)
