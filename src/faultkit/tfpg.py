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
"""

from __future__ import annotations

import math
from itertools import compress
from operator import itemgetter

from .boolexpr import Expr, as_expr
from .errors import ModelFormatError, SizeGuardExceeded, FaultkitError
from .graphs import lexleast_shortest_paths, nodes_on_cycles
from .jsonio import NAME_MAP, NAMES, decode_json, expect, field, read_json
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
    for name in sorted(g.nodes):
        kind = g.nodes[name]
        if kind == FM:
            lines.append(f'  "{name}" [shape=box, style=dotted];')
        elif kind == AND:
            lines.append(f'  "{name}" [shape=box];')
        else:
            lines.append(f'  "{name}" [shape=circle];')
    for e in g.edges:
        label = f"[{e.tmin},{_upper(e.tmax)}] {','.join(e.modes)}"
        lines.append(f'  "{e.src}" -> "{e.dst}" [label="{label}"];')
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


def _justifies(edge: TfpgEdge, times, t_v: int, timeline) -> bool:
    a = _anchor(edge, times[edge.src], t_v, timeline)
    return a is not None and edge.tmin <= t_v - a <= edge.tmax


def _forcing_deadline(edge: TfpgEdge, times, timeline, horizon: int) -> int | None:
    """Earliest step by which the edge guarantees its target's activation
    within the horizon: anchor + tmax for some enabled run lasting that
    long.  None when nothing is forced."""
    act_u = times[edge.src]
    if act_u is None or edge.tmax == INF:
        return None
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


def _node_violation(g: Tfpg, edges, node: str, t_v: int | None, times,
                    timeline) -> TraceViolation | None:
    """The verdict on one discrepancy: its activation time t_v (None for
    never) against its incoming edges, read through `times`, which maps
    each edge source to its activation time, and the mode timeline of steps
    0..horizon.  `edges` holds g's edges, in g's order, with the bounds to
    decide by.  The one statement of the justification and inevitability
    rules."""
    inc = g.incoming(node)
    if t_v is not None:
        if g.nodes[node] == OR:
            if not any(_justifies(edges[i], times, t_v, timeline) for i in inc):
                return TraceViolation(
                    "or-justification", node,
                    f"activation at {t_v} is not explained by any incoming edge",
                    tuple(inc))
            return None
        bad = tuple(i for i in inc if not _justifies(edges[i], times, t_v, timeline))
        if not inc or bad:
            detail = ("no incoming edges" if not inc else
                      "edges not satisfied: "
                      + "; ".join(edges[i].describe() for i in bad))
            return TraceViolation("and-justification", node,
                                  f"activation at {t_v}: {detail}", bad or tuple(inc))
        return None
    deadlines = {i: _forcing_deadline(edges[i], times, timeline, len(timeline) - 1)
                 for i in inc}
    forced = tuple(i for i in inc if deadlines[i] is not None)
    if g.nodes[node] == OR and forced:
        return TraceViolation(
            "or-inevitability", node, "never activates but forced by step "
            f"{min(deadlines[i] for i in forced)}", forced)
    if g.nodes[node] == AND and inc and len(forced) == len(inc):
        return TraceViolation(
            "and-inevitability", node,
            "never activates but every incoming edge completed its "
            "propagation window", forced)
    return None


def check_trace_consistency(g: Tfpg, at: ActivationTrace) -> tuple[bool, list[TraceViolation]]:
    """Check one activation trace against the propagation semantics.
    Returns (consistent, violations); failure modes are free inputs."""
    _check_trace_shape(g, at)
    times = {n: at.times.get(n) for n in g.nodes}
    verdicts = (_node_violation(g, g.edges, node, times[node], times, at.mode_timeline)
                for node in g.discrepancies())
    violations = [v for v in verdicts if v is not None]
    return not violations, violations


# a memo's mark for a key not decided yet: None is a verdict
_UNSEEN = object()


def _slots(g: Tfpg) -> dict[str, int]:
    """Each node's index in a row: (timeline id, *times in sorted node order)."""
    return {n: k for k, n in enumerate(sorted(g.nodes), 1)}


def _decider(g: Tfpg, edges, timelines: list):
    """decide(row) for the rows `_induced` yields: the violations
    check_trace_consistency reports on the row's activation trace, with
    `edges` for g's edges as in `_node_violation`.  Each
    discrepancy is decided by `_node_violation` once per distinct key
    (timeline id, its time, its sources' times), which is exactly what the
    verdict reads; `timelines` holds each id's timeline."""
    slot = _slots(g)
    checks = []
    for node in g.discrepancies():
        sources = sorted({g.edges[i].src for i in g.incoming(node)})
        checks.append((node, sources, {},
                       itemgetter(0, slot[node], *(slot[s] for s in sources))))

    def decide(row) -> list[TraceViolation]:
        found = []
        for node, sources, memo, key_of in checks:
            key = key_of(row)
            verdict = memo.get(key, _UNSEEN)
            if verdict is _UNSEEN:
                verdict = memo[key] = _node_violation(
                    g, edges, node, key[1], dict(zip(sources, key[2:])), timelines[key[0]])
            if verdict is not None:
                found.append(verdict)
        return found

    return decide


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


def _projection(g: Tfpg, m: SystemModel, nm: NodeMap):
    """project(run) -> (mode timeline, activation times in sorted node
    order), the induced activation trace of a run of state numbers.  What
    depends only on g, m and nm is worked out here once: each state's mode,
    the mapped nodes' condition flags, and an order of the unmapped nodes,
    each after its sources.  Errors are raised by project."""
    mode_bits = m.mask_of(m.mode_atoms)
    modes = ({m.bits[a]: mode for mode, a in nm.mode_map.items() if a in m.bits}
             if m.mode_atoms else {0: g.modes[0]})
    mode_of = [modes.get(x & mode_bits) for x in m.masks]
    order = sorted(g.nodes)
    slot = {n: k for k, n in enumerate(order)}
    mapped = [(slot[n], m.condition(nm.exprs[n])) for n in order if n in nm.exprs]
    pending = [n for n in order if n not in nm.exprs]
    helpers = []
    while pending:
        before = len(pending)
        for node in list(pending):
            sources = sorted({g.edges[i].src for i in g.incoming(node)})
            if not any(s in pending for s in sources):
                # the first source twice, so that even one source gives a
                # tuple; a node without sources keeps its None
                if sources:
                    helpers.append((slot[node], itemgetter(
                        *(slot[s] for s in sources), slot[sources[0]])))
                pending.remove(node)
        if len(pending) == before:
            break

    def project(run) -> tuple[tuple[str, ...], tuple[int | None, ...]]:
        timeline = tuple(map(mode_of.__getitem__, run))
        if None in timeline:
            raise TfpgError(f"a run reaches state {m.ids[run[timeline.index(None)]]!r}, "
                            f"where not exactly one mode atom is true")
        if pending:
            raise TfpgError(f"cyclic unmapped AND nodes: {pending}")
        steps = range(len(run))
        times = [None] * len(order)
        for k, flags in mapped:
            times[k] = next(compress(steps, map(flags.__getitem__, run)), None)
        for k, sources_of in helpers:
            acts = sources_of(times)
            times[k] = None if None in acts else max(acts)
        return timeline, tuple(times)

    return project


def _induced(g: Tfpg, m: SystemModel, nm: NodeMap, horizon: int, timelines: list):
    """(run, row) for every run of horizon + 1 states, in lexicographic
    order, where row is (timeline id, *activation times in sorted node
    order) of the run's induced activation trace and a timeline's id is its
    index in `timelines`, which this appends to.  The map is checked and
    the runs are counted before the first one is projected: more than
    RUN_LIMIT raise."""
    _check_map(g, m, nm)
    # runs ending in each state, layer by layer; a count past the limit
    # reaches the last layer past it or not at all, so it is capped there
    cap = RUN_LIMIT + 1
    ends = [0] * m.size
    for sid in m.initial:
        ends[m.number[sid]] = 1
    for _ in range(horizon):
        step = [0] * m.size
        for i, count in enumerate(ends):
            for j in m.succ[i]:
                step[j] += count
        ends = [min(count, cap) for count in step]
    if sum(ends) > RUN_LIMIT:
        raise SizeGuardExceeded(f"the model has more than {RUN_LIMIT} runs of "
                                f"{horizon + 1} states")
    project = _projection(g, m, nm)
    ids: dict[tuple[str, ...], int] = {}
    for run in m.runs(horizon + 1):
        timeline, times = project(run)
        tid = ids.get(timeline)
        if tid is None:
            tid = ids[timeline] = len(timelines)
            timelines.append(timeline)
        yield run, (tid, *times)


def behavioral_validate(g: Tfpg, m: SystemModel, nm: NodeMap,
                        horizon: int) -> BehavioralResult:
    """The TFPG is complete for the model at this horizon when the induced
    activation trace of every system run is consistent.  The witness is the
    lexicographically least violating run."""
    timelines: list = []
    decide = _decider(g, g.edges, timelines)
    for run, row in _induced(g, m, nm, horizon, timelines):
        found = decide(row)
        if found:
            return BehavioralResult(False, m.trace(run), tuple(found))
    return BehavioralResult(True)


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
    slot = _slots(g)
    # g's edges in g's order, each exercised one shrunk to its observed
    # delays; a delay reads only the timeline and the edge's two activation
    # times, so each distinct triple is anchored once
    edges = list(g.edges)
    exercised = []
    for i, e in enumerate(g.edges):
        delays = set()
        for tid, act_u, act_v in set(map(itemgetter(0, slot[e.src], slot[e.dst]), rows)):
            if act_v is not None:
                a = _anchor(e, act_u, act_v, timelines[tid])
                if a is not None:
                    delays.add(act_v - a)
        exercised.append(bool(delays))
        if delays:
            edges[i] = TfpgEdge(e.src, e.dst, min(delays), max(delays), e.modes)
    decide = _decider(g, edges, timelines)
    # Relaxing an upper bound to infinity only weakens justification and
    # removes forcing, so a trace once consistent stays consistent: one pass
    # that relaxes until the current trace holds checks every trace.
    for row in rows:
        found = decide(row)
        while found:
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
            decide = _decider(g, edges, timelines)
            found = decide(row)
    # observed delays are finite, so an exercised edge ends unbounded only
    # when it was relaxed
    changes = tuple(
        EdgeChange(e.describe(), (e.tmin, e.tmax), (new.tmin, new.tmax),
                   hit, hit and new.tmax == INF)
        for e, new, hit in zip(g.edges, edges, exercised))
    return TightenResult(Tfpg(g.modes, g.nodes, edges), changes)
