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
from dataclasses import dataclass

from .boolexpr import Expr, as_expr
from .errors import ModelFormatError, SizeGuardExceeded, FaultkitError
from .graphs import lexleast_shortest_paths, nodes_on_cycles
from .jsonio import NAME_MAP, NAMES, decode_json, expect, field, read_json
from .model import SystemModel, Trace, Violation

FM = "FM"
OR = "OR"
AND = "AND"
INF = math.inf
# Most runs of horizon + 1 states a behavioural check or tightening projects.
RUN_LIMIT = 1_000_000


class TfpgError(FaultkitError):
    pass


@dataclass(frozen=True)
class TfpgEdge:
    src: str
    dst: str
    tmin: int
    tmax: float  # int, or math.inf
    modes: tuple[str, ...]

    def describe(self) -> str:
        hi = "inf" if self.tmax == INF else str(int(self.tmax))
        return f"{self.src} -> {self.dst} [{self.tmin},{hi}] {{{','.join(self.modes)}}}"


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

    def replace_bounds_mapped(self, bounds: dict[int, tuple[int, float]]
                              ) -> tuple["Tfpg", list[int]]:
        """New graph with per-edge-index delay intervals swapped in, and,
        per edge index of the new graph, the index of the originating edge
        (canonical edge order can shuffle parallel edges when their
        intervals change)."""
        edges = [TfpgEdge(e.src, e.dst, *bounds.get(i, (e.tmin, e.tmax)), e.modes)
                 for i, e in enumerate(self.edges)]
        order = sorted(range(len(edges)), key=lambda i: _edge_key(edges[i]))
        return Tfpg(self.modes, self.nodes, [edges[i] for i in order]), order


@dataclass
class ActivationTrace:
    """Mode timeline over steps 0..horizon plus one activation time (or
    None = never) per node."""

    horizon: int
    mode_timeline: tuple[str, ...]
    times: dict[str, int | None]

    def to_json(self):
        return {"horizon": self.horizon,
                "mode_timeline": list(self.mode_timeline),
                "activations": {n: self.times.get(n) for n in sorted(self.times)}}


@dataclass(frozen=True)
class TraceViolation:
    kind: str  # or/and-justification, or/and-inevitability
    node: str
    detail: str
    edge_indices: tuple[int, ...] = ()

    def __str__(self):
        return f"{self.kind}: {self.node}: {self.detail}"


# -- parsing -----------------------------------------------------------------

def parse_tfpg(text: str) -> Tfpg:
    return _tfpg_from(decode_json(text))


def load_tfpg(path) -> Tfpg:
    return _tfpg_from(read_json(path))


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
                   "tmax": "inf" if e.tmax == INF else int(e.tmax),
                   "modes": list(e.modes)}
                  for e in g.edges],
    }


def activation_trace_from_json(doc, g: Tfpg) -> ActivationTrace:
    where = "activation trace"
    expect(doc, dict, where)
    horizon = field(doc, "horizon", int, where)
    timeline = tuple(field(doc, "mode_timeline", NAMES, where))
    times = {n: None for n in g.nodes}
    for node, t in field(doc, "activations", dict, where, {}).items():
        if node not in g.nodes:
            raise ModelFormatError(f"activation for unknown node {node!r}")
        times[node] = expect(t, (int, type(None)), f"activation of {node!r}")
    return ActivationTrace(horizon, timeline, times)


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
        hi = "inf" if e.tmax == INF else str(int(e.tmax))
        label = f"[{e.tmin},{hi}] {','.join(e.modes)}"
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

def _check_trace_shape(g: Tfpg, at: ActivationTrace) -> None:
    if at.horizon < 0:
        raise TfpgError("horizon must be nonnegative")
    if len(at.mode_timeline) != at.horizon + 1:
        raise TfpgError(
            f"mode timeline must have {at.horizon + 1} entries, has {len(at.mode_timeline)}")
    for mode in at.mode_timeline:
        if mode not in g.modes:
            raise TfpgError(f"undeclared mode {mode!r} in timeline")
    for node, t in at.times.items():
        if node not in g.nodes:
            raise TfpgError(f"activation for unknown node {node!r}")
        if t is not None and not (0 <= t <= at.horizon):
            raise TfpgError(f"activation of {node!r} at {t} outside [0,{at.horizon}]")


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


def check_trace_consistency(g: Tfpg, at: ActivationTrace) -> tuple[bool, list[TraceViolation]]:
    """Check one activation trace against the propagation semantics.
    Returns (consistent, violations); failure modes are free inputs."""
    _check_trace_shape(g, at)
    times = {n: at.times.get(n) for n in g.nodes}
    violations: list[TraceViolation] = []
    for node in g.discrepancies():
        kind = g.nodes[node]
        t_v = times[node]
        inc = g.incoming(node)
        if t_v is not None:
            if kind == OR:
                if not any(_justifies(g.edges[i], times, t_v, at.mode_timeline)
                           for i in inc):
                    violations.append(TraceViolation(
                        "or-justification", node,
                        f"activation at {t_v} is not explained by any incoming edge",
                        tuple(inc)))
            else:
                bad = tuple(i for i in inc
                            if not _justifies(g.edges[i], times, t_v, at.mode_timeline))
                if not inc or bad:
                    detail = ("no incoming edges" if not inc else
                              "edges not satisfied: "
                              + "; ".join(g.edges[i].describe() for i in bad))
                    violations.append(TraceViolation(
                        "and-justification", node,
                        f"activation at {t_v}: {detail}", bad or tuple(inc)))
        else:
            deadlines = {i: _forcing_deadline(g.edges[i], times, at.mode_timeline,
                                              at.horizon) for i in inc}
            forced = tuple(i for i in inc if deadlines[i] is not None)
            if kind == OR and forced:
                violations.append(TraceViolation(
                    "or-inevitability", node, "never activates but forced by step "
                    f"{min(deadlines[i] for i in forced)}", forced))
            elif kind == AND and inc and len(forced) == len(inc):
                violations.append(TraceViolation(
                    "and-inevitability", node,
                    "never activates but every incoming edge completed its "
                    "propagation window", forced))
    return not violations, violations


# -- behavioral validation against a system model -------------------------------

@dataclass
class NodeMap:
    """Binding of TFPG nodes to state predicates and TFPG modes to mode
    atoms.  AND nodes may be left unmapped: they then activate structurally
    when their last source activates (synthesized helper nodes)."""

    exprs: dict[str, Expr]
    mode_map: dict[str, str]

    @staticmethod
    def from_json(doc) -> "NodeMap":
        expect(doc, dict, "node map")
        exprs = field(doc, "nodes", NAME_MAP, "node map")
        return NodeMap({n: as_expr(e) for n, e in exprs.items()},
                       dict(field(doc, "modes", NAME_MAP, "node map", {})))


def load_node_map(path) -> NodeMap:
    return NodeMap.from_json(read_json(path))


@dataclass
class BehavioralResult:
    complete: bool
    witness: Trace | None = None
    violations: tuple[TraceViolation, ...] = ()

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
    """project(run), which is induced_activation_trace on a run of state
    numbers.  What depends only on g, m and nm is worked out here once: each
    state's mode, the mapped nodes' condition flags, and an order of the
    unmapped nodes, each after its sources.  Errors are raised by project."""
    mode_bits = m.mask_of(m.mode_atoms)
    modes = ({m.bits[a]: mode for mode, a in nm.mode_map.items() if a in m.bits}
             if m.mode_atoms else {0: g.modes[0]})
    mode_of = [modes.get(x & mode_bits) for x in m.masks]
    mapped = [(n, m.condition(nm.exprs[n])) for n in sorted(g.nodes) if n in nm.exprs]
    pending = [n for n in sorted(g.nodes) if n not in nm.exprs]
    helpers = []
    while pending:
        before = len(pending)
        for node in list(pending):
            sources = sorted({g.edges[i].src for i in g.incoming(node)})
            if not any(s in pending for s in sources):
                helpers.append((node, sources))
                pending.remove(node)
        if len(pending) == before:
            break

    def project(run) -> ActivationTrace:
        timeline = tuple(mode_of[i] for i in run)
        if None in timeline:
            raise TfpgError(f"a run reaches state {m.ids[run[timeline.index(None)]]!r}, "
                            f"where not exactly one mode atom is true")
        if pending:
            raise TfpgError(f"cyclic unmapped AND nodes: {pending}")
        times = {n: next((t for t, i in enumerate(run) if flags[i]), None)
                 for n, flags in mapped}
        for node, sources in helpers:
            acts = [times[s] for s in sources]
            times[node] = max(acts) if acts and None not in acts else None
        return ActivationTrace(len(run) - 1, timeline, times)

    return project


def induced_activation_trace(g: Tfpg, m: SystemModel, nm: NodeMap,
                             tr: Trace) -> ActivationTrace:
    """Project a system trace onto the TFPG: a mapped node activates at the
    first step its predicate holds; an unmapped AND node activates when its
    last source does; the mode timeline follows the mode atoms, and a trace
    through a state without exactly one mode atom true raises."""
    return _projection(g, m, nm)(tuple(m.number[sid] for sid in tr.steps))


def _induced(g: Tfpg, m: SystemModel, nm: NodeMap, horizon: int):
    """(run, induced activation trace) for every run of horizon + 1 states,
    in lexicographic order.  The map is checked and the runs are counted
    before the first one is projected: more than RUN_LIMIT raise."""
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
    for run in m.runs(horizon + 1):
        yield run, project(run)


def behavioral_validate(g: Tfpg, m: SystemModel, nm: NodeMap,
                        horizon: int) -> BehavioralResult:
    """The TFPG is complete for the model at this horizon when the induced
    activation trace of every system run is consistent.  The witness is the
    lexicographically least violating run."""
    for run, at in _induced(g, m, nm, horizon):
        ok, violations = check_trace_consistency(g, at)
        if not ok:
            return BehavioralResult(False, m.trace(run), tuple(violations))
    return BehavioralResult(True)


# -- edge tightening -------------------------------------------------------------

@dataclass(frozen=True)
class EdgeChange:
    edge_index: int
    description: str
    old: tuple[int, float]
    new: tuple[int, float]
    exercised: bool
    promoted: bool

    def to_json(self):
        def fmt(pair):
            lo, hi = pair
            return [lo, "inf" if hi == INF else int(hi)]
        return {"edge": self.description, "old": fmt(self.old), "new": fmt(self.new),
                "exercised": self.exercised, "promoted": self.promoted}


@dataclass
class TightenResult:
    tfpg: Tfpg
    changes: tuple[EdgeChange, ...]

    @property
    def never_exercised(self) -> tuple[str, ...]:
        return tuple(c.description for c in self.changes if not c.exercised)


def tighten_edges(g: Tfpg, m: SystemModel, nm: NodeMap,
                  horizon: int) -> TightenResult:
    """Shrink every exercised edge's interval to the observed activation
    delays, then relax upper bounds back to infinity wherever a bounded
    window would force propagations the model does not guarantee.  The
    result is re-validated; tightening never breaks completeness and is
    idempotent at a fixed horizon."""
    induced = [at for _, at in _induced(g, m, nm, horizon)]
    observed: dict[int, list[int]] = {i: [] for i in range(len(g.edges))}
    for at in induced:
        for i, e in enumerate(g.edges):
            act_v = at.times.get(e.dst)
            if act_v is None:
                continue
            a = _anchor(e, at.times.get(e.src), act_v, at.mode_timeline)
            if a is not None:
                observed[i].append(act_v - a)
    exercised = {i: bool(delays) for i, delays in observed.items()}
    bounds = {i: (min(observed[i]), max(observed[i])) if exercised[i] else (e.tmin, e.tmax)
              for i, e in enumerate(g.edges)}
    promoted: set[int] = set()
    candidate, index_map = g.replace_bounds_mapped(bounds)
    # Relaxing an upper bound to infinity only weakens justification and
    # removes forcing, so a trace once consistent stays consistent: one pass
    # that relaxes until the current trace holds checks every trace.
    for at in induced:
        ok, violations = check_trace_consistency(candidate, at)
        while not ok:
            # only bounds this run introduced may be relaxed; a violation
            # pinned on untouched edges means the input was not complete
            # to begin with
            relaxed = {index_map[i] for v in violations
                       if v.kind.endswith("inevitability") for i in v.edge_indices}
            relaxed = {i for i in relaxed if exercised[i] and bounds[i][1] != INF}
            if not relaxed:
                raise TfpgError(
                    "input TFPG is not complete at this horizon; tightening "
                    "cannot proceed: " + "; ".join(str(v) for v in violations))
            for i in relaxed:
                bounds[i] = (bounds[i][0], INF)
            promoted |= relaxed
            candidate, index_map = g.replace_bounds_mapped(bounds)
            ok, violations = check_trace_consistency(candidate, at)
    changes = tuple(
        EdgeChange(i, e.describe(), (e.tmin, e.tmax), bounds[i],
                   exercised[i], i in promoted)
        for i, e in enumerate(g.edges))
    return TightenResult(candidate, changes)
