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

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .boolexpr import Expr, as_expr
from .errors import ModelFormatError, SizeGuardExceeded, FaultkitError
from .graphs import nodes_on_cycles
from .jsonio import NAME_MAP, NAMES, decode_json, expect, field, read_json
from .model import SystemModel, Trace, Violation

FM = "FM"
OR = "OR"
AND = "AND"
INF = math.inf
# Most candidate traces enumerate_consistent_traces will filter.
ENUMERATION_LIMIT = 2_000_000


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


class Tfpg:
    def __init__(self, modes, nodes, edges):
        self.modes = tuple(sorted(set(modes)))
        self.nodes = dict(nodes)
        self.edges = tuple(sorted(
            edges, key=lambda e: (e.src, e.dst, e.tmin, e.tmax, e.modes)))
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
        decorated = []
        for i, e in enumerate(self.edges):
            lo, hi = bounds.get(i, (e.tmin, e.tmax))
            decorated.append((TfpgEdge(e.src, e.dst, lo, hi, e.modes), i))
        decorated.sort(key=lambda p: (p[0].src, p[0].dst, p[0].tmin,
                                      p[0].tmax, p[0].modes))
        graph = Tfpg(self.modes, self.nodes, [e for e, _ in decorated])
        return graph, [orig for _, orig in decorated]


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
    fms = set(g.fm_nodes())
    for mode in g.modes:
        reach = set(fms)
        changed = True
        while changed:
            changed = False
            for e in g.edges:
                if mode in e.modes and e.src in reach and e.dst not in reach:
                    reach.add(e.dst)
                    changed = True
        possible |= reach
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


def enumerate_consistent_traces(g: Tfpg, horizon: int,
                                fm_inputs="all") -> Iterator[ActivationTrace]:
    """All activation traces consistent with the semantics, exhaustively.

    Equivalent to filtering every (activation vector, mode timeline)
    combination through check_trace_consistency; implemented as a pruned
    depth-first construction with a final filter, so the output set is
    exactly the consistent one.  fm_inputs may be "all" (failure modes
    free) or a {node: time-or-None} dict fixing them.
    """
    nodes = sorted(g.nodes)
    free = len(nodes) if fm_inputs == "all" else len(g.discrepancies())
    naive = (len(g.modes) ** (horizon + 1)) * ((horizon + 2) ** free)
    if naive > ENUMERATION_LIMIT:
        raise SizeGuardExceeded(f"enumeration of ~{naive} candidate traces exceeds "
                                f"the limit {ENUMERATION_LIMIT}")
    fms = g.fm_nodes()
    discs = g.discrepancies()
    if fm_inputs == "all":
        fm_choices = list(itertools.product(*[[None] + list(range(horizon + 1))
                                              for _ in fms]))
    else:
        for node in fms:
            if node not in fm_inputs:
                raise TfpgError(f"failure mode {node!r} missing from fm_inputs")
        fm_choices = [tuple(fm_inputs[node] for node in fms)]
    for timeline in itertools.product(g.modes, repeat=horizon + 1):
        for fm_times in fm_choices:
            base = dict(zip(fms, fm_times))
            yield from _extend_discrepancies(g, horizon, timeline, base, discs)


def _extend_discrepancies(g, horizon, timeline, base, discs):
    """DFS over per-step activation subsets; every complete assignment is
    re-checked, so only genuinely consistent traces are yielded."""

    def rec(step, times):
        if step > horizon:
            at = ActivationTrace(horizon, tuple(timeline), dict(times))
            ok, _ = check_trace_consistency(g, at)
            if ok:
                yield at
            return
        inactive = [d for d in discs if times[d] is None]
        for r in range(len(inactive) + 1):
            for combo in itertools.combinations(inactive, r):
                trial = dict(times)
                for d in combo:
                    trial[d] = step
                if all(_locally_justified(g, d, step, trial, timeline)
                       for d in combo):
                    yield from rec(step + 1, trial)

    initial = {n: None for n in g.nodes}
    initial.update(base)
    yield from rec(0, initial)


def _locally_justified(g, node, t_v, times, timeline) -> bool:
    inc = g.incoming(node)
    if g.nodes[node] == OR:
        return any(_justifies(g.edges[i], times, t_v, timeline) for i in inc)
    return bool(inc) and all(_justifies(g.edges[i], times, t_v, timeline) for i in inc)


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

    def to_json(self):
        return {"nodes": {n: str(e) for n, e in sorted(self.exprs.items())},
                "modes": {m: a for m, a in sorted(self.mode_map.items())}}


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


def induced_activation_trace(g: Tfpg, m: SystemModel, nm: NodeMap,
                             tr: Trace) -> ActivationTrace:
    """Project a system trace onto the TFPG: a mapped node activates at the
    first step its predicate holds; an unmapped AND node activates when its
    last source does; the mode timeline follows the mode atoms, and a trace
    through a state without exactly one mode atom true raises."""
    horizon = len(tr) - 1
    run = [m.number[sid] for sid in tr.steps]
    if m.mode_atoms:
        modes = {m.bits[a]: mode for mode, a in nm.mode_map.items() if a in m.bits}
        mode_bits = m.mask_of(m.mode_atoms)
        timeline = tuple(modes.get(m.masks[i] & mode_bits) for i in run)
        if None in timeline:
            raise TfpgError(f"a run reaches state {tr[timeline.index(None)]!r}, "
                            f"where not exactly one mode atom is true")
    else:
        timeline = tuple(g.modes[0] for _ in tr.steps)
    times: dict[str, int | None] = {}
    for node in sorted(g.nodes):
        if node in nm.exprs:
            flags = m.condition(nm.exprs[node])
            times[node] = next((t for t, i in enumerate(run) if flags[i]), None)
    pending = [n for n in sorted(g.nodes) if n not in times]
    while pending:
        progressed = False
        for node in list(pending):
            sources = [g.edges[i].src for i in g.incoming(node)]
            if any(s in pending for s in sources):
                continue
            acts = [times[s] for s in set(sources)]
            times[node] = max(acts) if acts and all(a is not None for a in acts) else None
            pending.remove(node)
            progressed = True
        if not progressed:
            raise TfpgError(f"cyclic unmapped AND nodes: {pending}")
    return ActivationTrace(horizon, timeline, times)


def behavioral_validate(g: Tfpg, m: SystemModel, nm: NodeMap,
                        horizon: int) -> BehavioralResult:
    """The TFPG is complete for the model at this horizon when the induced
    activation trace of every system run is consistent.  The witness is the
    lexicographically least violating run."""
    _check_map(g, m, nm)
    for tr in m.enumerate_traces(horizon + 1):
        at = induced_activation_trace(g, m, nm, tr)
        ok, violations = check_trace_consistency(g, at)
        if not ok:
            return BehavioralResult(False, tr, tuple(violations))
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
    _check_map(g, m, nm)
    induced = [induced_activation_trace(g, m, nm, tr)
               for tr in m.enumerate_traces(horizon + 1)]
    observed: dict[int, list[int]] = {i: [] for i in range(len(g.edges))}
    for at in induced:
        for i, e in enumerate(g.edges):
            act_u, act_v = at.times.get(e.src), at.times.get(e.dst)
            if act_u is None or act_v is None or act_v < act_u:
                continue
            a = _anchor(e, act_u, act_v, at.mode_timeline)
            if a is not None:
                observed[i].append(act_v - a)
    bounds: dict[int, tuple[int, float]] = {}
    exercised: dict[int, bool] = {}
    for i, e in enumerate(g.edges):
        if observed[i]:
            bounds[i] = (min(observed[i]), max(observed[i]))
            exercised[i] = True
        else:
            bounds[i] = (e.tmin, e.tmax)
            exercised[i] = False
    promoted: set[int] = set()
    while True:
        candidate, index_map = g.replace_bounds_mapped(bounds)
        failure = None
        for at in induced:
            ok, violations = check_trace_consistency(candidate, at)
            if not ok:
                failure = violations
                break
        if failure is None:
            break
        progress = False
        for violation in failure:
            if violation.kind.endswith("inevitability"):
                for i in violation.edge_indices:
                    orig = index_map[i]
                    # only bounds this run introduced may be relaxed; a
                    # violation pinned on untouched edges means the input
                    # was not complete to begin with
                    if exercised[orig] and bounds[orig][1] != INF:
                        bounds[orig] = (bounds[orig][0], INF)
                        promoted.add(orig)
                        progress = True
        if not progress:
            raise TfpgError(
                "input TFPG is not complete at this horizon; tightening "
                "cannot proceed: " + "; ".join(str(v) for v in failure))
    changes = tuple(
        EdgeChange(i, e.describe(), (e.tmin, e.tmax), bounds[i],
                   exercised[i], i in promoted)
        for i, e in enumerate(g.edges))
    return TightenResult(candidate, changes)
