"""Diagnosability checking via twin-plant critical-pair search.

A *critical pair* is a pair of runs with identical observation sequences
that disagree on the monitored condition in the way the delay discipline
cannot tolerate.  The twin plant synchronizes two copies of the model on
observations; each delay kind needs a different bounded memory per side:

* exact(n)  -- no memory: a reachable observation-synchronized pair with
  the condition on one side and not the other, extendable n more
  synchronized steps, defeats any alarm with exact delay n.
* bound(n)  -- side 1 remembers whether the condition held exactly n steps
  ago (a value window); side 2 counts steps since the condition last held,
  saturating above 2n: the pair is critical at time T when side 1 had the
  condition at t = T-n while side 2 was condition-free on the whole
  window [t-n, t+n].
* finite    -- one latched bit per side; the pair is critical when the
  twin plant can cycle forever with side 1's bit set and side 2's unset.

Witnesses are deterministic: the lexicographically least shortest path in
the twin plant, extended by least choices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TraceError
from .fdispec import (AlarmSpec, BoundedDelay, ExactDelay, FiniteDelay, GLOBAL,
                      Once, OnceWithin, PastShift, eval_knowledge,
                      knowledge_counterexample)
from .graphs import find_reachable_cycle, lexleast_shortest_paths, path_to
from .model import SystemModel, Trace


@dataclass(frozen=True)
class CriticalPair:
    """Two observation-equivalent runs; trace1 carries the condition."""

    trace1: Trace
    trace2: Trace
    t: int

    def to_json(self):
        return {"trace1": list(self.trace1.steps), "trace2": list(self.trace2.steps),
                "t": self.t}


@dataclass(frozen=True)
class DiagnosabilityVerdict:
    diagnosable: bool
    pair: CriticalPair | None = None

    def to_json(self):
        doc = {"diagnosable": self.diagnosable}
        if self.pair is not None:
            doc["critical_pair"] = self.pair.to_json()
        return doc


@dataclass(frozen=True)
class TraceDiagnosabilityVerdict:
    diagnosable: bool
    confuser: Trace | None = None

    def to_json(self):
        doc = {"trace_diagnosable": self.diagnosable}
        if self.confuser is not None:
            doc["confuser"] = list(self.confuser.steps)
        return doc


def _initial_pairs(m: SystemModel):
    return sorted((a, b) for a in m.initial for b in m.initial
                  if m.observation(a) == m.observation(b))


def _pair_successors(m: SystemModel, pair):
    s1, s2 = pair
    return sorted((x, y) for x in m.successors(s1) for y in m.successors(s2)
                  if m.observation(x) == m.observation(y))


def check_diagnosability(m: SystemModel, spec: AlarmSpec) -> DiagnosabilityVerdict:
    """Decide system-level diagnosability of one alarm specification."""
    if spec.diag != GLOBAL:
        raise ValueError("use check_trace_diagnosability for trace-local specifications")
    if isinstance(spec.delay, ExactDelay):
        return _check_exact(m, spec)
    if isinstance(spec.delay, BoundedDelay):
        return _check_bounded(m, spec)
    return _check_finite(m, spec)


def _check_exact(m: SystemModel, spec: AlarmSpec) -> DiagnosabilityVerdict:
    n = spec.delay.n
    beta = spec.beta

    def succ(pair):
        return _pair_successors(m, pair)

    parent = lexleast_shortest_paths(_initial_pairs(m), succ)
    reachable = set(parent)
    # extendable[k] = pairs from which k more synchronized steps are possible
    extendable = [set(reachable)]
    for _ in range(n):
        prev = extendable[-1]
        extendable.append({p for p in reachable if any(q in prev for q in succ(p))})
    best = next((p for p in parent if m.holds(beta, p[0]) and not m.holds(beta, p[1])
                 and p in extendable[n]), None)
    if best is None:
        return DiagnosabilityVerdict(True)
    stem = list(path_to(parent, best))
    t = len(stem) - 1
    current = best
    for k in range(n, 0, -1):
        current = min(q for q in succ(current) if q in extendable[k - 1])
        stem.append(current)
    return DiagnosabilityVerdict(False, _pair_from(stem, t))


def _check_bounded(m: SystemModel, spec: AlarmSpec) -> DiagnosabilityVerdict:
    n = spec.delay.n
    beta = spec.beta
    cap = 2 * n + 1

    def init_nodes():
        nodes = []
        for a, b in _initial_pairs(m):
            w1 = (m.holds(beta, a),)
            c2 = 0 if m.holds(beta, b) else cap
            nodes.append((a, b, w1, c2))
        return nodes

    def succ(node):
        s1, s2, w1, c2 = node
        out = []
        for x, y in _pair_successors(m, (s1, s2)):
            nw = (w1 + (m.holds(beta, x),))[-(n + 1):]
            nc = 0 if m.holds(beta, y) else min(c2 + 1, cap)
            out.append((x, y, nw, nc))
        return sorted(out)

    parent = lexleast_shortest_paths(init_nodes(), succ)
    best = next((node for node in parent
                 if len(node[2]) == n + 1 and node[2][0] and node[3] == cap), None)
    if best is None:
        return DiagnosabilityVerdict(True)
    stem = [(x[0], x[1]) for x in path_to(parent, best)]
    t = len(stem) - 1 - n
    return DiagnosabilityVerdict(False, _pair_from(stem, t))


def _check_finite(m: SystemModel, spec: AlarmSpec) -> DiagnosabilityVerdict:
    beta = spec.beta

    def init_nodes():
        return [(a, b, m.holds(beta, a), m.holds(beta, b))
                for a, b in _initial_pairs(m)]

    def succ(node):
        s1, s2, b1, b2 = node
        return sorted((x, y, b1 or m.holds(beta, x), b2 or m.holds(beta, y))
                      for x, y in _pair_successors(m, (s1, s2)))

    parent = lexleast_shortest_paths(init_nodes(), succ)
    confusable = {node for node in parent if node[2] and not node[3]}

    def succ_inside(node):
        return [q for q in succ(node) if q in confusable]

    found = find_reachable_cycle(sorted(confusable), succ_inside)
    if found is None:
        return DiagnosabilityVerdict(True)
    _, loop = found
    entry = loop[0]
    stem = [(x[0], x[1]) for x in path_to(parent, entry)]
    full = stem + [(x[0], x[1]) for x in loop[1:]]
    t = next(i for i, (a, _) in enumerate(full) if m.holds(beta, a))
    return DiagnosabilityVerdict(False, _pair_from(full, t))


def _pair_from(pair_path, t):
    trace1 = Trace(tuple(a for a, _ in pair_path))
    trace2 = Trace(tuple(b for _, b in pair_path))
    return CriticalPair(trace1, trace2, t)


def check_trace_diagnosability(m: SystemModel, spec: AlarmSpec, tr: Trace,
                               t: int) -> TraceDiagnosabilityVerdict:
    """Decide whether this particular run, at this occurrence of the
    condition, conveys enough observational information for a correct alarm
    within the specified delay.

    For exact/bounded delays the run must extend through t+n.  For the
    finite delay the search is bounded by the end of the run: a negative
    verdict means certainty was not reached within this run.
    """
    m.require_trace(tr)
    if not (0 <= t < len(tr)):
        raise IndexError(f"time index {t} out of range")
    if not m.holds(spec.beta, tr[t]):
        raise TraceError(f"condition does not hold at step {t}")
    if isinstance(spec.delay, ExactDelay):
        n = spec.delay.n
        if t + n >= len(tr):
            raise TraceError(f"trace too short: need step {t + n}, have {len(tr) - 1}")
        phi = PastShift(spec.beta, n)
        if eval_knowledge(m, tr, t + n, phi):
            return TraceDiagnosabilityVerdict(True)
        return TraceDiagnosabilityVerdict(False, knowledge_counterexample(m, tr, t + n, phi))
    if isinstance(spec.delay, BoundedDelay):
        n = spec.delay.n
        if t + n >= len(tr):
            raise TraceError(f"trace too short: need step {t + n}, have {len(tr) - 1}")
        phi = OnceWithin(spec.beta, n)
        for u in range(t, t + n + 1):
            if eval_knowledge(m, tr, u, phi):
                return TraceDiagnosabilityVerdict(True)
        return TraceDiagnosabilityVerdict(False, knowledge_counterexample(m, tr, t + n, phi))
    phi = Once(spec.beta)
    for u in range(t, len(tr)):
        if eval_knowledge(m, tr, u, phi):
            return TraceDiagnosabilityVerdict(True)
    return TraceDiagnosabilityVerdict(False, knowledge_counterexample(m, tr, len(tr) - 1, phi))
