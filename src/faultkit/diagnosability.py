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

The search runs over ints (:class:`faultkit.model.StateIndex`).  A node is
a state pair ``a * size + b``, scaled up to make room for the memory of
its delay kind, and a pair's successors are the products of the two
states' successors within each observation class they share.  The witness
order rests on numbering the states in sorted-id order: nodes then sort
as their (state id, state id, memory) tuples do, so the least path over
ints is the least path over ids.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TraceError
from .fdispec import (AlarmSpec, BoundedDelay, ExactDelay, FiniteDelay, GLOBAL,
                      chain_counterexample, knowledge_chain, past_formula)
# Not called here, but the benchmark's spans (perfbench/probes.py) wrap
# them under this module.
from .fdispec import eval_knowledge, knowledge_counterexample  # noqa: F401
from .graphs import lasso, lexleast_shortest_paths, path_to
from .model import StateIndex, SystemModel, Trace


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


def check_diagnosability(m: SystemModel, spec: AlarmSpec) -> DiagnosabilityVerdict:
    """Decide system-level diagnosability of one alarm specification."""
    if spec.diag != GLOBAL:
        raise ValueError("use check_trace_diagnosability for trace-local specifications")
    if isinstance(spec.delay, ExactDelay):
        return _check_exact(m, spec)
    if isinstance(spec.delay, BoundedDelay):
        return _check_bounded(m, spec)
    return _check_finite(m, spec)


def _nodes(ix: StateIndex, moves1: dict, moves2: dict, flags, scale: int,
           memory1, memory2) -> list[int]:
    """The twin-plant nodes ``(x * size + y) * scale + memory1[flags[x]] +
    memory2[flags[y]]`` for x in moves1[c] and y in moves2[c], over the
    observation classes c of both: a synchronised state pair, plus what each
    side remembers, which depends on whether the condition holds in its new
    state."""
    row = ix.size * scale
    out: list[int] = []
    for c, xs in moves1.items():
        ys = moves2.get(c)
        if ys:
            ends = [y * scale + memory2[flags[y]] for y in ys]
            for x in xs:
                start = x * row + memory1[flags[x]]
                out += [start + end for end in ends]
    return out


def _check_exact(m: SystemModel, spec: AlarmSpec) -> DiagnosabilityVerdict:
    n = spec.delay.n
    ix = m.index
    flags = ix.condition(spec.beta)
    size = ix.size
    moves = ix.succ_by_class
    start = ix.initial_by_class
    # A node is a pair; nothing is remembered.
    none = (0, 0)

    def succ(pair):
        a, b = divmod(pair, size)
        return _nodes(ix, moves[a], moves[b], flags, 1, none, none)

    parent = lexleast_shortest_paths(_nodes(ix, start, start, flags, 1, none, none), succ)
    extends = _walk_exists(succ)
    best = next((p for p in parent if flags[p // size] and not flags[p % size]
                 and extends(p, n)), None)
    if best is None:
        return DiagnosabilityVerdict(True)
    stem = list(path_to(parent, best))
    t = len(stem) - 1
    current = best
    for k in range(n, 0, -1):
        current = next(q for q in sorted(succ(current)) if extends(q, k - 1))
        stem.append(current)
    return DiagnosabilityVerdict(False, _pair_from(ix, stem, 1, t))


def _walk_exists(successors):
    """extends(node, k): whether some walk of k steps leaves `node`.

    Depth-first and iterative, so k may exceed the recursion limit.  Results
    are kept across calls: proven[q] is the longest walk proven to leave q,
    refuted[q] the shortest proven not to.  Meeting a node on the current
    path closes a cycle, from which every walk length is possible.
    """
    proven: dict = {}
    refuted: dict = {}

    def known(node, k):
        if k <= proven.get(node, 0):
            return True
        if k >= refuted.get(node, k + 1):
            return False
        return None

    def extends(node, k):
        found = known(node, k)
        if found is not None:
            return found
        frames = [(node, k, iter(successors(node)))]
        on_path = {node}
        found = False  # the answer of the frame closed last
        while frames:
            q, j, rest = frames[-1]
            if not found:
                for nxt in rest:
                    found = True if nxt in on_path else known(nxt, j - 1)
                    if found is not False:
                        break
                if found is None:
                    frames.append((nxt, j - 1, iter(successors(nxt))))
                    on_path.add(nxt)
                    found = False
                    continue
            frames.pop()
            on_path.discard(q)
            if found:
                proven[q] = max(proven.get(q, 0), j)
            else:
                refuted[q] = min(refuted.get(q, j), j)
        return found

    return extends


def _check_bounded(m: SystemModel, spec: AlarmSpec) -> DiagnosabilityVerdict:
    n = spec.delay.n
    ix = m.index
    flags = ix.condition(spec.beta)
    size = ix.size
    moves = ix.succ_by_class
    start = ix.initial_by_class
    cap = 2 * n + 1
    # A node is (pair * windows + window) * counts + count.  The window holds
    # side 1's last (at most n + 1) condition values as bits, oldest highest,
    # below a leading 1 that marks its length; windows of one length, the
    # only ones ever compared, sort like the tuples of values.  The count is
    # side 2's steps since the condition last held, saturating at cap.
    full = 1 << (n + 1)
    windows = 2 * full
    counts = cap + 1
    scale = windows * counts

    def shifted(window, value):
        window = 2 * window + value
        return window if window < windows else window % full + full

    def succ(node):
        pair, memory = divmod(node, scale)
        window, count = divmod(memory, counts)
        a, b = divmod(pair, size)
        return _nodes(ix, moves[a], moves[b], flags, scale,
                      (shifted(window, 0) * counts, shifted(window, 1) * counts),
                      (min(count + 1, cap), 0))

    roots = _nodes(ix, start, start, flags, scale, (2 * counts, 3 * counts), (cap, 0))
    parent = lexleast_shortest_paths(roots, succ)
    # a full window whose oldest value is set, and a saturated count
    best = next((node for node in parent
                 if node % scale // counts >> n == 3 and node % counts == cap), None)
    if best is None:
        return DiagnosabilityVerdict(True)
    stem = path_to(parent, best)
    return DiagnosabilityVerdict(False, _pair_from(ix, stem, scale, len(stem) - 1 - n))


def _check_finite(m: SystemModel, spec: AlarmSpec) -> DiagnosabilityVerdict:
    ix = m.index
    flags = ix.condition(spec.beta)
    size = ix.size
    moves = ix.succ_by_class
    start = ix.initial_by_class
    # A node is pair * 4 + 2 * latch1 + latch2: whether the condition has
    # held on each side.

    def succ(node):
        pair, latches = divmod(node, 4)
        a, b = divmod(pair, size)
        return _nodes(ix, moves[a], moves[b], flags, 4,
                      (2, 2) if latches & 2 else (0, 2), (1, 1) if latches & 1 else (0, 1))

    parent = lexleast_shortest_paths(_nodes(ix, start, start, flags, 4, (0, 2), (0, 1)), succ)
    found = lasso(parent, {node for node in parent if node & 3 == 2}, succ)
    if found is None:
        return DiagnosabilityVerdict(True)
    full, _ = found
    t = next(i for i, node in enumerate(full) if flags[node // 4 // size])
    return DiagnosabilityVerdict(False, _pair_from(ix, full, 4, t))


def _pair_from(ix: StateIndex, nodes, scale: int, t: int) -> CriticalPair:
    """The critical pair along twin-plant nodes of the given scale."""
    pairs = [divmod(node // scale, ix.size) for node in nodes]
    trace1 = Trace(tuple(ix.ids[a] for a, _ in pairs))
    trace2 = Trace(tuple(ix.ids[b] for _, b in pairs))
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
        raise TraceError(f"time index {t} out of range for trace of length {len(tr)}")
    if not m.holds(spec.beta, tr[t]):
        raise TraceError(f"condition does not hold at step {t}")
    end = len(tr) - 1 if isinstance(spec.delay, FiniteDelay) else t + spec.delay.n
    if end >= len(tr):
        raise TraceError(f"trace too short: need step {end}, have {len(tr) - 1}")
    # certainty is needed at t + n for exact(n), within [t, t + n] for
    # bound(n), and from t to the end of the run for finite
    first = end if isinstance(spec.delay, ExactDelay) else t
    beliefs, chain = knowledge_chain(m, tr, end, past_formula(spec.delay, spec.beta))
    if any(map(beliefs.certain, chain[first:])):
        return TraceDiagnosabilityVerdict(True)
    return TraceDiagnosabilityVerdict(False, chain_counterexample(beliefs, chain))
