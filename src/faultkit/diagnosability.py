"""Diagnosability checking via twin-plant critical-pair search.

A *critical pair* is a pair of runs with identical observation sequences
that disagree on the monitored condition in the way the delay discipline
cannot tolerate.  The twin plant synchronizes two copies of the model on
observations.  Each side carries the memory of a past formula over the
condition (:func:`faultkit.fdispec.memory_automaton`), and a node is
critical when side 1's formula holds and side 2's does not:

* exact(n)  -- Y^0 beta, the condition now, on both sides: a reachable
  critical node from which the twin plant can go on n more steps defeats
  any alarm with exact delay n.
* bound(n)  -- Y^n beta against O<=2n beta: at time T side 1 had the
  condition at t = T-n while side 2 was condition-free on the whole window
  [t-n, t+n].
* finite    -- O beta against O beta: the twin plant can cycle forever
  through critical nodes.

Witnesses are deterministic: the lexicographically least shortest path in
the twin plant, extended by least choices.

The search runs first on the model's coarsest bisimulation quotient that
respects the observation, the condition and initial membership, when that
has at most half as many blocks as the model has states.  Bisimilar states
have the same (observation, condition) sequences, finite and infinite, so
the quotient has a critical pair exactly when the model has one, under all
three delay kinds (Cimatti, Pecheur & Cavada, IJCAI 2003).  A diagnosable
quotient settles the verdict; otherwise the search runs on the model
itself, so every critical pair, and its least-path guarantee, comes from
the concrete twin plant.

The search runs over the model's ints (:mod:`faultkit.model`).  A node is
``(pair * X1 + memory1) * X2 + memory2``: a state pair ``a * size + b``,
then each side's memory, numbered as the search reaches it below the bound
X of its delay kind.  A pair's successors are the products of the two
states' successors within each observation class they share.  The witness
order rests on numbering the states in sorted-id order: a memory is a
function of its side's state sequence, and the pair is the most
significant part of a node, so paths compare as their sequences of
state-id pairs do, whatever numbers the memories get.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TraceError
from .fdispec import (AlarmSpec, BoundedDelay, Delay, ExactDelay, FiniteDelay, GLOBAL,
                      chain_counterexample, knowledge_chain, memory_automaton)
# Not called here, but the benchmark's spans (perfbench/probes.py) wrap
# them under this module.
from .fdispec import eval_knowledge, knowledge_counterexample  # noqa: F401
from .graphs import lasso, lexleast_shortest_paths, path_to
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


def check_diagnosability(m: SystemModel, spec: AlarmSpec) -> DiagnosabilityVerdict:
    """Decide system-level diagnosability of one alarm specification."""
    if spec.diag != GLOBAL:
        raise ValueError("use check_trace_diagnosability for trace-local specifications")
    quotient = _quotient(m, spec.beta)
    if quotient is not None and _search(quotient, spec).diagnosable:
        return DiagnosabilityVerdict(True)
    return _search(m, spec)


def _quotient(m: SystemModel, beta) -> SystemModel | None:
    """m's coarsest bisimulation quotient that respects the observation, the
    condition and initial membership, or None when it has more blocks than
    half the states.  A block is represented by its least state, so the
    blocks number in sorted-id order too."""
    block = _bisimulation(m, beta, m.size // 2)
    if block is None:
        return None
    first: dict[int, int] = {}
    for i, b in enumerate(block):
        first.setdefault(b, i)
    ids = [m.ids[i] for i in first.values()]
    return SystemModel(m.atoms, m.fault_atoms, m.observable_atoms, m.mode_atoms,
                       {sid: m.states[sid] for sid in ids},
                       {ids[block[m.number[sid]]] for sid in m.initial},
                       {sid: b for b, sid in enumerate(ids)},
                       [sorted({block[j] for j in m.succ[i]}) for i in first.values()])


def _bisimulation(m: SystemModel, beta, limit: int) -> list[int] | None:
    """Each state's block in the coarsest partition that respects the
    observation, the condition and initial membership, and in which states
    of a block have successors in the same blocks; None as soon as a round
    has more than `limit` blocks.  Blocks are numbered by their least
    states.

    Each round keys a state by its block and its successors' blocks.  A
    round only splits blocks, so it is stable once the count stops growing.
    """
    flags = m.condition(beta)
    initial = {m.number[sid] for sid in m.initial}
    keys: list = [(c, flags[i], i in initial) for i, c in enumerate(m.obs_class)]
    count = 0
    while True:
        blocks: dict = {}
        block = [blocks.setdefault(key, len(blocks)) for key in keys]
        if len(blocks) > limit:
            return None
        if len(blocks) == count:
            return block
        count = len(blocks)
        keys = [(block[i], frozenset([block[j] for j in nxts]))
                for i, nxts in enumerate(m.succ)]


def _search(m: SystemModel, spec: AlarmSpec) -> DiagnosabilityVerdict:
    """The verdict of the twin-plant search on m, with its critical pair."""
    delay = spec.delay
    if isinstance(delay, ExactDelay):
        sides = ExactDelay(0), ExactDelay(0)
    elif isinstance(delay, BoundedDelay):
        sides = ExactDelay(delay.n), BoundedDelay(2 * delay.n)
    else:
        sides = delay, delay
    roots, succ, critical_memories, scale = _twin_plant(m, spec.beta, *sides)
    parent = lexleast_shortest_paths(roots, succ)
    critical = critical_memories()
    if isinstance(delay, FiniteDelay):
        found = lasso(parent, {node for node in parent if node % scale in critical}, succ)
        if found is None:
            return DiagnosabilityVerdict(True)
        run, _ = found
        # both memories are latches: the run turns critical where side 1's
        # condition first holds
        t = next(i for i, node in enumerate(run) if node % scale in critical)
        return DiagnosabilityVerdict(False, _pair_from(m, run, scale, t))
    if isinstance(delay, BoundedDelay):
        best = next((node for node in parent if node % scale in critical), None)
        if best is None:
            return DiagnosabilityVerdict(True)
        stem = path_to(parent, best)
        return DiagnosabilityVerdict(False, _pair_from(m, stem, scale, len(stem) - 1 - delay.n))
    n = delay.n
    extends = _walk_exists(succ)
    best = next((node for node in parent if node % scale in critical and extends(node, n)), None)
    if best is None:
        return DiagnosabilityVerdict(True)
    stem = list(path_to(parent, best))
    t = len(stem) - 1
    current = best
    for k in range(n, 0, -1):
        current = next(q for q in sorted(succ(current)) if extends(q, k - 1))
        stem.append(current)
    return DiagnosabilityVerdict(False, _pair_from(m, stem, scale, t))


def _twin_plant(m: SystemModel, beta, delay1: Delay, delay2: Delay):
    """The twin plant whose side i carries the memory of delay i over the
    condition: (roots, successors, critical_memories, scale).  A node's
    pair is node // scale and its memories node % scale; critical_memories()
    gives the memories, of those the search has reached, in which side 1's
    past formula holds and side 2's fails."""
    flags = m.condition(beta)
    X1, start1, row1, sat1 = memory_automaton(delay1, range(2))
    X2, start2, row2, sat2 = memory_automaton(delay2, range(2))
    size, moves, scale = m.size, m.succ_by_class, X1 * X2
    width = size * scale

    # steps[memory]: side 1's memory number times X2, then side 2's, after a
    # step into a state whose condition flag is the index; once per memory
    steps: dict[int, tuple[list[int], list[int]]] = {}

    def succ(node: int) -> list[int]:
        # the nodes for x and y successors of the pair's states in one
        # observation class
        pair, memory = divmod(node, scale)
        after = steps.get(memory)
        if after is None:
            memory1, memory2 = divmod(memory, X2)
            after = steps[memory] = ([k * X2 for k in row1(memory1)], row2(memory2))
        after1, after2 = after
        a, b = divmod(pair, size)
        moves2 = moves[b]
        out: list[int] = []
        for c, xs in moves[a].items():
            ys = moves2.get(c)
            if ys:
                ends = [y * scale + after2[flags[y]] for y in ys]
                for x in xs:
                    begin = x * width + after1[flags[x]]
                    out += [begin + end for end in ends]
        return out

    def critical_memories() -> set[int]:
        return {k1 * X2 + k2 for k1, holds1 in enumerate(sat1) if holds1
                for k2, holds2 in enumerate(sat2) if not holds2}

    first1 = [start1(0) * X2, start1(1) * X2]
    first2 = [start2(0), start2(1)]
    roots = [x * width + first1[flags[x]] + y * scale + first2[flags[y]]
             for xs in m.initial_by_class.values() for x in xs for y in xs]
    return roots, succ, critical_memories, scale


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


def _pair_from(m: SystemModel, nodes, scale: int, t: int) -> CriticalPair:
    """The critical pair along twin-plant nodes of the given scale."""
    pairs = [divmod(node // scale, m.size) for node in nodes]
    return CriticalPair(m.trace(a for a, _ in pairs), m.trace(b for _, b in pairs), t)


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
    beliefs, chain = knowledge_chain(m, tr, end, spec.delay, spec.beta)
    if any(map(beliefs.certain, chain[first:])):
        return TraceDiagnosabilityVerdict(True)
    return TraceDiagnosabilityVerdict(False, chain_counterexample(beliefs, chain))
