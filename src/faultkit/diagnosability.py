"""Diagnosability checking via twin-plant critical-pair search.

A *critical pair* is a pair of runs with identical observation sequences
that disagree on the monitored condition in the way the delay discipline
cannot tolerate.  The twin plant synchronizes two copies of the model on
observations.  Each side carries the memory of a past formula over the
condition (:func:`faultkit.fdispec.delay_memory`), and a node is
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

The search claims only nodes that can change the verdict.  Under exact
and bounded delays it stops at the first critical node it claims (for
exact(n), the first from which the twin plant can go on n more steps):
that node ends the witness, and every node claimed before it keeps its
parent.  Under the finite delay, side 2 keeps to states where the
condition fails.  Side 2's latch never clears, so a node where side 2 has
met the condition reaches no critical node.  The nodes kept are closed
under predecessors, so each keeps its parent and its place in the claim
order, and the cycle search, which stays among critical nodes, finds the
same lasso.

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
then each side's memory, an int below the bound X of its delay kind.  A
pair's successors are the products of the two states' successors within
each observation class they share.  The witness order rests on numbering
the states in sorted-id order: a memory is a function of its side's state
sequence, and the pair is the most significant part of a node, so paths
compare as their sequences of state-id pairs do, whatever the memories
are.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TraceError
from .fdispec import (AlarmSpec, BoundedDelay, Delay, ExactDelay, FiniteDelay, GLOBAL,
                      chain_counterexample, delay_memory, knowledge_chain)
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
    if quotient is not None and _search(quotient, spec) is None:
        return DiagnosabilityVerdict(True)
    found = _search(m, spec)
    if found is None:
        return DiagnosabilityVerdict(True)
    nodes, scale, t = found
    pairs = [divmod(node // scale, m.size) for node in nodes]
    return DiagnosabilityVerdict(
        False, CriticalPair(m.trace(a for a, _ in pairs), m.trace(b for _, b in pairs), t))


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


def _search(m: SystemModel, spec: AlarmSpec) -> tuple | None:
    """The twin-plant search on m: None when the alarm is diagnosable, else
    the twin-plant nodes of a critical pair, their scale (a node's state
    pair is node // scale) and the pair's time of the condition."""
    delay, beta = spec.delay, spec.beta
    if isinstance(delay, FiniteDelay):
        roots, succ, critical, scale = _twin_plant(m, beta, delay, delay)
        parent = lexleast_shortest_paths(roots, succ)
        found = lasso(parent, sorted(filter(critical, parent)), succ)
        if found is None:
            return None
        run, _ = found
        # both memories are latches: the run turns critical where side 1's
        # condition first holds
        t = next(i for i, node in enumerate(run) if critical(node))
        return run, scale, t
    if isinstance(delay, BoundedDelay):
        roots, succ, goal, scale = _twin_plant(m, beta, ExactDelay(delay.n),
                                               BoundedDelay(2 * delay.n))
    else:
        roots, succ, critical, scale = _twin_plant(m, beta, ExactDelay(0), ExactDelay(0))
        longest = _longest_walk(succ, delay.n)

        def goal(node):
            return critical(node) and longest(node) == delay.n

    # the search stops at the least goal node, the last one it claims
    parent = lexleast_shortest_paths(roots, succ, goal=goal)
    best = next(reversed(parent), None)
    if best is None or not goal(best):
        return None
    stem = list(path_to(parent, best))
    if isinstance(delay, ExactDelay):
        current = best
        for k in range(delay.n, 0, -1):
            current = next(q for q in sorted(succ(current)) if longest(q) >= k - 1)
            stem.append(current)
    return stem, scale, len(stem) - 1 - delay.n


def _twin_plant(m: SystemModel, beta, delay1: Delay, delay2: Delay):
    """The twin plant whose side i carries the memory of delay i over the
    condition: (roots, successors, critical, scale).  A node's pair is
    node // scale and its memories node % scale; critical(node) tells
    whether side 1's past formula holds there and side 2's fails.

    Under the finite delay side 2's memory is a latch that the condition
    sets, after which no node is critical, so side 2 keeps to states where
    the condition fails."""
    flags = m.condition(beta)
    X1, first1, step1, holds1 = delay_memory(delay1)
    X2, first2, step2, holds2 = delay_memory(delay2)
    size, moves, scale = m.size, m.succ_by_class, X1 * X2
    width = size * scale
    by_class2, initial2 = moves, m.initial_by_class
    if isinstance(delay2, FiniteDelay):
        by_class2 = [_clear(groups, flags) for groups in moves]
        initial2 = _clear(initial2, flags)

    # steps[memory]: side 1's memory times X2, then side 2's, after a step
    # into a state whose condition flag is the index; once per memory
    steps: dict[int, tuple[list[int], list[int]]] = {}

    def succ(node: int) -> list[int]:
        # the nodes for x and y successors of the pair's states in one
        # observation class
        pair, memory = divmod(node, scale)
        after = steps.get(memory)
        if after is None:
            memory1, memory2 = divmod(memory, X2)
            after = steps[memory] = ([step1(memory1, 0) * X2, step1(memory1, 1) * X2],
                                     [step2(memory2, 0), step2(memory2, 1)])
        after1, after2 = after
        a, b = divmod(pair, size)
        moves2 = by_class2[b]
        out: list[int] = []
        for c, xs in moves[a].items():
            ys = moves2.get(c)
            if ys:
                ends = [y * scale + after2[flags[y]] for y in ys]
                for x in xs:
                    begin = x * width + after1[flags[x]]
                    out += [begin + end for end in ends]
        return out

    def critical(node: int) -> bool:
        memory1, memory2 = divmod(node % scale, X2)
        return holds1(memory1) and not holds2(memory2)

    start1 = [first1(0) * X2, first1(1) * X2]
    start2 = [first2(0), first2(1)]
    roots = [x * width + start1[flags[x]] + y * scale + start2[flags[y]]
             for c, xs in m.initial_by_class.items() for x in xs for y in initial2.get(c, ())]
    return roots, succ, critical, scale


def _clear(groups: dict, flags) -> dict:
    """The states of each group where the condition fails."""
    return {c: [y for y in ys if not flags[y]] for c, ys in groups.items()}


def _longest_walk(successors, n: int):
    """longest(node): the most steps of a walk leaving `node`, capped at n.

    Depth-first and iterative, so n may exceed the recursion limit, and
    kept across calls.  A successor on the current path closes a cycle, on
    which a walk goes on forever, so it scores n; a node stops exploring
    once it reaches n.
    """
    table: dict = {}

    def longest(node) -> int:
        if node in table:
            return table[node]
        path = {node: 0}  # the nodes on the current path, each its best so far
        frames = [(node, iter(successors(node)))]
        while frames:
            q, rest = frames[-1]
            nxt = next(rest, None) if path[q] < n else None
            if nxt is None:
                frames.pop()
                table[q] = path.pop(q)
                if frames:
                    above = frames[-1][0]
                    path[above] = max(path[above], min(n, table[q] + 1))
            elif nxt in path:
                path[q] = n
            elif nxt in table:
                path[q] = max(path[q], min(n, table[nxt] + 1))
            else:
                path[nxt] = 0
                frames.append((nxt, iter(successors(nxt))))
        return table[node]

    return longest


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
