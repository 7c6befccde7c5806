"""Alarm specifications and their temporal/epistemic building blocks.

An alarm specification pairs a diagnosis condition (a boolean state
expression) with a delay discipline:

* exact(n)  -- the alarm must fire exactly n steps after the condition;
* bound(n)  -- within n steps;
* finite    -- eventually.

Each delay kind reads as one past-time formula over the condition β:
Y^n β (β held exactly n steps ago), O<=n β (within the last n steps) or
O β (at some point), so a past formula is given by its (delay, β) pair.
Each has a bounded per-run memory sufficient to evaluate it (a value
window, a saturating counter, a latched bit), and a certainty reading
under synchronous perfect-recall observation: the condition is *known* at
a point iff it holds on every run of the model producing the same
observation sequence up to that point.
Knowledge is computed by propagating belief states, i.e. sets of
(state, memory) pairs consistent with the observations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .boolexpr import Expr, as_expr
from .errors import ModelFormatError
from .graphs import automaton
from .jsonio import decode_json, expect, field, read_json
from .model import SystemModel, Trace

GLOBAL = "global"
TRACE = "trace"


# -- delays ------------------------------------------------------------------

@dataclass(frozen=True)
class ExactDelay:
    n: int

    def __str__(self):
        return f"exact({self.n})"


@dataclass(frozen=True)
class BoundedDelay:
    n: int

    def __str__(self):
        return f"bound({self.n})"


@dataclass(frozen=True)
class FiniteDelay:
    def __str__(self):
        return "finite"


Delay = ExactDelay | BoundedDelay | FiniteDelay


@dataclass(frozen=True)
class AlarmSpec:
    name: str
    beta: Expr
    delay: Delay
    diag: str = GLOBAL
    maximal: bool = False

    def __post_init__(self):
        if isinstance(self.delay, (ExactDelay, BoundedDelay)) and self.delay.n < 1:
            raise ValueError(f"alarm {self.name!r}: delay bound must be >= 1")
        if self.diag not in (GLOBAL, TRACE):
            raise ValueError(f"alarm {self.name!r}: diag must be 'global' or 'trace'")


def parse_specs(text: str) -> list[AlarmSpec]:
    """Parse the JSON alarm-spec format: a list of
    {alarm, beta, delay: {kind, n}, diag, maximal} objects."""
    return _specs_from(decode_json(text))


def load_specs(path) -> list[AlarmSpec]:
    return read_json(path, _specs_from)


def _specs_from(doc) -> list[AlarmSpec]:
    specs = []
    names = set()
    for i, item in enumerate(expect(doc, list, "spec file")):
        where = f"alarm entry {i}"
        expect(item, dict, where)
        name = field(item, "alarm", str, where)
        beta = as_expr(field(item, "beta", str, where))
        delay_doc = field(item, "delay", dict, where)
        kind = field(delay_doc, "kind", str, f"{where} delay")
        if kind in ("exact", "bound"):
            n = field(delay_doc, "n", int, f"{where} delay")
            delay: Delay = ExactDelay(n) if kind == "exact" else BoundedDelay(n)
        elif kind == "finite":
            delay = FiniteDelay()
        else:
            raise ModelFormatError(f"unknown delay kind {kind!r}")
        if name in names:
            raise ModelFormatError(f"duplicate alarm name {name!r}")
        names.add(name)
        specs.append(AlarmSpec(name, beta, delay, field(item, "diag", str, where, GLOBAL),
                               field(item, "maximal", bool, where, False)))
    return specs


# -- bounded per-run memory ---------------------------------------------------

def memory_init(delay: Delay, beta_now: bool):
    if isinstance(delay, ExactDelay):
        return (beta_now,)
    if isinstance(delay, BoundedDelay):
        return 0 if beta_now else delay.n + 1
    return beta_now


def memory_update(delay: Delay, mem, beta_now: bool):
    if isinstance(delay, ExactDelay):
        window = mem + (beta_now,)
        return window[-(delay.n + 1):]
    if isinstance(delay, BoundedDelay):
        return 0 if beta_now else min(mem + 1, delay.n + 1)
    return mem or beta_now


def memory_satisfies(delay: Delay, mem) -> bool:
    """Whether the past formula of the delay kind holds, given the memory."""
    if isinstance(delay, ExactDelay):
        return len(mem) == delay.n + 1 and mem[0]
    if isinstance(delay, BoundedDelay):
        return mem <= delay.n
    return bool(mem)


def memory_bound(delay: Delay) -> int:
    """How many values the memory of a delay kind can take: windows of 1 to
    n + 1 condition values, counts 0 to n + 1, or a latch."""
    if isinstance(delay, ExactDelay):
        return 2 ** (delay.n + 2) - 2
    if isinstance(delay, BoundedDelay):
        return delay.n + 2
    return 2


def memory_automaton(delay: Delay, labels: Iterable[int]):
    """The memory of a delay kind as a `graphs.automaton` over int labels
    whose bit 0 says whether the condition holds in the state stepped into;
    a memory is flagged when its past formula holds."""
    return automaton(memory_bound(delay), lambda label: memory_init(delay, bool(label & 1)),
                     lambda mem, label: memory_update(delay, mem, bool(label & 1)),
                     labels, lambda mem: memory_satisfies(delay, mem))


# -- belief propagation -------------------------------------------------------

# A tracker is a (delay, beta) pair.  A belief member is a state together
# with one memory per tracker; decoded, it is (state id, memories).  Over
# ints it is ``memory * N + state``: the trackers' memories numbered as
# steps first reach them, and the state's number in the model of N states.
# A belief is the sorted tuple of its members.  That order is not the order
# of the decoded members, so a search for a least member compares
# `BeliefTracker.decode`.  All members of a belief share the
# observation of the step that produced them.

Tracker = tuple[Delay, Expr]
BeliefMember = tuple[str, tuple]


def trackers_for(specs: Iterable[AlarmSpec]) -> tuple[Tracker, ...]:
    return tuple((s.delay, s.beta) for s in specs)


class BeliefTracker:
    """Belief states of one model under a tuple of trackers, over ints.

    `memory_init`, `memory_update` and `memory_satisfies` define the
    memories; only those that runs reach are numbered, in `memories`, with
    each tracker's past formula in `sat`.  A belief steps by walking each
    member's successors of one observation class
    (`SystemModel.succ_by_class`); each member's successors are worked out
    once.
    """

    def __init__(self, m: SystemModel, trackers: tuple[Tracker, ...]):
        self.model = m
        self._delays = [delay for delay, _ in trackers]
        flags = [m.condition(beta) for _, beta in trackers]
        # labels[state]: bit i set when tracker i's condition holds
        self._labels = [sum(f[s] << i for i, f in enumerate(flags)) for s in range(m.size)]
        self.memories: list[tuple] = []
        self.sat: list[tuple[bool, ...]] = []
        self._numbers: dict[tuple, int] = {}
        self._after: dict[tuple, int] = {}
        self._moves: dict[int, dict[int, tuple[int, ...]]] = {}

    def memory_after(self, memory: int | None, label: int) -> int:
        """The trackers' memory after a step into a state whose conditions
        are the bits of `label`; `memory` is None before the first step."""
        key = memory, label
        after = self._after.get(key)
        if after is None:
            now = [bool(label >> i & 1) for i in range(len(self._delays))]
            mems = (tuple(map(memory_init, self._delays, now)) if memory is None else
                    tuple(map(memory_update, self._delays, self.memories[memory], now)))
            after = self._numbers.get(mems)
            if after is None:
                after = self._numbers[mems] = len(self.memories)
                self.memories.append(mems)
                self.sat.append(tuple(map(memory_satisfies, self._delays, mems)))
            self._after[key] = after
        return after

    def initial(self) -> dict[int, tuple[int, ...]]:
        """The belief of each observation class of the initial states."""
        N, labels = self.model.size, self._labels
        return {c: tuple(sorted(self.memory_after(None, labels[s]) * N + s for s in states))
                for c, states in self.model.initial_by_class.items()}

    def moves(self, member: int) -> dict[int, tuple[int, ...]]:
        """A member's successor members, by observation class, ascending."""
        found = self._moves.get(member)
        if found is None:
            N, labels = self.model.size, self._labels
            memory, state = divmod(member, N)
            found = self._moves[member] = {
                c: tuple(sorted(self.memory_after(memory, labels[nxt]) * N + nxt
                                for nxt in nxts))
                for c, nxts in self.model.succ_by_class[state].items()}
        return found

    def successors(self, belief: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
        """The nonempty beliefs one step on, by observation class."""
        if len(belief) == 1:
            return self.moves(belief[0])
        grouped: dict[int, set] = {}
        for member in belief:
            for c, members in self.moves(member).items():
                grouped.setdefault(c, set()).update(members)
        return {c: tuple(sorted(members)) for c, members in grouped.items()}

    def holds(self, member: int, i: int = 0) -> bool:
        """Whether tracker i's past formula holds in a member."""
        return self.sat[member // self.model.size][i]

    def certain(self, belief: tuple[int, ...], i: int = 0) -> bool:
        """Tracker i's condition is known iff it holds in every member."""
        return all(self.holds(member, i) for member in belief)

    def decode(self, member: int) -> BeliefMember:
        memory, state = divmod(member, self.model.size)
        return self.model.ids[state], self.memories[memory]


def knowledge_chain(m: SystemModel, tr: Trace, t: int, delay: Delay, beta: Expr | str):
    """The belief tracker of the past formula of `delay` over `beta`, and
    its beliefs after each of the steps 0..t of tr.  tr is a trace of m, so
    every belief holds its state and none is empty."""
    m.require_trace(tr)
    if not (0 <= t < len(tr)):
        raise IndexError(f"time index {t} out of range for trace of length {len(tr)}")
    beliefs = BeliefTracker(m, ((delay, as_expr(beta)),))
    classes = [m.obs_class[m.number[s]] for s in tr.steps[: t + 1]]
    chain = [beliefs.initial()[classes[0]]]
    for c in classes[1:]:
        chain.append(beliefs.successors(chain[-1])[c])
    return beliefs, chain


def eval_knowledge(m: SystemModel, tr: Trace, t: int, delay: Delay, beta: Expr | str) -> bool:
    """True iff the past formula of `delay` over `beta` holds at time t on
    every run of m producing the same observations as tr on steps 0..t
    (synchronous perfect recall)."""
    beliefs, chain = knowledge_chain(m, tr, t, delay, beta)
    return beliefs.certain(chain[-1])


def knowledge_counterexample(m: SystemModel, tr: Trace, t: int, delay: Delay,
                             beta: Expr | str) -> Trace | None:
    """An obs-equivalent run on which the past formula of `delay` over
    `beta` fails at t, or None when it is known (no such run exists); see
    `chain_counterexample` for which."""
    return chain_counterexample(*knowledge_chain(m, tr, t, delay, beta))


def chain_counterexample(beliefs: BeliefTracker,
                         chain: list[tuple[int, ...]]) -> Trace | None:
    """A run along a belief chain on which the tracked formula fails at the
    last step, or None when it is known there.

    The run is chosen from its end: it ends in the least failing member of
    the last belief, and each earlier step is the least member of its
    belief that moves to the step after it, members ordered by (state id,
    memories).  This is not always the lexicographically least such run:
    with nothing observable, initial states a and b, and a -> z -> c,
    b -> y -> c, the run is b y c, not a z c.
    """
    bad = [member for member in chain[-1] if not beliefs.holds(member)]
    if not bad:
        return None
    m = beliefs.model
    members = [min(bad, key=beliefs.decode)]
    for i in range(len(chain) - 1, 0, -1):
        c = m.obs_class[members[-1] % m.size]
        members.append(min((member for member in chain[i - 1]
                            if members[-1] in beliefs.moves(member).get(c, ())),
                           key=beliefs.decode))
    return m.trace(member % m.size for member in reversed(members))


# -- pattern instantiation ----------------------------------------------------

def instantiate_pattern(spec: AlarmSpec) -> dict[str, str]:
    """The requirement formula for one alarm specification, as the text of
    each conjunct: correctness, completeness and, for maximal
    specifications, maximality.

    Correctness: the alarm implies its past condition.  Completeness: the
    condition implies the alarm fires within its delay; for trace-local
    specifications the obligation is guarded by achievability of certainty
    within the same delay.  Maximality: certainty forces the alarm."""
    A, beta = spec.name, f"({spec.beta})"
    if isinstance(spec.delay, ExactDelay):
        within, past = f"X^{spec.delay.n}", f"Y^{spec.delay.n} {beta}"
    elif isinstance(spec.delay, BoundedDelay):
        within, past = f"F<={spec.delay.n}", f"O<={spec.delay.n} {beta}"
    else:
        within, past = "F", f"O {beta}"
    obligation = f"({beta} -> {within} {A})"
    if spec.diag == TRACE:
        obligation = f"(({beta} -> {within} K {past}) -> {obligation})"
    pattern = {"correctness": f"G ({A} -> {past})", "completeness": f"G {obligation}"}
    if spec.maximal:
        pattern["maximality"] = f"G (K {past} -> {A})"
    return pattern
