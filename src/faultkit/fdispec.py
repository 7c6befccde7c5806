"""Alarm specifications and their temporal/epistemic building blocks.

An alarm specification pairs a diagnosis condition (a boolean state
expression) with a delay discipline:

* exact(n)  -- the alarm must fire exactly n steps after the condition;
* bound(n)  -- within n steps;
* finite    -- eventually.

Each delay kind has a matching past-time formula (condition held exactly n
steps ago / within the last n steps / at some point), a bounded per-run
memory sufficient to evaluate it (a value window, a saturating counter, a
latched bit), and a certainty reading under synchronous perfect-recall
observation: the condition is *known* at a point iff it holds on every run
of the model producing the same observation sequence up to that point.
Knowledge is computed by propagating belief states, i.e. sets of
(state, memory) pairs consistent with the observations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .boolexpr import Expr, as_expr
from .errors import ModelFormatError, TraceError
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
    return _specs_from(read_json(path))


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


# -- past formulas -----------------------------------------------------------

@dataclass(frozen=True)
class PastShift:
    """Condition held exactly n steps ago (false when there is no history)."""
    beta: Expr
    n: int

    def __str__(self):
        return f"Y^{self.n} ({self.beta})"


@dataclass(frozen=True)
class OnceWithin:
    """Condition held at some point within the last n steps (inclusive)."""
    beta: Expr
    n: int

    def __str__(self):
        return f"O<={self.n} ({self.beta})"


@dataclass(frozen=True)
class Once:
    """Condition held at some point so far."""
    beta: Expr

    def __str__(self):
        return f"O ({self.beta})"


PastFormula = PastShift | OnceWithin | Once


def past_formula(delay: Delay, beta: Expr) -> PastFormula:
    """The past-time reading of a delay kind: the formula an alarm asserts
    about the monitored condition at the moment it fires."""
    if isinstance(delay, ExactDelay):
        return PastShift(beta, delay.n)
    if isinstance(delay, BoundedDelay):
        return OnceWithin(beta, delay.n)
    return Once(beta)


def _delay_of(phi: PastFormula) -> Delay:
    if isinstance(phi, PastShift):
        return ExactDelay(phi.n)
    if isinstance(phi, OnceWithin):
        return BoundedDelay(phi.n)
    return FiniteDelay()


def eval_past(m: SystemModel, tr: Trace, phi: PastFormula, t: int) -> bool:
    """Evaluate a past formula on a trace at time t by direct lookback."""
    if not (0 <= t < len(tr)):
        raise IndexError(f"time index {t} out of range for trace of length {len(tr)}")
    if isinstance(phi, PastShift):
        return t >= phi.n and m.holds(phi.beta, tr[t - phi.n])
    if isinstance(phi, OnceWithin):
        lo = max(0, t - phi.n)
        return any(m.holds(phi.beta, tr[u]) for u in range(lo, t + 1))
    if isinstance(phi, Once):
        return any(m.holds(phi.beta, tr[u]) for u in range(t + 1))
    raise TypeError(f"not a past formula: {phi!r}")


def timed_verdict(m: SystemModel, tr: Trace, phi: PastFormula) -> tuple[bool, ...]:
    """The formula's truth value at every time point of the trace."""
    return tuple(eval_past(m, tr, phi, t) for t in range(len(tr)))


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


# -- belief propagation -------------------------------------------------------

# A tracker is a (delay, beta) pair.  A belief member is a state together
# with one memory per tracker; decoded, it is (state id, memories).  Over
# ints it is ``memory * N + state``: the trackers' memories numbered as
# steps first reach them, and the state's number in the model's StateIndex
# of N states.  A belief is the sorted tuple of its members.  That order is
# not the order of the decoded members, so a search for a least member
# compares `BeliefTracker.decode`.  All members of a belief share the
# observation of the step that produced them.

Tracker = tuple[Delay, Expr]
BeliefMember = tuple[str, tuple]
Belief = frozenset


def trackers_for(specs: Iterable[AlarmSpec]) -> tuple[Tracker, ...]:
    return tuple((s.delay, s.beta) for s in specs)


class BeliefTracker:
    """Belief states of one model under a tuple of trackers, over ints.

    `memory_init`, `memory_update` and `memory_satisfies` define the
    memories; only those that runs reach are numbered, in `memories`, with
    each tracker's past formula in `sat`.  A belief steps by walking each
    member's successors of one observation class
    (`StateIndex.succ_by_class`); each member's successors are worked out
    once.
    """

    def __init__(self, m: SystemModel, trackers: tuple[Tracker, ...]):
        self.index = ix = m.index
        self._delays = [delay for delay, _ in trackers]
        flags = [ix.condition(beta) for _, beta in trackers]
        # labels[state]: bit i set when tracker i's condition holds
        self._labels = [sum(f[s] << i for i, f in enumerate(flags)) for s in range(ix.size)]
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
        N, labels = self.index.size, self._labels
        return {c: tuple(sorted(self.memory_after(None, labels[s]) * N + s for s in states))
                for c, states in self.index.initial_by_class.items()}

    def moves(self, member: int) -> dict[int, tuple[int, ...]]:
        """A member's successor members, by observation class, ascending."""
        found = self._moves.get(member)
        if found is None:
            N, labels = self.index.size, self._labels
            memory, state = divmod(member, N)
            found = self._moves[member] = {
                c: tuple(sorted(self.memory_after(memory, labels[nxt]) * N + nxt
                                for nxt in nxts))
                for c, nxts in self.index.succ_by_class[state].items()}
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
        return self.sat[member // self.index.size][i]

    def certain(self, belief: tuple[int, ...], i: int = 0) -> bool:
        """Tracker i's condition is known iff it holds in every member."""
        return all(self.holds(member, i) for member in belief)

    def decode(self, member: int) -> BeliefMember:
        memory, state = divmod(member, self.index.size)
        return self.index.ids[state], self.memories[memory]


def belief_certain(belief: Belief, index: int, trackers: tuple[Tracker, ...]) -> bool:
    """The tracked condition is known iff it holds in every decoded member."""
    delay = trackers[index][0]
    return all(memory_satisfies(delay, mems[index]) for _, mems in belief)


def belief_chain(beliefs: BeliefTracker, obs_seq: list[tuple]) -> list[tuple[int, ...]]:
    """Beliefs after each prefix of an observation sequence."""
    classes = {obs: c for c, obs in enumerate(beliefs.index.observations)}
    chain = [beliefs.initial().get(classes.get(obs_seq[0]), ())]
    if not chain[0]:
        raise TraceError("no initial state matches the first observation")
    for i, obs in enumerate(obs_seq[1:], start=1):
        chain.append(beliefs.successors(chain[-1]).get(classes.get(obs), ()))
        if not chain[-1]:
            raise TraceError(f"observation at step {i} is not producible")
    return chain


def knowledge_chain(m: SystemModel, tr: Trace, t: int, phi: PastFormula):
    """The belief tracker of phi, and its beliefs after each of the steps
    0..t of tr."""
    beliefs = BeliefTracker(m, ((_delay_of(phi), as_expr(phi.beta)),))
    return beliefs, belief_chain(beliefs, [m.observation(s) for s in tr.steps[: t + 1]])


def eval_knowledge(m: SystemModel, tr: Trace, t: int, phi: PastFormula) -> bool:
    """True iff phi holds at time t on every run of m producing the same
    observations as tr on steps 0..t (synchronous perfect recall)."""
    m.require_trace(tr)
    if not (0 <= t < len(tr)):
        raise IndexError(f"time index {t} out of range for trace of length {len(tr)}")
    beliefs, chain = knowledge_chain(m, tr, t, phi)
    return beliefs.certain(chain[-1])


def knowledge_counterexample(m: SystemModel, tr: Trace, t: int,
                             phi: PastFormula) -> Trace | None:
    """An obs-equivalent run on which phi fails at t, or None when phi is
    known (no such run exists); see `chain_counterexample` for which."""
    return chain_counterexample(*knowledge_chain(m, tr, t, phi))


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
    ix = beliefs.index
    members = [min(bad, key=beliefs.decode)]
    for i in range(len(chain) - 1, 0, -1):
        c = ix.obs_class[members[-1] % ix.size]
        members.append(min((member for member in chain[i - 1]
                            if members[-1] in beliefs.moves(member).get(c, ())),
                           key=beliefs.decode))
    return Trace(tuple(ix.ids[member % ix.size] for member in reversed(members)))


# -- pattern instantiation ----------------------------------------------------

@dataclass(frozen=True)
class Cond:
    """A state condition evaluated at the current time point."""
    expr: Expr

    def __str__(self):
        return f"({self.expr})"


@dataclass(frozen=True)
class AlarmRef:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class KnowThat:
    body: PastFormula

    def __str__(self):
        return f"K {self.body}"


@dataclass(frozen=True)
class NextShift:
    body: object
    n: int

    def __str__(self):
        return f"X^{self.n} {self.body}"


@dataclass(frozen=True)
class WithinFuture:
    body: object
    n: int

    def __str__(self):
        return f"F<={self.n} {self.body}"


@dataclass(frozen=True)
class Eventually:
    body: object

    def __str__(self):
        return f"F {self.body}"


@dataclass(frozen=True)
class Implies:
    left: object
    right: object

    def __str__(self):
        return f"({self.left} -> {self.right})"


@dataclass(frozen=True)
class Always:
    body: object

    def __str__(self):
        return f"G {self.body}"


@dataclass(frozen=True)
class PatternFormula:
    """The instantiated requirement for one alarm: a correctness conjunct,
    a completeness conjunct, and (for maximal specifications) a maximality
    conjunct."""

    correctness: Always
    completeness: Always
    maximality: Always | None

    def conjuncts(self) -> dict[str, Always]:
        out = {"correctness": self.correctness, "completeness": self.completeness}
        if self.maximality is not None:
            out["maximality"] = self.maximality
        return out

    def __str__(self):
        return " & ".join(str(c) for c in self.conjuncts().values())


def instantiate_pattern(spec: AlarmSpec) -> PatternFormula:
    """Build the requirement formula for one alarm specification.

    Correctness: the alarm implies its past condition.  Completeness: the
    condition implies the alarm fires within its delay; for trace-local
    specifications the obligation is guarded by achievability of certainty
    within the same delay.  Maximality: certainty forces the alarm."""
    A = AlarmRef(spec.name)
    beta = Cond(spec.beta)
    past = past_formula(spec.delay, spec.beta)
    correctness = Always(Implies(A, past))
    if isinstance(spec.delay, ExactDelay):
        raise_within = NextShift(A, spec.delay.n)
        know_within = NextShift(KnowThat(past), spec.delay.n)
    elif isinstance(spec.delay, BoundedDelay):
        raise_within = WithinFuture(A, spec.delay.n)
        know_within = WithinFuture(KnowThat(past), spec.delay.n)
    else:
        raise_within = Eventually(A)
        know_within = Eventually(KnowThat(past))
    obligation = Implies(beta, raise_within)
    if spec.diag == TRACE:
        completeness = Always(Implies(Implies(beta, know_within), obligation))
    else:
        completeness = Always(obligation)
    maximality = Always(Implies(KnowThat(past), A)) if spec.maximal else None
    return PatternFormula(correctness, completeness, maximality)
