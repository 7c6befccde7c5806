"""Alarm specifications and their temporal/epistemic building blocks.

An alarm specification pairs a diagnosis condition (a boolean state
expression) with a delay discipline:

* exact(n)  -- the alarm must fire exactly n steps after the condition;
* bound(n)  -- within n steps;
* finite    -- eventually.

Each delay kind reads as one past-time formula over the condition β:
Y^n β (β held exactly n steps ago), O<=n β (within the last n steps) or
O β (at some point), so a past formula is given by its (delay, β) pair.
Each has a bounded per-run memory sufficient to evaluate it, an int below
a bound (`delay_memory`: a bit window, a saturating count, a latch), and
a certainty reading under synchronous perfect-recall observation: the
condition is *known* at a point iff it holds on every run of the model
producing the same observation sequence up to that point.
Knowledge is computed by propagating belief states, i.e. sets of
(state, memory) pairs consistent with the observations.
"""

from __future__ import annotations

from collections.abc import Iterable

from .boolexpr import Expr, as_expr
from .errors import ModelFormatError
from .jsonio import decode_json, expect, field, read_json
from .model import SystemModel, Trace
from .records import Frozen

GLOBAL = "global"
TRACE = "trace"


# -- delays ------------------------------------------------------------------

class ExactDelay(Frozen):
    __slots__ = ("n",)

    def __init__(self, n: int):
        self._set(n)

    def __str__(self):
        return f"exact({self.n})"


class BoundedDelay(Frozen):
    __slots__ = ("n",)

    def __init__(self, n: int):
        self._set(n)

    def __str__(self):
        return f"bound({self.n})"


class FiniteDelay(Frozen):
    __slots__ = ()

    def __str__(self):
        return "finite"


Delay = ExactDelay | BoundedDelay | FiniteDelay


class AlarmSpec(Frozen):
    __slots__ = ("name", "beta", "delay", "diag", "maximal")

    def __init__(self, name: str, beta: Expr, delay: Delay, diag: str = GLOBAL,
                 maximal: bool = False):
        if isinstance(delay, (ExactDelay, BoundedDelay)) and delay.n < 1:
            raise ValueError(f"alarm {name!r}: delay bound must be >= 1")
        if diag not in (GLOBAL, TRACE):
            raise ValueError(f"alarm {name!r}: diag must be 'global' or 'trace'")
        self._set(name, beta, delay, diag, maximal)


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

def delay_memory(delay: Delay):
    """The per-run memory of a delay kind's past formula, as ints below a
    bound: (bound, first, step, holds).

    Labels are ints whose bit 0 says whether the condition holds in the
    state stepped into.  first(label) is the memory at a run's first
    state, step(mem, label) the memory one step on, and holds(mem) whether
    the past formula holds.  exact(n) keeps a window of the last 1 to
    n + 1 condition values under a leading 1 bit, the newest value lowest;
    bound(n) the steps since the condition last held, saturating at n + 1;
    finite a latch.
    """
    if isinstance(delay, ExactDelay):
        n = delay.n
        full, top = 1 << n + 2, 1 << n + 1

        def step(mem: int, label: int) -> int:
            # a full window drops its oldest value, the bit below the lead
            mem = mem << 1 | label & 1
            return mem & top - 1 | top if mem >= full else mem

        return full, lambda label: 2 | label & 1, step, lambda mem: mem >> n == 3
    if isinstance(delay, BoundedDelay):
        n = delay.n
        return (n + 2, lambda label: 0 if label & 1 else n + 1,
                lambda mem, label: 0 if label & 1 else min(mem + 1, n + 1),
                lambda mem: mem <= n)
    return 2, lambda label: label & 1, lambda mem, label: mem | label & 1, lambda mem: mem == 1


# -- belief propagation -------------------------------------------------------

# A tracker is a (delay, beta) pair.  A belief member is a state together
# with one memory per tracker, an int of `delay_memory`; decoded, it is
# (state id, memories).  Over ints it is ``memory * N + state``: the
# trackers' tuple of memories numbered as steps first reach it, and the
# state's number in the model of N states.  A belief is the sorted tuple of
# its members.  That order is not the order of the decoded members, so a
# search for a least member compares `BeliefTracker.decode`.  All members
# of a belief share the observation of the step that produced them.

Tracker = tuple[Delay, Expr]
BeliefMember = tuple[str, tuple]


def trackers_for(specs: Iterable[AlarmSpec]) -> tuple[Tracker, ...]:
    return tuple((s.delay, s.beta) for s in specs)


class BeliefTracker:
    """Belief states of one model under a tuple of trackers, over ints.

    Each tracker steps its `delay_memory`; only the tuples of memories
    that runs reach are numbered, in `memories`, and `sat[memory]` has bit
    i set when tracker i's past formula holds.  A belief steps by walking
    each member's successors of one observation class
    (`SystemModel.succ_by_class`).  Each member's successors are worked
    out once, a class fed by one member reuses that member's tuple, and
    certainty is read from the bits of `sat` (`known`).
    """

    def __init__(self, m: SystemModel, trackers: tuple[Tracker, ...]):
        self.model = m
        kinds = [delay_memory(delay) for delay, _ in trackers]
        self._first = [first for _, first, _, _ in kinds]
        self._step = [step for _, _, step, _ in kinds]
        self._holds = [holds for _, _, _, holds in kinds]
        flags = [m.condition(beta) for _, beta in trackers]
        # labels[state]: bit i set when tracker i's condition holds
        self._labels = [sum(f[s] << i for i, f in enumerate(flags)) for s in range(m.size)]
        self._width = len(trackers)
        self.memories: list[tuple] = []
        self.sat: list[int] = []
        self._numbers: dict[tuple, int] = {}
        # memory << width | label -> N times the memory one step on
        self._after: dict[int, int] = {}
        self._moves: dict[int, dict[int, tuple[int, ...]]] = {}

    def _number(self, mems: tuple) -> int:
        """The number of a tuple of memories, numbered when first reached."""
        number = self._numbers.get(mems)
        if number is None:
            number = self._numbers[mems] = len(self.memories)
            self.memories.append(mems)
            self.sat.append(sum(holds(mem) << i for i, (holds, mem)
                                in enumerate(zip(self._holds, mems))))
        return number

    def _stepped(self, memory: int, label: int) -> int:
        """N times the memory after a step from `memory` into a state whose
        conditions are the bits of `label`, stored in `_after`."""
        # tracker i reads bit 0 of label >> i
        mems = tuple(step(mem, label >> i) for i, (step, mem)
                     in enumerate(zip(self._step, self.memories[memory])))
        base = self._after[memory << self._width | label] = self._number(mems) * self.model.size
        return base

    def initial(self) -> dict[int, tuple[int, ...]]:
        """The belief of each observation class of the initial states."""
        N, labels = self.model.size, self._labels
        return {c: tuple(sorted(self._number(tuple(first(labels[s] >> i) for i, first
                                                   in enumerate(self._first))) * N + s
                                for s in states))
                for c, states in self.model.initial_by_class.items()}

    def moves(self, member: int) -> dict[int, tuple[int, ...]]:
        """A member's successor members, by observation class, ascending."""
        found = self._moves.get(member)
        if found is None:
            N, labels, after = self.model.size, self._labels, self._after
            memory, state = divmod(member, N)
            key = memory << self._width
            found = self._moves[member] = {}
            for c, nxts in self.model.succ_by_class[state].items():
                members = []
                for nxt in nxts:
                    base = after.get(key | labels[nxt])
                    if base is None:
                        base = self._stepped(memory, labels[nxt])
                    members.append(base + nxt)
                members.sort()
                found[c] = tuple(members)
        return found

    def successors(self, belief: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
        """The nonempty beliefs one step on, by observation class.  The
        tuples may be shared with other calls' results."""
        moves = self._moves
        if len(belief) == 1:
            return moves.get(belief[0]) or self.moves(belief[0])
        grouped: dict[int, tuple[int, ...]] = {}
        merged: dict[int, set] = {}
        for member in belief:
            for c, members in (moves.get(member) or self.moves(member)).items():
                if c not in grouped:
                    grouped[c] = members
                elif c in merged:
                    merged[c].update(members)
                else:
                    merged[c] = {*grouped[c], *members}
        for c, members in merged.items():
            grouped[c] = tuple(sorted(members))
        return grouped

    def known(self, belief: tuple[int, ...]) -> tuple[int, int]:
        """The trackers whose past formula holds in every member, and those
        whose formula holds in some, as masks: bit i for tracker i."""
        N, sat = self.model.size, self.sat
        every, some = -1, 0
        for member in belief:
            bits = sat[member // N]
            every &= bits
            some |= bits
        return every, some

    def holds(self, member: int, i: int = 0) -> bool:
        """Whether tracker i's past formula holds in a member."""
        return self.sat[member // self.model.size] >> i & 1 == 1

    def certain(self, belief: tuple[int, ...], i: int = 0) -> bool:
        """Tracker i's condition is known iff it holds in every member."""
        return self.known(belief)[0] >> i & 1 == 1

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
