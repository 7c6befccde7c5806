"""Explicit finite transition systems with fault, observable, and mode labels.

States are explicit and carry full atom valuations.  Faults are permanent:
once a fault atom is true it stays true on every successor.  Observation is
synchronous: an observer sees the observable-atom valuation of every state,
every step.  Fault atoms are allowed to be observable (a trivially
diagnosable configuration).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .boolexpr import Expr, as_expr
from .errors import ModelFormatError, TraceError
from .jsonio import FLAGS, NAMES, decode_json, expect, field, read_json


@dataclass(frozen=True)
class Trace:
    """A finite run: state ids, consecutive under the transition relation,
    starting in an initial state.  Length = number of states."""

    steps: tuple[str, ...]

    def __len__(self):
        return len(self.steps)

    def __getitem__(self, i):
        return self.steps[i]

    def to_json(self):
        return {"steps": list(self.steps)}

    @staticmethod
    def from_json(doc) -> "Trace":
        expect(doc, dict, "trace")
        return Trace(tuple(field(doc, "steps", NAMES, "trace")))


@dataclass(frozen=True)
class Violation:
    """One violated model invariant; violations are data, not exceptions."""

    kind: str
    subject: str
    detail: str

    def __str__(self):
        return f"{self.kind}: {self.subject}: {self.detail}"


class SystemModel:
    """Immutable after construction; query methods are safe to share."""

    def __init__(self, atoms, fault_atoms, observable_atoms, mode_atoms,
                 states, initial, transitions):
        self.atoms = frozenset(atoms)
        self.fault_atoms = frozenset(fault_atoms)
        self.observable_atoms = frozenset(observable_atoms)
        self.mode_atoms = frozenset(mode_atoms)
        self.states = {sid: dict(val) for sid, val in states.items()}
        self.initial = tuple(sorted(initial))
        self.transitions = frozenset((a, b) for a, b in transitions)
        by_src: dict[str, list[str]] = {sid: [] for sid in self.states}
        for a, b in self.transitions:
            by_src[a].append(b)
        self._succ = {sid: tuple(sorted(set(succs))) for sid, succs in by_src.items()}
        self._obs_atoms_sorted = tuple(sorted(self.observable_atoms))
        self._obs = {
            sid: tuple(bool(self.states[sid].get(a, False)) for a in self._obs_atoms_sorted)
            for sid in self.states
        }

    @cached_property
    def index(self) -> StateIndex:
        """The integer view of this model, built on first use."""
        return StateIndex(self)

    # -- queries -----------------------------------------------------------

    def successors(self, sid: str) -> tuple[str, ...]:
        if sid not in self.states:
            raise TraceError(f"unknown state {sid!r}")
        return self._succ[sid]

    def valuation(self, sid: str) -> dict[str, bool]:
        return self.states[sid]

    def holds(self, expr: Expr | str, sid: str) -> bool:
        return as_expr(expr).evaluate(self.states[sid])

    def fault_set(self, sid: str) -> frozenset[str]:
        val = self.states[sid]
        return frozenset(a for a in self.fault_atoms if val.get(a, False))

    def observation(self, sid: str) -> tuple[bool, ...]:
        """Canonical observation: bool tuple over sorted observable atoms."""
        return self._obs[sid]

    def observation_dict(self, sid: str) -> dict[str, bool]:
        return dict(zip(self._obs_atoms_sorted, self._obs[sid]))

    @property
    def observable_atoms_sorted(self) -> tuple[str, ...]:
        return self._obs_atoms_sorted

    def mode_of(self, sid: str) -> str | None:
        val = self.states[sid]
        active = [a for a in self.mode_atoms if val.get(a, False)]
        return active[0] if len(active) == 1 else None

    def is_trace(self, tr: Trace) -> bool:
        if len(tr) < 1:
            return False
        if tr[0] not in self.initial:
            return False
        for s in tr.steps:
            if s not in self.states:
                return False
        for a, b in zip(tr.steps, tr.steps[1:]):
            if (a, b) not in self.transitions:
                return False
        return True

    def require_trace(self, tr: Trace) -> None:
        if not self.is_trace(tr):
            raise TraceError(f"not a trace of this model: {list(tr.steps)}")

    def enumerate_traces(self, horizon: int) -> Iterator[Trace]:
        """All traces with exactly `horizon` states, lexicographic order."""
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        stack: list[str] = []

        def walk() -> Iterator[Trace]:
            if len(stack) == horizon:
                yield Trace(tuple(stack))
                return
            for nxt in self._succ[stack[-1]]:
                stack.append(nxt)
                yield from walk()
                stack.pop()

        for init in self.initial:
            stack = [init]
            yield from walk()


class StateIndex:
    """A model's states as ints, for searches over many states or pairs.

    States are numbered in sorted-id order, so comparing numbers compares
    ids, and a pair (a, b) encoded as ``a * size + b`` sorts exactly like the
    pair of ids.  Observations are numbered in sorted order as class ids,
    and each state's successors are grouped by observation class.
    """

    def __init__(self, m: SystemModel):
        self.ids = tuple(sorted(m.states))
        self.size = len(self.ids)
        self.number = number = {sid: i for i, sid in enumerate(self.ids)}
        # observations[c]: the observation of class c
        self.observations = tuple(sorted({m.observation(sid) for sid in self.ids}))
        classes = {obs: c for c, obs in enumerate(self.observations)}
        self.obs_class = obs_class = [classes[m.observation(sid)] for sid in self.ids]
        # succ_by_class[a][c]: successors of state a in observation class c,
        # ascending
        self.succ_by_class: list[dict[int, list[int]]] = []
        for sid in self.ids:
            groups: dict[int, list[int]] = {}
            for nxt in m.successors(sid):
                groups.setdefault(obs_class[number[nxt]], []).append(number[nxt])
            self.succ_by_class.append(groups)
        # the initial states, grouped the same way
        self.initial_by_class: dict[int, list[int]] = {}
        for sid in m.initial:
            self.initial_by_class.setdefault(obs_class[number[sid]], []).append(number[sid])
        self._valuations = [m.states[sid] for sid in self.ids]
        self._conditions: dict[Expr, list[bool]] = {}

    def condition(self, expr: Expr | str) -> list[bool]:
        """Whether `expr` holds, per state number; evaluated once per model."""
        expr = as_expr(expr)
        flags = self._conditions.get(expr)
        if flags is None:
            flags = self._conditions[expr] = [expr.evaluate(v) for v in self._valuations]
        return flags


def parse_model(text: str) -> SystemModel:
    """Parse the JSON model format.  Referential well-formedness is checked
    here; the behavioral invariants are checked by :func:`validate_model`."""
    return _model_from(decode_json(text))


def load_model(path) -> SystemModel:
    return _model_from(read_json(path))


def _model_from(doc) -> SystemModel:
    expect(doc, dict, "model")
    atoms = field(doc, "atoms", NAMES, "model")
    faults = field(doc, "faults", NAMES, "model", [])
    observables = field(doc, "observables", NAMES, "model", [])
    modes = field(doc, "modes", NAMES, "model", [])
    atom_set = set(atoms)
    for group, names in (("faults", faults), ("observables", observables), ("modes", modes)):
        for name in names:
            if name not in atom_set:
                raise ModelFormatError(f"unknown atom {name!r} in {group}")
    if not field(doc, "states", dict, "model"):
        raise ModelFormatError("states must be a nonempty object")
    states = {}
    for sid, val in doc["states"].items():
        if not expect(val, FLAGS, f"state {sid!r}").keys() <= atom_set:
            raise ModelFormatError(f"state {sid!r}: unknown atom {min(val.keys() - atom_set)!r}")
        # Unlisted atoms default to false.
        states[sid] = {a: val.get(a, False) for a in atoms}
    initial = field(doc, "initial", NAMES, "model")
    if not initial:
        raise ModelFormatError("initial must be a nonempty list")
    for sid in initial:
        if sid not in states:
            raise ModelFormatError(f"unknown state {sid!r} in initial")
    pairs = []
    for item in field(doc, "transitions", list, "model"):
        # Checked inline: a model has many transitions.
        if type(item) is not list or len(item) != 2:
            raise ModelFormatError(f"transition must be a [from, to] pair, got {item!r}")
        a, b = item
        if type(a) is not str or type(b) is not str or a not in states or b not in states:
            raise ModelFormatError(f"unknown state in transition {item!r}")
        pairs.append((a, b))
    return SystemModel(atoms, faults, observables, modes, states, initial, pairs)


def validate_model(m: SystemModel) -> list[Violation]:
    """Check every model invariant; empty report means valid."""
    report: list[Violation] = []
    for sid in sorted(m.states):
        if not m._succ[sid]:
            report.append(Violation("deadlock-freedom", sid, "state has no outgoing transition"))
    for a, b in sorted(m.transitions):
        lost = [f for f in sorted(m.fault_atoms)
                if m.states[a].get(f, False) and not m.states[b].get(f, False)]
        for f in lost:
            report.append(Violation(
                "fault-persistence", f"({a} -> {b})",
                f"fault atom {f!r} is true in {a} but false in {b}"))
    for sid in m.initial:
        active = [f for f in sorted(m.fault_atoms) if m.states[sid].get(f, False)]
        for f in active:
            report.append(Violation(
                "initial-faults-false", sid, f"fault atom {f!r} is true in initial state"))
    if m.mode_atoms:
        for sid in sorted(m.states):
            active = [a for a in sorted(m.mode_atoms) if m.states[sid].get(a, False)]
            if len(active) != 1:
                report.append(Violation(
                    "mode-uniqueness", sid,
                    f"expected exactly one mode atom true, found {active or 'none'}"))
    return report
