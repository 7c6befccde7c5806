"""Explicit finite transition systems with fault, observable, and mode labels.

States are explicit and carry atom valuations.  Observation is
synchronous: an observer sees the observable-atom valuation of every state,
every step.  Fault atoms are allowed to be observable (a trivially
diagnosable configuration).  Faults are meant to be permanent, true on every
successor once true, but a model need not make them so: :func:`validate_model`
reports a fault that clears, and the cut sets do not assume permanence.

A model keeps its input's records as the file wrote them, `states` and
`initial`.  Every analysis reads one integer form, in which states are
numbered in sorted-id order, so comparing numbers compares ids:

* `ids[i]` is the id of state i, and `number[sid]` the number of id sid;
* `masks[i]`, state i's valuation, holds the bit `bits[a]` of each atom a
  true in state i (an atom its record leaves out is false), the first atom
  in sorted order the most significant, so masks cut down to some atoms
  compare as the bool tuples of those atoms do;
* `succ[i]` lists state i's successors, ascending and without repeats: the
  transitions;
* `observations[c]` is the observation of class c, the classes numbered in
  sorted order, and `obs_class[i]` is state i's class;
* `succ_by_class[i][c]` lists state i's successors in class c, ascending,
  and `initial_by_class[c]` the initial states in class c, built on use;
* `condition(expr)` flags the states where `expr` holds.
"""

from __future__ import annotations

from functools import cached_property

from .boolexpr import Expr, as_expr
from .errors import ModelFormatError, TraceError
from .jsonio import FLAGS, NAMES, decode_json, expect, field, read_json
from .records import Frozen


class Trace(Frozen):
    """A finite run: state ids, consecutive under the transition relation,
    starting in an initial state.  Length = number of states."""

    __slots__ = ("steps",)

    def __init__(self, steps: tuple[str, ...]):
        self._set(steps)

    def __len__(self):
        return len(self.steps)

    def __getitem__(self, i):
        return self.steps[i]

    @staticmethod
    def from_json(doc) -> "Trace":
        expect(doc, dict, "trace")
        return Trace(tuple(field(doc, "steps", NAMES, "trace")))


class Violation(Frozen):
    """One violated model invariant; violations are data, not exceptions."""

    __slots__ = ("kind", "subject", "detail")

    def __init__(self, kind: str, subject: str, detail: str):
        self._set(kind, subject, detail)

    def __str__(self):
        return f"{self.kind}: {self.subject}: {self.detail}"


class SystemModel:
    """Immutable after construction; query methods are safe to share.

    Built by :func:`parse_model` and :func:`load_model`, which check the
    records and number the states: `number` maps each id to its number in
    sorted-id order, and `succ[i]` lists state i's successor numbers,
    ascending and without repeats.
    """

    def __init__(self, bits, fault_atoms, observable_atoms, mode_atoms,
                 states, masks, initial, number, succ):
        self.atoms = frozenset(bits)
        self.fault_atoms = frozenset(fault_atoms)
        self.observable_atoms = frozenset(observable_atoms)
        self.mode_atoms = frozenset(mode_atoms)
        self.states = states
        self.masks = masks
        self.initial = tuple(sorted(set(initial)))
        self.number = number
        self.ids = ids = tuple(number)
        self.size = len(ids)
        self.succ = succ
        self.bits = bits
        self.observable_atoms_sorted = shown = tuple(sorted(self.observable_atoms))
        seen = self.mask_of(shown)
        kinds = sorted({x & seen for x in masks})
        self.observations = tuple(tuple(bool(k & bits[a]) for a in shown) for k in kinds)
        classes = {k: c for c, k in enumerate(kinds)}
        self.obs_class = [classes[x & seen] for x in masks]

    @cached_property
    def succ_by_class(self) -> list[dict[int, list[int]]]:
        return [self._by_class(nxts) for nxts in self.succ]

    @cached_property
    def initial_by_class(self) -> dict[int, list[int]]:
        return self._by_class(self.number[sid] for sid in self.initial)

    def _by_class(self, numbers) -> dict[int, list[int]]:
        groups: dict[int, list[int]] = {}
        for j in numbers:
            groups.setdefault(self.obs_class[j], []).append(j)
        return groups

    # -- queries -----------------------------------------------------------

    def mask_of(self, atoms) -> int:
        """The bits of the given atoms."""
        return sum(self.bits[a] for a in frozenset(atoms))

    def atoms_in(self, mask: int, atoms) -> list[str]:
        """Those of `atoms`, in their order, whose bit is set in `mask`."""
        return [a for a in atoms if mask & self.bits[a]]

    def condition(self, expr: Expr | str) -> list[bool]:
        """Whether `expr` holds, per state number."""
        return as_expr(expr).over(self.masks, self.bits)

    def holds(self, expr: Expr | str, sid: str) -> bool:
        return as_expr(expr).over([self.masks[self.number[sid]]], self.bits)[0]

    def observation(self, sid: str) -> tuple[bool, ...]:
        """Canonical observation: bool tuple over sorted observable atoms."""
        return self.observations[self.obs_class[self.number[sid]]]

    def is_trace(self, tr: Trace) -> bool:
        number, succ = self.number, self.succ
        if len(tr) < 1 or tr[0] not in self.initial:
            return False
        if not all(s in number for s in tr.steps):
            return False
        return all(number[b] in succ[number[a]] for a, b in zip(tr.steps, tr.steps[1:]))

    def require_trace(self, tr: Trace) -> None:
        if not self.is_trace(tr):
            raise TraceError(f"not a trace of this model: {list(tr.steps)}")

    def trace(self, run) -> Trace:
        """The trace of a run given as state numbers."""
        return Trace(tuple(self.ids[i] for i in run))


def parse_model(text: str) -> SystemModel:
    """Parse the JSON model format.  Referential well-formedness is checked
    here; the behavioral invariants are checked by :func:`validate_model`."""
    return _model_from(decode_json(text))


def load_model(path) -> SystemModel:
    return read_json(path, _model_from)


def _model_from(doc) -> SystemModel:
    expect(doc, dict, "model")
    atoms = field(doc, "atoms", NAMES, "model")
    for name in ("true", "false"):
        if name in atoms:
            raise ModelFormatError(f"atom {name!r} cannot be referenced: "
                                   f"expressions read {name} as a constant")
    faults = field(doc, "faults", NAMES, "model", [])
    observables = field(doc, "observables", NAMES, "model", [])
    modes = field(doc, "modes", NAMES, "model", [])
    # the first atom in sorted order is the most significant
    bits = {a: 1 << p for p, a in enumerate(sorted(set(atoms), reverse=True))}
    for group, names in (("faults", faults), ("observables", observables), ("modes", modes)):
        for name in names:
            if name not in bits:
                raise ModelFormatError(f"unknown atom {name!r} in {group}")
    states = field(doc, "states", dict, "model")
    if not states:
        raise ModelFormatError("states must be a nonempty object")
    masks = {}
    for sid, val in states.items():
        # one pass sums the bits of the true atoms; a malformed record (a
        # non-object at once) is named by the kind check, then the atom check
        mask = 0
        for a, v in val.items() if type(val) is dict else [(None, None)]:
            bit = bits.get(a)
            if bit is None or type(v) is not bool:
                expect(val, FLAGS, f"state {sid!r}")
                unknown = min(val.keys() - bits.keys())
                raise ModelFormatError(f"state {sid!r}: unknown atom {unknown!r}")
            if v:
                mask |= bit
        masks[sid] = mask
    number = {sid: i for i, sid in enumerate(sorted(states))}
    initial = field(doc, "initial", NAMES, "model")
    if not initial:
        raise ModelFormatError("initial must be a nonempty list")
    for sid in initial:
        if sid not in number:
            raise ModelFormatError(f"unknown state {sid!r} in initial")
    transitions = field(doc, "transitions", list, "model")
    succ: list[list[int]] = [[] for _ in number]
    # one lookup pass; the type check keeps a two-character string or a
    # two-key object from unpacking as a pair, and a failure re-reads the
    # list to name its first bad item
    try:
        if not set(map(type, transitions)) <= {list}:
            raise TypeError
        for a, b in transitions:
            succ[number[a]].append(number[b])
    except (KeyError, TypeError, ValueError):
        _check_transitions(transitions, number)
        raise
    return SystemModel(bits, faults, observables, modes, states,
                       [masks[sid] for sid in number], initial, number,
                       [sorted(set(nxts)) for nxts in succ])


def _check_transitions(transitions, number) -> None:
    """Raise the error that names the first malformed item of a model's
    transitions."""
    for item in transitions:
        if type(item) is not list or len(item) != 2:
            raise ModelFormatError(f"transition must be a [from, to] pair, got {item!r}")
        a, b = item
        if type(a) is not str or type(b) is not str or a not in number or b not in number:
            raise ModelFormatError(f"unknown state in transition {item!r}")


def validate_model(m: SystemModel) -> list[Violation]:
    """Check every model invariant; empty report means valid."""
    report: list[Violation] = []
    ids, masks = m.ids, m.masks
    for i, nxts in enumerate(m.succ):
        if not nxts:
            report.append(Violation("deadlock-freedom", ids[i], "state has no outgoing transition"))
    faults = sorted(m.fault_atoms)
    fault_bits = m.mask_of(faults)
    # ids and successor lists ascend, so this visits the transitions sorted
    for i, nxts in enumerate(m.succ):
        for j in nxts:
            lost = masks[i] & fault_bits & ~masks[j]
            if not lost:
                continue
            for f in m.atoms_in(lost, faults):
                report.append(Violation(
                    "fault-persistence", f"({ids[i]} -> {ids[j]})",
                    f"fault atom {f!r} is true in {ids[i]} but false in {ids[j]}"))
    for sid in m.initial:
        for f in m.atoms_in(masks[m.number[sid]], faults):
            report.append(Violation(
                "initial-faults-false", sid, f"fault atom {f!r} is true in initial state"))
    if m.mode_atoms:
        modes = sorted(m.mode_atoms)
        mode_bits = m.mask_of(modes)
        for i, x in enumerate(masks):
            if (x & mode_bits).bit_count() != 1:
                report.append(Violation(
                    "mode-uniqueness", ids[i],
                    f"expected exactly one mode atom true, found "
                    f"{m.atoms_in(x, modes) or 'none'}"))
    return report
