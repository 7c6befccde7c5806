"""Cut sets, minimal-cut-set enumeration, fault trees, and exact
quantitative evaluation of a top level event.

A set of faults S is a *cut set* for a top level event when some state
satisfying the event is reachable once every fault outside S is pinned
false (states where such a fault holds are never entered).  This property
is monotone in S, so minimality is well-defined.  The minimal cut sets are
the minimal sets of faults that hold somewhere along a path to the event,
which one search over (state, faults held so far) finds exactly: no
fault-persistence assumption is needed, so models whose faults clear get
exact answers too.  The cardinality-layer reports are views over that one
family.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator

from .boolexpr import Atom, Expr, as_expr
from .errors import ExpressionError, FaultkitError, SizeGuardExceeded
from .jsonio import NAMES, dot_escape, expect
from .model import SystemModel
from .records import Frozen

# Most worlds the enumeration weighs, and most (cut set, union) updates
# inclusion-exclusion makes.
WORK_LIMIT = 1 << 24


class CutSetReport(Frozen):
    """The minimal-cut-set family cut off at one cardinality layer.

    `mcs` holds every confirmed minimal cut set of cardinality <= the
    completed layer; the guarantee field states exactly that.  When
    `exhausted` is true the snapshot is the full minimal-cut-set family.
    """

    __slots__ = ("completed_cardinality", "mcs", "exhausted")

    def __init__(self, completed_cardinality: int, mcs: tuple[frozenset[str], ...],
                 exhausted: bool):
        self._set(completed_cardinality, mcs, exhausted)

    @property
    def guarantee(self) -> str:
        return (f"all minimal cut sets of cardinality <= "
                f"{self.completed_cardinality} are included")

    @property
    def fault_free_reachable(self) -> bool:
        """True when the empty cut set is minimal: the event is reachable
        with no faults at all.  Flagged prominently in rendered reports."""
        return any(len(s) == 0 for s in self.mcs)


class FaultTree(Frozen):
    """Two-level OR-of-ANDs tree; one AND gate per minimal cut set."""

    __slots__ = ("top", "gates")

    def __init__(self, top: str, gates: tuple[tuple[str, ...], ...]):
        self._set(top, gates)

    def to_json(self):
        return {"top": self.top, "gates": [list(g) for g in self.gates]}


def _check_tle(m: SystemModel, tle) -> Expr:
    expr = as_expr(tle)
    unknown = expr.atoms() - m.atoms
    if unknown:
        raise ExpressionError(f"top level event references unknown atoms: {sorted(unknown)}")
    return expr


def _masks(sets, events: list[str]) -> list[int]:
    """Each set as an int, bit i standing for events[i]."""
    bit = {f: 1 << i for i, f in enumerate(events)}
    return [sum(map(bit.__getitem__, s)) for s in sets]


def _by_size(masks: Iterable[int]) -> dict[int, list[int]]:
    """The distinct masks, grouped by the number of bits they set."""
    layers: dict[int, list[int]] = {}
    for mask in set(masks):
        layers.setdefault(mask.bit_count(), []).append(mask)
    return layers


def is_cut_set(m: SystemModel, tle, faults: Iterable[str]) -> bool:
    """Reachability of the event in the model restricted to fault set S."""
    expr = _check_tle(m, tle)
    allowed = frozenset(faults)
    stray = allowed - m.fault_atoms
    if stray:
        raise ExpressionError(f"not fault atoms: {sorted(stray)}")
    return bool(minimal_cause_sets(m, expr, {f: Atom(f) for f in allowed}))


def minimal_cause_sets(m: SystemModel, target: Expr,
                       causes: dict[str, Expr]) -> list[frozenset[str]]:
    """Minimal sets of causes under which a target state is reachable.

    `causes` maps each cause name to its predicate.  A path needs exactly
    the causes that hold somewhere along it, so one search over (state,
    mask of causes held so far) reaches every such set at the target states.
    A state carrying a fault atom outside `causes` is never entered.  The
    result is sorted by (size, sorted names); it is empty when no target
    state is reachable and holds the empty set when no cause is needed.
    """
    names = sorted(causes)
    forbidden = m.mask_of(m.fault_atoms - set(names))
    hits = m.condition(target)
    # held[state]: the mask of causes true there, None when never entered
    held = [0] * m.size
    for k, name in enumerate(names):
        bit = 1 << k
        held = [h | bit if x else h for h, x in zip(held, m.condition(causes[name]))]
    held = [None if x & forbidden else h for x, h in zip(m.masks, held)]
    seen = {(i, held[i]) for i in map(m.number.__getitem__, m.initial)
            if held[i] is not None}
    work = list(seen)
    found = set()
    while work:
        state, mask = work.pop()
        if hits[state]:
            found.add(mask)  # extending the path only adds causes
            continue
        for nxt in m.succ[state]:
            if held[nxt] is not None:
                pair = (nxt, mask | held[nxt])
                if pair not in seen:
                    seen.add(pair)
                    work.append(pair)
    # two distinct masks of one size never contain each other, so a mask
    # is tested only against the minimal masks of smaller sizes
    layers = _by_size(found)
    minimal: list[int] = []
    for size in sorted(layers):
        minimal += [mask for mask in layers[size]
                    if not any(k & mask == k for k in minimal)]
    sets = [frozenset(name for i, name in enumerate(names) if mask >> i & 1)
            for mask in minimal]
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


def enumerate_mcs(m: SystemModel, tle) -> Iterator[CutSetReport]:
    """Minimal cut sets, one report per cardinality layer 0..|faults|.

    Every layer is a view over the one family that `minimal_cause_sets`
    computes with every fault atom as a cause: layer k holds the minimal
    cut sets of cardinality <= k.  Faults need not be permanent.
    """
    expr = _check_tle(m, tle)
    family = minimal_cause_sets(m, expr, {f: Atom(f) for f in m.fault_atoms})
    top = len(m.fault_atoms)
    for k in range(top + 1):
        yield CutSetReport(k, tuple(s for s in family if len(s) <= k), k == top)


def final_mcs(m: SystemModel, tle) -> CutSetReport:
    report = None
    for report in enumerate_mcs(m, tle):
        pass
    return report


# -- fault trees -----------------------------------------------------------

def build_fault_tree(mcs: Iterable[frozenset[str]], name: str) -> FaultTree:
    """OR of ANDs, one AND gate per minimal cut set, order-normalized."""
    sets = [frozenset(s) for s in mcs]
    masks = _masks(sets, sorted(set().union(*sets)))
    layers = _by_size(masks)
    for a, mask in zip(sets, masks):
        # only a larger set can strictly contain a
        if any(mask & k == mask for size, layer in layers.items()
               if size > mask.bit_count() for k in layer):
            b = next(b for b, k in zip(sets, masks) if k != mask and mask & k == mask)
            raise ValueError(f"not an antichain: {sorted(a)} is a subset of {sorted(b)}")
    gates = sorted({tuple(sorted(s)) for s in sets})
    return FaultTree(name, tuple(gates))


def export_fault_tree_dot(ft: FaultTree) -> str:
    """Deterministic DOT rendering; shapes distinguish the top event (box),
    the OR gate (diamond), AND gates (invtrapezium) and basic events
    (circle).  An empty gate list renders a single 'unreachable' node."""
    lines = ["digraph fault_tree {", "  rankdir=TB;"]
    top = dot_escape(ft.top)
    if not ft.gates:
        lines.append(f'  "top" [label="{top}: unreachable", shape=box];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    lines.append(f'  "top" [label="{top}", shape=box];')
    if ft.gates == ((),):
        # The empty cut set is minimal: the event needs no faults at all.
        lines.append('  "true" [label="TRUE", shape=diamond];')
        lines.append('  "top" -> "true";')
        lines.append("}")
        return "\n".join(lines) + "\n"
    lines.append('  "or" [label="OR", shape=diamond];')
    lines.append('  "top" -> "or";')
    for i, gate in enumerate(ft.gates):
        gid = f"and{i}"
        lines.append(f'  "{gid}" [label="AND", shape=invtrapezium];')
        lines.append(f'  "or" -> "{gid}";')
        for event in map(dot_escape, gate):
            eid = f"{gid}_{event}"
            lines.append(f'  "{eid}" [label="{event}", shape=circle];')
            lines.append(f'  "{gid}" -> "{eid}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def mcs_to_json(mcs: Iterable[frozenset[str]]) -> list[list[str]]:
    """Canonical form: sorted fault-name lists, sorted by (size, lexicographic)."""
    return sorted(map(sorted, mcs), key=lambda group: (len(group), group))


def mcs_from_json(doc) -> list[frozenset[str]]:
    return [frozenset(expect(group, NAMES, f"cut set {i}"))
            for i, group in enumerate(expect(doc, list, "minimal-cut-set document"))]


# -- quantitative evaluation -----------------------------------------------

def _check_probs(mcs, probabilities) -> list[str]:
    events = sorted(set().union(*mcs)) if mcs else []
    for f in events:
        if f not in probabilities:
            raise ValueError(f"missing probability for basic event {f!r}")
    for f, p in probabilities.items():
        if not 0.0 <= expect(p, (int, float), f"probability of {f!r}") <= 1.0:
            raise ValueError(f"probability of {f!r} out of [0,1]: {p}")
    return events


def _weights(probs: list[float]) -> list[float]:
    """P(world) of every world over the events of `probs`, world bit i set
    when event i occurs; each product takes its factors in event order."""
    weights = [1.0]
    for p in probs:
        weights = [w * (1.0 - p) for w in weights] + [w * p for w in weights]
    return weights


def probability_by_enumeration(mcs, probabilities) -> float:
    """Sum P(world) over all fault subsets covering at least one cut set.

    The sorted events are bits, split into a low and a high half, and a
    world weighs its low half's weight times its high half's.  Under a high
    half h, a cut set whose high part lies in h covers the low worlds that
    hold its low part.  Those low worlds are flagged one byte each in an
    int, memoised per low part and ORed per high part, so each h costs one
    OR per distinct high part and one C-level sum over the flagged weights.
    More than WORK_LIMIT worlds raise SizeGuardExceeded."""
    sets = [frozenset(s) for s in mcs]
    events = _check_probs(sets, probabilities)
    if 1 << len(events) > WORK_LIMIT:
        raise SizeGuardExceeded(f"enumeration over {len(events)} basic events "
                                f"weighs more than {WORK_LIMIT} worlds")
    low = (len(events) + 1) // 2
    p = [probabilities[f] for f in events]
    low_weights, high_weights = _weights(p[:low]), _weights(p[low:])
    size = len(low_weights)
    cover: dict[int, int] = {}   # low part -> flags of the low worlds holding it
    by_high: dict[int, int] = {}  # high part -> flags its cut sets cover
    for s in _masks(sets, events):
        part = s & (size - 1)
        if part not in cover:
            cover[part] = int.from_bytes(
                bytes(x & part == part for x in range(size)), "little")
        by_high[s >> low] = by_high.get(s >> low, 0) | cover[part]
    total = 0.0
    for h, weight in enumerate(high_weights):
        flags = 0
        for part, covered in by_high.items():
            if part & h == part:
                flags |= covered
        if flags:
            total += weight * sum(itertools.compress(
                low_weights, flags.to_bytes(size, "little")))
    return total


def probability_by_inclusion_exclusion(mcs, probabilities) -> float:
    """Sum of (-1)^(|T|+1) P(union of T) over nonempty subfamilies T.

    Terms are grouped by their union: adding cut set s to the family
    turns each union u with coefficient c into u | s with -c and adds s
    with +1, so each distinct union keeps one exact integer coefficient and
    the cost is sets x distinct unions (at most 2^events), not 2^sets.
    More than WORK_LIMIT (cut set, union) updates raise SizeGuardExceeded,
    before the pass that would make them."""
    sets = [frozenset(s) for s in mcs]
    events = _check_probs(sets, probabilities)
    coefficients: dict[int, int] = {}
    work = 0
    for s in _masks(sets, events):
        work += len(coefficients) + 1
        if work > WORK_LIMIT:
            raise SizeGuardExceeded(f"inclusion-exclusion over {len(sets)} cut "
                                    f"sets makes more than {WORK_LIMIT} updates")
        grown = coefficients.copy()
        get = grown.get
        for union, c in coefficients.items():
            union |= s
            grown[union] = get(union, 0) - c
        grown[s] = get(s, 0) + 1
        coefficients = grown
    p = [probabilities[f] for f in events]
    total = 0.0
    for union, c in sorted(coefficients.items()):
        if c:
            term = 1.0
            for i, q in enumerate(p):
                if union >> i & 1:
                    term *= q
            total += c * term
    return total


def probability_routes(mcs, probabilities) -> tuple[float, float]:
    """(by enumeration, by inclusion-exclusion): both exact routes, each
    computed once; they must agree to 1e-12, or FaultkitError is raised
    (inclusion-exclusion cancels on many events)."""
    sets = [frozenset(s) for s in mcs]
    by_enum = probability_by_enumeration(sets, probabilities)
    by_ie = probability_by_inclusion_exclusion(sets, probabilities)
    if abs(by_enum - by_ie) > 1e-12:
        raise FaultkitError(
            f"probability routes disagree: enumeration={by_enum!r}, "
            f"inclusion-exclusion={by_ie!r}")
    return by_enum, by_ie


def evaluate_probability(mcs, probabilities) -> float:
    """Probability that at least one minimal cut set fully occurs, assuming
    statistically independent basic events.  Both exact routes are computed
    and must agree; the inclusion-exclusion value is returned."""
    return probability_routes(mcs, probabilities)[1]
