"""The benchmark's own, independent code: work counts and answer checks.

Nothing here calls faultkit.  Counts are computed from the generated
inputs and from the program's outputs; checks replay witnesses against the
model documents and recompute answers by other routes.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache


class Model:
    """Read-only view of a model document."""

    def __init__(self, doc: dict):
        self.states = doc["states"]
        self.initial = doc["initial"]
        self.observables = sorted(doc.get("observables", []))
        self.succ = {s: set() for s in self.states}
        for a, b in doc["transitions"]:
            self.succ[a].add(b)
        self.obs = {s: tuple(bool(v.get(a, False)) for a in self.observables)
                    for s, v in self.states.items()}

    def holds(self, condition: str, sid: str) -> bool:
        """Conditions the benchmark writes: atoms joined by one of | or &."""
        val = self.states[sid]
        if "|" in condition:
            return any(val.get(a.strip(), False) for a in condition.split("|"))
        return all(val.get(a.strip(), False) for a in condition.split("&"))

    def is_trace(self, steps) -> bool:
        return bool(steps) and steps[0] in self.initial and all(
            b in self.succ.get(a, ()) for a, b in zip(steps, steps[1:]))

    def obs_key(self, sid: str) -> str:
        """An observation as the diagnoser file format writes it."""
        return json.dumps(dict(zip(self.observables, self.obs[sid])),
                          sort_keys=True, separators=(",", ":"))


# -- counts ----------------------------------------------------------------------

def twin_pairs(m: Model) -> int:
    """Reachable observation-synchronised state pairs (the twin plant)."""
    todo = [(a, b) for a in m.initial for b in m.initial if m.obs[a] == m.obs[b]]
    seen = set(todo)
    while todo:
        a, b = todo.pop()
        for x in m.succ[a]:
            for y in m.succ[b]:
                if m.obs[x] == m.obs[y] and (x, y) not in seen:
                    seen.add((x, y))
                    todo.append((x, y))
    return len(seen)


def product_pairs(m: Model, diagnoser: dict) -> int:
    """Reachable (model state, diagnoser node) pairs."""
    todo = [(s, diagnoser["entry"][m.obs_key(s)]) for s in m.initial]
    seen = set(todo)
    while todo:
        s, node = todo.pop()
        for t in m.succ[s]:
            pair = (t, diagnoser["delta"][node][m.obs_key(t)])
            if pair not in seen:
                seen.add(pair)
                todo.append(pair)
    return len(seen)


def trace_count(m: Model, length: int) -> int:
    """Number of runs with `length` states."""
    ways = {s: 1 for s in m.initial}
    for _ in range(length - 1):
        nxt: dict[str, int] = {}
        for s, k in ways.items():
            for t in m.succ[s]:
                nxt[t] = nxt.get(t, 0) + k
        ways = nxt
    return sum(ways.values())


def probability(family: list[list[str]], probs: dict[str, float]) -> float:
    """P(some cut set fully occurs) by Shannon expansion on the events."""
    events = sorted(set().union(*map(set, family)))

    @lru_cache(maxsize=None)
    def p(i: int, sets: frozenset) -> float:
        if frozenset() in sets:
            return 1.0
        if not sets:
            return 0.0
        e = events[i]
        hit = frozenset(s - {e} for s in sets)
        miss = frozenset(s for s in sets if e not in s)
        return probs[e] * p(i + 1, hit) + (1 - probs[e]) * p(i + 1, miss)

    return p(0, frozenset(frozenset(s) for s in family))


def k_subsets(names, k: int) -> list[list[str]]:
    return [list(c) for c in itertools.combinations(sorted(names), k)]


# -- witness replay --------------------------------------------------------------------

def replay_critical_pair(m: Model, beta: str, delay: dict, pair: dict) -> str | None:
    """None when the pair is a genuine witness of non-diagnosability."""
    t1, t2, t = pair["trace1"], pair["trace2"], pair["t"]
    if not (m.is_trace(t1) and m.is_trace(t2)) or len(t1) != len(t2):
        return "critical pair traces are not runs of equal length"
    if any(m.obs[a] != m.obs[b] for a, b in zip(t1, t2)):
        return "critical pair traces are observably different"
    if not (0 <= t < len(t1) and m.holds(beta, t1[t])):
        return "condition does not hold on trace1 at t"
    kind, n = delay["kind"], delay.get("n", 0)
    if kind == "exact" and (len(t1) <= t + n or m.holds(beta, t2[t])):
        return "exact-delay pair does not defeat an alarm at t+n"
    if kind == "bound" and (len(t1) <= t + n or any(
            m.holds(beta, s) for s in t2[max(0, t - n):t + n + 1])):
        return "bounded-delay pair does not defeat an alarm within the window"
    if kind == "finite":
        if any(m.holds(beta, s) for s in t2):
            return "finite-delay confuser meets the condition"
        last = (t1[-1], t2[-1])
        if not any(x == t1[i] and y == t2[i] for i in range(len(t1))
                   for x in m.succ[last[0]] for y in m.succ[last[1]]):
            return "finite-delay pair does not close a loop"
    return None
