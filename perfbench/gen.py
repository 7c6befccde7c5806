"""Seeded input generators for the benchmark.

Every generator returns plain JSON documents in the formats the faultkit
CLI reads, so the program under test only ever sees files.  The same
arguments (and the same `random.Random` state) always give the same
documents.
"""

from __future__ import annotations

import random

PHASES = ("phase_a", "phase_b", "phase_c")


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def kofn_phase(n: int) -> dict:
    """n redundant components with permanent faults, 3 cyclic phases and a
    one-step-delayed `warn` that repeats last step's `low` (at least half
    the components failed).  6 * 2**n states: (fault mask, phase, warn).
    At most one new fault per step."""
    comps = [f"c{i}_fail" for i in range(n)]
    states, transitions = {}, []

    def sid(mask, p, w):
        return f"s{mask}_{'abc'[p]}{int(w)}"

    for mask in range(1 << n):
        low = 2 * _popcount(mask) >= n
        for p in range(3):
            for w in (False, True):
                val = {c: True for i, c in enumerate(comps) if mask >> i & 1}
                val[PHASES[p]] = True
                if low:
                    val["low"] = True
                if w:
                    val["warn"] = True
                states[sid(mask, p, w)] = val
                nxt = [mask] + [mask | 1 << i for i in range(n) if not mask >> i & 1]
                for m2 in nxt:
                    transitions.append([sid(mask, p, w), sid(m2, (p + 1) % 3, low)])
    return {"atoms": comps + ["low", "warn", *PHASES], "faults": comps,
            "observables": ["warn", *PHASES], "modes": list(PHASES),
            "states": states, "initial": [sid(0, 0, False)],
            "transitions": transitions}


def kofn_specs(fail_index: int) -> list[dict]:
    """`low` under exact(2), bound(2) and finite delay (all diagnosable),
    and the single fault `c{i}_fail` under finite delay (not diagnosable:
    `warn` never says which component failed)."""
    def alarm(name, beta, delay):
        return {"alarm": name, "beta": beta, "delay": delay,
                "diag": "global", "maximal": True}
    return [alarm("low_exact2", "low", {"kind": "exact", "n": 2}),
            alarm("low_bound2", "low", {"kind": "bound", "n": 2}),
            alarm("low_finite", "low", {"kind": "finite"}),
            alarm("fail_finite", f"c{fail_index}_fail", {"kind": "finite"})]


def kofn_tfpg_config(n: int) -> dict:
    """TFPG synthesis config for `kofn_phase(n)`: every component fault is a
    failure mode; `low` and `warn` are discrepancies.  Doubles as the node
    map of tfpg-behavioral and tfpg-tighten."""
    return {"fm": [f"c{i}_fail" for i in range(n)],
            "discrepancies": {"d_low": {"expr": "low", "kind": "OR"},
                              "d_warn": {"expr": "warn", "kind": "OR"}},
            "modes": {p: p for p in PHASES}}


def faultonly_kofn(faults: int, k: int) -> dict:
    """Fault-only model: every fault mask is a state, faults occur one at a
    time, and `down` holds once at least k faults occurred.  Its minimal
    cut sets for `down` are exactly the k-subsets of the faults."""
    names = [f"f{i:02d}" for i in range(faults)]
    states, transitions = {}, []
    for mask in range(1 << faults):
        val = {f: True for i, f in enumerate(names) if mask >> i & 1}
        if _popcount(mask) >= k:
            val["down"] = True
        states[f"m{mask}"] = val
        transitions.append([f"m{mask}", f"m{mask}"])
        for i in range(faults):
            if not mask >> i & 1:
                transitions.append([f"m{mask}", f"m{mask | 1 << i}"])
    return {"atoms": names + ["down"], "faults": names, "observables": ["down"],
            "modes": [], "states": states, "initial": ["m0"],
            "transitions": transitions}


def partial_model(rng: random.Random, faults: int = 6, locations: int = 12,
                  observables: int = 4) -> dict:
    """Asymmetric model with partial observation: (fault mask, location)
    states.  Each location shows a random valuation of the observable
    atoms; each fault flips one observable at a few random locations.  The
    location graph and the fault transitions are random."""
    fnames = [f"f{i}" for i in range(faults)]
    onames = [f"o{j}" for j in range(observables)]
    base = [[rng.random() < 0.5 for _ in onames] for _ in range(locations)]
    flips = [{loc: rng.randrange(observables)
              for loc in rng.sample(range(locations), 3)} for _ in fnames]
    succ = [sorted(rng.sample(range(locations), rng.randint(1, 2)))
            for _ in range(locations)]
    # fault i can occur at location loc, moving to fault_to[i][loc]
    fault_to = [{loc: rng.randrange(locations)
                 for loc in range(locations) if rng.random() < 0.5} for _ in fnames]
    states, transitions = {}, []
    for mask in range(1 << faults):
        for loc in range(locations):
            obs = list(base[loc])
            for i in range(faults):
                if mask >> i & 1 and loc in flips[i]:
                    j = flips[i][loc]
                    obs[j] = not obs[j]
            val = {f: True for i, f in enumerate(fnames) if mask >> i & 1}
            val.update({o: True for o, v in zip(onames, obs) if v})
            here = f"m{mask}_l{loc}"
            states[here] = val
            for tgt in succ[loc]:
                transitions.append([here, f"m{mask}_l{tgt}"])
            for i in range(faults):
                if not mask >> i & 1 and loc in fault_to[i]:
                    transitions.append([here, f"m{mask | 1 << i}_l{fault_to[i][loc]}"])
    return {"atoms": fnames + onames, "faults": fnames, "observables": onames,
            "modes": [], "states": states, "initial": ["m0_l0"],
            "transitions": transitions}


# The delay each of `partial_conditions`' three conditions is checked under.
PARTIAL_DELAYS = ({"kind": "exact", "n": 2}, {"kind": "bound", "n": 2}, {"kind": "finite"})


def partial_conditions(rng: random.Random, faults: int = 6) -> list[str]:
    """One single fault, one disjunction and one conjunction of faults."""
    a, b, c, d, e = rng.sample(range(faults), 5)
    return [f"f{a}", f"f{b} | f{c}", f"f{d} & f{e}"]


def antichain(rng: random.Random, sets: int, events: int = 16) -> tuple[list[list[str]], dict]:
    """A seeded antichain of `sets` cut sets of 3 events each that together
    use all `events` basic events, plus a probability per event."""
    names = [f"e{i:02d}" for i in range(events)]
    while True:
        family: list[frozenset] = []
        while len(family) < sets:
            cand = frozenset(rng.sample(names, 3))
            if cand not in family:
                family.append(cand)
        if len(set().union(*family)) == events:
            break
    probs = {e: round(rng.uniform(0.01, 0.3), 4) for e in names}
    doc = [sorted(s) for s in sorted(family, key=sorted)]
    return doc, probs


def random_tfpg(rng: random.Random, horizon: int = 8) -> tuple[dict, list[dict]]:
    """A seeded layered TFPG over two modes (3 failure modes, 4
    discrepancies) and two activation traces over it: one that activates
    each discrepancy at its sources' times plus the edge minimum, and a
    copy with one discrepancy's activation added or removed.  Whether each
    is consistent is left to the checker and its oracle."""
    modes = ["m1", "m2"]
    fms = [f"fm{i}" for i in range(3)]
    discs = [f"d{i}" for i in range(4)]
    nodes = {n: {"kind": "FM"} for n in fms}
    nodes.update({d: {"kind": rng.choice(["OR", "AND"])} for d in discs})
    edges = []
    for j, d in enumerate(discs):
        for src in rng.sample(fms + discs[:j], 2 if j else 1):
            tmin = rng.randint(0, 2)
            edges.append({"from": src, "to": d, "tmin": tmin,
                          "tmax": rng.choice([tmin + rng.randint(0, 3), "inf"]),
                          "modes": sorted(rng.sample(modes, rng.randint(1, 2)))})
    timeline = [rng.choice(modes) for _ in range(horizon + 1)]
    times = {fm: (rng.randint(0, 2) if rng.random() < 0.7 else None) for fm in fms}
    for d in discs:
        srcs = [times[e["from"]] for e in edges if e["to"] == d]
        active = [t + e["tmin"] for t, e in zip(srcs, [e for e in edges if e["to"] == d])
                  if t is not None]
        pick = max if nodes[d]["kind"] == "AND" else min
        t = pick(active) if active and (nodes[d]["kind"] == "OR" or None not in srcs) else None
        times[d] = t if t is not None and t <= horizon else None
    moved = dict(times)
    victim = rng.choice(discs)
    moved[victim] = None if moved[victim] is not None else rng.randint(0, horizon)
    traces = [{"horizon": horizon, "mode_timeline": timeline, "activations": acts}
              for acts in (times, moved)]
    return {"modes": modes, "nodes": nodes, "edges": edges}, traces


def relabel(doc: dict, rng: random.Random) -> dict:
    """An isomorphic copy of a `partial_model` document with observables and
    locations renamed by seeded permutations; fault names are kept, so
    conditions over faults still apply."""
    def perm(names):
        shuffled = list(names)
        rng.shuffle(shuffled)
        return dict(zip(names, shuffled))

    atoms = {f: f for f in doc["faults"]}
    atoms.update(perm(doc["observables"]))
    loc = perm(sorted({sid.split("_l")[1] for sid in doc["states"]}, key=int))

    def sid(old):
        mask, here = old.split("_l")
        return f"{mask}_l{loc[here]}"

    return {"atoms": [atoms[a] for a in doc["atoms"]], "faults": doc["faults"],
            "observables": [atoms[a] for a in doc["observables"]], "modes": [],
            "states": {sid(s): {atoms[a]: v for a, v in val.items()}
                       for s, val in doc["states"].items()},
            "initial": [sid(s) for s in doc["initial"]],
            "transitions": [[sid(a), sid(b)] for a, b in doc["transitions"]]}
