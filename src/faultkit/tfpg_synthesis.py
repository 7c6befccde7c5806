"""TFPG synthesis from a reference system model.

For each declared discrepancy the minimal cause sets of its predicate are
computed over a candidate cause universe holding the declared fault atoms
and the other discrepancies; a cause discrepancy is treated as a latched
pseudo-event, so excluding it from a candidate set forbids every state
satisfying its predicate.  Singleton cause sets become direct OR edges;
larger ones become helper AND nodes (or the discrepancy itself when it was
declared AND with a single multi-cause set).  Each (discrepancy, distinct
cause set) gets its own helper and every edge carries the one full mode
tuple, so no two AND nodes share their sources and target and no parallel
edges differ only in modes: there is nothing to merge.  A kept discrepancy
is unreachable without a declared fault, so every cause set holding it also
holds a fault: every singleton cause set is a failure mode, and no edge runs
from one OR node to another.  Finally the edge bounds are tightened.  The
construction explains every activation of a kept discrepancy by one of its
cause sets, and `tighten_edges` checks every run against the graph it
returns, so the output is complete with respect to the model at the
synthesis horizon.
"""

from __future__ import annotations

from .boolexpr import Expr, as_expr
from .cutsets import minimal_cause_sets
from .graphs import nodes_on_cycles
from .jsonio import NAME_MAP, NAMES, expect, field, read_json
from .model import SystemModel
from .records import Frozen, Record
from .tfpg import (AND, FM, INF, OR, NodeMap, Tfpg, TfpgEdge, TfpgError,
                   tighten_edges)


class DiscrepancyDecl(Frozen):
    __slots__ = ("name", "expr", "kind")

    def __init__(self, name: str, expr: Expr, kind: str):
        # kind: the OR or AND intent
        if kind not in (OR, AND):
            raise ValueError(f"discrepancy {name!r}: kind must be OR or AND")
        self._set(name, expr, kind)


class SynthesisConfig(Record):
    __slots__ = ("fm_atoms", "discrepancies", "mode_map")

    def __init__(self, fm_atoms: list[str], discrepancies: list[DiscrepancyDecl],
                 mode_map: dict[str, str]):
        # mode_map: TFPG mode -> mode atom
        self._set(fm_atoms, discrepancies, mode_map)

    @staticmethod
    def from_json(doc) -> "SynthesisConfig":
        where = "synthesis config"
        expect(doc, dict, where)
        fm = field(doc, "fm", NAMES, where)
        decls = []
        for name, item in field(doc, "discrepancies", dict, where).items():
            what = f"discrepancy {name!r}"
            expect(item, dict, what)
            decls.append(DiscrepancyDecl(name, as_expr(field(item, "expr", str, what)),
                                         field(item, "kind", str, what, OR)))
        return SynthesisConfig(fm, decls, dict(field(doc, "modes", NAME_MAP, where, {})))

    def node_map(self) -> NodeMap:
        """Each failure mode mapped to its fault atom and each declared
        discrepancy, kept by synthesis or not, to its predicate."""
        return NodeMap({**{atom: as_expr(atom) for atom in self.fm_atoms},
                        **{d.name: d.expr for d in self.discrepancies}},
                       dict(self.mode_map))


def load_synthesis_config(path) -> SynthesisConfig:
    return read_json(path, SynthesisConfig.from_json)


class SynthesisResult(Record):
    __slots__ = ("tfpg", "findings")

    def __init__(self, tfpg: Tfpg, findings: tuple[str, ...]):
        self._set(tfpg, findings)


def synthesize_tfpg(m: SystemModel, config: SynthesisConfig,
                    horizon: int) -> SynthesisResult:
    _check_config(m, config)
    findings: list[str] = []
    decls = {d.name: d for d in config.discrepancies}
    kept = _reachability_filter(m, config, findings)
    families = _cause_families(m, config, kept, findings)
    modes = tuple(sorted(config.mode_map)) if config.mode_map else ("nominal",)

    nodes: dict[str, str] = {atom: FM for atom in config.fm_atoms}
    edges: list[TfpgEdge] = []
    for name in sorted(families):
        family = sorted(families[name], key=lambda s: (len(s), sorted(s)))
        decl = decls[name]
        if decl.kind == AND and len(family) == 1 and len(family[0]) >= 2:
            nodes[name] = AND
            for cause in sorted(family[0]):
                edges.append(TfpgEdge(cause, name, 0, INF, modes))
            continue
        nodes[name] = OR
        helper_index = 0
        for causes in family:
            members = sorted(causes)
            if len(members) == 1:
                edges.append(TfpgEdge(members[0], name, 0, INF, modes))
            else:
                helper = f"{name}_and{helper_index}"
                helper_index += 1
                if helper in nodes or helper in decls:
                    raise TfpgError(f"helper node name {helper!r} collides "
                                    f"with a declared node")
                nodes[helper] = AND
                for cause in members:
                    edges.append(TfpgEdge(cause, helper, 0, INF, modes))
                edges.append(TfpgEdge(helper, name, 0, INF, modes))

    # tighten_edges returns only a graph that every run's projection is
    # consistent with, which is what behavioral validation checks
    tightened = tighten_edges(Tfpg(modes, nodes, edges), m, config.node_map(), horizon)
    return SynthesisResult(tightened.tfpg, tuple(findings))


def _check_config(m: SystemModel, config: SynthesisConfig) -> None:
    for atom in config.fm_atoms:
        if atom not in m.fault_atoms:
            raise TfpgError(f"{atom!r} is not a fault atom of the model")
    names = [d.name for d in config.discrepancies]
    if len(set(names)) != len(names):
        raise TfpgError("discrepancy names must be unique")
    clash = set(names) & set(config.fm_atoms)
    if clash:
        raise TfpgError(f"discrepancy names clash with fault atoms: {sorted(clash)}")
    for d in config.discrepancies:
        unknown = d.expr.atoms() - m.atoms
        if unknown:
            raise TfpgError(f"discrepancy {d.name!r} references unknown atoms "
                            f"{sorted(unknown)}")
    if m.mode_atoms:
        if set(config.mode_map.values()) != set(m.mode_atoms) or \
                len(set(config.mode_map.values())) != len(config.mode_map):
            raise TfpgError("mode map must be a bijection onto the model's mode atoms")
    elif config.mode_map:
        raise TfpgError("model declares no mode atoms; mode map must be empty")


def _fm_causes(config) -> dict[str, Expr]:
    return {atom: as_expr(atom) for atom in config.fm_atoms}


def _reachability_filter(m, config, findings) -> dict[str, list[frozenset[str]]]:
    """The fault-only cause family of each discrepancy that some fault set,
    and not the empty one, makes reachable, in declaration order."""
    kept = {}
    for d in config.discrepancies:
        family = minimal_cause_sets(m, d.expr, _fm_causes(config))
        if not family:
            findings.append(f"{d.name}: predicate unreachable even with all "
                            f"declared faults; excluded")
        elif frozenset() in family:
            findings.append(f"{d.name}: predicate reachable without any fault; "
                            f"excluded")
        else:
            kept[d.name] = family
    return kept


def _cause_families(m, config, kept, findings) -> dict[str, list[frozenset[str]]]:
    decls = {d.name: d for d in config.discrepancies}

    def family_over(name: str, cause_discs: list[str]) -> list[frozenset[str]]:
        causes = {**_fm_causes(config), **{c: decls[c].expr for c in cause_discs}}
        return minimal_cause_sets(m, decls[name].expr, causes)

    families = {name: family_over(name, [c for c in kept if c != name])
                for name in kept}
    cyclic = nodes_on_cycles(families, lambda name: {
        c for S in families[name] for c in S if c in families})
    for name in sorted(cyclic):
        findings.append(f"{name}: involved in a cause cycle; recomputed over "
                        f"fault causes only")
        families[name] = kept[name]
    return families
