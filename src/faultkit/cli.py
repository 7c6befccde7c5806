"""Command-line front end.

Every analysis is a subcommand over file inputs.  Exit codes: 0 when the
analysis ran and the property holds (or an artifact was produced), 1 when
the analysis ran and the property fails (a report is still written), 2 on
usage or input errors.  Output bytes are deterministic for fixed inputs.

Start-up, not analysis, is most of a request on desk-scale models, so each
handler imports the analysis modules it uses and a request loads no other.
`Trace`, `load_model` and `validate_model` stay module-level names, called
through this module's namespace, so that a wrapper installed on
`faultkit.cli` sees every call.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import FaultkitError
from .jsonio import expect, read_json
from .model import Trace, load_model, validate_model


def _dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class CliInputError(Exception):
    pass


def _require(args, *names):
    for name in names:
        if getattr(args, name.replace("-", "_"), None) in (None, []):
            raise CliInputError(f"--{name} is required for this subcommand")


def _specs(args):
    from . import fdispec
    specs = fdispec.load_specs(args.spec)
    if args.alarm:
        matching = [s for s in specs if s.name == args.alarm]
        if not matching:
            raise CliInputError(f"no alarm named {args.alarm!r} in {args.spec}")
        return matching
    return specs


def _check_format(args, allowed):
    if args.format not in allowed:
        raise CliInputError(
            f"--format {args.format} is not supported here (allowed: "
            f"{', '.join(sorted(allowed))})")


# -- subcommand handlers ---------------------------------------------------------

def cmd_validate_model(args) -> int:
    _require(args, "model")
    report = validate_model(load_model(args.model))
    _check_format(args, {"json", "text"})
    if args.format == "text":
        lines = [str(v) for v in report] or ["model is valid"]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, _dump({"valid": not report,
                           "violations": [{"kind": v.kind, "subject": v.subject,
                                           "detail": v.detail} for v in report]}))
    return 0 if not report else 1


def cmd_mcs(args) -> int:
    from . import cutsets
    _require(args, "model", "tle")
    _check_format(args, {"json", "text"})
    m = load_model(args.model)
    reports = list(cutsets.enumerate_mcs(m, args.tle))
    final = reports[-1]
    doc = cutsets.mcs_to_json(final.mcs)
    if args.format == "text":
        lines = []
        for rep in reports:
            lines.append(f"layer {rep.completed_cardinality}: "
                         f"{len(rep.mcs)} minimal cut sets ({rep.guarantee})")
        if final.fault_free_reachable:
            lines.append("WARNING: the event is reachable with no faults at all")
        lines.extend(",".join(group) or "(empty)" for group in doc)
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, _dump(doc))
    return 0


def cmd_fault_tree(args) -> int:
    from . import cutsets
    _check_format(args, {"json", "dot"})
    name = args.name or "TLE"
    if args.mcs:
        groups = cutsets.mcs_from_json(read_json(args.mcs))
    else:
        _require(args, "model", "tle")
        m = load_model(args.model)
        groups = list(cutsets.final_mcs(m, args.tle).mcs)
        name = args.name or args.tle
    tree = cutsets.build_fault_tree(groups, name)
    if args.format == "dot":
        _emit(args, cutsets.export_fault_tree_dot(tree))
    else:
        _emit(args, _dump(tree.to_json()))
    return 0


def cmd_ft_prob(args) -> int:
    from . import cutsets
    _require(args, "probs")
    _check_format(args, {"json", "text"})
    if args.mcs:
        groups = cutsets.mcs_from_json(read_json(args.mcs))
    else:
        _require(args, "model", "tle")
        groups = list(cutsets.final_mcs(load_model(args.model), args.tle).mcs)
    probs = expect(read_json(args.probs), dict, f"probability file {args.probs}")
    by_enum, value = cutsets.probability_routes(groups, probs)
    doc = {"probability": value,
           "by_enumeration": by_enum,
           "by_inclusion_exclusion": value,
           "assumption": "basic events are statistically independent"}
    if args.format == "text":
        _emit(args, f"P(top level event) = {value!r}\n"
                    f"(assuming statistically independent basic events)\n")
    else:
        _emit(args, _dump(doc))
    return 0


def cmd_diag_check(args) -> int:
    from . import diagnosability, fdispec
    _require(args, "model", "spec")
    _check_format(args, {"json", "text"})
    m = load_model(args.model)
    specs = [s for s in _specs(args) if s.diag == fdispec.GLOBAL]
    if not specs:
        raise CliInputError("no global-row alarm specifications selected "
                            "(trace-local ones are checked with trace-diag)")
    results = {}
    ok = True
    for spec in specs:
        verdict = diagnosability.check_diagnosability(m, spec)
        results[spec.name] = verdict.to_json()
        ok = ok and verdict.diagnosable
    if args.format == "text":
        lines = [f"{name}: {'diagnosable' if doc['diagnosable'] else 'NOT diagnosable'}"
                 for name, doc in sorted(results.items())]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, _dump(results))
    return 0 if ok else 1


def cmd_trace_diag(args) -> int:
    from . import diagnosability
    _require(args, "model", "spec", "trace", "time")
    _check_format(args, {"json", "text"})
    m = load_model(args.model)
    tr = Trace.from_json(read_json(args.trace))
    results = {}
    ok = True
    for spec in _specs(args):
        verdict = diagnosability.check_trace_diagnosability(m, spec, tr, args.time)
        results[spec.name] = verdict.to_json()
        ok = ok and verdict.diagnosable
    if args.format == "text":
        lines = [f"{name}: {'trace-diagnosable' if doc['trace_diagnosable'] else 'NOT trace-diagnosable'}"
                 for name, doc in sorted(results.items())]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, _dump(results))
    return 0 if ok else 1


def cmd_synth_diagnoser(args) -> int:
    from . import synthesis
    _require(args, "model", "spec")
    _check_format(args, {"json", "dot"})
    m = load_model(args.model)
    d = synthesis.synthesize_diagnoser(m, _specs(args))
    if args.format == "dot":
        _emit(args, synthesis.export_diagnoser_dot(d))
    else:
        _emit(args, _dump(synthesis.diagnoser_to_json(d)))
    return 0


def cmd_run_diagnoser(args) -> int:
    from . import synthesis
    _require(args, "diagnoser", "obs")
    _check_format(args, {"json", "text"})
    d = synthesis.load_diagnoser(args.diagnoser)
    observations = expect(read_json(args.obs), list, f"observation file {args.obs}")
    alarms = synthesis.run_diagnoser(d, observations)
    doc = [sorted(a) for a in alarms]
    if args.format == "text":
        _emit(args, "\n".join(f"step {i}: {','.join(a) or '-'}"
                              for i, a in enumerate(doc)) + "\n")
    else:
        _emit(args, _dump(doc))
    return 0


def cmd_verify_diagnoser(args) -> int:
    from . import fdispec, synthesis
    _require(args, "model", "spec", "diagnoser")
    _check_format(args, {"json", "text"})
    m = load_model(args.model)
    d = synthesis.load_diagnoser(args.diagnoser)
    results = {}
    ok = True
    for spec in _specs(args):
        verdict = synthesis.verify_diagnoser(m, d, spec)
        results[spec.name] = verdict.to_json()
        results[spec.name]["pattern"] = str(fdispec.instantiate_pattern(spec))
        ok = ok and verdict.all_hold
    if args.format == "text":
        lines = []
        for name, doc in sorted(results.items()):
            for conj in ("correctness", "completeness", "maximality"):
                if conj in doc:
                    lines.append(f"{name}/{conj}: "
                                 f"{'holds' if doc[conj]['holds'] else 'FAILS'}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, _dump(results))
    return 0 if ok else 1


def cmd_tfpg_validate(args) -> int:
    from . import tfpg
    _require(args, "tfpg")
    _check_format(args, {"json", "text"})
    g = tfpg.load_tfpg(args.tfpg)
    findings = tfpg.validate_structure(g)
    problems = [f for f in findings if f.kind != "cycle-warning"]
    if args.format == "text":
        lines = [str(f) for f in findings] or ["structure is valid"]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, _dump({"valid": not problems,
                           "findings": [{"kind": f.kind, "subject": f.subject,
                                         "detail": f.detail} for f in findings]}))
    return 0 if not problems else 1


def cmd_tfpg_check_trace(args) -> int:
    from . import tfpg
    _require(args, "tfpg", "trace")
    _check_format(args, {"json", "text"})
    g = tfpg.load_tfpg(args.tfpg)
    at = tfpg.activation_trace_from_json(read_json(args.trace), g)
    ok, violations = tfpg.check_trace_consistency(g, at)
    if args.format == "text":
        lines = ["consistent"] if ok else [str(v) for v in violations]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, _dump({"consistent": ok, "violations": [str(v) for v in violations]}))
    return 0 if ok else 1


def _node_map(args):
    from . import tfpg
    doc = read_json(args.map)
    if isinstance(doc, dict) and "fm" in doc:
        # Synthesis configs double as node maps for behavioral checks.
        from . import tfpg_synthesis
        from .boolexpr import parse_expr
        config = tfpg_synthesis.SynthesisConfig.from_json(doc)
        return tfpg.NodeMap(
            {**{a: parse_expr(a) for a in config.fm_atoms},
             **{d.name: d.expr for d in config.discrepancies}},
            dict(config.mode_map))
    return tfpg.NodeMap.from_json(doc)


def cmd_tfpg_behavioral(args) -> int:
    from . import tfpg
    _require(args, "tfpg", "model", "map", "horizon")
    _check_format(args, {"json", "text"})
    g = tfpg.load_tfpg(args.tfpg)
    m = load_model(args.model)
    result = tfpg.behavioral_validate(g, m, _node_map(args), args.horizon)
    if args.format == "text":
        if result.complete:
            _emit(args, "complete\n")
        else:
            lines = ["INCOMPLETE", "witness: " + " ".join(result.witness.steps)]
            lines += [str(v) for v in result.violations]
            _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, _dump(result.to_json()))
    return 0 if result.complete else 1


def cmd_tfpg_tighten(args) -> int:
    from . import tfpg
    _require(args, "tfpg", "model", "map", "horizon")
    _check_format(args, {"json", "text"})
    g = tfpg.load_tfpg(args.tfpg)
    m = load_model(args.model)
    result = tfpg.tighten_edges(g, m, _node_map(args), args.horizon)
    if args.format == "text":
        lines = [json.dumps(c.to_json(), sort_keys=True) for c in result.changes]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, _dump(tfpg.tfpg_to_json(result.tfpg)))
    return 0


def cmd_tfpg_synth(args) -> int:
    from . import tfpg, tfpg_synthesis
    _require(args, "model", "map", "horizon")
    _check_format(args, {"json", "dot", "text"})
    m = load_model(args.model)
    config = tfpg_synthesis.SynthesisConfig.from_json(read_json(args.map))
    result = tfpg_synthesis.synthesize_tfpg(m, config, args.horizon)
    if args.format == "dot":
        _emit(args, tfpg.export_tfpg_dot(result.tfpg))
    elif args.format == "text":
        lines = [e.describe() for e in result.tfpg.edges]
        lines += [f"finding: {f}" for f in result.findings]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, _dump(tfpg.tfpg_to_json(result.tfpg)))
    if result.findings and not args.out:
        for finding in result.findings:
            print(f"note: {finding}", file=sys.stderr)
    return 0


_HANDLERS = {
    "validate-model": cmd_validate_model,
    "mcs": cmd_mcs,
    "fault-tree": cmd_fault_tree,
    "ft-prob": cmd_ft_prob,
    "diag-check": cmd_diag_check,
    "trace-diag": cmd_trace_diag,
    "synth-diagnoser": cmd_synth_diagnoser,
    "run-diagnoser": cmd_run_diagnoser,
    "verify-diagnoser": cmd_verify_diagnoser,
    "tfpg-validate": cmd_tfpg_validate,
    "tfpg-check-trace": cmd_tfpg_check_trace,
    "tfpg-behavioral": cmd_tfpg_behavioral,
    "tfpg-tighten": cmd_tfpg_tighten,
    "tfpg-synth": cmd_tfpg_synth,
}


def build_parser() -> argparse.ArgumentParser:
    # One flat parser: every subcommand takes the same flags, and each
    # handler checks the ones it needs (`_require`, `_check_format`).
    parser = argparse.ArgumentParser(
        prog="faultkit", usage="%(prog)s command [options]",
        description="explicit-state safety analysis: cut sets, fault trees, "
                    "diagnosability, diagnoser synthesis, and TFPGs")
    parser.add_argument("command", choices=list(_HANDLERS), metavar="command",
                        help="one of: " + ", ".join(_HANDLERS))
    parser.add_argument("--model", help="system model file (JSON)")
    parser.add_argument("--spec", help="alarm specification file (JSON)")
    parser.add_argument("--tfpg", help="TFPG file (JSON)")
    parser.add_argument("--map", help="node map or synthesis config file (JSON)")
    parser.add_argument("--trace", help="trace / activation-trace file (JSON)")
    parser.add_argument("--diagnoser", help="diagnoser file (JSON)")
    parser.add_argument("--obs", help="observation sequence file (JSON)")
    parser.add_argument("--mcs", help="minimal-cut-set file (JSON)")
    parser.add_argument("--tle", help="top level event expression")
    parser.add_argument("--probs", help="basic event probability file (JSON)")
    parser.add_argument("--alarm", help="restrict to one alarm from the spec file")
    parser.add_argument("--name", help="name for emitted artifacts")
    parser.add_argument("--time", type=int, help="time index into the trace")
    parser.add_argument("--horizon", type=int, help="analysis horizon (steps)")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=["json", "dot", "text"], default="json")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.horizon is not None and args.horizon < 1:
        print("error: --horizon must be >= 1", file=sys.stderr)
        return 2
    try:
        return _HANDLERS[args.command](args)
    except (CliInputError, FaultkitError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
