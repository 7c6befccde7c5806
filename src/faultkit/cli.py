"""Command-line front end.

Every analysis is a subcommand over file inputs.  Exit codes: 0 when the
analysis ran and the property holds (or an artifact was produced), 1 when
the analysis ran and the property fails (a report is still written), 2 on
usage or input errors.  Output bytes are deterministic for fixed inputs.

A handler checks the flags it needs, runs its analysis and returns
(holds, doc, text): doc is the JSON report and text(fmt) renders the report
in a non-JSON format, or in every format when doc is None.  `main` alone
checks `--format` against the subcommand's row of `_COMMANDS`, before any
input is read, writes the report and turns the verdict into the exit code.

Start-up, not analysis, is most of a request on desk-scale models, so each
handler imports the analysis modules it uses and a request loads no other.
The record classes are plain `__slots__` classes (`faultkit.records`):
importing them generates no code and loads no `inspect`.
`Trace`, `load_model` and `validate_model` stay module-level names, called
through this module's namespace, so that a wrapper installed on
`faultkit.cli` sees every call.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .errors import FaultkitError
from .jsonio import expect, read_json
from .model import Trace, load_model, validate_model


def _dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _lines(lines) -> str:
    return "\n".join(lines) + "\n"


def _emit(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            raise CliInputError(f"cannot write {args.out}: {err.strerror or err}") from err
    else:
        sys.stdout.write(text)


class CliInputError(Exception):
    pass


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise CliInputError(f"--{name} is required for this subcommand")


def _specs(args, m):
    """The alarms of --spec, or the one --alarm names, each condition over
    atoms of the model m."""
    from . import fdispec
    specs = fdispec.load_specs(args.spec)
    if args.alarm:
        specs = [s for s in specs if s.name == args.alarm]
        if not specs:
            raise CliInputError(f"no alarm named {args.alarm!r} in {args.spec}")
    for spec in specs:
        unknown = spec.beta.atoms() - m.atoms
        if unknown:
            raise CliInputError(f"{args.spec}: alarm {spec.name!r} condition references "
                                f"unknown atoms: {sorted(unknown)}")
    return specs


# -- shared inputs and reports ---------------------------------------------------

def _findings(findings, problems, key: str, what: str):
    """Report of `model.Violation`s: valid when `problems` is empty."""
    doc = {"valid": not problems,
           key: [{"kind": f.kind, "subject": f.subject, "detail": f.detail}
                 for f in findings]}
    return not problems, doc, lambda fmt: _lines(
        [str(f) for f in findings] or [f"{what} is valid"])


def _verdicts(specs, check, label: str):
    """One verdict per alarm: holds when every alarm's does."""
    results, holds = {}, {}
    for spec in specs:
        verdict = check(spec)
        results[spec.name] = verdict.to_json()
        holds[spec.name] = verdict.diagnosable
    return all(holds.values()), results, lambda fmt: _lines(
        f"{name}: {'' if holds[name] else 'NOT '}{label}" for name in sorted(holds))


def _cut_sets(args):
    """The minimal cut sets in --mcs, or those of --tle in --model."""
    from . import cutsets
    if args.mcs:
        return read_json(args.mcs, cutsets.mcs_from_json)
    _require(args, "model", "tle")
    return list(cutsets.final_mcs(load_model(args.model), args.tle).mcs)


def _tfpg_inputs(args):
    """Graph, model and node map; a synthesis config doubles as a node map."""
    from . import tfpg
    _require(args, "tfpg", "model", "map", "horizon")

    def node_map(doc):
        if not (isinstance(doc, dict) and "fm" in doc):
            return tfpg.NodeMap.from_json(doc)
        from . import tfpg_synthesis
        return tfpg_synthesis.SynthesisConfig.from_json(doc).node_map()
    return tfpg.load_tfpg(args.tfpg), load_model(args.model), read_json(args.map, node_map)


# -- subcommand handlers ---------------------------------------------------------

def cmd_validate_model(args):
    _require(args, "model")
    report = validate_model(load_model(args.model))
    return _findings(report, report, "violations", "model")


def cmd_mcs(args):
    from . import cutsets
    _require(args, "model", "tle")
    reports = list(cutsets.enumerate_mcs(load_model(args.model), args.tle))
    final = reports[-1]
    doc = cutsets.mcs_to_json(final.mcs)

    def text(fmt):
        lines = [f"layer {rep.completed_cardinality}: "
                 f"{len(rep.mcs)} minimal cut sets ({rep.guarantee})" for rep in reports]
        if final.fault_free_reachable:
            lines.append("WARNING: the event is reachable with no faults at all")
        return _lines(lines + [",".join(group) or "(empty)" for group in doc])
    return True, doc, text


def cmd_fault_tree(args):
    from . import cutsets
    name = args.name or ("TLE" if args.mcs else args.tle)
    tree = cutsets.build_fault_tree(_cut_sets(args), name)
    return True, tree.to_json(), lambda fmt: cutsets.export_fault_tree_dot(tree)


def cmd_ft_prob(args):
    from . import cutsets
    _require(args, "probs")
    groups = _cut_sets(args)
    probs = read_json(args.probs, lambda doc: expect(doc, dict, "probabilities"))
    by_enum, value = cutsets.probability_routes(groups, probs)
    doc = {"probability": value,
           "by_enumeration": by_enum,
           "by_inclusion_exclusion": value,
           "assumption": "basic events are statistically independent"}
    return True, doc, lambda fmt: (f"P(top level event) = {value!r}\n"
                                   f"(assuming statistically independent basic events)\n")


def cmd_diag_check(args):
    from . import diagnosability, fdispec
    _require(args, "model", "spec")
    m = load_model(args.model)
    specs = [s for s in _specs(args, m) if s.diag == fdispec.GLOBAL]
    if not specs:
        raise CliInputError("no global-row alarm specifications selected "
                            "(trace-local ones are checked with trace-diag)")
    return _verdicts(specs, lambda spec: diagnosability.check_diagnosability(m, spec),
                     "diagnosable")


def cmd_trace_diag(args):
    from . import diagnosability
    _require(args, "model", "spec", "trace", "time")
    m = load_model(args.model)
    tr = read_json(args.trace, Trace.from_json)
    return _verdicts(_specs(args, m), lambda spec: diagnosability.check_trace_diagnosability(
        m, spec, tr, args.time), "trace-diagnosable")


def cmd_synth_diagnoser(args):
    from . import synthesis
    _require(args, "model", "spec")
    m = load_model(args.model)
    d = synthesis.synthesize_diagnoser(m, _specs(args, m))
    # the writer lays out the bytes _dump would give diagnoser_to_json(d)
    return True, None, lambda fmt: (synthesis.dump_diagnoser(d) if fmt == "json"
                                    else synthesis.export_diagnoser_dot(d))


def cmd_run_diagnoser(args):
    from . import synthesis
    _require(args, "diagnoser", "obs")
    d = synthesis.load_diagnoser(args.diagnoser)
    observations = read_json(args.obs, lambda doc: expect(doc, list, "observations"))
    doc = [sorted(a) for a in synthesis.run_diagnoser(d, observations)]
    return True, doc, lambda fmt: _lines(
        f"step {i}: {','.join(a) or '-'}" for i, a in enumerate(doc))


def cmd_verify_diagnoser(args):
    from . import fdispec, synthesis
    _require(args, "model", "spec", "diagnoser")
    m = load_model(args.model)
    d = synthesis.load_diagnoser(args.diagnoser)
    results = {}
    ok = True
    for spec in _specs(args, m):
        verdict = synthesis.verify_diagnoser(m, d, spec)
        results[spec.name] = verdict.to_json()
        results[spec.name]["pattern"] = " & ".join(fdispec.instantiate_pattern(spec).values())
        ok = ok and verdict.all_hold
    return ok, results, lambda fmt: _lines(
        f"{name}/{conj}: {'holds' if doc[conj]['holds'] else 'FAILS'}"
        for name, doc in sorted(results.items())
        for conj in ("correctness", "completeness", "maximality") if conj in doc)


def cmd_tfpg_validate(args):
    from . import tfpg
    _require(args, "tfpg")
    findings = tfpg.validate_structure(tfpg.load_tfpg(args.tfpg))
    problems = [f for f in findings if f.kind != "cycle-warning"]
    return _findings(findings, problems, "findings", "structure")


def cmd_tfpg_check_trace(args):
    from . import tfpg
    _require(args, "tfpg", "trace")
    g = tfpg.load_tfpg(args.tfpg)
    at = read_json(args.trace, lambda doc: tfpg.activation_trace_from_json(doc, g))
    ok, violations = tfpg.check_trace_consistency(g, at)
    lines = [str(v) for v in violations]
    return ok, {"consistent": ok, "violations": lines}, \
        lambda fmt: _lines(lines or ["consistent"])


def cmd_tfpg_behavioral(args):
    from . import tfpg
    result = tfpg.behavioral_validate(*_tfpg_inputs(args), args.horizon)
    lines = ["complete"] if result.complete else [
        "INCOMPLETE", "witness: " + " ".join(result.witness.steps),
        *map(str, result.violations)]
    return result.complete, result.to_json(), lambda fmt: _lines(lines)


def cmd_tfpg_tighten(args):
    from . import tfpg
    result = tfpg.tighten_edges(*_tfpg_inputs(args), args.horizon)
    return True, tfpg.tfpg_to_json(result.tfpg), lambda fmt: _lines(
        json.dumps(c.to_json(), sort_keys=True) for c in result.changes)


def cmd_tfpg_synth(args):
    from . import tfpg, tfpg_synthesis
    _require(args, "model", "map", "horizon")
    m = load_model(args.model)
    config = tfpg_synthesis.load_synthesis_config(args.map)
    result = tfpg_synthesis.synthesize_tfpg(m, config, args.horizon)
    for finding in result.findings:
        print(f"note: {finding}", file=sys.stderr)

    def text(fmt):
        if fmt == "dot":
            return tfpg.export_tfpg_dot(result.tfpg)
        return _lines([e.describe() for e in result.tfpg.edges]
                      + [f"finding: {f}" for f in result.findings])
    return True, tfpg.tfpg_to_json(result.tfpg), text


# Each row's formats are sorted: the format error lists them as written.
_JT, _JD = ("json", "text"), ("dot", "json")
_COMMANDS = {
    "validate-model": (cmd_validate_model, _JT),
    "mcs": (cmd_mcs, _JT),
    "fault-tree": (cmd_fault_tree, _JD),
    "ft-prob": (cmd_ft_prob, _JT),
    "diag-check": (cmd_diag_check, _JT),
    "trace-diag": (cmd_trace_diag, _JT),
    "synth-diagnoser": (cmd_synth_diagnoser, _JD),
    "run-diagnoser": (cmd_run_diagnoser, _JT),
    "verify-diagnoser": (cmd_verify_diagnoser, _JT),
    "tfpg-validate": (cmd_tfpg_validate, _JT),
    "tfpg-check-trace": (cmd_tfpg_check_trace, _JT),
    "tfpg-behavioral": (cmd_tfpg_behavioral, _JT),
    "tfpg-tighten": (cmd_tfpg_tighten, _JT),
    "tfpg-synth": (cmd_tfpg_synth, ("dot", "json", "text")),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    # One flat parser: every subcommand takes the same flags, each handler
    # checks the ones it needs (`_require`) and `main` checks `--format`.
    # Built once per process: parsing leaves it unchanged.
    parser = argparse.ArgumentParser(
        prog="faultkit", usage="%(prog)s command [options]",
        description="explicit-state safety analysis: cut sets, fault trees, "
                    "diagnosability, diagnoser synthesis, and TFPGs")
    parser.add_argument("command", choices=list(_COMMANDS), metavar="command",
                        help="one of: " + ", ".join(_COMMANDS))
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
    args = build_parser().parse_args(argv)
    handler, formats = _COMMANDS[args.command]
    if args.horizon is not None and args.horizon < 1:
        print("error: --horizon must be >= 1", file=sys.stderr)
        return 2
    try:
        if args.format not in formats:
            raise CliInputError(f"--format {args.format} is not supported here "
                                f"(allowed: {', '.join(formats)})")
        holds, doc, text = handler(args)
        _emit(args, text(args.format) if doc is None or args.format != "json" else _dump(doc))
    except (CliInputError, FaultkitError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        # the expression parser and evaluator recurse over the input's nesting
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main())
