"""Explicit-state safety analysis toolkit.

Everything operates on small, explicit finite transition systems so that
each analysis has an exhaustive cross-check at desk scale: minimal cut
sets and fault trees, diagnosability and belief-state diagnoser synthesis
against delay-pattern alarm specifications, and timed failure propagation
graphs with behavioral validation, tightening, and synthesis.

The names below are re-exported lazily (PEP 562): `import faultkit` loads
no submodule, and the first use of a name imports the module that defines
it.  A command-line request thus pays only for the modules it uses.
"""

import importlib

_EXPORTS = {
    "boolexpr": ("Expr", "parse_expr"),
    "cutsets": ("CutSetReport", "FaultTree", "build_fault_tree", "enumerate_mcs",
                "evaluate_probability", "export_fault_tree_dot", "final_mcs",
                "is_cut_set", "mcs_to_json", "probability_by_enumeration",
                "probability_by_inclusion_exclusion"),
    "diagnosability": ("CriticalPair", "DiagnosabilityVerdict",
                       "check_diagnosability", "check_trace_diagnosability"),
    "errors": ("ExpressionError", "FaultkitError", "ModelFormatError",
               "ObservationError", "SizeGuardExceeded", "TraceError"),
    "fdispec": ("AlarmSpec", "BoundedDelay", "ExactDelay", "FiniteDelay", "GLOBAL",
                "TRACE", "eval_knowledge", "instantiate_pattern", "load_specs",
                "parse_specs"),
    "model": ("SystemModel", "Trace", "Violation", "load_model", "parse_model",
              "validate_model"),
    "synthesis": ("Diagnoser", "Verdict", "diagnoser_to_json", "export_diagnoser_dot",
                  "load_diagnoser", "run_diagnoser", "synthesize_diagnoser",
                  "verify_diagnoser"),
    "tfpg": ("ActivationTrace", "NodeMap", "Tfpg", "TfpgEdge", "behavioral_validate",
             "check_trace_consistency", "export_tfpg_dot", "load_node_map", "load_tfpg",
             "parse_tfpg", "tfpg_to_json", "tighten_edges", "validate_structure"),
    "tfpg_synthesis": ("DiscrepancyDecl", "SynthesisConfig", "load_synthesis_config",
                       "synthesize_tfpg"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:
        # submodules stay reachable as attributes of a bare `import faultkit`
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
