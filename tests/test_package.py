"""The package's public surface: the names `faultkit` re-exports, lazily."""

import importlib
import re

import pytest

import faultkit

from .conftest import ROOT, bench_module, run_python

# The names the package exports, by the module that defines each.
EXPORTED = {
    "boolexpr": ["Expr", "parse_expr"],
    "cutsets": ["CutSetReport", "FaultTree", "build_fault_tree", "enumerate_mcs",
                "evaluate_probability", "export_fault_tree_dot", "final_mcs",
                "is_cut_set", "mcs_to_json", "probability_by_enumeration",
                "probability_by_inclusion_exclusion"],
    "diagnosability": ["CriticalPair", "DiagnosabilityVerdict", "check_diagnosability",
                       "check_trace_diagnosability"],
    "errors": ["ExpressionError", "FaultkitError", "ModelFormatError",
               "ObservationError", "SizeGuardExceeded", "TraceError"],
    "fdispec": ["AlarmSpec", "BoundedDelay", "ExactDelay", "FiniteDelay", "GLOBAL",
                "TRACE", "eval_knowledge", "instantiate_pattern", "load_specs",
                "parse_specs"],
    "model": ["SystemModel", "Trace", "Violation", "load_model", "parse_model",
              "validate_model"],
    "synthesis": ["Diagnoser", "Verdict", "diagnoser_to_json", "export_diagnoser_dot",
                  "load_diagnoser", "run_diagnoser", "synthesize_diagnoser",
                  "verify_diagnoser"],
    "tfpg": ["ActivationTrace", "NodeMap", "Tfpg", "TfpgEdge", "behavioral_validate",
             "check_trace_consistency", "export_tfpg_dot", "load_node_map", "load_tfpg",
             "parse_tfpg", "tfpg_to_json", "tighten_edges", "validate_structure"],
    "tfpg_synthesis": ["DiscrepancyDecl", "SynthesisConfig", "load_synthesis_config",
                       "synthesize_tfpg"],
}


def test_all_lists_the_exported_names():
    names = [name for group in EXPORTED.values() for name in group]
    assert len(names) == len(set(names)) == 64
    assert sorted(faultkit.__all__) == sorted(names)
    assert set(faultkit.__all__) <= set(dir(faultkit))


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_each_name_is_the_object_of_its_module(module):
    mod = importlib.import_module(f"faultkit.{module}")
    for name in EXPORTED[module]:
        assert getattr(faultkit, name) is getattr(mod, name), name
    assert getattr(faultkit, module) is mod


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        faultkit.no_such_name  # noqa: B018


def test_import_loads_no_submodule():
    proc = run_python("import sys, faultkit\n"
                      "loaded = lambda: sorted(m for m in sys.modules "
                      "if m.startswith('faultkit.'))\n"
                      "print(loaded())\n"
                      "faultkit.errors.TraceError\n"
                      "print(loaded())")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "['faultkit.errors']"]


def test_readme_quick_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    assert block.startswith("from faultkit import *")
    proc = run_python(block)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "0 []", "1 []", "2 [['b1_fail', 'b2_fail']]", "True",
        "[frozenset(), frozenset(), frozenset(), frozenset({'watch'})]", "True"]


@pytest.mark.parametrize("module,attr",
                         [probe[:2] for probe in bench_module("probes").PROBES])
def test_every_bench_probe_target_exists(module, attr):
    # the benchmark's traced runs wrap each of these with getattr
    assert callable(getattr(importlib.import_module(module), attr))
