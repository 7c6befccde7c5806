"""Span recording around calls into faultkit's public functions.

The benchmark does not change the library: it wraps module attributes
from outside.  A call is recorded as a span (name, start, end, parent,
request id) unless the innermost open span already belongs to the same
layer, so a layer's internal calls count in the caller's span.  Functions
that a module imports by name from another module (for example
`tfpg_synthesis` calling `tighten_edges`) are not seen: their time counts
in the caller's span too.  A generator function (`cutsets.enumerate_mcs`)
gets a span around each resume, since that is when its body runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

_DELAY = {"ExactDelay": "exact_s", "BoundedDelay": "bound_s", "FiniteDelay": "finite_s"}

# (module, attribute, span name); the span name is the per-layer metric it
# feeds.  A callable span name picks the metric from the call's arguments.
PROBES = [
    ("faultkit.cli", "load_model", "model.parse_s"),
    ("faultkit.cli", "validate_model", "model.validate_s"),
    ("faultkit.fdispec", "load_specs", "fdispec.spec_parse_s"),
    ("faultkit.diagnosability", "eval_knowledge", "fdispec.knowledge_s"),
    ("faultkit.diagnosability", "knowledge_counterexample", "fdispec.knowledge_s"),
    ("faultkit.diagnosability", "check_diagnosability",
     lambda m, spec: "diagnosability." + _DELAY[type(spec.delay).__name__]),
    ("faultkit.diagnosability", "check_trace_diagnosability", "diagnosability.trace_s"),
    ("faultkit.synthesis", "synthesize_diagnoser", "synthesis.synth_s"),
    ("faultkit.synthesis", "verify_diagnoser", "synthesis.verify_s"),
    ("faultkit.synthesis", "diagnoser_to_json", "synthesis.serialise_s"),
    ("faultkit.synthesis", "export_diagnoser_dot", "synthesis.serialise_s"),
    ("faultkit.synthesis", "load_diagnoser", "synthesis.load_s"),
    ("faultkit.synthesis", "run_diagnoser", "synthesis.run_s"),
    ("faultkit.cutsets", "enumerate_mcs", "cutsets.mcs_s"),
    ("faultkit.cutsets", "final_mcs", "cutsets.mcs_s"),
    ("faultkit.cutsets", "build_fault_tree", "cutsets.fault_tree_s"),
    ("faultkit.cutsets", "export_fault_tree_dot", "cutsets.fault_tree_s"),
    ("faultkit.cutsets", "evaluate_probability", "cutsets.prob_s"),
    ("faultkit.cutsets", "probability_by_enumeration", "cutsets.prob_s"),
    ("faultkit.cutsets", "probability_by_inclusion_exclusion", "cutsets.prob_s"),
    ("faultkit.tfpg", "load_tfpg", "tfpg.parse_s"),
    ("faultkit.tfpg", "activation_trace_from_json", "tfpg.parse_s"),
    ("faultkit.tfpg", "validate_structure", "tfpg.validate_s"),
    ("faultkit.tfpg", "check_trace_consistency", "tfpg.check_trace_s"),
    ("faultkit.tfpg", "behavioral_validate", "tfpg.behavioral_s"),
    ("faultkit.tfpg", "tighten_edges", "tfpg.tighten_s"),
    ("faultkit.tfpg_synthesis", "synthesize_tfpg", "tfpg_synthesis.synth_s"),
]

ROOT_SPAN = "cli.main_s"


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class SpanRecorder:
    """Spans of one process, held in memory until the caller takes them."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._open_layers: list[str] = []
        self.rid = None

    def enter(self, name: str) -> int | None:
        layer = _layer(name)
        if self._open_layers and self._open_layers[-1] == layer:
            return None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": self._open[-1] if self._open else None,
                           "rid": self.rid})
        self._open.append(len(self.spans) - 1)
        self._open_layers.append(layer)
        return self._open[-1]

    def exit(self, index: int | None) -> None:
        if index is None:
            return
        self.spans[index]["end"] = time.perf_counter()
        self._open.pop()
        self._open_layers.pop()

    def take(self) -> list[dict]:
        spans, self.spans = self.spans, []
        return spans

    def install(self) -> None:
        """Wrap every probed function.  Call once per process."""
        for module_name, attr, name in PROBES:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._wrap(getattr(module, attr), name))

    def _wrap(self, fn, name):
        layer = None if callable(name) else _layer(name)

        def same_layer() -> bool:
            # a call from inside the same layer is part of the caller's span
            return layer is not None and bool(self._open_layers) and \
                self._open_layers[-1] == layer

        def span_name(args, kwargs) -> str:
            return name(*args, **kwargs) if callable(name) else name

        if inspect.isgeneratorfunction(fn):
            # The body of a generator runs when it is resumed, not when it is
            # called: open a span around each resume.  (`send` and `throw`
            # are not forwarded; no probed generator is driven by them.)
            @functools.wraps(fn)
            def probed_gen(*args, **kwargs):
                gen, label = fn(*args, **kwargs), span_name(args, kwargs)
                while True:
                    index = None if same_layer() else self.enter(label)
                    try:
                        item = next(gen)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        self.exit(index)
                    yield item
            return probed_gen

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if same_layer():
                return fn(*args, **kwargs)
            index = self.enter(span_name(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(index)
        return probed


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: a span's duration minus the time its
    direct children cover (children never overlap: one thread)."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    totals: dict[str, float] = {}
    for span, kids in zip(spans, covered):
        totals[span["name"]] = totals.get(span["name"], 0.0) + \
            (span["end"] - span["start"]) - kids
    return totals
