"""The benchmark's four workloads: request lists built from the seed.

A workload is a fixed batch of CLI requests.  Requests come in groups
whose order the seed shuffles; inside a group the order is fixed, because
a later request reads a file an earlier one wrote (a diagnoser, a TFPG).
`expect` is the exit code a correct program gives, or None when the
correctness gate decides it by a cross-check or an oracle.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

import gen


@dataclass
class Request:
    argv: list[str]
    expect: int | None
    meta: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    name: str
    requests: list[Request]
    docs: dict[str, object]  # every generated input file, by path
    in_process: bool


class Writer:
    """Writes JSON input files into one directory and remembers them."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.docs: dict[str, object] = {}

    def __call__(self, name: str, doc) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        self.docs[path] = doc
        return path

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


def _diagnoser_group(w: Writer, model: str, spec: str, alarm: str,
                     expect: int | None) -> list[Request]:
    """diag-check, synth-diagnoser and verify-diagnoser for one alarm; the
    verify request reads the diagnoser the synth request wrote."""
    base = ["--model", model, "--spec", spec, "--alarm", alarm]
    diagnoser = w.path(f"{os.path.basename(model)[:-5]}_{alarm}_diagnoser.json")
    meta = {"model": model, "spec": spec, "alarm": alarm, "diagnoser": diagnoser}
    return [Request(["diag-check", *base], expect, meta),
            Request(["synth-diagnoser", *base, "--out", diagnoser], 0, meta),
            Request(["verify-diagnoser", *base, "--diagnoser", diagnoser], expect, meta)]


def _flatten(rng: random.Random, groups: list[list[Request]]) -> list[Request]:
    rng.shuffle(groups)
    return [req for group in groups for req in group]


# -- kofn-family ------------------------------------------------------------------

KOFN_ALARMS = {6: ("low_exact2", "low_bound2", "low_finite", "fail_finite"),
               7: ("low_exact2", "fail_finite")}


def kofn_family(rng: random.Random, w: Writer) -> list[Request]:
    groups = []
    for n, alarms in KOFN_ALARMS.items():
        model = w(f"kofn{n}.json", gen.kofn_phase(n))
        spec = w(f"kofn{n}_alarms.json", gen.kofn_specs(rng.randrange(n)))
        for alarm in alarms:
            # `low` is diagnosable under every delay kind, one fault is not
            groups.append(_diagnoser_group(w, model, spec, alarm,
                                           1 if alarm == "fail_finite" else 0))
    return _flatten(rng, groups)


# -- random-partial ---------------------------------------------------------------

# Six models and their conditions, fixed: of the first 48 `partial-pool/k`
# models, the six whose subset-construction work is nearest 6,000 (5,814,
# 5,742, 6,126, 5,595, 6,133 and 6,108: over every set of states an
# observer can reach being unsure between, the transitions leaving its
# members), each with the conditions its own generator draws next.
# The seed renames observables and locations and orders the requests, so
# every seed asks for the same work.  Freely drawn models and conditions
# spread over 30x in cost, because the belief and product routes have no
# size guard.
PARTIAL_POOL = (9, 15, 34, 35, 36, 43)
PARTIAL_OBSERVABLES = 5


def random_partial(rng: random.Random, w: Writer) -> list[Request]:
    groups = []
    for k, index in enumerate(PARTIAL_POOL):
        pool = random.Random(f"partial-pool/{index}")
        base = gen.partial_model(pool, observables=PARTIAL_OBSERVABLES)
        model = w(f"partial{k}.json", gen.relabel(base, rng))
        alarms = [{"alarm": f"a{j}", "beta": cond, "delay": delay,
                   "diag": "global", "maximal": True}
                  for j, (cond, delay) in enumerate(zip(gen.partial_conditions(pool),
                                                        gen.PARTIAL_DELAYS))]
        spec = w(f"partial{k}_alarms.json", alarms)
        for alarm in alarms:
            groups.append(_diagnoser_group(w, model, spec, alarm["alarm"], None))
    return _flatten(rng, groups)


# -- ft-tfpg ------------------------------------------------------------------------

FT_FAULTS = 12
FT_KS = (4, 6)
FT_ANTICHAINS = (13, 15)
TFPG_NS = (4, 5)
TFPG_HORIZON = 5


def ft_tfpg(rng: random.Random, w: Writer) -> list[Request]:
    groups = []
    for k in FT_KS:
        doc = gen.faultonly_kofn(FT_FAULTS, k)
        rng.shuffle(doc["transitions"])
        model = w(f"faultonly{k}.json", doc)
        meta = {"model": model, "k": k}
        groups.append([Request(["mcs", "--model", model, "--tle", "down"], 0, meta)])
        groups.append([Request(["fault-tree", "--model", model, "--tle", "down"], 0, meta)])
    for sets in FT_ANTICHAINS:
        family, probs = gen.antichain(rng, sets)
        mcs, prob_file = w(f"antichain{sets}.json", family), w(f"probs{sets}.json", probs)
        groups.append([Request(["ft-prob", "--mcs", mcs, "--probs", prob_file], 0,
                               {"mcs": mcs, "probs": prob_file})])
    for n in TFPG_NS:
        model = w(f"kofn{n}.json", gen.kofn_phase(n))
        config = w(f"kofn{n}_tfpg_config.json", gen.kofn_tfpg_config(n))
        graph = w.path(f"kofn{n}_tfpg.json")
        run = ["--model", model, "--map", config, "--horizon", str(TFPG_HORIZON)]
        meta = {"model": model, "tfpg": graph, "horizon": TFPG_HORIZON}
        groups.append([Request(["tfpg-synth", *run, "--out", graph], 0, meta),
                       Request(["tfpg-validate", "--tfpg", graph], 0, meta),
                       Request(["tfpg-behavioral", "--tfpg", graph, *run], 0, meta),
                       Request(["tfpg-tighten", "--tfpg", graph, *run], 0, meta)])
    graph_doc, traces = gen.random_tfpg(rng)
    graph = w("random_tfpg.json", graph_doc)
    for j, trace in enumerate(traces):
        path = w(f"activation{j}.json", trace)
        groups.append([Request(["tfpg-check-trace", "--tfpg", graph, "--trace", path],
                               None, {"tfpg": graph, "trace": path})])
    return _flatten(rng, groups)


# -- cli-corpus ----------------------------------------------------------------------

C = "corpus/"
SENSOR = ["--model", C + "sensor_delay.json", "--spec", C + "alarms_sensor.json"]
POWER = ["--tfpg", C + "tfpg_power.json"]
BATTERY_TFPG = ["--tfpg", C + "tfpg_battery.json", "--model", C + "battery.json",
                "--map", C + "battery_map.json", "--horizon", "6"]

# Inputs the corpus lacks, fixed rather than seeded.  On the KNOWN_DEFECTS
# files the CLI crashes with a traceback (exit 1) instead of reporting an
# input error (exit 2); they count as failed requests until that is fixed.
CORPUS_EXTRA = {
    "battery_probs.json": {"b1_fail": 0.1, "b2_fail": 0.2},
    "sensor_trace.json": {"steps": ["n", "n", "f0", "f1", "f2", "f2"]},
    "sensor_obs.json": [{"warn": False}, {"warn": False}, {"warn": False}, {"warn": True}],
    "fault_clears.json": {"atoms": ["fault"], "faults": ["fault"], "states": {
        "a": {"fault": True}, "b": {}}, "initial": ["a"],
        "transitions": [["a", "b"], ["b", "b"]]},
    "not_a_list.json": {"warn": True},
    "broken.json": '{"atoms": [',
    "spec_missing_n.json": [{"alarm": "x", "beta": "fault",
                             "delay": {"kind": "exact"}, "diag": "global"}],
    "tfpg_nodes_list.json": {"modes": ["m"], "nodes": ["a", "b"], "edges": []},
}
KNOWN_DEFECTS = {"spec_missing_n.json", "tfpg_nodes_list.json"}


def corpus_requests(workdir: str) -> list[tuple[list[str], tuple[str, ...], int]]:
    """(argv without --format, formats it accepts, exit code a correct CLI
    gives).  Every one of the 14 subcommands appears; the request that
    writes the diagnoser file comes before the three that read it."""
    x = {name: os.path.join(workdir, name) for name in CORPUS_EXTRA}
    diagnoser = os.path.join(workdir, "sensor_diagnoser.json")
    jt, jd = ("json", "text"), ("json", "dot")
    return [
        (["validate-model", "--model", C + "battery.json"], jt, 0),
        (["validate-model", "--model", C + "intermittent.json"], jt, 0),
        (["validate-model", "--model", x["fault_clears.json"]], jt, 1),
        (["validate-model", "--model", x["broken.json"]], jt, 2),
        (["mcs", "--model", C + "battery.json", "--tle", "system_dead"], jt, 0),
        (["mcs", "--model", C + "battery.json", "--tle", "b1_fail | system_dead"], jt, 0),
        (["mcs", "--model", C + "battery.json"], jt, 2),
        (["fault-tree", "--model", C + "battery.json", "--tle", "power_low"], jd, 0),
        (["ft-prob", "--model", C + "battery.json", "--tle", "system_dead",
          "--probs", x["battery_probs.json"]], jt, 0),
        (["diag-check", *SENSOR], jt, 1),
        (["diag-check", "--model", C + "sensor_delay.json",
          "--spec", x["spec_missing_n.json"]], jt, 2),
        (["diag-check", "--model", C + "intermittent.json",
          "--spec", C + "alarms_intermittent.json"], jt, 1),
        (["trace-diag", *SENSOR, "--trace", x["sensor_trace.json"], "--time", "2",
          "--alarm", "t_exact2"], jt, 0),
        (["synth-diagnoser", *SENSOR], jd, 0),
        (["synth-diagnoser", *SENSOR, "--out", diagnoser], ("json",), 0),
        (["run-diagnoser", "--diagnoser", diagnoser, "--obs", x["sensor_obs.json"]], jt, 0),
        (["run-diagnoser", "--diagnoser", diagnoser, "--obs", x["not_a_list.json"]], jt, 2),
        (["verify-diagnoser", *SENSOR, "--diagnoser", diagnoser], jt, 1),
        (["tfpg-validate", *POWER], jt, 0),
        (["tfpg-validate", "--tfpg", C + "tfpg_modegap.json"], jt, 1),
        (["tfpg-validate", "--tfpg", x["tfpg_nodes_list.json"]], jt, 2),
        (["tfpg-check-trace", *POWER, "--trace", C + "power_trace_ok.json"], jt, 0),
        (["tfpg-check-trace", *POWER, "--trace", C + "power_trace_late.json"], jt, 1),
        (["tfpg-check-trace", *POWER, "--trace", C + "power_trace_cancel.json"], jt, 0),
        (["tfpg-behavioral", *BATTERY_TFPG], jt, 0),
        (["tfpg-tighten", *BATTERY_TFPG], jt, 0),
        (["tfpg-synth", "--model", C + "battery.json", "--map", C + "battery_synth.json",
          "--horizon", "6"], ("json", "dot", "text"), 0),
    ]


def cli_corpus(rng: random.Random, w: Writer) -> list[Request]:
    for name, doc in CORPUS_EXTRA.items():
        if isinstance(doc, str):
            with open(w.path(name), "w", encoding="utf-8") as fh:
                fh.write(doc)
        else:
            w(name, doc)
    groups, diagnoser_group = [], []
    for argv, formats, expect in corpus_requests(w.workdir):
        defect = next((d for d in KNOWN_DEFECTS if any(a.endswith(d) for a in argv)), None)
        req = Request([*argv, "--format", rng.choice(formats)], expect,
                      {"known_defect": defect})
        # one request writes the diagnoser file that three others read
        if "--out" in argv or "--diagnoser" in argv:
            diagnoser_group.append(req)
        else:
            groups.append([req])
    return _flatten(rng, groups + [diagnoser_group])


BUILDERS = {"cli-corpus": cli_corpus, "kofn-family": kofn_family,
            "random-partial": random_partial, "ft-tfpg": ft_tfpg}


def build(name: str, seed: int, workdir: str) -> Workload:
    os.makedirs(workdir, exist_ok=True)
    w = Writer(workdir)
    rng = random.Random(f"{name}/{seed}")
    requests = BUILDERS[name](rng, w)
    return Workload(name, requests, w.docs, name != "cli-corpus")
