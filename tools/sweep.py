"""Same-bytes sweep of faultkit's subcommands: fixed families of inputs,
each invocation called in-process through `faultkit.cli.main`.

    python tools/sweep.py
    python tools/sweep.py --against REV

Run from anywhere: faultkit is imported from this checkout's `src`.  The
first form prints one line per invocation: its family, its argv, its exit
code and a SHA-256 of its stdout, of its stderr and of its `--out` file.
The inputs, `corpus/` among them, are written to a temporary directory, the
invocations run there and name their files relative to it, so the lines
depend on nothing but the code.  With `--against REV` the same invocations
also run on `git archive REV`, extracted under the temporary directory, in
a child process that imports faultkit from there; each line that differs
is printed with both sides' bytes, a summary counts the lines that differ
in each family, and the exit code is 1 when any does.  Either form exits 1
before it runs anything when a subcommand of `faultkit.cli` appears in no
invocation.

The families (5,202 invocations of all 14 subcommands):
- `tfpg`, `tfpg-validate` and the TFPG run checks `tfpg-behavioral`,
  `tfpg-tighten` and `tfpg-synth` (4,204):
  - `tfpg-validate` of a graph with a six-node propagation cycle and of
    one with six impossible nodes;
  - `tfpg_battery`, its variant with `d_dead`'s upper bounds at 1,
    `tfpg_power` and `tfpg_modegap` against `battery` and `battery_map` at
    H=1-9;
  - synthesis from `battery_synth` at H=1-9;
  - `kofn_phase(3..5)` synthesis at H=3-7, and their graphs synthesized at
    H=4 with two finite-bound variants at H=3-7;
  - kofn4's H=4 graph at H=8-12;
  - `random_model` seeds 0-59: synthesis with every fault and with the
    first left out at H=2-4, and the graph synthesized at H=3 with two
    finite-bound variants at H=2-4;
  - the mode-switch model with its five bound pairs at H=1-8.
  Validation and checks run in json and text; synthesis in json, text
  and dot, and in json to `--out`.
- `models`, model loading, `validate-model` and `mcs --tle` in json and
  text (502): the corpus models with each atom as the top level event, and
  battery's `b1_fail | system_dead`; `faultonly_kofn(12, 4)` and
  `(12, 6)` with their transitions shuffled by three seeds, for `down`;
  `kofn_phase(3..7)` for `low` and `warn`; the six `random-partial` pool
  models for each of their three conditions; `random_model` seeds 0-59 for
  their events; and the malformed-transition models of
  `tests/test_model.py`, which exit 2 with the message on stderr.
- `finite`, `diag-check` in json and text of each alarm file of
  `kofn_phase(3..6)` and of the six pool models, whole; then their
  finite-delay alarms (`low_finite` and `fail_finite`, `a2`):
  `diag-check` in json and text, `synth-diagnoser` to `--out`, then
  `verify-diagnoser` of that file in json and text (90).
- `beliefs`, the exact and bound alarms of the same models (`low_exact2`
  and `low_bound2`, `a0` and `a1`) in the same five invocations; then, for
  each of those ten alarm files, one `synth-diagnoser --out` of all its
  alarms, whose trackers share every belief, and `verify-diagnoser` of each
  alarm against that diagnoser in json and text (178).
- `candidates`, `verify-diagnoser` in json and text of three mutants of
  the synthesized diagnoser of each pool alarm (`a0`-`a2`) and of the
  `low_*` and `fail_finite` alarms of `kofn_phase(4..6)`: an alarm
  dropped from a node, the alarm added to a node and a delta edge
  redirected (174; `fail_finite` is raised nowhere, so its diagnosers
  have no node to drop it from).  Synthesized candidates meet the
  shortcut of a safety conjunct with no violating pair; these run its
  search.
- `corpus`, every request of the `cli-corpus` bench
  (`perfbench/workloads.corpus_requests`) in every format it accepts, on
  `corpus/` and the bench's extra input files (54).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import shutil
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKS = ("tfpg-behavioral", "tfpg-tighten")
MODELS = ("battery", "fully_obs", "intermittent", "sensor_delay", "unobservable")


def _dump(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path.name


def _model_doc(m) -> dict:
    """The model file of a parsed model."""
    return {"atoms": sorted(m.atoms), "faults": sorted(m.fault_atoms),
            "observables": sorted(m.observable_atoms), "modes": sorted(m.mode_atoms),
            "states": m.states, "initial": list(m.initial),
            "transitions": [[m.ids[i], m.ids[j]] for i, nxts in enumerate(m.succ)
                            for j in nxts]}


def _variants(work: Path, name: str, g) -> list[str]:
    """g and two variants whose upper bounds are drawn from tmin .. tmin + 3,
    written as graph files."""
    from faultkit.tfpg import Tfpg, TfpgEdge, tfpg_to_json

    files = [_dump(work / f"{name}.json", tfpg_to_json(g))]
    for k in (1, 2):
        rng = random.Random(f"{name}/{k}")
        bounded = Tfpg(g.modes, g.nodes, [TfpgEdge(e.src, e.dst, e.tmin,
                                                   e.tmin + rng.randint(0, 3), e.modes)
                                          for e in g.edges])
        files.append(_dump(work / f"{name}-b{k}.json", tfpg_to_json(bounded)))
    return files


def _structure_graphs(work: Path) -> list[str]:
    """Graph files for `tfpg-validate`: a propagation cycle through six
    discrepancies, and six discrepancies that no failure mode reaches
    through edges sharing a mode."""
    from faultkit.tfpg import Tfpg, TfpgEdge, tfpg_to_json

    ring = [f"d{k}" for k in range(6)]
    cycle = Tfpg(("on",), {"f": "FM", **dict.fromkeys(ring, "OR")},
                 [TfpgEdge(u, v, 0, 1, ("on",))
                  for u, v in [("f", "d0"), *zip(ring, ring[1:] + ring[:1])]])
    gap = Tfpg(("m0", "m1"), {"f": "FM", **{f"e{k}": "OR" for k in range(7)}},
               [TfpgEdge("f", "e0", 0, 1, ("m0",))]
               + [TfpgEdge("e0", f"e{k}", 0, 1, ("m1",)) for k in range(1, 7)])
    return [_dump(work / "tfpg_cycle.json", tfpg_to_json(cycle)),
            _dump(work / "tfpg_gap.json", tfpg_to_json(gap))]


def _checks(graph, model, nmap, horizons):
    return [[cmd, "--tfpg", graph, "--model", model, "--map", nmap, "--horizon", str(h),
             "--format", fmt]
            for h in horizons for cmd in CHECKS for fmt in ("json", "text")]


def _synth(model, config, horizons, name):
    runs = []
    for h in horizons:
        base = ["tfpg-synth", "--model", model, "--map", config, "--horizon", str(h)]
        runs += [base + ["--format", fmt] for fmt in ("json", "text", "dot")]
        runs.append(base + ["--out", f"out/{name}-h{h}.json"])
    return runs


def families(work: Path) -> list[tuple[str, list[str]]]:
    """Write the sweep's inputs into `work` and return its (family, argv)
    pairs, in the order they run: a family reads files an earlier one
    wrote."""
    sys.path[:0] = [str(ROOT), str(ROOT / "perfbench")]
    (work / "out").mkdir()
    shutil.copytree(ROOT / "corpus", work / "corpus")
    return [(name, argv) for name, family in (
        ("tfpg", tfpg_family), ("models", models_family), ("finite", finite_family),
        ("beliefs", beliefs_family), ("candidates", candidates_family),
        ("corpus", corpus_family)) for argv in family(work)]


def tfpg_family(work: Path) -> list[list[str]]:
    import gen
    from faultkit.model import parse_model
    from faultkit.tfpg import load_tfpg, tfpg_to_json
    from faultkit.tfpg_synthesis import SynthesisConfig, synthesize_tfpg
    from tests.test_acceptance import random_model
    from tests.test_tfpg import (MODE_SWITCH_BOUNDS, MODE_SWITCH_MAP, mode_switch_model,
                                 mode_switch_tfpg, random_synthesis_config)

    runs = [["tfpg-validate", "--tfpg", graph, "--format", fmt]
            for graph in _structure_graphs(work) for fmt in ("json", "text")]
    battery = tfpg_to_json(load_tfpg(work / "corpus" / "tfpg_battery.json"))
    for edge in battery["edges"]:
        if edge["to"] == "d_dead":
            edge["tmax"] = 1
    graphs = ["corpus/tfpg_battery.json", _dump(work / "tfpg_battery-dead1.json", battery),
              "corpus/tfpg_power.json", "corpus/tfpg_modegap.json"]
    for graph in graphs:
        runs += _checks(graph, "corpus/battery.json", "corpus/battery_map.json", range(1, 10))
    runs += _synth("corpus/battery.json", "corpus/battery_synth.json", range(1, 10), "battery")
    for n in (3, 4, 5):
        model = _dump(work / f"kofn{n}.json", gen.kofn_phase(n))
        config = _dump(work / f"kofn{n}-synth.json", gen.kofn_tfpg_config(n))
        runs += _synth(model, config, range(3, 8), f"kofn{n}")
        m = parse_model((work / model).read_text(encoding="utf-8"))
        g = synthesize_tfpg(m, SynthesisConfig.from_json(gen.kofn_tfpg_config(n)), 4).tfpg
        for graph in _variants(work, f"kofn{n}-h4", g):
            runs += _checks(graph, model, config, range(3, 8))
    runs += _checks("kofn4-h4.json", "kofn4.json", "kofn4-synth.json", range(8, 13))
    for seed in range(60):
        m, _ = random_model(seed)
        model = _dump(work / f"random{seed}.json", _model_doc(m))
        config = random_synthesis_config(m, random.Random(seed))
        every = _dump(work / f"random{seed}-synth.json", config)
        rest = _dump(work / f"random{seed}-rest.json", {**config, "fm": config["fm"][1:]})
        runs += _synth(model, every, range(2, 5), f"random{seed}")
        runs += _synth(model, rest, range(2, 5), f"random{seed}-rest")
        g = synthesize_tfpg(m, SynthesisConfig.from_json(config), 3).tfpg
        for graph in _variants(work, f"random{seed}-h3", g):
            runs += _checks(graph, model, every, range(2, 5))
    model = _dump(work / "mode_switch.json", _model_doc(mode_switch_model()))
    nmap = _dump(work / "mode_switch_map.json",
                 {"nodes": {n: str(e) for n, e in MODE_SWITCH_MAP.exprs.items()},
                  "modes": MODE_SWITCH_MAP.mode_map})
    for k, bounds in enumerate(MODE_SWITCH_BOUNDS):
        graph = _dump(work / f"mode_switch{k}.json", tfpg_to_json(mode_switch_tfpg(*bounds)))
        runs += _checks(graph, model, nmap, range(1, 9))
    return runs


def _models(model: str, tles) -> list[list[str]]:
    runs = [["validate-model", "--model", model, "--format", fmt] for fmt in ("json", "text")]
    return runs + [["mcs", "--model", model, "--tle", tle, "--format", fmt]
                   for tle in tles for fmt in ("json", "text")]


def _pool(k: int) -> tuple[dict, list[str]]:
    """The `random-partial` pool model k and its three conditions, as the
    benchmark draws them; `gen.PARTIAL_DELAYS` gives each condition's delay."""
    import gen
    from workloads import PARTIAL_OBSERVABLES, PARTIAL_POOL

    rng = random.Random(f"partial-pool/{PARTIAL_POOL[k]}")
    doc = gen.partial_model(rng, observables=PARTIAL_OBSERVABLES)
    return doc, gen.partial_conditions(rng)


def models_family(work: Path) -> list[list[str]]:
    import gen
    from tests.test_acceptance import random_model_doc
    from tests.test_model import FOLLOWERS, MALFORMED_TRANSITIONS, malformed_transition_doc

    runs = []
    for name in MODELS:
        atoms = json.loads((work / "corpus" / f"{name}.json").read_bytes())["atoms"]
        extra = ["b1_fail | system_dead"] if name == "battery" else []
        runs += _models(f"corpus/{name}.json", atoms + extra)
    for k in (4, 6):
        for seed in range(3):
            doc = gen.faultonly_kofn(12, k)
            random.Random(f"faultonly/{k}/{seed}").shuffle(doc["transitions"])
            runs += _models(_dump(work / f"faultonly{k}-{seed}.json", doc), ["down"])
    for n in range(3, 8):
        runs += _models(_dump(work / f"kofn{n}.json", gen.kofn_phase(n)), ["low", "warn"])
    for k in range(6):
        doc, conditions = _pool(k)
        runs += _models(_dump(work / f"partial{k}.json", doc), conditions)
    for seed in range(60):
        doc, tle = random_model_doc(seed)
        runs += _models(_dump(work / f"random{seed}-doc.json", doc), [tle])
    for name, (item, _) in MALFORMED_TRANSITIONS.items():
        for then, second in FOLLOWERS.items():
            doc = malformed_transition_doc(item, second)
            runs += _models(_dump(work / f"malformed-{name}-{then}.json", doc), ["x"])
    return runs


def _alarm_runs(model: str, spec: str, alarm: str) -> list[list[str]]:
    base = ["--model", model, "--spec", spec, "--alarm", alarm]
    diagnoser = f"out/{model[:-5]}-{alarm}-diagnoser.json"
    return ([["diag-check", *base, "--format", fmt] for fmt in ("json", "text")]
            + [["synth-diagnoser", *base, "--out", diagnoser]]
            + [["verify-diagnoser", *base, "--diagnoser", diagnoser, "--format", fmt]
               for fmt in ("json", "text")])


def _whole_file(model: str, spec: str) -> list[list[str]]:
    return [["diag-check", "--model", model, "--spec", spec, "--format", fmt]
            for fmt in ("json", "text")]


def finite_family(work: Path) -> list[list[str]]:
    """Run after `models_family`, whose kofn and pool model files it reads."""
    import gen

    runs = []
    for n in range(3, 7):
        spec = _dump(work / f"kofn{n}-alarms.json", gen.kofn_specs(n - 1))
        runs += _whole_file(f"kofn{n}.json", spec)
        for alarm in ("low_finite", "fail_finite"):
            runs += _alarm_runs(f"kofn{n}.json", spec, alarm)
    for k in range(6):
        _, conditions = _pool(k)
        spec = _dump(work / f"partial{k}-alarms.json",
                     [{"alarm": f"a{j}", "beta": beta, "delay": delay, "diag": "global",
                       "maximal": True}
                      for j, (beta, delay) in enumerate(zip(conditions, gen.PARTIAL_DELAYS))])
        runs += _whole_file(f"partial{k}.json", spec)
        runs += _alarm_runs(f"partial{k}.json", spec, "a2")
    return runs


def beliefs_family(work: Path) -> list[list[str]]:
    """Run after `finite_family`, whose alarm files it reads."""
    specs = {f"kofn{n}.json": f"kofn{n}-alarms.json" for n in range(3, 7)}
    specs.update({f"partial{k}.json": f"partial{k}-alarms.json" for k in range(6)})
    runs = []
    for model, spec in specs.items():
        for alarm in ("low_exact2", "low_bound2") if model.startswith("kofn") else ("a0", "a1"):
            runs += _alarm_runs(model, spec, alarm)
    # one diagnoser for every alarm of a file: its trackers share each belief
    for model, spec in specs.items():
        diagnoser = f"out/{model[:-5]}-diagnoser.json"
        runs.append(["synth-diagnoser", "--model", model, "--spec", spec, "--out", diagnoser])
        for item in json.loads((work / spec).read_text(encoding="utf-8")):
            runs += [["verify-diagnoser", "--model", model, "--spec", spec, "--alarm",
                      item["alarm"], "--diagnoser", diagnoser, "--format", fmt]
                     for fmt in ("json", "text")]
    return runs


def _mutants(doc: dict, alarm: str, rng: random.Random) -> list[dict]:
    """Copies of a diagnoser document with the alarm dropped from one node
    that raises it, added to one that does not, and one delta edge sent to
    another node; a mutant whose node or edge does not exist is left out."""
    nodes = sorted(doc["nodes"])
    edges = [(q, key) for q in sorted(doc["delta"]) for key in sorted(doc["delta"][q])]
    out = []
    for raising in (True, False):
        pick = [q for q in nodes if (alarm in doc["nodes"][q]) == raising]
        if pick:
            mutant = json.loads(json.dumps(doc))
            q = rng.choice(pick)
            mutant["nodes"][q] = sorted(set(doc["nodes"][q]) ^ {alarm})
            out.append(mutant)
    if edges and len(nodes) > 1:
        mutant = json.loads(json.dumps(doc))
        q, key = rng.choice(edges)
        mutant["delta"][q][key] = rng.choice([p for p in nodes if p != doc["delta"][q][key]])
        out.append(mutant)
    return out


def candidates_family(work: Path) -> list[list[str]]:
    """Run after `finite_family`, whose alarm files it reads."""
    from faultkit.fdispec import parse_specs
    from faultkit.model import parse_model
    from faultkit.synthesis import diagnoser_to_json, synthesize_diagnoser

    alarms = {f"kofn{n}.json": ("low_exact2", "low_bound2", "low_finite", "fail_finite")
              for n in range(4, 7)}
    alarms.update({f"partial{k}.json": ("a0", "a1", "a2") for k in range(6)})
    runs = []
    for model, names in alarms.items():
        spec = f"{model[:-5]}-alarms.json"
        m = parse_model((work / model).read_text(encoding="utf-8"))
        specs = {s.name: s for s in parse_specs((work / spec).read_text(encoding="utf-8"))}
        for alarm in names:
            doc = diagnoser_to_json(synthesize_diagnoser(m, [specs[alarm]]))
            for i, mutant in enumerate(_mutants(doc, alarm, random.Random(f"{model}/{alarm}"))):
                diagnoser = _dump(work / f"{model[:-5]}-{alarm}-mutant{i}.json", mutant)
                runs += [["verify-diagnoser", "--model", model, "--spec", spec, "--alarm", alarm,
                          "--diagnoser", diagnoser, "--format", fmt] for fmt in ("json", "text")]
    return runs


def corpus_family(work: Path) -> list[list[str]]:
    """The `cli-corpus` bench's requests, in every format each accepts; they
    read `corpus/` and the extra input files, written beside it."""
    from workloads import CORPUS_EXTRA, corpus_requests

    for name, doc in CORPUS_EXTRA.items():
        (work / name).write_text(doc if type(doc) is str else json.dumps(doc), encoding="utf-8")
    return [[*argv, "--format", fmt] for argv, formats, _ in corpus_requests("")
            for fmt in formats]


def _sha(data: bytes | None) -> str:
    return "missing" if data is None else hashlib.sha256(data).hexdigest()


def invoke(argv: list[str]) -> tuple[str, dict[str, bytes | None]]:
    """Run one invocation in the current directory: its line and its bytes."""
    from faultkit import cli

    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    if out is not None:
        Path(out).unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exit_:
            code = exit_.code
        except Exception as err:  # a crash is a result to compare, not the sweep's end
            code = f"raised {type(err).__name__}: {err}"
    blobs = {"stdout": stdout.getvalue().encode(), "stderr": stderr.getvalue().encode()}
    if out is not None:
        blobs[out] = Path(out).read_bytes() if Path(out).exists() else None
    line = "\t".join([" ".join(argv), f"exit {code}",
                      *(f"{name} {_sha(data)}" for name, data in blobs.items())])
    return line, blobs


def run_all(work: str, record: str | None = None) -> list[str]:
    """Run the invocations listed in work/argv.json from `work` and return
    their lines; with `record`, also write each line and its bytes there,
    as one JSON line per invocation."""
    lines = []
    with contextlib.chdir(work), \
            (open(record, "w", encoding="utf-8") if record else contextlib.nullcontext()) as sink:
        for family, argv in json.loads(Path("argv.json").read_text(encoding="utf-8")):
            line, blobs = invoke(argv)
            line = f"{family}\t{line}"
            lines.append(line)
            if record:
                texts = {name: None if data is None else data.decode()
                         for name, data in blobs.items()}
                sink.write(json.dumps([line, texts]) + "\n")
    return lines


def _against(rev: str, work: Path, record: Path) -> None:
    """Record each invocation at `rev` in a child process that imports
    faultkit from `git archive rev`, extracted beside `work`."""
    tree = work.parent / "rev"
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, filter="data")
    code = (f"import sys; sys.path[:0] = [{str(tree / 'src')!r}, {str(ROOT / 'tools')!r}]; "
            f"import sweep; sweep.run_all({str(work)!r}, {str(record)!r})")
    subprocess.run([sys.executable, "-c", code], check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="also run at this git revision and print the lines that differ")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from faultkit.cli import _COMMANDS

    with tempfile.TemporaryDirectory(prefix="faultkit-sweep-") as tmp:
        work = Path(tmp) / "work"
        work.mkdir()
        runs = families(work)
        missing = sorted(set(_COMMANDS) - {argv[0] for _, argv in runs})
        if missing:
            print(f"no invocation of {', '.join(missing)}", file=sys.stderr)
            return 1
        (work / "argv.json").write_text(json.dumps(runs), encoding="utf-8")
        if args.against is None:
            for line in run_all(str(work)):
                print(line)
            return 0
        theirs, ours = Path(tmp) / "rev.jsonl", Path(tmp) / "here.jsonl"
        _against(args.against, work, theirs)
        run_all(str(work), str(ours))
        codes, runs_by, differ_by = Counter(), Counter(), Counter()
        with open(theirs, encoding="utf-8") as old, open(ours, encoding="utf-8") as new:
            for (line_old, blobs_old), (line, blobs) in zip(map(json.loads, old),
                                                            map(json.loads, new)):
                family, _, code = line.split("\t")[:3]
                codes[code] += 1
                runs_by[family] += 1
                if line != line_old:
                    differ_by[family] += 1
                    print(f"{args.against}\t{line_old}\nhere\t{line}")
                    for name in blobs:
                        print(f"--- {name} at {args.against}\n{blobs_old.get(name)}\n"
                              f"--- {name} here\n{blobs[name]}")
        differ = differ_by.total()
        print(f"{differ} of {sum(codes.values())} invocations differ from {args.against} ("
              + ", ".join(f"{family}: {differ_by[family]} of {n}"
                          for family, n in runs_by.items())
              + "); " + ", ".join(f"{code}: {n}" for code, n in sorted(codes.items())))
        return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
