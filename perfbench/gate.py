"""Correctness gate, run after the timed passes.

It decides which requests failed (wrong exit code, wrong verdict, a
traceback, a limit hit, or output that differs between passes), replays
every witness against the model, cross-checks diag-check verdicts against
the completeness conjunct of the synthesized maximal diagnoser, recomputes
cut sets and probabilities independently, runs the brute-force oracles of
`tests/oracles.py` on scaled-down instances of the same generators, and
compares output bytes with the reference outputs in `reference.json`.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import check
import gen

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")


def digest(code, stdout: str) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()


def reference_key(argv: list[str], workdir: str) -> str:
    return " ".join(a.replace(workdir, "$W") for a in argv)


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


class WrongAnswer(Exception):
    pass


def need(ok: bool, message: str) -> None:
    if not ok:
        raise WrongAnswer(message)


class Gate:
    """Collects per-request failures and problems for one workload run."""

    def __init__(self, workload):
        self.w = workload
        self.failed: dict[int, str] = {}   # request index -> reason
        self.problems: list[str] = []     # failures of gate-only requests

    def fail(self, i: int, reason: str) -> None:
        self.failed.setdefault(i, reason)

    @property
    def wrong(self) -> dict[int, str]:
        """Failures that are not listed as known defects."""
        return {i: r for i, r in self.failed.items()
                if not self.w.requests[i].meta.get("known_defect")}

    # -- outcomes -----------------------------------------------------------------

    def outcomes(self, passes: list[list[dict]], reference: dict, workdir: str) -> None:
        """Exit codes, errors, determinism and (cli-corpus) reference bytes."""
        refs = reference.get("cli-corpus", {})
        for i, req in enumerate(self.w.requests):
            replies = [p[i] for p in passes]
            for r in replies:
                if r["error"]:
                    self.fail(i, r["error"].strip().splitlines()[-1])
                elif req.expect is not None and r["code"] != req.expect:
                    self.fail(i, f"exit {r['code']}, expected {req.expect}")
            if len({digest(r["code"], r["stdout"]) for r in replies}) > 1:
                self.fail(i, "output differs between passes")
            if not self.w.in_process and not req.meta.get("known_defect"):
                key = reference_key(req.argv, workdir)
                if refs.get(key) != digest(replies[0]["code"], replies[0]["stdout"]):
                    self.fail(i, "output differs from the reference")

    # -- semantic checks ------------------------------------------------------------------

    def semantics(self, replies: list[dict]) -> dict:
        """Check answers of one pass and return the work counts it implies."""
        counts: dict[str, float] = {}

        def add(name, value):
            counts[name] = counts.get(name, 0) + value

        models: dict[str, check.Model] = {}

        def model(path):
            if path not in models:
                models[path] = check.Model(self.w.docs[path])
            return models[path]

        verdicts: dict[tuple, bool] = {}
        completeness: dict[tuple, bool] = {}
        for i, (req, r) in enumerate(zip(self.w.requests, replies)):
            doc = _model_doc(req.argv, self.w.docs)
            if doc is not None:
                add("model.states", len(doc["states"]))
                add("model.transitions", len(doc["transitions"]))
            if r["error"] or "--format" in req.argv and "json" not in req.argv:
                continue
            try:
                self._check_one(req, r, model, add, verdicts, completeness)
            except (KeyError, ValueError, TypeError, OSError) as err:
                self.fail(i, f"unreadable output: {err!r}")
            except WrongAnswer as err:
                self.fail(i, str(err))
        for key, diagnosable in verdicts.items():
            if key in completeness and completeness[key] != diagnosable:
                idx = next(i for i, q in enumerate(self.w.requests)
                           if q.command == "diag-check"
                           and (q.meta.get("model"), q.meta.get("alarm")) == key)
                self.fail(idx, "diag-check verdict disagrees with the completeness "
                               "of the synthesized maximal diagnoser")
        return counts

    def _check_one(self, req, r, model, add, verdicts, completeness):
        meta, cmd = req.meta, req.command
        if cmd == "diag-check" and "model" in meta:
            m = model(meta["model"])
            spec = _alarm(self.w.docs[meta["spec"]], meta["alarm"])
            doc = json.loads(r["stdout"])[meta["alarm"]]
            verdicts[(meta["model"], meta["alarm"])] = doc["diagnosable"]
            need((r["code"] == 0) == doc["diagnosable"], "exit code contradicts verdict")
            add("diagnosability.twin_pairs", check.twin_pairs(m))
            if not doc["diagnosable"]:
                pair = doc["critical_pair"]
                problem = check.replay_critical_pair(m, spec["beta"], spec["delay"], pair)
                need(problem is None, problem)
                add("diagnosability.witness_steps", len(pair["trace1"]))
        elif cmd == "synth-diagnoser" and "model" in meta:
            with open(meta["diagnoser"], encoding="utf-8") as fh:
                add("synthesis.beliefs", len(json.load(fh)["nodes"]))
        elif cmd == "verify-diagnoser" and "model" in meta:
            m = model(meta["model"])
            doc = json.loads(r["stdout"])[meta["alarm"]]
            need((r["code"] == 0) == doc["all_hold"], "exit code contradicts verdict")
            completeness[(meta["model"], meta["alarm"])] = doc["completeness"]["holds"]
            with open(meta["diagnoser"], encoding="utf-8") as fh:
                add("synthesis.product_pairs", check.product_pairs(m, json.load(fh)))
            for conj in ("correctness", "completeness", "maximality"):
                cex = doc.get(conj, {}).get("counterexample")
                if cex is not None:
                    need(m.is_trace(cex), f"{conj} counterexample is not a run")
                    add("synthesis.cex_steps", len(cex))
        elif cmd in ("mcs", "fault-tree") and "k" in meta:
            doc = json.loads(r["stdout"])
            sets = doc if cmd == "mcs" else doc["gates"]
            faults = self.w.docs[meta["model"]]["faults"]
            need([sorted(s) for s in sets] == check.k_subsets(faults, meta["k"]),
                 f"{cmd}: cut sets are not the {meta['k']}-subsets")
            add("cutsets.mcs_sets", len(sets))
        elif cmd == "ft-prob" and "mcs" in meta:
            family, probs = self.w.docs[meta["mcs"]], self.w.docs[meta["probs"]]
            want = check.probability(family, probs)
            doc = json.loads(r["stdout"])
            for key in ("probability", "by_enumeration", "by_inclusion_exclusion"):
                need(abs(doc[key] - want) <= 1e-9, f"ft-prob {key} {doc[key]} != {want}")
            add("cutsets.prob_sets", len(family))
            add("cutsets.prob_events", len(probs))
        elif cmd in ("tfpg-behavioral", "tfpg-tighten") and "horizon" in meta:
            add("tfpg.model_traces", check.trace_count(model(meta["model"]),
                                                       meta["horizon"] + 1))
        elif cmd == "tfpg-synth" and "tfpg" in meta:
            with open(meta["tfpg"], encoding="utf-8") as fh:
                add("tfpg_synthesis.edges", len(json.load(fh)["edges"]))
        elif cmd == "tfpg-check-trace" and "trace" in meta:
            from faultkit.tfpg import activation_trace_from_json, parse_tfpg
            from tests.oracles import naive_trace_consistent
            g = parse_tfpg(json.dumps(self.w.docs[meta["tfpg"]]))
            at = activation_trace_from_json(self.w.docs[meta["trace"]], g)
            want = 0 if naive_trace_consistent(g, at) else 1
            need(r["code"] == want, f"check-trace exit {r['code']}, oracle says {want}")

    # -- oracles on scaled-down instances ------------------------------------------------

    def oracles(self, serve, seed: int, reference: dict, workdir: str) -> None:
        """Scaled-down instances from this run's seed and from seed 0; the
        seed-0 outputs are also compared with the reference bytes."""
        refs = reference.get(self.w.name, {})
        for s in (seed, 0):
            for key, argv, want in scaled_instances(self.w.name, s, workdir):
                reply = serve(argv)
                label = f"scaled-down {key} (seed {s})"
                if reply["error"]:
                    self.problems.append(f"{label}: {reply['error'].strip()}")
                    continue
                got = want(reply)
                if got is not None:
                    self.problems.append(f"{label}: {got}")
                if s == 0 and refs.get(key) != digest(reply["code"], reply["stdout"]):
                    self.problems.append(f"{label}: output differs from the reference")


def _model_doc(argv, docs) -> dict | None:
    """The model a request parses, None when it names none or it is malformed."""
    if "--model" not in argv:
        return None
    path = argv[argv.index("--model") + 1]
    if path in docs:
        return docs[path]
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) and "states" in doc else None


def _alarm(specs: list[dict], name: str) -> dict:
    return next(a for a in specs if a["alarm"] == name)


def scaled_instances(workload: str, seed: int, workdir: str):
    """(key, argv, judge) triples for scaled-down instances of the workload's
    generators; judge(reply) returns a problem or None."""
    from workloads import Writer
    rng = random.Random(f"scaled/{workload}/{seed}")
    w = Writer(os.path.join(workdir, f"scaled{seed}"))
    os.makedirs(w.workdir, exist_ok=True)
    if workload == "kofn-family":
        return [_diag_instance(w, gen.kofn_phase(2), gen.kofn_specs(rng.randrange(2)))]
    if workload == "random-partial":
        specs = [{"alarm": f"a{j}", "beta": beta, "delay": delay, "diag": "global",
                  "maximal": True}
                 for j, (beta, delay) in enumerate(zip(["f0", "f0 | f1", "f1 & f2"],
                                                       gen.PARTIAL_DELAYS))]
        return [_diag_instance(
            w, gen.partial_model(rng, faults=3, locations=3, observables=2), specs)]
    if workload == "ft-tfpg":
        return [_mcs_instance(w), *_check_trace_instances(w, rng)]
    return []


def _diag_instance(w, doc: dict, specs: list[dict], horizon: int = 7):
    from faultkit.model import parse_model
    from tests import oracles
    m = parse_model(json.dumps(doc))

    def judge(reply):
        got = json.loads(reply["stdout"])
        for spec in specs:
            beta, delay = spec["beta"], spec["delay"]
            # the oracles search runs up to a horizon: make it cover the
            # witness (plus the step that closes a finite-delay loop)
            pair = got[spec["alarm"]].get("critical_pair")
            h = max(horizon, len(pair["trace1"]) + 1) if pair else horizon
            if delay["kind"] == "exact":
                want = oracles.oracle_diagnosable_exact(m, beta, delay["n"], h)
            elif delay["kind"] == "bound":
                want = oracles.oracle_diagnosable_bounded(m, beta, delay["n"], h)
            else:
                want = oracles.oracle_diagnosable_finite(m, beta, h)
            if got[spec["alarm"]]["diagnosable"] != want:
                return f"{spec['alarm']}: diag-check disagrees with the oracle"
        return None
    argv = ["diag-check", "--model", w("model.json", doc), "--spec", w("alarms.json", specs)]
    return "diag-check", argv, judge


def _mcs_instance(w):
    from faultkit.model import parse_model
    from tests import oracles
    doc = gen.faultonly_kofn(5, 2)
    m = parse_model(json.dumps(doc))

    def judge(reply):
        want = [sorted(s) for s in oracles.brute_force_mcs(m, "down")]
        return None if json.loads(reply["stdout"]) == want else \
            "mcs disagrees with the brute-force oracle"
    return "mcs", ["mcs", "--model", w("faultonly.json", doc), "--tle", "down"], judge


def _check_trace_instances(w, rng):
    from faultkit.tfpg import activation_trace_from_json, parse_tfpg
    from tests import oracles
    graph_doc, traces = gen.random_tfpg(rng, horizon=4)
    g = parse_tfpg(json.dumps(graph_doc))
    graph = w("tfpg.json", graph_doc)
    items = []
    for j, trace in enumerate(traces):
        want = 0 if oracles.naive_trace_consistent(g, activation_trace_from_json(trace, g)) else 1
        argv = ["tfpg-check-trace", "--tfpg", graph, "--trace", w(f"activation{j}.json", trace)]
        items.append((f"check-trace{j}", argv,
                      lambda reply, want=want: None if reply["code"] == want
                      else "check-trace disagrees with the oracle"))
    return items
