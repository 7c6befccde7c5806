import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from faultkit.cli import _COMMANDS, main

from .conftest import corpus_json, corpus_path, run_python


def run_cli(*argv, out=None):
    args = list(argv)
    if out is not None:
        args += ["--out", str(out)]
    return main(args)


def run_capture(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


MODEL = str(corpus_path("battery.json"))
SENSOR = str(corpus_path("sensor_delay.json"))
SPECS = str(corpus_path("alarms_sensor.json"))
TFPG = str(corpus_path("tfpg_battery.json"))
MAP = str(corpus_path("battery_map.json"))
SYNTH = str(corpus_path("battery_synth.json"))
POWER = str(corpus_path("tfpg_power.json"))


def _battery_without_mode():
    # the battery model with no mode atom true in its initial state
    doc = corpus_json("battery.json")
    del doc["states"]["s00_a"]["phase_a"]
    return doc


class TestExitCodes:
    def test_validate_ok(self, capsys):
        code, out = run_capture(capsys, "validate-model", "--model", MODEL)
        assert code == 0
        assert json.loads(out)["valid"]

    def test_mcs_artifact(self, capsys):
        code, out = run_capture(capsys, "mcs", "--model", MODEL,
                                "--tle", "system_dead")
        assert code == 0
        assert json.loads(out) == [["b1_fail", "b2_fail"]]

    def test_diag_check_negative_verdict_is_exit_1(self, capsys):
        code, out = run_capture(capsys, "diag-check", "--model", SENSOR,
                                "--spec", SPECS, "--alarm", "a_exact1")
        assert code == 1
        doc = json.loads(out)
        assert not doc["a_exact1"]["diagnosable"]
        assert "critical_pair" in doc["a_exact1"]

    def test_diag_check_positive_verdict_is_exit_0(self, capsys):
        code, _ = run_capture(capsys, "diag-check", "--model", SENSOR,
                              "--spec", SPECS, "--alarm", "a_bound3")
        assert code == 0

    def test_unknown_flag_is_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "faultkit.cli", "mcs", "--frobnicate"],
            capture_output=True)
        assert proc.returncode == 2

    def test_missing_input_is_exit_2(self, capsys):
        assert run_cli("mcs", "--model", "no/such/file.json", "--tle", "x") == 2
        assert capsys.readouterr().err == \
            "error: no/such/file.json: cannot read: No such file or directory\n"

    def test_missing_required_flag_is_exit_2(self, capsys):
        assert run_cli("mcs", "--model", MODEL) == 2

    def test_bad_format_is_exit_2(self, capsys):
        assert run_cli("mcs", "--model", MODEL, "--tle", "system_dead",
                       "--format", "dot") == 2

    def test_bad_format_is_checked_before_inputs_are_read(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text("{\n")
        assert run_cli("validate-model", "--model", str(broken), "--format", "dot") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "error: --format dot is not supported here (allowed: json, text)\n"

    @pytest.mark.parametrize("argv,flag,doc", [
        (["diag-check", "--model", SENSOR], "--spec",
         [{"alarm": "x", "beta": "fault", "delay": {"kind": "exact"}}]),
        (["diag-check", "--model", SENSOR], "--spec",
         [{"alarm": "x", "beta": "fault", "delay": {"kind": "bound"}}]),
        (["tfpg-validate", "--model", SENSOR], "--tfpg",
         {"modes": ["m"], "nodes": ["f", "d"], "edges": []}),
        (["diag-check", "--model", SENSOR], "--spec",
         [{"alarm": "x", "beta": "fault", "delay": {"kind": "exact", "n": None}}]),
        (["diag-check", "--model", SENSOR], "--spec",
         [{"alarm": "x", "beta": "fault", "delay": "exact"}]),
        (["tfpg-validate"], "--tfpg",
         {"modes": ["m"], "nodes": {"f": "FM", "d": "OR"},
          "edges": [{"from": "f", "to": "d", "tmin": 0, "tmax": None, "modes": ["m"]}]}),
        (["diag-check", "--model", SENSOR], "--spec",
         [{"alarm": ["x"], "beta": "fault", "delay": {"kind": "finite"}}]),
        (["validate-model"], "--model",
         {"atoms": [], "states": {"s": {}}, "initial": [["s"]], "transitions": [["s", "s"]]}),
        (["validate-model"], "--model",
         {"atoms": [], "states": {"s": {}}, "initial": ["s"], "transitions": [[["s"], "s"]]}),
        (["verify-diagnoser", "--model", SENSOR, "--spec", SPECS], "--diagnoser",
         {"observables": ["warn"], "nodes": [], "entry": {}, "delta": {}}),
        (["verify-diagnoser", "--model", SENSOR, "--spec", SPECS], "--diagnoser",
         {"observables": ["warn"], "nodes": {"q": []}, "entry": {"1": "q"}, "delta": {}}),
        (["tfpg-check-trace", "--tfpg", POWER], "--trace",
         {"horizon": 1, "mode_timeline": ["primary", "primary"], "activations": []}),
        (["tfpg-synth", "--model", MODEL, "--horizon", "4"], "--map",
         {"fm": ["b1_fail"], "discrepancies": []}),
        (["tfpg-synth", "--model", MODEL, "--horizon", "4"], "--map",
         {"fm": ["b1_fail"], "discrepancies": {"d": "x"}}),
        (["ft-prob", "--model", MODEL, "--tle", "system_dead"], "--probs",
         {"b1_fail": "0.5", "b2_fail": 0.2}),
        # None: the flag names a directory instead of a file.
        (["diag-check", "--model", SENSOR], "--spec", None),
        (["trace-diag", "--model", SENSOR, "--spec", SPECS, "--alarm", "t_exact2",
          "--time", "99"], "--trace", {"steps": ["n", "f0", "f1", "f2", "f2"]}),
        (["trace-diag", "--model", SENSOR, "--spec", SPECS, "--alarm", "t_exact2",
          "--time", "-1"], "--trace", {"steps": ["n", "f0", "f1", "f2", "f2"]}),
        (["tfpg-behavioral", "--tfpg", TFPG, "--map", MAP, "--horizon", "4"], "--model",
         _battery_without_mode()),
        (["tfpg-synth", "--map", SYNTH, "--horizon", "4"], "--model",
         _battery_without_mode()),
        # the battery model has 1,001,001 runs of 1,001 states
        (["tfpg-behavioral", "--tfpg", TFPG, "--map", MAP, "--horizon", "1000"],
         "--model", corpus_json("battery.json")),
        # a str is written as it is: 200,000 nested lists, past the JSON
        # decoder's recursion
        (["validate-model"], "--model", "[" * 200_000),
        (["mcs", "--tle", "(" * 330 + "power_low" + ")" * 330], "--model",
         corpus_json("battery.json")),
        (["mcs", "--tle", " | ".join(["power_low"] * 600)], "--model",
         corpus_json("battery.json")),
    ], ids=["exact-without-n", "bound-without-n", "tfpg-nodes-list", "n-null",
            "delay-string", "tmax-null", "alarm-name-list", "initial-nested-list",
            "transition-nested-list", "diagnoser-nodes-list", "diagnoser-key-1",
            "activations-list", "discrepancies-list", "discrepancy-string",
            "probability-string", "spec-directory", "trace-time-99",
            "trace-time-minus-1", "behavioral-state-without-mode",
            "synth-state-without-mode", "behavioral-runs-over-limit",
            "json-nested-200000-deep", "tle-nested-330-deep", "tle-600-term-or"])
    def test_malformed_input_is_exit_2_without_traceback(self, tmp_path, argv,
                                                          flag, doc):
        path = tmp_path / "input.json"
        if doc is None:
            path = tmp_path
        else:
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "faultkit.cli", *argv, flag, str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_behavioral_past_the_recursion_limit_is_exit_0(self, tmp_path):
        # one run of 2,001 states: longer than Python's recursion limit
        model, tfpg, node_map = (tmp_path / f"{n}.json" for n in ("model", "tfpg", "map"))
        model.write_text(json.dumps({
            "atoms": ["f", "low"], "faults": ["f"], "observables": ["low"],
            "states": {"ok": {}, "bad": {"f": True, "low": True}}, "initial": ["ok"],
            "transitions": [["ok", "ok"], ["bad", "bad"]]}))
        tfpg.write_text(json.dumps({
            "modes": ["nominal"], "nodes": {"f": {"kind": "FM"}, "d": {"kind": "OR"}},
            "edges": [{"from": "f", "to": "d", "tmin": 0, "tmax": "inf",
                       "modes": ["nominal"]}]}))
        node_map.write_text(json.dumps({"nodes": {"f": "f", "d": "low"}}))
        assert run_cli("tfpg-behavioral", "--tfpg", str(tfpg), "--model", str(model),
                       "--map", str(node_map), "--horizon", "2000") == 0

    def test_out_into_missing_directory_is_exit_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert run_cli("mcs", "--model", MODEL, "--tle", "b1_fail", out=out) == 2
        assert capsys.readouterr().err == \
            f"error: cannot write {out}: No such file or directory\n"

    def test_probability_over_limit_is_exit_2(self, tmp_path, capsys):
        # 25 basic events make 2^25 worlds, past cutsets.WORK_LIMIT
        events = [f"e{i:02d}" for i in range(25)]
        mcs, probs = tmp_path / "mcs.json", tmp_path / "probs.json"
        mcs.write_text(json.dumps([[e] for e in events]))
        probs.write_text(json.dumps(dict.fromkeys(events, 0.1)))
        assert run_cli("ft-prob", "--mcs", str(mcs), "--probs", str(probs)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "worlds" in err

    def test_probability_routes_that_disagree_are_exit_2(self, tmp_path):
        # inclusion-exclusion cancels on 20 events at p = 0.9
        events = [f"e{i:02d}" for i in range(20)]
        mcs, probs = tmp_path / "mcs.json", tmp_path / "probs.json"
        mcs.write_text(json.dumps([[e] for e in events]))
        probs.write_text(json.dumps(dict.fromkeys(events, 0.9)))
        proc = subprocess.run(
            [sys.executable, "-m", "faultkit.cli", "ft-prob", "--mcs", str(mcs),
             "--probs", str(probs)], capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: probability routes disagree:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv,flag", [
        (["validate-model"], "--model"),
        (["diag-check", "--model", SENSOR], "--spec"),
        (["tfpg-validate"], "--tfpg"),
        (["verify-diagnoser", "--model", SENSOR, "--spec", SPECS], "--diagnoser"),
    ], ids=["model", "spec", "tfpg", "diagnoser"])
    def test_syntax_error_names_the_file(self, tmp_path, capsys, argv, flag):
        path = tmp_path / "broken.json"
        path.write_text("{\n")
        assert run_cli(*argv, flag, str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: syntax error:")

    @pytest.mark.parametrize("argv,flag,doc,message", [
        (["validate-model"], "--model", {"atoms": 3},
         "model: 'atoms' must be a list of names, got 3"),
        (["diag-check", "--model", SENSOR], "--spec", {}, "spec file must be a list, got {}"),
        (["tfpg-validate"], "--tfpg", [], "TFPG must be an object, got []"),
        (["tfpg-behavioral", "--tfpg", TFPG, "--model", MODEL, "--horizon", "4"], "--map",
         {"nodes": 3}, "node map: 'nodes' must be an object of names, got 3"),
        (["tfpg-synth", "--model", MODEL, "--horizon", "4"], "--map",
         {"fm": ["b1_fail"]}, "synthesis config: missing key 'discrepancies'"),
        (["trace-diag", "--model", SENSOR, "--spec", SPECS, "--time", "0"], "--trace",
         {"steps": "n"}, "trace: 'steps' must be a list of names, got \"n\""),
        (["tfpg-check-trace", "--tfpg", POWER], "--trace", {"mode_timeline": []},
         "activation trace: missing key 'horizon'"),
        # the line and column are the key's, which the message names
        (["verify-diagnoser", "--model", SENSOR, "--spec", SPECS], "--diagnoser",
         {"observables": ["warn"], "nodes": {"q": []}, "entry": {"{w:false}": "q"},
          "delta": {}},
         "observation key '{w:false}': syntax error: Expecting property name enclosed "
         "in double quotes (line 1, column 2)"),
        (["run-diagnoser", "--diagnoser", "{diagnoser}"], "--obs", {"warn": False},
         'observations must be a list, got {"warn": false}'),
        (["fault-tree"], "--mcs", [[1]], "cut set 0 must be a list of names, got [1]"),
        (["ft-prob", "--model", MODEL, "--tle", "system_dead"], "--probs", [0.5],
         "probabilities must be an object, got [0.5]"),
    ], ids=["model", "spec", "tfpg", "node-map", "synthesis-config", "trace",
            "activation-trace", "diagnoser", "obs", "mcs", "probs"])
    def test_format_error_names_the_file(self, tmp_path, capsys, argv, flag, doc, message):
        diagnoser = tmp_path / "diagnoser.json"
        diagnoser.write_text(json.dumps({
            "observables": ["warn"], "nodes": {"q": []},
            "entry": {'{"warn":false}': "q"}, "delta": {}}))
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        argv = [str(diagnoser) if a == "{diagnoser}" else a for a in argv]
        assert run_cli(*argv, flag, str(path)) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("beta,n,message", [
        ("fault &", 1, "unexpected end of expression: 'fault &'"),
        ("fault", 0, "alarm 'x': delay bound must be >= 1"),
    ], ids=["expression", "delay-bound"])
    def test_converter_error_names_the_file(self, tmp_path, capsys, beta, n, message):
        # an ExpressionError and a ValueError raised while converting the
        # decoded document, not by the format checks
        path = tmp_path / "spec.json"
        path.write_text(json.dumps([{"alarm": "x", "beta": beta,
                                     "delay": {"kind": "exact", "n": n}}]))
        assert run_cli("diag-check", "--model", SENSOR, "--spec", str(path)) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"


class TestDeterminismAndRoundTrip:
    def _bytes_of(self, tmp_path, name, *argv):
        out = tmp_path / name
        assert run_cli(*argv, out=out) in (0, 1)
        return out.read_bytes()

    def test_repeat_runs_byte_identical(self, tmp_path):
        cases = {
            "mcs": ("mcs", "--model", MODEL, "--tle", "system_dead"),
            "tree": ("fault-tree", "--model", MODEL, "--tle", "system_dead",
                     "--format", "dot"),
            "diag": ("diag-check", "--model", SENSOR, "--spec", SPECS),
            "synth": ("synth-diagnoser", "--model", SENSOR, "--spec", SPECS,
                      "--alarm", "a_bound3"),
            "tighten": ("tfpg-tighten", "--tfpg", TFPG, "--model", MODEL,
                        "--map", MAP, "--horizon", "6"),
            "tfpg-synth": ("tfpg-synth", "--model", MODEL, "--map", SYNTH,
                           "--horizon", "6"),
        }
        for name, argv in cases.items():
            first = self._bytes_of(tmp_path, name + ".1", *argv)
            second = self._bytes_of(tmp_path, name + ".2", *argv)
            assert first == second, name

    def test_mcs_feeds_fault_tree(self, tmp_path, capsys):
        mcs_file = tmp_path / "mcs.json"
        assert run_cli("mcs", "--model", MODEL, "--tle", "system_dead",
                       out=mcs_file) == 0
        code, out = run_capture(capsys, "fault-tree", "--mcs", str(mcs_file),
                                "--name", "system_dead")
        assert code == 0
        assert json.loads(out)["gates"] == [["b1_fail", "b2_fail"]]

    def test_mcs_feeds_probability(self, tmp_path, capsys):
        mcs_file = tmp_path / "mcs.json"
        run_cli("mcs", "--model", MODEL, "--tle", "system_dead", out=mcs_file)
        probs = tmp_path / "p.json"
        probs.write_text(json.dumps({"b1_fail": 0.5, "b2_fail": 0.5}))
        code, out = run_capture(capsys, "ft-prob", "--mcs", str(mcs_file),
                                "--probs", str(probs))
        assert code == 0
        doc = json.loads(out)
        assert doc["probability"] == pytest.approx(0.25)
        assert "independent" in doc["assumption"]

    def test_ft_prob_bytes_do_not_depend_on_string_hashing(self, tmp_path):
        # with these probabilities the product a*b*c rounds differently
        # depending on the order of its factors
        mcs = tmp_path / "mcs.json"
        mcs.write_text(json.dumps([["a", "b", "c"]]))
        probs = tmp_path / "p.json"
        probs.write_text(json.dumps({"a": 0.69, "b": 0.2, "c": 0.6}))
        outputs = set()
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "faultkit.cli", "ft-prob",
                 "--mcs", str(mcs), "--probs", str(probs)],
                capture_output=True, env={**os.environ, "PYTHONHASHSEED": seed})
            assert proc.returncode == 0
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_diagnoser_round_trip(self, tmp_path, capsys):
        dfile = tmp_path / "diagnoser.json"
        assert run_cli("synth-diagnoser", "--model", SENSOR, "--spec", SPECS,
                       "--alarm", "a_bound3", out=dfile) == 0
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps([{"warn": False}, {"warn": False},
                                   {"warn": False}, {"warn": True}]))
        code, out = run_capture(capsys, "run-diagnoser", "--diagnoser",
                                str(dfile), "--obs", str(obs))
        assert code == 0
        assert json.loads(out) == [[], [], [], ["a_bound3"]]
        code, out = run_capture(capsys, "verify-diagnoser", "--model", SENSOR,
                                "--spec", SPECS, "--alarm", "a_bound3",
                                "--diagnoser", str(dfile))
        assert code == 0
        assert json.loads(out)["a_bound3"]["all_hold"]

    def test_diagnoser_with_reordered_observables_verifies(self, tmp_path, capsys):
        model, dfile = str(corpus_path("fully_obs.json")), tmp_path / "diagnoser.json"
        assert run_cli("synth-diagnoser", "--model", model, "--spec", SPECS,
                       "--alarm", "a_exact1", out=dfile) == 0
        doc = json.loads(dfile.read_text())
        dfile.write_text(json.dumps(dict(doc, observables=doc["observables"][::-1])))
        code, out = run_capture(capsys, "verify-diagnoser", "--model", model,
                                "--spec", SPECS, "--alarm", "a_exact1",
                                "--diagnoser", str(dfile))
        assert code == 0
        assert json.loads(out)["a_exact1"]["all_hold"]

    def test_tightened_tfpg_reloads_and_validates(self, tmp_path):
        tightened = tmp_path / "tightened.json"
        assert run_cli("tfpg-tighten", "--tfpg", TFPG, "--model", MODEL,
                       "--map", MAP, "--horizon", "6", out=tightened) == 0
        assert run_cli("tfpg-validate", "--tfpg", str(tightened)) == 0
        assert run_cli("tfpg-behavioral", "--tfpg", str(tightened),
                       "--model", MODEL, "--map", MAP, "--horizon", "6") == 0

    def test_synthesized_tfpg_reloads_and_validates(self, tmp_path):
        synthesized = tmp_path / "synth.json"
        assert run_cli("tfpg-synth", "--model", MODEL, "--map", SYNTH,
                       "--horizon", "6", out=synthesized) == 0
        assert run_cli("tfpg-validate", "--tfpg", str(synthesized)) == 0
        assert run_cli("tfpg-behavioral", "--tfpg", str(synthesized),
                       "--model", MODEL, "--map", SYNTH, "--horizon", "6") == 0

    def test_tfpg_synth_notes_findings_with_out(self, tmp_path, capsys):
        config = corpus_json("battery_synth.json")
        config["discrepancies"]["d_never"] = {"expr": "power_low & !power_low"}
        path = tmp_path / "synth.json"
        path.write_text(json.dumps(config))
        assert run_cli("tfpg-synth", "--model", MODEL, "--map", str(path),
                       "--horizon", "6", out=tmp_path / "tfpg.json") == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("note: d_never: predicate unreachable even with "
                                "all declared faults; excluded\n")


class TestReports:
    def test_trace_diag(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps({"steps": ["n", "f0", "f1", "f2", "f2"]}))
        code, out = run_capture(capsys, "trace-diag", "--model", SENSOR,
                                "--spec", SPECS, "--alarm", "t_bound2",
                                "--trace", str(trace), "--time", "1")
        assert code == 0
        assert json.loads(out)["t_bound2"]["trace_diagnosable"]

    def test_verify_diagnoser_pattern_text(self, tmp_path, capsys):
        # all three delay kinds, global and trace-local, maximal or not
        diagnoser = tmp_path / "diagnoser.json"
        assert run_cli("synth-diagnoser", "--model", SENSOR, "--spec", SPECS,
                       out=diagnoser) == 0
        _, out = run_capture(capsys, "verify-diagnoser", "--model", SENSOR, "--spec", SPECS,
                             "--diagnoser", str(diagnoser))
        assert {name: doc["pattern"] for name, doc in json.loads(out).items()} == {
            "a_exact1": "G (a_exact1 -> Y^1 (fault)) & G ((fault) -> X^1 a_exact1)"
                        " & G (K Y^1 (fault) -> a_exact1)",
            "a_exact2": "G (a_exact2 -> Y^2 (fault)) & G ((fault) -> X^2 a_exact2)"
                        " & G (K Y^2 (fault) -> a_exact2)",
            "a_bound1": "G (a_bound1 -> O<=1 (fault)) & G ((fault) -> F<=1 a_bound1)"
                        " & G (K O<=1 (fault) -> a_bound1)",
            "a_bound2": "G (a_bound2 -> O<=2 (fault)) & G ((fault) -> F<=2 a_bound2)"
                        " & G (K O<=2 (fault) -> a_bound2)",
            "a_bound3": "G (a_bound3 -> O<=3 (fault)) & G ((fault) -> F<=3 a_bound3)"
                        " & G (K O<=3 (fault) -> a_bound3)",
            "a_finite": "G (a_finite -> O (fault)) & G ((fault) -> F a_finite)"
                        " & G (K O (fault) -> a_finite)",
            "t_exact2": "G (t_exact2 -> Y^2 (fault))"
                        " & G (((fault) -> X^2 K Y^2 (fault)) -> ((fault) -> X^2 t_exact2))",
            "t_bound2": "G (t_bound2 -> O<=2 (fault))"
                        " & G (((fault) -> F<=2 K O<=2 (fault)) -> ((fault) -> F<=2 t_bound2))"
                        " & G (K O<=2 (fault) -> t_bound2)",
            "t_finite": "G (t_finite -> O (fault))"
                        " & G (((fault) -> F K O (fault)) -> ((fault) -> F t_finite))",
        }

    def test_deep_exact_delay(self, tmp_path, capsys):
        # exact(20) has 2 ** 22 - 2 windows; only those runs reach are
        # numbered.  The digest pins the bytes of the diagnoser document.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([{"alarm": "deep", "beta": "fault", "diag": "trace",
                                     "delay": {"kind": "exact", "n": 20}}]))
        code, out = run_capture(capsys, "synth-diagnoser", "--model", SENSOR,
                                "--spec", str(spec))
        assert code == 0 and len(json.loads(out)["nodes"]) == 193
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "59980069d08433bba7e7a4211c06e9485ddd4b81f03b53723fea16f427dc120e"
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps({"steps": ["n"] * 5 + ["f0", "f1"] + ["f2"] * 40}))
        code, out = run_capture(capsys, "trace-diag", "--model", SENSOR, "--spec", str(spec),
                                "--trace", str(trace), "--time", "5")
        assert code == 0 and json.loads(out) == {"deep": {"trace_diagnosable": True}}
        trace.write_text(json.dumps({"steps": ["n"] * 3 + ["fh"] * 30 + ["fr"] * 10}))
        code, out = run_capture(capsys, "trace-diag", "--model",
                                str(corpus_path("intermittent.json")), "--spec", str(spec),
                                "--trace", str(trace), "--time", "5")
        assert code == 1
        assert json.loads(out) == {"deep": {"confuser": ["n"] * 25 + ["fh"],
                                            "trace_diagnosable": False}}

    def test_tfpg_check_trace(self, capsys):
        code, out = run_capture(
            capsys, "tfpg-check-trace",
            "--tfpg", str(corpus_path("tfpg_power.json")),
            "--trace", str(corpus_path("power_trace_late.json")))
        assert code == 1
        assert not json.loads(out)["consistent"]

    def test_tfpg_validate_findings(self, capsys):
        code, out = run_capture(capsys, "tfpg-validate", "--tfpg",
                                str(corpus_path("tfpg_modegap.json")))
        assert code == 1
        assert any(f["kind"] == "possibility" for f in json.loads(out)["findings"])

    def test_text_format(self, tmp_path, capsys):
        # One request per subcommand and non-JSON format it writes, with its
        # exit code and the first line and line count of its report.
        requests = corpus_requests(tmp_path)
        cases = [
            ("validate-model", "text", 0, "model is valid", 1),
            ("mcs", "text", 0,
             "layer 0: 0 minimal cut sets (all minimal cut sets of cardinality "
             "<= 0 are included)", 4),
            ("fault-tree", "dot", 0, "digraph fault_tree {", 14),
            ("ft-prob", "text", 0, "P(top level event) = 0.020000000000000004", 2),
            ("diag-check", "text", 1, "a_bound1: NOT diagnosable", 6),
            ("trace-diag", "text", 0, "t_exact2: trace-diagnosable", 1),
            ("synth-diagnoser", "dot", 0, "digraph diagnoser {", 14),
            ("run-diagnoser", "text", 0, "step 0: -", 4),
            ("verify-diagnoser", "text", 1, "a_bound1/correctness: holds", 25),
            ("tfpg-validate", "text", 1, "possibility: d2: not reachable from any "
             "failure mode through edges sharing a common mode", 1),
            ("tfpg-check-trace", "text", 1, "or-justification: d_press: activation "
             "at 5 is not explained by any incoming edge", 1),
            ("tfpg-behavioral", "text", 0, "complete", 1),
            ("tfpg-tighten", "text", 0,
             '{"edge": "fm_b1 -> d_dead [0,9] {phase_a,phase_b,phase_c}", '
             '"exercised": true, "new": [0, 5], "old": [0, 9], "promoted": false}', 4),
            ("tfpg-synth", "text", 0,
             "b1_fail -> d_dead [0,5] {phase_a,phase_b,phase_c}", 5),
            ("tfpg-synth", "dot", 0, "digraph tfpg {", 12),
        ]
        for command, fmt, code, first, n_lines in cases:
            got, out = run_capture(capsys, *requests[command], "--format", fmt)
            lines = out.splitlines()
            assert (got, lines[0], len(lines)) == (code, first, n_lines), (command, fmt)

    def test_json_report_shape(self, tmp_path, capsys):
        # Each subcommand's JSON report on its corpus request: the report's
        # top-level keys, each alarm's keys in a report keyed by alarm, or
        # the elements of a list report; and the exit code its verdicts give.
        global_alarms = ["a_exact1", "a_exact2", "a_bound1", "a_bound2", "a_bound3",
                         "a_finite"]
        verify = {"alarm", "correctness", "completeness", "all_hold", "pattern"}
        tfpg = {"modes", "nodes", "edges"}
        expected = {
            "validate-model": {"valid", "violations"},
            "mcs": NAME_LISTS,
            "fault-tree": {"top", "gates"},
            "ft-prob": {"probability", "by_enumeration", "by_inclusion_exclusion",
                        "assumption"},
            "diag-check": {"a_exact1": {"diagnosable", "critical_pair"},
                           "a_exact2": {"diagnosable"},
                           "a_bound1": {"diagnosable", "critical_pair"},
                           "a_bound2": {"diagnosable"}, "a_bound3": {"diagnosable"},
                           "a_finite": {"diagnosable"}},
            "trace-diag": {"t_exact2": {"trace_diagnosable"}},
            "synth-diagnoser": {"observables", "nodes", "entry", "delta"},
            "run-diagnoser": NAME_LISTS,
            "verify-diagnoser": {**{a: verify | {"maximality"} for a in global_alarms},
                                 "t_exact2": verify, "t_bound2": verify | {"maximality"},
                                 "t_finite": verify},
            "tfpg-validate": {"valid", "findings"},
            "tfpg-check-trace": {"consistent", "violations"},
            "tfpg-behavioral": {"complete"},
            "tfpg-tighten": tfpg,
            "tfpg-synth": tfpg,
        }
        requests = corpus_requests(tmp_path)
        assert set(requests) == set(expected) == set(_COMMANDS)
        for command, argv in requests.items():
            code, out = run_capture(capsys, *argv, "--format", "json")
            doc = json.loads(out)
            assert report_shape(command, doc) == expected[command], command
            assert code == (0 if all(verdicts(command, doc)) else 1), command


def corpus_requests(tmp_path):
    """One request per subcommand on corpus inputs; the inputs the corpus
    has no file for are written to tmp_path."""
    probs = tmp_path / "probs.json"
    probs.write_text(json.dumps({"b1_fail": 0.1, "b2_fail": 0.2}))
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"steps": ["n", "n", "f0", "f1", "f2", "f2"]}))
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps([{"warn": False}] * 3 + [{"warn": True}]))
    diagnoser = tmp_path / "diagnoser.json"
    assert run_cli("synth-diagnoser", "--model", SENSOR, "--spec", SPECS,
                   out=diagnoser) == 0
    sensor = ["--model", SENSOR, "--spec", SPECS]
    battery_tfpg = ["--tfpg", TFPG, "--model", MODEL, "--map", MAP, "--horizon", "6"]
    requests = [
        ["validate-model", "--model", MODEL],
        ["mcs", "--model", MODEL, "--tle", "system_dead"],
        ["fault-tree", "--model", MODEL, "--tle", "power_low"],
        ["ft-prob", "--model", MODEL, "--tle", "system_dead", "--probs", str(probs)],
        ["diag-check", *sensor],
        ["trace-diag", *sensor, "--trace", str(trace), "--time", "2", "--alarm", "t_exact2"],
        ["synth-diagnoser", *sensor],
        ["run-diagnoser", "--diagnoser", str(diagnoser), "--obs", str(obs)],
        ["verify-diagnoser", *sensor, "--diagnoser", str(diagnoser)],
        ["tfpg-validate", "--tfpg", str(corpus_path("tfpg_modegap.json"))],
        ["tfpg-check-trace", "--tfpg", POWER,
         "--trace", str(corpus_path("power_trace_late.json"))],
        ["tfpg-behavioral", *battery_tfpg],
        ["tfpg-tighten", *battery_tfpg],
        ["tfpg-synth", "--model", MODEL, "--map", SYNTH, "--horizon", "6"],
    ]
    return {argv[0]: argv for argv in requests}


# The verdict of each subcommand whose report has one: its key, and whether
# the report is keyed by alarm name with one verdict per alarm.  The CLI
# exits 1 exactly when a verdict is false.
VERDICT_KEYS = {
    "validate-model": ("valid", False),
    "diag-check": ("diagnosable", True),
    "trace-diag": ("trace_diagnosable", True),
    "verify-diagnoser": ("all_hold", True),
    "tfpg-validate": ("valid", False),
    "tfpg-check-trace": ("consistent", False),
    "tfpg-behavioral": ("complete", False),
}
# The shape of a list report whose elements are all lists of names.
NAME_LISTS = "lists of names"


def verdicts(command, doc) -> list:
    """The verdicts a subcommand's JSON report shows."""
    if command not in VERDICT_KEYS:
        return []
    key, per_alarm = VERDICT_KEYS[command]
    return [entry[key] for entry in doc.values()] if per_alarm else [doc[key]]


def report_shape(command, doc):
    """A JSON report's top-level keys, each alarm's keys in a report keyed
    by alarm, or NAME_LISTS for a list of lists of names."""
    if isinstance(doc, list):
        names = all(type(x) is list and all(type(y) is str for y in x) for x in doc)
        return NAME_LISTS if names else doc
    if VERDICT_KEYS.get(command, (None, False))[1]:
        return {alarm: set(entry) for alarm, entry in doc.items()}
    return set(doc)


# Inputs for the fuzz test: corpus files, plus the formats the corpus has no
# file for.  Each request reads the file named in braces from the fuzz
# directory and every other file unchanged.
OBS_KEY = {False: '{"warn":false}', True: '{"warn":true}'}
FUZZ_INPUTS = {
    "battery.json": corpus_json("battery.json"),
    "sensor_delay.json": corpus_json("sensor_delay.json"),
    "alarms_sensor.json": corpus_json("alarms_sensor.json"),
    "tfpg_power.json": corpus_json("tfpg_power.json"),
    "power_trace_ok.json": corpus_json("power_trace_ok.json"),
    "tfpg_battery.json": corpus_json("tfpg_battery.json"),
    "battery_map.json": corpus_json("battery_map.json"),
    "battery_synth.json": corpus_json("battery_synth.json"),
    "trace.json": {"steps": ["n", "n", "f0", "f1", "f2", "f2"]},
    "obs.json": [{"warn": False}, {"warn": False}, {"warn": True}],
    "probs.json": {"b1_fail": 0.1, "b2_fail": 0.2},
    "mcs.json": [["b1_fail", "b2_fail"]],
    "diagnoser.json": {
        "observables": ["warn"],
        "nodes": {"b0": [], "b1": ["a_bound3"]},
        "entry": {OBS_KEY[False]: "b0"},
        "delta": {"b0": {OBS_KEY[False]: "b0", OBS_KEY[True]: "b1"},
                  "b1": {OBS_KEY[True]: "b1"}}},
}
FUZZ_REQUESTS = [
    ("battery.json", ["validate-model", "--model", "{battery.json}"]),
    ("battery.json", ["mcs", "--model", "{battery.json}", "--tle", "system_dead"]),
    ("sensor_delay.json", ["diag-check", "--model", "{sensor_delay.json}",
                           "--spec", "{alarms_sensor.json}"]),
    ("alarms_sensor.json", ["diag-check", "--model", "{sensor_delay.json}",
                            "--spec", "{alarms_sensor.json}"]),
    ("trace.json", ["trace-diag", "--model", "{sensor_delay.json}", "--spec",
                    "{alarms_sensor.json}", "--trace", "{trace.json}", "--time", "2"]),
    ("diagnoser.json", ["verify-diagnoser", "--model", "{sensor_delay.json}", "--spec",
                        "{alarms_sensor.json}", "--alarm", "a_bound3",
                        "--diagnoser", "{diagnoser.json}"]),
    ("diagnoser.json", ["run-diagnoser", "--diagnoser", "{diagnoser.json}",
                        "--obs", "{obs.json}"]),
    ("obs.json", ["run-diagnoser", "--diagnoser", "{diagnoser.json}",
                  "--obs", "{obs.json}"]),
    ("probs.json", ["ft-prob", "--model", "{battery.json}", "--tle", "system_dead",
                    "--probs", "{probs.json}"]),
    ("mcs.json", ["fault-tree", "--mcs", "{mcs.json}"]),
    ("tfpg_power.json", ["tfpg-validate", "--tfpg", "{tfpg_power.json}"]),
    ("power_trace_ok.json", ["tfpg-check-trace", "--tfpg", "{tfpg_power.json}",
                             "--trace", "{power_trace_ok.json}"]),
    ("tfpg_battery.json", ["tfpg-tighten", "--tfpg", "{tfpg_battery.json}", "--model",
                           "{battery.json}", "--map", "{battery_map.json}",
                           "--horizon", "4"]),
    ("battery_map.json", ["tfpg-behavioral", "--tfpg", "{tfpg_battery.json}", "--model",
                          "{battery.json}", "--map", "{battery_map.json}",
                          "--horizon", "4"]),
    ("battery_synth.json", ["tfpg-synth", "--model", "{battery.json}",
                            "--map", "{battery_synth.json}", "--horizon", "4"]),
]
# One value of each JSON type.
REPLACEMENTS = [None, True, 2, "x", ["x"], {"x": "x"}]


def _json_type(value):
    return "number" if type(value) in (int, float) else type(value)


def _value_paths(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _value_paths(value, path + (key,))


def _value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, doc in FUZZ_INPUTS.items():
        (root / name).write_text(json.dumps(doc))
    return root


class TestExitCodeContract:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_input_exits_0_1_or_2(self, fuzz_dir, data):
        name, argv = data.draw(st.sampled_from(FUZZ_REQUESTS))
        doc = copy.deepcopy(FUZZ_INPUTS[name])
        path = data.draw(st.sampled_from(list(_value_paths(doc))))
        old = _value_at(doc, path)
        new = data.draw(st.sampled_from(
            [v for v in REPLACEMENTS if _json_type(v) != _json_type(old)]))
        if path:
            _value_at(doc, path[:-1])[path[-1]] = new
        else:
            doc = new
        mutated = fuzz_dir / "mutated.json"
        mutated.write_text(json.dumps(doc))
        files = {n: str(fuzz_dir / n) for n in FUZZ_INPUTS}
        files[name] = str(mutated)
        args = [files[a[1:-1]] if a.startswith("{") else a for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(args)
        assert code in (0, 1, 2)
        if code != 2:
            # 1 exactly when the report shows a failing verdict
            shown = verdicts(argv[0], json.loads(out.getvalue()))
            assert code == (0 if all(shown) else 1), (argv[0], shown)


_FOOTPRINT = """\
import contextlib, io, sys
from faultkit import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code)
print(" ".join(sorted(m for m in sys.modules if m.startswith("faultkit."))))
"""


class TestImportFootprint:
    """A request imports only the modules its subcommand uses."""

    @pytest.mark.parametrize("argv,needed,unused", [
        (["validate-model", "--model", MODEL], {"model"},
         {"cutsets", "diagnosability", "fdispec", "synthesis", "tfpg", "tfpg_synthesis"}),
        (["mcs", "--model", MODEL, "--tle", "system_dead"], {"cutsets"},
         {"fdispec", "diagnosability", "synthesis", "tfpg"}),
        (["tfpg-validate", "--tfpg", POWER], {"tfpg"},
         {"fdispec", "diagnosability", "synthesis", "cutsets"}),
        (["diag-check", "--model", SENSOR, "--spec", SPECS, "--alarm", "a_bound3"],
         {"diagnosability"}, {"synthesis", "tfpg", "cutsets"}),
    ], ids=["validate-model", "mcs", "tfpg-validate", "diag-check"])
    def test_modules_loaded(self, argv, needed, unused):
        proc = run_python(_FOOTPRINT, *argv)
        assert proc.returncode == 0, proc.stderr
        code, modules = proc.stdout.splitlines()
        assert code == "0"
        loaded = {m.split(".", 1)[1] for m in modules.split()}
        assert needed <= loaded
        assert not loaded & unused, sorted(loaded & unused)
