#!/usr/bin/env python3
"""Synthesize a belief-state diagnoser and verify candidates against the
alarm pattern.

The synthesized automaton tracks every state the system could be in given
the observations so far, plus the bounded memory the delay kind needs, and
raises an alarm exactly when the condition is certain.  A hand-written
"mute" candidate shows how verification pinpoints completeness and
maximality failures with concrete counterexample runs.
"""

from pathlib import Path

from faultkit import (AlarmSpec, BoundedDelay, instantiate_pattern, load_model,
                      parse_expr, run_diagnoser, synthesize_diagnoser,
                      verify_diagnoser)
from faultkit.synthesis import Diagnoser

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def main():
    model = load_model(CORPUS / "sensor_delay.json")
    spec = AlarmSpec("battery_watch", parse_expr("fault"), BoundedDelay(3),
                     maximal=True)
    print("requirement:", " & ".join(instantiate_pattern(spec).values()))

    diagnoser = synthesize_diagnoser(model, [spec])
    print(f"\nsynthesized {len(diagnoser.nodes)} belief nodes")
    for nid in sorted(diagnoser.nodes):
        members = sorted(s for s, _ in diagnoser.beliefs[nid])
        alarms = sorted(diagnoser.nodes[nid]) or ["-"]
        print(f"  {nid}: beliefs {members}, alarms {alarms}")

    stream = [{"warn": False}, {"warn": False}, {"warn": False},
              {"warn": True}, {"warn": True}]
    print("\nfeeding an observation stream:")
    for step, alarms in enumerate(run_diagnoser(diagnoser, stream)):
        print(f"  step {step}: warn={stream[step]['warn']} "
              f"alarms={sorted(alarms) or '-'}")

    verdict = verify_diagnoser(model, diagnoser, spec)
    print("\nverifying the synthesized diagnoser:")
    for name, result in verdict.to_json().items():
        if isinstance(result, dict):
            print(f"  {name}: {'holds' if result['holds'] else 'FAILS'}")

    observations = sorted({model.observation(s) for s in model.states})
    mute = Diagnoser(model.observable_atoms_sorted, {"q": frozenset()},
                     {obs: "q" for obs in observations},
                     {"q": {obs: "q" for obs in observations}})
    verdict = verify_diagnoser(model, mute, spec)
    print("\nverifying a mute candidate that never raises the alarm:")
    print(f"  correctness: {'holds' if verdict.correctness.holds else 'FAILS'}")
    print(f"  completeness: FAILS on run "
          f"{list(verdict.completeness.counterexample.steps)}")
    print(f"  maximality: FAILS on run "
          f"{list(verdict.maximality.counterexample.steps)}")


if __name__ == "__main__":
    main()
