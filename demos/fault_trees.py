#!/usr/bin/env python3
"""Walk through fault-tree analysis on the two-battery power system.

The model has twelve states: two independent battery faults crossed with a
three-phase operational cycle.  The feared event "system_dead" needs both
batteries down, so its only minimal cut set is the pair of battery faults.
"""

from pathlib import Path

from faultkit import (build_fault_tree, enumerate_mcs, evaluate_probability,
                      export_fault_tree_dot, final_mcs, is_cut_set, load_model,
                      mcs_to_json, validate_model)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def main():
    model = load_model(CORPUS / "battery.json")
    print(f"model: {len(model.states)} states, {sum(map(len, model.succ))} "
          f"transitions, faults {sorted(model.fault_atoms)}")
    print("validation:", validate_model(model) or "clean")

    print("\nsingle faults are not enough to kill the system:")
    for candidate in ({"b1_fail"}, {"b2_fail"}, {"b1_fail", "b2_fail"}):
        verdict = is_cut_set(model, "system_dead", candidate)
        print(f"  faults {sorted(candidate)} -> cut set: {verdict}")

    print("\nminimal cut sets, one view per cardinality layer:")
    final = None
    for report in enumerate_mcs(model, "system_dead"):
        print(f"  layer {report.completed_cardinality}: "
              f"{mcs_to_json(report.mcs)}  ({report.guarantee})")
        final = report

    tree = build_fault_tree(final.mcs, "system_dead")
    print("\nfault tree in DOT form:")
    print(export_fault_tree_dot(tree))

    probabilities = {"b1_fail": 0.05, "b2_fail": 0.02}
    p = evaluate_probability(final.mcs, probabilities)
    print(f"P(system_dead) with independent basic events "
          f"{probabilities} = {p:.6f}")

    print("\na disjunctive event has one cut set per alternative cause:")
    print("  power_low:", mcs_to_json(final_mcs(model, "power_low").mcs))


if __name__ == "__main__":
    main()
