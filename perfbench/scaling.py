"""One-off scaling report: the ROADMAP *Baseline* rows from the bench's
generators.  Not a gated workload; it prints a table and exits.

    python3 perfbench/scaling.py [N ...]        default: 6 8

For each n it times, on `gen.kofn_phase(n)` with condition `low`:
check_diagnosability under exact(2), bound(2) and finite delay,
synthesize_diagnoser and verify_diagnoser per delay kind, and
final_mcs(model, "low").  Each figure is one call, in-process.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[1:1] = [os.path.join(os.path.dirname(HERE), "src")]

import gen  # noqa: E402
from faultkit.cutsets import final_mcs  # noqa: E402
from faultkit.diagnosability import check_diagnosability  # noqa: E402
from faultkit.fdispec import parse_specs  # noqa: E402
from faultkit.model import parse_model  # noqa: E402
from faultkit.synthesis import synthesize_diagnoser, verify_diagnoser  # noqa: E402


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def main(sizes: list[int]) -> int:
    print("| n | states | kind | check_diagnosability | synthesize_diagnoser "
          "| verify_diagnoser | final_mcs |")
    print("|---|---|---|---|---|---|---|")
    for n in sizes:
        m = parse_model(json.dumps(gen.kofn_phase(n)))
        specs = [s for s in parse_specs(json.dumps(gen.kofn_specs(0))) if s.beta.atoms() == {"low"}]
        mcs, t_mcs = timed(final_mcs, m, "low")
        for spec in specs:
            verdict, t_diag = timed(check_diagnosability, m, spec)
            d, t_synth = timed(synthesize_diagnoser, m, [spec])
            _, t_verify = timed(verify_diagnoser, m, d, spec)
            print(f"| {n} | {len(m.states)} | {spec.name} | {t_diag:.2f} s "
                  f"({'diagnosable' if verdict.diagnosable else 'not diagnosable'}) "
                  f"| {1e3 * t_synth:.0f} ms ({len(d.nodes)} beliefs) | {t_verify:.2f} s "
                  f"| {1e3 * t_mcs:.0f} ms ({len(mcs.mcs)} sets) |")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(a) for a in sys.argv[1:]] or [6, 8]))
