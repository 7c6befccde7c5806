"""faultkit benchmark: time to a correct verdict, per workload.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a faultkit checkout.  One client sends one request at
a time (closed loop) and waits for the verdict.  `cli-corpus` runs each
request as its own CLI process (child.py); the other workloads
send requests to one worker process that calls `faultkit.cli.main`.  The
worker's address space is capped and each request has a time limit; a
request over either counts as failed.

A run sets up (inputs, worker, warm-up), serves the workload's fixed batch
for about --seconds seconds, timing two more set-ups after each pass over
it, then runs the correctness gate.  With --trace 1 it serves the batch again with
spans recorded around calls into each faultkit module, writes the spans
to .perfbench_work/, prints the per-layer table, and reports per-layer
metrics instead of end-to-end ones.  The last line of stdout is one JSON
object; the exit code is 1 when any answer is wrong.

Every time is reported at a reference machine speed: a fixed task
(calib.py) is timed just before each request and each set-up, and every
wall time of a run is scaled by the task's reference time over its median
time in that run.  The shared machine's speed drifts by 20-30% over
minutes; the scaled times drift far less, and they still move with any
change to faultkit's own speed.

    python3 perfbench/run.py --record    rewrite perfbench/reference.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path[1:1] = [SRC, ROOT]

import calib  # noqa: E402  (perfbench/ is sys.path[0])
from child import RSS_TAG  # noqa: E402

WORKLOADS = ("cli-corpus", "kofn-family", "random-partial", "ft-tfpg")
# Seconds one pass over the batch took at the seed commit (Python 3.11, 2
# cores).  A run makes round(--seconds / PASS_S) passes, at least two, so
# the request count, and with it the tail percentile, does not depend on
# how fast the code under test is.
PASS_S = {"cli-corpus": 5.0, "kofn-family": 6.0, "random-partial": 7.3, "ft-tfpg": 4.7}
SETUPS_PER_PASS = 2
SETUP_CALIBRATIONS = 5
AS_LIMIT_MB = 2048
TIME_LIMIT_S = 60.0
TAIL_BEYOND = 10



def _declared(kind: str) -> tuple[tuple[str, str], ...]:
    """(name, unit) of each metric BENCHMARK.json declares under `kind`."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return tuple((m["name"], m["unit"]) for m in json.load(fh)[kind])


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class WorkerServer:
    """One worker process serving requests in-process (see worker.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), str(AS_LIMIT_MB),
             str(TIME_LIMIT_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)
        self.rid = 0

    def serve(self, argv: list[str], trace: bool = False) -> dict:
        self.rid += 1
        self.proc.stdin.write(json.dumps({"rid": self.rid, "argv": argv, "trace": trace}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker died")
        return json.loads(line)

    def close(self) -> float:
        """Stop the worker; returns its peak resident memory in MB."""
        try:
            self.proc.stdin.write("\n")
            self.proc.stdin.flush()
            maxrss = json.loads(self.proc.stdout.readline())["maxrss_mb"]
        finally:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
            self.proc.stdout.close()
        return maxrss


class ProcessServer:
    """One CLI process per request (cli-corpus).  Each runs child.py, which
    calls `faultkit.cli.main` as `python -m faultkit.cli` would and reports
    its own peak resident memory on its last stderr line."""

    def __init__(self, spans_dir: str):
        self.spans_dir = spans_dir
        self.rid = 0
        self.peak_rss_mb = 0.0

    def serve(self, argv: list[str], trace: bool = False) -> dict:
        self.rid += 1
        spans = os.path.join(self.spans_dir, f"child{self.rid}.json") if trace else None
        cmd = [sys.executable, os.path.join(HERE, "child.py"), str(AS_LIMIT_MB), spans or "-",
               *argv]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=_env(), cwd=ROOT,
                                  timeout=TIME_LIMIT_S)
        except subprocess.TimeoutExpired:
            return {"rid": self.rid, "code": None, "dt": time.perf_counter() - t0,
                    "stdout": "", "error": f"time limit of {TIME_LIMIT_S}s exceeded",
                    "spans_file": spans}
        dt = time.perf_counter() - t0
        stderr = []
        for line in proc.stderr.splitlines():
            if line.startswith(RSS_TAG):
                self.peak_rss_mb = max(self.peak_rss_mb, float(line[len(RSS_TAG):]))
            else:
                stderr.append(line)
        error = None
        if any(line.startswith("Traceback (most recent call last)") for line in stderr):
            error = stderr[-1]
        return {"rid": self.rid, "code": proc.returncode, "dt": dt, "stdout": proc.stdout,
                "error": error, "spans_file": spans}

    def close(self) -> float:
        """Returns the largest peak resident memory of a request's process."""
        return self.peak_rss_mb


# -- one run --------------------------------------------------------------------------

def setup(name: str, seed: int, tag: str = ""):
    """Generate and write the inputs, start the server, warm it up.  Returns
    the workload, the server, its directory, the wall time set-up took and
    calibrations taken just before it."""
    import workloads
    cals = [calib.calibrate() for _ in range(SETUP_CALIBRATIONS)]
    t0 = time.perf_counter()
    workdir = os.path.join(WORK, f"{name}-{seed}{tag}")
    shutil.rmtree(workdir, ignore_errors=True)
    w = workloads.build(name, seed, workdir)
    server = WorkerServer() if w.in_process else ProcessServer(workdir)
    warm = server.serve(["validate-model", "--model", "corpus/battery.json"])
    if warm["code"] != 0:
        server.close()
        raise RuntimeError(f"warm-up request failed: {warm}")
    return w, server, workdir, time.perf_counter() - t0, cals


def spare_setup(name: str, seed: int) -> tuple[float, list[float]]:
    """Time one more set-up, in a directory of its own, and stop its server."""
    _, server, _, dt, cals = setup(name, seed, "-spare")
    server.close()
    return dt, cals


def serve_passes(w, server, passes: int, trace: bool) -> list[list[dict]]:
    """Serve the batch `passes` times, timing the calibration task before
    each request (as the reply's `cal`), while the server is idle."""
    replies = []
    for _ in range(passes):
        one = []
        for req in w.requests:
            cal = calib.calibrate()
            one.append(dict(server.serve(req.argv, trace), cal=cal))
        replies.append(one)
    return replies


def speed_scale(cals: list[float]) -> float:
    """Reference seconds per wall second, from the calibrations of a run.
    One scale for the whole run: the drift it corrects is over minutes,
    and the median of every calibration of the run is a precise measure
    of the run's speed."""
    return calib.REF_S / statistics.median(cals)


def scale_times(replies: list[list[dict]], scale: float) -> list[float]:
    """Give each reply `t`, its wall time `dt` at the reference speed;
    returns each pass's total."""
    for one in replies:
        for r in one:
            r["t"] = r["dt"] * scale
    return [sum(r["t"] for r in one) for one in replies]


def hd_quantile(values: list[float], p: float, grid: int = 4000) -> float:
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all the
    order statistics, the i-th (of n) weighted by the Beta((n+1)p,
    (n+1)(1-p)) probability of ((i-1)/n, i/n].  It estimates the same
    quantile as a single order statistic but moves far less when the
    machine's drift slows whichever request sits at that rank."""
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)

    # Beta CDF on a uniform grid by the trapezoid rule (a, b >= 1 here, so
    # the density is bounded), normalised so that it ends at exactly 1
    cdf, prev = [0.0], pdf(0.0)
    for j in range(1, grid + 1):
        cur = pdf(j / grid)
        cdf.append(cdf[-1] + (prev + cur) / (2 * grid))
        prev = cur

    def at(t: float) -> float:
        k = min(int(t * grid), grid - 1)
        return (cdf[k] + (cdf[k + 1] - cdf[k]) * (t * grid - k)) / cdf[-1]

    return sum(x[i] * (at((i + 1) / n) - at(i / n)) for i in range(n))


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND requests beyond it, as a
    Harrell-Davis estimate centred on the (TAIL_BEYOND+1)-th largest value,
    and that percentile."""
    n = len(values)
    k = max(0, n - TAIL_BEYOND - 1)
    return hd_quantile(values, (k + 1) / (n + 1)), 100.0 * k / n


def typical(replies: list[list[dict]]) -> float:
    """Harrell-Davis median over the batch's requests of each request's
    median time over the passes.  Each request's own median takes out most
    of the drift between passes; the Harrell-Davis weights keep the result
    from swapping between the request kinds of similar cost that sit
    around the middle of the batch."""
    return hd_quantile([statistics.median(p[i]["t"] for p in replies)
                        for i in range(len(replies[0]))], 0.5)


def startup_costs(n: int = 5) -> tuple[float, float]:
    """Wall-time medians of a bare interpreter start and of `import
    faultkit.cli`."""
    def timed(code):
        times = []
        for _ in range(n):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, env=_env(), cwd=ROOT)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)
    return timed("pass"), timed("import faultkit.cli")


def layer_metrics(w, server, passes, untraced_batch, counts):
    """Serve traced passes and turn their spans into per-layer metrics."""
    from probes import self_times
    replies = serve_passes(w, server, passes, trace=True)
    scale = speed_scale([r["cal"] for one in replies for r in one])
    batch = scale_times(replies, scale)
    all_spans, per_pass = [], []
    for pass_replies in replies:
        totals: dict[str, float] = {}
        for r in pass_replies:
            if r.get("spans_file"):
                with open(r["spans_file"], encoding="utf-8") as fh:
                    r["spans"] = json.load(fh)
            spans = r.get("spans") or []
            for name, value in self_times(spans).items():
                totals[name] = totals.get(name, 0.0) + value * scale
            offset = len(all_spans)
            all_spans.extend(dict(s, parent=None if s["parent"] is None else s["parent"] + offset,
                                  rid=r["rid"]) for s in spans)
        per_pass.append(totals)
    names = {n for t in per_pass for n in t}
    layer = {n: statistics.median(t.get(n, 0.0) for t in per_pass) for n in names}
    traced_batch = statistics.median(batch)
    n_req = len(w.requests)
    if not w.in_process:
        # timed right after the traced passes: at their speed
        bare, imported = (t * scale for t in startup_costs())
        layer["cli.interp_s"] = bare * n_req
        layer["cli.import_s"] = (imported - bare) * n_req
        layer["cli.startup_share"] = imported * n_req / untraced_batch
    metrics = {name: layer.get(name, counts.get(name, 0.0))
               for name, _ in _declared("per_layer")}
    diag_s = sum(layer.get(f"diagnosability.{k}_s", 0.0) for k in ("exact", "bound", "finite"))
    metrics["diagnosability.us_per_pair"] = _per(diag_s, counts.get("diagnosability.twin_pairs"))
    metrics["synthesis.us_per_product_pair"] = _per(layer.get("synthesis.verify_s", 0.0),
                                                    counts.get("synthesis.product_pairs"))
    metrics["tfpg.us_per_trace"] = _per(layer.get("tfpg.behavioral_s", 0.0)
                                        + layer.get("tfpg.tighten_s", 0.0),
                                        counts.get("tfpg.model_traces"))
    metrics["trace.overhead_s"] = traced_batch - untraced_batch
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"spans-{w.name}.json"), "w", encoding="utf-8") as fh:
        json.dump(all_spans, fh)
    # compared pass by pass: the per-layer medians may come from different
    # passes, so their sum is not the sum of any one pass
    unaccounted = (statistics.median(b - sum(t.values()) for b, t in zip(batch, per_pass))
                   - layer.get("cli.interp_s", 0.0) - layer.get("cli.import_s", 0.0))
    return metrics, traced_batch, unaccounted, replies


def _per(seconds: float, count) -> float:
    return 1e6 * seconds / count if count else 0.0


def run(name: str, seed: int, seconds: int, trace: bool) -> int:
    import gate
    passes = max(2, round(seconds / PASS_S[name]))
    w, server, workdir, setup_wall, cals = setup(name, seed)
    setup_walls = [setup_wall]
    try:
        replies = []
        for _ in range(passes):
            replies += serve_passes(w, server, 1, trace=False)
            # the machine's speed drifts over tens of seconds: sample set-up
            # between the passes, over the whole run, as the passes sample it
            for _ in range(SETUPS_PER_PASS):
                dt, spare_cals = spare_setup(name, seed)
                setup_walls.append(dt)
                cals += spare_cals
        cals += [r["cal"] for one in replies for r in one]
        scale = speed_scale(cals)
        batch = scale_times(replies, scale)
        g = gate.Gate(w)
        counts = g.semantics(replies[0])
        if trace:
            metrics, traced_batch, unaccounted, traced = layer_metrics(
                w, server, passes, statistics.median(batch), counts)
            replies += traced
        reference = gate.load_reference()
        g.outcomes(replies, reference, workdir)
        g.oracles(server.serve, seed, reference, workdir)
    finally:
        peak_rss = server.close()

    latencies = [r["t"] for p in replies[:passes] for r in p]
    wall = [sum(r["dt"] for r in p) for p in replies[:passes]]
    attempted = passes * len(w.requests)
    failed = sum(1 for p in replies[:passes] for i, r in enumerate(p) if i in g.failed)
    tail_value, tail_pct = tail(latencies)
    print(f"{name} seed {seed}: {passes} passes x {len(w.requests)} requests, "
          f"closed loop, one client; times at the reference speed, wall times "
          f"{1 / scale:.2f}x them in this run (median of {len(cals)} calibrations)")
    if trace:
        _print_layers(metrics, traced_batch, statistics.median(batch), unaccounted)
    else:
        metrics = {"setup_s": statistics.median(setup_walls) * scale,
                   "batch_s": statistics.median(batch),
                   "verdict_p50_s": typical(replies[:passes]),
                   "verdict_tail_s": tail_value,
                   "peak_rss_mb": peak_rss}
        print(f"  setup_s        {metrics['setup_s']:.4f} s   "
              f"median of {len(setup_walls)} set-ups")
        print(f"  batch_s        {metrics['batch_s']:.4f} s   median of {passes} passes "
              f"(wall {statistics.median(wall):.4f} s)")
        print(f"  verdict_p50_s  {metrics['verdict_p50_s']:.4f} s   Harrell-Davis median of "
              f"{len(w.requests)} requests' medians over {passes} passes, n={len(latencies)}")
        print(f"  verdict_tail_s {tail_value:.4f} s   p{tail_pct:.1f} (Harrell-Davis), "
              f"{TAIL_BEYOND} of {len(latencies)} requests beyond it")
        print(f"  peak_rss_mb    {peak_rss:.1f} MB")
    print(f"  error_rate     {failed / attempted:.4f}   {failed} of {attempted} requests "
          f"({len(g.failed)} distinct)")
    for i, reason in sorted(g.failed.items()):
        known = w.requests[i].meta.get("known_defect")
        label = "known defect" if known else "WRONG"
        print(f"    {label}: {' '.join(w.requests[i].argv)}: {reason}")
    for problem in g.problems:
        print(f"    WRONG: {problem}")
    correct = not g.wrong and not g.problems
    declared = _declared("per_layer" if trace else "end_to_end")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": unit}
                                  for k, unit in declared}}))
    return 0 if correct else 1


def _print_layers(metrics, traced_batch, batch, unaccounted):
    print(f"  per-layer metrics over one pass (traced batch_s {traced_batch:.4f} s, "
          f"untraced {batch:.4f} s)")
    per_layer = _declared("per_layer")
    for name, unit in per_layer:
        print(f"  {name:34s} {metrics[name]:14.6f} {unit}")
    overhead = metrics["trace.overhead_s"]
    verdict = "within" if abs(unaccounted) <= abs(overhead) else "NOT within"
    print(f"  layer self times leave {unaccounted:.4f} s of a traced pass unaccounted "
          f"(median over the passes), {verdict} trace.overhead_s")


# -- reference outputs ----------------------------------------------------------------------

def record() -> int:
    """Rewrite reference.json from the code in this checkout."""
    import gate
    import workloads
    workdir = os.path.join(WORK, "record")
    shutil.rmtree(workdir, ignore_errors=True)
    workloads.build("cli-corpus", 0, workdir)
    server = ProcessServer(workdir)
    reference = {"cli-corpus": {}}
    for argv, formats, _ in workloads.corpus_requests(workdir):
        for fmt in formats:
            r = server.serve([*argv, "--format", fmt])
            key = gate.reference_key([*argv, "--format", fmt], workdir)
            reference["cli-corpus"][key] = gate.digest(r["code"], r["stdout"])
    worker = WorkerServer()
    try:
        for name in WORKLOADS[1:]:
            reference[name] = {}
            for key, argv, _ in gate.scaled_instances(name, 0, workdir):
                r = worker.serve(argv)
                reference[name][key] = gate.digest(r["code"], r["stdout"])
    finally:
        worker.close()
    with open(gate.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {gate.REFERENCE}: {sum(map(len, reference.values()))} outputs")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"),
                        help="one workload, or all four in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json and exit")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "faultkit", "cli.py")):
        print(f"error: no faultkit sources under {SRC}; run from a faultkit checkout",
              file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run(name, args.seed, args.seconds, bool(args.trace)) for name in names)


if __name__ == "__main__":
    sys.exit(main())
