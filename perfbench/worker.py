"""Worker process that serves in-process requests through `faultkit.cli.main`.

Started by run.py with the repository's `src` on PYTHONPATH.  It caps its
own address space before importing anything large, then reads one JSON
request per line from stdin and writes one JSON reply per line to stdout:

    request: {"rid": 3, "argv": ["diag-check", ...], "trace": false}
    reply:   {"rid": 3, "code": 0, "dt": 0.41, "stdout": "...", "error": null,
              "spans": [...]}

`code` is None when the request raised, ran out of memory or passed its
time limit; `error` then says which.  An empty line asks for the peak
resident memory, `{"maxrss_mb": ...}`, and ends the worker.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import signal
import sys
import time
import traceback

from child import peak_rss_mb


class RequestTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout()


def main() -> int:
    as_limit_mb, time_limit_s = int(sys.argv[1]), float(sys.argv[2])
    limit = as_limit_mb * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    signal.signal(signal.SIGALRM, _on_alarm)

    from faultkit import cli
    from probes import ROOT_SPAN, SpanRecorder

    recorder = None
    for line in sys.stdin:
        if not line.strip():
            break
        req = json.loads(line)
        if req["trace"] and recorder is None:
            recorder = SpanRecorder()
            recorder.install()
        tracing = req["trace"]
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        root = None
        # a fresh CLI process starts with no garbage: collect the previous
        # request's outside the timed interval, so that it is not charged
        # to whichever request the seed put next
        gc.collect()
        if tracing:
            recorder.rid = req["rid"]
            root = recorder.enter(ROOT_SPAN)
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, time_limit_s)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(req["argv"])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except RequestTimeout:
            error = f"time limit of {time_limit_s}s exceeded"
        except MemoryError:
            error = f"address-space cap of {as_limit_mb} MB exceeded"
        except Exception:  # a traceback is a failed request, not a dead worker
            error = traceback.format_exc(limit=-3)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        dt = time.perf_counter() - t0
        spans = []
        if tracing:
            recorder.exit(root)
            spans = recorder.take()
        reply = {"rid": req["rid"], "code": code, "dt": dt, "stdout": out.getvalue(),
                 "error": error, "spans": spans}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    sys.stdout.write(json.dumps({"maxrss_mb": peak_rss_mb()}) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
