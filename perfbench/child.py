"""Stand-in for `python -m faultkit.cli` in the cli-corpus workload.

    python perfbench/child.py AS_LIMIT_MB SPANS_PATH|- SUBCOMMAND [ARGS...]

Caps its own address space at AS_LIMIT_MB, before importing faultkit, so
that the client can start it without a pre-exec hook: a hook makes
Python fork the client, whose page tables (the calibration list is 72 MB)
would then be copied inside every timed request.  It then runs
`faultkit.cli.main` on the arguments and, as its last line of stderr,
writes `RSS_TAG <peak resident MB>`, also when the request raises.  With a
SPANS_PATH other than `-` the probes are installed and the spans are
written there as JSON.  The exit code and output are those of the CLI.
"""

import resource
import sys

RSS_TAG = "perfbench-peak-rss-mb:"


def peak_rss_mb() -> float:
    """Peak resident memory of this process.  VmHWM starts afresh at exec,
    while ru_maxrss keeps the peak of the forked parent image."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    limit = int(sys.argv[1]) * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    path, argv = sys.argv[2], sys.argv[3:]
    from faultkit import cli
    recorder = root = None
    if path != "-":
        from probes import ROOT_SPAN, SpanRecorder
        recorder = SpanRecorder()
        recorder.install()
        root = recorder.enter(ROOT_SPAN)
    try:
        return cli.main(argv)
    finally:
        if recorder is not None:
            recorder.exit(root)
            import json
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(recorder.take(), fh)
        sys.stderr.write(f"{RSS_TAG} {peak_rss_mb()}\n")


if __name__ == "__main__":
    sys.exit(main())
