"""Run one ``seqmine`` command line in this process and report its cost.

Usage: python3 job.py [--trace] REPORT ARG...

REPORT receives one JSON object: the exit code, the seconds spent inside
``seqmine.cli.main``, the CPU seconds of this process and its children, and
the peak resident memory in KiB.  The peak is this process's own ``VmHWM``
plus the largest peak of any child it waited for, both read here, inside the
job: the benchmark's ``wait4`` figure would carry the benchmark's own pages
across fork and exec.

With ``--trace`` the calls into each seqmine module are wrapped in spans
(see spans.py); the report adds self seconds and calls per span name and the
tracer's counts, and the spans go to REPORT with the suffix ``.spans.jsonl``.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path


def _vmhwm_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    args = sys.argv[1:]
    traced = args[0] == "--trace"
    report, argv = Path(args[traced]), args[traced + 1:]
    from seqmine.cli import main as seqmine_main

    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        seqmine_main = tracer.wrap("cli.job", seqmine_main)
    t0 = time.perf_counter()
    code = seqmine_main(argv)
    main_s = time.perf_counter() - t0
    times = os.times()
    record = {
        "exit": code,
        "main_s": main_s,
        "cpu_s": times.user + times.system + times.children_user + times.children_system,
        "peak_kb": _vmhwm_kb() + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        record.update(self_s=tracer.self_times(), calls=tracer.calls(), counts=tracer.counts)
        tracer.write(report.with_suffix(".spans.jsonl"))
    report.write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
