"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py JOB.json

Runs on the CPUs run.py pinned it to before exec, imports
``zdgecc.cli`` (found through PYTHONPATH), prints ``ready`` on stdout, then
calls ``zdgecc.cli.main(argv)`` for each job item in turn and writes exit
codes, timings, host steal time, CPU time and peak RSS to the job's result
file.
With ``trace`` set, the layer functions are wrapped first and the spans are
written to the job's span file when the pass ends.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def steal_s(cpus) -> float:
    """Host steal time so far, in seconds, averaged over ``cpus``.

    Steal is time a virtual CPU was ready to run but the hypervisor ran
    something else; the guest kernel counts it per CPU in /proc/stat (the
    eighth field).  Reads 0 where the file or the field is missing.
    """
    want = {f"cpu{c}" for c in cpus}
    total = 0
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                fields = line.split()
                if fields and fields[0] in want and len(fields) > 8:
                    total += int(fields[8])
    except (OSError, ValueError):
        return 0.0
    return total / os.sysconf("SC_CLK_TCK") / max(1, len(want))


def _call(main, argv: list[str]) -> int:
    try:
        return int(main(argv) or 0)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return -1


def main() -> int:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    cpus = os.sched_getaffinity(0)
    import zdgecc.cli

    print("ready", flush=True)
    if job["setup_only"]:
        return 0
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    codes, item_s = [], []
    cpu0, steal0 = _cpu_s(), steal_s(cpus)
    t0 = time.perf_counter()
    for argv in job["items"]:
        t = time.perf_counter()
        codes.append(_call(zdgecc.cli.main, argv))
        item_s.append(time.perf_counter() - t)
    wall = time.perf_counter() - t0
    steal = steal_s(cpus) - steal0
    cpu = _cpu_s() - cpu0
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if tracer is not None:
        with open(job["spans"], "w") as fh:
            json.dump(tracer.spans, fh)
    result = {
        "codes": codes, "item_s": item_s, "wall_s": wall, "steal_s": steal,
        "cpu_s": cpu, "peak_rss_mb": rss_kb / 1024.0,
    }
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
