"""One round of a workload, run in a fresh interpreter.

    python3 child.py CONFIG OUT_DIR [--setup-only] [--trace TRACE_FILE]

Imports fluxrabi (from PYTHONPATH), loads CONFIG and, unless --setup-only,
runs every task through fluxrabi.tasks.run into OUT_DIR.  Prints one JSON
line: the monotonic clock when set-up ended and, for a round, the wall and
CPU seconds of the run (pool workers included), the peak resident memory
of its largest process, any exception and, with --trace, the per-layer
aggregates.
"""

from __future__ import annotations

import argparse
import json
import resource
import time


def _cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("out_dir")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()

    import fluxrabi.tasks
    from fluxrabi.config import load_config

    cfg = load_config(args.config, output_override=args.out_dir)
    report = {"setup_end": time.monotonic()}
    if args.setup_only:
        print(json.dumps(report))
        return

    tracer = None
    if args.trace:
        import spans
        tracer = spans.install()

    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    report["error"] = None
    try:
        fluxrabi.tasks.run(cfg)  # exit code 3 shows as converged: false
    except Exception as exc:  # the parent counts the tasks left undone
        report["error"] = f"{type(exc).__name__}: {exc}"
    report["wall_s"] = time.perf_counter() - t0
    report["cpu_s"] = _cpu_seconds() - cpu0
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report["peak_rss_mib"] = peak_kib / 1024.0
    if tracer is not None:
        report["layers"] = tracer.metrics()
        tracer.write(args.trace)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
