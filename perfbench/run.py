"""Benchmark of fluxrabi, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round runs the workload's task list through fluxrabi.tasks.run in a
fresh interpreter (PYTHONPATH=src, BLAS pinned to one thread), then checks
every task's output.  Rounds repeat while another one
fits in S seconds.  Before them, SETUP_PROBES interpreters only import
fluxrabi and load the config, to time set-up.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones
(medians over rounds); with --trace 1 they are per-layer self times and
call counts from spans installed by spans.py.  Metric names and units come
from BENCHMARK.json.  The program takes no random input, so --seed selects
nothing: every seed gives the same inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = BENCH_DIR / "runs"
SETUP_PROBES = 3
ROUND_TIMEOUT_S = 120
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def _child(args: list[str], env: dict) -> tuple[dict, float]:
    """Run child.py; (its JSON report, monotonic time at spawn)."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), *args],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"round exceeded {ROUND_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def _environment() -> str:
    import numpy
    import scipy
    return (f"# cores={os.cpu_count()} python={sys.version.split()[0]} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            + " ".join(f"{k}=1" for k in THREAD_VARS))


def run(workload_name: str, seconds: float, trace: bool) -> dict:
    src = ROOT / "src"
    if not (src / "fluxrabi" / "__init__.py").is_file():
        raise BenchError(f"no fluxrabi source under {src}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[workload_name]
    run_dir = RUNS_DIR / workload.name
    out_dir = run_dir / "out"
    run_dir.mkdir(parents=True, exist_ok=True)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(workload.config, indent=2), encoding="utf-8")
    # One BLAS thread: with two on a shared 2-core host, the eigh-bound
    # levels rounds swung by a quarter from one run to the next.
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    base_args = [str(config_path), str(out_dir)]
    trace_args = ["--trace", str(run_dir / "trace.json")] if trace else []

    setups = []
    for _ in range(SETUP_PROBES):
        report, spawned = _child(base_args + ["--setup-only"], env)
        setups.append(report["setup_end"] - spawned)

    reports, durations, problems = [], [], []
    attempted = failed = 0
    incorrect = False
    start = time.monotonic()
    while True:
        began = time.monotonic()
        shutil.rmtree(out_dir, ignore_errors=True)
        report, spawned = _child(base_args + trace_args, env)
        setups.append(report["setup_end"] - spawned)
        if report["error"]:
            print(f"round raised {report['error']}", file=sys.stderr)
        for task in workload.tasks:
            attempted += 1
            reason, wrong = checks.check_task(str(out_dir), task, workload.config)
            failed += bool(reason or wrong)
            incorrect = incorrect or bool(wrong)
            problems += [reason] if reason else wrong
        reports.append(report)
        durations.append(time.monotonic() - began)
        if time.monotonic() - start + statistics.median(durations) > seconds:
            break
    print("# round wall_s: " + " ".join(f"{r['wall_s']:.3f}" for r in reports),
          file=sys.stderr)
    for problem in problems[:20]:
        print(f"check: {problem}", file=sys.stderr)

    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = {name: statistics.median(r["layers"].get(name, 0) for r in reports)
                  for name in names}
        values["trace.wall_s"] = statistics.median(r["wall_s"] for r in reports)
        unknown = set().union(*(r["layers"] for r in reports)) - set(names)
        if unknown:
            raise BenchError(f"spans not named in BENCHMARK.json: {sorted(unknown)}")
        declared = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setups)}
        for key in ("wall_s", "cpu_s", "peak_rss_mib"):
            values[key] = statistics.median(r[key] for r in reports)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    return {"correct": not incorrect, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="accepted for the harness; inputs are fixed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        print(_environment(), flush=True)
        result = run(args.workload, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
