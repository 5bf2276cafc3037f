"""The harness prints what BENCHMARK.json declares; outputs ignore workers."""

import json
import os
import subprocess
import sys

import spans
from conftest import BENCH_DIR, run_config
from workloads import WORKLOADS

ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_names_match_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == [
        "setup_s", "wall_s", "cpu_s", "peak_rss_mib"]
    produced = {"trace.wall_s", "fitting.n_eval"}
    for prefix in spans.TARGETS:
        produced.add(f"{prefix}_s")
        if not prefix.startswith("tasks."):
            produced.add(f"{prefix}.calls")
    for workload in WORKLOADS.values():
        produced.update(f"tasks.{task}_s" for task in workload.tasks)
    assert {m["name"] for m in SPEC["per_layer"]} == produced


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_printed_metrics_match_benchmark_json():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _bench("states", trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == len(WORKLOADS["states"].tasks)
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == declared
    assert result["metrics"]["coupled.observables.calls"]["value"] > 0


def test_missing_source_is_an_error(tmp_path):
    """Without src/ the benchmark exits non-zero and prints no result."""
    (tmp_path / "perfbench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_states_outputs_do_not_depend_on_worker_count(tmp_path):
    """The states tasks give the same bytes through the process pool."""
    config = json.loads(json.dumps(WORKLOADS["states"].config))
    config["sweep"]["phix_points"] = 3
    config["sweep"]["Lc_list_pH"] = [350.0]
    assert run_config(config, tmp_path / "w1", workers=1) == 0
    assert run_config(config, tmp_path / "w2", workers=2) == 0
    names = sorted(p.name for p in (tmp_path / "w1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "w2").iterdir())
    for name in names:
        assert ((tmp_path / "w1" / name).read_bytes()
                == (tmp_path / "w2" / name).read_bytes()), name
