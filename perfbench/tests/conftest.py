import shutil
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS  # noqa: E402


def run_config(config: dict, out_dir: Path, workers: int = 1) -> int:
    from fluxrabi.config import parse_config
    from fluxrabi.tasks import run
    cfg = parse_config(config, output_override=str(out_dir), workers=workers)
    return run(cfg)


@pytest.fixture(scope="session")
def workload_outputs(tmp_path_factory):
    """Output directory of one round of every workload, made on demand."""
    made = {}

    def get(name: str) -> Path:
        if name not in made:
            out = tmp_path_factory.mktemp(name)
            assert run_config(WORKLOADS[name].config, out) == 0
            made[name] = out
        return made[name]
    return get


@pytest.fixture
def copy_of(tmp_path, workload_outputs):
    def copy(name: str) -> Path:
        dst = tmp_path / name
        shutil.copytree(workload_outputs(name), dst)
        return dst
    return copy
