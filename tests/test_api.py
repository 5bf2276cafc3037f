"""The public names and the benchmark's traced hooks resolve.

perfbench/spans.py wraps fluxrabi functions that it looks up by module and
name; a rename there would only show when the traced benchmark runs, so it
is checked here with the rest of the public surface.
"""

import importlib
import importlib.util
from pathlib import Path

import fluxrabi

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_public_names_resolve():
    missing = [name for name in fluxrabi.__all__ if not hasattr(fluxrabi, name)]
    assert missing == []


def test_benchmark_span_targets_resolve():
    # spans.py imports only the standard library, so loading it by path
    # runs no benchmark code
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [pair for pairs in spans.TARGETS.values() for pair in pairs]
    assert targets
    for module_name, fn_name in targets:
        assert callable(getattr(importlib.import_module(module_name), fn_name)), \
            f"{module_name}.{fn_name}"
