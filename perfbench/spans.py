"""Per-layer spans around calls into fluxrabi's public functions.

install() wraps each target function and rebinds every reference to it in
the loaded fluxrabi modules (and in the tasks.TASKS table), so calls made
through `from .x import f` names are traced too.  Nothing inside the
package changes on disk.  Spans are kept in memory; write() dumps them at
the end of the run.  A layer's time is self time: span duration minus the
time its child spans cover.

Spans live in the interpreter that records them, so pool workers' calls
are not seen; every workload runs at --workers 1.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# metric prefix -> (module, function) pairs whose calls it aggregates
TARGETS = {
    "fitting.fit_rabi": (("fluxrabi.fitting", "fit_rabi"),),
    "rabi.rabi_energies": (("fluxrabi.rabi", "rabi_energies"),),
    "coupled.eigenbasis": (("fluxrabi.coupled", "build_coupled_eigenbasis"),),
    "coupled.planewave": (("fluxrabi.coupled", "build_coupled_planewave"),),
    "coupled.observables": (("fluxrabi.coupled", "observables"),),
    "qubit.characterize": (("fluxrabi.qubit", "characterize_qubit"),),
    "planewave.qubit_solve": (("fluxrabi.planewave", "diagonalize_flux_qubit"),),
    "perturbation": (("fluxrabi.perturbation", "circuit_coupling"),
                     ("fluxrabi.perturbation", "second_order_table")),
    "tasks.write_outputs": (("fluxrabi.tasks", "write_outputs"),),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # [span index, start, child seconds]

    def wrap(self, prefix: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            self.spans.append((prefix, 0.0, 0.0, parent))
            frame = [index, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - frame[1]
                self.spans[index] = (prefix, frame[1], end, parent)
                self.calls[prefix] = self.calls.get(prefix, 0) + 1
                self.self_s[prefix] = (self.self_s.get(prefix, 0.0)
                                       + duration - frame[2])
                if self._stack:
                    self._stack[-1][2] += duration
            if prefix == "fitting.fit_rabi":
                self.counters["fitting.n_eval"] = (
                    self.counters.get("fitting.n_eval", 0) + result.n_eval)
            return result
        return traced

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for prefix in self.calls:
            if not prefix.startswith("tasks."):  # one call per task
                out[f"{prefix}.calls"] = self.calls[prefix]
            out[f"{prefix}_s"] = self.self_s[prefix]
        out.update(self.counters)
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def _rebind(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name != "fluxrabi" and not name.startswith("fluxrabi."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install() -> Tracer:
    """Wrap every target and each task function; fluxrabi must be imported."""
    import fluxrabi.tasks

    tracer = Tracer()
    for prefix, targets in TARGETS.items():
        for module_name, fn_name in targets:
            original = getattr(sys.modules[module_name], fn_name)
            _rebind(original, tracer.wrap(prefix, original))
    table = fluxrabi.tasks.TASKS
    for task, fn in list(table.items()):
        table[task] = tracer.wrap(f"tasks.{task}", fn)
        _rebind(fn, table[task])
    return tracer
