"""Run configuration: strict JSON schema with unit-suffixed keys.

Every physical quantity key carries its unit (Lc_pH, C_pF, ...) so a
config cannot be written with silent unit errors.  Unknown keys are
rejected rather than ignored.  schema_version 1 is the only version.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .circuit import RawCircuit

SCHEMA_VERSION = 1

TASK_NAMES = (
    "qubit-spectrum",
    "inductance-compare",
    "circuit-spectrum",
    "rabi-map",
    "rabi-fit",
    "matrix-elements",
    "observables",
    "perturbation",
    "wavefunctions",
    "gauge-check",
    "regression",
)


class ConfigError(ValueError):
    """Invalid or unparseable run configuration."""


@dataclass(frozen=True)
class NumericsConfig:
    """Truncations and task options; defaults cover the reference circuits."""

    n_qubit: int = 6
    n_fock: int = 40
    fit_levels: int = 3
    n_states: int = 4
    gauge: str = "both"
    verify: bool = True

    def __post_init__(self) -> None:
        if self.gauge not in ("flux", "charge", "both"):
            raise ConfigError("numerics.gauge must be flux, charge, or both")
        for name in ("n_qubit", "n_fock", "fit_levels", "n_states"):
            if getattr(self, name) < 1:
                raise ConfigError(f"numerics.{name} must be positive")

    @property
    def gauges(self) -> tuple[str, ...]:
        return ("flux", "charge") if self.gauge == "both" else (self.gauge,)


@dataclass(frozen=True)
class RunConfig:
    circuit: RawCircuit
    phix_start: float = 0.494
    phix_stop: float = 0.506
    phix_points: int = 41
    lc_list: tuple[float, ...] | None = None
    numerics: NumericsConfig = field(default_factory=NumericsConfig)
    tasks: tuple[str, ...] = ()
    output_dir: str = "out"
    workers: int = 1

    def __post_init__(self) -> None:
        if self.phix_points < 1:
            raise ConfigError("sweep.phix_points must be >= 1")
        if self.phix_points > 1 and not self.phix_stop > self.phix_start:
            raise ConfigError("sweep needs phix_stop > phix_start")
        for task in self.tasks:
            if task not in TASK_NAMES:
                raise ConfigError(f"unknown task {task!r}; known: {TASK_NAMES}")
        try:
            self.circuits()
        except ValueError as exc:
            raise ConfigError(
                f"Lc sweep violates the fixed branch sums: {exc}") from exc

    @property
    def phix_grid(self) -> np.ndarray:
        if self.phix_points == 1:
            return np.array([self.phix_start])
        return np.linspace(self.phix_start, self.phix_stop, self.phix_points)

    @property
    def sum_osc(self) -> float:
        """Fixed Lc + L1 branch total preserved along an Lc sweep."""
        return self.circuit.Lc + self.circuit.L1

    @property
    def sum_qubit(self) -> float:
        """Fixed Lc + L2 branch total preserved along an Lc sweep."""
        return self.circuit.Lc + self.circuit.L2

    def circuit_at(self, lc: float) -> RawCircuit:
        return RawCircuit(Lc=lc, L1=self.sum_osc - lc, L2=self.sum_qubit - lc,
                          C=self.circuit.C, CJ=self.circuit.CJ,
                          EJ=self.circuit.EJ, phix=self.circuit.phix)

    def circuits(self) -> list[tuple[float, RawCircuit]]:
        """(Lc, circuit) pairs: the Lc sweep, or just the base circuit."""
        if self.lc_list is None:
            return [(self.circuit.Lc, self.circuit)]
        return [(lc, self.circuit_at(lc)) for lc in self.lc_list]


def _take(section: dict, context: str, known: dict) -> dict:
    """Pop known keys with defaults; reject anything left over."""
    out = {}
    for key, default in known.items():
        out[key] = section.pop(key, default)
    if section:
        raise ConfigError(f"unknown {context} keys: {sorted(section)}")
    return out


_REQUIRED = object()


def _build_circuit(section: dict) -> RawCircuit:
    vals = _take(section, "circuit", {
        "Lc_pH": _REQUIRED, "L1_pH": _REQUIRED, "L2_pH": _REQUIRED,
        "C_pF": _REQUIRED, "CJ_fF": _REQUIRED,
        "LJ_pH": None, "EJ_GHz": None, "phix_Phi0": 0.5,
    })
    missing = [k for k, v in vals.items() if v is _REQUIRED]
    if missing:
        raise ConfigError(f"circuit is missing required keys: {missing}")
    if (vals["LJ_pH"] is None) == (vals["EJ_GHz"] is None):
        raise ConfigError("circuit needs exactly one of LJ_pH or EJ_GHz")
    try:
        if vals["LJ_pH"] is not None:
            return RawCircuit.from_lj(Lc=float(vals["Lc_pH"]),
                                      L1=float(vals["L1_pH"]),
                                      L2=float(vals["L2_pH"]),
                                      C=float(vals["C_pF"]),
                                      CJ=float(vals["CJ_fF"]),
                                      LJ=float(vals["LJ_pH"]),
                                      phix=float(vals["phix_Phi0"]))
        return RawCircuit(Lc=float(vals["Lc_pH"]), L1=float(vals["L1_pH"]),
                          L2=float(vals["L2_pH"]), C=float(vals["C_pF"]),
                          CJ=float(vals["CJ_fF"]), EJ=float(vals["EJ_GHz"]),
                          phix=float(vals["phix_Phi0"]))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(doc: dict, output_override: str | None = None,
                 tasks_override: list[str] | None = None,
                 workers: int = 1) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    doc = dict(doc)
    version = doc.pop("schema_version", None)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")

    circuit_sec = doc.pop("circuit", None)
    if not isinstance(circuit_sec, dict):
        raise ConfigError("config requires a circuit object")
    circuit = _build_circuit(dict(circuit_sec))

    sweep = _take(dict(doc.pop("sweep", {}) or {}), "sweep", {
        "phix_start_Phi0": 0.494, "phix_stop_Phi0": 0.506, "phix_points": 41,
        "Lc_list_pH": None,
    })
    lc_list = sweep["Lc_list_pH"]
    if lc_list is not None:
        if not isinstance(lc_list, list) or not lc_list:
            raise ConfigError("sweep.Lc_list_pH must be a non-empty list")
        lc_list = tuple(float(x) for x in lc_list)

    numerics_sec = dict(doc.pop("numerics", {}) or {})
    defaults = {f.name: getattr(NumericsConfig(), f.name)
                for f in fields(NumericsConfig)}
    numerics = NumericsConfig(**_take(numerics_sec, "numerics", defaults))

    tasks = tasks_override if tasks_override is not None else doc.pop("tasks", None)
    doc.pop("tasks", None)
    if not isinstance(tasks, list) or not tasks:
        raise ConfigError("config requires a non-empty tasks list")

    output = _take(dict(doc.pop("output", {}) or {}), "output",
                   {"directory": "out"})
    out_dir = output_override if output_override is not None else output["directory"]

    if doc:
        raise ConfigError(f"unknown top-level keys: {sorted(doc)}")
    if workers < 1:
        raise ConfigError("workers must be >= 1")

    return RunConfig(circuit=circuit,
                     phix_start=float(sweep["phix_start_Phi0"]),
                     phix_stop=float(sweep["phix_stop_Phi0"]),
                     phix_points=int(sweep["phix_points"]),
                     lc_list=lc_list, numerics=numerics,
                     tasks=tuple(tasks), output_dir=str(out_dir),
                     workers=int(workers))


def load_config(path: str, **overrides) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc, **overrides)


def reference_config(tasks: tuple[str, ...] = ("regression",),
                     lc: float = 20.0, **kwargs) -> RunConfig:
    """The benchmark circuit: branch sums 800/2050 pH, C=0.87 pF, CJ=4.84 fF,
    LJ=990 pH, biased at the symmetry point."""
    circuit = RawCircuit.from_lj(Lc=lc, L1=800.0 - lc, L2=2050.0 - lc,
                                 C=0.87, CJ=4.84, LJ=990.0, phix=0.5)
    return RunConfig(circuit=circuit, tasks=tasks, **kwargs)
