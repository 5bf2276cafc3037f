"""Run configuration: strict JSON schema with unit-suffixed keys.

Every physical quantity key carries its unit (Lc_pH, C_pF, ...) so a
config cannot be written with silent unit errors.  Unknown keys are
rejected rather than ignored.  schema_version 1 is the only version.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .circuit import RawCircuit
from .constants import N_COUPLED_LEVELS
from .qubit import QUBIT_LEVEL_LIMIT

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


def _check_count(value, name: str) -> None:
    """Raise unless value is a positive int (bool is not a count)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")


def _number(value, name: str) -> float:
    """value as a float; raise unless it is a finite real number, not bool."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


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
            _check_count(getattr(self, name), f"numerics.{name}")
        if not isinstance(self.verify, bool):
            raise ConfigError("numerics.verify must be true or false")
        if self.fit_levels >= N_COUPLED_LEVELS:
            raise ConfigError(
                f"numerics.fit_levels must be below {N_COUPLED_LEVELS}")
        # every coupled solve is a Lanczos solve for this many levels, which
        # cannot take every level of the product basis
        solved = max(N_COUPLED_LEVELS, self.n_states)
        if not solved < self.n_qubit * self.n_fock:
            raise ConfigError(
                f"numerics: max({N_COUPLED_LEVELS}, n_states) must be below "
                "n_qubit * n_fock, the product dimension")

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
        _check_count(self.phix_points, "sweep.phix_points")
        if self.phix_points > 1 and not self.phix_stop > self.phix_start:
            raise ConfigError("sweep needs phix_stop > phix_start")
        for task in self.tasks:
            if task not in TASK_NAMES:
                raise ConfigError(f"unknown task {task!r}; known: {TASK_NAMES}")
        num = self.numerics
        # perturbation reads |1,g> and |1,e> at indices 2 and 3
        if "perturbation" in self.tasks and min(num.n_qubit, num.n_fock) < 2:
            raise ConfigError("perturbation needs n_qubit >= 2 and n_fock >= 2")
        # every coupled solve tabulates n_qubit qubit levels, and the verify
        # probe of these tasks twice that
        probed = num.verify and any(task in self.tasks for task in (
            "circuit-spectrum", "rabi-fit", "regression"))
        needed = num.n_qubit * (2 if probed else 1)
        if needed > QUBIT_LEVEL_LIMIT:
            raise ConfigError(
                f"numerics: {needed} qubit levels needed (n_qubit"
                f"{', doubled by verify' if probed else ''}); the qubit basis "
                f"holds {QUBIT_LEVEL_LIMIT}, one per wave")
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

    def circuit_at(self, lc: float) -> RawCircuit:
        """The base circuit with coupler lc; Lc + L1 and Lc + L2 stay fixed."""
        base = self.circuit
        return replace(base, Lc=lc, L1=(base.Lc + base.L1) - lc,
                       L2=(base.Lc + base.L2) - lc)

    def circuits(self) -> list[tuple[float, RawCircuit]]:
        """(Lc, circuit) pairs: the Lc sweep, or just the base circuit."""
        if self.lc_list is None:
            return [(self.circuit.Lc, self.circuit)]
        return [(lc, self.circuit_at(lc)) for lc in self.lc_list]


def _section(doc: dict, key: str) -> dict:
    """A copy of the optional object doc[key]; absent or null gives {}."""
    section = doc.pop(key, None)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigError(f"{key} must be a JSON object")
    return dict(section)


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
    del vals["EJ_GHz" if vals["EJ_GHz"] is None else "LJ_pH"]
    # each key is a RawCircuit argument name with its unit appended
    args = {key.split("_")[0]: _number(value, f"circuit.{key}")
            for key, value in vals.items()}
    try:
        return (RawCircuit.from_lj if "LJ" in args else RawCircuit)(**args)
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

    circuit = _build_circuit(_section(doc, "circuit"))

    sweep = _take(_section(doc, "sweep"), "sweep", {
        "phix_start_Phi0": 0.494, "phix_stop_Phi0": 0.506, "phix_points": 41,
        "Lc_list_pH": None,
    })
    lc_list = sweep["Lc_list_pH"]
    if lc_list is not None:
        if not isinstance(lc_list, list) or not lc_list:
            raise ConfigError("sweep.Lc_list_pH must be a non-empty list")
        lc_list = tuple(_number(x, "sweep.Lc_list_pH") for x in lc_list)

    defaults = {f.name: getattr(NumericsConfig(), f.name)
                for f in fields(NumericsConfig)}
    numerics = NumericsConfig(**_take(_section(doc, "numerics"), "numerics",
                                      defaults))

    tasks = tasks_override if tasks_override is not None else doc.pop("tasks", None)
    doc.pop("tasks", None)
    if not isinstance(tasks, list) or not tasks:
        raise ConfigError("config requires a non-empty tasks list")

    output = _take(_section(doc, "output"), "output", {"directory": "out"})
    out_dir = output_override if output_override is not None else output["directory"]
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("output directory must be a non-empty string, "
                          f"got {out_dir!r}")

    if doc:
        raise ConfigError(f"unknown top-level keys: {sorted(doc)}")
    _check_count(workers, "workers")

    return RunConfig(circuit=circuit,
                     phix_start=_number(sweep["phix_start_Phi0"],
                                        "sweep.phix_start_Phi0"),
                     phix_stop=_number(sweep["phix_stop_Phi0"],
                                       "sweep.phix_stop_Phi0"),
                     phix_points=sweep["phix_points"],
                     lc_list=lc_list, numerics=numerics,
                     tasks=tuple(tasks), output_dir=out_dir,
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
