"""Flux qubit coupled to an LC oscillator: spectra, gauges, and model fits.

The library quantizes a three-inductor coupling network joining a
single-junction flux qubit to an LC oscillator, solves the exact coupled
spectrum in both the flux and charge gauges, maps the circuit onto
two-level oscillator models, and quantifies how well those models track
the exact levels.
"""

from .circuit import GaugeCircuit, RawCircuit, gauge_circuit
from .config import ConfigError, NumericsConfig, RunConfig, load_config, reference_config
from .constants import CONSTANTS, PACKAGE_VERSION
from .coupled import (
    CoupledSpectrum,
    Observables,
    ProductCoupling,
    build_coupled_eigenbasis,
    build_coupled_planewave,
    circuit_coupling,
    observables,
    truncation_check,
)
from .fitting import RabiFitResult, fit_rabi, fit_transition_pairs
from .perturbation import ShiftTable, second_order_table
from .planewave import (
    BasisRangeWarning,
    EigensolveError,
    PlaneWaveBasis,
    SubsystemSpectrum,
    diagonalize_flux_qubit,
)
from .qubit import (
    TwoLevelFit,
    TwoLevelFitError,
    characterize_qubit,
    fit_two_level,
)
from .rabi import RabiParams, map_circuit_to_rabi, rabi_hamiltonian
from .tasks import TASKS, run

__version__ = PACKAGE_VERSION

__all__ = [
    "BasisRangeWarning",
    "CONSTANTS",
    "ConfigError",
    "CoupledSpectrum",
    "EigensolveError",
    "GaugeCircuit",
    "NumericsConfig",
    "Observables",
    "PACKAGE_VERSION",
    "PlaneWaveBasis",
    "ProductCoupling",
    "RabiFitResult",
    "RabiParams",
    "RawCircuit",
    "RunConfig",
    "ShiftTable",
    "SubsystemSpectrum",
    "TASKS",
    "TwoLevelFit",
    "TwoLevelFitError",
    "build_coupled_eigenbasis",
    "build_coupled_planewave",
    "characterize_qubit",
    "circuit_coupling",
    "diagonalize_flux_qubit",
    "fit_rabi",
    "fit_transition_pairs",
    "fit_two_level",
    "gauge_circuit",
    "load_config",
    "map_circuit_to_rabi",
    "observables",
    "rabi_hamiltonian",
    "reference_config",
    "run",
    "second_order_table",
    "truncation_check",
]
