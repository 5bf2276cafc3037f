"""Physical constants, unit conversion helpers and shared numerical pieces.

Energies are handled throughout as ordinary frequencies in GHz (the energy
divided by the Planck constant).  Circuit element values use pH for
inductances, pF for the oscillator capacitance, fF for the junction
capacitance, nA for currents, uV for voltages, and external flux in units of
the flux quantum Phi0 = h/(2e).

Two numerical pieces are kept here: the Fock-basis annihilation matrix,
shared by the coupled-circuit and Rabi-model builds, and the truncation
shift of the lowest N_COUPLED_LEVELS levels against a solve at doubled
truncation, which the coupled build's truncation check reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Exact SI values (CODATA 2018, as in scipy.constants), written out so that
# importing the package does not load scipy.
PLANCK_J_S = 6.62607015e-34
ELEMENTARY_CHARGE_C = 1.602176634e-19


@dataclass(frozen=True)
class PhysicalConstants:
    """Planck constant, elementary charge, and the quantities derived from them."""

    h: float = PLANCK_J_S
    e: float = ELEMENTARY_CHARGE_C
    hbar: float = PLANCK_J_S / (2.0 * math.pi)
    Phi0: float = PLANCK_J_S / (2.0 * ELEMENTARY_CHARGE_C)

    def __post_init__(self) -> None:
        if not math.isclose(self.hbar, self.h / (2.0 * math.pi), rel_tol=1e-15):
            raise ValueError("hbar must equal h / (2 pi)")
        if not math.isclose(self.Phi0, self.h / (2.0 * self.e), rel_tol=1e-15):
            raise ValueError("Phi0 must equal h / (2 e)")


CONSTANTS = PhysicalConstants()

PACKAGE_VERSION = "0.1.0"

# SI scale factors for the internal unit system.
GHZ = 1e9
PH = 1e-12
PF = 1e-12
FF = 1e-15
NA = 1e-9
UV = 1e-6

# Largest shift (GHz) of the lowest levels on doubling a truncation that
# still counts as converged.
CONVERGENCE_LIMIT_GHZ = 1e-3

# Coupled levels each sweep point keeps and the truncation shift compares;
# the fits use pairs among them.
N_COUPLED_LEVELS = 8


def charging_energy_ghz(c_farad: float) -> float:
    """Charging energy e^2 / (2 C) of a capacitance in Farad, as GHz."""
    return CONSTANTS.e**2 / (2.0 * c_farad * CONSTANTS.h * GHZ)


def inductive_energy_ghz(l_henry: float) -> float:
    """Inductive energy [Phi0/(2 pi)]^2 / L of an inductance in Henry, as GHz."""
    phi_j = CONSTANTS.Phi0 / (2.0 * math.pi)
    return phi_j**2 / (l_henry * CONSTANTS.h * GHZ)


def current_flux_to_ghz(current_na: float, flux_phi0: float) -> float:
    """Energy of a current (nA) threading a flux (Phi0 units), as GHz."""
    energy = (current_na * NA) * (flux_phi0 * CONSTANTS.Phi0)
    return energy / (CONSTANTS.h * GHZ)


def bias_to_ghz(ip_na: float, phix_phi0: float) -> float:
    """Qubit energy bias 2 Ip (Phix - Phi0/2) in GHz for Ip in nA."""
    return 2.0 * current_flux_to_ghz(ip_na, phix_phi0 - 0.5)


def annihilation(n_fock: int) -> np.ndarray:
    """Matrix of the annihilation operator a on Fock states 0 .. n_fock - 1."""
    return np.diag(np.sqrt(np.arange(1, n_fock)), 1)


def truncation_shift(energies: np.ndarray,
                     doubled: np.ndarray) -> tuple[float, bool]:
    """Largest shift of the lowest N_COUPLED_LEVELS levels against the
    doubled solve.

    Returns the shift in GHz and whether it stays under
    CONVERGENCE_LIMIT_GHZ.
    """
    count = min(N_COUPLED_LEVELS, len(energies))
    shift = float(np.abs(energies[:count] - doubled[:count]).max())
    return shift, shift < CONVERGENCE_LIMIT_GHZ
