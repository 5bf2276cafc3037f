"""Physical constants, unit conversion helpers and shared numerical pieces.

Energies are handled throughout as ordinary frequencies in GHz (the energy
divided by the Planck constant).  Circuit element values use pH for
inductances, pF for the oscillator capacitance, fF for the junction
capacitance, nA for currents, uV for voltages, and external flux in units of
the flux quantum Phi0 = h/(2e).

Two numerical pieces are kept here: the oscillator ladder sqrt(m + 1),
from which every Fock-basis operator is written, and the stopping rule of
the least-squares loops (step_settled).
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


def fock_ladder(n_fock: int) -> np.ndarray:
    """<m|a|m + 1> = sqrt(m + 1) for m = 0 .. n_fock - 2: a on Fock states
    0 .. n_fock - 1 is np.diag(fock_ladder(n_fock), 1), and a + a' and
    a - a' hold the same entries above the diagonal and no others."""
    return np.sqrt(np.arange(1, n_fock))


# Relative step below which a least-squares loop has reached its minimum,
# and the rounding floor of the data, below which steps stop shrinking.
STEP_CONVERGED = 1e-15
STEP_NOISE = 1e-12


def step_settled(size: float, last: float) -> bool:
    """True once a step of relative size `size` ends a least-squares loop:
    it is at most STEP_CONVERGED, or at most STEP_NOISE without halving
    `last`, the size of the step before it (rounding noise of the data)."""
    return size <= STEP_CONVERGED or 0.5 * last <= size <= STEP_NOISE
