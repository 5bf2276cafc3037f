"""Perturbative dispersive shifts for product couplings.

The coupling between the oscillator and the qubit factorizes into an
oscillator quadrature times a qubit operator, V = c X (x) K.  For a bare
state |m, i> the first-order shift is c X_mm K_ii (zero for ladder-type
quadratures) and the second-order shift is

    sum_{(n,j) != (m,i)}  |c X_mn K_ij|^2 / (E_mi - E_nj)

which this module evaluates exactly within the supplied level sets, broken
down by intermediate qubit level so the dominant virtual transitions can
be read off.  The net dispersive shift of the oscillator against qubit
level i is shift(1, i) - shift(0, i).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import (
    EffectiveInductances,
    EnergyScales,
    RawCircuit,
    charge_gauge_frequency_ghz,
    y_delta,
)
from .coupled import (
    charge_coupling_ghz,
    flux_coupling_ghz,
    ladder_difference,
    ladder_sum,
    qubit_node_energies,
)
from .planewave import PlaneWaveBasis, diagonalize_flux_qubit
from .qubit import number_matrix, phase_matrix

# Denominators smaller than this (GHz) with a nonzero matrix element mean
# the state is effectively degenerate and the series is invalid.
DEGENERACY_LIMIT_GHZ = 1e-3
ELEMENT_FLOOR = 1e-30


@dataclass(frozen=True)
class ProductCoupling:
    """Factorized coupling c X (x) K together with the bare energies."""

    strength: float
    osc_elements: np.ndarray
    qubit_elements: np.ndarray
    osc_energies: np.ndarray
    qubit_energies: np.ndarray

    def __post_init__(self) -> None:
        if self.osc_elements.shape[0] != self.osc_elements.shape[1]:
            raise ValueError("oscillator elements must be square")
        if self.qubit_elements.shape[0] != self.qubit_elements.shape[1]:
            raise ValueError("qubit elements must be square")
        if len(self.osc_energies) != self.osc_elements.shape[0]:
            raise ValueError("oscillator energies do not match elements")
        if len(self.qubit_energies) != self.qubit_elements.shape[0]:
            raise ValueError("qubit energies do not match elements")


@dataclass(frozen=True)
class ShiftTable:
    """Second-order shift of |photon, level> and its per-level breakdown.

    contributions[j] sums the terms routed through intermediate qubit
    level j.  Quasi-degenerate contributors (denominator below the guard
    with a nonzero element) are excluded from the sums and listed as
    (photon, level) pairs in excluded.
    """

    photon: int
    level: int
    total: float
    contributions: np.ndarray
    excluded: tuple[tuple[int, int], ...] = ()


def circuit_coupling(gauge: str, raw: RawCircuit, eff: EffectiveInductances,
                     scales: EnergyScales,
                     n_fock: int = 12, n_levels: int = 6) -> ProductCoupling:
    """The physical product coupling of one gauge, in GHz units."""
    ecj, ej, elfq = qubit_node_energies(gauge, raw, eff, scales)
    qubit_spectrum = diagonalize_flux_qubit(ecj, ej, elfq, raw.phix,
                                            PlaneWaveBasis.for_qubit())
    if gauge == "flux":
        strength = flux_coupling_ghz(raw, eff, scales)
        osc = ladder_sum(n_fock)
        qub = phase_matrix(qubit_spectrum, n_levels)
        omega = scales.omega
    elif gauge == "charge":
        strength = charge_coupling_ghz(raw, eff)
        osc = ladder_difference(n_fock)
        qub = number_matrix(qubit_spectrum, n_levels)
        omega = charge_gauge_frequency_ghz(raw, y_delta(raw), eff)
    else:
        raise ValueError("gauge must be 'flux' or 'charge'")
    return ProductCoupling(strength=strength, osc_elements=osc,
                           qubit_elements=qub,
                           osc_energies=omega * (np.arange(n_fock) + 0.5),
                           qubit_energies=qubit_spectrum.energies[:n_levels])


def first_order_shift(coupling: ProductCoupling, photon: int, level: int) -> float:
    """c X_mm K_ii; exactly zero for off-diagonal quadratures."""
    return float(np.real(coupling.strength
                         * coupling.osc_elements[photon, photon]
                         * coupling.qubit_elements[level, level]))


def second_order_table(coupling: ProductCoupling, photon: int, level: int) -> ShiftTable:
    """Exact second-order sum over all retained intermediate states."""
    amp2 = (np.abs(coupling.strength) ** 2
            * np.abs(coupling.osc_elements[photon, :, None]) ** 2
            * np.abs(coupling.qubit_elements[level, None, :]) ** 2)
    e_state = coupling.osc_energies[photon] + coupling.qubit_energies[level]
    denom = e_state - (coupling.osc_energies[:, None]
                       + coupling.qubit_energies[None, :])
    active = amp2 > ELEMENT_FLOOR
    active[photon, level] = False
    degenerate = active & (np.abs(denom) < DEGENERACY_LIMIT_GHZ)
    active &= ~degenerate
    terms = np.zeros_like(amp2)
    terms[active] = amp2[active] / denom[active]
    contributions = terms.sum(axis=0)
    excluded = tuple((int(m), int(j)) for m, j in zip(*np.nonzero(degenerate)))
    return ShiftTable(photon=photon, level=level,
                      total=float(terms.sum()), contributions=contributions,
                      excluded=excluded)


def dispersive_shift(coupling: ProductCoupling, level: int = 0) -> float:
    """Second-order shift of the oscillator transition against qubit level."""
    upper = second_order_table(coupling, 1, level)
    lower = second_order_table(coupling, 0, level)
    return upper.total - lower.total
