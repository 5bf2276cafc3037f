"""Perturbative dispersive shifts for product couplings.

The coupling between the oscillator and the qubit factorizes into an
oscillator quadrature times a qubit operator, V = c X (x) K.  For a bare
state |m, i> the first-order shift is c X_mm K_ii (zero for ladder-type
quadratures) and the second-order shift is

    sum_{(n,j) != (m,i)}  |c X_mn K_ij|^2 / (E_mi - E_nj)

which this module evaluates exactly within the supplied level sets, broken
down by intermediate qubit level so the dominant virtual transitions can
be read off.  The net dispersive shift of the oscillator against qubit
level i is shift(1, i) - shift(0, i).  The coupling is the real
ProductCoupling of fluxrabi.coupled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ProductCoupling and circuit_coupling live in coupled, next to the
# eigenbasis build that assembles from the same coupling; they are
# re-exported here because perfbench/spans.py looks circuit_coupling up in
# this module by name.
from .coupled import ProductCoupling, circuit_coupling  # noqa: F401

# Denominators smaller than this (GHz) with a nonzero matrix element mean
# the state is effectively degenerate and the series is invalid.
DEGENERACY_LIMIT_GHZ = 1e-3
ELEMENT_FLOOR = 1e-30


@dataclass(frozen=True)
class ShiftTable:
    """Second-order shift of |photon, level> and its per-level breakdown.

    contributions[j] sums the terms routed through intermediate qubit
    level j.  Quasi-degenerate contributors (denominator below the guard
    with a nonzero element) are excluded from the sums and listed as
    (photon, level) pairs in excluded.
    """

    total: float
    contributions: np.ndarray
    excluded: tuple[tuple[int, int], ...] = ()


def first_order_shift(coupling: ProductCoupling, photon: int, level: int) -> float:
    """c X_mm K_ii; exactly zero for off-diagonal quadratures."""
    return float(coupling.strength * coupling.osc_elements[photon, photon]
                 * coupling.qubit_elements[level, level])


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
    return ShiftTable(total=float(terms.sum()), contributions=contributions,
                      excluded=excluded)
