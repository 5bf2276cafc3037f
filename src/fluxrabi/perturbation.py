"""Perturbative dispersive shifts for product couplings.

The coupling between the oscillator and the qubit factorizes into an
oscillator quadrature times a qubit operator, V = c X (x) K.  X is a + a'
in the flux gauge and a - a' in the charge gauge, with the same
|X_mn|^2 = max(m, n) for |m - n| = 1 and no other element, so the
first-order shift c X_mm K_ii of a bare state |m, i> is zero and its
second-order shift is

    sum_j  m |c K_ij|^2 / (omega + E_i - E_j)
         + (m + 1) |c K_ij|^2 / (-omega + E_i - E_j),

the exact sum over every state V reaches, |m - 1, j> and |m + 1, j> for
the qubit levels the coupling tabulates, broken down by intermediate qubit
level so the dominant virtual transitions can be read off.  The net
dispersive shift of the oscillator against qubit level i is
shift(1, i) - shift(0, i).  The coupling is the real ProductCoupling of
fluxrabi.coupled, which holds the qubit side only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ProductCoupling and circuit_coupling live in coupled, next to the
# eigenbasis build that assembles from the same coupling; they are
# re-exported here because perfbench/spans.py looks circuit_coupling up in
# this module by name.
from .coupled import (TABLE_NOISE, ProductCoupling,  # noqa: F401
                      circuit_coupling)

# Denominators smaller than this (GHz) with a counted matrix element mean
# the state is effectively degenerate and the series is invalid.
DEGENERACY_LIMIT_GHZ = 1e-3


@dataclass(frozen=True)
class ShiftTable:
    """Second-order shift of |photon, level> and its per-level breakdown.

    contributions[j] sums the terms routed through intermediate qubit
    level j.  K[level, j] counts only above TABLE_NOISE of max |K| and at
    a nonzero strength, so parity-forbidden (noise) elements at phix = 0.5
    and every element at Lc = 0 add exactly 0.  Quasi-degenerate
    contributors (denominator below the guard with a counted element) are
    excluded from the sums and listed as (photon, level) pairs in excluded.
    """

    total: float
    contributions: np.ndarray
    excluded: tuple[tuple[int, int], ...] = ()


def second_order_table(coupling: ProductCoupling, photon: int, level: int) -> ShiftTable:
    """Exact second-order sum over the intermediate states |photon -+ 1, j>
    for every tabulated qubit level j.

    photon must be >= 0 and level a tabulated qubit level, else ValueError.
    """
    n_levels = len(coupling.qubit_energies)
    if photon < 0 or not 0 <= level < n_levels:
        raise ValueError(f"need photon >= 0 and level in 0 .. {n_levels - 1}, "
                         f"not photon {photon}, level {level}")
    rows = np.array([n for n in (photon - 1, photon + 1) if n >= 0])
    amp2 = (coupling.strength ** 2 * np.maximum(rows, photon)[:, None]
            * coupling.qubit_elements[level, None, :] ** 2)
    denom = ((photon - rows)[:, None] * coupling.omega
             + (coupling.qubit_energies[level] - coupling.qubit_energies))
    elements = np.abs(coupling.qubit_elements)
    counted = ((elements[level] > TABLE_NOISE * elements.max())
               & (coupling.strength != 0.0))
    degenerate = counted & (np.abs(denom) < DEGENERACY_LIMIT_GHZ)
    active = counted & ~degenerate
    terms = np.zeros_like(amp2)
    terms[active] = amp2[active] / denom[active]
    excluded = tuple((int(rows[r]), int(j))
                     for r, j in zip(*np.nonzero(degenerate)))
    return ShiftTable(total=float(terms.sum()), contributions=terms.sum(axis=0),
                      excluded=excluded)
