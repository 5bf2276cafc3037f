"""Two-level reduction of the flux-qubit node and its matrix elements.

Near half a flux quantum the two lowest qubit levels follow

    E_{1,0}(phix) = omega_os +- sqrt(eps^2 + Delta_q^2) / 2,
    eps = 2 Ip (phix - 0.5) Phi0 / h,

and the ground/excited diagonal flux elements follow
-+ Phi2max * eps / sqrt(eps^2 + Delta_q^2).  Fitting those forms to the
plane-wave levels yields the qubit parameters (Delta_q, Ip, Phi2max) of the
two-level model; q2max is the magnitude of the off-diagonal charge element
at the symmetry point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import bias_to_ghz
from .planewave import (
    PlaneWaveBasis,
    SubsystemSpectrum,
    diagonalize_flux_qubit,
    linear_kernel,
)

# Bias grid of the two-level reduction.
PHIX_FIT_GRID = np.linspace(0.496, 0.504, 41)

QUBIT_LEVEL_TAGS = ("g", "e", "f", "h", "k", "l")


class TwoLevelFitError(RuntimeError):
    """Raised when the two-level reduction cannot represent the data."""


@dataclass(frozen=True)
class TwoLevelFit:
    """Two-level parameters in GHz / nA / Phi0 units.

    fit_residual is the mean squared level misfit in GHz^2.  Phi2max and
    q2max stay None until the matrix-element extraction fills them in.
    """

    Delta_q: float
    Ip: float
    omega_os: float
    fit_residual: float
    Phi2max: float | None = None
    q2max: float | None = None


@dataclass(frozen=True)
class QubitMatrixElements:
    """Flux and charge matrix elements against the two lowest levels.

    flux_elems[j, i] = <j|Phi2|i> in Phi0 units and charge_elems[j, i] =
    <j|q2|i> in 2e units for i in (g, e) and j over the tabulated levels.
    With the plane-wave phase convention the flux table is real and the
    charge table purely imaginary.
    """

    flux_elems: np.ndarray
    charge_elems: np.ndarray


def phase_matrix(spectrum: SubsystemSpectrum, n_levels: int) -> np.ndarray:
    """<j|phase|i> over the lowest levels; phase = 2 pi Phi2 / Phi0."""
    coeffs = spectrum.coefficients[:n_levels]
    k = spectrum.basis.wave_numbers
    return np.conj(coeffs) @ (coeffs * k).T


def number_matrix(spectrum: SubsystemSpectrum, n_levels: int) -> np.ndarray:
    """<j|n|i> over the lowest levels; n is the charge in 2e units."""
    coeffs = spectrum.coefficients[:n_levels]
    n_op = linear_kernel(spectrum.basis)
    return np.conj(coeffs) @ n_op @ coeffs.T


def matrix_elements(spectrum: SubsystemSpectrum,
                    n_levels: int = 6) -> QubitMatrixElements:
    """Tabulate <j|Phi2|i> (Phi0 units) and <j|q2|i> (2e units), i in (g, e)."""
    phase = phase_matrix(spectrum, n_levels)
    number = number_matrix(spectrum, n_levels)
    for full, name in ((phase, "phase"), (number, "number")):
        if np.abs(full - full.conj().T).max() > 1e-10 * max(np.abs(full).max(), 1e-30):
            raise TwoLevelFitError(f"{name} element table is not Hermitian")
    return QubitMatrixElements(
        flux_elems=phase[:, :2] / (2.0 * math.pi),
        charge_elems=number[:, :2],
    )


def fit_two_level(phix: np.ndarray, e0: np.ndarray, e1: np.ndarray) -> TwoLevelFit:
    """Least-squares fit of the avoided-crossing form to the lowest doublet."""
    phix = np.asarray(phix, dtype=float)
    mean = 0.5 * (np.asarray(e0) + np.asarray(e1))
    split = np.asarray(e1) - np.asarray(e0)
    dq0 = float(split.min())
    edge = float(split[np.argmax(np.abs(phix - 0.5))])
    eps_edge = math.sqrt(max(edge**2 - dq0**2, 1e-12))
    slope_flux = float(np.max(np.abs(phix - 0.5)))
    ip0 = eps_edge / max(bias_to_ghz(1.0, 0.5 + slope_flux), 1e-12)

    def residuals(params: np.ndarray) -> np.ndarray:
        omega_os, dq, ip = params
        s = np.sqrt(bias_to_ghz(ip, phix) ** 2 + dq**2)
        return np.concatenate([omega_os - 0.5 * s - e0, omega_os + 0.5 * s - e1])

    start = np.array([float(mean.mean()), dq0, ip0])
    initial = float(np.mean(residuals(start) ** 2))
    # scipy.optimize is imported on first use: loading it takes about 50 MB
    # of resident memory, which runs that never fit need not carry
    from scipy.optimize import least_squares

    sol = least_squares(residuals, start, method="lm",
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    residual = float(np.mean(sol.fun**2))
    if residual > 10.0 * max(initial, 1e-30) or not np.all(np.isfinite(sol.x)):
        raise TwoLevelFitError("two-level fit diverged")
    omega_os, dq, ip = sol.x
    return TwoLevelFit(Delta_q=abs(float(dq)), Ip=abs(float(ip)),
                       omega_os=float(omega_os), fit_residual=residual)


def extract_phi2max(phix: np.ndarray, flux_gg: np.ndarray, flux_ee: np.ndarray,
                    fit: TwoLevelFit) -> float:
    """Scale of the diagonal flux elements, in Phi0 units.

    Fits  <g|Phi2|g> = -Phi2max x  and  <e|Phi2|e> = +Phi2max x  with
    x = eps / sqrt(eps^2 + Delta_q^2); the two estimates must agree to 1%.
    """
    eps = bias_to_ghz(fit.Ip, np.asarray(phix, dtype=float))
    x = eps / np.sqrt(eps**2 + fit.Delta_q**2)
    denom = float(x @ x)
    if denom == 0.0:
        raise TwoLevelFitError("bias grid does not resolve the flux dispersion")
    from_g = -float(x @ np.real(flux_gg)) / denom
    from_e = float(x @ np.real(flux_ee)) / denom
    scale = 0.5 * (from_g + from_e)
    if abs(from_g - from_e) > 0.01 * abs(scale):
        raise TwoLevelFitError(
            f"inconsistent Phi2max estimates: {from_g:.6g} vs {from_e:.6g}")
    if scale <= 0.0:
        raise TwoLevelFitError("Phi2max must come out positive")
    return scale


def characterize_qubit(ecj: float, ej: float, elfq: float) -> TwoLevelFit:
    """Complete two-level reduction of a qubit node over PHIX_FIT_GRID.

    Sweeps the plane-wave solve on PlaneWaveBasis.for_qubit(), fits the
    level doublet, extracts Phi2max from the diagonal flux elements, and
    evaluates q2max at phix = 0.5.
    """
    basis = PlaneWaveBasis.for_qubit()
    e0, e1, gg, ee = [], [], [], []
    for phix in PHIX_FIT_GRID:
        spectrum = diagonalize_flux_qubit(ecj, ej, elfq, float(phix), basis)
        phase = phase_matrix(spectrum, 2)
        e0.append(spectrum.energies[0])
        e1.append(spectrum.energies[1])
        gg.append(phase[0, 0].real / (2.0 * math.pi))
        ee.append(phase[1, 1].real / (2.0 * math.pi))
    fit = fit_two_level(PHIX_FIT_GRID, np.array(e0), np.array(e1))
    phi2max = extract_phi2max(PHIX_FIT_GRID, np.array(gg), np.array(ee), fit)
    symmetric = diagonalize_flux_qubit(ecj, ej, elfq, 0.5, basis)
    q2max = abs(number_matrix(symmetric, 2)[0, 1])
    return replace(fit, Phi2max=phi2max, q2max=float(q2max))
