"""Two-level reduction of the flux-qubit node and its matrix elements.

Near half a flux quantum the two lowest qubit levels follow

    E_{1,0}(phix) = omega_os +- sqrt(eps^2 + Delta_q^2) / 2,
    eps = 2 Ip (phix - 0.5) Phi0 / h,

and the ground/excited diagonal flux elements follow
-+ Phi2max * eps / sqrt(eps^2 + Delta_q^2).  Fitting those forms to the
plane-wave levels yields the qubit parameters (Delta_q, Ip, Phi2max) of the
two-level model; q2max is the magnitude of the off-diagonal charge element
at the symmetry point.  The level fit needs numpy only: omega_os is the
mean doublet midpoint, and (Delta_q, Ip) follow from the splitting by
constants.levenberg_marquardt, the least-squares loop of the Rabi fit.

The qubit eigenvectors are real, so both element tables are real: the
symmetric Phi[j, i] = <j|phase|i> and the antisymmetric B with
<j|n|i> = 1j B[j, i].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import bias_to_ghz, levenberg_marquardt
from .planewave import (
    PlaneWaveBasis,
    SubsystemSpectrum,
    _shared,
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


def phase_matrix(spectrum: SubsystemSpectrum, n_levels: int) -> np.ndarray:
    """Phi[j, i] = <j|phase|i> over the lowest levels, real symmetric;
    phase = 2 pi Phi2 / Phi0."""
    coeffs = spectrum.coefficients[:n_levels]
    k = spectrum.basis.wave_numbers
    return coeffs @ (coeffs * k).T


def number_matrix(spectrum: SubsystemSpectrum, n_levels: int) -> np.ndarray:
    """B over the lowest levels, real antisymmetric, with <j|n|i> =
    1j B[j, i]; n is the charge in 2e units."""
    coeffs = spectrum.coefficients[:n_levels]
    return coeffs @ linear_kernel(spectrum.basis) @ coeffs.T


def fit_two_level(phix: np.ndarray, e0: np.ndarray, e1: np.ndarray) -> TwoLevelFit:
    """Least-squares fit of the avoided-crossing form to the lowest doublet.

    The misfit of a bias point is 2 (omega_os - m)^2 + (s - d)^2 / 2, with
    m the doublet midpoint, d = e1 - e0 and s the model splitting, so
    omega_os is the mean midpoint.  (Delta_q, Ip) then fit s to d by
    constants.levenberg_marquardt from the splitting's minimum and edge.
    Non-finite data, a splitting that reaches 0 (the start has no scale),
    a run that does not settle or a final misfit above ten times the
    start's raise TwoLevelFitError.
    """
    phix = np.asarray(phix, dtype=float)
    e0 = np.asarray(e0, dtype=float)
    e1 = np.asarray(e1, dtype=float)
    if not (np.all(np.isfinite(e0)) and np.all(np.isfinite(e1))):
        raise TwoLevelFitError("two-level fit data are not finite")
    mean = 0.5 * (e0 + e1)
    split = e1 - e0
    dq0 = float(split.min())
    if not dq0 > 0.0:
        raise TwoLevelFitError("the doublet closes: no splitting to fit")
    edge = float(split[np.argmax(np.abs(phix - 0.5))])
    eps_edge = math.sqrt(max(edge**2 - dq0**2, 1e-12))
    slope_flux = float(np.max(np.abs(phix - 0.5)))
    ip0 = eps_edge / max(bias_to_ghz(1.0, 0.5 + slope_flux), 1e-12)
    k = bias_to_ghz(1.0, phix)

    def residuals(params: np.ndarray) -> np.ndarray:
        omega_os, dq, ip = params
        s = np.sqrt((ip * k) ** 2 + dq**2)
        return np.concatenate([omega_os - 0.5 * s - e0, omega_os + 0.5 * s - e1])

    def splitting(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        dq, ip = theta
        s = np.sqrt((ip * k) ** 2 + dq**2)
        return s - split, np.column_stack([dq / s, ip * k**2 / s])

    start = np.array([float(mean.mean()), dq0, ip0])
    initial = float(np.mean(residuals(start) ** 2))
    theta, _, settled = levenberg_marquardt(splitting, start[1:])
    if not settled:
        raise TwoLevelFitError("two-level fit did not settle")
    params = np.concatenate([start[:1], theta])
    residual = float(np.mean(residuals(params) ** 2))
    # the rounding of the levels themselves, below which no fit can go
    floor = (np.finfo(float).eps * float(np.max(np.abs([e0, e1])))) ** 2
    if residual > 10.0 * max(initial, floor) or not np.all(np.isfinite(params)):
        raise TwoLevelFitError("two-level fit diverged")
    omega_os, dq, ip = params
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
    from_g = -float(x @ flux_gg) / denom
    from_e = float(x @ flux_ee) / denom
    scale = 0.5 * (from_g + from_e)
    if abs(from_g - from_e) > 0.01 * abs(scale):
        raise TwoLevelFitError(
            f"inconsistent Phi2max estimates: {from_g:.6g} vs {from_e:.6g}")
    if scale <= 0.0:
        raise TwoLevelFitError("Phi2max must come out positive")
    return scale


def characterize_qubit(ecj: float, ej: float, elfq: float) -> TwoLevelFit:
    """Complete two-level reduction of a qubit node over PHIX_FIT_GRID.

    Sweeps the plane-wave solve on PlaneWaveBasis.for_qubit(), each solve
    shared within a run (planewave._shared), fits the level doublet,
    extracts Phi2max from the diagonal flux elements, and evaluates q2max
    at phix = 0.5.
    """
    basis = PlaneWaveBasis.for_qubit()
    e0, e1, gg, ee = [], [], [], []
    for phix in PHIX_FIT_GRID:
        spectrum = _shared(diagonalize_flux_qubit, ecj, ej, elfq, float(phix),
                           basis)
        phase = phase_matrix(spectrum, 2)
        e0.append(spectrum.energies[0])
        e1.append(spectrum.energies[1])
        gg.append(phase[0, 0] / (2.0 * math.pi))
        ee.append(phase[1, 1] / (2.0 * math.pi))
    fit = fit_two_level(PHIX_FIT_GRID, np.array(e0), np.array(e1))
    phi2max = extract_phi2max(PHIX_FIT_GRID, np.array(gg), np.array(ee), fit)
    symmetric = _shared(diagonalize_flux_qubit, ecj, ej, elfq, 0.5, basis)
    q2max = abs(number_matrix(symmetric, 2)[0, 1])
    return replace(fit, Phi2max=phi2max, q2max=float(q2max))
